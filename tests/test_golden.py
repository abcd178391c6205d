"""Byte-identical output on the demo documents, and the demos themselves.

The digests are SHA-256 of the ``--json`` stdout recorded before the
one-period analysis was folded into a single record; a refactor that keeps
the library's behaviour keeps every digest. The ``kkl`` digests pin both the
``--json`` stdout and the ``--out`` CSV bytes; they were recorded while the
lattice was still priced by a Fraction recursion.
"""

import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from martpoly.cli import main

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    "analyze demos/data/incomplete_market.json":
        "78819bb79d6eaca1423573ab28ae5d24470bb8a1cdfb73c4a81f388d8e4d7cbe",
    "generators demos/data/incomplete_market.json":
        "65b41f0932019a31ae8fa906d182aeefe2a45f93647974dd9e3a7836546b3c0c",
    "complete demos/data/incomplete_market.json":
        "23db9f028f7c09d191abefcb3a4799a036cadd24ddc33113370e51fc90d3e4fa",
    "analyze demos/data/trinomial_market.json":
        "33a936d31f9dbf3262838cc7c35c57e59cc4568af0c8883c6c5f70028026c302",
    "generators demos/data/trinomial_market.json":
        "3366b04e8aae0d4d185dac02fb908a155deb3eaf66051d2acd369cf15cd13afb",
    "complete demos/data/trinomial_market.json":
        "53371289eeedce0860bb234d5bc8029b9dcf36e10b77b68721cff4cf1c831c85",
    "bounds demos/data/trinomial_market.json --payoff=1,0,0":
        "c19b0820da7c7b8db878ba2734c16cbb6fb83f2e7260500dd191363b02b1a5ef",
    "tree analyze demos/data/binomial_tree.json":
        "d27a53ea4279445b843ebc10c65820c71bd3b6078a7c06baf20716f9599d2f22",
    "tree complete demos/data/binomial_tree.json":
        "b64c0e49d0efd3c2fcaaa3ee263b0ec157ae142658b437686885d95bc90e3f09",
    "tree analyze demos/data/trinomial_tree.json":
        "cfeae4d20a653a011b2ce22988687370ad19393609595ff0943b365aabc8e8fa",
    "tree complete demos/data/trinomial_tree.json":
        "4dccf05e74181dcc9afad6f25655fb201294bfa6417560c02985d298e425d9f4",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_json_output_digest(command, monkeypatch):
    monkeypatch.chdir(ROOT)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(command.split() + ["--json"])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN[command]


# kkl options -> (stdout digest, surface CSV digest). The CSV path is relative,
# so the path echoed in the report is the same in every run.
KKL_GOLDEN = {
    # the README example
    "--s0 2 --lambda 1/8 --eta 1/8 --rate 1/10 --horizon 1 --steps 4 "
    "--emm-p 1/2 --epsilon 1/100 --seed 7": (
        "c0a2ca98932d06e754018e8134cffc4a9a0d6d7c6429e3a8783c945c99d90e2e",
        "edd4e4547debc2d228e3353f955ba79bc6ba48bde1cb7c19b762a65d80bf2a56",
    ),
    "--s0 3 --lambda 1/16 --eta 3/32 --rate=-1/5 --steps 8 --emm-p 3/8": (
        "8046c3c0a8cbab5f5a0e0d8ae038b79c927489b2317ade4316edd8bf5c273127",
        "695f9044ecbd7e8b72d307e86288fd7ea2e85d0a31d29969cb3a34f0c13b88ec",
    ),
    "--s0 2 --lambda 1/64 --eta 1/64 --rate 1/20 --steps 30 "
    "--epsilon 1/1000 --seed 3": (
        "1ea484f4415bb479e51f1a7cf42df2af36baa507597819903a186563e92fb053",
        "9c17598bb600ed68964510db417972cb0e7e6cab5059071c28e2676024654428",
    ),
}


@pytest.mark.parametrize("options", sorted(KKL_GOLDEN))
def test_kkl_output_digest(options, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["kkl", *options.split(), "--out", "surface.csv", "--json"])
    assert code == 0
    stdout_digest, csv_digest = KKL_GOLDEN[options]
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == stdout_digest
    csv_bytes = (tmp_path / "surface.csv").read_bytes()
    assert hashlib.sha256(csv_bytes).hexdigest() == csv_digest


# market -> SHA-256 of the extended market that `complete --apply` writes,
# recorded while the file was still written by json.dump
APPLY_GOLDEN = {
    "demos/data/incomplete_market.json":
        "a9408633e3603615358d888591780b23cc1b5b580c7dd0e3a0791a42321377af",
    "demos/data/trinomial_market.json":
        "6025b065bcb1a599e31c181c7c4bf30d02992cb955301efc22d276a7320ef85a",
}


@pytest.mark.parametrize("market", sorted(APPLY_GOLDEN))
def test_complete_apply_file_digest(market, tmp_path):
    out = tmp_path / "extended.json"
    with redirect_stdout(io.StringIO()):
        code = main(["complete", str(ROOT / market), "--apply", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == APPLY_GOLDEN[market]


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
