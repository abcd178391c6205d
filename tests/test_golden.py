"""Byte-identical output on the demo documents, and the demos themselves.

The digests are SHA-256 of the ``--json`` stdout recorded before the
one-period analysis was folded into a single record; a refactor that keeps
the library's behaviour keeps every digest. The ``kkl`` digests pin both the
``--json`` stdout and the ``--out`` CSV bytes; they were recorded while the
lattice was still priced by a Fraction recursion. Each command also runs
without ``--json``, against a digest of its human-readable stdout, and each
demo against a digest of what it prints.
"""

import hashlib
import io
import json
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

# the same commands without --json: SHA-256 of the human-readable stdout,
# recorded at commit 8cefb9b
HUMAN_GOLDEN = {
    "analyze demos/data/incomplete_market.json":
        "068d648cbed4609c0adef90044f0b4229e80667f308408ee4465daa807881ba5",
    "analyze demos/data/trinomial_market.json":
        "25e2c5c9fa0ab8b31c3f8a9036ff14d10e4cb806c9ed4bea83338739c8d35b65",
    "bounds demos/data/trinomial_market.json --payoff=1,0,0":
        "85632b3b60952c45869d8e50a9f280c4afddd532e29a03529392a8a5317e8fd8",
    "complete demos/data/incomplete_market.json":
        "99ec34222d937b0da76e8dcab34bf912542f84519c334f79456b79bf40432375",
    "complete demos/data/trinomial_market.json":
        "a1cb687a5514bea151a8d38861b40bb5c383fe46d255065235e224d1bb28f3d4",
    "generators demos/data/incomplete_market.json":
        "129207d4288ba5f7101ea7355914a54d59eb2cdbad9824d96797f5fb07e7f54a",
    "generators demos/data/trinomial_market.json":
        "5deb5f769d16ef382b89fbe98bc5b798f3166694fc241f4612cc5801cfc2a7fc",
    "tree analyze demos/data/binomial_tree.json":
        "c89612d90d60bd9e53248b4e6d52d7bfadd3bf27cdb54157a4e75999b59b778e",
    "tree analyze demos/data/trinomial_tree.json":
        "c2c7b97d3eaf330f249d06e624f3313ecb90a92bc3f99ceabf2522e2bd51452a",
    "tree complete demos/data/binomial_tree.json":
        "42fd03237b656a889fb021908f45b96555d40f5a066f8ddf3e56047409bb07ce",
    "tree complete demos/data/trinomial_tree.json":
        "aca972778f31e9615633d9c49b978f725ea21117c56872b935fc049ea47d429c",
}


def with_modes(table):
    """Each key in both output modes; the --json case keeps the key as its id."""
    return [
        pytest.param(key, json_mode, id=key if json_mode else f"{key} (human)")
        for key in sorted(table)
        for json_mode in (True, False)
    ]


@pytest.mark.parametrize("command,json_mode", with_modes(GOLDEN))
def test_json_output_digest(command, json_mode, monkeypatch):
    monkeypatch.chdir(ROOT)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(command.split() + (["--json"] if json_mode else []))
    assert code == 0
    expected = (GOLDEN if json_mode else HUMAN_GOLDEN)[command]
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == expected


# kkl options -> (--json stdout digest, surface CSV digest). The CSV path is
# relative, so the path echoed in the report is the same in every run.
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


# the same options without --json: SHA-256 of the human-readable stdout,
# recorded at commit 8cefb9b; the CSV bytes are the same in both modes
KKL_HUMAN_GOLDEN = {
    "--s0 2 --lambda 1/8 --eta 1/8 --rate 1/10 --horizon 1 --steps 4 "
    "--emm-p 1/2 --epsilon 1/100 --seed 7":
        "741a2b6caf180e4c67dcd4a2fe990e74490b1d44ca5858f544fafb7e3afe6c28",
    "--s0 3 --lambda 1/16 --eta 3/32 --rate=-1/5 --steps 8 --emm-p 3/8":
        "71232f62e80386ef2a78aa3e1e5a873f79e0072048318c76c488d0258a9a2cc1",
    "--s0 2 --lambda 1/64 --eta 1/64 --rate 1/20 --steps 30 "
    "--epsilon 1/1000 --seed 3":
        "7222e016e2c3999d8b06fe23a7a45109c3fd94c3182b57889263ef14cb3828d1",
}


@pytest.mark.parametrize("options,json_mode", with_modes(KKL_GOLDEN))
def test_kkl_output_digest(options, json_mode, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(
            ["kkl", *options.split(), "--out", "surface.csv"] + (["--json"] if json_mode else [])
        )
    assert code == 0
    json_digest, csv_digest = KKL_GOLDEN[options]
    stdout_digest = json_digest if json_mode else KKL_HUMAN_GOLDEN[options]
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


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python args`` in a fresh process, at the repo root, with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


# demo -> SHA-256 of its stdout, recorded while the lattice functions still
# took the lattice and the node measure as separate arguments
DEMO_GOLDEN = {
    "birth_death_lattice.py":
        "3b391b58c80b969b094c18695ca6585c89a02ffa0f012f03c021ed126abf8fa1",
    "event_trees.py":
        "9ee7bc92c0c02c9616d519875093bd8af4b7880649f93e5ea4a41be033d11e6e",
    "one_period_markets.py":
        "6d18e5d9e1d0e11ca71f4084783caace8e1e3a4702202619e1d4100774c5bcb9",
    "pricing_and_completion.py":
        "e4a04b7a3d9283257a94d05dd86fb4240d0bad2acdc9c34187ffe4a8c44933db",
}


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(script):
    done = run_python(str(ROOT / "demos" / script))
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == DEMO_GOLDEN[script]


NOT_VIABLE_DOC = {
    "rate": "0",
    "spot": ["15", "123"],
    "payoffs": [["18", "-6", "-6", "75"], ["99", "-33", "-33", "291"]],
}


@pytest.mark.parametrize(
    "args,code",
    [
        (["analyze", "demos/data/incomplete_market.json", "--json"], 0),
        (["analyze", "demos/data/no_such_market.json"], 2),
        (["analyze", "demos/data/incomplete_market.json", "--max-outcomes", "1"], 3),
        (["bounds", "{not_viable}", "--payoff=1,0,0,0"], 4),
    ],
    ids=["ok", "input", "limit", "not-viable"],
)
def test_cli_process_exit_codes(args, code, tmp_path):
    market = tmp_path / "not_viable.json"
    market.write_text(json.dumps(NOT_VIABLE_DOC))
    done = run_python("-m", "martpoly.cli", *(a.format(not_viable=market) for a in args))
    assert done.returncode == code, done.stderr
    if code == 0:
        digest = hashlib.sha256(done.stdout.encode()).hexdigest()
        assert digest == GOLDEN["analyze demos/data/incomplete_market.json"]
    else:
        assert done.stdout == ""
        assert done.stderr.startswith("error:")
