"""Byte-identical output on the demo documents, and the demos themselves.

The digests are SHA-256 of the ``--json`` stdout recorded before the
one-period analysis was folded into a single record; a refactor that keeps
the library's behaviour keeps every digest.
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
