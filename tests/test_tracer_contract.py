"""The benchmark tracer's contract with the library: every name it wraps exists.

``benchmarks/tracing.py`` wraps functions by (module, attribute) name; a
library change that moves or drops one of them would break every traced
benchmark run. The tracer is loaded from its file and never modified.
"""

import importlib
import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from martpoly.cli import main

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", ROOT / "benchmarks" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [
        f"{module}.{attr}"
        for module, attrs in tracing.FUNCTIONS.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(f"martpoly.{module}"), attr, None))
    ]
    assert missing == []


def test_traced_generators_op_counts_one_enumeration():
    tracer = load_tracing().Tracer()
    tracer.install()
    out = io.StringIO()
    try:
        tracer.begin(0)
        with redirect_stdout(out):
            code = main(["generators", str(ROOT / "demos/data/incomplete_market.json"), "--json"])
        tracer.end()
    finally:
        tracer.uninstall()
    assert code == 0
    assert len(json.loads(out.getvalue())["generators"]) == 3
    assert tracer.totals()[0][0]["geometry.enumerate_generators"] == 1
    assert tracer.counts[0]["geometry.generators"] == 3
