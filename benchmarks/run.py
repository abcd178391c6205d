"""martpoly benchmark: seeded workloads through the CLI, in one process.

One client issues ops in a closed loop, each op being one call of
``martpoly.cli.main(argv)`` with stdout captured, so argument parsing,
document loading, analysis and output are timed and interpreter start-up is
not. Every op's output passes the correctness gate (``gate.py``) outside its
timed interval. See README.md for the workloads and metrics.

    python3 benchmarks/run.py --workload facewalk --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --self-test       # the gate catches corrupted output
    python3 benchmarks/run.py --reference       # face-solve and lattice baselines
    python3 benchmarks/run.py --write-digests   # refresh digests.json

The last line of a workload run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import gate
import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Relative, because the kkl report echoes its --out path and digests must
# not depend on where the checkout lives; main() runs from ROOT.
WORK = Path(".bench_work")
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 9
# Traced runs trace ops in alternating blocks of four, so traced and untraced
# ops see every command and input kind; the difference is the overhead.
TRACE_BLOCK = 4
# Count metrics come from the first COUNT_OPS traced ops, so two traced runs
# of one seed report identical counts however many ops each completes.
COUNT_OPS = 8
# A run goes on past --seconds until MIN_OPS ops are done, so the tail
# percentile has ten samples beyond it; it stops early, within 180 s, once
# the process has run WALL_LIMIT_S.
MIN_OPS = 21
WALL_LIMIT_S = 150.0
ENV_MAX_OUTCOMES = "MARTPOLY_MAX_OUTCOMES"
PROCESS_START = time.monotonic()

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "ok_op_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_fresh():
    """Import martpoly anew, dropping any modules (and caches) loaded before."""
    for name in [m for m in sys.modules if m == "martpoly" or m.startswith("martpoly.")]:
        del sys.modules[name]
    return importlib.import_module("martpoly.cli")


def invoke(cli, argv: list[str]) -> tuple[int | None, str, str, float]:
    """One CLI call: exit code (None on an internal error), stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an internal error fails the op; the run goes on
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def check_op(name: str, item, code, stdout: str, stderr: str, cli,
             digest: str | None) -> tuple[list[str], dict]:
    """Gate one op's output; returns errors and count metrics read from it."""
    errors: list[str] = []
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"], {}
    doc = gate.load_output(stdout, errors)
    counts: dict = {}
    extra = b""
    if doc is not None:
        if name == "facewalk":
            if item.command == "analyze":
                gate.check_analyze(item, doc, errors)
            elif item.command == "generators":
                gate.check_generators(item, doc, errors)
            else:
                # bounds and complete report no generators: ask for them on
                # the same document and check them too.
                g_code, g_out, g_err, _ = invoke(cli, ["generators", str(WORK / "market.json"),
                                                       "--json"])
                gens: list = []
                if g_code != 0:
                    errors.append(f"generators for the gate exited {g_code}: {g_err[-200:]}")
                else:
                    gens = gate.check_measures(item.market, json.loads(g_out)["generators"],
                                               errors)
                check = gate.check_bounds if item.command == "bounds" else gate.check_complete
                check(item, doc, gens, errors)
        elif name == "tree":
            gate.check_tree(item, doc, errors)
        else:
            csv_bytes = (WORK / "surface.csv").read_bytes()
            extra = csv_bytes
            counts = gate.check_lattice(item, doc, csv_bytes.decode("utf-8"), errors)
    if digest is not None and gate.output_digest(stdout, extra) != digest:
        errors.append("output differs from the committed digest for this seed and op")
    return errors, counts


def load_digests(name: str, seed: int) -> list[str]:
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return []
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(name, [])


def set_up(name: str, seed: int):
    """Import, generate the op pool and warm up; returns (seconds, cli, pool, seen, errors)."""
    start = time.perf_counter()
    cli = import_fresh()
    items = workloads.pool(name, seed)
    seen: set = set()
    errors: list[str] = []
    for item in workloads.warmup(name, seed):
        seen |= item.keys
        code, out, err, _ = invoke(cli, item.argv(WORK))
        errors += check_op(name, item, code, out, err, cli, None)[0]
    return time.perf_counter() - start, cli, items, seen, errors


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(n - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / n


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text(encoding="utf-8").strip()
        packed = (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8")
        for line in packed.splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": commit_id(),
        ENV_MAX_OUTCOMES: "unset",
    }


def layer_metrics(tracer: Tracer, traced: list[int], counted: list[int],
                  op_counts: dict[int, dict], overhead: float) -> dict[str, tuple[float, str]]:
    calls, incl, self_ns = tracer.totals()

    def count(fn) -> float:
        return sum(fn(op) for op in counted) / max(len(counted), 1)

    def seconds(table, span: str) -> float:
        return sum(table[op][span] for op in traced) / max(len(traced), 1) / 1e9

    def ratio(num, den) -> float:
        total = sum(den(op) for op in counted)
        return sum(num(op) for op in counted) / total if total else 0.0

    extra = tracer.counts
    face_solves = lambda op: calls[op]["geometry.face_intersection"]  # noqa: E731
    out: dict[str, tuple[float, str]] = {
        "rationals.rref.calls": (count(lambda op: calls[op]["rationals.rref"]), "count"),
        "rationals.rref.s": (seconds(incl, "rationals.rref"), "s"),
        "rationals.rref.entries": (count(lambda op: extra[op]["rationals.rref.entries"]), "count"),
        "rationals.solve.calls": (count(lambda op: calls[op]["rationals.solve"]), "count"),
        "rationals.solve.self_s": (seconds(self_ns, "rationals.solve"), "s"),
        "rationals.parse_rational.calls":
            (count(lambda op: calls[op]["rationals.parse_rational"]), "count"),
        "rationals.parse_rational.s": (seconds(incl, "rationals.parse_rational"), "s"),
        "geometry.enumerate_generators.calls":
            (count(lambda op: calls[op]["geometry.enumerate_generators"]), "count"),
        "geometry.enumerate_generators.self_s":
            (seconds(self_ns, "geometry.enumerate_generators"), "s"),
        "geometry.face_solves": (count(face_solves), "count"),
        "geometry.face_intersection.self_s": (seconds(self_ns, "geometry.face_intersection"), "s"),
        "geometry.stage_candidates.s": (seconds(incl, "geometry.stage_candidates"), "s"),
        "geometry.generators": (count(lambda op: extra[op]["geometry.generators"]), "count"),
        "geometry.hit_ratio": (ratio(lambda op: extra[op]["geometry.generators"], face_solves),
                               "ratio"),
        "geometry.max_denominator_bits":
            (max((extra[op]["geometry.max_denominator_bits"] for op in counted), default=0),
             "bits"),
        "analysis.characterize.calls":
            (count(lambda op: calls[op]["analysis.characterize"]), "count"),
        "analysis.characterize.self_s": (seconds(self_ns, "analysis.characterize"), "s"),
        "analysis.cache_hit_ratio":
            (1.0 - ratio(lambda op: calls[op]["geometry.enumerate_generators"],
                         lambda op: calls[op]["analysis.characterize"])
             if count(lambda op: calls[op]["analysis.characterize"]) else 0.0, "ratio"),
        "analysis.price_bounds.self_s": (seconds(self_ns, "analysis.price_bounds"), "s"),
        "analysis.complete_market.self_s": (seconds(self_ns, "analysis.complete_market"), "s"),
        "analysis.rank.calls": (count(lambda op: tracer.site_calls[op]["analysis.rank"]), "count"),
        "market.market_from_json_dict.s": (seconds(incl, "market.market_from_json_dict"), "s"),
        "market.build_system.calls": (count(lambda op: calls[op]["market.build_system"]), "count"),
        "multiperiod.tree_market_from_json_dict.s":
            (seconds(incl, "multiperiod.tree_market_from_json_dict"), "s"),
        "multiperiod.components.count":
            (count(lambda op: extra[op]["multiperiod.components.count"]), "count"),
        "multiperiod.components.s": (seconds(incl, "multiperiod.components"), "s"),
        "multiperiod.analyze_tree.self_s": (seconds(self_ns, "multiperiod.analyze_tree"), "s"),
        "multiperiod.complete_tree.self_s": (seconds(self_ns, "multiperiod.complete_tree"), "s"),
        "models.kkl_backward_induction.calls":
            (count(lambda op: calls[op]["models.kkl_backward_induction"]), "count"),
        "models.kkl_backward_induction.s": (seconds(incl, "models.kkl_backward_induction"), "s"),
        "models.kkl_completion_check.s": (seconds(incl, "models.kkl_completion_check"), "s"),
        "models.kkl_perturb_terminal.self_s":
            (seconds(self_ns, "models.kkl_perturb_terminal"), "s"),
    }
    for key in ("models.perturb_attempts", "models.grid_states", "models.root_denominator_bits"):
        unit = "bits" if key.endswith("bits") else "count"
        out[key] = (count(lambda op: op_counts.get(op, {}).get(key, 0)), unit)
    out["models.write_surface_csv.s"] = (seconds(incl, "models.write_surface_csv"), "s")
    out["cli.main.self_s"] = (seconds(self_ns, "cli.main"), "s")
    out["cli.output_bytes"] = (count(lambda op: op_counts[op]["cli.output_bytes"]), "bytes")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    WORK.mkdir(exist_ok=True)
    setup_times: list[float] = []
    setup_errors: list[str] = []
    for _ in range(SETUP_REPEATS):
        seconds_taken, cli, items, seen, errors = set_up(name, seed)
        setup_times.append(seconds_taken)
        setup_errors += errors
    setup_s = statistics.median(setup_times)
    digests = load_digests(name, seed)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()

    latencies: list[float] = []
    traced_ops: list[int] = []
    phase_s = {True: 0.0, False: 0.0}
    phase_n = {True: 0, False: 0}
    op_counts: dict[int, dict] = {}
    failed = 0
    elapsed = 0.0
    for item in items:
        if (elapsed >= seconds and len(latencies) >= MIN_OPS
                or time.monotonic() - PROCESS_START > WALL_LIMIT_S):
            break
        if item.keys & seen:
            raise RuntimeError(f"op {item.index} repeats an input already seen in this process")
        seen |= item.keys
        argv = item.argv(WORK)
        # A CLI process starts with a small heap. Freezing what this process
        # already holds (the pool, earlier results, the library's cache)
        # keeps the collector from walking it during the op.
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        traced = tracer is not None and (item.index // TRACE_BLOCK) % 2 == 0
        if traced:
            tracer.begin(item.index)
        code, out, err, dt = invoke(cli, argv)
        if traced:
            tracer.end()
            traced_ops.append(item.index)
        elapsed += dt
        phase_s[traced] += dt
        phase_n[traced] += 1
        latencies.append(dt)
        digest = digests[item.index] if item.index < len(digests) else None
        errors, counts = check_op(name, item, code, out, err, cli, digest)
        op_counts[item.index] = {**counts, "cli.output_bytes": len(out.encode("utf-8"))}
        if errors:
            failed += 1
            print(f"op {item.index} failed: {'; '.join(errors)[:500]}", file=sys.stderr)

    attempted = len(latencies)
    if attempted == 0:
        print("error: no op completed", file=sys.stderr)
        return 1
    for e in setup_errors:
        print(f"warm-up op failed: {e[:500]}", file=sys.stderr)
    correct = failed == 0 and not setup_errors
    env = environment(seed)
    print(f"martpoly benchmark  workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print("environment  " + "  ".join(f"{k}={v}" for k, v in env.items()))

    if tracer is None:
        p_tail, pct = tail(latencies)
        metrics = {
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": p_tail,
            "ops_per_s": attempted / elapsed,
            "ok_op_ratio": (attempted - failed) / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        notes = {
            "op_p50_s": f"median of {attempted} ops",
            "op_tail_s": f"p{pct:.1f} of {attempted} ops, {attempted - round(pct * attempted / 100)}"
                         " beyond it",
            "ops_per_s": f"{attempted} ops in {elapsed:.3f} s of op time",
            "ok_op_ratio": f"failed_op_ratio {failed / attempted:g} ({failed} of {attempted})",
            "setup_s": f"median of {SETUP_REPEATS} set-ups",
            "peak_rss_mb": "process peak resident set",
        }
    else:
        tracer.uninstall()
        untraced_rate = phase_n[False] / phase_s[False] if phase_s[False] else 0.0
        traced_rate = phase_n[True] / phase_s[True] if phase_s[True] else 0.0
        overhead = untraced_rate / traced_rate if traced_rate and untraced_rate else 1.0
        counted = traced_ops[:COUNT_OPS]
        layer = layer_metrics(tracer, traced_ops, counted, op_counts, overhead)
        metrics = {k: v for k, (v, _) in layer.items()}
        units = {k: u for k, (_, u) in layer.items()}
        notes = {k: f"per op over {len(counted) if u != 's' else len(traced_ops)} traced ops"
                 for k, (_, u) in layer.items()}
        notes["trace.overhead_ratio"] = (f"untraced over traced ops_per_s, {phase_n[False]} "
                                         f"and {phase_n[True]} ops")
        tracer.write(WORK / f"{name}-seed{seed}.spans.tsv.gz")

    width = max(len(k) for k in metrics)
    for key, value in metrics.items():
        print(f"{key:<{width}}  {value:<14.6g} {units[key]:<6} {notes[key]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": name, "seconds": seconds, "trace": int(trace),
              "environment": env, **result}
    (WORK / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


def _redump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def self_test() -> int:
    """Run tiny ops clean and corrupted; the gate must pass the first, fail the rest."""
    WORK.mkdir(exist_ok=True)
    cli = import_fresh()
    from martpoly import models, multiperiod

    mismatches = 0
    tiny_tree = workloads.TreeItem(0, 2, Fraction(1, 8), Fraction(1, 8), Fraction(1, 10), 2)
    library_doc = multiperiod.tree_market_to_json_dict(models.kkl_build(
        models.kkl_params(2, Fraction(1, 8), Fraction(1, 8), Fraction(1, 10), 1, 2)))
    if library_doc != tiny_tree.document():
        print("tree renderer disagrees with the library's kkl_build document")
        mismatches += 1

    def bump(value: str) -> str:
        return str(Fraction(value) + Fraction(1, 7))

    def corrupt_generator(doc):
        doc["generators"][0][0] = bump(doc["generators"][0][0])

    def duplicate_generator(doc):
        doc["generators"].append(doc["generators"][0])

    def corrupt_high(doc):
        doc["high"] = bump(doc["high"])

    def corrupt_price(doc):
        doc["prices"][0] = bump(doc["prices"][0])

    def corrupt_tree(doc):
        doc["plans"][-1]["price_map"][0][1] = bump(doc["plans"][-1]["price_map"][0][1])

    def corrupt_root(doc):
        doc["put_root_value"] = bump(doc["put_root_value"])

    def corrupt_csv(doc):
        path = WORK / "surface.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        t, k, v = lines[len(lines) // 2].split(",")
        lines[len(lines) // 2] = f"{t},{k},{bump(v)}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    face = workloads.warmup("facewalk", 7)
    corruptions = {
        "analyze": corrupt_generator, "generators": duplicate_generator,
        "bounds": corrupt_high, "complete": corrupt_price,
    }
    cases = [("facewalk", item, corruptions[item.command]) for item in face]
    cases += [("tree", tiny_tree, corrupt_tree)]
    lattice = workloads.warmup("lattice", 7)
    cases += [("lattice", lattice[0], corrupt_root), ("lattice", lattice[1], corrupt_csv)]

    clean_failed = corrupt_caught = 0
    for name, item, corrupt in cases:
        code, out, err, _ = invoke(cli, item.argv(WORK))
        errors, _ = check_op(name, item, code, out, err, cli, gate.output_digest(
            out, (WORK / "surface.csv").read_bytes() if name == "lattice" else b""))
        clean_failed += bool(errors)
        label = f"{name}:{getattr(item, 'command', 'op')}:{corrupt.__name__}"
        if errors:
            print(f"clean   {label}: FAILED {errors}")
        doc = json.loads(out)
        corrupt(doc)
        bad = _redump(doc) if corrupt is not corrupt_csv else out
        errors, _ = check_op(name, item, code, bad, err, cli, None)
        corrupt_caught += bool(errors)
        print(f"corrupt {label}: {'caught' if errors else 'MISSED'}: {errors[:1]}")

    # A byte change with every value still correct shows only in the digest.
    item = face[1]
    code, out, err, _ = invoke(cli, item.argv(WORK))
    digest = gate.output_digest(out)
    errors, _ = check_op("facewalk", item, code, out.replace("\n", " \n", 1), err, cli, digest)
    corrupt_caught += bool(errors)
    print(f"corrupt facewalk:generators:whitespace vs digest: "
          f"{'caught' if errors else 'MISSED'}: {errors[:1]}")

    total = len(cases) + 1
    print(f"self-test: {len(cases)} clean ops, {clean_failed} failed; "
          f"{total} corrupted ops, {corrupt_caught} counted failed")
    ok = clean_failed == 0 and corrupt_caught == total and mismatches == 0
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def reference() -> int:
    """Reproduce the recorded face-solve and lattice baselines, with times."""
    WORK.mkdir(exist_ok=True)
    cli = import_fresh()
    tracer = Tracer()
    tracer.install()
    rng = random.Random("reference")
    ok = True
    for op, (b, n, expected) in enumerate(((14, 5, 6475), (16, 6, 26332))):
        item = workloads.FacewalkItem(op, "generators",
                                      workloads.draw_market(rng, "generic", b, n), None)
        tracer.begin(op)
        code, out, err, dt = invoke(cli, item.argv(WORK))
        tracer.end()
        calls = tracer.totals()[0][op]
        solves = calls["geometry.face_intersection"]
        gens = len(json.loads(out)["generators"]) if code == 0 else 0
        ok &= code == 0 and solves == expected
        print(f"b={b} n={n}: {solves} face solves (recorded {expected}), {gens} generators, "
              f"{dt:.2f} s per generators op, traced")
    argv = ["kkl", "--s0", "2", "--lambda", "1/8", "--eta", "1/8", "--rate", "1/10",
            "--horizon", "1", "--steps", "200", "--emm-p", "1/2", "--json"]
    tracer.begin(2)
    code, out, err, dt = invoke(cli, argv)
    tracer.end()
    _, incl, _ = tracer.totals()
    bits = Fraction(json.loads(out)["put_root_value"]).denominator.bit_length() if code == 0 else 0
    ok &= bits == 2392
    print(f"kkl steps=200: root denominator {bits} bits (recorded 2392), "
          f"backward induction {incl[2]['models.kkl_backward_induction'] / 1e9:.2f} s, "
          f"completion check {incl[2]['models.kkl_completion_check'] / 1e9:.2f} s, "
          f"op {dt:.2f} s, traced")
    tracer.uninstall()
    print("environment  " + "  ".join(f"{k}={v}" for k, v in environment(DEFAULT_SEED).items()))
    print("reference " + ("reproduced" if ok else "NOT reproduced"))
    return 0 if ok else 1


def write_digests() -> int:
    """Digest every op of the default seed's pools; every op must pass the gate."""
    WORK.mkdir(exist_ok=True)
    table: dict[str, list[str]] = {}
    for name in workloads.POOL_SIZES:
        _, cli, items, _, errors = set_up(name, DEFAULT_SEED)
        if errors:
            print(f"{name}: warm-up failed: {errors[:2]}", file=sys.stderr)
            return 1
        table[name] = []
        for item in items:
            code, out, err, _ = invoke(cli, item.argv(WORK))
            errors, _ = check_op(name, item, code, out, err, cli, None)
            if errors:
                print(f"{name} op {item.index} failed: {errors[:2]}", file=sys.stderr)
                return 1
            extra = (WORK / "surface.csv").read_bytes() if name == "lattice" else b""
            table[name].append(gate.output_digest(out, extra))
        print(f"{name}: {len(items)} digests", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(workloads.POOL_SIZES))
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--reference", action="store_true")
    mode.add_argument("--write-digests", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "martpoly" / "cli.py").is_file():
        print(f"error: martpoly sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop(ENV_MAX_OUTCOMES, None)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.reference:
        return reference()
    if args.write_digests:
        return write_digests()
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
