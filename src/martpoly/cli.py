"""Command line front end.

Commands: analyze, generators, bounds, complete, tree analyze, tree complete,
kkl. Input documents carry every number as a rational string and so do the
reports, in both the human-readable default and the --json mode. Each command
returns its report: the JSON document, and human lines built from that
document only when they are printed. ``main`` prints one of the two and
returns 0, whatever the verdict, or the ``exit_code`` of the error it reports
(see ``errors``). A reader that closes stdout early still gets exit 0.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, TextIO

from . import analysis, models, multiperiod
from .errors import InputError, MartpolyError, NotViableError, quoted
from .geometry import DEFAULT_MAX_OUTCOMES, GeneratorSet
from .market import OnePeriodMarket, market_from_json_dict, market_to_json_dict
from .rationals import Vector, format_ratio, format_rational, parse_rational, require_count

ENV_MAX_OUTCOMES = "MARTPOLY_MAX_OUTCOMES"


def _fmt_vec(v: Sequence[str]) -> str:
    return "(" + ", ".join(v) + ")"


def _vec_strings(v: Sequence[Fraction]) -> list[str]:
    return [format_rational(x) if x else "0" for x in v]


def _generator_strings(gens: GeneratorSet) -> list[list[str]]:
    """Each generator as ``_vec_strings`` prints it, read off its integer ray."""
    b = gens.outcomes
    return [[format_ratio(x, v[b]) if x else "0" for x in v[:b]] for v in gens.rays]


@contextlib.contextmanager
def _opened(path: str, mode: str) -> Iterator[TextIO]:
    """The file at ``path`` as UTF-8 text; an OS error on it is bad input."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        verb = "read" if mode == "r" else "write"
        raise InputError(f"cannot {verb} {path}: {exc}") from None


def _load_json(path: str) -> dict:
    with _opened(path, "r") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # also non-UTF-8, or too deep
            raise InputError(f"{path} is not valid JSON: {exc}") from None


def _load_market(path: str) -> OnePeriodMarket:
    return market_from_json_dict(_load_json(path))


def _parse_rational_list(text: str, what: str) -> Vector:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise InputError(f"{what} must be a comma-separated list of rationals")
    return tuple(parse_rational(p) for p in parts)


def _max_outcomes(args: argparse.Namespace) -> int:
    """The enumeration guard: the flag, else the environment, else the default."""
    if args.max_outcomes is not None:
        value, source = args.max_outcomes, "--max-outcomes"
    else:
        env = os.environ.get(ENV_MAX_OUTCOMES)
        if env is None:
            return DEFAULT_MAX_OUTCOMES
        try:
            value = int(env)
        except ValueError:
            raise InputError(f"{ENV_MAX_OUTCOMES}={quoted(env)} is not an integer") from None
        source = ENV_MAX_OUTCOMES
    return require_count(value, 1, f"{source} must be at least 1, got {quoted(value)}")


# A tree report's entries hold this as their "node" and "time" until
# _json_text splices each node's own values in. A tree report's other strings
# are keys and rationals, so its rendering, '"\\u0000"', marks the holes alone.
_HOLE = "\x00"


def _json_text(document: object, nodes: Sequence[tuple[int, str]] = ()) -> str:
    """The text of ``json.dumps(document, sort_keys=True, indent=2)``.

    Covers what the commands emit: dicts with ``str`` keys, lists, ``str``,
    ``int``, ``bool`` and ``None``; any other type raises ``TypeError``. A
    list of ``str`` and ``int`` items only is rendered where it stands. Every
    other list and dict is rendered once per depth in a call, keyed by its
    id: the document keeps every object alive for the call, so an id names
    one object, and a fragment the document holds at many places is reused.

    ``nodes`` fills the holes of a tree report, whose nodes share one entry
    per distinct plan or record with ``_HOLE`` as its "node" and "time": the
    i-th (time, node id) pair goes into the i-th entry listed, so each entry
    is rendered once and a node costs only its escaped id and its time.
    """
    memo: dict[tuple[int, int], str] = {}
    # breaks[d] is a newline and depth d's indent, added as depths are reached
    breaks = ["\n"]

    def value(obj: object, depth: int) -> str:
        if type(obj) is str:
            return encode_basestring_ascii(obj)
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if type(obj) is int:
            return int.__repr__(obj)
        if type(obj) is list:
            items = []
            for x in obj:
                if type(x) is str:
                    items.append(encode_basestring_ascii(x))
                elif type(x) is int:
                    items.append(int.__repr__(x))
                else:
                    break
            else:
                return wrap(items, depth, "[]")
        key = (id(obj), depth)
        text = memo.get(key)
        if text is None:
            text = memo[key] = container(obj, depth)
        return text

    def container(obj: object, depth: int) -> str:
        inner = depth + 1
        if type(obj) is list:
            return wrap([value(x, inner) for x in obj], depth, "[]")
        if type(obj) is dict:
            if any(type(k) is not str for k in obj):
                raise TypeError("JSON object keys must be str")
            items = [
                f"{encode_basestring_ascii(k)}: {value(v, inner)}"
                for k, v in sorted(obj.items())
            ]
            return wrap(items, depth, "{}")
        raise TypeError(f"cannot render a {type(obj).__name__} as JSON")

    def wrap(items: list[str], depth: int, brackets: str) -> str:
        if not items:
            return brackets
        inner = depth + 1
        while len(breaks) <= inner:
            breaks.append(breaks[-1] + "  ")
        indent = breaks[inner]
        return brackets[0] + indent + ("," + indent).join(items) + breaks[depth] + brackets[1]

    text = value(document, 0)
    if not nodes:
        return text
    # an entry's "node" sorts before its "time", so the holes alternate
    pieces = text.split(encode_basestring_ascii(_HOLE))
    out = [pieces[0]]
    for (time, node), between, after in zip(nodes, pieces[1::2], pieces[2::2], strict=True):
        out += (encode_basestring_ascii(node), between, int.__repr__(time), after)
    return "".join(out)


class _Report(NamedTuple):
    """A command's report: ``main`` prints ``document`` under --json, else ``human()``.

    ``human`` builds its lines from ``document`` alone, and only when they are
    printed. ``nodes`` fills a tree report's holes (see ``_json_text``).
    """

    document: dict
    human: Callable[[], list[str]]
    nodes: Sequence[tuple[int, str]] = ()


def _market_report(mkt: OnePeriodMarket, char: analysis.EmmCharacterization) -> dict:
    return {
        "outcomes": mkt.outcomes,
        "assets": mkt.assets,
        "viable": char.emm_exists,
        "complete": char.complete,
        "generators": _generator_strings(char.generators),
        "generator_supports": [list(s) for s in char.generators.supports],
        "outcome_support": [list(s) for s in char.outcome_support],
        "witness": None if char.witness is None else _vec_strings(char.witness),
    }


def _generator_lines(doc: dict) -> list[str]:
    return [f"  {_fmt_vec(g)}" for g in doc["generators"]]


def _describe_supports(doc: dict) -> list[str]:
    lines = ["equivalent measures: mixtures with positive weight meeting, per outcome:"]
    k = len(doc["generators"])
    for i, support in enumerate(doc["outcome_support"]):
        label = f"  outcome {i + 1}:"
        if not support:
            lines.append(f"{label} impossible (no generator has mass here)")
        elif len(support) == k:
            lines.append(f"{label} any mixture works")
        else:
            gens = ", ".join(str(j + 1) for j in support)
            lines.append(f"{label} positive weight on generator(s) {gens}")
    return lines


def cmd_analyze(args: argparse.Namespace) -> _Report:
    mkt = _load_market(args.path)
    char = analysis.characterize(mkt, max_outcomes=_max_outcomes(args))
    doc = _market_report(mkt, char)

    def human() -> list[str]:
        lines = [
            f"outcomes: {doc['outcomes']}  assets: {doc['assets']}",
            f"viable (arbitrage-free): {doc['viable']}",
            f"complete: {doc['complete']}",
            f"generators ({len(doc['generators'])}):",
            *_generator_lines(doc),
        ]
        if doc["witness"] is not None:
            lines.append(f"witness measure: {_fmt_vec(doc['witness'])}")
        return lines + _describe_supports(doc)

    return _Report(doc, human)


def cmd_generators(args: argparse.Namespace) -> _Report:
    mkt = _load_market(args.path)
    char = analysis.characterize(mkt, max_outcomes=_max_outcomes(args))
    doc = {"generators": _generator_strings(char.generators)}

    def human() -> list[str]:
        return [f"{len(doc['generators'])} generator(s):", *_generator_lines(doc)]

    return _Report(doc, human)


def cmd_bounds(args: argparse.Namespace) -> _Report:
    mkt = _load_market(args.path)
    payoff = _parse_rational_list(args.payoff, "--payoff")
    bounds = analysis.price_bounds(mkt, payoff, max_outcomes=_max_outcomes(args))
    doc = {
        "payoff": _vec_strings(payoff),
        "low": format_rational(bounds.low),
        "high": format_rational(bounds.high),
        "low_attained_by_emm": bounds.low_attained_by_emm,
        "high_attained_by_emm": bounds.high_attained_by_emm,
    }

    def human() -> list[str]:
        # both ends are attained, exactly when the range is one price
        attained = doc["low_attained_by_emm"]
        left, right = "[]" if attained else "()"
        lines = [
            f"payoff: {_fmt_vec(doc['payoff'])}",
            f"price range: {left}{doc['low']}, {doc['high']}{right}",
        ]
        if attained:
            lines.append("degenerate range: the payoff is priced uniquely")
        return lines

    return _Report(doc, human)


def _plan_document(plan: analysis.CompletionPlan) -> dict:
    return {
        "already_complete": plan.is_empty,
        "added_rows": [_vec_strings(r) for r in plan.added_payoff_rows.entries],
        "price_map": [_vec_strings(r) for r in plan.price_map],
        "weights": _vec_strings(plan.weights),
        "prices": _vec_strings(plan.prices),
        "outcome_support": [list(s) for s in plan.characterization.outcome_support],
    }


def cmd_complete(args: argparse.Namespace) -> _Report:
    mkt = _load_market(args.path)
    weights = None
    if args.weights is not None:
        weights = _parse_rational_list(args.weights, "--weights")
    plan = analysis.complete_market(mkt, weights, max_outcomes=_max_outcomes(args))
    doc = _plan_document(plan)
    if args.apply is not None:
        extended = analysis.apply_completion(mkt, plan)
        with _opened(args.apply, "w") as fh:
            fh.write(_json_text(market_to_json_dict(extended)) + "\n")
        doc["applied_to"] = args.apply

    def human() -> list[str]:
        if doc["already_complete"]:
            lines = ["market is already complete; nothing to add"]
        else:
            lines = [f"adding {len(doc['added_rows'])} asset(s):"]
            lines += [
                f"  payoffs {_fmt_vec(row)}  generator prices {_fmt_vec(prices)}"
                f"  price {price}"
                for row, prices, price in zip(doc["added_rows"], doc["price_map"], doc["prices"])
            ]
            lines.append(f"weights: {_fmt_vec(doc['weights'])}")
        if "applied_to" in doc:
            lines.append(f"extended market written to {doc['applied_to']}")
        return lines

    return _Report(doc, human)


def cmd_tree_analyze(args: argparse.Namespace) -> _Report:
    tm = multiperiod.tree_market_from_json_dict(_load_json(args.path))
    report = multiperiod.analyze_tree(tm, max_outcomes=_max_outcomes(args))
    # one entry per distinct record, shared by its components (see _json_text)
    records = {id(r.characterization): r for r in report.components}
    entries = {
        key: {
            "time": _HOLE,
            "node": _HOLE,
            "outcomes": r.component.market.outcomes,
            "viable": r.viable,
            "complete": r.complete,
            "generators": _generator_strings(r.characterization.generators),
        }
        for key, r in records.items()
    }
    doc = {
        "viable": report.viable,
        "complete": report.complete,
        "components": [entries[id(r.characterization)] for r in report.components],
    }
    nodes = [(r.component.time, r.component.node_id) for r in report.components]

    def human() -> list[str]:
        return [
            f"tree viable: {doc['viable']}   tree complete: {doc['complete']}",
            f"components ({len(nodes)}):",
        ] + [
            f"  t={time} node={node}: "
            f"b={entry['outcomes']} viable={entry['viable']} complete={entry['complete']}"
            for (time, node), entry in zip(nodes, doc["components"])
        ]

    return _Report(doc, human, nodes)


def cmd_tree_complete(args: argparse.Namespace) -> _Report:
    tm = multiperiod.tree_market_from_json_dict(_load_json(args.path))
    plans = multiperiod.complete_tree(tm, max_outcomes=_max_outcomes(args))
    # one entry per distinct plan, shared by its components (see _json_text)
    distinct = {id(p.plan): p.plan for p in plans}
    entries = {
        key: {"time": _HOLE, "node": _HOLE, **_plan_document(plan)}
        for key, plan in distinct.items()
    }
    doc = {"plans": [entries[id(p.plan)] for p in plans]}
    nodes = [(p.time, p.node_id) for p in plans]

    def human() -> list[str]:
        if not nodes:
            return ["tree is already complete; nothing to add"]
        lines = [f"{len(nodes)} component(s) need assets:"]
        for (time, node), entry in zip(nodes, doc["plans"]):
            rows = ", ".join(_fmt_vec(r) for r in entry["added_rows"])
            lines.append(f"  t={time} node={node}: add {rows}")
        return lines

    return _Report(doc, human, nodes)


def cmd_kkl(args: argparse.Namespace) -> _Report:
    if args.seed is not None and args.epsilon is None:
        raise InputError("--seed chooses a perturbation and needs --epsilon")
    emm_p = parse_rational(args.emm_p)
    if not 0 < emm_p < 1:
        raise InputError(f"--emm-p must lie strictly in (0, 1), got {quoted(args.emm_p)}")
    eps = None if args.epsilon is None else parse_rational(args.epsilon)
    if eps is not None and eps <= 0:
        raise InputError(f"--epsilon must be positive, got {quoted(args.epsilon)}")
    params = models.kkl_params(
        s0=args.s0,
        lam=parse_rational(args.lam),
        eta=parse_rational(args.eta),
        rate=parse_rational(args.rate),
        horizon=parse_rational(args.horizon),
        steps=args.steps,
    )
    # dt is in the human report only; formatting it first keeps that report
    # failing before any pricing when dt is too long to print
    dt = None if args.json else format_rational(params.dt)
    viable = models.kkl_viability(params)
    if eps is not None and not viable:
        raise NotViableError("no surface to perturb: the lattice is not viable")
    levels = models.kkl_grid(params)
    doc: dict = {
        "params": {
            "s0": params.s0,
            "lambda": format_rational(params.lam),
            "eta": format_rational(params.eta),
            "rate": format_rational(params.rate),
            "horizon": format_rational(params.horizon),
            "steps": params.steps,
        },
        "viable": viable,
        "grid_states": sum(len(level) for level in levels),
    }
    surface = None
    if viable:
        put = models.put_terminal(params)
        weights = models.kkl_node_weights(params, emm_p)
        surface = models.kkl_backward_induction(params, put, weights)
        doc["put_root_value"] = format_rational(surface.value(0, params.s0))
        doc["completion_violations"] = [
            list(v) for v in models.kkl_completion_check(surface)
        ]
        if eps is not None:
            seed = args.seed or 0
            result = models.kkl_perturb_terminal(params, eps, seed, weights)
            surface = result.surface
            deviation = max(abs(result.terminal[k] - base) for k, base in put.items())
            doc["perturbation"] = {
                "epsilon": format_rational(eps),
                "seed": seed,
                "attempts": result.attempts,
                "max_deviation": format_rational(deviation),
                "terminal": {
                    str(k): format_rational(v) for k, v in result.terminal.items()
                },
            }
    if args.out is not None:
        if surface is None:
            raise NotViableError("no surface to write: the lattice is not viable")
        with _opened(args.out, "w") as fh:
            models.write_surface_csv(surface, fh)
        doc["surface_csv"] = args.out

    def human() -> list[str]:
        lines = [
            f"grid: {doc['grid_states']} states over {doc['params']['steps']} step(s), "
            f"dt = {dt}",
            f"viable: {doc['viable']}",
        ]
        if doc["viable"]:
            violations = doc["completion_violations"]
            lines.append(f"strike-1 put value at the root: {doc['put_root_value']}")
            lines.append(
                f"completion check: {len(violations)} violating node(s)"
                + ("" if violations else "; stock plus put is complete")
            )
        if "perturbation" in doc:
            perturbation = doc["perturbation"]
            lines.append(
                f"perturbed terminal (attempt {perturbation['attempts']}): completion "
                f"check empty, max deviation {perturbation['max_deviation']}"
            )
        if "surface_csv" in doc:
            lines.append(f"surface written to {doc['surface_csv']}")
        return lines

    return _Report(doc, human)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every ``main`` call.

    Parsing does not change it, and argparse reads the terminal width when it
    formats help, not here.
    """
    parser = argparse.ArgumentParser(
        prog="martpoly",
        description=(
            "Exact rational analysis of finite multinomial markets: "
            "arbitrage, completeness, measure generators, price bounds, "
            "completion, event trees, and birth-death lattice pricing."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_common(p: argparse.ArgumentParser) -> None:
        add_json(p)
        p.add_argument(
            "--max-outcomes",
            type=int,
            default=None,
            help=f"enumeration guard (default {DEFAULT_MAX_OUTCOMES}, "
            f"env {ENV_MAX_OUTCOMES})",
        )

    p_analyze = sub.add_parser("analyze", help="verdicts and generators of a market")
    p_analyze.add_argument("path", help="market JSON document")
    add_common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("generators", help="generator measures only")
    p_gen.add_argument("path")
    add_common(p_gen)
    p_gen.set_defaults(func=cmd_generators)

    p_bounds = sub.add_parser("bounds", help="arbitrage-free price range of a payoff")
    p_bounds.add_argument("path")
    p_bounds.add_argument(
        "--payoff", required=True, help="comma-separated rationals, one per outcome"
    )
    add_common(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_complete = sub.add_parser("complete", help="assets that complete the market")
    p_complete.add_argument("path")
    p_complete.add_argument(
        "--weights", default=None, help="comma-separated generator weights"
    )
    p_complete.add_argument(
        "--apply", default=None, metavar="OUT", help="write the extended market JSON"
    )
    add_common(p_complete)
    p_complete.set_defaults(func=cmd_complete)

    p_tree = sub.add_parser("tree", help="event-tree market commands")
    tree_sub = p_tree.add_subparsers(dest="tree_command", required=True)
    p_ta = tree_sub.add_parser("analyze", help="per-component and aggregate verdicts")
    p_ta.add_argument("path", help="tree JSON document")
    add_common(p_ta)
    p_ta.set_defaults(func=cmd_tree_analyze)
    p_tc = tree_sub.add_parser("complete", help="completion plans per component")
    p_tc.add_argument("path")
    add_common(p_tc)
    p_tc.set_defaults(func=cmd_tree_complete)

    p_kkl = sub.add_parser("kkl", help="birth-death lattice: build, price, complete")
    p_kkl.add_argument("--s0", type=int, required=True, help="starting integer price")
    p_kkl.add_argument("--lambda", dest="lam", required=True, help="up intensity")
    p_kkl.add_argument("--eta", required=True, help="down intensity")
    p_kkl.add_argument("--rate", default="0", help="annualized rate (rational)")
    p_kkl.add_argument("--horizon", default="1", help="terminal time (rational)")
    p_kkl.add_argument("--steps", type=int, required=True, help="number of periods")
    p_kkl.add_argument("--emm-p", dest="emm_p", default="1/2",
                       help="node-measure parameter in (0, 1)")
    p_kkl.add_argument("--epsilon", default=None,
                       help="perturb the put's terminal values by less than this")
    p_kkl.add_argument("--seed", type=int, help="perturbation seed (default 0; needs --epsilon)")
    p_kkl.add_argument("--out", default=None, metavar="CSV",
                       help="write the value surface as t,k,value")
    add_json(p_kkl)
    p_kkl.set_defaults(func=cmd_kkl)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
        # flushed here, so a reader that left early is met in this try
        print(_json_text(report.document, report.nodes) if args.json
              else "\n".join(report.human()), flush=True)
    except MartpolyError as exc:
        if exc.exit_code is None:
            print(f"internal error: {exc}", file=sys.stderr)
            raise
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the report was made and only its reader left: send what stdout still
        # buffers to devnull, so the interpreter's last flush cannot fail again
        with contextlib.suppress(OSError, ValueError):  # a stream without a descriptor
            stdout = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout)
            os.close(devnull)
    return 0

if __name__ == "__main__":
    sys.exit(main())
