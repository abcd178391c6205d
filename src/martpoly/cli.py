"""Command line front end.

Commands: analyze, generators, bounds, complete, tree analyze, tree complete,
kkl. Input documents carry every number as a rational string and so do the
reports, in both the human-readable default and the --json mode. Exit codes:
0 analysis ran (whatever the verdict), 2 malformed input, 3 enumeration limit
exceeded, 4 operation required a viable market, 5 perturbation retries
exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, Sequence, TextIO

from . import analysis, models, multiperiod
from .errors import (
    InputError,
    LimitExceededError,
    MartpolyError,
    NotViableError,
    PerturbationError,
    quoted,
)
from .geometry import DEFAULT_MAX_OUTCOMES
from .market import OnePeriodMarket, market_from_json_dict, market_to_json_dict
from .rationals import Vector, format_rational, parse_rational

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_NOT_VIABLE = 4
EXIT_PERTURBATION = 5

EXIT_CODES = {
    InputError: EXIT_INPUT,
    LimitExceededError: EXIT_LIMIT,
    NotViableError: EXIT_NOT_VIABLE,
    PerturbationError: EXIT_PERTURBATION,
}

ENV_MAX_OUTCOMES = "MARTPOLY_MAX_OUTCOMES"


def _fmt_vec(v: Sequence[Fraction]) -> str:
    return "(" + ", ".join(format_rational(x) for x in v) + ")"


def _vec_strings(v: Sequence[Fraction]) -> list[str]:
    return [format_rational(x) for x in v]


@contextmanager
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
    """The face-enumeration guard: the flag, else the environment, else the default."""
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
    if value < 1:
        raise InputError(f"{source} must be at least 1, got {quoted(value)}")
    return value


def _emit(args: argparse.Namespace, document: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(document, sort_keys=True, indent=2))
    else:
        for line in human:
            print(line)


def _market_report(mkt: OnePeriodMarket, char: analysis.EmmCharacterization) -> dict:
    return {
        "outcomes": mkt.outcomes,
        "assets": mkt.assets,
        "viable": char.emm_exists,
        "complete": char.complete,
        "generators": [_vec_strings(g) for g in char.generators],
        "generator_supports": [list(s) for s in char.generators.supports],
        "outcome_support": [list(s) for s in char.outcome_support],
        "witness": None if char.witness is None else _vec_strings(char.witness),
    }


def _describe_supports(char: analysis.EmmCharacterization) -> list[str]:
    lines = ["equivalent measures: mixtures with positive weight meeting, per outcome:"]
    k = len(char.generators)
    for i, support in enumerate(char.outcome_support):
        label = f"  outcome {i + 1}:"
        if not support:
            lines.append(f"{label} impossible (no generator has mass here)")
        elif len(support) == k:
            lines.append(f"{label} any mixture works")
        else:
            gens = ", ".join(str(j + 1) for j in support)
            lines.append(f"{label} positive weight on generator(s) {gens}")
    return lines


def cmd_analyze(args: argparse.Namespace) -> int:
    mkt = _load_market(args.path)
    char = analysis.characterize(mkt, max_outcomes=_max_outcomes(args))
    doc = _market_report(mkt, char)
    human = [
        f"outcomes: {doc['outcomes']}  assets: {doc['assets']}",
        f"viable (arbitrage-free): {doc['viable']}",
        f"complete: {doc['complete']}",
        f"generators ({len(char.generators)}):",
    ]
    human += [f"  {_fmt_vec(g)}" for g in char.generators]
    if char.witness is not None:
        human.append(f"witness measure: {_fmt_vec(char.witness)}")
    human += _describe_supports(char)
    _emit(args, doc, human)
    return EXIT_OK


def cmd_generators(args: argparse.Namespace) -> int:
    mkt = _load_market(args.path)
    char = analysis.characterize(mkt, max_outcomes=_max_outcomes(args))
    doc = {"generators": [_vec_strings(g) for g in char.generators]}
    human = [f"{len(char.generators)} generator(s):"]
    human += [f"  {_fmt_vec(g)}" for g in char.generators]
    _emit(args, doc, human)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
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
    left = "[" if bounds.low_attained_by_emm else "("
    right = "]" if bounds.high_attained_by_emm else ")"
    human = [
        f"payoff: {_fmt_vec(payoff)}",
        f"price range: {left}{format_rational(bounds.low)}, "
        f"{format_rational(bounds.high)}{right}",
    ]
    if bounds.low == bounds.high:
        human.append("degenerate range: the payoff is priced uniquely")
    _emit(args, doc, human)
    return EXIT_OK


def _plan_document(plan: analysis.CompletionPlan) -> dict:
    return {
        "already_complete": plan.is_empty,
        "added_rows": [_vec_strings(r) for r in plan.added_payoff_rows.entries],
        "price_map": [_vec_strings(r) for r in plan.price_map],
        "weights": _vec_strings(plan.weights),
        "prices": _vec_strings(plan.prices),
        "outcome_support": [list(s) for s in plan.characterization.outcome_support],
    }


def cmd_complete(args: argparse.Namespace) -> int:
    mkt = _load_market(args.path)
    weights = None
    if args.weights is not None:
        weights = _parse_rational_list(args.weights, "--weights")
    plan = analysis.complete_market(mkt, weights, max_outcomes=_max_outcomes(args))
    doc = _plan_document(plan)
    if plan.is_empty:
        human = ["market is already complete; nothing to add"]
    else:
        human = [f"adding {plan.added_payoff_rows.rows} asset(s):"]
        for row, prices, price in zip(
            plan.added_payoff_rows.entries, plan.price_map, plan.prices
        ):
            human.append(
                f"  payoffs {_fmt_vec(row)}  generator prices {_fmt_vec(prices)}"
                f"  price {format_rational(price)}"
            )
        human.append(f"weights: {_fmt_vec(plan.weights)}")
    if args.apply is not None:
        extended = analysis.apply_completion(mkt, plan)
        with _opened(args.apply, "w") as fh:
            json.dump(market_to_json_dict(extended), fh, sort_keys=True, indent=2)
            fh.write("\n")
        human.append(f"extended market written to {args.apply}")
        doc["applied_to"] = args.apply
    _emit(args, doc, human)
    return EXIT_OK


def cmd_tree_analyze(args: argparse.Namespace) -> int:
    tm = multiperiod.tree_market_from_json_dict(_load_json(args.path))
    report = multiperiod.analyze_tree(tm, max_outcomes=_max_outcomes(args))
    doc = {
        "viable": report.viable,
        "complete": report.complete,
        "components": [
            {
                "time": r.component.time,
                "node": r.component.node_id,
                "outcomes": r.component.market.outcomes,
                "viable": r.viable,
                "complete": r.complete,
                "generators": [_vec_strings(g) for g in r.characterization.generators],
            }
            for r in report.components
        ],
    }
    human = [
        f"tree viable: {report.viable}   tree complete: {report.complete}",
        f"components ({len(report.components)}):",
    ]
    for r in report.components:
        human.append(
            f"  t={r.component.time} node={r.component.node_id}: "
            f"b={r.component.market.outcomes} viable={r.viable} complete={r.complete}"
        )
    _emit(args, doc, human)
    return EXIT_OK


def cmd_tree_complete(args: argparse.Namespace) -> int:
    tm = multiperiod.tree_market_from_json_dict(_load_json(args.path))
    plans = multiperiod.complete_tree(tm, max_outcomes=_max_outcomes(args))
    doc = {
        "plans": [
            {"time": p.time, "node": p.node_id, **_plan_document(p.plan)}
            for p in plans
        ]
    }
    if not plans:
        human = ["tree is already complete; nothing to add"]
    else:
        human = [f"{len(plans)} component(s) need assets:"]
        for p in plans:
            rows = ", ".join(_fmt_vec(r) for r in p.plan.added_payoff_rows.entries)
            human.append(f"  t={p.time} node={p.node_id}: add {rows}")
    _emit(args, doc, human)
    return EXIT_OK


def cmd_kkl(args: argparse.Namespace) -> int:
    if args.seed is not None and args.epsilon is None:
        raise InputError("--seed chooses a perturbation and needs --epsilon")
    emm_p = parse_rational(args.emm_p)
    if not 0 < emm_p < 1:
        raise InputError(f"--emm-p must lie strictly in (0, 1), got {quoted(args.emm_p)}")
    params = models.kkl_params(
        s0=args.s0,
        lam=parse_rational(args.lam),
        eta=parse_rational(args.eta),
        rate=parse_rational(args.rate),
        horizon=parse_rational(args.horizon),
        steps=args.steps,
    )
    eps = None if args.epsilon is None else parse_rational(args.epsilon)
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
    human = [
        f"grid: {doc['grid_states']} states over {params.steps} step(s), "
        f"dt = {format_rational(params.dt)}",
        f"viable: {viable}",
    ]
    surface = None
    if viable:
        surface = models.kkl_backward_induction(
            params, models.put_terminal(params), emm_p
        )
        violations = models.kkl_completion_check(surface)
        root_value = surface.value(0, params.s0)
        doc["put_root_value"] = format_rational(root_value)
        doc["completion_violations"] = [list(v) for v in violations]
        human.append(f"strike-1 put value at the root: {format_rational(root_value)}")
        human.append(
            f"completion check: {len(violations)} violating node(s)"
            + ("" if violations else "; stock plus put is complete")
        )
        if eps is not None:
            seed = args.seed or 0
            result = models.kkl_perturb_terminal(params, eps, seed, emm_p)
            surface = result.surface
            deviation = max(
                abs(result.terminal[k] - base)
                for k, base in models.put_terminal(params).items()
            )
            doc["perturbation"] = {
                "epsilon": format_rational(eps),
                "seed": seed,
                "attempts": result.attempts,
                "max_deviation": format_rational(deviation),
                "terminal": {
                    str(k): format_rational(v) for k, v in result.terminal.items()
                },
            }
            human.append(
                f"perturbed terminal (attempt {result.attempts}): completion check "
                f"empty, max deviation {format_rational(deviation)}"
            )
    if args.out is not None:
        if surface is None:
            raise NotViableError("no surface to write: the lattice is not viable")
        with _opened(args.out, "w") as fh:
            models.write_surface_csv(surface, fh)
        human.append(f"surface written to {args.out}")
        doc["surface_csv"] = args.out
    _emit(args, doc, human)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
            help=f"face-enumeration guard (default {DEFAULT_MAX_OUTCOMES}, "
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MartpolyError as exc:
        code = next((c for cls, c in EXIT_CODES.items() if isinstance(exc, cls)), None)
        if code is None:
            print(f"internal error: {exc}", file=sys.stderr)
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code

if __name__ == "__main__":
    sys.exit(main())
