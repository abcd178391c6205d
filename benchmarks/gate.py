"""Correctness gate: checks each op's output with the benchmark's own arithmetic.

Nothing here calls the library. Every check returns a list of error strings;
an op whose list is non-empty counts as failed. The checks are exact
(``fractions.Fraction``) and run outside the op's timed interval.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from workloads import FacewalkItem, LatticeItem, Market, TreeItem

Vec = tuple[Fraction, ...]


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Row rank by fraction-exact Gaussian elimination."""
    m = [list(r) for r in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = Fraction(m[i][c]) / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def parse_vec(strings, what: str, errors: list[str]) -> Vec | None:
    try:
        return tuple(Fraction(s) for s in strings)
    except (TypeError, ValueError, ZeroDivisionError):
        errors.append(f"{what}: not a list of rationals: {strings!r}"[:200])
        return None


def output_digest(stdout: str, extra: bytes = b"") -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    h.update(extra)
    return h.hexdigest()


def load_output(stdout: str, errors: list[str]) -> dict | None:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        errors.append(f"output is not JSON: {exc}")
        return None
    if not isinstance(doc, dict):
        errors.append("output is not a JSON object")
        return None
    return doc


def _expect_keys(doc: dict, keys: set, errors: list[str]) -> bool:
    if set(doc) != keys:
        errors.append(f"output keys {sorted(doc)} != {sorted(keys)}")
        return False
    return True


# -- one-period markets ------------------------------------------------------

def augmented(m: Market) -> list[list[Fraction]]:
    return [[Fraction(1)] * m.outcomes] + [[Fraction(x) for x in row] for row in m.payoffs]


def check_measures(m: Market, raw, errors: list[str]) -> list[Vec]:
    """Generators must be distinct martingale measures at polytope vertices."""
    if not isinstance(raw, list):
        errors.append("generators is not a list")
        return []
    gens: list[Vec] = []
    aug = augmented(m)
    for j, strings in enumerate(raw):
        q = parse_vec(strings, f"generator {j}", errors)
        if q is None:
            continue
        if len(q) != m.outcomes:
            errors.append(f"generator {j} has {len(q)} entries for {m.outcomes} outcomes")
            continue
        if any(x < 0 for x in q) or sum(q) != 1:
            errors.append(f"generator {j} is not a probability vector")
        if tuple(dot(row, q) for row in m.payoffs) != m.rhs:
            errors.append(f"generator {j}: payoffs @ q != (1 + r) * spot")
        support = [i for i, x in enumerate(q) if x > 0]
        if rank([[row[i] for i in support] for row in aug]) != len(support):
            errors.append(f"generator {j} is not a vertex: its support columns are dependent")
        gens.append(q)
    if len(set(gens)) != len(gens):
        errors.append("generators are not pairwise distinct")
    if not gens:
        errors.append("a viable market has at least one generator")
    return gens


def supports(gens: Sequence[Vec]) -> list[list[int]]:
    return [[i for i, x in enumerate(g) if x > 0] for g in gens]


def outcome_support(gens: Sequence[Vec], b: int) -> list[list[int]]:
    return [[j for j, g in enumerate(gens) if g[i] > 0] for i in range(b)]


def strs(v: Sequence[Fraction]) -> list[str]:
    return [str(x) for x in v]


def check_analyze(item: FacewalkItem, doc: dict, errors: list[str]) -> None:
    keys = {"outcomes", "assets", "viable", "complete", "generators",
            "generator_supports", "outcome_support", "witness"}
    if not _expect_keys(doc, keys, errors):
        return
    m = item.market
    gens = check_measures(m, doc["generators"], errors)
    b = m.outcomes
    if doc["outcomes"] != b or doc["assets"] != len(m.payoffs):
        errors.append("outcome or asset count wrong")
    if doc["generator_supports"] != supports(gens):
        errors.append("generator_supports disagree with the generators")
    if doc["outcome_support"] != outcome_support(gens, b):
        errors.append("outcome_support disagrees with the generators")
    viable = all(outcome_support(gens, b))
    if doc["viable"] is not True or not viable:
        errors.append("market is viable by construction but not reported so")
    if doc["complete"] != (viable and rank(augmented(m)) == b):
        errors.append("completeness verdict wrong")
    witness = tuple(sum(col, Fraction(0)) / len(gens) for col in zip(*gens)) if gens else None
    if doc["witness"] != (None if witness is None else strs(witness)):
        errors.append("witness is not the mean of the generators")


def check_generators(item: FacewalkItem, doc: dict, errors: list[str]) -> None:
    if _expect_keys(doc, {"generators"}, errors):
        check_measures(item.market, doc["generators"], errors)


def _attained(values: list[Fraction], target: Fraction, gens: Sequence[Vec], b: int) -> bool:
    covered: set[int] = set()
    for v, g in zip(values, gens):
        if v == target:
            covered.update(i for i, x in enumerate(g) if x > 0)
    return len(covered) == b


def check_bounds(item: FacewalkItem, doc: dict, gens: list[Vec], errors: list[str]) -> None:
    keys = {"payoff", "low", "high", "low_attained_by_emm", "high_attained_by_emm"}
    if not _expect_keys(doc, keys, errors) or not gens:
        return
    m = item.market
    if doc["payoff"] != [str(x) for x in item.payoff]:
        errors.append("payoff echo wrong")
    values = [dot(item.payoff, g) / (1 + m.rate) for g in gens]
    low, high = min(values), max(values)
    if doc["low"] != str(low) or doc["high"] != str(high):
        errors.append(f"bounds ({doc['low']}, {doc['high']}) != ({low}, {high})")
    if doc["low_attained_by_emm"] != _attained(values, low, gens, m.outcomes):
        errors.append("low endpoint attainment wrong")
    if doc["high_attained_by_emm"] != _attained(values, high, gens, m.outcomes):
        errors.append("high endpoint attainment wrong")


def expected_plan(m: Market, gens: Sequence[Vec]) -> dict:
    """Completion plan by greedy unit rows and uniform weights, as strings."""
    b = m.outcomes
    working = augmented(m)
    current = rank(working)
    added: list[Vec] = []
    for i in range(b):
        if current == b:
            break
        row = tuple(Fraction(int(j == i)) for j in range(b))
        new = rank(working + [list(row)])
        if new > current:
            working.append(list(row))
            current = new
            added.append(row)
    grown = 1 + m.rate
    k = len(gens)
    weights = (Fraction(1, k),) * k
    blended = tuple(sum(col, Fraction(0)) / k for col in zip(*gens))
    return {
        "already_complete": not added,
        "added_rows": [strs(r) for r in added],
        "price_map": [[str(dot(r, g) / grown) for g in gens] for r in added],
        "weights": strs(weights),
        "prices": [str(dot(r, blended) / grown) for r in added],
        "outcome_support": outcome_support(gens, b),
    }


def check_complete(item: FacewalkItem, doc: dict, gens: list[Vec], errors: list[str]) -> None:
    if not gens:
        return
    want = expected_plan(item.market, gens)
    if doc != want:
        bad = sorted(k for k in set(doc) | set(want) if doc.get(k) != want.get(k))
        errors.append(f"completion plan differs in {bad}")


# -- event trees -------------------------------------------------------------

def vertices(payoffs: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Vec]:
    """Brute force over every outcome subset; kept in discovery order.

    A subset contributes when the system restricted to it (with mass one) has
    a unique, strictly positive solution. Meant for three or four outcomes.
    """
    b = len(payoffs[0])
    found: list[Vec] = []
    for size in range(1, b + 1):
        for face in combinations(range(b), size):
            rows = [[Fraction(1)] * size] + [[Fraction(r[j]) for j in face] for r in payoffs]
            rhs_full = [Fraction(1)] + [Fraction(x) for x in rhs]
            point = _unique_solution(rows, rhs_full)
            if point is not None and all(x > 0 for x in point):
                full = [Fraction(0)] * b
                for j, x in zip(face, point):
                    full[j] = x
                found.append(tuple(full))
    return found


def _unique_solution(rows: list[list[Fraction]], rhs: list[Fraction]) -> Vec | None:
    cols = len(rows[0])
    m = [r + [c] for r, c in zip(rows, rhs)]
    if rank(m) != rank(rows) or rank(rows) != cols:
        return None
    # Reduce to the identity on the first `cols` pivot rows.
    r = 0
    for c in range(cols):
        pivot = next(i for i in range(r, len(m)) if m[i][c] != 0)
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return tuple(m[i][cols] for i in range(cols))


def trinomial_market(k: int, step_rate: Fraction) -> Market:
    rhs = ((1 + step_rate) * k,)
    return Market("trinomial", step_rate, ((k - 1, k, k + 1),), rhs)


def check_tree(item: TreeItem, doc: dict, errors: list[str]) -> None:
    if not _expect_keys(doc, {"plans"}, errors):
        return
    step_rate = item.rate * item.dt
    # The zero state's component (payoff 0, spot 0, one child) is complete;
    # every branching state's trinomial component needs one asset.
    want_nodes = [(t, node_id, k) for t, node_id, k in item.internal_nodes() if k > 0]
    plans = doc["plans"]
    if [(p.get("time"), p.get("node")) for p in plans] != [(t, n) for t, n, _ in want_nodes]:
        errors.append("plans do not cover exactly the incomplete components in order")
        return
    expected: dict[int, dict] = {}
    for plan, (t, node_id, k) in zip(plans, want_nodes):
        if k not in expected:
            m = trinomial_market(k, step_rate)
            expected[k] = {"time": None, "node": None,
                           **expected_plan(m, vertices(m.payoffs, m.rhs))}
        want = dict(expected[k], time=t, node=node_id)
        if plan != want:
            bad = sorted(x for x in set(plan) | set(want) if plan.get(x) != want.get(x))
            errors.append(f"plan at node {node_id} differs in {bad}")
            if len(errors) > 5:
                return


# -- lattice -----------------------------------------------------------------

def lattice_grid(s0: int, steps: int) -> list[list[int]]:
    levels = [[s0]]
    for _ in range(steps):
        nxt: set[int] = set()
        for k in levels[-1]:
            nxt.update((0,) if k == 0 else (k - 1, k, k + 1))
        levels.append(sorted(nxt))
    return levels


PRIME = 2**61 - 1


def _residue(value) -> int:
    """A rational, or its "p/q" string, as p * q^-1 modulo PRIME.

    Denominators here are products of small primes, never multiples of PRIME.
    """
    if isinstance(value, str):
        num, _, den = value.partition("/")
        return int(num) * pow(int(den or 1), -1, PRIME) % PRIME
    return value.numerator * pow(value.denominator, -1, PRIME) % PRIME


def node_measure(k: int, step_rate: Fraction, p: Fraction) -> Vec:
    """p times the vertex on {down, up} plus (1 - p) times the other vertex."""
    m = trinomial_market(k, step_rate)
    verts = vertices(m.payoffs, m.rhs)
    outer = next(v for v in verts if v[1] == 0)
    other = next(v for v in verts if v != outer)
    return tuple(p * a + (1 - p) * b for a, b in zip(outer, other))


def check_lattice(item: LatticeItem, doc: dict, csv_text: str, errors: list[str]) -> dict:
    """Checks the report and the written surface; returns count metrics."""
    keys = {"params", "viable", "grid_states", "put_root_value",
            "completion_violations", "perturbation", "surface_csv"}
    if not _expect_keys(doc, keys, errors):
        return {}
    steps, s0 = item.steps, item.s0
    params = {"s0": s0, "lambda": str(item.lam), "eta": str(item.eta),
              "rate": str(item.rate), "horizon": "1", "steps": steps}
    if doc["params"] != params or doc["viable"] is not True:
        errors.append("params echo or viability wrong")
    levels = lattice_grid(s0, steps)
    nodes = [(t, k) for t, level in enumerate(levels) for k in level]
    if doc["grid_states"] != len(nodes):
        errors.append(f"grid_states {doc['grid_states']} != {len(nodes)}")

    lines = csv_text.splitlines()
    if not lines or lines[0] != "t,k,value" or len(lines) != len(nodes) + 1:
        errors.append("surface CSV header or row count wrong")
        return {}
    # Surface values are kept as strings and as residues modulo PRIME. The
    # recursion is checked on residues, which is exact up to a difference
    # divisible by PRIME; a nonzero residue proves a second difference
    # nonzero, and a zero one is decided again in Fractions.
    text: dict[tuple[int, int], str] = {}
    residue: dict[tuple[int, int], int] = {}
    for line, node in zip(lines[1:], nodes):
        t, k, v = line.split(",")
        if (int(t), int(k)) != node:
            errors.append(f"surface CSV row {line[:40]!r} out of order")
            return {}
        text[node] = v
        residue[node] = _residue(v)

    pert = doc["perturbation"]
    eps = item.epsilon
    terminal = {k: Fraction(text[(steps, k)]) for k in levels[-1]}
    deviations = [terminal[k] - (1 if k == 0 else 0) for k in levels[-1]]
    if (pert.get("epsilon") != str(eps) or pert.get("seed") != item.perturb_seed
            or pert.get("terminal") != {str(k): str(v) for k, v in terminal.items()}
            or not all(0 < d < eps for d in deviations)
            or pert.get("max_deviation") != str(max(deviations))
            or not 1 <= pert.get("attempts", 0) <= 64):
        errors.append("perturbation report disagrees with the surface's terminal layer")

    step_rate = item.rate / steps
    grown = _residue(1 + step_rate)
    measures: dict[int, tuple[int, ...]] = {}
    for t in range(steps):
        for k in levels[t]:
            if k == 0:
                expectation = residue[(t + 1, 0)]
            else:
                if k not in measures:
                    measures[k] = tuple(_residue(x) for x in
                                        node_measure(k, step_rate, item.emm_p))
                q = measures[k]
                nxt = ((t + 1, k - 1), (t + 1, k), (t + 1, k + 1))
                down, stay, up = (residue[n] for n in nxt)
                expectation = (q[0] * down + q[1] * stay + q[2] * up) % PRIME
                if (down - 2 * stay + up) % PRIME == 0:
                    d, s, u = (Fraction(text[n]) for n in nxt)
                    if d - 2 * s + u == 0:
                        errors.append(f"perturbed surface has a zero second difference "
                                      f"at {(t, k)}")
            if residue[(t, k)] * grown % PRIME != expectation:
                errors.append(f"surface value at {(t, k)} is not the discounted expectation")
            if len(errors) > 5:
                return {}

    root = Fraction(doc["put_root_value"])
    # Each terminal shift lies in (0, eps) and discounting at a non-negative
    # rate under positive node measures cannot widen it.
    if not (0 < root < 1 and 0 < Fraction(text[(0, s0)]) - root < eps):
        errors.append(f"put root value {doc['put_root_value']} inconsistent with the surface")
    violations = doc["completion_violations"]
    grid = set(nodes)
    unreachable = {(t, k) for t, k in nodes if t < steps and k > steps - t}
    listed = {tuple(v) for v in violations}
    if violations != sorted(violations) or not listed <= grid or not unreachable <= listed:
        errors.append("completion violations are not the nodes where the put is flat")
    return {
        "models.perturb_attempts": pert.get("attempts", 0),
        "models.grid_states": doc["grid_states"],
        "models.root_denominator_bits": root.denominator.bit_length(),
    }

