"""One rule per kind of number, on every public function that takes one.

A rational is read by ``rat``: an int, a Fraction or a rational string, and
a string gives the same result as the equal Fraction. A count or an integer
label is an int that is not a bool. Anything else, a float, a Decimal or a
bool, is refused with ``InputError`` in every position, never with an
``AttributeError`` or ``TypeError`` from deeper in the library.

The constructors accept exactly what the JSON readers accept: a market or
tree built in the library round-trips through its document, and a value a
reader refuses is refused by the constructor with the same message.
"""

import json
import random
from decimal import Decimal
from fractions import Fraction
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martpoly import (
    EventTree,
    FactorModel,
    GeneratorSet,
    InputError,
    KklParams,
    Matrix,
    TreeMarket,
    TreeNode,
    analyze_tree,
    build_system,
    characterize,
    complete_market,
    complete_tree,
    convex_hull_member,
    dot,
    enumerate_generators,
    face_intersection,
    is_arbitrage_free,
    is_complete,
    kkl_backward_induction,
    kkl_build,
    kkl_component_market,
    kkl_node_emm,
    kkl_node_weights,
    kkl_params,
    kkl_perturb_terminal,
    kkl_transition,
    make_factor_model,
    make_market,
    market_from_json_dict,
    market_from_system,
    market_to_json_dict,
    mean_vector,
    mixture,
    price_bounds,
    rat,
    solve,
    system_from_rows,
    tree_market_from_json_dict,
    tree_market_to_json_dict,
    trinomial_completion_condition,
    trinomial_emms,
    trinomial_price_interval,
    validate_weights,
    vector,
    verify_measure,
)
from martpoly.analysis import bounds_from_values
from util import refuses

F = Fraction
EX4 = make_market(0, [1], [[2, 0, 0, 0]])
EX4_CHAR = characterize(EX4)
EX4_SYS = build_system(EX4)
TRI = make_factor_model(["1/2", 1, 2])
PARAMS = kkl_params(2, "1/8", "1/8", "1/10", 1, 2)
WEIGHTS = kkl_node_weights(PARAMS)
TREE = EventTree([TreeNode("r", 0, ("u", "d")), TreeNode("u", 1, ()), TreeNode("d", 1, ())])
TREE_MARKET = TreeMarket(TREE, 1, {"r": ["1"], "u": ["2"], "d": ["1/2"]}, ["0"])


class R(NamedTuple):
    """A rational slot and the valid value it holds in the base call."""

    value: Fraction


class C(NamedTuple):
    """A count or integer-label slot and its valid value in the base call."""

    value: int


class Case(NamedTuple):
    name: str
    call: Callable
    slots: tuple


def case(name, call, *slots):
    return Case(name, call, slots)


def terminal(*values):
    return dict(zip(range(5), values))


# Each public function that takes rationals or counts, called with one value
# per slot; the base call, with every slot at its value, succeeds.
CASES = [
    case("rat", rat, R(F(3, 4))),
    case("vector", lambda a, b: vector([a, b]), R(F(1)), R(F(-1, 3))),
    case("dot", lambda a, b, c, d: dot([a, b], [c, d]), R(F(1)), R(F(1, 2)), R(F(3)), R(F(2))),
    case("mean_vector", lambda a, b, c, d: mean_vector([[a, b], [c, d]]),
         R(F(1)), R(F(0)), R(F(1, 2)), R(F(2))),
    case("Matrix", lambda n: Matrix((), n), C(2)),
    case("Matrix.from_rows", lambda a, b, n: Matrix.from_rows([[a, b]], n), R(F(1)), R(F(2)), C(2)),
    case("Matrix.mul_vec", lambda a, b: Matrix.from_rows([[1, 2]]).mul_vec([a, b]),
         R(F(1, 2)), R(F(3))),
    case("solve", lambda a, b, c: solve(Matrix.from_rows([[a, b]]), [c]),
         R(F(1)), R(F(2)), R(F(1, 3))),
    case("SolutionSpace.solution",
         lambda t: solve(Matrix.from_rows([[1, 1]]), [1]).solution([t]), R(F(1, 4))),
    case("make_market",
         lambda r, s, a, b, c, p, q, w, n: make_market(r, [s], [[a, b, c]], [p, q, w], n),
         R(F(1, 10)), R(F(1)), R(F(1, 2)), R(F(1)), R(F(2)),
         R(F(1, 3)), R(F(1, 3)), R(F(1, 3)), C(3)),
    case("make_market with no assets", lambda r, n: make_market(r, [], [], None, n),
         R(F(0)), C(2)),
    case("market_from_system", lambda a, b, c, r, n: market_from_system([[a, b]], [c], r, n),
         R(F(1, 2)), R(F(2)), R(F(1)), R(F(1, 10)), C(2)),
    case("system_from_rows", lambda a, b, c, n: system_from_rows([[a, b]], [c], n),
         R(F(1, 2)), R(F(2)), R(F(1)), C(2)),
    case("verify_measure", lambda a, b, c, d: verify_measure(EX4, [a, b, c, d]),
         R(F(1, 2)), R(F(1, 6)), R(F(1, 6)), R(F(1, 6))),
    case("price_bounds", lambda a, b, c, d, n: price_bounds(EX4, [a, b, c, d], max_outcomes=n),
         R(F(0)), R(F(1)), R(F(0)), R(F(1, 2)), C(16)),
    case("characterize", lambda n: characterize(EX4, max_outcomes=n), C(16)),
    case("is_arbitrage_free", lambda n: is_arbitrage_free(EX4, max_outcomes=n), C(4)),
    case("is_complete", lambda n: is_complete(EX4, max_outcomes=n), C(5)),
    case("complete_market",
         lambda a, b, c, n: complete_market(EX4, [a, b, c], max_outcomes=n),
         R(F(1, 2)), R(F(1, 4)), R(F(1, 4)), C(16)),
    case("mixture", lambda a, b, c: mixture(EX4_CHAR.generators, [a, b, c]),
         R(F(1, 2)), R(F(0)), R(F(1, 2))),
    case("validate_weights", lambda a, b, c: validate_weights(EX4_CHAR, [a, b, c]),
         R(F(1, 3)), R(F(1, 3)), R(F(1, 3))),
    case("bounds_from_values", lambda a, b, d: bounds_from_values([a, b], d),
         R(F(1, 2)), R(F(-3)), R(F(11, 10))),
    case("enumerate_generators", lambda n: enumerate_generators(EX4_SYS, max_outcomes=n), C(4)),
    case("face_intersection", lambda i, j: face_intersection(EX4_SYS, (i, j)), C(0), C(1)),
    case("GeneratorSet.of", lambda n, a, b: GeneratorSet.of(n, [[a, b]]),
         C(2), R(F(1, 3)), R(F(2, 3))),
    case("convex_hull_member",
         lambda p, q, a, b, c, d: convex_hull_member([p, q], [[a, b], [c, d]]),
         R(F(1, 2)), R(F(1, 2)), R(F(0)), R(F(1)), R(F(1)), R(F(0))),
    case("make_factor_model", lambda a, b, c, r, s: make_factor_model([a, b, c], r, s),
         R(F(1, 2)), R(F(1)), R(F(2)), R(F(1, 10)), R(F(3))),
    case("FactorModel", lambda a, b, r, s: FactorModel((a, b), r, s),
         R(F(1, 2)), R(F(2)), R(F(0)), R(F(1))),
    case("TrinomialEmmFamily.measure", lambda p: trinomial_emms(TRI).measure(p), R(F(1, 3))),
    case("trinomial_completion_condition",
         lambda a, b, c: trinomial_completion_condition([a, b, c], TRI), R(F(0)), R(F(0)), R(F(1))),
    case("trinomial_price_interval",
         lambda a, b, c: trinomial_price_interval([a, b, c], TRI), R(F(0)), R(F(0)), R(F(1))),
    case("kkl_params", kkl_params, C(2), R(F(1, 8)), R(F(1, 8)), R(F(1, 10)), R(F(1)), C(2)),
    case("KklParams", KklParams, C(1), R(F(1, 4)), R(F(1, 8)), R(F(0)), R(F(1, 2)), C(3)),
    case("kkl_transition", lambda k: kkl_transition(PARAMS, k), C(1)),
    case("kkl_component_market", lambda k: kkl_component_market(PARAMS, k), C(2)),
    case("kkl_node_emm", lambda k, p: kkl_node_emm(PARAMS, k, p), C(1), R(F(1, 2))),
    case("kkl_build", lambda n: kkl_build(PARAMS, max_nodes=n), C(100)),
    case("kkl_node_weights", lambda p: kkl_node_weights(PARAMS, p), R(F(1, 3))),
    case("kkl_backward_induction",
         lambda a, b, c, d, e: kkl_backward_induction(WEIGHTS, terminal(a, b, c, d, e)),
         R(F(1)), R(F(0)), R(F(1, 2)), R(F(0)), R(F(-1))),
    case("kkl_perturb_terminal", lambda e, seed: kkl_perturb_terminal(WEIGHTS, e, seed),
         R(F(1, 1000)), C(0)),
    case("EventTree",
         lambda t, u, d: EventTree([TreeNode("r", t, ("u", "d")), TreeNode("u", u, ()),
                                    TreeNode("d", d, ())]),
         C(0), C(1), C(1)),
    case("TreeMarket",
         lambda n, r, u, d, rate, p, q: TreeMarket(TREE, n, {"r": [r], "u": [u], "d": [d]}, [rate],
                                                   {"r": [p, q]}),
         C(1), R(F(1)), R(F(2)), R(F(1, 2)), R(F(0)), R(F(1, 3)), R(F(2, 3))),
    case("analyze_tree", lambda n: analyze_tree(TREE_MARKET, max_outcomes=n), C(2)),
    case("complete_tree", lambda n: complete_tree(TREE_MARKET, max_outcomes=n), C(16)),
]


def canonical(result):
    """A value that compares equal exactly when the results do."""
    if isinstance(result, TreeMarket):
        return tree_market_to_json_dict(result)
    if isinstance(result, EventTree):
        return result.nodes
    return result


def base_values(c: Case) -> list:
    return [slot.value for slot in c.slots]


def test_every_base_call_succeeds():
    for c in CASES:
        c.call(*base_values(c))


INEXACT = (
    st.floats()
    | st.decimals(allow_nan=False)
    | st.booleans()
)


@st.composite
def refused_calls(draw):
    """A case with one slot replaced by a value its rule refuses."""
    c = draw(st.sampled_from(CASES))
    i = draw(st.integers(0, len(c.slots) - 1))
    slot = c.slots[i]
    bad = draw(INEXACT | st.just(float(slot.value)) | st.just(Decimal(slot.value.numerator)))
    if isinstance(slot, C):
        # a count is an int: the string that spells one is refused too
        bad = draw(st.just(bad) | st.just(str(slot.value)))
    values = base_values(c)
    values[i] = bad
    return c, values


@settings(derandomize=True, max_examples=600, deadline=None)
@given(refused_calls())
def test_a_float_decimal_or_bool_is_refused_in_every_position(drawn):
    c, values = drawn
    with pytest.raises(InputError):
        c.call(*values)


def spellings(value: Fraction) -> st.SearchStrategy[str]:
    """Rational strings that all read as ``value``."""
    p, q = value.numerator, value.denominator
    forms = [f"{p}/{q}", f"{2 * p}/{2 * q}", f" {p}/{q} "]
    if q == 1:
        forms.append(str(p))
    if 10**6 % q == 0:
        forms.append(str(Decimal(p) / Decimal(q)))
    return st.sampled_from(forms)


@st.composite
def spelled_calls(draw):
    """A case with one rational slot given as a string, and its base values."""
    c = draw(st.sampled_from([c for c in CASES if any(isinstance(s, R) for s in c.slots)]))
    i = draw(st.sampled_from([i for i, s in enumerate(c.slots) if isinstance(s, R)]))
    values = base_values(c)
    values[i] = draw(spellings(values[i]))
    return c, values


@settings(derandomize=True, max_examples=300, deadline=None)
@given(spelled_calls())
def test_a_rational_string_gives_the_result_of_the_equal_fraction(drawn):
    c, values = drawn
    assert canonical(c.call(*values)) == canonical(c.call(*base_values(c)))


def test_guard_limits_are_counts():
    with refuses(InputError, "max_outcomes must be a positive integer, got '16'"):
        characterize(EX4, max_outcomes="16")
    with refuses(InputError, "max_outcomes must be a positive integer, got True"):
        characterize(EX4, max_outcomes=True)
    with refuses(InputError, "max_outcomes must be a positive integer, got 0"):
        analyze_tree(TREE_MARKET, max_outcomes=0)
    with refuses(InputError, "max_nodes must be a positive integer, got '9'"):
        kkl_build(PARAMS, max_nodes="9")
    with refuses(InputError, "max_nodes must be a positive integer, got 0"):
        kkl_build(PARAMS, max_nodes=0)


def test_floats_reach_no_model_or_tree():
    # a factor model built from floats used to return float measures
    with refuses(InputError, "cannot interpret 0.5 as an exact rational"):
        FactorModel((0.5, 1.0, 2.0), 0.0, 1.0)
    # a float state used to return float probabilities
    with refuses(InputError, "states are nonnegative integers"):
        kkl_transition(PARAMS, 1.5)
    with refuses(InputError, "node 'u': time must be an integer"):
        EventTree([TreeNode("r", 0, ("u",)), TreeNode("u", 1.0, ())])


@st.composite
def library_markets(draw):
    """A market built by ``make_market``, at times with probabilities and ``outcomes``."""
    b = draw(st.integers(1, 5))
    n = draw(st.integers(0, 3))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    payoffs = [[draw(small) for _ in range(b)] for _ in range(n)]
    spot = [draw(small) for _ in range(n)]
    rate = draw(st.sampled_from([F(0), F(1, 10), F(-1, 2), F(3)]))
    probabilities = None
    if draw(st.booleans()):
        weights = [draw(st.integers(1, 4)) for _ in range(b)]
        probabilities = [F(w, sum(weights)) for w in weights]
    outcomes = b if n == 0 or draw(st.booleans()) else None
    return make_market(rate, spot, payoffs, probabilities, outcomes)


def reread(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(library_markets())
def test_a_library_market_round_trips_through_its_document(mkt):
    back = market_from_json_dict(reread(market_to_json_dict(mkt)))
    assert back == mkt
    assert characterize(back) == characterize(mkt)


@st.composite
def library_trees(draw):
    """A tree market built in the library: a random tree, or ``kkl_build``'s lattice."""
    if draw(st.booleans()):
        s0 = draw(st.integers(1, 3))
        steps = draw(st.integers(1, 3))
        rate = draw(st.sampled_from(["0", "1/10", "-1/20"]))
        return kkl_build(kkl_params(s0, "1/16", "1/32", rate, 1, steps))
    rng = random.Random(draw(st.integers(0, 2**32)))
    horizon = rng.randint(1, 3)
    assets = rng.randint(0, 2)
    nodes, prices, probabilities = [], {}, {}
    frontier = ["r"]
    for t in range(horizon + 1):
        nxt = []
        for node_id in frontier:
            prices[node_id] = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(assets)]
            kids = [] if t == horizon else [f"{node_id}.{j}" for j in range(rng.randint(1, 3))]
            if kids:
                weights = [rng.randint(1, 3) for _ in kids]
                probabilities[node_id] = [F(w, sum(weights)) for w in weights]
            nodes.append(TreeNode(node_id, t, tuple(kids)))
            nxt += kids
        frontier = nxt
    rates = [F(rng.randint(-1, 2), 10) for _ in range(horizon)]
    bp = probabilities if rng.random() < 0.5 else None
    return TreeMarket(EventTree(nodes), assets, prices, rates, bp)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(library_trees())
def test_a_library_tree_round_trips_through_its_document(tm):
    doc = tree_market_to_json_dict(tm)
    back = tree_market_from_json_dict(reread(doc))
    assert tree_market_to_json_dict(back) == doc
    report, again = analyze_tree(tm), analyze_tree(back)
    assert (again.viable, again.complete) == (report.viable, report.complete)
    assert [r.characterization for r in again.components] == [
        r.characterization for r in report.components
    ]


def refusal(build) -> str:
    with pytest.raises(InputError) as exc:
        build()
    return str(exc.value)


@pytest.mark.parametrize("bad", [True, False, 2.0, Decimal(2), "2"])
def test_make_market_refuses_what_the_reader_refuses(bad):
    doc = {"rate": "0", "spot": [], "payoffs": [], "outcomes": bad}
    message = refusal(lambda: market_from_json_dict(doc))
    assert message == "outcomes must be an integer"
    assert refusal(lambda: make_market(0, [], [], outcomes=bad)) == message


TREE_DOC = tree_market_to_json_dict(TREE_MARKET)


@pytest.mark.parametrize("bad", [True, False, 1.0, Decimal(1), "1"])
def test_tree_market_refuses_the_asset_counts_the_reader_refuses(bad):
    message = refusal(lambda: tree_market_from_json_dict({**TREE_DOC, "assets": bad}))
    assert message == "assets must be an integer"
    prices = {"r": ["1"], "u": ["2"], "d": ["1/2"]}
    assert refusal(lambda: TreeMarket(TREE, bad, prices, ["0"])) == message


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("id", 0, "node ids must be strings"),
        ("id", None, "node ids must be strings"),
        ("id", ["r"], "node ids must be strings"),
        ("time", 0.0, "node 'r': time must be an integer"),
        ("time", False, "node 'r': time must be an integer"),
        ("time", Decimal(0), "node 'r': time must be an integer"),
        ("children", "ud", "node 'r': children must be a list of ids"),
        ("children", None, "node 'r': children must be a list of ids"),
        ("children", {"u": 1, "d": 1}, "node 'r': children must be a list of ids"),
    ],
)
def test_event_tree_refuses_the_ids_and_times_the_reader_refuses(field, bad, message):
    root, *rest = TREE_DOC["nodes"]
    doc = {**TREE_DOC, "nodes": [{**root, field: bad}, *rest]}
    assert refusal(lambda: tree_market_from_json_dict(doc)) == message
    nodes = [TreeNode(n["id"], n["time"], n["children"]) for n in doc["nodes"]]
    assert refusal(lambda: EventTree(nodes)) == message
