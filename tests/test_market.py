"""Market construction, the martingale system, and the JSON document."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martpoly import rationals
from martpoly import (
    InputError,
    MartingaleSystem,
    Matrix,
    augmented_matrix,
    build_system,
    make_market,
    market_from_json_dict,
    market_from_system,
    market_to_json_dict,
    price_bounds,
    solve,
    system_from_rows,
)
from test_rationals import fraction_rref
from util import random_market, refuses


def test_build_system_is_payoffs_and_grown_spot():
    mkt = make_market(rate=0, spot=["1/2"], payoffs=[["2", "0", "0", "0"]])
    sys = build_system(mkt)
    assert sys.matrix == Matrix.from_rows([[2, 0, 0, 0]])
    assert sys.rhs == (Fraction(1, 2),)


def test_build_system_no_assets():
    mkt = make_market(rate=0, spot=[], payoffs=[], outcomes=3)
    sys = build_system(mkt)
    assert sys.matrix.rows == 0
    assert sys.matrix.cols == 3
    assert sys.rhs == ()


def test_build_system_grows_spot_by_rate():
    mkt = make_market(rate="1/10", spot=[10], payoffs=[[9, 12]])
    assert build_system(mkt).rhs == (Fraction(11),)


def test_augmented_matrix_prepends_ones():
    sys = build_system(make_market(rate=0, spot=[1], payoffs=[[2, 0, 0, 0]]))
    assert augmented_matrix(sys) == Matrix.from_rows([[1, 1, 1, 1], [2, 0, 0, 0]])


def test_augmented_matrix_no_assets():
    sys = build_system(make_market(rate=0, spot=[], payoffs=[], outcomes=2))
    assert augmented_matrix(sys) == Matrix.from_rows([[1, 1]])


def test_augmented_matrix_stacks_rows():
    sys = build_system(make_market(rate=0, spot=[1, 1], payoffs=[[1, 2], [3, 4]]))
    assert augmented_matrix(sys) == Matrix.from_rows([[1, 1], [1, 2], [3, 4]])


def test_market_from_system_round_trips():
    mkt = market_from_system([[2, 0, 0, 0]], [1], rate="1/10")
    sys = build_system(mkt)
    assert sys.matrix == Matrix.from_rows([[2, 0, 0, 0]])
    assert sys.rhs == (Fraction(1),)


def test_make_market_coerces_each_payoff_entry_once(monkeypatch):
    calls = []
    real_rat = rationals.rat

    def counting_rat(value):
        calls.append(value)
        return real_rat(value)

    monkeypatch.setattr(rationals, "rat", counting_rat)
    mkt = make_market(rate=0, spot=["1", "2"], payoffs=[["1", "2", "3"], ["4", "5", "6"]])
    # two spot prices and six payoff entries, each coerced once
    assert calls == ["1", "2", "3", "4", "5", "6", "1", "2"]
    assert mkt.payoffs == Matrix.from_rows([[1, 2, 3], [4, 5, 6]])


def test_single_outcome_allowed():
    mkt = make_market(rate=0, spot=[1], payoffs=[[1]])
    assert mkt.outcomes == 1


def test_rate_minus_one_rejected():
    with pytest.raises(InputError):
        make_market(rate=-1, spot=[1], payoffs=[[1, 2]])


def test_probabilities_validated():
    make_market(rate=0, spot=[1], payoffs=[[1, 2]], probabilities=["1/2", "1/2"])
    with pytest.raises(InputError):
        make_market(rate=0, spot=[1], payoffs=[[1, 2]], probabilities=["1", "0"])
    with pytest.raises(InputError):
        make_market(rate=0, spot=[1], payoffs=[[1, 2]], probabilities=["1/2", "1/4"])


def test_spot_payoff_shape_mismatch():
    with pytest.raises(InputError):
        make_market(rate=0, spot=[1, 2], payoffs=[[1, 2]])


def test_no_assets_requires_outcomes():
    with pytest.raises(InputError):
        make_market(rate=0, spot=[], payoffs=[])


def test_json_round_trip_is_exact():
    rng = random.Random(41)
    for _ in range(25):
        mkt = random_market(rng)
        doc = json.loads(json.dumps(market_to_json_dict(mkt)))
        back = market_from_json_dict(doc)
        assert back == mkt


def test_json_document_example():
    doc = {
        "rate": "0",
        "spot": ["1/2"],
        "payoffs": [["2", "0", "0", "0"]],
        "probabilities": ["1/4", "1/4", "1/4", "1/4"],
    }
    mkt = market_from_json_dict(doc)
    assert mkt.outcomes == 4
    assert mkt.probabilities == (Fraction(1, 4),) * 4


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"rate": "0", "spot": []},
        {"rate": "0", "spot": [], "payoffs": []},
        {"rate": "0", "spot": ["1"], "payoffs": [["1", "bad"]]},
        {"rate": "0", "spot": ["1"], "payoffs": "nope"},
        {"rate": "0", "spot": [], "payoffs": [], "outcomes": "3"},
        # a list field that is not a list: a scalar, a mapping, or a string
        # whose characters were once read as its entries
        {"rate": "0", "spot": ["1"], "payoffs": [["1", "2"]], "probabilities": 5},
        {"rate": "0", "spot": ["1"], "payoffs": [["1"]], "probabilities": "1"},
        {"rate": "0", "spot": "1", "payoffs": [["1"]]},
        {"rate": "0", "spot": ["1"], "payoffs": [{"1": "x", "2": "y"}]},
        {"rate": "0", "spot": ["1"], "payoffs": ["12"]},
    ],
)
def test_json_document_rejects_malformed(doc):
    with pytest.raises(InputError):
        market_from_json_dict(doc)


def test_string_rows_and_payoffs_are_not_lists():
    with pytest.raises(InputError, match="^expected a list of rationals"):
        make_market(rate=0, spot=[1], payoffs=["12"])
    mkt = make_market(rate=0, spot=["1/2"], payoffs=[[0, 1]])
    with pytest.raises(InputError, match="^expected a list of rationals"):
        price_bounds(mkt, "01")


def test_row_lists_that_are_not_lists_of_lists_are_refused():
    """A payoff or row list that is a scalar, a string, or holds one, is bad input."""
    with pytest.raises(InputError, match="^expected a list of rows, got 5$"):
        make_market(0, [1], 5)
    with pytest.raises(InputError, match="^expected a list of rows, got 5$"):
        system_from_rows(5, [1])
    with pytest.raises(InputError, match="^expected a list of rows, got '12'$"):
        Matrix.from_rows("12")
    with pytest.raises(InputError, match="^expected a list of rationals, got 3$"):
        Matrix.from_rows([[1, 2], 3])
    with pytest.raises(InputError, match="^expected a list of rows, got 7$"):
        Matrix.from_rows([[1, 2]], 2).with_rows(7)
    assert Matrix.from_rows(iter([(1, "1/2")])) == Matrix(((Fraction(1), Fraction(1, 2)),), 2)


def test_long_non_string_value_is_not_echoed_whole():
    doc = {"rate": [1] * 5000, "spot": ["1"], "payoffs": [["1", "2"]]}
    with pytest.raises(InputError) as exc:
        market_from_json_dict(doc)
    assert len(str(exc.value)) < 200
    assert "15000 characters" in str(exc.value)


def test_short_non_string_value_is_echoed_whole():
    doc = {"rate": [1], "spot": ["1"], "payoffs": [["1", "2"]]}
    with pytest.raises(InputError, match=r"^cannot interpret \[1\] as an exact rational$"):
        market_from_json_dict(doc)


def test_scaling_an_asset_scales_its_system_row():
    rng = random.Random(55)
    for _ in range(25):
        mkt = random_market(rng)
        if mkt.assets == 0:
            continue
        i = rng.randrange(mkt.assets)
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = make_market(
            rate=mkt.rate,
            spot=[s * lam if j == i else s for j, s in enumerate(mkt.spot)],
            payoffs=[
                [x * lam for x in row] if j == i else row
                for j, row in enumerate(mkt.payoffs.entries)
            ],
        )
        sys, scaled_sys = build_system(mkt), build_system(scaled)
        assert scaled_sys.rhs[i] == lam * sys.rhs[i]
        assert scaled_sys.matrix.row(i) == tuple(lam * x for x in sys.matrix.row(i))


SMALL = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
)


@st.composite
def degenerate_systems(draw):
    """Equations drawn, zero, constant (a bond), repeated or combined, any rhs."""
    b = draw(st.integers(1, 6))
    equations: list[tuple[list[Fraction], Fraction]] = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["drawn", "zero", "bond", "repeat", "combined"]))
        c = draw(SMALL)
        if kind == "zero":
            row = [Fraction(0)] * b
        elif kind == "bond":
            level = draw(SMALL.filter(bool))
            row = [level] * b
            # pays its level in every outcome: consistent with mass one or not
            c = draw(st.sampled_from([level, c]))
        elif kind == "repeat" and equations:
            row, first = draw(st.sampled_from(equations))
            c = draw(st.sampled_from([first, c]))
        elif kind == "combined" and equations:
            (u, cu), (v, cv) = draw(st.sampled_from(equations)), draw(st.sampled_from(equations))
            s, t = draw(SMALL), draw(SMALL)
            row, c = [s * x + t * y for x, y in zip(u, v)], s * cu + t * cv
        else:
            row = draw(st.lists(SMALL, min_size=b, max_size=b))
        equations.append((row, c))
    return system_from_rows([r for r, _ in equations], [c for _, c in equations], outcomes=b)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(degenerate_systems())
def test_reduction_matches_fraction_gauss_jordan(sys):
    b = sys.outcomes
    rows, pivots = sys.reduced
    equations = [(Fraction(1),) * (b + 1)] + [
        row + (c,) for row, c in zip(sys.matrix.entries, sys.rhs)
    ]
    # the kept rows are the nonzero rows of an echelon form of [1; P | rhs]
    oracle = fraction_rref(Matrix.from_rows(equations, b + 1))
    assert all(type(x) is int for row in rows for x in row)
    assert len(rows) == len(oracle.pivots)
    assert fraction_rref(Matrix.from_rows(rows, b + 1)).matrix.entries == (
        oracle.matrix.entries[: len(rows)]
    )
    # pivots of the outcome columns taken last to first, mapped back
    flipped = fraction_rref(Matrix.from_rows([e[:b][::-1] + e[b:] for e in equations], b + 1))
    outcome_pivots = sorted(b - 1 - p for p in flipped.pivots if p < b)
    assert pivots == tuple(outcome_pivots) + ((b,) if b in flipped.pivots else ())
    inconsistent = solve(augmented_matrix(sys), (Fraction(1),) + sys.rhs).kind == "inconsistent"
    assert (b in pivots) == inconsistent
    if not inconsistent:
        # rows come in pivot order: row i's last nonzero outcome is pivots[i],
        # and it is 0 in every other pivot column
        for i, (row, p) in enumerate(zip(rows, pivots)):
            assert max(j for j in range(b) if row[j]) == p
            assert all(row[q] == 0 for k, q in enumerate(pivots) if k != i)


def test_market_refusals_name_what_is_wrong():
    with refuses(InputError, "a market needs at least one outcome"):
        make_market(rate=0, spot=[], payoffs=[], outcomes=0)
    with refuses(InputError, "one probability per outcome required"):
        make_market(rate=0, spot=[1], payoffs=[["1/2", 1, 2]], probabilities=["1/2", "1/2"])
    with refuses(InputError, "payoff rows have 3 columns, outcomes=4"):
        make_market(rate=0, spot=[1], payoffs=[["1/2", 1, 2]], outcomes=4)
    with refuses(InputError, "rate -1 makes the one-period discount undefined"):
        market_from_system([[1, 2]], [1], rate=-1)
    with refuses(InputError, "one right-hand side entry per asset row required"):
        MartingaleSystem(Matrix.from_rows([[1, 2]]), ())
