"""Market construction, the martingale system, and the JSON document."""

import json
import random
from fractions import Fraction

import pytest

from martpoly import (
    InputError,
    Matrix,
    augmented_matrix,
    build_system,
    make_market,
    market_from_json_dict,
    market_from_system,
    market_to_json_dict,
)
from util import random_market


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
    ],
)
def test_json_document_rejects_malformed(doc):
    with pytest.raises(InputError):
        market_from_json_dict(doc)


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
