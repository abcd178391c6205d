"""Verdicts, measure checks, price bounds, and market completion."""

import dataclasses
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martpoly import analysis, cli, geometry, market, rationals
from martpoly import (
    InputError,
    NotViableError,
    PriceBounds,
    augmented_matrix,
    apply_completion,
    characterize,
    complete_market,
    enumerate_generators,
    GeneratorSet,
    build_system,
    is_arbitrage_free,
    is_complete,
    make_market,
    market_from_system,
    mixture,
    price_bounds,
    rank,
    validate_weights,
    vector,
    verify_measure,
)
from martpoly.rationals import dot, format_rational, mean_vector, unit_vector
from test_geometry import SMALL, small_systems
from test_rationals import SUMMANDS
from util import random_market, random_system, random_viable_market


def V(*xs):
    return vector(xs)


EX2 = market_from_system([[-3, 1, -15, 1], [-3, 1, -7, 1]], [-3, -3])
EX3 = market_from_system([[-1, -1, -3, 3], [1, 1, -3, 3]], [-1, 1])
EX4 = market_from_system([[2, 0, 0, 0]], [1])
NO_MEASURES = market_from_system([[18, -6, -6, 75], [99, -33, -33, 291]], [15, 123])
TRINOMIAL = make_market(rate=0, spot=[1], payoffs=[["1/2", "1", "2"]])


def test_characterize_support_conditions():
    char = characterize(EX4)
    assert char.emm_exists
    assert char.outcome_support == ((0, 1, 2), (0,), (1,), (2,))


def test_characterize_dead_outcomes():
    char = characterize(EX3)
    assert not char.emm_exists
    assert char.outcome_support[2] == ()
    assert char.outcome_support[3] == ()


def test_characterize_single_outcome():
    mkt = make_market(rate="1/10", spot=[10], payoffs=[[11]])
    char = characterize(mkt)
    assert char.generators.generators == ((Fraction(1),),)
    assert char.emm_exists


def test_not_viable_vertex_measure():
    viable, witness = is_arbitrage_free(EX2)
    assert not viable
    assert witness == V(1, 0, 0, 0)


def test_not_viable_no_measures_at_all():
    viable, witness = is_arbitrage_free(NO_MEASURES)
    assert not viable
    assert witness is None


def test_viable_with_average_witness():
    viable, witness = is_arbitrage_free(EX4)
    assert viable
    assert witness == V("1/2", "1/6", "1/6", "1/6")


def test_complete_extended_market():
    ext = make_market(
        rate=0,
        spot=[1, "1/6", "1/6"],
        payoffs=[[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    )
    assert is_complete(ext)
    assert characterize(ext).generators.generators == (V("1/2", "1/6", "1/6", "1/6"),)


def test_trinomial_not_complete():
    assert is_arbitrage_free(TRINOMIAL)[0]
    assert not is_complete(TRINOMIAL)


def test_binomial_complete():
    mkt = make_market(rate=0, spot=[1], payoffs=[["1/2", "2"]])
    assert is_complete(mkt)


def test_verify_measure_cases():
    check = verify_measure(EX4, V("1/2", "1/6", "1/6", "1/6"))
    assert check.is_martingale and check.is_equivalent
    check = verify_measure(EX2, V(1, 0, 0, 0))
    assert check.is_martingale and not check.is_equivalent
    check = verify_measure(EX4, V(1, 0, 0, 0))
    assert not check.is_martingale and not check.is_equivalent


def test_verify_measure_dimension_mismatch():
    with pytest.raises(InputError):
        verify_measure(EX4, V(1, 0))


def test_price_bounds_trinomial_digital():
    bounds = price_bounds(TRINOMIAL, [0, 0, 1])
    assert (bounds.low, bounds.high) == (Fraction(0), Fraction(1, 3))
    assert not bounds.low_attained_by_emm
    assert not bounds.high_attained_by_emm


def test_price_bounds_replicable_claim():
    row = TRINOMIAL.payoffs.row(0)
    bounds = price_bounds(TRINOMIAL, row)
    assert bounds.low == bounds.high == TRINOMIAL.spot[0]
    assert bounds.low_attained_by_emm and bounds.high_attained_by_emm


def test_price_bounds_reads_attainment_off_the_interval():
    assert [f.name for f in dataclasses.fields(PriceBounds)] == ["low", "high"]
    for low, high in ((Fraction(1, 3), Fraction(1, 3)), (Fraction(0), Fraction(1, 3))):
        bounds = PriceBounds(low, high)
        assert (bounds.low, bounds.high) == (low, high)
        assert bounds.low_attained_by_emm is bounds.high_attained_by_emm is (low == high)
        for flag in ("low_attained_by_emm", "high_attained_by_emm"):
            with pytest.raises(AttributeError):
                setattr(bounds, flag, True)


def test_price_bounds_bond():
    mkt = make_market(rate="1/4", spot=[1], payoffs=[["5/8", "5/2"]])
    bounds = price_bounds(mkt, [1, 1])
    assert bounds.low == bounds.high == Fraction(4, 5)


def test_price_bounds_requires_viability():
    with pytest.raises(NotViableError):
        price_bounds(EX2, [1, 0, 0, 0])


def test_completion_of_example_market():
    plan = complete_market(EX4, weights=["1/3", "1/3", "1/3"])
    assert plan.added_payoff_rows.entries == (V(0, 1, 0, 0), V(0, 0, 1, 0))
    assert plan.price_map == ((Fraction(1, 2), 0, 0), (0, Fraction(1, 2), 0))
    assert plan.prices == (Fraction(1, 6), Fraction(1, 6))
    ext = apply_completion(EX4, plan)
    assert is_complete(ext) and is_arbitrage_free(ext)[0]


def test_completion_already_complete():
    mkt = make_market(rate=0, spot=[1], payoffs=[["1/2", "2"]])
    plan = complete_market(mkt)
    assert plan.is_empty
    assert apply_completion(mkt, plan) == mkt


def test_completion_trinomial_single_row():
    plan = complete_market(TRINOMIAL)
    assert plan.added_payoff_rows.rows == 1
    assert is_complete(apply_completion(TRINOMIAL, plan))


def test_default_completion_prices_read_the_witness(monkeypatch):
    calls = []
    real_mixture = analysis.mixture

    def counting_mixture(*args):
        calls.append(args)
        return real_mixture(*args)

    monkeypatch.setattr(analysis, "mixture", counting_mixture)
    mkt = make_market(rate="1/10", spot=["1"], payoffs=[["1/2", "1", "2", "3/2"]])
    plan = complete_market(mkt)
    assert calls == []
    witness = plan.characterization.witness
    assert plan.prices == tuple(
        witness[i] / Fraction(11, 10) for i in plan.characterization.completing_outcomes
    )
    assert len(plan.prices) == 2


def test_explicit_weights_mix_the_generators_once(monkeypatch):
    calls = []
    real_mixture = analysis.mixture

    def counting_mixture(*args):
        calls.append(args)
        return real_mixture(*args)

    monkeypatch.setattr(analysis, "mixture", counting_mixture)
    mkt = make_market(0, [1], [[2, 0, 0, 0]])
    plan = complete_market(mkt, weights=["1/3", "1/3", "1/3"])
    assert len(calls) == 1
    blended = real_mixture(plan.characterization.generators, plan.weights)
    assert plan.prices == tuple(blended[i] for i in plan.characterization.completing_outcomes)


def test_completion_requires_viability():
    with pytest.raises(NotViableError):
        complete_market(NO_MEASURES)


def test_weights_validation():
    char = characterize(EX4)
    validate_weights(char, ["1/3", "1/3", "1/3"])
    with pytest.raises(InputError):
        validate_weights(char, ["1/2", "1/2"])  # wrong length
    with pytest.raises(InputError):
        validate_weights(char, ["1/2", "1/2", "0"])  # outcome 3 starves
    with pytest.raises(InputError):
        validate_weights(char, ["1/2", "1/2", "1/2"])  # not convex
    with pytest.raises(InputError):
        validate_weights(char, ["3/2", "-1/4", "-1/4"])  # negative
    # a float or Decimal weight is refused even where it is zero
    half = Fraction(1, 2)
    for bad in ([0.0, half, half], [Decimal(0), half, half], [0.5, half, 0]):
        with pytest.raises(InputError, match="^mixture weights must be Fractions or ints$"):
            mixture(char.generators, bad)


def test_complete_market_rejects_bad_weights():
    with pytest.raises(InputError):
        complete_market(EX4, weights=["1/2", "1/2", "0"])


def test_verdict_consistency_on_random_markets():
    rng = random.Random(411)
    for _ in range(60):
        mkt = random_market(rng)
        viable, witness = is_arbitrage_free(mkt)
        if is_complete(mkt):
            assert viable
        if viable:
            check = verify_measure(mkt, witness)
            assert check.is_martingale and check.is_equivalent


def test_unique_pricing_equivalence():
    rng = random.Random(988)
    for _ in range(60):
        mkt = random_market(rng)
        char = characterize(mkt)
        expected = char.emm_exists and len(char.generators) == 1
        assert is_complete(mkt) == expected


def test_scaling_invariance():
    rng = random.Random(5150)
    done = 0
    while done < 50:
        mkt = random_market(rng)
        if mkt.assets == 0:
            continue
        done += 1
        i = rng.randrange(mkt.assets)
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        scaled = make_market(
            rate=mkt.rate,
            spot=[s * lam if j == i else s for j, s in enumerate(mkt.spot)],
            payoffs=[
                [x * lam for x in row] if j == i else row
                for j, row in enumerate(mkt.payoffs.entries)
            ],
        )
        base, other = characterize(mkt), characterize(scaled)
        assert base.generators == other.generators
        assert is_arbitrage_free(mkt)[0] == is_arbitrage_free(scaled)[0]
        assert is_complete(mkt) == is_complete(scaled)
        if base.emm_exists:
            payoff = [rng.randint(-4, 4) for _ in range(mkt.outcomes)]
            assert price_bounds(mkt, payoff) == price_bounds(scaled, payoff)


def test_redundant_asset_invariance():
    rng = random.Random(62)
    done = 0
    while done < 50:
        mkt = random_market(rng)
        char = characterize(mkt)
        if not char.generators:
            continue
        done += 1
        # new row: combination of the ones row and existing payoff rows
        mu0 = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        mus = [Fraction(rng.randint(-2, 2)) for _ in range(mkt.assets)]
        row = [mu0] * mkt.outcomes
        for mu, payoff_row in zip(mus, mkt.payoffs.entries):
            row = [a + mu * b for a, b in zip(row, payoff_row)]
        anchor = rng.choice(char.generators.generators)
        price = sum(a * b for a, b in zip(row, anchor)) / (1 + mkt.rate)
        grown = make_market(
            rate=mkt.rate,
            spot=list(mkt.spot) + [price],
            payoffs=[list(r) for r in mkt.payoffs.entries] + [row],
        )
        assert characterize(grown).generators == char.generators


def test_bounds_sandwich():
    rng = random.Random(77)
    done = 0
    while done < 50:
        mkt = random_market(rng)
        char = characterize(mkt)
        if not char.emm_exists:
            continue
        done += 1
        payoff = V(*[rng.randint(-5, 5) for _ in range(mkt.outcomes)])
        bounds = price_bounds(mkt, payoff)
        discount = 1 + mkt.rate
        values = [
            sum(a * b for a, b in zip(payoff, g)) / discount
            for g in char.generators
        ]
        assert all(bounds.low <= v <= bounds.high for v in values)
        assert bounds.low in values and bounds.high in values


def replicable_payoff(rng: random.Random, mkt: market.OnePeriodMarket):
    """A random integer combination of the bond and the payoff rows."""
    rows = [[1] * mkt.outcomes] + [list(r) for r in mkt.payoffs.entries]
    weights = [rng.randint(-3, 3) for _ in rows]
    return V(*[sum(w * r[i] for w, r in zip(weights, rows)) for i in range(mkt.outcomes)])


@pytest.mark.parametrize("rate", ["0", "1/3", "-1/2", "-3/2", "-5"])
def test_price_bounds_equal_the_bounds_of_every_discounted_value(rate):
    # bounds divide only the extremes: a negative discount (rate below -1)
    # swaps them, and attainment follows the value, not its side
    rng = random.Random(rate)
    combos = random.Random(f"{rate} replicable")
    unique_on_incomplete = 0
    for _ in range(25):
        viable = random_viable_market(rng, max_b=6, max_n=2)
        r = Fraction(rate)
        # the same grown spot, so the same generators, at the new rate
        spot = [s * (1 + viable.rate) / (1 + r) for s in viable.spot]
        mkt = market.OnePeriodMarket(rate=r, spot=tuple(spot), payoffs=viable.payoffs)
        char = characterize(mkt)
        random_payoff = V(*[rng.randint(-5, 5) for _ in range(mkt.outcomes)])
        for payoff in (random_payoff, replicable_payoff(combos, mkt)):
            values = [rationals.dot(payoff, g) / (1 + r) for g in char.generators]

            def attained(target):
                covered = set()
                for v, support in zip(values, char.generators.supports):
                    if v == target:
                        covered.update(support)
                return len(covered) == mkt.outcomes

            bounds = price_bounds(mkt, payoff)
            assert (bounds.low, bounds.high) == (min(values), max(values))
            assert bounds.low_attained_by_emm == attained(min(values))
            assert bounds.high_attained_by_emm == attained(max(values))
            unique_on_incomplete += len(char.generators) > 1 and bounds.low == bounds.high
    # the rule's one non-trivial case: a single price on an incomplete market
    assert unique_on_incomplete > 0


def test_attainability_matches_sampled_mixtures():
    # endpoint attained by an equivalent measure iff some admissible mixture
    # achieves it; search mixtures supported on the endpoint's generators
    rng = random.Random(31)
    combos = random.Random(32)
    unique_on_incomplete = 0
    for _ in range(30):
        mkt = random_viable_market(rng, max_b=5, max_n=2)
        char = characterize(mkt)
        discount = 1 + mkt.rate
        random_payoff = V(*[rng.randint(-4, 4) for _ in range(mkt.outcomes)])
        for payoff in (random_payoff, replicable_payoff(combos, mkt)):
            bounds = price_bounds(mkt, payoff)
            values = [
                sum(a * b for a, b in zip(payoff, g)) / discount
                for g in char.generators
            ]
            for target, flag in (
                (bounds.low, bounds.low_attained_by_emm),
                (bounds.high, bounds.high_attained_by_emm),
            ):
                achievers = [j for j, v in enumerate(values) if v == target]
                uniform = Fraction(1, len(achievers))
                weights = [
                    uniform if j in achievers else Fraction(0)
                    for j in range(len(char.generators))
                ]
                blended = mixture(char.generators, weights)
                # uniform over the achievers has the widest support any
                # achieving mixture can have, so it decides equivalence
                assert flag == all(x > 0 for x in blended)
            unique_on_incomplete += len(char.generators) > 1 and bounds.low == bounds.high
    assert unique_on_incomplete > 0


def test_completion_soundness_random():
    rng = random.Random(140)
    done = 0
    while done < 40:
        mkt = random_market(rng, max_b=5, max_n=3)
        char = characterize(mkt)
        if not char.emm_exists:
            continue
        done += 1
        plan = complete_market(mkt)
        ext = apply_completion(mkt, plan)
        assert is_complete(ext)
        assert is_arbitrage_free(ext)[0]
        sys = build_system(ext)
        sole = enumerate_generators(sys).generators
        assert len(sole) == 1


def greedy_completing_outcomes(mkt):
    """Oracle: add e_i, smallest i first, whenever it raises the augmented rank."""
    b = mkt.outcomes
    working = augmented_matrix(build_system(mkt))
    current = rank(working)
    full_rank = current == b
    picks = []
    for i in range(b):
        if current == b:
            break
        extended = working.with_rows([unit_vector(i, b)])
        new_rank = rank(extended)
        if new_rank > current:
            working, current = extended, new_rank
            picks.append(i)
    return tuple(picks), full_rank


def dependent_rows_market(rng):
    """Up to 8 outcomes; rows repeat, combine earlier rows, or are constant."""
    b = rng.randint(1, 8)
    rows = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        if rows and kind < 0.3:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.6:
            a, c = rng.randint(-3, 3), rng.randint(-3, 3)
            u, w = rng.choice(rows), rng.choice(rows)
            rows.append([a * x + c * y for x, y in zip(u, w)])
        elif kind < 0.7:
            rows.append([rng.randint(-3, 3)] * b)
        else:
            rows.append([rng.randint(-4, 4) for _ in range(b)])
    rhs = [rng.randint(-4, 4) for _ in rows]
    return market_from_system(rows, rhs, outcomes=b)


def assert_matches_greedy(mkt):
    picks, full_rank = greedy_completing_outcomes(mkt)
    char = characterize(mkt)
    assert char.completing_outcomes == picks
    assert char.complete == (char.emm_exists and full_rank)
    if char.emm_exists:
        plan = complete_market(mkt)
        assert plan.added_payoff_rows.entries == tuple(
            unit_vector(i, mkt.outcomes) for i in picks
        )


def test_completing_outcomes_match_greedy_on_dependent_rows():
    rng = random.Random(7301)
    for _ in range(300):
        assert_matches_greedy(dependent_rows_market(rng))


@pytest.mark.parametrize("seed", [411, 988, 140])
def test_completing_outcomes_match_greedy_on_random_markets(seed):
    rng = random.Random(seed)
    for _ in range(60):
        assert_matches_greedy(random_market(rng))


def test_characterize_eliminates_the_system_once_outside_the_face_walk(monkeypatch):
    # the system is reduced once, for the enumeration and the completion
    # alike; a face, if any were inspected, would be reduced on its own
    inside_faces = []
    real_face = geometry.face_intersection

    def face(sys, f):
        inside_faces.append(f)
        try:
            return real_face(sys, f)
        finally:
            inside_faces.pop()

    outside = []
    real_eliminate = rationals.eliminate

    def counting(rows, cols):
        if not inside_faces:
            outside.append(cols)
        return real_eliminate(rows, cols)

    monkeypatch.setattr(geometry, "face_intersection", face)
    for module in (rationals, market, geometry, analysis):
        if hasattr(module, "eliminate"):
            monkeypatch.setattr(module, "eliminate", counting)
    char = characterize(EX3)
    assert len(char.generators) > 0 and char.completing_outcomes
    assert outside == [EX3.outcomes + 1]


def fraction_mixture(gens, weights):
    """``mixture`` as it was, one Fraction product and ``+=`` per entry: the oracle."""
    if len(weights) != len(gens):
        raise InputError("one weight per generator required")
    out = [Fraction(0)] * gens.outcomes
    for w, g in zip(weights, gens.generators):
        for i, x in enumerate(g):
            out[i] += w * x
    return tuple(out)


@st.composite
def weighted_families(draw):
    b = draw(st.integers(1, 8))
    k = draw(st.integers(0, 10))
    gens = draw(st.lists(st.lists(SUMMANDS, min_size=b, max_size=b), min_size=k, max_size=k))
    weights = draw(st.lists(SUMMANDS, min_size=k, max_size=k))
    return GeneratorSet.of(b, tuple(map(tuple, gens))), weights


@settings(derandomize=True, max_examples=300, deadline=None)
@given(weighted_families())
def test_mixture_equals_fraction_by_fraction_sum(case):
    gens, weights = case
    got = mixture(gens, weights)
    assert all(type(x) is Fraction for x in got)
    assert got == fraction_mixture(gens, weights)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_systems())
def test_outcome_support_transposes_the_generator_supports(sys):
    char = characterize(market_from_system(sys.matrix, sys.rhs))
    assert char.outcome_support == tuple(
        tuple(j for j, g in enumerate(char.generators) if g[i] > 0)
        for i in range(sys.outcomes)
    )


@st.composite
def ray_path_cases(draw):
    """A ``random_system`` draw as a market, at a rate that may lie below -1.

    The draw is kept, or made degenerate (a repeated column, an outcome
    pinned to mass 0, columns reflected in pairs through the rhs) or
    inconsistent (a bond row asking for mass 2, so no generator).
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sys = random_system(rng, max_b=7, max_n=4)
    b = sys.outcomes
    rows = [list(r) for r in sys.matrix.entries]
    rhs = list(sys.rhs)
    kind = draw(st.sampled_from(["kept", "repeated", "pinned", "centred", "inconsistent"]))
    if kind == "repeated" and b >= 2:
        i, j = draw(st.permutations(range(b)))[:2]
        for row in rows:
            row[j] = row[i]
    elif kind == "pinned":
        i = draw(st.integers(0, b - 1))
        rows.append([int(k == i) for k in range(b)])
        rhs.append(0)
    elif kind == "centred":
        cols = [rhs] * (2 - b % 2)
        while len(cols) < b:
            a = [c + rng.randint(-6, 6) for c in rhs]
            cols += [a, [2 * c - x for c, x in zip(rhs, a)]]
        rows = [[col[i] for col in cols[:b]] for i in range(len(rhs))]
    elif kind == "inconsistent":
        rows.append([1] * b)
        rhs.append(2)
    rate = Fraction(draw(st.sampled_from(["0", "1/10", "-1/2", "-3/2", "-5", "7/3"])))
    mkt = market.market_from_system(rows, rhs, rate=rate, outcomes=b)
    return mkt, draw(st.lists(SMALL, min_size=b, max_size=b))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ray_path_cases())
def test_ray_paths_equal_their_fraction_oracles(case):
    # strings, witness, bounds and price map are read off the integer rays;
    # the Fraction vectors and the helpers kept as oracles must agree
    mkt, payoff = case
    char = characterize(mkt)
    strings = cli._generator_strings(char.generators)
    fractions = char.generators.generators
    assert strings == [[format_rational(x) for x in g] for g in fractions]
    assert char.witness == (mean_vector(fractions) if fractions else None)
    if not char.emm_exists:
        with pytest.raises(NotViableError):
            price_bounds(mkt, payoff)
        with pytest.raises(NotViableError):
            complete_market(mkt)
        return
    discount = 1 + mkt.rate
    values = [dot(payoff, g) for g in fractions]
    bounds = price_bounds(mkt, payoff)
    assert bounds == analysis.bounds_from_values(values, discount)
    discounted = [v / discount for v in values]
    assert (bounds.low, bounds.high) == (min(discounted), max(discounted))
    plan = complete_market(mkt)
    assert plan.price_map == tuple(
        tuple(g[i] / discount for g in fractions) for i in char.completing_outcomes
    )
    assert all(type(x) is Fraction for row in plan.price_map for x in row)
