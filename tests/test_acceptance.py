"""Acceptance suite: one test per criterion, exact equalities throughout.

Run ``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion; every assertion is an exact rational comparison, and the stated
runtime budgets are asserted with a monotonic clock.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from martpoly import (
    analyze_tree,
    apply_completion,
    brute_force_generators,
    build_system,
    characterize,
    complete_market,
    convex_hull_member,
    enumerate_generators,
    is_arbitrage_free,
    is_complete,
    kkl_backward_induction,
    kkl_build,
    kkl_completion_check,
    kkl_component_market,
    kkl_grid,
    kkl_node_weights,
    kkl_params,
    kkl_perturb_terminal,
    kkl_viability,
    make_market,
    market_from_system,
    mean_vector,
    price_bounds,
    put_terminal,
    system_from_rows,
    trinomial_completion_condition,
    trinomial_emms,
    trinomial_price_interval,
    vector,
    verify_measure,
)
from util import random_system, random_viable_trinomial


def V(*xs):
    return vector(xs)


@contextmanager
def criterion(number: int, description: str):
    started = time.monotonic()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"criterion {number:2d} ({description}): PASS [{elapsed:.2f}s]")


def test_criterion_01_no_solutions_in_simplex():
    with criterion(1, "empty generator set, not viable"):
        started = time.monotonic()
        sys = system_from_rows([[18, -6, -6, 75], [99, -33, -33, 291]], [15, 123])
        gens = enumerate_generators(sys)
        elapsed = time.monotonic() - started
        assert gens.generators == ()
        mkt = market_from_system(sys.matrix, sys.rhs)
        assert is_arbitrage_free(mkt)[0] is False
        assert elapsed < 1.0


def test_criterion_02_sole_vertex_not_equivalent():
    with criterion(2, "sole vertex generator, martingale but not equivalent"):
        sys = system_from_rows([[-3, 1, -15, 1], [-3, 1, -7, 1]], [-3, -3])
        gens = enumerate_generators(sys)
        assert gens.as_set() == {V(1, 0, 0, 0)}
        mkt = market_from_system(sys.matrix, sys.rhs)
        check = verify_measure(mkt, V(1, 0, 0, 0))
        assert check.is_martingale and not check.is_equivalent
        assert is_arbitrage_free(mkt)[0] is False


def test_criterion_03_edge_with_dead_outcomes():
    with criterion(3, "two vertex generators, outcomes 3 and 4 unreachable"):
        sys = system_from_rows([[-1, -1, -3, 3], [1, 1, -3, 3]], [-1, 1])
        gens = enumerate_generators(sys)
        assert gens.as_set() == {V(1, 0, 0, 0), V(0, 1, 0, 0)}
        char = characterize(market_from_system(sys.matrix, sys.rhs))
        assert char.outcome_support[2] == ()
        assert char.outcome_support[3] == ()
        assert not char.emm_exists


def test_criterion_04_completion_of_the_example_market():
    with criterion(4, "three generators, completion to a complete market"):
        mkt = market_from_system([[2, 0, 0, 0]], [1])
        gens = characterize(mkt).generators
        assert gens.generators == (
            V("1/2", "1/2", 0, 0),
            V("1/2", 0, "1/2", 0),
            V("1/2", 0, 0, "1/2"),
        )
        plan = complete_market(mkt, weights=["1/3", "1/3", "1/3"])
        assert plan.added_payoff_rows.entries == (V(0, 1, 0, 0), V(0, 0, 1, 0))
        extended = apply_completion(mkt, plan)
        ext_gens = characterize(extended).generators
        assert ext_gens.generators == (V("1/2", "1/6", "1/6", "1/6"),)
        assert is_arbitrage_free(extended)[0] and is_complete(extended)


def test_criterion_05_five_generators_affinely_dependent_but_minimal():
    with criterion(5, "five generators, affinely dependent, none redundant"):
        sys = system_from_rows(
            [[1, -1, -1, 1, 0, 0], [1, -3, -2, 0, -2, 0], [1, 1, 2, 0, 0, 2]],
            [0, -1, 1],
        )
        gens = enumerate_generators(sys).generators
        assert set(gens) == {
            V("1/2", "1/2", 0, 0, 0, 0),
            V(0, 0, "1/2", "1/2", 0, 0),
            V(0, 0, 0, 0, "1/2", "1/2"),
            V("1/3", 0, "1/3", 0, "1/3", 0),
            V(0, "1/3", 0, "1/3", 0, "1/3"),
        }
        pairs = [g for g in gens if len([x for x in g if x > 0]) == 2]
        triples = [g for g in gens if len([x for x in g if x > 0]) == 3]
        assert mean_vector(pairs) == mean_vector(triples)
        for i, g in enumerate(gens):
            others = gens[:i] + gens[i + 1 :]
            assert not convex_hull_member(g, others)


def test_criterion_06_oracle_equivalence_100_systems():
    with criterion(6, "staged enumeration equals brute force on 100 systems"):
        started = time.monotonic()
        rng = random.Random(20240617)
        for _ in range(100):
            sys = random_system(rng, max_b=7, max_n=4, combination_rhs_only=True)
            oracle = brute_force_generators(sys).as_set()
            assert enumerate_generators(sys).as_set() == oracle
        assert time.monotonic() - started < 60.0


def test_criterion_07_trinomial_closed_forms_100_models():
    with criterion(7, "closed-form measures equal the generic pipeline"):
        rng = random.Random(8991)
        params = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        for _ in range(100):
            fm = random_viable_trinomial(rng)
            mkt = fm.market()
            fam = trinomial_emms(fm)
            gens = enumerate_generators(build_system(mkt))
            assert set(fam.endpoints) == gens.as_set()
            for p in params:
                check = verify_measure(mkt, fam.measure(p))
                assert check.is_martingale and check.is_equivalent
            payoff = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
            assert trinomial_price_interval(payoff, fm) == price_bounds(mkt, payoff)


def test_criterion_08_completion_condition_100_cases():
    with criterion(8, "second-difference test equals extended-market rank"):
        rng = random.Random(31416)
        for _ in range(100):
            fm = random_viable_trinomial(rng)
            payoff = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)]
            fam = trinomial_emms(fm)
            p = Fraction(rng.randint(1, 15), 16)
            measure = fam.measure(p)
            price = sum(c * q for c, q in zip(payoff, measure)) / (1 + fm.rate)
            extended = make_market(
                rate=fm.rate,
                spot=[fm.spot, price],
                payoffs=[[f * fm.spot for f in fm.factors], payoff],
            )
            assert trinomial_completion_condition(payoff, fm) == is_complete(extended)
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            affine = [a * f + b for f in fm.factors]
            assert not trinomial_completion_condition(affine, fm)


def test_criterion_09_kkl_pipeline():
    with criterion(9, "lattice viability, completion failure, perturbation"):
        started = time.monotonic()
        horizon, rate = Fraction(1), Fraction(1, 10)
        s0 = 2
        n = next(
            m for m in range(1, 1000) if horizon * abs(rate) * (s0 + m - 1) < m
        )
        assert n == 1
        params = kkl_params(s0=s0, lam="1/8", eta="1/8", rate=rate,
                            horizon=horizon, steps=n)
        assert kkl_viability(params)
        report = analyze_tree(kkl_build(params))
        assert report.viable
        assert all(r.viable for r in report.components)
        # the grid at step n-1 reaches k >= 2, so the put cannot complete
        assert any(k >= 2 for k in kkl_grid(params)[n - 1])
        weights = kkl_node_weights(params)
        surface = kkl_backward_induction(weights, put_terminal(params))
        assert kkl_completion_check(surface) != ()
        result = kkl_perturb_terminal(weights, Fraction(1, 100), seed=7)
        assert kkl_completion_check(result.surface) == ()
        base = put_terminal(params)
        assert max(abs(result.terminal[k] - base[k]) for k in base) < Fraction(1, 100)

        # the same pipeline at twenty steps, on the state grid
        big = kkl_params(s0=s0, lam="1/8", eta="1/8", rate=rate,
                         horizon=horizon, steps=20)
        assert kkl_viability(big)
        branching = sorted(
            {k for t, level in enumerate(kkl_grid(big)[:-1]) for k in level}
        )
        for k in branching:
            assert is_arbitrage_free(kkl_component_market(big, k))[0]
        big_weights = kkl_node_weights(big)
        big_surface = kkl_backward_induction(big_weights, put_terminal(big))
        assert any(k >= 2 for k in kkl_grid(big)[big.steps - 1])
        assert kkl_completion_check(big_surface) != ()
        big_result = kkl_perturb_terminal(big_weights, Fraction(1, 100), seed=7)
        assert kkl_completion_check(big_result.surface) == ()
        big_base = put_terminal(big)
        assert max(
            abs(big_result.terminal[k] - big_base[k]) for k in big_base
        ) < Fraction(1, 100)
        assert time.monotonic() - started < 30.0


def test_criterion_10_property_suite():
    with criterion(10, "scaling, redundancy, sandwich, induction linearity"):
        rng = random.Random(5551)

        # positive rescaling of one asset changes nothing observable
        done = 0
        while done < 50:
            sys = random_system(rng, max_b=6, max_n=3)
            if sys.matrix.rows == 0:
                continue
            done += 1
            mkt = market_from_system(sys.matrix, sys.rhs)
            i = rng.randrange(mkt.assets)
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled = make_market(
                rate=mkt.rate,
                spot=[s * lam if j == i else s for j, s in enumerate(mkt.spot)],
                payoffs=[
                    [x * lam for x in row] if j == i else row
                    for j, row in enumerate(mkt.payoffs.entries)
                ],
            )
            assert characterize(scaled).generators == characterize(mkt).generators
            assert is_arbitrage_free(scaled)[0] == is_arbitrage_free(mkt)[0]
            assert is_complete(scaled) == is_complete(mkt)
            if characterize(mkt).emm_exists:
                payoff = [rng.randint(-5, 5) for _ in range(mkt.outcomes)]
                assert price_bounds(scaled, payoff) == price_bounds(mkt, payoff)

        # a consistently priced redundant asset changes no generator
        done = 0
        while done < 50:
            sys = random_system(rng, max_b=5, max_n=3)
            mkt = market_from_system(sys.matrix, sys.rhs)
            char = characterize(mkt)
            if not char.generators:
                continue
            done += 1
            mu0 = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            mus = [Fraction(rng.randint(-2, 2)) for _ in range(mkt.assets)]
            row = [mu0] * mkt.outcomes
            for mu, payoff_row in zip(mus, mkt.payoffs.entries):
                row = [x + mu * y for x, y in zip(row, payoff_row)]
            anchor = rng.choice(char.generators.generators)
            price = sum(x * q for x, q in zip(row, anchor)) / (1 + mkt.rate)
            grown = make_market(
                rate=mkt.rate,
                spot=list(mkt.spot) + [price],
                payoffs=[list(r) for r in mkt.payoffs.entries] + [row],
            )
            assert characterize(grown).generators == char.generators

        # every generator prices every payoff inside the bounds
        done = 0
        while done < 50:
            sys = random_system(rng, max_b=6, max_n=3)
            mkt = market_from_system(sys.matrix, sys.rhs)
            char = characterize(mkt)
            if not char.emm_exists:
                continue
            done += 1
            payoff = V(*[rng.randint(-6, 6) for _ in range(mkt.outcomes)])
            bounds = price_bounds(mkt, payoff)
            discount = 1 + mkt.rate
            values = [
                sum(a * b for a, b in zip(payoff, g)) / discount
                for g in char.generators
            ]
            assert all(bounds.low <= v <= bounds.high for v in values)
            assert bounds.low in values and bounds.high in values

        # backward induction is linear and discounts constants exactly
        params = kkl_params(s0=2, lam="1/16", eta="1/16", rate="1/10",
                            horizon=1, steps=3)
        states = kkl_grid(params)[-1]
        weights = kkl_node_weights(params)
        ones_surface = kkl_backward_induction(
            weights, {k: Fraction(1) for k in states}
        )
        growth = 1 + params.step_rate
        for (t, _k), v in ones_surface.values.items():
            assert v == growth ** (t - params.steps)
        for _ in range(50):
            t1 = {k: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for k in states}
            t2 = {k: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for k in states}
            a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            b = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            s1 = kkl_backward_induction(weights, t1)
            s2 = kkl_backward_induction(weights, t2)
            s3 = kkl_backward_induction(
                weights, {k: a * t1[k] + b * t2[k] for k in states}
            )
            for key in s3.values:
                assert s3.values[key] == a * s1.values[key] + b * s2.values[key]
