"""Factor-model closed forms and the birth-death lattice."""

import io
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martpoly import (
    InputError,
    LimitExceededError,
    NotViableError,
    analyze_tree,
    build_system,
    characterize,
    components,
    enumerate_generators,
    factor_completeness,
    factor_viability,
    is_arbitrage_free,
    is_complete,
    kkl_backward_induction,
    kkl_build,
    kkl_completion_check,
    kkl_component_market,
    kkl_grid,
    kkl_node_emm,
    kkl_node_weights,
    kkl_params,
    kkl_perturb_terminal,
    kkl_transition,
    kkl_viability,
    make_factor_model,
    make_market,
    price_bounds,
    put_terminal,
    trinomial_completion_condition,
    trinomial_emms,
    trinomial_price_interval,
    verify_measure,
    write_surface_csv,
)
from martpoly import cli, models
from martpoly.models import EmmParameter, LatticeValues, NodeWeights, kkl_grid_size
from martpoly.rationals import RationalLike, rat
from util import random_viable_trinomial, refuses


def test_factor_viability_inside():
    assert factor_viability(make_factor_model(["9/10", "1", "6/5"], rate=0))


def test_factor_viability_outside():
    assert not factor_viability(make_factor_model(["11/10", "6/5"], rate=0))


def test_factor_viability_boundary_excluded():
    assert not factor_viability(make_factor_model(["1/2", "2"], rate=1))


def test_factor_viability_single_branch_degenerates_to_equality():
    assert factor_viability(make_factor_model(["1"], rate=0))
    assert not factor_viability(make_factor_model(["2"], rate=0))


def test_factor_completeness():
    assert factor_completeness(make_factor_model(["1/2", "2"], rate=0))
    assert not factor_completeness(make_factor_model(["1/2", "1", "2"], rate=0))
    assert factor_completeness(make_factor_model(["1"], rate=0))


def test_factor_model_validation():
    with pytest.raises(InputError):
        make_factor_model(["2", "1"])
    with pytest.raises(InputError):
        make_factor_model(["-1/2", "1"])
    with pytest.raises(InputError):
        make_factor_model(["1", "2"], spot=0)
    make_factor_model(["0", "1", "2"])  # zero down factor is legal


def test_trinomial_case_equal():
    fam = trinomial_emms(make_factor_model(["1/2", "1", "2"], rate=0))
    assert fam.case == "f2_equal"
    assert fam.endpoints == (
        (Fraction(2, 3), Fraction(0), Fraction(1, 3)),
        (Fraction(0), Fraction(1), Fraction(0)),
    )
    assert fam.measure("1/2") == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))


def test_trinomial_case_below():
    fam = trinomial_emms(make_factor_model(["1/2", "3/4", "2"], rate=0))
    assert fam.case == "f2_below"
    assert fam.endpoints == (
        (Fraction(2, 3), Fraction(0), Fraction(1, 3)),
        (Fraction(0), Fraction(4, 5), Fraction(1, 5)),
    )


def test_trinomial_case_above():
    fam = trinomial_emms(make_factor_model(["1/2", "3/2", "2"], rate=0))
    assert fam.case == "f2_above"
    assert fam.endpoints[1] == (Fraction(1, 2), Fraction(1, 2), Fraction(0))


def test_trinomial_requires_viability():
    with pytest.raises(NotViableError):
        trinomial_emms(make_factor_model(["2", "3", "4"], rate=0))


def test_trinomial_measure_parameter_range():
    fam = trinomial_emms(make_factor_model(["1/2", "1", "2"], rate=0))
    with pytest.raises(InputError):
        fam.measure(0)
    with pytest.raises(InputError):
        fam.measure(1)


def test_trinomial_endpoints_match_generic_generators():
    rng = random.Random(300)
    for _ in range(60):
        fm = random_viable_trinomial(rng)
        fam = trinomial_emms(fm)
        gens = enumerate_generators(build_system(fm.market()))
        assert set(fam.endpoints) == gens.as_set()
        mkt = fm.market()
        for g in fam.endpoints:
            check = verify_measure(mkt, g)
            assert check.is_martingale and not check.is_equivalent
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            check = verify_measure(mkt, fam.measure(p))
            assert check.is_martingale and check.is_equivalent


def test_completion_condition_examples():
    fm = make_factor_model(["1/2", "1", "2"], rate=0)
    assert trinomial_completion_condition([1, 0, 0], fm)
    assert trinomial_completion_condition([0, 0, 1], fm)
    assert not trinomial_completion_condition([1, 1, 1], fm)


def test_completion_condition_affine_payoffs_fail():
    rng = random.Random(17)
    for _ in range(50):
        fm = random_viable_trinomial(rng)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        payoff = [a * f + b for f in fm.factors]
        assert not trinomial_completion_condition(payoff, fm)


def test_completion_condition_matches_extended_market():
    rng = random.Random(18)
    for _ in range(60):
        fm = random_viable_trinomial(rng)
        payoff = [Fraction(rng.randint(-6, 6)) for _ in range(3)]
        fam = trinomial_emms(fm)
        alpha = Fraction(rng.randint(1, 15), 16)
        measure = fam.measure(alpha)
        price = sum(c * q for c, q in zip(payoff, measure)) / (1 + fm.rate)
        stock_row = [f * fm.spot for f in fm.factors]
        extended = make_market(
            rate=fm.rate,
            spot=[fm.spot, price],
            payoffs=[stock_row, payoff],
        )
        assert trinomial_completion_condition(payoff, fm) == is_complete(extended)


def test_price_interval_digital():
    fm = make_factor_model(["1/2", "1", "2"], rate=0)
    bounds = trinomial_price_interval([0, 0, 1], fm)
    assert (bounds.low, bounds.high) == (Fraction(0), Fraction(1, 3))
    assert not bounds.low_attained_by_emm and not bounds.high_attained_by_emm


def test_price_interval_replicable_and_bond():
    fm = make_factor_model(["1/2", "1", "2"], rate="1/10", spot=2)
    stock = [f * fm.spot for f in fm.factors]
    bounds = trinomial_price_interval(stock, fm)
    assert bounds.low == bounds.high == fm.spot
    assert bounds.low_attained_by_emm and bounds.high_attained_by_emm
    bond = trinomial_price_interval([1, 1, 1], fm)
    assert bond.low == bond.high == Fraction(10, 11)


def test_price_interval_matches_generic_bounds():
    rng = random.Random(19)
    combos = random.Random(20)
    for _ in range(60):
        fm = random_viable_trinomial(rng)
        payoff = [Fraction(rng.randint(-6, 6)) for _ in range(3)]
        assert trinomial_price_interval(payoff, fm) == price_bounds(
            fm.market(), payoff
        )
        # affine in the factors (bond plus stock): replicable, one price
        bond, units = combos.randint(-3, 3), combos.randint(-3, 3)
        replicable = [bond + units * f * fm.spot for f in fm.factors]
        bounds = trinomial_price_interval(replicable, fm)
        assert bounds.low == bounds.high
        assert bounds == price_bounds(fm.market(), replicable)


# ---------------------------------------------------------------------------
# birth-death lattice


def test_kkl_grid_smallest_case():
    params = kkl_params(s0=1, lam="1/4", eta="1/4", rate=0, horizon=1, steps=1)
    assert kkl_grid(params) == ((1,), (0, 1, 2))
    assert kkl_transition(params, 1) == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))


def test_kkl_grid_absorbs_at_zero():
    params = kkl_params(s0=1, lam="1/16", eta="1/16", rate=0, horizon=1, steps=3)
    levels = kkl_grid(params)
    assert levels[0] == (1,)
    assert levels[1] == (0, 1, 2)
    assert levels[2] == (0, 1, 2, 3)
    assert kkl_transition(params, 0) == (Fraction(1),)


def simulated_kkl_grid(s0: int, steps: int) -> tuple[tuple[int, ...], ...]:
    """Oracle: the reachable states, one step at a time; zero absorbs."""
    levels: list[tuple[int, ...]] = [(s0,)]
    for _ in range(steps):
        nxt: set[int] = set()
        for k in levels[-1]:
            if k == 0:
                nxt.add(0)
            else:
                nxt.update((k - 1, k, k + 1))
        levels.append(tuple(sorted(nxt)))
    return tuple(levels)


def test_kkl_grid_matches_step_by_step_simulation():
    for s0 in range(1, 12):
        for steps in range(1, 40):
            rate = Fraction(1, 4 * (s0 + steps))
            params = kkl_params(s0=s0, lam=rate, eta=rate, steps=steps)
            assert kkl_grid(params) == simulated_kkl_grid(s0, steps), (s0, steps)


def test_kkl_params_validation():
    with pytest.raises(InputError):
        kkl_params(s0=0, lam="1/4", eta="1/4")
    with pytest.raises(InputError):
        kkl_params(s0=1, lam="0", eta="1/4")
    with pytest.raises(InputError):
        # (lam + eta) * (s0 + n - 1) * dt = 1: stay probability hits zero
        kkl_params(s0=2, lam="1/4", eta="1/4", horizon=1, steps=1)


def test_kkl_build_two_steps():
    params = kkl_params(s0=2, lam="1/8", eta="1/8", rate=0, horizon=1, steps=2)
    tm = kkl_build(params)
    assert tm.tree.horizon == 2
    prices = [tm.prices[n.id][0] for n in tm.tree.leaves()]
    assert max(prices) == 4
    for comp in components(tm):
        assert comp.market.probabilities is not None
        assert all(0 < p < 1 or p == 1 for p in comp.market.probabilities)


def test_kkl_build_absorbing_node_single_child():
    params = kkl_params(s0=1, lam="1/16", eta="1/16", rate=0, horizon=1, steps=2)
    tm = kkl_build(params)
    zero_nodes = [
        n for n in tm.tree.internal_nodes() if tm.prices[n.id][0] == 0
    ]
    assert zero_nodes and all(len(n.children) == 1 for n in zero_nodes)


def test_kkl_build_node_guard(monkeypatch):
    def no_node(*args, **kwargs):
        raise AssertionError("a tree node was built before the guard")

    monkeypatch.setattr(models, "TreeNode", no_node)
    params = kkl_params(s0=1, lam="1/64", eta="1/64", rate=0, horizon=1, steps=6)
    with pytest.raises(LimitExceededError):
        kkl_build(params, max_nodes=10)
    # path nodes per step from s0 = 1: 1, 3, 7, 17, 43, ...; the running
    # total passes the default 100,000 at step 12, so steps 13-20 are not counted
    with pytest.raises(
        LimitExceededError,
        match=r"reaches 234937 nodes by step 12, over the limit of 100000 nodes",
    ):
        kkl_build(kkl_params(1, "1/64", "1/64", steps=20))


def test_kkl_build_node_limit_is_inclusive(monkeypatch):
    params = kkl_params(s0=1, lam="1/64", eta="1/64", rate=0, horizon=1, steps=2)
    assert len(kkl_build(params, max_nodes=11).tree.nodes) == 1 + 3 + 7
    monkeypatch.setattr(models, "TreeNode", None)
    with pytest.raises(
        LimitExceededError, match=r"reaches 11 nodes by step 2, over the limit of 10 nodes"
    ):
        kkl_build(params, max_nodes=10)


def test_kkl_viability():
    assert kkl_viability(kkl_params(s0=5, lam="1/64", eta="1/64", rate=0, steps=2))
    assert not kkl_viability(
        kkl_params(s0=1, lam="1/4", eta="1/4", rate=1, horizon=1, steps=1)
    )
    assert kkl_viability(
        kkl_params(s0=1, lam="1/8", eta="1/8", rate="1/2", horizon=1, steps=2)
    )


def test_kkl_viability_matches_component_verdicts():
    for rate in ("0", "1/10", "-1/10", "2"):
        params_ok = True
        try:
            params = kkl_params(
                s0=2, lam="1/16", eta="1/16", rate=rate, horizon=1, steps=3
            )
        except InputError:
            params_ok = False
        if not params_ok:
            continue
        states = sorted({k for level in kkl_grid(params) for k in level})
        viable = all(
            is_arbitrage_free(kkl_component_market(params, k))[0]
            for k in states[:-1]  # terminal-only top state never branches
        )
        assert viable == kkl_viability(params)


def test_kkl_node_emm_matches_closed_form():
    params = kkl_params(s0=1, lam="1/4", eta="1/4", rate=0, horizon=1, steps=1)
    assert kkl_node_emm(params, 1, Fraction(1, 2)) == (
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 4),
    )


def test_backward_induction_constant_is_martingale():
    params = kkl_params(s0=2, lam="1/16", eta="1/16", rate=0, horizon=1, steps=3)
    terminal = {k: Fraction(1) for k in kkl_grid(params)[-1]}
    surface = kkl_backward_induction(params, terminal)
    assert all(v == 1 for v in surface.values.values())


def test_backward_induction_discounts_constants():
    params = kkl_params(s0=2, lam="1/16", eta="1/16", rate="1/5", horizon=1, steps=3)
    terminal = {k: Fraction(1) for k in kkl_grid(params)[-1]}
    surface = kkl_backward_induction(params, terminal)
    growth = 1 + params.step_rate
    for (t, k), v in surface.values.items():
        assert v == growth ** (t - params.steps)


def test_backward_induction_put_worked_example():
    params = kkl_params(s0=1, lam="1/4", eta="1/4", rate=0, horizon=1, steps=1)
    surface = kkl_backward_induction(params, put_terminal(params), Fraction(1, 2))
    assert surface.value(0, 1) == Fraction(1, 4)


def test_backward_induction_validates_inputs():
    params = kkl_params(s0=1, lam="1/4", eta="1/4", rate=0, horizon=1, steps=1)
    with pytest.raises(InputError):
        kkl_backward_induction(params, {0: 1}, Fraction(1, 2))  # missing states
    with pytest.raises(InputError):
        kkl_backward_induction(params, put_terminal(params), Fraction(2))
    bad = kkl_params(s0=1, lam="1/8", eta="1/8", rate=2, horizon=1, steps=1)
    with pytest.raises(NotViableError):
        kkl_backward_induction(bad, put_terminal(bad))


def test_backward_induction_per_node_parameter():
    params = kkl_params(s0=2, lam="1/16", eta="1/16", rate=0, horizon=1, steps=2)
    surface = kkl_backward_induction(
        params, put_terminal(params), lambda t, k: Fraction(1 + (t + k) % 3, 4)
    )
    assert (0, 2) in surface.values


def test_backward_induction_linearity():
    rng = random.Random(23)
    params = kkl_params(s0=2, lam="1/16", eta="1/16", rate="1/10", horizon=1, steps=3)
    states = kkl_grid(params)[-1]
    for _ in range(50):
        t1 = {k: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for k in states}
        t2 = {k: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for k in states}
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        combo = {k: a * t1[k] + b * t2[k] for k in states}
        s1 = kkl_backward_induction(params, t1)
        s2 = kkl_backward_induction(params, t2)
        s3 = kkl_backward_induction(params, combo)
        for key in s3.values:
            assert s3.values[key] == a * s1.values[key] + b * s2.values[key]


def test_node_measures_normalized_and_positive():
    params = kkl_params(s0=3, lam="1/32", eta="1/16", rate="1/10", horizon=1, steps=4)
    top = params.s0 + params.steps - 1
    for k in range(1, top + 1):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            q = kkl_node_emm(params, k, p)
            assert sum(q) == 1
            assert all(x > 0 for x in q)


def test_put_surface_fails_completion_above_state_two():
    params = kkl_params(s0=2, lam="1/16", eta="1/16", rate=0, horizon=1, steps=2)
    surface = kkl_backward_induction(params, put_terminal(params))
    bad = kkl_completion_check(surface)
    assert bad
    assert all(k >= 2 for (t, k) in bad)


def test_quadratic_terminal_completes_everywhere():
    params = kkl_params(s0=2, lam="1/16", eta="1/16", rate=0, horizon=1, steps=2)
    terminal = {k: Fraction(k * k) for k in kkl_grid(params)[-1]}
    surface = kkl_backward_induction(params, terminal)
    assert kkl_completion_check(surface) == ()


def test_affine_terminal_fails_at_final_step():
    params = kkl_params(s0=3, lam="1/16", eta="1/16", rate=0, horizon=1, steps=2)
    terminal = {k: Fraction(2 * k + 5) for k in kkl_grid(params)[-1]}
    surface = kkl_backward_induction(params, terminal)
    bad = kkl_completion_check(surface)
    last = [(t, k) for (t, k) in bad if t == params.steps - 1]
    interior = [
        k for k in kkl_grid(params)[params.steps - 1] if k >= 1
    ]
    assert sorted(k for (_, k) in last) == interior


def test_perturbation_completes_and_stays_close():
    params = kkl_params(s0=2, lam="1/16", eta="1/16", rate="1/10", horizon=1, steps=3)
    eps = Fraction(1, 100)
    result = kkl_perturb_terminal(params, eps, seed=7)
    assert kkl_completion_check(result.surface) == ()
    base = put_terminal(params)
    assert max(abs(result.terminal[k] - base[k]) for k in base) < eps


def test_perturbation_single_interior_node():
    params = kkl_params(s0=1, lam="1/4", eta="1/4", rate=0, horizon=1, steps=1)
    result = kkl_perturb_terminal(params, Fraction(1, 2), seed=3)
    assert kkl_completion_check(result.surface) == ()


def test_perturbation_deterministic_for_fixed_seed():
    params = kkl_params(s0=2, lam="1/16", eta="1/16", rate=0, horizon=1, steps=2)
    a = kkl_perturb_terminal(params, Fraction(1, 100), seed=11)
    b = kkl_perturb_terminal(params, Fraction(1, 100), seed=11)
    assert a.terminal == b.terminal
    c = kkl_perturb_terminal(params, Fraction(1, 100), seed=12)
    assert c.terminal != a.terminal


def test_perturbation_rejects_bad_epsilon():
    params = kkl_params(s0=1, lam="1/4", eta="1/4", rate=0, horizon=1, steps=1)
    with pytest.raises(InputError):
        kkl_perturb_terminal(params, 0, seed=1)


def test_kkl_tree_pipeline_agrees_with_state_markets():
    # from s0 = 1 the absorbed state 0 branches at steps 1 and 2
    for s0, steps in [(2, 2), (1, 3)]:
        params = kkl_params(s0=s0, lam="1/8", eta="1/8", rate="1/10", horizon=1, steps=steps)
        report = analyze_tree(kkl_build(params))
        assert report.viable == kkl_viability(params)
        assert not report.complete  # single asset, trinomial nodes
        states = set()
        for comp_report in report.components:
            k = int(comp_report.component.market.spot[0])
            states.add(k)
            state_market = kkl_component_market(params, k)
            assert state_market == comp_report.component.market
            assert characterize(state_market).generators == (
                comp_report.characterization.generators
            )
        assert (0 in states) == (s0 == 1)


def test_kkl_grid_size_matches_built_grid():
    for s0 in range(1, 12):
        for steps in range(1, 40):
            rate = Fraction(1, 4 * (s0 + steps))
            levels = kkl_grid(kkl_params(s0=s0, lam=rate, eta=rate, steps=steps))
            assert kkl_grid_size(s0, steps) == sum(map(len, levels)), (s0, steps)


def test_kkl_grid_refuses_a_huge_lattice_before_building_it(monkeypatch):
    # valid and viable, but about 5 * 10^11 states
    params = kkl_params(s0=1, lam="1/8", eta="1/8", steps=10**6)
    assert kkl_viability(params)

    def no_range(*args):
        raise AssertionError("the grid was built before the guard")

    monkeypatch.setattr(models, "range", no_range, raising=False)
    with pytest.raises(LimitExceededError) as exc:
        kkl_grid(params)
    message = str(exc.value)
    assert "500002500001 states" in message
    assert f"limit of {models.MAX_GRID_STATES} states" in message
    with pytest.raises(LimitExceededError):
        put_terminal(params)
    with pytest.raises(LimitExceededError):
        kkl_backward_induction(params, {})


def test_kkl_grid_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(models, "MAX_GRID_STATES", kkl_grid_size(2, 4))
    rate = Fraction(1, 32)
    assert len(kkl_grid(kkl_params(s0=2, lam=rate, eta=rate, steps=4))) == 5
    with pytest.raises(LimitExceededError):
        kkl_grid(kkl_params(s0=2, lam=rate, eta=rate, steps=5))


def test_kkl_grid_limit_admits_the_reference_lattice():
    # the 200-step lattice that benchmarks/run.py --reference prices
    assert kkl_grid_size(2, 200) <= models.MAX_GRID_STATES


def put_scale_bits(params, emm_p=Fraction(1, 2)) -> int:
    """Bits of D^steps for the put on ``params``, read from the guard's message."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(models, "_max_scale_bits", lambda: 1)
        with pytest.raises(LimitExceededError) as exc:
            kkl_backward_induction(params, put_terminal(params), emm_p)
    return int(re.search(r"a (\d+)-bit scale", str(exc.value))[1])


def test_max_scale_bits_follow_the_interpreter_limit(monkeypatch):
    # 999, the largest 3-digit integer, has 10 bits
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 3)
    assert models._max_scale_bits() == 20
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    assert models._max_scale_bits() == 2 * 14285
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert models._max_scale_bits() == 0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(0, 40),
    st.sampled_from(["1/10", "1/3", "-1/2", "2/3", "3/7000", "1e-30"]),
    st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(3, 5), Fraction(683, 729)]),
)
def test_put_root_keeps_over_half_the_bits_of_its_scale(s0, extra, rate, emm_p):
    # why the guard allows twice the printable bits: past a few hundred bits
    # the reduced root keeps most of its scale (small lattices can cancel
    # more: from s0 = 1, 2 steps at rate -1/2 and measure 1/3 price the put at 1)
    params = kkl_params(s0, "1/8192", "1/8192", rate, steps=s0 + extra)
    if not kkl_viability(params):
        return
    scale_bits = put_scale_bits(params, emm_p)
    if scale_bits < 200:
        return
    root = kkl_backward_induction(params, put_terminal(params), emm_p).value(0, s0)
    assert 2 * root.denominator.bit_length() > scale_bits


def test_kkl_value_size_guard_refuses_before_any_layer(monkeypatch):
    def no_layer(*args):
        raise AssertionError("a lattice layer was built before the guard")

    # the layer loop is the induction's only use of enumerate
    monkeypatch.setattr(models, "enumerate", no_layer, raising=False)
    small = kkl_params(s0=1, lam="1/64", eta="1/64", steps=2)
    with pytest.raises(AssertionError):
        kkl_backward_induction(small, put_terminal(small))
    params = kkl_params(s0=1, lam="1/64", eta="1/64", rate="1e-4000", steps=20)
    limit = models._max_scale_bits()
    with pytest.raises(
        LimitExceededError,
        match=rf"over 20 steps need a 265881-bit scale, over the limit of {limit} bits",
    ):
        kkl_backward_induction(params, put_terminal(params))
    with pytest.raises(LimitExceededError):
        kkl_perturb_terminal(params, "1/100", 0)


def test_kkl_value_size_limit_is_inclusive(monkeypatch):
    params = kkl_params(s0=2, lam="1/8", eta="1/8", rate="1/10", steps=4)
    put = put_terminal(params)
    expected = kkl_backward_induction(params, put).value(0, 2)
    bits = put_scale_bits(params)
    monkeypatch.setattr(models, "_max_scale_bits", lambda: bits)
    assert kkl_backward_induction(params, put).value(0, 2) == expected
    # a perturbed terminal's own denominators do not count against the limit
    kkl_perturb_terminal(params, "1/100", 0)
    monkeypatch.setattr(models, "_max_scale_bits", lambda: bits - 1)
    with pytest.raises(LimitExceededError, match=f"a {bits}-bit scale"):
        kkl_backward_induction(params, put)


def test_kkl_value_size_guard_spares_a_zero_terminal():
    # from s0 = 30, 20 steps never reach 0, so the put is 0 on every state
    params = kkl_params(s0=30, lam="1/1024", eta="1/1024", rate="1e-4000", steps=20)
    surface = kkl_backward_induction(params, put_terminal(params))
    assert surface.value(0, 30) == 0 and surface.value(20, 50) == 0


def test_kkl_value_size_guard_admits_the_reference_and_benchmark_lattices():
    # the --reference lattice, and the widest grid from s0 = 1 at two rates
    assert put_scale_bits(kkl_params(2, "1/8", "1/8", "1/10", steps=200)) == 2594
    assert put_scale_bits(kkl_params(1, "1/8", "1/8", "1/10", steps=509)) == 7286
    assert put_scale_bits(kkl_params(1, "1/8", "1/8", "7/1000", steps=509)) == 10668
    # the benchmark's 100-step lattices, at their widest rate and measure
    wide = kkl_params(3, "1/32", "1/32", "9/64", steps=100)
    assert put_scale_bits(wide, Fraction(7, 8)) == 1665
    # README's root too long to print is priced, and fails when it is printed
    readme = kkl_params(2, "1/8", "1/8", "1e-30", steps=200)
    assert put_scale_bits(readme) == 21861 <= models._max_scale_bits()


# ---------------------------------------------------------------------------
# integer layers against the Fraction recursion they replaced


@dataclass(frozen=True)
class FractionSurface:
    steps: int
    values: dict


def fraction_backward_induction(
    params, terminal: Mapping[int, RationalLike], emm_p: EmmParameter = Fraction(1, 2)
) -> FractionSurface:
    """Oracle: the Fraction recursion that the integer layers replaced."""
    if not kkl_viability(params):
        raise NotViableError(
            "no equivalent node measures: horizon * |rate| * (s0 + steps - 1) >= steps"
        )
    levels = kkl_grid(params)
    values: dict[tuple[int, int], Fraction] = {}
    for k in levels[-1]:
        if k not in terminal:
            raise InputError(f"terminal value missing for state {k}")
        values[(params.steps, k)] = rat(terminal[k])

    fixed = None if callable(emm_p) else rat(emm_p)

    discount = 1 / (1 + params.step_rate)
    measure_cache: dict = {}
    for t in reversed(range(params.steps)):
        for k in levels[t]:
            if k == 0:
                values[(t, 0)] = discount * values[(t + 1, 0)]
                continue
            p = fixed if fixed is not None else rat(emm_p(t, k))
            key = (k, p)
            q = measure_cache.get(key)
            if q is None:
                q = kkl_node_emm(params, k, p)
                measure_cache[key] = q
            values[(t, k)] = discount * (
                q[0] * values[(t + 1, k - 1)]
                + q[1] * values[(t + 1, k)]
                + q[2] * values[(t + 1, k + 1)]
            )
    return FractionSurface(steps=params.steps, values=values)


def fraction_completion_check(surface: FractionSurface) -> tuple[tuple[int, int], ...]:
    """Oracle: the Fraction second differences that the integer test replaced."""
    bad: list[tuple[int, int]] = []
    for (t, k) in sorted(surface.values):
        if t >= surface.steps or k < 1:
            continue
        second = (
            surface.values[(t + 1, k - 1)]
            - 2 * surface.values[(t + 1, k)]
            + surface.values[(t + 1, k + 1)]
        )
        if second == 0:
            bad.append((t, k))
    return tuple(bad)


def assert_surfaces_agree(params, terminal, emm_p):
    surface = kkl_backward_induction(params, terminal, emm_p)
    oracle = fraction_backward_induction(params, terminal, emm_p)
    assert len(surface.values) == len(oracle.values)
    assert sorted(surface.values) == sorted(oracle.values)
    for key, expected in oracle.values.items():
        value = surface.values[key]
        assert type(value) is Fraction and value == expected, key
    assert kkl_completion_check(surface) == fraction_completion_check(oracle)
    return surface


@st.composite
def lattices(draw):
    """Valid viable lattices: intensities and rate drawn inside their bounds."""
    s0 = draw(st.integers(1, 6))
    steps = draw(st.integers(1, 40))
    horizon = Fraction(draw(st.integers(1, 8)), draw(st.integers(1, 4)))
    top = s0 + steps - 1
    # (lam + eta) * top * horizon / steps = u < 1 keeps every probability in (0, 1)
    u = Fraction(draw(st.integers(1, 31)), 32)
    total = u * steps / (top * horizon)
    split = Fraction(draw(st.integers(1, 7)), 8)
    # horizon * |rate| * top < steps keeps every node measure equivalent
    rate = (
        draw(st.sampled_from([-1, 0, 1]))
        * Fraction(draw(st.integers(0, 15)), 16)
        * steps / (top * horizon)
    )
    return kkl_params(
        s0=s0, lam=total * split, eta=total * (1 - split), rate=rate,
        horizon=horizon, steps=steps,
    )


@st.composite
def node_parameters(draw):
    """A fixed parameter in (0, 1), or a callable of (step, state)."""
    if draw(st.booleans()):
        denominator = draw(st.integers(2, 40))
        return Fraction(draw(st.integers(1, denominator - 1)), denominator)
    a, b = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    m = draw(st.integers(1, 12))
    return lambda t, k: Fraction(1 + (a * t + b * k) % m, m + 1)


@st.composite
def terminals(draw, params):
    states = kkl_grid(params)[-1]
    kind = draw(st.sampled_from(["put", "perturbed", "random"]))
    base = put_terminal(params)
    if kind == "put":
        return base
    if kind == "perturbed":
        eps = Fraction(1, draw(st.integers(1, 1000)))
        return {
            k: base[k] + eps * Fraction(draw(st.integers(1, 2**16 - 1)), 2**16)
            for k in states
        }
    return {
        k: Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 30)))
        for k in states
    }


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_integer_layers_match_fraction_recursion(data):
    params = data.draw(lattices())
    emm_p = data.draw(node_parameters())
    terminal = data.draw(terminals(params))
    assert_surfaces_agree(params, terminal, emm_p)


def test_integer_layers_match_fraction_recursion_on_named_cases():
    put_fails = kkl_params(s0=2, lam="1/16", eta="1/16", rate=0, horizon=1, steps=2)
    assert_surfaces_agree(put_fails, put_terminal(put_fails), Fraction(1, 2))
    params = kkl_params(s0=3, lam="1/16", eta="3/32", rate="-1/5", horizon=1, steps=8)
    assert_surfaces_agree(params, put_terminal(params), Fraction(3, 8))
    assert_surfaces_agree(
        params, {k: str(Fraction(k * k - 7, 3)) for k in kkl_grid(params)[-1]},
        lambda t, k: Fraction(1 + (t + k) % 3, 4),
    )
    result = kkl_perturb_terminal(params, Fraction(1, 1000), seed=3)
    assert_surfaces_agree(params, result.terminal, Fraction(1, 2))


def test_surface_values_mapping():
    params = kkl_params(s0=2, lam="1/16", eta="1/16", rate="1/10", horizon=1, steps=4)
    surface = kkl_backward_induction(params, put_terminal(params))
    values = surface.values
    levels = kkl_grid(params)
    keys = [(t, k) for t, level in enumerate(levels) for k in level]
    assert len(values) == len(keys) == kkl_grid_size(2, 4)
    assert list(values) == keys
    rows = [
        (t, k, n, d) for t, low, reduced in values.layers()
        for k, (n, d) in enumerate(reduced, low)
    ]
    assert [(t, k) for t, k, _, _ in rows] == keys
    assert all(
        (n, d) == (values[t, k].numerator, values[t, k].denominator) for t, k, n, d in rows
    )
    assert surface.terminal_states() == levels[-1]
    off_grid = ((0, 3), (0, 1), (1, 4), (5, 0), (-1, 2), (-1, 3), (4, -1), (3, -1))
    for key in (*off_grid, "t", (1, 2, 3)):
        assert key not in values
        with pytest.raises(KeyError):
            values[key]
    with pytest.raises(KeyError):
        surface.value(0, 1)
    with pytest.raises(TypeError):
        values[(0, 2)] = Fraction(0)  # read-only


def literal_tree_values(params, terminal, emm_p):
    """Oracle: price every path node of the literal ``kkl_build`` tree."""
    tree_market = kkl_build(params)
    tree = tree_market.tree
    values: dict[str, Fraction] = {}

    def price(node_id: str) -> Fraction:
        node = tree.node(node_id)
        k = int(tree_market.prices[node_id][0])
        if not node.children:
            value = rat(terminal[k])
        else:
            children = [price(child) for child in node.children]
            discount = 1 / (1 + tree_market.rates[node.time])
            if k == 0:
                value = discount * children[0]
            else:
                p = emm_p(node.time, k) if callable(emm_p) else emm_p
                q = kkl_node_emm(params, k, p)
                value = discount * sum(w * v for w, v in zip(q, children))
        values[node_id] = value
        return value

    price(tree.root)
    return tree_market, values


def test_integer_layers_match_the_literal_tree():
    rng = random.Random(41)
    for s0 in range(1, 5):
        for steps in range(1, 6):
            for rate in ("0", "1/7", "-1/5"):
                params = kkl_params(s0=s0, lam="1/32", eta="3/64", rate=rate,
                                    horizon=1, steps=steps)
                states = kkl_grid(params)[-1]
                for terminal, emm_p in (
                    (put_terminal(params), Fraction(1, 2)),
                    ({k: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for k in states},
                     lambda t, k: Fraction(1 + (2 * t + k) % 5, 6)),
                ):
                    surface = kkl_backward_induction(params, terminal, emm_p)
                    tree_market, values = literal_tree_values(params, terminal, emm_p)
                    for node in tree_market.tree.nodes:
                        k = int(tree_market.prices[node.id][0])
                        assert surface.value(node.time, k) == values[node.id], node.id


# ---------------------------------------------------------------------------
# reducing layer values without a gcd at the scale's width

# odd primes for the scales' odd parts: small ones that repeat, and wide ones
SCALE_PRIMES = (3, 5, 7, 1201, 8407, 65537, 2**61 - 1)


@st.composite
def lattice_scales(draw):
    """2^a times a product of SCALE_PRIMES, possibly none of them."""
    odd = math.prod(draw(st.lists(st.sampled_from(SCALE_PRIMES), max_size=4)))
    return 2 ** draw(st.integers(0, 24)) * odd


def layer_numerators(rng, scale, denominator, steps):
    """Numerators over T D^(steps - t), often sharing many factors of T and D.

    Layer t holds 2t + 1 of them, as it does from s0 = steps.
    """
    layers = []
    for t in range(steps + 1):
        layer = []
        for _ in range(2 * t + 1):
            kind = rng.choice(["zero", "small", "shared", "wide"])
            if kind == "zero":
                layer.append(0)
            elif kind == "small":
                layer.append(rng.randint(-50, 50))
            elif kind == "shared":
                # up to one more power of D than S_t has, times a sign and a cofactor
                power = rng.randint(0, steps - t + 1)
                cofactor = rng.randint(1, 10**6) * rng.choice((1, *SCALE_PRIMES))
                shared = scale ** rng.randint(0, 1) * denominator**power
                layer.append(rng.choice((-1, 1)) * cofactor * shared)
            else:
                layer.append(rng.randint(-(2**400), 2**400))
        layers.append(layer)
    return layers


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_layer_reduction_matches_fraction(data):
    steps = data.draw(st.integers(0, 12))
    scale = data.draw(lattice_scales())
    denominator = data.draw(lattice_scales())
    layers = layer_numerators(data.draw(st.randoms(use_true_random=False)),
                              scale, denominator, steps)
    s0 = steps
    values = LatticeValues(s0, layers, scale, denominator)
    seen = 0
    for t, low, reduced in values.layers():
        assert low == s0 - t
        for k, (n, d), raw in zip(range(low, s0 + t + 1), reduced, layers[t], strict=True):
            expected = Fraction(raw, scale * denominator ** (steps - t))
            assert (n, d) == (expected.numerator, expected.denominator), (t, k)
            value = values[t, k]
            assert type(value) is Fraction and value == expected
            seen += 1
    assert seen == len(values)


def assert_layers_reduce(values: LatticeValues, layers, scale, denominator):
    steps = len(layers) - 1
    for t, low, reduced in values.layers():
        for (n, d), raw in zip(reduced, layers[t], strict=True):
            expected = Fraction(raw, scale * denominator ** (steps - t))
            assert (n, d) == (expected.numerator, expected.denominator), (t, raw)


def test_layer_reduction_on_named_scales():
    # T = 1, D = 1, pure powers of 2, T sharing an odd prime with D, and
    # D_odd = 1 under an odd T; one step has only layers with e = 0 and e = 1,
    # where the first probe is the whole odd scale
    for scale, denominator in ((1, 1), (1, 2**5), (2**7, 1), (125, 5 * 701), (3, 3),
                               (2**3 * 125, 2**10)):
        for steps in (1, 6):
            layers = [
                [(-1) ** j * (5 * 701 * 2) ** j * (j + t + 1) for j in range(2 * t + 1)]
                for t in range(steps + 1)
            ]
            values = LatticeValues(steps, layers, scale, denominator)
            assert_layers_reduce(values, layers, scale, denominator)


@pytest.mark.parametrize(
    "s0, lam, eta, rate, emm_p, weight_denominator",
    [
        # T_odd = 125 shares the prime 5 with D = 3,505 = 5 * 701
        (3, "1/30", "1/50", "1/7", "2/5", 3505),
        # D = 16,814 = 2 * 7 * 1,201: values carry many powers of D_odd
        (2, "1/32", "1/40", "1/12", "3/7", 16814),
    ],
)
def test_layer_reduction_on_lattices_sharing_primes(s0, lam, eta, rate, emm_p,
                                                    weight_denominator):
    params = kkl_params(s0=s0, lam=lam, eta=eta, rate=rate, steps=100)
    weights = kkl_node_weights(params, emm_p)
    assert weights.denominator == weight_denominator
    result = kkl_perturb_terminal(params, Fraction(1, 1000), 3, weights)
    values = result.surface.values
    scale = math.lcm(*(v.denominator for v in result.terminal.values()))
    # the surface's integer layers, read for the oracle
    assert_layers_reduce(values, values._layers, scale, weights.denominator)


def test_write_surface_csv_refuses_a_value_too_long_to_print():
    params = kkl_params(s0=2, lam="1/8", eta="1/8", rate="1e-30", steps=60)
    surface = kkl_backward_induction(params, put_terminal(params))
    root = surface.value(0, 2)
    assert root.denominator.bit_length() > (10**640).bit_length()
    # the root is the first row, so the refusal names its bits
    bits = root.numerator.bit_length() + root.denominator.bit_length()
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with refuses(
            LimitExceededError,
            f"a {bits}-bit rational is too long to print: over the limit of 640 decimal digits",
        ):
            write_surface_csv(surface, io.StringIO())
    finally:
        sys.set_int_max_str_digits(digits)
    stream = io.StringIO()
    write_surface_csv(surface, stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == "t,k,value" and lines[1] == f"0,2,{root}"
    assert len(lines) == 1 + len(surface.values)


def test_write_surface_csv_writes_each_value_of_the_surface():
    # D = 2 * 7 * 11^2 gives the layers many distinct denominators
    params = kkl_params(s0=3, lam="1/32", eta="1/40", rate="1/12", steps=10)
    result = kkl_perturb_terminal(params, Fraction(1, 1000), 3, Fraction(3, 7))
    stream = io.StringIO()
    write_surface_csv(result.surface, stream)
    expected = ["t,k,value"] + [f"{t},{k},{v}" for (t, k), v in result.surface.values.items()]
    assert stream.getvalue().splitlines() == expected


# ---------------------------------------------------------------------------
# node weights, built once per lattice and measure


def test_node_weights_price_as_the_parameter_does():
    params = kkl_params(s0=3, lam="1/16", eta="3/32", rate="-1/5", horizon=1, steps=8)
    terminal = {k: Fraction(k * k - 7, 3) for k in kkl_grid(params)[-1]}
    for emm_p in (Fraction(3, 8), lambda t, k: Fraction(1 + (t + k) % 3, 4)):
        weights = kkl_node_weights(params, emm_p)
        expected = kkl_backward_induction(params, terminal, emm_p)
        surface = kkl_backward_induction(params, terminal, weights)
        assert dict(surface.values) == dict(expected.values)
        assert surface.violations == expected.violations


def test_node_weights_refuse_another_lattice():
    params = kkl_params(s0=2, lam="1/16", eta="1/16", steps=3)
    other = kkl_params(s0=2, lam="1/16", eta="1/16", steps=4)
    weights = kkl_node_weights(params)
    with pytest.raises(InputError, match="different lattice"):
        kkl_backward_induction(other, put_terminal(other), weights)
    with pytest.raises(InputError, match="different lattice"):
        kkl_perturb_terminal(other, "1/100", 0, weights)
    bad = kkl_params(s0=1, lam="1/8", eta="1/8", rate=2, steps=1)
    with pytest.raises(NotViableError):
        kkl_node_weights(bad)


def test_bad_node_parameter_is_reported_at_the_first_node_using_it():
    params = kkl_params(s0=2, lam="1/16", eta="1/16", steps=4)
    asked: list[tuple[int, int]] = []

    def emm_p(t, k):
        asked.append((t, k))
        return Fraction(2) if (t, k) == (2, 3) else Fraction(1, 2)

    # nodes are priced from the last branching step back, states ascending
    priced_first = [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (2, 1), (2, 2), (2, 3)]
    for build in (
        lambda: kkl_node_weights(params, emm_p),
        lambda: kkl_backward_induction(params, put_terminal(params), emm_p),
        lambda: kkl_perturb_terminal(params, "1/100", 0, emm_p),
    ):
        asked.clear()
        with pytest.raises(InputError, match="strictly in"):
            build()
        assert asked == priced_first


def test_kkl_builds_its_node_measures_once(monkeypatch, capsys):
    built = []
    node_weights = models.kkl_node_weights

    def counted(params, emm_p=Fraction(1, 2)):
        built.append(params.steps)
        return node_weights(params, emm_p)

    monkeypatch.setattr(models, "kkl_node_weights", counted)
    argv = ["kkl", "--s0", "2", "--lambda", "1/16", "--eta", "1/16", "--steps", "6",
            "--epsilon", "1/1000", "--json"]
    assert cli.main(argv) == 0
    # one build serves the put and every perturbation attempt
    assert built == [6]


def fraction_node_weights(params, emm_p: EmmParameter = Fraction(1, 2)) -> NodeWeights:
    """Oracle: node weights from the Fraction closed forms, times the Fraction discount."""
    if not kkl_viability(params):
        raise NotViableError(
            "no equivalent node measures: horizon * |rate| * (s0 + steps - 1) >= steps"
        )
    levels = kkl_grid(params)
    fixed = None if callable(emm_p) else rat(emm_p)
    discount = 1 / (1 + params.step_rate)
    weights: list[tuple[Fraction, ...]] = []
    weight_index: dict[object, int] = {}
    layers: list[tuple[int, ...]] = []
    for t in reversed(range(params.steps)):
        row: list[int] = []
        for k in levels[t]:
            if k == 0:
                continue
            if fixed is None:
                p = rat(emm_p(t, k))
                key: object = (k, p)
            else:
                p = fixed
                key = k
            index = weight_index.get(key)
            if index is None:
                index = weight_index[key] = len(weights)
                weights.append(tuple(discount * x for x in kkl_node_emm(params, k, p)))
            row.append(index)
        layers.append(tuple(row))
    denominator = math.lcm(
        discount.denominator, *(w.denominator for q in weights for w in q)
    )
    return NodeWeights(
        params=params,
        denominator=denominator,
        absorbed=discount.numerator * (denominator // discount.denominator),
        weights=tuple(
            tuple(w.numerator * (denominator // w.denominator) for w in q) for q in weights
        ),
        layers=tuple(layers),
    )


@st.composite
def rate_lattices(draw):
    """Viable lattices whose rate runs from below 0 up to either side of the bound."""
    s0 = draw(st.integers(1, 8))
    steps = draw(st.integers(1, 30))
    horizon = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 5)))
    top = s0 + steps - 1
    total = Fraction(draw(st.integers(1, 63)), 64) * steps / (top * horizon)
    split = Fraction(draw(st.integers(1, 15)), 16)
    # |rate| * horizon * top / steps = share < 1, as close to 1 as 999/1000
    denominator = draw(st.integers(1, 1000))
    share = Fraction(draw(st.integers(0, denominator - 1)), denominator)
    sign = draw(st.sampled_from([-1, 0, 1]))
    return kkl_params(
        s0=s0, lam=total * split, eta=total * (1 - split),
        rate=sign * share * steps / (top * horizon), horizon=horizon, steps=steps,
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rate_lattices(), node_parameters())
def test_node_weights_match_the_fraction_closed_forms(params, emm_p):
    assert kkl_node_weights(params, emm_p) == fraction_node_weights(params, emm_p)


def test_node_weights_match_the_fraction_closed_forms_at_the_bounds():
    for rate in ("-99/100", "-1/3", 0, "1/3", "99/100", "-1e-30", "1e-30"):
        params = kkl_params(s0=1, lam="1/4", eta="1/4", rate=rate, steps=1)
        for emm_p in ("1/2", "1/1000", "999/1000"):
            assert kkl_node_weights(params, emm_p) == fraction_node_weights(params, emm_p)
    # rates just inside the viability bound |rate| * 9 / 6 < 1 at the top state
    for rate in ("-665/1000", "665/1000"):
        params = kkl_params(s0=4, lam="1/64", eta="1/64", rate=rate, horizon=1, steps=6)
        assert kkl_viability(params)
        assert kkl_node_weights(params, "2/5") == fraction_node_weights(params, "2/5")


def test_write_surface_csv_raises_a_stream_error_as_it_came():
    # every value prints, so the ValueError of a stream closed after the
    # header is not a value's refusal and passes through unchanged
    class ClosesAfterHeader(io.StringIO):
        def write(self, text):
            written = super().write(text)
            self.close()
            return written

    params = kkl_params(s0=2, lam="1/8", eta="1/8", steps=3)
    surface = kkl_backward_induction(params, put_terminal(params))
    with refuses(ValueError, "I/O operation on closed file"):
        write_surface_csv(surface, ClosesAfterHeader())


def test_model_refusals_name_what_is_wrong():
    three = make_factor_model(["1/2", 1, 2])
    two = make_factor_model(["1/2", 2])
    with refuses(InputError, "at least one factor required"):
        make_factor_model([])
    with refuses(InputError, "rate -1 makes the one-period discount undefined"):
        make_factor_model([1, 2], rate=-1)
    with refuses(InputError, "three factors required, got 2"):
        trinomial_emms(two)
    with refuses(InputError, "three factors required, got 2"):
        trinomial_completion_condition([0, 0, 1], two)
    with refuses(InputError, "payoff needs 3 entries, got 2"):
        trinomial_completion_condition([0, 1], three)
    with refuses(InputError, "payoff needs 3 entries, got 4"):
        trinomial_price_interval([0, 0, 0, 1], three)
    with refuses(InputError, "step count must be a positive integer"):
        kkl_params(s0=2, lam="1/8", eta="1/8", steps=0)
    with refuses(InputError, "horizon must be positive"):
        kkl_params(s0=2, lam="1/8", eta="1/8", horizon=0, steps=3)
    params = kkl_params(s0=2, lam="1/8", eta="1/8", steps=3)
    with refuses(InputError, "states are nonnegative integers"):
        kkl_transition(params, -1)
    with refuses(InputError, "only branching states k >= 1 carry a trinomial measure"):
        kkl_node_emm(params, 0, "1/2")
