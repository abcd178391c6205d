"""Factor-model closed forms and the birth-death lattice."""

import random
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
)
from martpoly import models
from martpoly.models import EmmParameter, kkl_grid_size
from martpoly.rationals import RationalLike, rat
from util import random_viable_trinomial


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
    for _ in range(60):
        fm = random_viable_trinomial(rng)
        payoff = [Fraction(rng.randint(-6, 6)) for _ in range(3)]
        assert trinomial_price_interval(payoff, fm) == price_bounds(
            fm.market(), payoff
        )


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
    params = kkl_params(s0=2, lam="1/8", eta="1/8", rate="1/10", horizon=1, steps=2)
    report = analyze_tree(kkl_build(params))
    assert report.viable == kkl_viability(params)
    assert not report.complete  # single asset, trinomial nodes
    for comp_report in report.components:
        k = int(comp_report.component.market.spot[0])
        state_market = kkl_component_market(params, k)
        assert characterize(state_market).generators == (
            comp_report.characterization.generators
        )


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
    assert [(t, k) for t, k, _ in values.rows()] == keys
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
