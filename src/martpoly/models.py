"""Single-asset factor models and the discrete birth-death lattice.

A factor model multiplies the asset price by one of b fixed factors each
period. For b = 3 the equivalent martingale measures admit closed forms in
three cases according to the middle factor's position against the grown rate,
and a derivative completes the market exactly when its payoff has a nonzero
second difference across the factors.

The lattice model moves an integer price up or down by one with intensities
proportional to the price, or leaves it in place; price zero absorbs. Each
branching node is such a trinomial market with factors (1 - 1/k, 1, 1 + 1/k),
so the closed forms drive the backward induction of a derivative surface.

The induction runs on integers. After discounting, every node measure's
weights share one denominator D (the measure's up-minus-down mass is k r dt,
so its denominators do not grow with k), and one integer T clears the
terminal values. Layer t is then an integer vector N_t with value
N_t / (T D^(steps - t)), each node costs three integer products, and the
completion check is an integer zero test made in the same pass. Values are
reduced to Fractions only when they are read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, TextIO, Union

from .analysis import PriceBounds, bounds_from_values
from .errors import (
    InputError,
    LimitExceededError,
    NotViableError,
    PerturbationError,
)
from .market import OnePeriodMarket
from .multiperiod import EventTree, TreeMarket, TreeNode
from .rationals import Matrix, RationalLike, Vector, dot, format_rational, rat, vector


@dataclass(frozen=True)
class FactorModel:
    """Strictly increasing factors, a per-period rate, and a nonzero spot.

    Factors are price multipliers, so they are kept nonnegative; zero is
    allowed (a price that can drop to nothing) because the lattice's bottom
    branching node has exactly that down factor.
    """

    factors: Vector
    rate: Fraction
    spot: Fraction

    def __post_init__(self) -> None:
        if not self.factors:
            raise InputError("at least one factor required")
        if self.factors[0] < 0:
            raise InputError("factors must be nonnegative")
        if any(a >= b for a, b in zip(self.factors, self.factors[1:])):
            raise InputError("factors must be strictly increasing")
        if self.spot == 0:
            raise InputError("spot must be nonzero")
        if 1 + self.rate == 0:
            raise InputError("rate -1 makes the one-period discount undefined")

    @property
    def branches(self) -> int:
        return len(self.factors)

    def market(self) -> OnePeriodMarket:
        """The equivalent one-asset, one-period market."""
        row = tuple(f * self.spot for f in self.factors)
        return OnePeriodMarket(
            rate=self.rate, spot=(self.spot,), payoffs=Matrix((row,), self.branches)
        )


def make_factor_model(
    factors: Iterable[RationalLike], rate: RationalLike = 0, spot: RationalLike = 1
) -> FactorModel:
    return FactorModel(factors=vector(factors), rate=rat(rate), spot=rat(spot))


def factor_viability(fm: FactorModel) -> bool:
    """Grown rate strictly inside the factor range.

    With a single branch the open hull degenerates to a point, so viability
    means the grown rate equals the lone factor exactly.
    """
    grown = 1 + fm.rate
    if fm.branches == 1:
        return fm.factors[0] == grown
    return fm.factors[0] < grown < fm.factors[-1]


def factor_completeness(fm: FactorModel) -> bool:
    """A viable single-asset factor market is complete only with b <= 2."""
    return factor_viability(fm) and fm.branches <= 2


@dataclass(frozen=True)
class TrinomialEmmFamily:
    """All equivalent measures of a viable three-factor market.

    The family is the open segment between two boundary measures; ``case``
    records where the middle factor sits relative to the grown rate, which
    decides the second endpoint's shape. The endpoints themselves are
    martingale measures but not equivalent (each vanishes somewhere).
    """

    case: str
    endpoints: tuple[Vector, Vector]

    def measure(self, p: RationalLike) -> Vector:
        """The equivalent measure at parameter p, for 0 < p < 1."""
        t = rat(p)
        if not 0 < t < 1:
            raise InputError(f"measure parameter must lie strictly in (0, 1), got {t}")
        first, second = self.endpoints
        return tuple(t * a + (1 - t) * b for a, b in zip(first, second))


def trinomial_emms(fm: FactorModel) -> TrinomialEmmFamily:
    """Closed-form generator pair of a viable three-factor market."""
    if fm.branches != 3:
        raise InputError(f"three factors required, got {fm.branches}")
    if not factor_viability(fm):
        raise NotViableError("no equivalent measures: grown rate outside factor range")
    f1, f2, f3 = fm.factors
    grown = 1 + fm.rate
    outer = ((f3 - grown) / (f3 - f1), Fraction(0), (grown - f1) / (f3 - f1))
    if f2 == grown:
        case = "f2_equal"
        other = (Fraction(0), Fraction(1), Fraction(0))
    elif f2 < grown:
        case = "f2_below"
        other = (Fraction(0), (f3 - grown) / (f3 - f2), (grown - f2) / (f3 - f2))
    else:
        case = "f2_above"
        other = ((f2 - grown) / (f2 - f1), (grown - f1) / (f2 - f1), Fraction(0))
    return TrinomialEmmFamily(case=case, endpoints=(outer, other))


def trinomial_completion_condition(
    payoff: Iterable[RationalLike], fm: FactorModel
) -> bool:
    """Whether adding the payoff as an asset lifts the rank to three.

    The test is c1 (f3 - f2) + c2 (f1 - f3) + c3 (f2 - f1) != 0, a second
    difference across the factors; payoffs affine in the factors always fail.
    """
    if fm.branches != 3:
        raise InputError(f"three factors required, got {fm.branches}")
    c = vector(payoff)
    if len(c) != 3:
        raise InputError(f"payoff needs 3 entries, got {len(c)}")
    f1, f2, f3 = fm.factors
    return c[0] * (f3 - f2) + c[1] * (f1 - f3) + c[2] * (f2 - f1) != 0


def trinomial_price_interval(
    payoff: Iterable[RationalLike], fm: FactorModel
) -> PriceBounds:
    """Arbitrage-free price range of a payoff, from the closed-form endpoints.

    Agrees exactly with the generic ``price_bounds`` on the equivalent
    one-period market; an endpoint is attained only when the payoff is priced
    identically by both generators (a replicable claim).
    """
    family = trinomial_emms(fm)
    c = vector(payoff)
    if len(c) != 3:
        raise InputError(f"payoff needs 3 entries, got {len(c)}")
    discount = 1 + fm.rate
    values = [dot(c, g) / discount for g in family.endpoints]
    supports = [[i for i, x in enumerate(g) if x > 0] for g in family.endpoints]
    return bounds_from_values(values, supports, 3)


@dataclass(frozen=True)
class KklParams:
    """Birth-death lattice parameters.

    ``s0`` is the integer starting price, ``lam`` and ``eta`` the up and down
    intensities, ``horizon`` the terminal time split into ``steps`` equal
    periods. Validation pins every physical transition probability strictly
    inside (0, 1) at every reachable branching state, i.e.
    (lam + eta) * (s0 + steps - 1) * dt < 1.
    """

    s0: int
    lam: Fraction
    eta: Fraction
    rate: Fraction
    horizon: Fraction
    steps: int

    def __post_init__(self) -> None:
        if not isinstance(self.s0, int) or isinstance(self.s0, bool) or self.s0 < 1:
            raise InputError("starting price must be a positive integer")
        if not isinstance(self.steps, int) or isinstance(self.steps, bool) or self.steps < 1:
            raise InputError("step count must be a positive integer")
        if self.lam <= 0 or self.eta <= 0:
            raise InputError("intensities must be positive")
        if self.horizon <= 0:
            raise InputError("horizon must be positive")
        top = self.s0 + self.steps - 1
        if (self.lam + self.eta) * top * self.dt >= 1:
            raise InputError(
                "transition probabilities leave (0, 1) at the top state: require "
                "(lam + eta) * (s0 + steps - 1) * horizon / steps < 1"
            )

    @property
    def dt(self) -> Fraction:
        return self.horizon / self.steps

    @property
    def step_rate(self) -> Fraction:
        return self.rate * self.dt


def kkl_params(
    s0: int,
    lam: RationalLike,
    eta: RationalLike,
    rate: RationalLike = 0,
    horizon: RationalLike = 1,
    steps: int = 1,
) -> KklParams:
    return KklParams(
        s0=s0, lam=rat(lam), eta=rat(eta), rate=rat(rate), horizon=rat(horizon),
        steps=steps,
    )


# Largest lattice grid, in states, that the library builds. The largest
# admitted grid from s0 = 1 (509 steps, 130,814 states) is priced, perturbed
# and written as CSV by `kkl` in about 10 s with a 120 MB peak on a 2-core
# x86-64 host under CPython 3.11; its integers grow linearly in steps, so
# memory grows faster than the state count.
MAX_GRID_STATES = 131_072


def kkl_grid_size(s0: int, steps: int) -> int:
    """States on the grid, in closed form: 2t + 1 at step t <= s0, else s0 + t + 1."""
    full = min(steps, s0)
    wide = steps - full
    return (full + 1) ** 2 + wide * (s0 + 1) + wide * (s0 + 1 + steps) // 2


def kkl_grid(params: KklParams) -> tuple[tuple[int, ...], ...]:
    """Reachable integer states per step: start at s0, zero absorbs.

    A state k >= 1 moves to k - 1, k or k + 1, so step t reaches exactly
    the integers within t of s0 that are not negative. A grid of more than
    ``MAX_GRID_STATES`` states raises ``LimitExceededError`` before any
    state is built.
    """
    s0 = params.s0
    size = kkl_grid_size(s0, params.steps)
    if size > MAX_GRID_STATES:
        raise LimitExceededError(
            f"lattice grid of {size} states over {params.steps} steps exceeds "
            f"the limit of {MAX_GRID_STATES} states"
        )
    return tuple(
        tuple(range(max(0, s0 - t), s0 + t + 1)) for t in range(params.steps + 1)
    )


def kkl_transition(params: KklParams, k: int) -> Vector:
    """Physical branch probabilities at state k, in child order.

    Branching states list (down, stay, up) = (eta k dt, 1 - (lam + eta) k dt,
    lam k dt); the absorbed state has the single certain branch.
    """
    if k < 0:
        raise InputError("states are nonnegative integers")
    if k == 0:
        return (Fraction(1),)
    kdt = k * params.dt
    return (params.eta * kdt, 1 - (params.lam + params.eta) * kdt, params.lam * kdt)


def kkl_component_market(params: KklParams, k: int) -> OnePeriodMarket:
    """The one-period submarket at a state, identical at every time step.

    Every component of the full lattice tree with current price k is this
    market, so checking one per distinct state checks them all.
    """
    if k == 0:
        return OnePeriodMarket(
            rate=params.step_rate,
            spot=(Fraction(0),),
            payoffs=Matrix(((Fraction(0),),), 1),
            probabilities=kkl_transition(params, 0),
        )
    row = (Fraction(k - 1), Fraction(k), Fraction(k + 1))
    return OnePeriodMarket(
        rate=params.step_rate,
        spot=(Fraction(k),),
        payoffs=Matrix((row,), 3),
        probabilities=kkl_transition(params, k),
    )


def kkl_build(params: KklParams, *, max_nodes: int = 100_000) -> TreeMarket:
    """Expand the lattice into a literal event tree market.

    Node ids encode the price path ("2.1.0" went 2 -> 1 -> 0). The tree has
    one path node per price history, which grows roughly like 3^steps;
    ``max_nodes`` turns that blow-up into an explicit error, raised from the
    path counts per state before any node is built. Distinct-state
    analysis via ``kkl_component_market`` scales polynomially instead.
    """
    paths = {params.s0: 1}
    total = 0
    for t in range(params.steps + 1):
        total += sum(paths.values())
        if total > max_nodes:
            raise LimitExceededError(
                f"lattice tree reaches {total} nodes by step {t}, over the limit of "
                f"{max_nodes} nodes; use the distinct-state component markets instead"
            )
        step: dict[int, int] = {}
        for state, count in paths.items():
            for child in _child_states(state):
                step[child] = step.get(child, 0) + count
        paths = step
    nodes: list[TreeNode] = []
    prices: dict[str, Vector] = {}
    probabilities: dict[str, Vector] = {}
    frontier: list[tuple[str, int]] = [(str(params.s0), params.s0)]
    for t in range(params.steps + 1):
        next_frontier: list[tuple[str, int]] = []
        for node_id, state in frontier:
            prices[node_id] = (Fraction(state),)
            if t == params.steps:
                nodes.append(TreeNode(id=node_id, time=t, children=()))
                continue
            child_states = _child_states(state)
            child_ids = tuple(f"{node_id}.{s}" for s in child_states)
            nodes.append(TreeNode(id=node_id, time=t, children=child_ids))
            probabilities[node_id] = kkl_transition(params, state)
            next_frontier.extend(zip(child_ids, child_states))
        frontier = next_frontier
    return TreeMarket(
        tree=EventTree(nodes),
        assets=1,
        prices=prices,
        rates=(params.step_rate,) * params.steps,
        branch_probabilities=probabilities,
    )


def _child_states(k: int) -> tuple[int, ...]:
    """Zero absorbs; a state k >= 1 moves to k - 1, k or k + 1."""
    return (0,) if k == 0 else (k - 1, k, k + 1)


def kkl_viability(params: KklParams) -> bool:
    """horizon * |rate| * (s0 + steps - 1) < steps.

    Exactly the condition that every branching state's grown rate stays
    strictly between its down and up factors, worst at the top state.
    """
    return params.horizon * abs(params.rate) * (params.s0 + params.steps - 1) < params.steps


EmmParameter = Union[RationalLike, Callable[[int, int], RationalLike]]


class LatticeValues(Mapping[tuple[int, int], Fraction]):
    """Read-only surface values keyed by (step, state), reduced on read.

    Layer t holds integers N_t for the states max(0, s0 - t) .. s0 + t over
    one positive scale, so the value at (t, k) is
    ``Fraction(N_t[k - max(0, s0 - t)], scale_t)``, built only when read.
    Keys iterate by step, then by state.
    """

    __slots__ = ("_s0", "_layers", "_scales")

    def __init__(self, s0: int, layers: list[list[int]], scales: list[int]) -> None:
        self._s0 = s0
        self._layers = layers
        self._scales = scales

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        if isinstance(key, tuple) and len(key) == 2:
            t, k = key
            if isinstance(t, int) and isinstance(k, int) and 0 <= t < len(self._layers):
                i = k - max(0, self._s0 - t)
                if 0 <= i < len(self._layers[t]):
                    return Fraction(self._layers[t][i], self._scales[t])
        raise KeyError(key)

    def __len__(self) -> int:
        return sum(map(len, self._layers))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for t, layer in enumerate(self._layers):
            low = max(0, self._s0 - t)
            for k in range(low, low + len(layer)):
                yield (t, k)

    def rows(self) -> Iterator[tuple[int, int, Fraction]]:
        """(step, state, value) in key order, each value reduced once."""
        for t, (layer, scale) in enumerate(zip(self._layers, self._scales)):
            low = max(0, self._s0 - t)
            for k, n in enumerate(layer, low):
                yield t, k, Fraction(n, scale)


@dataclass(frozen=True)
class DerivativeSurface:
    """Derivative values on the reachable grid, keyed by (step, state).

    ``values`` is a lazy ``LatticeValues``: each value becomes a reduced
    Fraction only when read. ``violations`` lists, by step then state, the
    branching nodes whose next-layer second difference vanishes.
    """

    steps: int
    values: LatticeValues
    violations: tuple[tuple[int, int], ...]

    def value(self, t: int, k: int) -> Fraction:
        return self.values[(t, k)]

    def terminal_states(self) -> tuple[int, ...]:
        return tuple(k for (t, k) in self.values if t == self.steps)


def put_terminal(params: KklParams) -> dict[int, Fraction]:
    """Strike-one put payoff on the terminal states: one at zero, else zero."""
    return {
        k: Fraction(1) if k == 0 else Fraction(0) for k in kkl_grid(params)[-1]
    }


def kkl_node_emm(params: KklParams, k: int, p: RationalLike) -> Vector:
    """Node measure at branching state k via the trinomial closed form."""
    if k < 1:
        raise InputError("only branching states k >= 1 carry a trinomial measure")
    fm = FactorModel(
        factors=(1 - Fraction(1, k), Fraction(1), 1 + Fraction(1, k)),
        rate=params.step_rate,
        spot=Fraction(k),
    )
    return trinomial_emms(fm).measure(p)


def kkl_backward_induction(
    params: KklParams,
    terminal: Mapping[int, RationalLike],
    emm_p: EmmParameter = Fraction(1, 2),
) -> DerivativeSurface:
    """Discounted node-measure expectations, terminal layer backward to zero.

    ``emm_p`` selects the node measure: a single parameter in (0, 1) used
    everywhere, or a callable (step, state) -> parameter for per-node choice.
    The absorbed state discounts its own next value; branching states average
    (down, stay, up) under the closed-form measure.

    Each layer is an integer vector over the scale T D^(steps - t) (see the
    module docstring), and the completion check that ``kkl_completion_check``
    reports is decided in the same pass; no Fraction arithmetic runs per
    node. The surface's values are reduced to Fractions only when read.
    """
    if not kkl_viability(params):
        raise NotViableError(
            "no equivalent node measures: horizon * |rate| * (s0 + steps - 1) >= steps"
        )
    steps = params.steps
    levels = kkl_grid(params)
    top: list[Fraction] = []
    for k in levels[-1]:
        if k not in terminal:
            raise InputError(f"terminal value missing for state {k}")
        top.append(rat(terminal[k]))

    fixed = None if callable(emm_p) else rat(emm_p)

    # Discounted node weights, one per distinct (k, p), taken in the order the
    # nodes are priced so that a bad parameter is reported at the first node
    # that uses it. Each layer keeps the weight index of its branching nodes.
    discount = 1 / (1 + params.step_rate)
    weights: list[Vector] = []
    weight_index: dict[object, int] = {}
    layer_weights: list[list[int]] = []
    for t in reversed(range(steps)):
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
        layer_weights.append(row)

    denominator = lcm(discount.denominator, *(w.denominator for q in weights for w in q))
    integer_weights = [
        tuple(w.numerator * (denominator // w.denominator) for w in q) for q in weights
    ]
    absorbed = discount.numerator * (denominator // discount.denominator)
    terminal_scale = lcm(*(v.denominator for v in top))

    layers: list[list[int]] = [[]] * (steps + 1)
    scales: list[int] = [0] * (steps + 1)
    layers[steps] = [v.numerator * (terminal_scale // v.denominator) for v in top]
    scales[steps] = terminal_scale
    bad_layers: list[list[tuple[int, int]]] = []
    for t, row in zip(reversed(range(steps)), layer_weights):
        nxt = layers[t + 1]
        low = levels[t][0]
        cur: list[int] = []
        bad: list[tuple[int, int]] = []
        if low == 0:
            # zero absorbs, and stays at index 0 of the next layer
            cur.append(absorbed * nxt[0])
        k = max(low, 1)
        j = k - 1 - levels[t + 1][0]  # the down child's index in the next layer
        for index in row:
            down, stay, up = nxt[j], nxt[j + 1], nxt[j + 2]
            w_down, w_stay, w_up = integer_weights[index]
            cur.append(w_down * down + w_stay * stay + w_up * up)
            if down + up == 2 * stay:
                bad.append((t, k))
            k += 1
            j += 1
        layers[t] = cur
        scales[t] = scales[t + 1] * denominator
        bad_layers.append(bad)
    violations = tuple(node for bad in reversed(bad_layers) for node in bad)
    return DerivativeSurface(
        steps=steps,
        values=LatticeValues(params.s0, layers, scales),
        violations=violations,
    )


def kkl_completion_check(surface: DerivativeSurface) -> tuple[tuple[int, int], ...]:
    """Grid nodes where the derivative fails to complete the market.

    At a branching node the stock-plus-derivative market is complete exactly
    when the second difference of the next layer's values is nonzero; the
    returned nodes, by step then state, are those with a vanishing second
    difference, so an empty result means the two-asset lattice market is
    complete. The test is decided on the integer layers during
    ``kkl_backward_induction``, whose record this reads.
    """
    return surface.violations


@dataclass(frozen=True)
class PerturbationResult:
    terminal: dict[int, Fraction]
    surface: DerivativeSurface
    attempts: int


_PERTURB_DENOMINATOR = 2**16
_PERTURB_ATTEMPTS = 64


def kkl_perturb_terminal(
    params: KklParams,
    epsilon: RationalLike,
    seed: int,
    emm_p: EmmParameter = Fraction(1, 2),
) -> PerturbationResult:
    """Nudge the put's terminal values until the completion check is empty.

    Each terminal state gets an additive shift epsilon * u with u uniform on
    {1/65536, ..., 65535/65536}, seeded and resampled wholesale on failure.
    The vanishing second differences cut out finitely many hyperplanes, so a
    random rational point misses them essentially always; the retry budget
    exists only to make the failure mode explicit rather than silent.
    """
    eps = rat(epsilon)
    if eps <= 0:
        raise InputError("perturbation size must be positive")
    base = put_terminal(params)
    states = sorted(base)
    rng = random.Random(seed)
    for attempt in range(1, _PERTURB_ATTEMPTS + 1):
        terminal = {
            k: base[k] + eps * Fraction(rng.randrange(1, _PERTURB_DENOMINATOR),
                                        _PERTURB_DENOMINATOR)
            for k in states
        }
        surface = kkl_backward_induction(params, terminal, emm_p)
        if not kkl_completion_check(surface):
            return PerturbationResult(terminal=terminal, surface=surface,
                                      attempts=attempt)
    raise PerturbationError(
        f"no completing perturbation found in {_PERTURB_ATTEMPTS} attempts"
    )


def write_surface_csv(surface: DerivativeSurface, stream: TextIO) -> None:
    """Rows t,k,value by step then state, values as rational strings."""
    stream.write("t,k,value\n")
    for t, k, value in surface.values.rows():
        stream.write(f"{t},{k},{format_rational(value)}\n")
