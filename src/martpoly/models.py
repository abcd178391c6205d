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

The induction runs on integers. The node measures are linear in k, so with
the step rate a / b and the measure parameter u / v the discounted weights of
every state are integers over 2 v (a + b) (``kkl_node_weights``); they share
one denominator D, and one integer T clears the terminal values. Layer t is
then an integer vector N_t with value N_t / S_t, S_t = T D^(steps - t), each
node costs three integer products, and the completion check is an integer
zero test made in the same pass. No Fraction is built from the node weights
to the CSV. The weights are built once per lattice and measure
(``NodeWeights``), so a put and its perturbations share them.

``FactorModel`` and ``KklParams`` coerce their fields by ``rat`` and
``require_count`` (see ``rationals``), so ``make_factor_model`` and
``kkl_params`` name those classes; a lattice state and ``max_nodes`` are
counts too. ``TrinomialEmmFamily`` trusts its Fraction endpoints.

A value n / S_t is put in lowest terms only when it is read, and without a gcd
at the width of S_t: its power of 2 is min(v2(n), v2(S_t)), read off the low
bits. For its odd part, g = gcd(n mod P, P) with the probe P = T_odd D_odd,
which has every odd prime of S_t. A g of 1 is final, and so is any g when P
is the odd part of S_t itself (t >= steps - 1, or D_odd = 1). Otherwise g
grows, by gcds against g and its squares, into the part of n made of those
primes, whose gcd with the odd part of S_t is the answer. Every gcd
runs at the width of the probe or of that part, which is small unless n
carries many of S_t's primes, not at the width of S_t.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import TextIO, Union

from .analysis import PriceBounds, bounds_from_values
from .errors import (
    InputError,
    LimitExceededError,
    NotViableError,
    PerturbationError,
)
from .market import OnePeriodMarket
from .multiperiod import EventTree, TreeMarket, TreeNode
from .rationals import Matrix, RationalLike, Vector, dot, format_ratio, rat, require_count
from .rationals import scaled_integers, vector


@dataclass(frozen=True)
class FactorModel:
    """Strictly increasing factors, a per-period rate, and a nonzero spot.

    Factors are price multipliers, so they are kept nonnegative; zero is
    allowed (a price that can drop to nothing) because the lattice's bottom
    branching node has exactly that down factor. The fields are coerced by
    ``vector`` and ``rat``: ints, Fractions or rational strings.
    """

    factors: Vector
    rate: Fraction = Fraction(0)
    spot: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", vector(self.factors))
        object.__setattr__(self, "rate", rat(self.rate))
        object.__setattr__(self, "spot", rat(self.spot))
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


make_factor_model = FactorModel


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


def _measure_parameter(p: RationalLike) -> Fraction:
    """A node-measure parameter as a Fraction; outside (0, 1) it is an ``InputError``."""
    t = rat(p)
    if not 0 < t < 1:
        raise InputError(f"measure parameter must lie strictly in (0, 1), got {t}")
    return t


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
        t = _measure_parameter(p)
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
    return bounds_from_values([dot(c, g) for g in family.endpoints], 1 + fm.rate)


@dataclass(frozen=True)
class KklParams:
    """Birth-death lattice parameters.

    ``s0`` is the integer starting price, ``lam`` and ``eta`` the up and down
    intensities, ``horizon`` the terminal time split into ``steps`` equal
    periods. The rationals are coerced by ``rat``; ``s0`` and ``steps`` are
    positive ints. Validation pins every physical transition probability
    strictly inside (0, 1) at every reachable branching state, i.e.
    (lam + eta) * (s0 + steps - 1) * dt < 1.
    """

    s0: int
    lam: Fraction
    eta: Fraction
    rate: Fraction = Fraction(0)
    horizon: Fraction = Fraction(1)
    steps: int = 1

    def __post_init__(self) -> None:
        for name in ("lam", "eta", "rate", "horizon"):
            object.__setattr__(self, name, rat(getattr(self, name)))
        require_count(self.s0, 1, "starting price must be a positive integer")
        require_count(self.steps, 1, "step count must be a positive integer")
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


kkl_params = KklParams


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
    require_count(k, 0, "states are nonnegative integers")
    if k == 0:
        return (Fraction(1),)
    kdt = k * params.dt
    return (params.eta * kdt, 1 - (params.lam + params.eta) * kdt, params.lam * kdt)


def kkl_component_market(params: KklParams, k: int) -> OnePeriodMarket:
    """The one-period submarket at a state: one outcome per ``_child_states`` child.

    Every component of the full lattice tree with current price k is this
    market, so checking one per distinct state checks them all.
    """
    probabilities = kkl_transition(params, k)  # checks k before _child_states reads it
    row = tuple(map(Fraction, _child_states(k)))
    return OnePeriodMarket(
        rate=params.step_rate,
        spot=(Fraction(k),),
        payoffs=Matrix((row,), len(row)),
        probabilities=probabilities,
    )


def kkl_build(params: KklParams, *, max_nodes: int = 100_000) -> TreeMarket:
    """Expand the lattice into a literal event tree market.

    Node ids encode the price path ("2.1.0" went 2 -> 1 -> 0). The tree has
    one path node per price history, which grows roughly like 3^steps;
    ``max_nodes`` turns that blow-up into an explicit error, raised from the
    path counts per state before any node is built. Distinct-state
    analysis via ``kkl_component_market`` scales polynomially instead.
    """
    require_count(max_nodes, 1, "max_nodes must be a positive integer, got {}", max_nodes)
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


def _max_scale_bits() -> int:
    """Twice the bit length of the largest integer ``str`` prints; 0 when unlimited.

    The put's root, reduced, keeps well over half the bits of its scale, so
    past this bound it is too long to print.
    """
    digits = sys.get_int_max_str_digits()
    return 2 * (10**digits - 1).bit_length() if digits else 0


class LatticeValues(Mapping[tuple[int, int], Fraction]):
    """Read-only surface values keyed by (step, state), reduced on read.

    Layer t holds integers N_t for the states max(0, s0 - t) .. s0 + t over
    the scale S_t = T D^(steps - t), where T is the terminal scale and D the
    node weights' denominator, so the value at (t, k) is
    ``N_t[k - max(0, s0 - t)] / S_t``. ``_reduce`` puts values in lowest terms
    with gcds against T_odd D_odd and its factors (see the module docstring):
    on the benchmark's lattices most values need only the first. Keys
    iterate by step, then by state.
    """

    __slots__ = ("_s0", "_layers", "_terminal_scale", "_denominator")

    def __init__(
        self, s0: int, layers: list[list[int]], terminal_scale: int, denominator: int
    ) -> None:
        self._s0 = s0
        self._layers = layers
        self._terminal_scale = terminal_scale
        self._denominator = denominator

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        if isinstance(key, tuple) and len(key) == 2:
            t, k = key
            if isinstance(t, int) and isinstance(k, int) and 0 <= t < len(self._layers):
                i = k - max(0, self._s0 - t)
                if 0 <= i < len(self._layers[t]):
                    ((numerator, denominator),) = self._reduce(t, (self._layers[t][i],))
                    return Fraction(numerator, denominator)
        raise KeyError(key)

    def __len__(self) -> int:
        return sum(map(len, self._layers))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for t, layer in enumerate(self._layers):
            low = max(0, self._s0 - t)
            for k in range(low, low + len(layer)):
                yield (t, k)

    def layers(self) -> Iterator[tuple[int, int, Iterator[tuple[int, int]]]]:
        """(step, lowest state, reduced (numerator, denominator) per state), by step."""
        for t, layer in enumerate(self._layers):
            yield t, max(0, self._s0 - t), self._reduce(t, layer)

    def _reduce(self, t: int, numerators: Iterable[int]) -> Iterator[tuple[int, int]]:
        """Each n / S_t of layer t in lowest terms, as (numerator, positive denominator)."""
        e = len(self._layers) - 1 - t
        scale, denominator = self._terminal_scale, self._denominator
        scale_twos = (scale & -scale).bit_length() - 1
        weight_twos = (denominator & -denominator).bit_length() - 1
        twos = scale_twos + e * weight_twos
        odd_weight = denominator >> weight_twos
        # the probe T_odd D_odd has every odd prime of S_t, and is S_t's odd part
        # when e <= 1 or D_odd = 1
        odd = scale >> scale_twos
        probe = odd * odd_weight if e else odd
        odd *= odd_weight**e
        exact = probe == odd
        for n in numerators:
            if not n:
                yield 0, 1
                continue
            shift = min((n & -n).bit_length() - 1, twos)
            g = gcd(n % probe, probe)
            if g != 1 and not exact:
                # the part of n made of the probe's primes: every prime of n / g
                # that the probe has divides h, and h squares each round
                m = n // g
                h = gcd(m % g, g)
                while h != 1:
                    g *= h
                    m //= h
                    h *= h
                    h = gcd(m % h, h)
                g = gcd(odd % g, g)
            if g == 1:
                yield n >> shift, odd << (twos - shift)
            else:
                yield (n // g) >> shift, (odd // g) << (twos - shift)


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
    """Strike-one put payoff on the terminal states, in grid order: one at zero, else zero."""
    return {
        k: Fraction(1) if k == 0 else Fraction(0) for k in kkl_grid(params)[-1]
    }


def kkl_node_emm(params: KklParams, k: int, p: RationalLike) -> Vector:
    """Node measure at branching state k via the trinomial closed form."""
    require_count(k, 1, "only branching states k >= 1 carry a trinomial measure")
    fm = FactorModel(
        factors=tuple(Fraction(child, k) for child in _child_states(k)),
        rate=params.step_rate,
        spot=Fraction(k),
    )
    return trinomial_emms(fm).measure(p)


@dataclass(frozen=True)
class NodeWeights:
    """A lattice's discounted node measures as integers over one denominator.

    ``weights`` holds the integer (down, stay, up) weights of each distinct
    node measure, scaled by ``denominator`` (D); ``layers`` lists, for steps
    ``steps - 1`` down to 0, the index into ``weights`` of each branching
    node in state order; ``absorbed`` is the absorbed state's weight. D is
    the lcm of the reduced denominators of every discounted weight, the
    absorbed one included. Built by ``kkl_node_weights`` from integer closed
    forms and passed as ``emm_p``, one value serves every induction on the
    same lattice and measure.
    """

    params: KklParams
    denominator: int
    absorbed: int
    weights: tuple[tuple[int, int, int], ...]
    layers: tuple[tuple[int, ...], ...]


def kkl_node_weights(
    params: KklParams, emm_p: EmmParameter = Fraction(1, 2)
) -> NodeWeights:
    """The discounted node weights ``kkl_backward_induction`` prices with.

    ``emm_p`` is as there. Weights are built once per distinct (state,
    parameter), in the order the nodes are priced, so a bad parameter is
    reported at the first node that uses it. Each is an integer n over L
    (``_discounted_weights``), D is the lcm of every reduced L / gcd(n, L),
    and n / L becomes n D / L. A state's three weights sum to the absorbed
    weight b / (a + b), so D is a multiple of a + b.
    """
    if not kkl_viability(params):
        raise NotViableError(
            "no equivalent node measures: horizon * |rate| * (s0 + steps - 1) >= steps"
        )
    levels = kkl_grid(params)
    rate = params.step_rate
    a, b = rate.numerator, rate.denominator
    fixed = None if callable(emm_p) else _measure_parameter(emm_p)
    # each distinct measure's numerators (down, stay, up) and their common L
    weights: list[tuple[int, int, int, int]] = []
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
                if fixed is None:
                    _measure_parameter(p)
                index = weight_index[key] = len(weights)
                weights.append(_discounted_weights(a, b, k, p))
            row.append(index)
        layers.append(tuple(row))

    denominator = lcm(*(scale // gcd(n, scale) for *q, scale in weights for n in q))
    return NodeWeights(
        params=params,
        denominator=denominator,
        absorbed=b * (denominator // (a + b)),
        weights=tuple(
            (down * denominator // scale, stay * denominator // scale,
             up * denominator // scale)
            for down, stay, up, scale in weights
        ),
        layers=tuple(layers),
    )


def _discounted_weights(a: int, b: int, k: int, p: Fraction) -> tuple[int, int, int, int]:
    """State k's discounted (down, stay, up) numerators over L = 2 v (a + b), and L.

    The step rate r = a / b (b > 0) is viable, so |a| k < b. The measure is p
    times ((1 - k r) / 2, 0, (1 + k r) / 2) plus 1 - p times (0, 1 - k r, k r)
    for r >= 0 or (-k r, 1 + k r, 0) for r < 0, and the discount is b / (a + b).
    """
    u, v = p.numerator, p.denominator
    ka, w = k * a, 2 * (v - u)
    if a >= 0:
        down, stay, up = u * (b - ka), w * (b - ka), u * (b + ka) + w * ka
    else:
        down, stay, up = u * (b - ka) - w * ka, w * (b + ka), u * (b + ka)
    return down, stay, up, 2 * v * (a + b)


def kkl_backward_induction(
    params: KklParams,
    terminal: Mapping[int, RationalLike],
    emm_p: EmmParameter | NodeWeights = Fraction(1, 2),
) -> DerivativeSurface:
    """Discounted node-measure expectations, terminal layer backward to zero.

    ``emm_p`` selects the node measure: a single parameter in (0, 1) used
    everywhere, or a callable (step, state) -> parameter for per-node choice,
    or the ``NodeWeights`` that ``kkl_node_weights`` built from either for
    these ``params``. The absorbed state discounts its own next value;
    branching states average (down, stay, up) under the closed-form measure.

    Each layer is an integer vector over the scale T D^(steps - t) (see the
    module docstring), and the completion check that ``kkl_completion_check``
    reports is decided in the same pass; no Fraction arithmetic runs per
    node. The surface's values are reduced to Fractions only when read.

    Unless every terminal value is 0, a D^steps with more bits than
    ``_max_scale_bits`` raises ``LimitExceededError`` before the first
    layer. Every layer carries that factor, whatever its values reduce to,
    and the root's reduced denominator keeps most of it. The terminal's own
    scale T is the caller's input and is left out, so a perturbed terminal
    is refused exactly when the unperturbed one is.
    """
    node_weights = _node_weights_for(params, emm_p)
    steps = params.steps
    levels = kkl_grid(params)
    top: list[Fraction] = []
    for k in levels[-1]:
        if k not in terminal:
            raise InputError(f"terminal value missing for state {k}")
        top.append(rat(terminal[k]))
    denominator = node_weights.denominator
    integer_weights = node_weights.weights
    absorbed = node_weights.absorbed

    scaled_top, terminal_scale = scaled_integers(top)
    limit = _max_scale_bits()
    if limit and any(top):
        bits = (denominator**steps).bit_length()
        if bits > limit:
            raise LimitExceededError(
                f"lattice values over {steps} steps need a {bits}-bit scale, over the "
                f"limit of {limit} bits past which their root is too long to print"
            )

    layers: list[list[int]] = [[]] * (steps + 1)
    layers[steps] = scaled_top
    bad_layers: list[list[tuple[int, int]]] = []
    for t, row in zip(reversed(range(steps)), node_weights.layers):
        nxt = layers[t + 1]
        low = levels[t][0]
        cur: list[int] = []
        bad: list[tuple[int, int]] = []
        if low == 0:
            # zero absorbs, and stays at index 0 of the next layer
            cur.append(absorbed * nxt[0])
        first = max(low, 1)
        # branch j's down child is index j: the first's is the next layer's lowest state
        for j, index in enumerate(row):
            down, stay, up = nxt[j], nxt[j + 1], nxt[j + 2]
            w_down, w_stay, w_up = integer_weights[index]
            cur.append(w_down * down + w_stay * stay + w_up * up)
            if down + up == 2 * stay:
                bad.append((t, first + j))
        layers[t] = cur
        bad_layers.append(bad)
    violations = tuple(node for bad in reversed(bad_layers) for node in bad)
    return DerivativeSurface(
        steps=steps,
        values=LatticeValues(params.s0, layers, terminal_scale, denominator),
        violations=violations,
    )


def _node_weights_for(params: KklParams, emm_p: EmmParameter | NodeWeights) -> NodeWeights:
    """``emm_p`` itself when it is ``NodeWeights`` built for ``params``, else built from it."""
    if not isinstance(emm_p, NodeWeights):
        return kkl_node_weights(params, emm_p)
    if emm_p.params != params:
        raise InputError("node weights were built for a different lattice")
    return emm_p


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
    emm_p: EmmParameter | NodeWeights = Fraction(1, 2),
) -> PerturbationResult:
    """Nudge the put's terminal values until the completion check is empty.

    Each terminal state gets an additive shift epsilon * u with u uniform on
    {1/65536, ..., 65535/65536}, seeded and resampled wholesale on failure.
    The vanishing second differences cut out finitely many hyperplanes, so a
    random rational point misses them essentially always; the retry budget
    exists only to make the failure mode explicit rather than silent.
    ``emm_p`` is as in ``kkl_backward_induction``; its node weights are built
    once and serve every attempt.
    """
    eps = rat(epsilon)
    if eps <= 0:
        raise InputError("perturbation size must be positive")
    base = put_terminal(params)
    weights = _node_weights_for(params, emm_p)
    rng = random.Random(seed)
    for attempt in range(1, _PERTURB_ATTEMPTS + 1):
        terminal = {
            k: v + eps * Fraction(rng.randrange(1, _PERTURB_DENOMINATOR),
                                  _PERTURB_DENOMINATOR)
            for k, v in base.items()
        }
        surface = kkl_backward_induction(params, terminal, weights)
        if not kkl_completion_check(surface):
            return PerturbationResult(terminal=terminal, surface=surface,
                                      attempts=attempt)
    raise PerturbationError(
        f"no completing perturbation found in {_PERTURB_ATTEMPTS} attempts"
    )


def write_surface_csv(surface: DerivativeSurface, stream: TextIO) -> None:
    """Rows t,k,value by step then state, values as reduced rational strings.

    Each layer is reduced and written with one ``write``, so the whole CSV is
    never held in memory; a denominator that several of its values share is
    formatted once. A value too long to print raises ``LimitExceededError``,
    as ``format_rational`` does.
    """
    stream.write("t,k,value\n")
    for t, low, reduced in surface.values.layers():
        pairs = list(reduced)
        # each distinct denominator's line ending, "\n" for 1
        endings: dict[int, str] = {1: "\n"}
        lines = []
        try:
            for k, (n, d) in enumerate(pairs, low):
                ending = endings.get(d)
                if ending is None:
                    ending = endings[d] = f"/{d}\n"
                lines.append(f"{t},{k},{n}{ending}")
            stream.write("".join(lines))
        except ValueError:
            # name the value too long to print, as format_ratio does
            for n, d in pairs:
                format_ratio(n, d)
            raise
