"""Market verdicts, read off one analysis record per market.

``characterize`` is the only place a one-period market is analysed. It runs
one generator enumeration and reads the rank verdicts off one exact
elimination of the market's system, the one the enumeration reads too. It
returns an ``EmmCharacterization``; every verdict, witness, price bound and
completion plan in this module is a view of that record. Nothing is cached:
a caller that meets one market many times (an event tree) keeps its records.

Arbitrage-freeness is existence of an equivalent martingale measure, which
holds exactly when every outcome carries positive mass under some generator.
Completeness adds affine independence of the payoff columns, equivalently row
rank b of the ones-augmented payoff matrix, equivalently a unique measure.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InputError, NotViableError
from .geometry import DEFAULT_MAX_OUTCOMES, GeneratorSet, enumerate_generators
from .market import OnePeriodMarket, build_system
from .rationals import Matrix, RationalLike, Vector, rat, scaled_integers, unit_vector, vector
from .rationals import rank  # noqa: F401 -- wrapped by name in benchmarks/tracing.py


@dataclass(frozen=True)
class EmmCharacterization:
    """The one analysis of a market: generators, supports and verdicts.

    A convex combination sum(a_j * p^j) is an equivalent martingale measure
    exactly when for every outcome i some generator j in outcome_support[i]
    has a_j > 0. An equivalent measure exists at all exactly when no
    outcome_support entry is empty.

    ``witness`` is the uniform average of the generators (None when there
    are none): always a martingale measure, and equivalent precisely when
    ``emm_exists``, since averaging covers every generator's support. It is
    the mixture kernel ``_mix`` at equal integer weights, summed off the
    generators' rays with one Fraction per outcome.
    ``complete`` is viability plus row rank b of the ones-augmented payoff
    matrix. ``completing_outcomes`` are the outcomes whose unit payoffs,
    added smallest index first, raise that rank to b; empty exactly when the
    rank is already b.
    """

    generators: GeneratorSet
    outcome_support: tuple[tuple[int, ...], ...]
    emm_exists: bool
    witness: Vector | None
    complete: bool
    completing_outcomes: tuple[int, ...]


@dataclass(frozen=True)
class MeasureCheck:
    is_martingale: bool
    is_equivalent: bool


@dataclass(frozen=True)
class PriceBounds:
    """Extremes of the discounted payoff value over the generators.

    An endpoint is attained by an equivalent measure exactly when the
    interval is a single point (a replicable payoff); otherwise it is open
    at both ends. On a viable market the equivalent measures are the
    relative interior of the measure polytope, and a linear value reaches
    its extreme there only if it is constant on the whole polytope.
    """

    low: Fraction
    high: Fraction

    @property
    def low_attained_by_emm(self) -> bool:
        return self.low == self.high

    high_attained_by_emm = low_attained_by_emm


@dataclass(frozen=True)
class CompletionPlan:
    """Assets that raise the augmented rank to b, with their price freedom.

    ``price_map[k][j]`` is the discounted value of added row k under
    generator j; admissible initial prices are its combinations under weights
    obeying the support conditions in ``characterization``. ``prices`` are
    the concrete values under ``weights``.
    """

    added_payoff_rows: Matrix
    price_map: tuple[Vector, ...]
    characterization: EmmCharacterization
    weights: Vector
    prices: Vector

    @property
    def is_empty(self) -> bool:
        return self.added_payoff_rows.rows == 0


def characterize(
    mkt: OnePeriodMarket, *, max_outcomes: int = DEFAULT_MAX_OUTCOMES
) -> EmmCharacterization:
    """Enumerate generators once; read the rank facts off ``sys.reduced``.

    Adding the unit payoff e_i raises the augmented rank exactly when no
    vector of the current row space has its last nonzero entry at i, that
    is, when i is not a pivot of the system's reduction: those outcomes
    complete the market, which is complete when viable and there are none.
    ``outcome_support`` is ``gens.supports`` transposed, and ``witness``
    the rays' mean, ``_mix`` with weights 1 over the generator count.
    """
    sys = build_system(mkt)
    gens = enumerate_generators(sys, max_outcomes=max_outcomes)
    b = mkt.outcomes
    by_outcome: list[list[int]] = [[] for _ in range(b)]
    for j, outcomes in enumerate(gens.supports):
        for i in outcomes:
            by_outcome[i].append(j)
    support = tuple(map(tuple, by_outcome))
    emm_exists = all(support)
    pivots = sys.reduced[1]
    completing = tuple(i for i in range(b) if i not in pivots)
    return EmmCharacterization(
        generators=gens,
        outcome_support=support,
        emm_exists=emm_exists,
        witness=_mix(gens, (1,) * len(gens), len(gens)) if len(gens) else None,
        complete=emm_exists and not completing,
        completing_outcomes=completing,
    )


def _mix(gens: GeneratorSet, weights: Sequence[int], den: int) -> Vector:
    """The mixture of the generators under weights w_j / den, w_j integers.

    Generator j is x^j / t_j; scaled to the common t = lcm(t_j), entry i of
    the mixture is the integer sum of w_j * x^j_i * (t / t_j) over den * t.
    """
    b = gens.outcomes
    rays = gens.rays
    t = lcm(*(v[b] for v in rays))
    sums = [0] * b
    for w, v in zip(weights, rays):
        if w:
            scale = w * (t // v[b])
            for i in range(b):
                if v[i]:
                    sums[i] += v[i] * scale
    den *= t
    return tuple(Fraction(x, den) for x in sums)


def is_arbitrage_free(
    mkt: OnePeriodMarket, *, max_outcomes: int = DEFAULT_MAX_OUTCOMES
) -> tuple[bool, Vector | None]:
    """Verdict plus witness measure (see ``EmmCharacterization.witness``)."""
    char = characterize(mkt, max_outcomes=max_outcomes)
    return char.emm_exists, char.witness


def is_complete(
    mkt: OnePeriodMarket, *, max_outcomes: int = DEFAULT_MAX_OUTCOMES
) -> bool:
    """Arbitrage-free and the ones-augmented payoff matrix has row rank b."""
    return characterize(mkt, max_outcomes=max_outcomes).complete


def verify_measure(mkt: OnePeriodMarket, q: Iterable[RationalLike]) -> MeasureCheck:
    """Check a candidate measure against the market, exactly."""
    qv = vector(q)
    if len(qv) != mkt.outcomes:
        raise InputError(f"measure has {len(qv)} entries for {mkt.outcomes} outcomes")
    sys = build_system(mkt)
    is_mart = (
        all(x >= 0 for x in qv)
        and sum(qv) == 1
        and sys.matrix.mul_vec(qv) == sys.rhs
    )
    return MeasureCheck(
        is_martingale=is_mart,
        is_equivalent=is_mart and all(x > 0 for x in qv),
    )


def price_bounds(
    mkt: OnePeriodMarket,
    payoff: Iterable[RationalLike],
    *,
    max_outcomes: int = DEFAULT_MAX_OUTCOMES,
) -> PriceBounds:
    """Range of arbitrage-free prices of a payoff on a viable market.

    Closed at both ends exactly when the payoff is replicable (a single
    price); otherwise open at both ends. The payoff is scaled to integers and
    each generator's value read off its ray, so only the two extreme values
    become Fractions and reach ``bounds_from_values``.
    """
    c = vector(payoff)
    b = mkt.outcomes
    if len(c) != b:
        raise InputError(f"payoff has {len(c)} entries for {b} outcomes")
    char = characterize(mkt, max_outcomes=max_outcomes)
    if not char.emm_exists:
        raise NotViableError("price bounds are undefined without an equivalent measure")
    # generator j's value is (s_j / t_j) / scale, with s_j the integer payoff's
    # dot with x^j; t_j > 0, so the extremes are picked by cross-multiplying
    cs, scale = scaled_integers(c)
    rays = char.generators.rays
    values = [(sum([a * x for a, x in zip(cs, v) if x]), v[b]) for v in rays]
    least = most = values[0]
    for s, t in values:
        if s * least[1] < least[0] * t:
            least = (s, t)
        elif s * most[1] > most[0] * t:
            most = (s, t)
    extremes = [Fraction(s, t * scale) for s, t in (least, most)]
    return bounds_from_values(extremes, 1 + mkt.rate)


def bounds_from_values(values: Iterable[RationalLike], discount: RationalLike) -> PriceBounds:
    """Price bounds from each generator's undiscounted value of a payoff.

    The values and the discount are coerced by ``vector`` and ``rat``. Only
    the two extreme values are divided by ``discount``; a negative one (a
    rate below -1) swaps them. Attainment is read off the result, so the
    values must come from the generators of a viable market.
    """
    values, discount = vector(values), rat(discount)
    least, most = min(values), max(values)
    if discount < 0:
        least, most = most, least
    return PriceBounds(low=least / discount, high=most / discount)


def mixture(gens: GeneratorSet, weights: Iterable[RationalLike]) -> Vector:
    """Convex combination of the generators under the given weights.

    The weights are coerced by ``vector``, scaled to integers over the lcm of
    their denominators and mixed by ``_mix``, off the rays.
    """
    w = vector(weights)
    if len(w) != len(gens):
        raise InputError("one weight per generator required")
    return _mix(gens, *scaled_integers(w))


def validate_weights(
    char: EmmCharacterization, weights: Iterable[RationalLike]
) -> Vector:
    """Weights must be a convex combination meeting every support condition.

    Equivalently, the resulting mixture must be strictly positive in every
    outcome, i.e. an equivalent martingale measure.
    """
    return _weights_and_mixture(char, weights)[0]


def _weights_and_mixture(
    char: EmmCharacterization, weights: Iterable[RationalLike]
) -> tuple[Vector, Vector]:
    """``validate_weights``'s weights, with the mixture it checked."""
    w = vector(weights)
    if len(w) != len(char.generators):
        raise InputError(
            f"{len(w)} weights for {len(char.generators)} generators"
        )
    if any(x < 0 for x in w):
        raise InputError("weights must be nonnegative")
    if sum(w) != 1:
        raise InputError("weights must sum to 1")
    blended = mixture(char.generators, w)
    if any(x <= 0 for x in blended):
        dead = [i for i, x in enumerate(blended) if x <= 0]
        raise InputError(
            f"weights leave zero mass on outcome(s) {dead}; support conditions violated"
        )
    return w, blended


def complete_market(
    mkt: OnePeriodMarket,
    weights: Iterable[RationalLike] | None = None,
    *,
    max_outcomes: int = DEFAULT_MAX_OUTCOMES,
) -> CompletionPlan:
    """Add standard-basis payoff rows until the augmented rank reaches b.

    The rows are the unit payoffs of ``completing_outcomes``: the greedy
    choice, smallest outcome index first, of those that increase the rank of
    the ones-plus-payoffs matrix; an already complete market yields an empty
    plan. Prices of the added assets are the discounted mixture values under
    ``weights`` (uniform by default, which is always admissible on a viable
    market). The plan is read off ``characterize``'s record, as in ``complete_tree``.
    """
    return _plan_from_record(mkt, characterize(mkt, max_outcomes=max_outcomes), weights)


def _plan_from_record(
    mkt: OnePeriodMarket, char: EmmCharacterization, weights: Iterable[RationalLike] | None
) -> CompletionPlan:
    """The completion plan read off ``char``; uniform weights price at ``char.witness``.

    ``price_map`` is read off the generators' integer rays, one Fraction per
    nonzero entry, and explicit weights are mixed off the rays by
    ``mixture``, so ``char.generators`` forms no Fraction vectors here.
    """
    if not char.emm_exists:
        raise NotViableError("only arbitrage-free markets can be completed")
    b = mkt.outcomes
    k = len(char.generators)
    if weights is None:
        w = (Fraction(1, k),) * k
        blended = char.witness
    else:
        w, blended = _weights_and_mixture(char, weights)

    added = [unit_vector(i, b) for i in char.completing_outcomes]

    # a unit payoff's value under generator x / t is x_i / t, discounted by
    # num / den: x_i * den / (t * num), whose sign Fraction normalises; off
    # its support a generator is 0, which needs no dividing
    discount = 1 + mkt.rate
    num, den = discount.numerator, discount.denominator
    rays = char.generators.rays
    zero = Fraction(0)
    price_map = tuple(
        tuple(Fraction(v[i] * den, v[b] * num) if v[i] else zero for v in rays)
        for i in char.completing_outcomes
    )
    prices = tuple(blended[i] / discount for i in char.completing_outcomes)
    return CompletionPlan(
        added_payoff_rows=Matrix(tuple(added), b),
        price_map=price_map,
        characterization=char,
        weights=w,
        prices=prices,
    )


def apply_completion(mkt: OnePeriodMarket, plan: CompletionPlan) -> OnePeriodMarket:
    """Extended market with the plan's assets traded at the plan's prices."""
    if plan.is_empty:
        return mkt
    return OnePeriodMarket(
        rate=mkt.rate,
        spot=mkt.spot + plan.prices,
        payoffs=mkt.payoffs.with_rows(plan.added_payoff_rows.entries),
        probabilities=mkt.probabilities,
    )
