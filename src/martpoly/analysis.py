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

from .errors import InputError, NotViableError
from .geometry import DEFAULT_MAX_OUTCOMES, GeneratorSet, enumerate_generators
from .market import OnePeriodMarket, build_system
from .rationals import (
    Matrix,
    RationalLike,
    Vector,
    dot,
    mean_vector,
    rank,  # noqa: F401 -- wrapped by name in benchmarks/tracing.py
    unit_vector,
    vector,
)


@dataclass(frozen=True)
class EmmCharacterization:
    """The one analysis of a market: generators, supports and verdicts.

    A convex combination sum(a_j * p^j) is an equivalent martingale measure
    exactly when for every outcome i some generator j in outcome_support[i]
    has a_j > 0. An equivalent measure exists at all exactly when no
    outcome_support entry is empty.

    ``witness`` is the uniform average of the generators (None when there
    are none): always a martingale measure, and equivalent precisely when
    ``emm_exists``, since averaging covers every generator's support.
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
    generators achieving it jointly put mass on every outcome; otherwise the
    price interval is open at that end.
    """

    low: Fraction
    high: Fraction
    low_attained_by_emm: bool
    high_attained_by_emm: bool


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
    ``outcome_support`` is ``gens.supports`` transposed.
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
        witness=mean_vector(gens.generators) if len(gens) else None,
        complete=emm_exists and not completing,
        completing_outcomes=completing,
    )


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
    """Range of arbitrage-free prices of a payoff on a viable market."""
    c = vector(payoff)
    if len(c) != mkt.outcomes:
        raise InputError(f"payoff has {len(c)} entries for {mkt.outcomes} outcomes")
    char = characterize(mkt, max_outcomes=max_outcomes)
    if not char.emm_exists:
        raise NotViableError("price bounds are undefined without an equivalent measure")
    discount = 1 + mkt.rate
    values = [dot(c, g) / discount for g in char.generators]
    return bounds_from_values(values, char.generators.supports, mkt.outcomes)


def bounds_from_values(
    values: Sequence[Fraction], supports: Sequence[Iterable[int]], outcomes: int
) -> PriceBounds:
    """Price bounds from each generator's value and positive-mass outcomes.

    An endpoint is attained by an equivalent measure exactly when the
    generators taking that value jointly cover all ``outcomes``.
    """
    low, high = min(values), max(values)

    def attained(target: Fraction) -> bool:
        covered: set[int] = set()
        for v, support in zip(values, supports):
            if v == target:
                covered.update(support)
        return len(covered) == outcomes

    return PriceBounds(
        low=low,
        high=high,
        low_attained_by_emm=attained(low),
        high_attained_by_emm=attained(high),
    )


def mixture(gens: GeneratorSet, weights: Sequence[Fraction]) -> Vector:
    """Convex combination of the generators under the given weights.

    Entry i is the ``dot`` of the weights with the generators' entries at i.
    """
    if len(weights) != len(gens):
        raise InputError("one weight per generator required")
    return tuple(
        dot(weights, [g[i] for g in gens.generators]) for i in range(gens.outcomes)
    )


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
    """The completion plan read off ``char``; uniform weights price at ``char.witness``."""
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

    # a unit payoff's value under a measure is that measure's entry
    discount = 1 + mkt.rate
    price_map = tuple(
        tuple(g[i] / discount for g in char.generators)
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
