"""One-period multinomial market model and its martingale linear system.

A market with b outcomes, n risky assets, and a riskless rate r induces the
linear system ``payoffs @ q == (1 + r) * spot`` whose solutions inside the
standard simplex are exactly the martingale measures. One reduction of each
system (``MartingaleSystem.reduced``) yields its rank facts and its vertices.

The builders coerce rationals by ``rat`` and ``make_market`` its ``outcomes``
by ``require_count`` (see ``rationals``); ``OnePeriodMarket`` and
``MartingaleSystem`` trust their Fraction fields, and the reader checks shape.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InputError
from .rationals import Matrix, RationalLike, Vector, eliminate, format_rational, rat
from .rationals import require_count, scaled_integers, vector, vectors


@dataclass(frozen=True)
class OnePeriodMarket:
    """Spot prices now, payoff matrix over b outcomes one period later.

    ``payoffs`` is n x b with entry (i, w) the price of asset i in outcome w.
    The physical probabilities are optional; when present they are validated
    for strict positivity (the equivalence class of measures they define is
    all the analysis ever uses) and play no further computational role.
    """

    rate: Fraction
    spot: Vector
    payoffs: Matrix
    probabilities: Vector | None = None

    def __post_init__(self) -> None:
        if self.payoffs.cols < 1:
            raise InputError("a market needs at least one outcome")
        if self.payoffs.rows != len(self.spot):
            raise InputError(
                f"{len(self.spot)} spot prices for {self.payoffs.rows} payoff rows"
            )
        if 1 + self.rate == 0:
            raise InputError("rate -1 makes the one-period discount undefined")
        if self.probabilities is not None:
            if len(self.probabilities) != self.payoffs.cols:
                raise InputError("one probability per outcome required")
            if any(p <= 0 for p in self.probabilities):
                raise InputError("physical probabilities must be strictly positive")
            if sum(self.probabilities) != 1:
                raise InputError("physical probabilities must sum to 1")

    @property
    def outcomes(self) -> int:
        return self.payoffs.cols

    @property
    def assets(self) -> int:
        return self.payoffs.rows


def make_market(
    rate: RationalLike,
    spot: Iterable[RationalLike],
    payoffs: Iterable[Iterable[RationalLike]],
    probabilities: Iterable[RationalLike] | None = None,
    outcomes: int | None = None,
) -> OnePeriodMarket:
    """Coercing constructor: accepts ints, Fractions, and rational strings.

    ``outcomes`` is only needed when there are no risky assets, since an empty
    payoff list cannot reveal b; when given, it is an int.
    """
    if outcomes is not None:
        require_count(outcomes, 1, "outcomes must be an integer",
                      below="a market needs at least one outcome")
    payoff_rows = vectors(payoffs)
    if not payoff_rows and outcomes is None:
        raise InputError("outcome count required for a market with no assets")
    matrix = Matrix(payoff_rows, len(payoff_rows[0]) if payoff_rows else outcomes)
    if outcomes is not None and matrix.cols != outcomes:
        raise InputError(f"payoff rows have {matrix.cols} columns, outcomes={outcomes}")
    return OnePeriodMarket(
        rate=rat(rate),
        spot=vector(spot),
        payoffs=matrix,
        probabilities=None if probabilities is None else vector(probabilities),
    )


def market_from_system(
    matrix: Iterable[Iterable[RationalLike]] | Matrix,
    rhs: Iterable[RationalLike],
    rate: RationalLike = 0,
    outcomes: int | None = None,
) -> OnePeriodMarket:
    """Market whose martingale system is exactly (matrix, rhs).

    Spot prices are rhs / (1 + rate), so feeding a raw linear system through
    the market layer reproduces it unchanged.
    """
    m = matrix if isinstance(matrix, Matrix) else Matrix.from_rows(matrix, outcomes)
    r = rat(rate)
    if 1 + r == 0:
        raise InputError("rate -1 makes the one-period discount undefined")
    spot = tuple(v / (1 + r) for v in vector(rhs))
    return OnePeriodMarket(rate=r, spot=spot, payoffs=m)


@dataclass(frozen=True)
class MartingaleSystem:
    """Linear part of the martingale conditions: matrix q = rhs.

    A vector q with q >= 0, sum(q) == 1 and matrix @ q == rhs is exactly a
    martingale measure of the originating market; ``reduced`` is the one
    elimination of these equations that the analysis reads.
    """

    matrix: Matrix
    rhs: Vector

    def __post_init__(self) -> None:
        if self.matrix.rows != len(self.rhs):
            raise InputError("one right-hand side entry per asset row required")

    @property
    def outcomes(self) -> int:
        return self.matrix.cols

    @cached_property
    def reduced(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The system reduced once: its nonzero integer rows and its pivots.

        The rows [1 ... 1 | 1] and [matrix_i | rhs_i], scaled to integers,
        go through one ``eliminate`` with the outcome columns last to first
        and the rhs last, and come back in column order, one row per pivot:
        row i is nonzero at ``pivots[i]``, 0 at later outcomes and other pivots.
        The pivots are ascending outcome indices, rank [1; matrix] of them,
        then ``outcomes`` when the rhs holds one (no solution). The other
        outcomes are those whose unit payoffs, added smallest first, raise
        that rank. Cached, not a field: equality and hashing ignore it.
        """
        b = self.outcomes
        rows = [[1] * (b + 1)] + [
            scaled_integers(row[::-1] + (c,))[0] for row, c in zip(self.matrix.entries, self.rhs)
        ]
        pivots = eliminate(rows, b + 1)
        order = sorted(zip((b - 1 - p if p < b else b for p in pivots), rows))
        return tuple(tuple(r[:b][::-1] + r[b:]) for _, r in order), tuple(p for p, _ in order)


def build_system(mkt: OnePeriodMarket) -> MartingaleSystem:
    """System matrix is the payoff matrix; rhs_i = (1 + r) * spot_i."""
    grown = tuple((1 + mkt.rate) * s for s in mkt.spot)
    return MartingaleSystem(matrix=mkt.payoffs, rhs=grown)


def system_from_rows(
    rows: Iterable[Iterable[RationalLike]],
    rhs: Iterable[RationalLike],
    outcomes: int | None = None,
) -> MartingaleSystem:
    """Convenience for writing systems down directly in tests and scripts."""
    return MartingaleSystem(Matrix.from_rows(rows, outcomes), vector(rhs))


def augmented_matrix(sys: MartingaleSystem) -> Matrix:
    """The (n+1) x b matrix with a leading row of ones above the payoff rows.

    Row rank b of this matrix is the completeness criterion on a viable
    market, and its kernel measures how far the payoff columns are from
    affine independence.
    """
    ones = (Fraction(1),) * sys.outcomes
    return Matrix((ones,) + sys.matrix.entries, sys.outcomes)


def market_to_json_dict(mkt: OnePeriodMarket) -> dict:
    doc: dict = {
        "rate": format_rational(mkt.rate),
        "spot": [format_rational(s) for s in mkt.spot],
        "payoffs": [[format_rational(x) for x in row] for row in mkt.payoffs.entries],
        "outcomes": mkt.outcomes,
    }
    if mkt.probabilities is not None:
        doc["probabilities"] = [format_rational(p) for p in mkt.probabilities]
    return doc


def market_from_json_dict(doc: Mapping) -> OnePeriodMarket:
    """Parse the market document: all numbers are rational strings.

    ``probabilities`` is optional; ``outcomes`` is optional except for markets
    with an empty payoff list. ``make_market`` checks every value.
    """
    if not isinstance(doc, Mapping):
        raise InputError("market document must be a JSON object")
    try:
        rate = doc["rate"]
        spot = doc["spot"]
        payoffs = doc["payoffs"]
    except KeyError as missing:
        raise InputError(f"market document lacks key {missing}") from None
    if not isinstance(payoffs, list):
        raise InputError("payoffs must be a list of lists")
    return make_market(
        rate=rate,
        spot=spot,
        payoffs=payoffs,
        probabilities=doc.get("probabilities"),
        outcomes=doc.get("outcomes"),
    )
