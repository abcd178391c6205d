"""Exact rational scalars, vectors, matrices, and linear-system solving.

Values everywhere downstream (market systems, polytope vertices, lattice
pricing) are canonical ``fractions.Fraction``s. Elimination itself runs
fraction-free: each row is scaled once to integers by ``scaled_integers``,
``eliminate`` reduces the integer rows, and ``rref`` divides by the pivots
only at the end. No floating point enters any decision path: the verdicts
rest on strict inequalities and exact ranks, and a tolerance would corrupt
boundary cases such as measures sitting on a simplex face.

A caller's numbers are read by two rules. Every public function coerces a
rational on entry through ``rat`` (``vector``, ``vectors`` for lists): an int,
a Fraction or a rational string, never a float, a Decimal or a bool. A count
or an integer label goes through ``require_count``, an int that is not a bool
with a floor, run by the type that holds it. ``Matrix``, ``OnePeriodMarket``,
``MartingaleSystem`` and ``TrinomialEmmFamily`` trust their Fraction fields;
their builders coerce them.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .errors import InputError, LimitExceededError, quoted

Vector = tuple[Fraction, ...]
RationalLike = Union[Fraction, int, str]

_DECIMAL_WITH_EXPONENT = re.compile(
    r"\s*[-+]?(?P<whole>[\d_]*)(?:\.(?P<frac>[\d_]*))?[eE](?P<exp>[-+]?[\d_]+)\s*\Z"
)


def _check_exponent(text: str) -> None:
    """Refuse a decimal whose exponent would build an integer too long to print.

    ``Fraction`` scales by ``10**exponent`` before reducing, so "1e200000"
    would cost a 664k-bit integer. The bound is the interpreter's own limit
    on decimal digits, which ``int`` already applies to digit strings and
    ``str`` needs to format the result.
    """
    m = _DECIMAL_WITH_EXPONENT.match(text)
    if m is None:
        return
    whole, frac = m["whole"].replace("_", ""), (m["frac"] or "").replace("_", "")
    shift = int(m["exp"]) - len(frac)
    if shift >= 0:
        digits = max(len((whole + frac).lstrip("0")), 1) + shift
    else:
        digits = 1 - shift
    limit = sys.int_info.default_max_str_digits
    if digits > limit:
        raise InputError(
            f"rational {quoted(text)} would need {digits} decimal digits, over the limit of {limit}"
        )


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer string, or a finite decimal into canonical form.

    Decimal strings convert exactly ("0.25" -> 1/4), never through binary
    floating point. A decimal exponent may not push the scaled integer past
    the interpreter's limit on decimal digits.
    """
    try:
        _check_exponent(text)
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise InputError(f"zero denominator in rational {quoted(text)}") from None
    except (ValueError, TypeError):
        raise InputError(f"malformed rational {quoted(text)}") from None


def format_rational(value: Fraction) -> str:
    """Canonical string form: "p/q", or just "p" when the denominator is 1.

    A value past the interpreter's limit on decimal digits raises
    ``LimitExceededError``, which names the limit.
    """
    return _reduced_text(value.numerator, value.denominator)


def format_ratio(num: int, den: int) -> str:
    """``format_rational(Fraction(num, den))`` for ``den > 0``, without the Fraction.

    The pair is reduced by one gcd; the bytes, and the error past the digit
    limit, are ``format_rational``'s.
    """
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return _reduced_text(num, den)


def _reduced_text(num: int, den: int) -> str:
    """The text of the reduced ratio num/den, den > 0; the one too-long refusal."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        bits = num.bit_length() + den.bit_length()
        raise LimitExceededError(
            f"a {bits}-bit rational is too long to print: over the limit of "
            f"{sys.get_int_max_str_digits()} decimal digits"
        ) from None


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or rational string to an exact Fraction.

    Floats are rejected on purpose; they carry binary rounding error. Bools
    are rejected too, though Python counts them as ints.
    """
    if isinstance(value, bool):
        raise InputError(f"cannot interpret {quoted(value)} as an exact rational")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InputError(f"cannot interpret {quoted(value)} as an exact rational")


def require_count(
    value: object, floor: int | None, refusal: str, *names: object, below: str | None = None
) -> int:
    """``value`` if it is an int, not a bool, and at least ``floor`` (None: no floor).

    Else ``InputError(below)`` for an int under the floor, if ``below`` is
    given, or ``InputError(refusal)``; ``names``, quoted, fill the message's
    ``{}`` fields, so it is built only when raised.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(refusal.format(*map(quoted, names)))
    if floor is not None and value < floor:
        raise InputError((below or refusal).format(*map(quoted, names)))
    return value


def _require_list(values: object, of: str) -> None:
    """Refuse a value that is not a list: a string, a mapping or a scalar."""
    # lists and tuples skip the abstract-class checks, a microsecond a call
    if not isinstance(values, (list, tuple)) and (
        isinstance(values, (str, bytes, Mapping)) or not isinstance(values, Iterable)
    ):
        raise InputError(f"expected a list of {of}, got {quoted(values)}")


def vector(values: Iterable[RationalLike]) -> Vector:
    """Coerce a list of rationals; a string, a mapping or a scalar is not one."""
    _require_list(values, "rationals")
    return tuple(rat(v) for v in values)


def vectors(rows: Iterable[Iterable[RationalLike]]) -> tuple[Vector, ...]:
    """Coerce a list of rows, each a list of rationals, as ``vector`` does."""
    _require_list(rows, "rows")
    return tuple(vector(row) for row in rows)


def dot(u: Iterable[RationalLike], v: Iterable[RationalLike]) -> Fraction:
    """Exact dot product of two lists of rationals, each coerced by ``vector``."""
    u, v = vector(u), vector(v)
    if len(u) != len(v):
        raise InputError(f"dot product of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mean_vector(vs: Iterable[Iterable[RationalLike]]) -> Vector:
    """Componentwise average of a nonempty family of equal-length vectors, by ``vectors``."""
    vs = vectors(vs)
    if not vs:
        raise InputError("mean of an empty family of vectors")
    width = len(vs[0])
    for v in vs:
        if len(v) != width:
            raise InputError(f"mean of vectors of lengths {width} and {len(v)}")
    return tuple(sum(col, Fraction(0)) / len(vs) for col in zip(*vs))


def unit_vector(index: int, length: int) -> Vector:
    return tuple(Fraction(1 if j == index else 0) for j in range(length))


@dataclass(frozen=True)
class Matrix:
    """Immutable rational matrix in row-major layout.

    The column count is stored explicitly so a matrix with zero rows (a market
    with no risky assets) still knows how wide it is.
    """

    entries: tuple[Vector, ...]
    cols: int

    def __post_init__(self) -> None:
        require_count(self.cols, 0, "column count must be an integer",
                      below="negative column count")
        for row in self.entries:
            if len(row) != self.cols:
                raise InputError(
                    f"ragged matrix: expected {self.cols} columns, got {len(row)}"
                )

    @classmethod
    def from_rows(
        cls, rows: Iterable[Iterable[RationalLike]], cols: int | None = None
    ) -> "Matrix":
        converted = vectors(rows)
        if cols is None:
            if not converted:
                raise InputError("column count required for a matrix with no rows")
            cols = len(converted[0])
        return cls(converted, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def mul_vec(self, v: Sequence[RationalLike]) -> Vector:
        if len(v) != self.cols:
            raise InputError(f"matrix has {self.cols} columns, vector has {len(v)}")
        return tuple(dot(row, v) for row in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(self.column(j) for j in range(self.cols)), self.rows)

    def with_rows(self, extra: Iterable[Iterable[RationalLike]]) -> "Matrix":
        return Matrix(self.entries + vectors(extra), self.cols)

    def select_columns(self, indices: Sequence[int]) -> "Matrix":
        return Matrix(
            tuple(tuple(row[j] for j in indices) for row in self.entries),
            len(indices),
        )


@dataclass(frozen=True)
class Echelon:
    """Reduced row echelon form together with its pivot columns."""

    matrix: Matrix
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def scaled_integers(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Fractions or ints times the lcm of their denominators, and that lcm (1 for none)."""
    row = list(values)
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def eliminate(rows: list[list[int]], cols: int) -> list[int]:
    """Fraction-free Gauss-Jordan on integer rows, in place; the pivot columns.

    Row i is replaced by ``p * row_i - f * pivot_row`` (p the pivot, f the
    entry of row i in the pivot column) and then divided by the gcd of its
    entries, so every row stays a nonzero integer multiple of the matching
    row of Fraction Gauss-Jordan on the same input. Pivots, zero patterns
    and signs therefore agree with it: after the call, row i < rank has its
    pivot at ``pivots[i]``, zeros in the other pivot columns, and the
    reduced entry at column j is ``rows[i][j] / rows[i][pivots[i]]``. Rows
    from the rank on are zero.
    """
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                combined = [p * a - f * b for a, b in zip(row, prow)]
                g = gcd(*combined)
                rows[i] = [x // g for x in combined] if g > 1 else combined
        pivots.append(c)
        r += 1
    return pivots


def rref(m: Matrix) -> Echelon:
    """Reduced row echelon form, exactly, with canonical Fraction entries.

    The input rows are cleared of denominators and reduced by ``eliminate``;
    each nonzero row is then divided by its pivot. The result is the unique
    RREF of the input.
    """
    rows = [scaled_integers(r)[0] for r in m.entries]
    pivots = eliminate(rows, m.cols)
    zero = (Fraction(0),) * m.cols
    reduced = tuple(
        tuple(Fraction(x, row[pc]) for x in row) for row, pc in zip(rows, pivots)
    ) + (zero,) * (len(rows) - len(pivots))
    return Echelon(Matrix(reduced, m.cols), tuple(pivots))


def rank(m: Matrix) -> int:
    return rref(m).rank


@dataclass(frozen=True)
class SolutionSpace:
    """Exact solution set of a linear system M x = c.

    kind is one of "inconsistent", "unique", "affine". For consistent systems
    every x = particular + sum(t_i * basis_i) solves the system exactly, and
    the basis spans the homogeneous solutions.
    """

    kind: str
    particular: Vector | None
    basis: tuple[Vector, ...]

    @property
    def is_consistent(self) -> bool:
        return self.kind != "inconsistent"

    @property
    def dim(self) -> int:
        """Dimension of the solution set; only meaningful when consistent."""
        return len(self.basis)

    def solution(self, coefficients: Iterable[RationalLike]) -> Vector:
        """particular + sum of coefficient * basis vector."""
        if self.particular is None:
            raise InputError("no solutions to combine: system is inconsistent")
        coefficients = vector(coefficients)
        if len(coefficients) != len(self.basis):
            raise InputError("one coefficient per basis vector required")
        out = list(self.particular)
        for t, b in zip(coefficients, self.basis):
            for j, x in enumerate(b):
                out[j] += t * x
        return tuple(out)


def solve(m: Matrix, c: Sequence[RationalLike]) -> SolutionSpace:
    """Classify and solve M x = c exactly.

    Returns the particular solution with all free variables at zero and one
    basis vector per free column (free variable set to one).
    """
    rhs = vector(c)
    if len(rhs) != m.rows:
        raise InputError(f"matrix has {m.rows} rows, right-hand side has {len(rhs)}")
    augmented = Matrix(
        tuple(row + (rhs[i],) for i, row in enumerate(m.entries)), m.cols + 1
    )
    ech = rref(augmented)
    if m.cols in ech.pivots:
        return SolutionSpace("inconsistent", None, ())
    reduced = ech.matrix.entries
    particular = [Fraction(0)] * m.cols
    for i, pc in enumerate(ech.pivots):
        particular[pc] = reduced[i][m.cols]
    pivot_set = set(ech.pivots)
    basis: list[Vector] = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for i, pc in enumerate(ech.pivots):
            v[pc] = -reduced[i][free]
        basis.append(tuple(v))
    kind = "affine" if basis else "unique"
    return SolutionSpace(kind, tuple(particular), tuple(basis))
