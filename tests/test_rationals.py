"""Exact parsing, RREF, and linear-system classification."""

import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martpoly import (
    InputError,
    LimitExceededError,
    Matrix,
    dot,
    format_rational,
    mean_vector,
    parse_rational,
    rank,
    rat,
    rref,
    solve,
    vector,
)
from martpoly.errors import quoted
from martpoly.rationals import Echelon, format_ratio
from util import refuses


def test_vector_coerces_any_iterable_of_rationals():
    assert vector(["1/2", 3, Fraction(1, 4)]) == (Fraction(1, 2), Fraction(3), Fraction(1, 4))
    assert vector(x for x in (1, 2)) == (Fraction(1), Fraction(2))
    assert vector([]) == ()


@pytest.mark.parametrize("bad", ["11", "", b"01", {"1": "2"}, 5, Fraction(1, 2), None])
def test_vector_refuses_strings_mappings_and_scalars(bad):
    # a string or a mapping is iterable, but its characters or keys are not a list
    with pytest.raises(InputError, match="^expected a list of rationals, got "):
        vector(bad)


def test_parse_fraction_string():
    assert parse_rational("1/2") == Fraction(1, 2)


def test_parse_decimal_exactly():
    assert parse_rational("-0.75") == Fraction(-3, 4)
    assert parse_rational("0.1") == Fraction(1, 10)


def test_parse_canonicalizes():
    q = parse_rational("6/4")
    assert q == Fraction(3, 2)
    assert (q.numerator, q.denominator) == (3, 2)


@pytest.mark.parametrize("bad", ["", "a/b", "1/2/3", "1.2.3", "--3"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


def test_parse_rejects_zero_denominator():
    with pytest.raises(InputError):
        parse_rational("3/0")


def test_format_round_trip():
    for text in ["-3/2", "7", "0", "22/7"]:
        assert format_rational(parse_rational(text)) == text


def test_format_refuses_a_value_too_long_to_print():
    limit = sys.get_int_max_str_digits()
    assert format_rational(Fraction(1, 10 ** (limit - 1))) == "1/1" + "0" * (limit - 1)
    with pytest.raises(LimitExceededError, match=f"over the limit of {limit} decimal digits"):
        format_rational(Fraction(1, 10**limit))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.integers(-(10**700), 10**700) | st.integers(-99, 99),
    st.integers(1, 10**700) | st.integers(1, 99),
    st.integers(1, 200),
)
def test_format_ratio_prints_format_rationals_bytes_and_refusal(num, den, scale):
    # an unreduced pair (scaled by a common factor) reduces to the same bytes;
    # past the digit limit (640 here) both raise the same message, bit count
    # included
    def outcome(fn, *args):
        try:
            return fn(*args)
        except LimitExceededError as exc:
            return exc.args

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert outcome(format_ratio, num * scale, den * scale) == outcome(
            format_rational, Fraction(num, den)
        )
    finally:
        sys.set_int_max_str_digits(limit)


def test_rat_rejects_floats():
    with pytest.raises(InputError):
        rat(0.1)


@pytest.mark.parametrize("flag", [True, False])
def test_rat_rejects_bools(flag):
    with pytest.raises(InputError):
        rat(flag)


def test_parse_decimal_exponent_bounded():
    limit = sys.get_int_max_str_digits()
    # 10**(limit - 1) has exactly limit digits and still prints
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert parse_rational(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
    assert parse_rational("2.5e3") == 2500
    for bad in [f"1e{limit}", f"1e-{limit}", "1e200000", "0e200000", "1.5e-200000"]:
        with pytest.raises(InputError):
            parse_rational(bad)


def test_parse_reads_the_current_digit_limit():
    # the limit str() prints by, so a value that parses also prints; a digit
    # string past it gets the exponent's refusal, not "malformed rational",
    # and so does a run that int would refuse: either side of p/q, or a
    # value whose leading zeros take it past the limit. An exponent int
    # still reads can need a count too long to print: past 10**64 the
    # refusal gives that bound
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert parse_rational("1e639") == 10**639
        assert parse_rational("9" * 640) == 10**640 - 1
        assert parse_rational("1" * 640 + "/" + "3" * 640) == Fraction(1, 3)
        assert parse_rational("0" * 639 + "1") == 1
        for bad, digits in (("1e640", 641), ("1" * 641, 641), ("-" + "9" * 700, 700),
                            ("0." + "1" * 640, 641), ("12.5e639", 641),
                            ("1" * 5000 + "/3", 5000), ("3/" + "7" * 5000, 5000),
                            ("0" * 5000 + "1", 5001), ("1e" + "9" * 20, 10**20),
                            ("1e" + "9" * 630, "more than 10**64"),
                            ("1e-" + "9" * 630, "more than 10**64"),
                            ("1e" + "9" * 640, "more than 10**64")):
            with refuses(
                InputError,
                f"rational {quoted(bad)} would need {digits} decimal digits, "
                "over the limit of 640",
            ):
                parse_rational(bad)
        sys.set_int_max_str_digits(0)
        assert parse_rational("1e5000") == 10**5000
        assert parse_rational("1" * 5000) == int("1" * 5000)
    finally:
        sys.set_int_max_str_digits(limit)


def test_long_rejected_input_is_not_echoed_whole():
    for bad in ["1e" + "9" * 5000, "x" * 5002, "1/" + "0" * 5000,
                "1e" + "9" * 4290, "1e-" + "9" * 4290, "1e" + "9" * 4300]:
        with pytest.raises(InputError) as exc:
            parse_rational(bad)
        assert len(str(exc.value)) < 200
        assert str(len(bad)) in str(exc.value)


def test_short_rejected_input_is_echoed_whole():
    with pytest.raises(InputError, match=r"^malformed rational 'a/b'$"):
        parse_rational("a/b")
    with pytest.raises(InputError, match=r"^zero denominator in rational '3/0'$"):
        parse_rational("3/0")


def test_rref_single_pivot():
    ech = rref(Matrix.from_rows([[2, 0], [0, 0]]))
    assert ech.matrix.entries == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
    assert ech.pivots == (0,)
    assert ech.rank == 1


def test_rref_full_rank():
    ech = rref(Matrix.from_rows([[1, 1], [1, 2]]))
    assert ech.matrix.entries == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert ech.rank == 2


def test_rref_rank_four_extension():
    m = Matrix.from_rows([[1, 1, 1, 1], [2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert rref(m).rank == 4


def test_solve_affine_dimension():
    space = solve(Matrix.from_rows([[2, 0, 0, 0]]), [1])
    assert space.kind == "affine"
    assert space.dim == 3


def test_solve_unique():
    space = solve(Matrix.from_rows([[1, 0], [0, 1]]), [3, 4])
    assert space.kind == "unique"
    assert space.particular == (Fraction(3), Fraction(4))
    assert space.basis == ()


def test_solve_inconsistent():
    space = solve(Matrix.from_rows([[1, 1], [1, 1]]), [0, 1])
    assert space.kind == "inconsistent"
    assert space.particular is None


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        solve(Matrix.from_rows([[1, 0]]), [1, 2])


def test_solve_no_rows_means_free_space():
    space = solve(Matrix.from_rows([], cols=3), [])
    assert space.kind == "affine"
    assert space.dim == 3
    assert space.particular == (Fraction(0),) * 3


def test_empty_matrix_requires_column_count():
    with pytest.raises(InputError):
        Matrix.from_rows([])


def test_solution_space_combines_exactly():
    m = Matrix.from_rows([[1, 2, 3], [0, 1, 1]])
    space = solve(m, [6, 2])
    point = space.solution([Fraction(5, 7)])
    assert m.mul_vec(point) == (Fraction(6), Fraction(2))


def _random_matrix(rng, rows, cols):
    return Matrix.from_rows(
        [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols
    )


def test_solve_results_satisfy_system_exactly():
    rng = random.Random(2024)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        rhs = [rng.randint(-9, 9) for _ in range(rows)]
        space = solve(m, rhs)
        if not space.is_consistent:
            continue
        assert m.mul_vec(space.particular) == tuple(Fraction(x) for x in rhs)
        zero = (Fraction(0),) * rows
        for basis_vec in space.basis:
            assert m.mul_vec(basis_vec) == zero


def test_rref_idempotent():
    rng = random.Random(99)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        once = rref(m).matrix
        assert rref(once).matrix == once


def test_rank_matches_transpose_rank():
    rng = random.Random(7)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(m) == rank(m.transpose())


def fraction_rref(m: Matrix) -> Echelon:
    """Oracle: Gauss-Jordan elimination with every entry a Fraction.

    The elimination ``rref`` ran before it became fraction-free, kept as the
    reference it must equal entry for entry.
    """
    rows = [list(r) for r in m.entries]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        if pivot != 1:
            rows[r] = [x / pivot for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Echelon(Matrix.from_rows(rows, m.cols), tuple(pivots))


ENTRIES = st.one_of(
    st.integers(-9, 9).map(Fraction),
    st.builds(
        Fraction,
        st.integers(-(10**12), 10**12),
        st.integers(1, 10**9) | st.integers(-(10**9), -1),
    ),
)


@st.composite
def rational_matrices(draw, max_rows=6, max_cols=7):
    """Matrices whose rows are drawn, zero, repeats or combinations of earlier rows."""
    cols = draw(st.integers(0, max_cols))
    rows: list[list[Fraction]] = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(["drawn", "zero", "repeat", "combined"]))
        if kind == "zero":
            rows.append([Fraction(0)] * cols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combined" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(ENTRIES), draw(ENTRIES)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(ENTRIES, min_size=cols, max_size=cols)))
    return Matrix.from_rows(rows, cols)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rational_matrices())
def test_rref_equals_fraction_gauss_jordan(m):
    ech = rref(m)
    oracle = fraction_rref(m)
    assert ech.pivots == oracle.pivots
    assert ech.matrix == oracle.matrix
    for row in ech.matrix.entries:
        for x in row:
            assert type(x) is Fraction


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rational_matrices(), st.data())
def test_solve_matches_fraction_gauss_jordan(m, data):
    rhs = data.draw(st.lists(ENTRIES, min_size=m.rows, max_size=m.rows))
    space = solve(m, rhs)
    augmented = Matrix(
        tuple(row + (c,) for row, c in zip(m.entries, rhs)), m.cols + 1
    )
    pivots = fraction_rref(augmented).pivots
    if m.cols in pivots:
        assert space.kind == "inconsistent"
        assert space.particular is None and space.basis == ()
        return
    free = [j for j in range(m.cols) if j not in pivots]
    assert space.kind == ("affine" if free else "unique")
    # free variables at zero pin the particular solution, and one free
    # variable at one, the others at zero, pins each basis vector
    assert m.mul_vec(space.particular) == tuple(rhs)
    assert all(space.particular[j] == 0 for j in free)
    assert len(space.basis) == len(free)
    zero = (Fraction(0),) * m.rows
    for f, v in zip(free, space.basis):
        assert m.mul_vec(v) == zero
        assert [v[j] for j in free] == [int(j == f) for j in free]


def fraction_dot(u, v):
    """``dot`` as it was, one Fraction product and sum per term: the oracle."""
    if len(u) != len(v):
        raise InputError(f"dot product of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def fraction_mean_vector(vs):
    """``mean_vector`` as it was, summing each column Fraction by Fraction: the oracle."""
    if not vs:
        raise InputError("mean of an empty family of vectors")
    k = Fraction(len(vs))
    return tuple(sum(col, Fraction(0)) / k for col in zip(*vs))


# zeros, negatives, plain ints, and denominators up to 10**30
SUMMANDS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9),
    ENTRIES,
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**30)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(*[st.lists(SUMMANDS, min_size=n, max_size=n)] * 2)
))
def test_dot_equals_fraction_by_fraction_sum(pair):
    u, v = pair
    got = dot(u, v)
    assert type(got) is Fraction
    assert got == fraction_dot(u, v)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(
    lambda n: st.lists(st.lists(SUMMANDS, min_size=n, max_size=n), min_size=1, max_size=12)
))
def test_mean_vector_equals_fraction_by_fraction_mean(family):
    got = mean_vector(family)
    assert all(type(x) is Fraction for x in got)
    assert got == fraction_mean_vector(family)


def test_dot_and_mean_vector_keep_their_refusals():
    with pytest.raises(InputError, match="^dot product of lengths 2 and 1$"):
        dot((Fraction(1), Fraction(2)), (Fraction(1),))
    with pytest.raises(InputError, match="^mean of an empty family of vectors$"):
        mean_vector([])


def test_dot_and_mean_vector_refuse_inexact_numbers():
    with refuses(InputError, "cannot interpret 0.5 as an exact rational"):
        dot((Fraction(1), 0.5), (Fraction(1), Fraction(2)))
    with refuses(InputError, "cannot interpret 0.5 as an exact rational"):
        dot((Fraction(1), 0.5), (Fraction(1), Fraction(0)))  # a zero term is checked too
    with refuses(InputError, "cannot interpret True as an exact rational"):
        dot((Fraction(1), 2), (True, Fraction(0)))
    with refuses(InputError, "cannot interpret Decimal('0.5') as an exact rational"):
        mean_vector([(Fraction(1),), (Decimal("0.5"),)])
    with refuses(InputError, "cannot interpret False as an exact rational"):
        mean_vector([(Fraction(1),), (False,)])
    # a rational string is read as the Fraction it spells
    assert dot(("1/2", "3"), (Fraction(2), "1/3")) == dot((Fraction(1, 2), 3), (2, Fraction(1, 3)))
    assert mean_vector([("1/2",), ("0.25",)]) == mean_vector([(Fraction(1, 2),), (Fraction(1, 4),)])


def test_mean_vector_refuses_a_ragged_family():
    # zip(*vs) would stop at the shortest vector and drop the second column
    with pytest.raises(InputError, match="^mean of vectors of lengths 2 and 1$"):
        mean_vector([(Fraction(1), Fraction(2)), (Fraction(1),)])
    with pytest.raises(InputError, match="^mean of vectors of lengths 1 and 3$"):
        mean_vector([(Fraction(1),), (Fraction(1),), (Fraction(1), Fraction(2), Fraction(3))])


def test_matrix_and_solution_refusals_name_what_is_wrong():
    with refuses(InputError, "negative column count"):
        Matrix((), -1)
    with refuses(InputError, "ragged matrix: expected 2 columns, got 1"):
        Matrix.from_rows([[1, 2], [3]])
    with refuses(InputError, "matrix has 2 columns, vector has 3"):
        Matrix.from_rows([[1, 2]]).mul_vec(vector([1, 2, 3]))
    with refuses(InputError, "no solutions to combine: system is inconsistent"):
        solve(Matrix.from_rows([[1, 1], [1, 1]]), [0, 1]).solution(())
    with refuses(InputError, "one coefficient per basis vector required"):
        solve(Matrix.from_rows([[1, 1]]), [1]).solution(())
