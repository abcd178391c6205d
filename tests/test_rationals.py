"""Exact parsing, RREF, and linear-system classification."""

import random
import sys
from fractions import Fraction

import pytest

from martpoly import (
    InputError,
    Matrix,
    format_rational,
    parse_rational,
    rank,
    rat,
    rref,
    solve,
)


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


def test_rat_rejects_floats():
    with pytest.raises(InputError):
        rat(0.1)


@pytest.mark.parametrize("flag", [True, False])
def test_rat_rejects_bools(flag):
    with pytest.raises(InputError):
        rat(flag)


def test_parse_decimal_exponent_bounded():
    limit = sys.int_info.default_max_str_digits
    # 10**(limit - 1) has exactly limit digits and still prints
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert parse_rational(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
    assert parse_rational("2.5e3") == 2500
    for bad in [f"1e{limit}", f"1e-{limit}", "1e200000", "0e200000", "1.5e-200000"]:
        with pytest.raises(InputError):
            parse_rational(bad)


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
