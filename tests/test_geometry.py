"""Generator enumeration: worked systems, the oracle, and its invariants."""

import dataclasses
import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martpoly import (
    GeneratorSet,
    InputError,
    InternalContractError,
    LimitExceededError,
    MartingaleSystem,
    Matrix,
    augmented_matrix,
    brute_force_generators,
    convex_hull_member,
    enumerate_generators,
    face_intersection,
    face_walk_generators,
    geometry,
    rank,
    solve,
    system_from_rows,
    vector,
)
from test_rationals import SUMMANDS, fraction_rref
from util import random_system, refuses


def V(*xs):
    return vector(xs)


SYS_NO_SOLUTIONS = system_from_rows([[18, -6, -6, 75], [99, -33, -33, 291]], [15, 123])
SYS_VERTEX_ONLY = system_from_rows([[-3, 1, -15, 1], [-3, 1, -7, 1]], [-3, -3])
SYS_EDGE = system_from_rows([[-1, -1, -3, 3], [1, 1, -3, 3]], [-1, 1])
SYS_THREE_GENS = system_from_rows([[2, 0, 0, 0]], [1])
SYS_FIVE_GENS = system_from_rows(
    [[1, -1, -1, 1, 0, 0], [1, -3, -2, 0, -2, 0], [1, 1, 2, 0, 0, 2]], [0, -1, 1]
)


def test_face_intersection_hits_an_edge():
    assert face_intersection(SYS_THREE_GENS, (0, 1)) == V("1/2", "1/2", 0, 0)


def test_face_intersection_inconsistent_face():
    assert face_intersection(SYS_THREE_GENS, (1, 2)) is None


def test_face_intersection_vertex_miss():
    assert face_intersection(SYS_THREE_GENS, (0,)) is None


def test_face_intersection_vertex_hit():
    assert face_intersection(SYS_VERTEX_ONLY, (0,)) == V(1, 0, 0, 0)


def test_face_intersection_outside_closed_face():
    # affine hull of the edge meets A at (2, -1): no face point, no error
    sys = system_from_rows([[1, 1, 1], [1, 0, 0]], [1, 2])
    assert face_intersection(sys, (0, 1)) is None


def test_face_intersection_whole_edge_in_solution_space():
    # the edge {0, 1} lies inside A entirely: underdetermined, not an error
    sys = system_from_rows([[2, 2, 0]], [2])
    assert face_intersection(sys, (0, 1)) is None


def test_face_intersection_flags_precondition_violation():
    # the unique solution on the full face is (0, 1/2, 1/2): it sits on the
    # subface {1, 2}, which a staged caller would have visited first
    sys = system_from_rows([[1, 0, 0], [0, 1, 0]], ["0", "1/2"])
    assert face_intersection(sys, (1, 2)) == V(0, "1/2", "1/2")
    with pytest.raises(InternalContractError):
        face_intersection(sys, (0, 1, 2))


def test_face_intersection_validates_indices():
    with pytest.raises(InputError):
        face_intersection(SYS_THREE_GENS, ())
    with pytest.raises(InputError):
        face_intersection(SYS_THREE_GENS, (0, 4))
    with pytest.raises(InputError):
        face_intersection(SYS_THREE_GENS, (1, 1))


def test_no_solutions_in_simplex():
    assert enumerate_generators(SYS_NO_SOLUTIONS).generators == ()


def test_sole_vertex_generator():
    assert enumerate_generators(SYS_VERTEX_ONLY).generators == (V(1, 0, 0, 0),)


def test_edge_of_two_vertices():
    assert enumerate_generators(SYS_EDGE).generators == (
        V(1, 0, 0, 0),
        V(0, 1, 0, 0),
    )


def test_three_edge_generators():
    assert enumerate_generators(SYS_THREE_GENS).generators == (
        V("1/2", "1/2", 0, 0),
        V("1/2", 0, "1/2", 0),
        V("1/2", 0, 0, "1/2"),
    )


def test_five_generators_with_affine_dependence():
    gens = enumerate_generators(SYS_FIVE_GENS).generators
    assert gens == (
        V("1/2", "1/2", 0, 0, 0, 0),
        V(0, 0, "1/2", "1/2", 0, 0),
        V(0, 0, 0, 0, "1/2", "1/2"),
        V("1/3", 0, "1/3", 0, "1/3", 0),
        V(0, "1/3", 0, "1/3", 0, "1/3"),
    )


def test_inconsistent_linear_system_short_circuits():
    sys = system_from_rows([[1, 1], [1, 1]], [0, 1])
    assert enumerate_generators(sys).generators == ()


def test_underdetermined_candidate_face_is_benign():
    # legitimate market, no measures: the stage-3 face {0,1,2} has an
    # underdetermined restriction yet must not abort the enumeration
    sys = system_from_rows([[1, 1, 1], [1, 0, 0]], [1, 2])
    assert enumerate_generators(sys).generators == ()
    assert brute_force_generators(sys).generators == ()


def test_max_outcomes_guard():
    sys = system_from_rows([], [], outcomes=5)
    with pytest.raises(LimitExceededError):
        enumerate_generators(sys, max_outcomes=4)


def test_no_assets_yields_all_vertices():
    sys = system_from_rows([], [], outcomes=2)
    expected = (V(1, 0), V(0, 1))
    assert enumerate_generators(sys).generators == expected
    assert brute_force_generators(sys).generators == expected


def test_brute_force_on_worked_systems():
    assert brute_force_generators(SYS_THREE_GENS).as_set() == {
        V("1/2", "1/2", 0, 0),
        V("1/2", 0, "1/2", 0),
        V("1/2", 0, 0, "1/2"),
    }
    assert brute_force_generators(SYS_VERTEX_ONLY).as_set() == {V(1, 0, 0, 0)}


def test_supports_are_positive_coordinates():
    gens = enumerate_generators(SYS_THREE_GENS)
    assert gens.supports == ((0, 1), (0, 2), (0, 3))


def test_oracle_equivalence_random_systems():
    rng = random.Random(1717)
    for _ in range(120):
        sys = random_system(rng)
        staged = enumerate_generators(sys).as_set()
        oracle = brute_force_generators(sys).as_set()
        assert staged == oracle


def test_generators_are_sound_and_distinct():
    rng = random.Random(3)
    for _ in range(60):
        sys = random_system(rng)
        gens = enumerate_generators(sys)
        seen = set()
        for g in gens:
            assert all(x >= 0 for x in g)
            assert sum(g) == 1
            assert sys.matrix.mul_vec(g) == sys.rhs
            assert g not in seen
            seen.add(g)


def test_generators_are_minimal():
    rng = random.Random(8)
    checked = 0
    while checked < 25:
        sys = random_system(rng, max_b=5, max_n=3)
        gens = enumerate_generators(sys).generators
        if len(gens) < 2:
            continue
        checked += 1
        for i, g in enumerate(gens):
            others = gens[:i] + gens[i + 1 :]
            assert not convex_hull_member(g, others)


def test_convex_hull_completeness():
    # independently sampled solutions of the full system lie in the hull
    rng = random.Random(21)
    checked = 0
    while checked < 25:
        sys = random_system(rng, max_b=6, max_n=3)
        gens = enumerate_generators(sys).generators
        if not gens:
            continue
        space = solve(sys.matrix, sys.rhs)
        point = None
        for _ in range(40):
            coeffs = [Fraction(rng.randint(-2, 2), rng.randint(1, 9)) for _ in space.basis]
            candidate = space.solution(coeffs)
            if all(x >= 0 for x in candidate) and sum(candidate) == 1:
                point = candidate
                break
        if point is None:
            continue
        checked += 1
        assert convex_hull_member(point, gens)


def test_convex_hull_member_basics():
    assert convex_hull_member(V("1/2", "1/2"), [V(1, 0), V(0, 1)])
    assert not convex_hull_member(V(2, -1), [V(1, 0), V(0, 1)])
    assert not convex_hull_member(V(1, 0), [])


@st.composite
def hull_cases(draw):
    """A point and up to 10 hull vectors; half the time a mixture of them."""
    length = draw(st.integers(1, 4))
    count = draw(st.integers(1, 10))
    entry = st.integers(-3, 3).map(Fraction)
    vectors = [tuple(draw(st.lists(entry, min_size=length, max_size=length)))]
    for _ in range(count - 1):
        if draw(st.integers(0, 3)) == 0:
            vectors.append(draw(st.sampled_from(vectors)))
        else:
            vectors.append(tuple(draw(st.lists(entry, min_size=length, max_size=length))))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
        total = sum(weights) or 1
        point = tuple(
            sum((w * v[i] for w, v in zip(weights, vectors)), Fraction(0)) / total
            for i in range(length)
        )
    else:
        point = tuple(draw(st.lists(entry, min_size=length, max_size=length)))
    return point, vectors


@settings(derandomize=True, max_examples=60, deadline=None)
@given(hull_cases())
def test_convex_hull_member_matches_the_brute_force_oracle(case):
    point, vectors = case
    columns = Matrix(
        tuple(tuple(v[i] for v in vectors) for i in range(len(point))), len(vectors)
    )
    weights = MartingaleSystem(columns, point)
    assert convex_hull_member(point, vectors) == (len(brute_force_generators(weights)) > 0)


def test_convex_hull_member_decides_twenty_vectors_quickly():
    # the brute-force oracle would solve 2**20 - 1 subsets here
    rng = random.Random(20)
    vectors = [tuple(Fraction(rng.randint(-9, 9)) for _ in range(4)) for _ in range(20)]
    inside = tuple(sum(col, Fraction(0)) / 20 for col in zip(*vectors))
    outside = (Fraction(10),) + inside[1:]
    start = time.perf_counter()
    assert convex_hull_member(inside, vectors)
    assert not convex_hull_member(outside, vectors)
    assert time.perf_counter() - start < 1


def fraction_face_point(sys, face):
    """Oracle: a face's intersection point by Fraction Gauss-Jordan.

    Returns the embedded point, None for a miss, or "subface" when the unique
    solution is nonnegative with a zero coordinate.
    """
    k = len(face)
    rows = [[Fraction(1)] * (k + 1)] + [
        [row[j] for j in face] + [c] for row, c in zip(sys.matrix.entries, sys.rhs)
    ]
    ech = fraction_rref(Matrix.from_rows(rows, k + 1))
    if ech.pivots != tuple(range(k)):
        return None
    coords = [ech.matrix.entries[i][k] for i in range(k)]
    if all(x > 0 for x in coords):
        point = [Fraction(0)] * sys.outcomes
        for j, x in zip(face, coords):
            point[j] = x
        return tuple(point)
    return "subface" if all(x >= 0 for x in coords) else None


SMALL = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
)


@st.composite
def small_systems(draw):
    """b <= 6 systems; repeated rows and columns and feasible rhs make degeneracy."""
    b = draw(st.integers(1, 6))
    n = draw(st.integers(0, 4))
    cols = [draw(st.lists(SMALL, min_size=n, max_size=n)) for _ in range(b)]
    for j in range(1, b):
        if draw(st.booleans()):
            cols[j] = cols[draw(st.integers(0, j - 1))]
    rows = [[cols[j][i] for j in range(b)] for i in range(n)]
    if n and draw(st.booleans()):
        rows[-1] = list(rows[0])
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 3), min_size=b, max_size=b))
        rhs = [sum(w * x for w, x in zip(weights, row)) for row in rows]
        if sum(weights) and draw(st.booleans()):
            rhs = [x / sum(weights) for x in rhs]
    else:
        rhs = draw(st.lists(SMALL, min_size=n, max_size=n))
    return system_from_rows(rows, rhs, outcomes=b)


def positive_supports(gens):
    """Per generator, the outcomes with ``x > 0``: the definition ``supports`` reads."""
    return tuple(tuple(i for i, x in enumerate(g) if x > 0) for g in gens.generators)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_systems())
def test_supports_are_the_positive_entries_and_computed_once(sys):
    for gens in (enumerate_generators(sys), brute_force_generators(sys)):
        assert gens.supports == positive_supports(gens)
        assert gens.supports is gens.supports


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_systems())
def test_face_intersection_matches_fraction_classification(sys):
    # check every face whose proper subfaces all miss, as the staged walk does
    clean: set = set()
    for size in range(1, sys.outcomes + 1):
        for face in combinations(range(sys.outcomes), size):
            if size > 1 and not all(
                face[:j] + face[j + 1 :] in clean for j in range(size)
            ):
                continue
            expected = fraction_face_point(sys, face)
            if expected == "subface":
                with pytest.raises(InternalContractError):
                    face_intersection(sys, face)
                continue
            assert face_intersection(sys, face) == expected
            if expected is None:
                clean.add(face)
    assert enumerate_generators(sys) == brute_force_generators(sys)


def recorded_face_widths(monkeypatch) -> list[int]:
    """Width of every face ``face_walk_generators`` hands to ``face_intersection``."""
    widths: list[int] = []
    real = geometry.face_intersection

    def recording(sys, face):
        widths.append(len(face))
        return real(sys, face)

    monkeypatch.setattr(geometry, "face_intersection", recording)
    return widths


def test_walk_stops_at_augmented_rank_with_a_bond_row(monkeypatch):
    # a constant payoff row puts the ones row in the row space of the
    # payoffs, so rank [1; P] is rank(P), one less than rank(P) + 1
    widths = recorded_face_widths(monkeypatch)
    rng = random.Random(4242)
    for _ in range(120):
        b = rng.randint(2, 8)
        rows = [[rng.randint(-9, 9) for _ in range(b)] for _ in range(rng.randint(0, 3))]
        rows.insert(rng.randint(0, len(rows)), [rng.randint(1, 3)] * b)
        weights = [Fraction(rng.randint(0, 3)) for _ in range(b)]
        weights[rng.randrange(b)] += 1
        q = [w / sum(weights) for w in weights]
        rhs = [sum(x * p for x, p in zip(row, q)) for row in rows]
        sys = system_from_rows(rows, rhs, outcomes=b)
        widths.clear()
        assert face_walk_generators(sys) == brute_force_generators(sys)
        assert max(widths) <= rank(augmented_matrix(sys))
        assert enumerate_generators(sys) == brute_force_generators(sys)


def test_inconsistent_mass_one_system_walks_no_face(monkeypatch):
    # q0 + q1 = 2 is consistent alone but not together with q0 + q1 = 1
    widths = recorded_face_widths(monkeypatch)
    sys = system_from_rows([[1, 1]], [2])
    assert solve(sys.matrix, sys.rhs).is_consistent
    assert len(face_walk_generators(sys)) == 0
    assert widths == []
    assert enumerate_generators(sys) == brute_force_generators(sys)


@st.composite
def degenerate_systems(draw, max_b):
    """Integer systems with repeated columns, combined rows and bond rows.

    A sparse row q_i = k q_j can make two nonnegativity constraints one
    facet, or pin an outcome's mass to 0, so the polytope has vertices on more
    facets than its dimension: there, adjacent rays share more zeros than
    d - 2 and a shared-zero count alone admits non-adjacent pairs. The rhs
    is a convex combination of the columns half the time, so the polytope
    is often nonempty, and arbitrary (often infeasible) otherwise.
    """
    b = draw(st.integers(1, max_b))
    n = draw(st.integers(0, 4))
    entry = st.integers(-5, 5)
    cols = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(b)]
    for j in range(1, b):
        if draw(st.integers(0, 3)) == 0:
            cols[j] = cols[draw(st.integers(0, j - 1))]
    rows = [[cols[j][i] for j in range(b)] for i in range(n)]
    if n >= 3 and draw(st.booleans()):
        f, g = draw(entry), draw(entry)
        rows[-1] = [f * x + g * y for x, y in zip(rows[0], rows[1])]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [draw(st.integers(-3, 3))] * b)
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 3), min_size=b, max_size=b))
        total = sum(weights) or 1
        rhs = [Fraction(sum(w * x for w, x in zip(weights, row)), total) for row in rows]
    else:
        rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    if b >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(b)))[:2]
        tie = [0] * b
        tie[i], tie[j] = 1, -draw(st.integers(0, 2))
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, tie)
        rhs.insert(at, 0)
    return system_from_rows(rows, rhs, outcomes=b)


def test_pinned_outcome_needs_the_full_adjacency_test():
    # q3 = 0 puts every ray on that constraint, so two rays can share d - 2
    # zeros without being adjacent; combining them would add a non-vertex
    sys = system_from_rows([[1, -2, 2, 3, -1], [0, 0, 0, 1, 0]], ["1/6", 0])
    assert enumerate_generators(sys) == brute_force_generators(sys)
    assert enumerate_generators(sys) == face_walk_generators(sys)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(degenerate_systems(max_b=8))
def test_double_description_matches_brute_force(sys):
    assert enumerate_generators(sys).as_set() == brute_force_generators(sys).as_set()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(degenerate_systems(max_b=12))
def test_double_description_lists_the_face_walk_order(sys):
    assert enumerate_generators(sys) == face_walk_generators(sys)


@st.composite
def vector_families(draw):
    """b and two families of up to 10 length-b vectors, entries from SUMMANDS.

    The second family is the first written as Fractions, the first with one
    entry moved, or a fresh draw.
    """
    b = draw(st.integers(1, 8))
    family = st.lists(st.tuples(*[SUMMANDS] * b), max_size=10)
    vs = draw(family)
    kind = draw(st.sampled_from(["same", "moved", "fresh"]))
    if kind == "same":
        ws = [tuple(map(Fraction, v)) for v in vs]
    elif kind == "moved" and vs:
        ws = [list(v) for v in vs]
        j, i = draw(st.integers(0, len(vs) - 1)), draw(st.integers(0, b - 1))
        ws[j][i] += draw(st.sampled_from([Fraction(1), Fraction(-1, 3), Fraction(1, 10**30)]))
        ws = [tuple(w) for w in ws]
    else:
        ws = draw(family)
    return b, vs, ws


@settings(derandomize=True, max_examples=100, deadline=None)
@given(degenerate_systems(max_b=8), vector_families())
def test_a_set_from_rays_is_the_set_of_its_fractions(sys, families):
    # each check starts from a fresh set, which holds only the rays
    def fresh():
        gens = enumerate_generators(sys)
        assert "generators" not in vars(gens)
        return gens

    fractions = fresh().generators
    built = GeneratorSet.of(sys.outcomes, fractions)
    assert [f.name for f in dataclasses.fields(GeneratorSet)] == ["outcomes", "rays", "supports"]
    assert fresh() == built and built == fresh()
    assert hash(fresh()) == hash(built)
    assert len(fresh()) == len(built) == len(fractions)
    assert fresh().supports == built.supports == positive_supports(built)
    assert fresh().rays == built.rays
    assert fresh().as_set() == built.as_set()
    assert repr(fresh()) == repr(built)
    items = list(fresh())
    assert items == list(built)
    assert all(type(g) is tuple and all(type(x) is Fraction for x in g) for g in items)
    if len(fractions) > 1:
        assert fresh() != GeneratorSet.of(sys.outcomes, fractions[1:])

    # any Fraction vectors: one primitive ray each, with t > 0, and back
    b, vs, ws = families
    of_vs, of_ws = GeneratorSet.of(b, vs), GeneratorSet.of(b, ws)
    assert of_vs.generators == tuple(vs)
    assert all(gcd(*v) == 1 and v[b] > 0 for v in of_vs.rays)
    assert of_vs.supports == positive_supports(of_vs)
    assert (of_vs == of_ws) == (vs == ws)
    if vs == ws:
        assert hash(of_vs) == hash(of_ws) and repr(of_vs) == repr(of_ws)


def test_a_wrong_length_generator_is_refused():
    with pytest.raises(InputError, match="generator length must equal the outcome count"):
        GeneratorSet.of(3, (V(1, 0, 0), V(1, 0)))
    # the plain constructor takes rays: a length-b Fraction vector is refused
    with pytest.raises(InputError, match="generator length must equal the outcome count"):
        GeneratorSet(3, (V(1, 0, 0),), ((0,),))
    with pytest.raises(TypeError):
        GeneratorSet(3, (V(1, 0, 0),))
    gens = enumerate_generators(system_from_rows([[1, 2, 3]], [2]))
    with pytest.raises(AttributeError):
        gens.missing


def test_convex_hull_member_refuses_vectors_of_another_length():
    with refuses(InputError, "hull vectors must match the point's length"):
        convex_hull_member(vector([1, 2]), [vector([1, 2]), vector([1])])
