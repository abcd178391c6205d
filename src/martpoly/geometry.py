"""Vertex enumeration for the martingale-measure polytope.

The set of martingale measures of a one-period market is the intersection of
the standard simplex with the affine solution space A of the linear system.
That intersection is a polytope, and every measure is a convex combination of
finitely many vertex measures, its generators. This module enumerates those
generators exactly, three independent ways:

* ``enumerate_generators`` runs the double-description method on the cone
  over the polytope: it starts from the simplicial cone that the free
  coordinates of ``MartingaleSystem.reduced`` span and adds the remaining
  nonnegativity constraints one at a time, keeping only extreme rays. Its
  cost follows the rays it keeps and the ray pairs it tests.
* ``face_walk_generators`` walks simplex faces by ascending dimension,
  extending only faces whose entire boundary failed to meet A, so each
  generator is found in the relative interior of its own face. It pays for
  every face it inspects and is kept as an oracle.
* ``brute_force_generators`` tries every nonempty outcome subset. It is the
  oracle both others are tested against.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm

from .errors import InputError, InternalContractError, LimitExceededError
from .market import MartingaleSystem, augmented_matrix
from .rationals import Matrix, SolutionSpace, Vector, integer_row, solve

Face = tuple[int, ...]

DEFAULT_MAX_OUTCOMES = 16


@dataclass(frozen=True)
class GeneratorSet:
    """The vertex measures whose convex hull is the full measure set.

    Generators are listed in discovery order: by support size ascending and
    lexicographically within one size. Each lies in the relative interior of
    a distinct simplex face, so they are pairwise distinct and none is a
    convex combination of the others.

    ``rays`` holds each generator g as its primitive integer ray
    (x_0, ..., x_{b-1}, t) with t > 0 and g = x / t, and ``supports`` each
    ray's positive outcome indices. A vector has exactly one such ray, so
    equality, hashing and ``repr`` go by the rays. ``of`` builds the set of
    given Fraction vectors; ``generators`` forms them back, once, when first
    read.
    """

    outcomes: int
    rays: tuple[tuple[int, ...], ...]
    supports: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for v in self.rays:
            if len(v) != self.outcomes + 1:
                raise InputError(
                    "generator length must equal the outcome count, plus one for a ray's t"
                )

    @classmethod
    def of(cls, outcomes: int, vectors: Iterable[Sequence[Fraction]]) -> GeneratorSet:
        """The set of the given vectors, each turned into its ray ``(g * t, t)``."""
        rays = tuple(tuple(integer_row((*g, 1))) for g in vectors)
        supports = tuple(tuple(i for i in range(outcomes) if v[i] > 0) for v in rays)
        return cls(outcomes, rays, supports)

    def __len__(self) -> int:
        return len(self.rays)

    def __iter__(self):
        return iter(self.generators)

    @cached_property
    def generators(self) -> tuple[Vector, ...]:
        """Per ray (x, t), the vector x / t of Fractions."""
        zero = Fraction(0)
        b = self.outcomes
        return tuple(
            tuple(Fraction(x, v[b]) if x else zero for x in v[:b]) for v in self.rays
        )

    def as_set(self) -> frozenset[Vector]:
        return frozenset(self.generators)


def _normalize_face(face: Iterable[int], outcomes: int) -> Face:
    idx = tuple(sorted(face))
    if not idx:
        raise InputError("a face needs at least one outcome index")
    if len(set(idx)) != len(idx):
        raise InputError(f"repeated outcome index in face {idx}")
    if idx[0] < 0 or idx[-1] >= outcomes:
        raise InputError(f"face {idx} out of range for {outcomes} outcomes")
    return idx


def _face_solution(sys: MartingaleSystem, face: Face) -> SolutionSpace:
    """Solve the market equations restricted to a face, plus mass one.

    Unknowns are the coordinates on the face; the first equation pins their
    sum to one and the rest are the asset rows with the other columns dropped.
    """
    return solve(augmented_matrix(sys).select_columns(face), (Fraction(1),) + sys.rhs)


def _embed(face: Face, coords: Sequence[Fraction], outcomes: int) -> Vector:
    full = [Fraction(0)] * outcomes
    for j, value in zip(face, coords):
        full[j] = value
    return tuple(full)


def face_intersection(sys: MartingaleSystem, face: Iterable[int]) -> Vector | None:
    """Point where one simplex face meets the affine solution space, if any.

    The face's restricted system (mass one on the face, and the asset rows)
    is classified by ``_face_solution``, the same exact solve that
    ``brute_force_generators`` runs on every subset.

    Intended for faces none of whose proper subfaces meets A (the invariant
    the staged walk maintains). Under that precondition:

    * an inconsistent restricted system means the face misses A entirely;
    * a unique solution that is strictly positive is the intersection point,
      returned as a full-length vector with zeros off the face;
    * a unique solution with a negative coordinate lies outside the closed
      face, so there is no intersection;
    * an underdetermined system means the face's affine hull overlaps A in a
      line or more. The closed face still cannot meet A: any meeting point
      would force a boundary intersection and hence a subface hit, against
      the precondition. Reported as no intersection.
    * a unique nonnegative solution with a zero coordinate would itself lie
      on a proper subface, directly contradicting the precondition; that
      branch raises InternalContractError because it can only be reached
      through caller misuse or an enumeration bug.
    """
    idx = _normalize_face(face, sys.outcomes)
    space = _face_solution(sys, idx)
    coords = space.particular
    if space.kind != "unique" or any(x < 0 for x in coords):
        return None
    if all(x > 0 for x in coords):
        return _embed(idx, coords, sys.outcomes)
    raise InternalContractError(
        f"face {idx}: solution {coords} sits on a proper subface; "
        "the no-subface-intersection precondition was violated"
    )


def _stage_candidates(non_intersecting: set[Face], outcomes: int) -> list[Face]:
    """Faces one size up whose every boundary facet failed to meet A.

    Built by extending each recorded face past its largest index, then
    checking all facets by set membership, so each candidate appears once,
    in lexicographic order.
    """
    out: list[Face] = []
    for face in sorted(non_intersecting):
        for i in range(face[-1] + 1, outcomes):
            cand = face + (i,)
            if all(
                cand[:j] + cand[j + 1 :] in non_intersecting for j in range(len(cand))
            ):
                out.append(cand)
    return out


def enumerate_generators(
    sys: MartingaleSystem, *, max_outcomes: int = DEFAULT_MAX_OUTCOMES
) -> GeneratorSet:
    """Vertices of {q >= 0, sum(q) = 1, matrix q = rhs} by double description.

    The vertices are the extreme rays of the cone {(x, t) >= 0 : [1; matrix]
    x = rhs t}, scaled to t = 1; its equations are the rows of
    ``sys.reduced``, so nothing is eliminated again. A pivot in the rhs
    column means the system is inconsistent and the result is empty.
    Otherwise row i solves for its pivot coordinate ``pivots[i]``, and the
    other d = b + 1 - rank [1; matrix] coordinates, t among them,
    parametrise the cone's linear hull. Their d unit vectors span the
    starting cone, where only the free coordinates are nonnegative.

    The double-description method (Motzkin et al. 1953; Fukuda and Prodon
    1996) then adds each pivot coordinate's x_p >= 0, keeping the cone's
    extreme rays. A ray is an integer vector divided by its gcd, with its
    zero set over the constraints added so far as a bitmask. Rays with
    x_p < 0 are dropped, and each adjacent pair across the hyperplane
    contributes its positive combination with x_p = 0. A pair is adjacent
    when no third ray vanishes wherever both do, and it needs at least
    d - 2 common zeros to be. The cost grows with the rays kept and the
    pairs tested, not with b's faces.

    A final ray is a nonzero x >= 0 with t = sum(x) by the ones row, so
    t > 0, and its vertex is q = x / t. The vertices are listed by support
    size and then support, the discovery order of a face walk by ascending
    dimension (``face_walk_generators``). The result holds the sorted rays
    and the supports they were sorted by, and forms no Fraction until its
    ``generators`` are read. ``max_outcomes`` refuses a large market with
    LimitExceededError before any work.
    """
    b = sys.outcomes
    if b > max_outcomes:
        raise LimitExceededError(
            f"{b} outcomes exceeds the enumeration guard of {max_outcomes}"
        )
    rows, pivots = sys.reduced
    if pivots[-1] == b:
        return GeneratorSet(b, (), ())
    # row i reads sum over j of row[j] * x_j = row[b] * t, with t = x_b, and
    # its pivot p = pivots[i] is the one pivot coordinate it holds
    free = [j for j in range(b + 1) if j not in pivots]
    scale = lcm(*(row[p] for row, p in zip(rows, pivots)))
    # start cone: ray k is free coordinate k at ``scale``, the others at 0,
    # with the pivot coordinates solved from the rows
    rays: list[tuple[list[int], int]] = []
    free_mask = sum(1 << j for j in free)
    for k in free:
        v = [0] * (b + 1)
        v[k] = scale
        for row, p in zip(rows, pivots):
            v[p] = (row[b] if k == b else -row[k]) * (scale // row[p])
        g = gcd(*v)
        rays.append(([x // g for x in v], free_mask & ~(1 << k)))

    least_common = len(free) - 2
    for p in pivots:
        bit = 1 << p
        positive, negative, kept = [], [], []
        for v, zeros in rays:
            if v[p] > 0:
                positive.append((v, zeros))
                kept.append((v, zeros))
            elif v[p] < 0:
                negative.append((v, zeros))
            else:
                kept.append((v, zeros | bit))
        masks = [zeros for _, zeros in rays]
        for vp, zp in positive:
            for vn, zn in negative:
                common = zp & zn
                if common.bit_count() < least_common or not _adjacent(common, masks):
                    continue
                sp, sn = vp[p], -vn[p]
                v = [sp * x + sn * y for x, y in zip(vn, vp)]
                g = gcd(*v)
                kept.append(([x // g for x in v], common | bit))
        rays = kept

    vertices = sorted(
        ((tuple(i for i in range(b) if v[i]), tuple(v)) for v, _ in rays),
        key=lambda sv: (len(sv[0]), sv[0]),
    )
    return GeneratorSet(
        b, tuple(v for _, v in vertices), tuple(s for s, _ in vertices)
    )


def _adjacent(common: int, masks: list[int]) -> bool:
    """Whether only the pair itself, of all the rays, vanishes on ``common``."""
    holders = 0
    for zeros in masks:
        if zeros & common == common:
            holders += 1
            if holders > 2:
                return False
    return True


def face_walk_generators(sys: MartingaleSystem) -> GeneratorSet:
    """Oracle: the generators by a staged walk over simplex faces.

    Stage k inspects the faces spanned by k outcomes whose entire boundary
    was recorded as missing A in stage k-1; an intersecting face contributes
    the unique point of its relative interior that lies in A. The pivots of
    ``sys.reduced`` bound the walk first:

    * a pivot in the rhs column means the full system is inconsistent, so
      the measure set is empty and so is the result;
    * otherwise the walk stops after stage rank [1; matrix], the number of
      pivots: a vertex's support columns are linearly independent, so no
      wider face can carry one.

    It lists the generators in the order ``enumerate_generators`` does, and
    pays for every face it inspects, so it is a cross-check, not the path.
    """
    b = sys.outcomes
    pivots = sys.reduced[1]
    if pivots[-1] == b:
        return GeneratorSet.of(b, ())
    last_stage = len(pivots)

    generators: list[Vector] = []
    faces: list[Face] = [(i,) for i in range(b)]
    stage = 1
    while faces and stage <= last_stage:
        non_intersecting: set[Face] = set()
        for face in faces:
            point = face_intersection(sys, face)
            if point is None:
                non_intersecting.add(face)
            else:
                generators.append(point)
        stage += 1
        faces = _stage_candidates(non_intersecting, b) if stage <= last_stage else []
    return GeneratorSet.of(b, generators)


def brute_force_generators(sys: MartingaleSystem) -> GeneratorSet:
    """Oracle: try every nonempty outcome subset, keep the vertex hits.

    A subset contributes exactly when its restricted system has a unique
    solution that is strictly positive; that point is a vertex, and every
    vertex shows up once, at the subset equal to its support. Exponential in
    b by construction; meant for cross-checking at small sizes.
    """
    b = sys.outcomes
    found: list[Vector] = []
    for size in range(1, b + 1):
        for face in combinations(range(b), size):
            space = _face_solution(sys, face)
            if space.kind == "unique" and all(x > 0 for x in space.particular):
                found.append(_embed(face, space.particular, b))
    return GeneratorSet.of(b, found)


def convex_hull_member(point: Sequence[Fraction], vectors: Sequence[Vector]) -> bool:
    """Exact membership of a point in the convex hull of finitely many vectors.

    Decided by ``enumerate_generators`` on the weight polytope
    {w in simplex : V w = p}, which is nonempty exactly when it has a
    vertex. Its outcome guard is the number of hull vectors, so none is
    refused; the cost follows the double description's rays.
    """
    if not vectors:
        return False
    length = len(point)
    for v in vectors:
        if len(v) != length:
            raise InputError("hull vectors must match the point's length")
    columns = Matrix(
        tuple(tuple(v[i] for v in vectors) for i in range(length)), len(vectors)
    )
    weights = MartingaleSystem(columns, tuple(point))
    return len(enumerate_generators(weights, max_outcomes=len(vectors))) > 0
