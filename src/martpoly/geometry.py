"""Vertex enumeration for the martingale-measure polytope.

The set of martingale measures of a one-period market is the intersection of
the standard simplex with the affine solution space A of the linear system.
That intersection is a polytope, and every measure is a convex combination of
finitely many vertex measures, its generators. This module enumerates those
generators exactly, two independent ways:

* ``enumerate_generators`` walks simplex faces by ascending dimension,
  extending only faces whose entire boundary failed to meet A, so each
  generator is found in the relative interior of its own face.
* ``brute_force_generators`` tries every nonempty outcome subset. It is the
  oracle the staged walk is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InputError, InternalContractError, LimitExceededError
from .market import MartingaleSystem, augmented_matrix
from .rationals import Matrix, SolutionSpace, Vector, eliminate, solve

Face = tuple[int, ...]

DEFAULT_MAX_OUTCOMES = 16


@dataclass(frozen=True)
class GeneratorSet:
    """The vertex measures whose convex hull is the full measure set.

    Generators are listed in discovery order: by support size ascending and
    lexicographically within one size. Each lies in the relative interior of
    a distinct simplex face, so they are pairwise distinct and none is a
    convex combination of the others.
    """

    outcomes: int
    generators: tuple[Vector, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if len(g) != self.outcomes:
                raise InputError("generator length must equal the outcome count")

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    @property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        """Per generator, the outcome indices carrying positive mass."""
        return tuple(
            tuple(i for i, x in enumerate(g) if x > 0) for g in self.generators
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

    The face's columns and the rhs of ``sys.reduced``'s rows are its
    restricted system (mass one on the face, and the asset rows), and the
    fraction-free ``eliminate`` decides it in integers: coordinate i of the
    solution is ``rows[i][k] / rows[i][i]`` and its sign is the sign of
    their product. Fractions are built only for a hit.

    Intended for faces none of whose proper subfaces meets A (the invariant
    the staged enumeration maintains). Under that precondition:

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
    k = len(idx)
    rhs = sys.outcomes
    rows = [[row[j] for j in idx] + [row[rhs]] for row in sys.reduced[0]]
    pivots = eliminate(rows, k + 1)
    # unique exactly when the pivots are the k face columns, none on the rhs
    if len(pivots) != k or pivots[-1] != k - 1:
        return None
    signs = [rows[i][k] * rows[i][i] for i in range(k)]
    if any(s < 0 for s in signs):
        return None
    coords = tuple(Fraction(rows[i][k], rows[i][i]) for i in range(k))
    if all(s > 0 for s in signs):
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
    """Vertices of {q >= 0, sum(q) = 1, matrix q = rhs} by staged face walk.

    Stage k inspects the faces spanned by k outcomes whose entire boundary
    was recorded as missing A in stage k-1; an intersecting face contributes
    the unique point of its relative interior that lies in A. The pivots of
    ``sys.reduced`` bound the walk first:

    * a pivot in the rhs column means the full system is inconsistent, so
      the measure set is empty and so is the result;
    * otherwise the walk stops after stage rank [1; matrix], the number of
      pivots: a vertex's support columns are linearly independent, so no
      wider face can carry one.

    The face scan is exponential in b, so ``max_outcomes`` turns a silent
    blow-up into an explicit LimitExceededError.
    """
    b = sys.outcomes
    if b > max_outcomes:
        raise LimitExceededError(
            f"{b} outcomes exceeds the face-enumeration guard of {max_outcomes}"
        )
    pivots = sys.reduced[1]
    if pivots[-1] == b:
        return GeneratorSet(b, ())
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
    return GeneratorSet(b, tuple(generators))


def brute_force_generators(sys: MartingaleSystem) -> GeneratorSet:
    """Oracle: try every nonempty outcome subset, keep the vertex hits.

    A subset contributes exactly when its restricted system has a unique
    solution that is strictly positive; that point is a vertex, and every
    vertex shows up at the subset equal to its support. Exponential in b by
    construction; meant for cross-checking at small sizes.
    """
    b = sys.outcomes
    found: list[Vector] = []
    seen: set[Vector] = set()
    for size in range(1, b + 1):
        for face in combinations(range(b), size):
            space = _face_solution(sys, face)
            if space.kind != "unique":
                continue
            coords = space.particular
            assert coords is not None
            if all(x > 0 for x in coords):
                point = _embed(face, coords, b)
                if point not in seen:
                    seen.add(point)
                    found.append(point)
    return GeneratorSet(b, tuple(found))


def convex_hull_member(point: Sequence[Fraction], vectors: Sequence[Vector]) -> bool:
    """Exact membership of a point in the convex hull of finitely many vectors.

    Decided by vertex-searching the weight polytope {w in simplex : V w = p},
    which is nonempty exactly when it has a vertex. Desk-scale only: the
    search is exponential in the number of hull vectors.
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
    return len(brute_force_generators(weights)) > 0
