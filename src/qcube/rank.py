"""Subset rank, pairwise-distance metrics, rank bounds, and isometry checks.

The rank of a nonempty point set is the number of coordinate positions on
which its points do not all agree; equivalently, the dimension of the smallest
face containing the whole set.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Optional, Sequence

from .core import (
    DEFAULT_GUARD,
    ConsistencyError,
    CubeError,
    Point,
    PointSet,
    _Record,
    block_fold,
    check_guard,
    column_mask,
    slices_cost,
)


class DistanceProfile(_Record):
    """Pairwise Hamming distances keyed by 0-based index pairs (i, j), i < j,
    over the canonical point order, plus their total."""

    _fields = ("pairwise", "total")
    pairwise: dict[tuple[int, int], int]
    total: int

    def __init__(self, pairwise: dict[tuple[int, int], int], total: int) -> None:
        self._set(pairwise=pairwise, total=total)


class RankBounds(_Record):
    """Exact rational bounds on the rank; exact_rank is filled when known."""

    _fields = ("lower", "upper", "exact_rank")
    lower: Fraction
    upper: Fraction
    exact_rank: Optional[int]

    def __init__(self, lower: Fraction, upper: Fraction, exact_rank: Optional[int] = None) -> None:
        self._set(lower=lower, upper=upper, exact_rank=exact_rank)


def rank_rows(rows: Sequence[tuple[int, ...]]) -> int:
    """Rank of raw coordinate rows: count of non-constant columns."""
    first = rows[0]
    return sum(1 for j in range(len(first)) if any(row[j] != first[j] for row in rows))


def rank(A: PointSet) -> int:
    """Number of coordinate positions where the points of A do not all agree.

    Popcount of the folded OR of the packed differences against the first
    row; the oracle is rank_rows over the set's rows (PointSet.rows).
    """
    if len(A) == 0:
        raise CubeError("rank of the empty set is undefined")
    first = A.packed[0]
    return block_fold(A.params)(reduce(or_, map(first.__xor__, A.packed))).bit_count()


def distance_sum(A: PointSet, guard: int = DEFAULT_GUARD) -> DistanceProfile:
    """All pairwise distances of A together with their sum. The m(m-1)/2 pairs
    are checked against the guard before the first one.

    Each distance is the popcount of the folded XOR of two packed rows
    (core.block_fold over PointSet.packed), for every q; the oracle is
    positionwise comparison of two of PointSet.rows, as core.hamming does for
    two Points. Callers that need only the total use distance_total, which
    builds no table.
    """
    if len(A) == 0:
        raise CubeError("distance profile of the empty set is undefined")
    packed = A.packed
    check_guard(len(packed) * (len(packed) - 1) // 2, guard)
    fold = block_fold(A.params)
    pairwise = {
        (i, j): fold(packed[i] ^ packed[j]).bit_count()
        for i, j in combinations(range(len(packed)), 2)
    }
    return DistanceProfile(pairwise, sum(pairwise.values()))


def distance_total(A: PointSet) -> int:
    """Sum of the pairwise Hamming distances of A, in O(nm) for every q.

    A column in which value v occurs c_v times holds (m^2 - sum_v c_v^2) / 2
    unordered differing pairs; summing over columns double-counts nothing, so
    the result equals distance_sum(A).total, its oracle. c_v is the popcount
    of the column's value bitset (PointSet.slices) while those cost no more
    than the n*m projections they replace (core.slices_cost), which holds for
    q <= 16 and for m <= 16; otherwise the packed rows masked to the column
    are counted.
    """
    m = len(A)
    if m == 0:
        raise CubeError("distance total of the empty set is undefined")
    params = A.params
    if slices_cost(params, m) <= params.n * m:
        columns = [map(int.bit_count, column) for column in A.slices]
    else:
        columns = [
            Counter(map(column_mask(params, (j,)).__and__, A.packed)).values()
            for j in range(params.n)
        ]
    return sum((m * m - sum(c * c for c in counts)) // 2 for counts in columns)


def _require_binary(A: PointSet, what: str) -> None:
    if A.params.q != 2:
        raise CubeError(f"{what} is defined for q = 2 only, got q = {A.params.q}")


def column_distance_sum(A: PointSet) -> int:
    """distance_total restricted to binary cubes: each column with z zeros
    and (m - z) ones contributes z * (m - z) differing pairs."""
    _require_binary(A, "column_distance_sum")
    return distance_total(A)


def bounds_from_total(m: int, total: int) -> tuple[Fraction, Fraction]:
    """Exact rational (lower, upper) rank bounds of a binary set of m >= 1
    points whose pairwise distances sum to D = total.

    A singleton has rank 0; even m gives 4D/m^2 <= rank <= D/(m-1); odd m > 1
    sharpens the lower bound to 4D/(m^2 - 1). For m <= 3 the two bounds
    coincide with the rank.
    """
    if m == 1:
        return Fraction(0), Fraction(0)
    upper = Fraction(total, m - 1)
    if m % 2 == 0:
        lower = Fraction(4 * total, m * m)
    else:
        lower = Fraction(4 * total, m * m - 1)
    return lower, upper


def rank_bounds(A: PointSet, guard: int = DEFAULT_GUARD) -> RankBounds:
    """Exact rational rank bounds for binary point sets (bounds_from_total
    over the distance total).

    exact_rank is always populated here, by the row-scan oracle rank_rows, so
    that a bounds check holds the packed distance total against a rank that
    shares no code with it. Both scans read n*|A| coordinates, which are
    checked against the guard before anything else.
    """
    check_guard(A.params.n * len(A), guard)
    _require_binary(A, "rank_bounds")
    m = len(A)
    if m == 0:
        raise CubeError("rank bounds of the empty set are undefined")
    exact = rank_rows(A.coord_rows())
    return RankBounds(*bounds_from_total(m, distance_total(A)), exact)


def closed_rank_from_total(m: int, total: int) -> Optional[int]:
    """Closed-form rank of a binary set of 1 <= m <= 3 points whose pairwise
    distances sum to total; None for m >= 4.

    m = 1 gives 0, m = 2 gives the total (the one pair distance), m = 3 gives
    half of it (always an integer in a binary cube: a column on which the
    triple disagrees contributes exactly 2).
    """
    if m == 1:
        return 0
    if m == 2:
        return total
    if m == 3:
        if total % 2:
            raise ConsistencyError(
                f"odd pairwise distance total {total} for a binary triple"
            )
        return total // 2
    return None


def rank_closed_small(A: PointSet) -> Optional[int]:
    """Closed-form rank for binary sets of at most three points
    (closed_rank_from_total over the distance total). Returns None for
    |A| >= 4."""
    _require_binary(A, "rank_closed_small")
    m = len(A)
    if m == 0:
        raise CubeError("rank of the empty set is undefined")
    return closed_rank_from_total(m, distance_total(A)) if m <= 3 else None


def _distance_matrix(A: PointSet) -> list[list[int]]:
    fold = block_fold(A.params)
    return [[fold(a ^ b).bit_count() for b in A.packed] for a in A.packed]


def isometric(
    A: PointSet, B: PointSet, guard: int = DEFAULT_GUARD
) -> Optional[dict[Point, Point]]:
    """Search for a distance-preserving bijection from A onto B.

    The two sets may live in different cubes (even different dimensions); only
    the internal distance structure is compared. Backtracking assignment with
    pruning on per-point sorted distance multisets; worst case is factorial in
    the set size, so the search counts its nodes (one per partial assignment
    extended, the empty one included) and raises SizeGuardError once the
    count passes the guard. Returns the bijection as a dict, or None.
    """
    m = len(A)
    if m != len(B):
        return None
    if m == 0:
        return {}
    da = _distance_matrix(A)
    db = _distance_matrix(B)
    profiles_b = [tuple(sorted(db[j])) for j in range(m)]
    candidates = [
        [j for j in range(m) if profiles_b[j] == tuple(sorted(da[i]))] for i in range(m)
    ]
    assign = [-1] * m
    used = [False] * m
    nodes = 0

    def backtrack(i: int) -> bool:
        nonlocal nodes
        nodes += 1
        check_guard(nodes, guard)
        if i == m:
            return True
        for j in candidates[i]:
            if used[j]:
                continue
            if any(da[i][t] != db[j][assign[t]] for t in range(i)):
                continue
            assign[i] = j
            used[j] = True
            if backtrack(i + 1):
                return True
            used[j] = False
        assign[i] = -1
        return False

    if not backtrack(0):
        return None
    return {A.points[i]: B.points[assign[i]] for i in range(m)}


def random_isometry_image(A: PointSet, seed: int) -> PointSet:
    """Image of A under a seeded random isometry of its cube.

    The isometry is a uniform coordinate permutation composed with an
    independent uniform value permutation of {0, ..., q-1} at each coordinate.
    Deterministic for a fixed seed.
    """
    import random  # only here, so that rank and bounds never import it

    rng = random.Random(seed)
    n, q = A.params.n, A.params.q
    perm = rng.sample(range(n), n)
    tables = [rng.sample(range(q), q) for _ in range(n)]
    mapped = [tuple(tables[i][row[perm[i]]] for i in range(n)) for row in A.rows]
    return PointSet(A.params, tuple(mapped))
