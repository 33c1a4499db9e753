"""k-face enumeration and exact face-intersection distributions.

A k-face is fixed by choosing k free positions and a value for each remaining
position. For a point set A, the distribution at level k maps each e >= 0 to
the number of k-faces whose intersection with A has exactly e elements.

distribution() tallies it by one of two routes, both exact: grouping A's
packed projections with a Counter for each choice of fixed positions, or
walking the choices as increasing prefixes over A's per-(coordinate, value)
bitsets. A cost estimate from (q, n, k, |A|) picks the route (_sliced_pays):
the sliced one when its bitset ANDs, at 3 projections each plus one per
1 024 points, and building the bitsets (|A|*n/8 for q = 2) cost less than
the Counter route's C(n, k)*|A| projections.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from dataclasses import dataclass
from itertools import combinations, product
from operator import itemgetter, sub
from typing import Callable, Iterator, Mapping

from .core import (
    DEFAULT_GUARD,
    ConsistencyError,
    CubeError,
    CubeParams,
    Face,
    Point,
    PointSet,
    binom,
    check_guard,
    column_mask,
    slices_cost,
)


@dataclass(frozen=True)
class FaceDistribution:
    """Counts of k-faces by intersection size e.

    counts stores every nonzero entry plus the e = 0 entry explicitly, so two
    distributions are equal iff they agree as dataclasses. Missing keys read
    as zero through indexing.
    """

    params: CubeParams
    k: int
    counts: dict[int, int]

    @classmethod
    def checked(cls, params: CubeParams, k: int, counts: Mapping[int, int]) -> "FaceDistribution":
        """Normalize (drop zero entries except e = 0) and verify conservation:
        the counts must add up to the total number of k-faces."""
        normalized = {e: c for e, c in counts.items() if c != 0 or e == 0}
        normalized.setdefault(0, 0)
        expected = total_faces(params, k)
        actual = sum(normalized.values())
        if actual != expected:
            raise ConsistencyError(
                f"face tally {actual} does not match the face count {expected} at k={k}"
            )
        return cls(params, k, normalized)

    def __getitem__(self, e: int) -> int:
        return self.counts.get(e, 0)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _check_k(params: CubeParams, k: int) -> None:
    if not 0 <= k <= params.n:
        raise CubeError(f"k must be in [0, {params.n}], got {k}")


def _require_nonempty(A: PointSet) -> None:
    if len(A) == 0:
        raise CubeError("operation requires a nonempty point set")


def total_faces(params: CubeParams, k: int) -> int:
    """Number of k-faces of the cube: binom(n, k) * q**(n - k)."""
    _check_k(params, k)
    return binom(params.n, k) * params.q ** (params.n - k)


def enumerate_faces(params: CubeParams, k: int) -> Iterator[Face]:
    """Yield every k-face exactly once.

    Deterministic order: free-position sets lexicographically, then fixed
    values lexicographically.
    """
    _check_k(params, k)
    n, q = params.n, params.q
    for free in combinations(range(n), k):
        free_set = set(free)
        fixed_positions = [i for i in range(n) if i not in free_set]
        for vals in product(range(q), repeat=n - k):
            yield Face(params, frozenset(free), tuple(zip(fixed_positions, vals)))


def face_contains(F: Face, p: Point) -> bool:
    """Whether the point matches every fixed coordinate of the face."""
    if F.params != p.params:
        raise CubeError("face and point live in different cubes")
    return all(p.coords[i] == v for i, v in F.fixed_values)


def faces_containing_count(A: PointSet, k: int) -> int:
    """Closed-form count of k-faces containing all of A: C(n - r, k - r) with
    r = rank(A). Zero whenever k < r."""
    from .rank import rank  # only here, so that distribution() never runs qcube.rank

    _require_nonempty(A)
    _check_k(A.params, k)
    r = rank(A)
    return binom(A.params.n - r, k - r)


def _projector(positions: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    # itemgetter with one index returns a scalar, so normalize to tuples.
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        i = positions[0]
        return lambda row: (row[i],)
    return itemgetter(*positions)


def faces_containing_bruteforce(A: PointSet, k: int, guard: int = DEFAULT_GUARD) -> int:
    """Count k-faces containing all of A by scanning every face.

    Deliberately independent of the closed form: no ranks, just membership
    tests (with early exit), one fixed-value assignment at a time. Budget:
    |A| membership tests per face against the guard.

    An oracle only: no CLI path calls it. The sweep's lemma_face_count rows
    read the e = |A| entry of distribution() instead, costed with this scan's
    estimate; the tests hold both, and faces_containing_count, to this count.
    """
    _require_nonempty(A)
    params = A.params
    _check_k(params, k)
    n, q = params.n, params.q
    nf = n - k
    check_guard(total_faces(params, k) * len(A), guard)
    rows = A.coord_rows()
    count = 0
    for fixed_positions in combinations(range(n), nf):
        proj = _projector(fixed_positions)
        projected = [proj(row) for row in rows]
        for vals in product(range(q), repeat=nf):
            if all(pv == vals for pv in projected):
                count += 1
    return count


def _sliced_pays(params: CubeParams, k: int, m: int) -> bool:
    """Whether the sliced route is estimated cheaper than the Counter route,
    from (q, n, k, m) alone.

    The Counter route costs C(n, k)*m projections. The sliced route fixes
    d = 1..n-k positions; at depth d at most C(k+d, d) prefixes each split at
    most min(m, q**(d-1)) fibres by q values. An AND of two m-bit sets is
    counted as 3 projections plus one per 1 024 bits, and building the
    slices as core.slices_cost, m*n/8 for q = 2. With fewer than 2 points, or
    no position to fix, the Counter route is taken."""
    n, q = params.n, params.q
    if m < 2 or k == n:
        return False
    budget = binom(n, k) * m - slices_cost(params, m)
    ands, fibres = 0, 1
    for d in range(1, n - k + 1):
        ands += binom(k + d, d) * fibres * q
        if ands * (3 + m // 1024) >= budget:
            return False
        fibres = min(m, fibres * q)
    return True


def _distribution_counted(A: PointSet, k: int) -> FaceDistribution:
    """The Counter route: group A's projections for each choice of fixed
    positions."""
    params = A.params
    n, q = params.n, params.q
    nf = n - k
    packed = A.packed
    faces_per_choice = q**nf
    counts: Counter[int] = Counter()
    empty = 0
    for fixed_positions in combinations(range(n), nf):
        groups = Counter(map(column_mask(params, fixed_positions).__and__, packed))
        counts.update(groups.values())
        empty += faces_per_choice - len(groups)
    result = dict(counts)
    result[0] = empty
    return FaceDistribution.checked(params, k, result)


def _distribution_sliced(A: PointSet, k: int) -> FaceDistribution:
    """The sliced route: walk the increasing prefixes of fixed positions
    depth first over A's value bitsets (PointSet.slices), one bit per point.

    A prefix's nonempty fibres are split by `fibre & slices[j][v]` when j
    becomes the next fixed position, so every extension of a prefix reuses
    its partition. A fibre of one point stays one point in each of the
    prefix's extensions and is tallied at once; at the last fixed position
    the fibres' popcounts are tallied, the last value's as the fibre's size
    minus the others'. The empty faces are the rest of total_faces."""
    params = A.params
    n, m = params.n, len(A)
    slices = A.slices
    counts: Counter[int] = Counter()

    def walk(fibres: list[int], start: int, left: int) -> None:
        # fibres: the nonempty fibres of one prefix, whose fixed positions all
        # lie below start; left more positions are to be fixed.
        shared = [s for s in fibres if s & (s - 1)]
        if len(shared) < len(fibres):
            counts[1] += (len(fibres) - len(shared)) * binom(n - start, left)
        if not shared:
            return
        if left > 1:
            for j in range(start, n - left + 1):
                walk([t for s in shared for v in slices[j] if (t := s & v)], j + 1, left - 1)
            return
        sizes = [s.bit_count() for s in shared]
        for j in range(start, n):
            *head, _ = slices[j]
            rest = sizes
            for v in head:
                sized = [(s & v).bit_count() for s in shared]
                counts.update(sized)
                rest = list(map(sub, rest, sized))
            counts.update(rest)

    if k == n:  # the one face is the whole cube
        counts[m] += 1
    elif m:
        walk([(1 << m) - 1], 0, n - k)
    del counts[0]  # the leaves tally empty fibres too
    counts[0] = total_faces(params, k) - sum(counts.values())
    return FaceDistribution.checked(params, k, counts)


@lru_cache(maxsize=1024)
def _distribution_grouped(A: PointSet, k: int) -> FaceDistribution:
    sliced = _sliced_pays(A.params, k, len(A))
    return (_distribution_sliced if sliced else _distribution_counted)(A, k)


def distribution(A: PointSet, k: int, guard: int = DEFAULT_GUARD) -> FaceDistribution:
    """Exact distribution e -> number of k-faces meeting A in exactly e points.

    A k-face is a fibre of one value assignment on n-k fixed positions. Two
    routes tally the nonempty fibres, and the rest are empty:
    - the Counter route groups A's projections onto each choice of fixed
      positions (the packed rows masked by core.column_mask), |A| projections
      per choice, C(n, k)*|A| in all;
    - the sliced route walks the choices as increasing prefixes over A's
      value bitsets, so a fibre is split once for all choices that extend its
      prefix, and the per-point work runs inside int operations, a machine
      word per 64 points.
    The route is picked from (q, n, k, |A|) alone by a cost estimate, see
    _sliced_pays. distribution_bruteforce, a per-face scan over coordinate
    tuples, is the oracle of both.

    The guard estimate is C(n, k)*|A| on either route and is checked on every
    call; results are cached per (A, k), so treat the returned counts as
    read-only.
    """
    _check_k(A.params, k)
    check_guard(binom(A.params.n, k) * max(len(A), 1), guard)
    return _distribution_grouped(A, k)


def distribution_bruteforce(A: PointSet, k: int, guard: int = DEFAULT_GUARD) -> FaceDistribution:
    """Oracle twin of distribution(): visit every k-face and count its overlap.

    Budget: |A| membership comparisons per face against the guard.
    """
    params = A.params
    _check_k(params, k)
    n, q = params.n, params.q
    nf = n - k
    check_guard(total_faces(params, k) * max(len(A), 1), guard)
    rows = A.coord_rows()
    counts: Counter[int] = Counter()
    for fixed_positions in combinations(range(n), nf):
        proj = _projector(fixed_positions)
        projected = [proj(row) for row in rows]
        for vals in product(range(q), repeat=nf):
            counts[projected.count(vals)] += 1
    return FaceDistribution.checked(params, k, dict(counts))
