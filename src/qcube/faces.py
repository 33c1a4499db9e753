"""k-face enumeration and exact face-intersection distributions.

A k-face is fixed by choosing k free positions and a value for each remaining
position. For a point set A, the distribution at level k maps each e >= 0 to
the number of k-faces whose intersection with A has exactly e elements.

Three routes tally it, all exact: grouping A's packed projections with a
Counter for each choice of fixed positions, one k at a time, here; one walk
over the increasing sets of fixed positions, in batches of the sets' fibres,
on A's per-(coordinate, value) bitsets (qcube.walk); one depth-first fold
over the increasing sets of free positions on bit-sliced counters with a
bit per cell of the cube (qcube.fold). The walk and the fold tally every
level of a range ks at once. This module is the one route picker: a cost
estimate from (q, n, ks, |A|) picks the route (_sliced_pays, from each
route's estimate here), and _profile_routed reaches the walk or the fold
through its module handle, so a process executes only the routes it takes.
profile(A, ks) takes a range, its guard estimate, the sum over ks of
C(n, k)*|A|, checked before anything is built, and distribution(A, k) is
its one-level case. The sweep profiles each family set once over its cell's
k range, and every row's distribution(A, k) reads that result after its own
guard check. Each level is kept in the set's own memo (PointSet.memo) until
the set is dropped.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Optional

from . import fold, walk
from .core import (
    DEFAULT_GUARD,
    KERNEL_MEMORY_CAP,
    ConsistencyError,
    CubeError,
    CubeParams,
    Face,
    Point,
    PointSet,
    _Record,
    _block_width,
    binom,
    check_guard,
    check_guard_power,
    column_mask,
    slices_cost,
)

class FaceDistribution(_Record):
    """Counts of k-faces by intersection size e.

    counts stores every nonzero entry plus the e = 0 entry explicitly, so two
    distributions are equal iff their cube, k and counts are equal. Missing
    keys read as zero through indexing. The counts dict makes it unhashable.
    """

    _fields = ("params", "k", "counts")
    params: CubeParams
    k: int
    counts: dict[int, int]

    def __init__(self, params: CubeParams, k: int, counts: dict[int, int]) -> None:
        self._set(params=params, k=k, counts=counts)

    @classmethod
    def checked(cls, params: CubeParams, k: int, counts: Mapping[int, int]) -> "FaceDistribution":
        """Normalize (drop zero entries except e = 0) and verify the counts:
        none is negative, and they add up to the total number of k-faces.
        The routes set e = 0 to that total minus the rest, so an over-count
        shows as a negative e = 0 count."""
        normalized = {e: c for e, c in counts.items() if c != 0 or e == 0}
        normalized.setdefault(0, 0)
        for e, c in normalized.items():
            if c < 0:
                raise ConsistencyError(f"face tally {c} at e={e} is negative at k={k}")
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
    check_guard_power(q, nf, guard, binom(n, k) * len(A))
    rows = A.coord_rows()
    count = 0
    for fixed_positions in combinations(range(n), nf):
        proj = _projector(fixed_positions)
        projected = [proj(row) for row in rows]
        for vals in product(range(q), repeat=nf):
            if all(pv == vals for pv in projected):
                count += 1
    return count


def _sliced_pays(params: CubeParams, ks: range, m: int) -> str:
    """The route estimated cheapest for the levels ks (consecutive,
    nonempty), from (q, n, ks, m) alone: "counter" for the Counter route at
    each k, "walk" for one walk (walk._profile_sliced) or "dense" for one
    dense fold (fold._profile_dense). A tie goes to the Counter route, and
    between the other two to the dense fold.

    Costs are in projections of a packed row. The Counter route costs
    C(n, k)*(m + 32) at each k: m projections, and about 32 more for the
    mask and the Counter of each choice of fixed positions. For the walk see
    _walk_cost and for the dense route _dense_cost; the dense route is not
    taken if what it holds could pass KERNEL_MEMORY_CAP (_dense_bytes)."""
    n = params.n
    costs = {"counter": sum(map(binom, [n] * len(ks), ks)) * (m + 32)}
    dense = _dense_cost(params, ks, m)
    if dense is not None:
        costs["dense"] = dense
    walk_cost = _walk_cost(params, ks, m, min(costs.values()))
    if walk_cost is not None:
        costs["walk"] = walk_cost
    return min(costs, key=costs.__getitem__)


def _walk_cost(params: CubeParams, ks: range, m: int, limit: int) -> Optional[int]:
    """The walk's estimated cost over the levels ks, or None if it is limit
    or more, or there are fewer than 2 points or no position to fix.

    The walk fixes d = 1..n-min(ks) positions; at depth d it enters
    C(min(n, max(ks)+d), d) prefixes, those with a level of ks at or below
    them, and each splits its parent's fibres of two or more points by q
    values. Those fibres number at most q**(d-1) and m/2, and about
    C(m, 2)/q**(d-1) when the set is spread evenly. An AND of two m-bit sets
    is counted as 2 projections, fitted on the walk's timings, plus one per
    1 024 bits, and building the slices as core.slices_cost, m*n/8 at q = 2."""
    n, q = params.n, params.q
    lo, hi = ks[0], ks[-1]
    if m < 2 or lo == n:
        return None
    pairs = m * (m - 1) // 2
    start = slices_cost(params, m)
    ands, cells = 0, 1
    for d in range(1, n - lo + 1):
        fibres = min(cells, m // 2, -(-pairs // cells))
        ands += binom(min(n, hi + d), d) * fibres * q
        if ands * (2 + m // 1024) + start >= limit:
            return None
        cells = min(pairs, cells * q)
    return ands * (2 + m // 1024) + start


def _dense_cost(params: CubeParams, ks: range, m: int) -> Optional[int]:
    """The dense fold route's estimated cost over the levels ks, or None if
    _dense_bytes puts what it holds over KERNEL_MEMORY_CAP.

    Every int it works on has a bit per cell, 2**(n*w) bits in
    ceil(2**(n*w)/64) words, and an operation on one is counted as one
    projection plus one per 256 words. The count at a cell after d folds is
    at most min(m, q**d), and about m/q**(n-d) when the set is spread
    evenly; taking at most min(m, q**d, 2*ceil(m/q**(n-d)) + 4) gives the
    number of planes P(d), its bit length. A fold at depth d costs
    (q-1)*6*P(d-1) + P(d) operations, the ripple-carry adds of the q-1
    shifted siblings and the masks; the depth-first walk folds C(n -
    max(0, min(ks) - d), d) times at depth d. A tally at level k takes one
    operation a plane for the planes' OR, which it splits by each plane
    into at most min(2**(i+1), V) parts at the i-th plane from the top, two
    operations a part; V is the same bound on the count, or q**(n-k) if
    fewer. Each fold and each tally adds 13 projections for its calls and
    lists, the n masks 10 operations each, and the indicator one
    projection per point."""
    # One int of 2**(n*w) bits alone passes the cap from this size on.
    if _cell_bits(params) >= (8 * KERNEL_MEMORY_CAP).bit_length():
        return None
    if _dense_bytes(params, ks, m) > KERNEL_MEMORY_CAP:
        return None
    n, q = params.n, params.q
    lo, hi = ks[0], ks[-1]
    unit = 256 + -(-(1 << _cell_bits(params)) // 64)  # 256 * one operation
    tops = [min(m, q**d, 2 * -(-m // q ** (n - d)) + 4) for d in range(hi + 1)]
    planes = [top.bit_length() for top in tops]
    ops = 10 * n
    calls = 0
    for d in range(1, hi + 1):
        folds = binom(n - max(0, lo - d), d)
        calls += folds
        ops += folds * ((q - 1) * 6 * planes[d - 1] + planes[d])
    for k in ks:
        parts = min(tops[k], q ** (n - k))
        calls += binom(n, k)
        ops += binom(n, k) * (planes[k] + 2 * sum(min(2 << i, parts) for i in range(planes[k])))
    return ops * unit // 256 + 13 * calls + m


def _dense_bytes(params: CubeParams, ks: range, m: int) -> int:
    """Upper bound on the bytes the dense fold route holds at once over the
    levels ks, counting 2/15 byte per bit (CPython stores 30 bits in 4
    bytes) and 32 bytes more per int, each int 2**(n*w) bits at most:
    - the indicator's bytearray, a bit per cell;
    - the n masks of fold._block_cells;
    - the planes of every fold on the current path, bit_length(min(m, q**d))
      at depth d = 0..max(ks);
    - a fold's sum before and after the mask and its carries, 2(P + w) + 4
      ints, P the most planes: the sum of q counts below 2**P, over every
      cell, has at most P + w planes;
    - a tally's two levels of parts, 2*min(2**P, q**(n-min(ks))) + 1 ints;
    and 64 KiB of the interpreter's own."""
    n, q = params.n, params.q
    cells = 1 << _cell_bits(params)
    planes = [min(m, q**d).bit_length() for d in range(ks[-1] + 1)]
    most = max(planes)
    ints = n + sum(planes) + 2 * (most + _block_width(params)) + 4
    ints += 2 * min(1 << most, q ** (n - ks[0])) + 1
    return ints * (cells * 2 // 15 + 32) + cells // 8 + (64 << 10)


def _cell_bits(params: CubeParams) -> int:
    """n*w: every packed point of the cube lies below 2**(n*w), so it names
    one cell, a bit position, of an int of 2**(n*w) bits. For q a power of
    two the cells are exactly the q**n points; otherwise the cells whose
    blocks hold a code of q or more name no point."""
    return params.n * _block_width(params)


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


def _profile_routed(A: PointSet, ks: range) -> list[FaceDistribution]:
    """The distributions at ks by the route _sliced_pays picks: one walk,
    one dense fold, or the Counter route at each k."""
    route = _sliced_pays(A.params, ks, len(A))
    if route == "walk":
        return walk._profile_sliced(A, ks)
    if route == "dense":
        return fold._profile_dense(A, ks)
    return [_distribution_counted(A, k) for k in ks]


def profile(A: PointSet, ks: Optional[range] = None, guard: int = DEFAULT_GUARD) -> list[FaceDistribution]:
    """The distribution at every level k in ks, consecutive and in [0, n]
    (all of 0..n by default), in order of k: distribution(A, k) for each k,
    from one walk.

    The guard estimate is the sum over ks of distribution's, that is
    sum C(n, k)*max(|A|, 1), and it is checked on every call, before
    anything is looked up or built. _sliced_pays, extended to the range,
    picks between one walk for every k (walk._profile_sliced), one dense
    fold for every k (fold._profile_dense) and the Counter route at each k. Each level is
    kept in A.memo under (FaceDistribution, k) for as long as A lives (an
    equal set built apart computes its own), and a later call computes only
    if a level of ks is missing, so treat the returned counts as read-only."""
    params = A.params
    n = params.n
    ks = range(n + 1) if ks is None else ks
    if ks.step != 1:
        raise CubeError("profile needs consecutive levels k")
    if not ks:
        return []
    _check_k(params, ks[0])
    _check_k(params, ks[-1])
    check_guard(sum(map(binom, [n] * len(ks), ks)) * max(len(A), 1), guard)
    known, levels = A.memo, [(FaceDistribution, k) for k in ks]
    if not all(map(known.__contains__, levels)):
        known.update(zip(levels, _profile_routed(A, ks)))
    return list(map(known.__getitem__, levels))


def distribution(A: PointSet, k: int, guard: int = DEFAULT_GUARD) -> FaceDistribution:
    """Exact distribution e -> number of k-faces meeting A in exactly e points:
    profile(A, range(k, k + 1), guard)[0].

    A k-face is a fibre of one value assignment on n-k fixed positions. The
    route _sliced_pays picks from (q, n, k, |A|) tallies the nonempty fibres
    of the one level k, and the rest are empty: the Counter route, C(n, k)
    projections of each point of A (the packed rows masked by
    core.column_mask), the walk (walk._profile_sliced) or the dense fold
    (fold._profile_dense). distribution_bruteforce, a per-face scan over
    coordinate tuples, is the oracle of all three. The guard estimate,
    C(n, k)*max(|A|, 1) on every route, is checked on every call, and a
    level that profile() or an earlier call computed is read from A.memo,
    not computed again, so treat the returned counts as read-only.
    """
    return profile(A, range(k, k + 1), guard)[0]


def distribution_bruteforce(A: PointSet, k: int, guard: int = DEFAULT_GUARD) -> FaceDistribution:
    """Oracle twin of distribution(): visit every k-face and count its overlap.

    Budget: |A| membership comparisons per face against the guard.
    """
    params = A.params
    _check_k(params, k)
    n, q = params.n, params.q
    nf = n - k
    check_guard_power(q, nf, guard, binom(n, k) * max(len(A), 1))
    rows = A.coord_rows()
    counts: Counter[int] = Counter()
    for fixed_positions in combinations(range(n), nf):
        proj = _projector(fixed_positions)
        projected = [proj(row) for row in rows]
        for vals in product(range(q), repeat=nf):
            counts[projected.count(vals)] += 1
    return FaceDistribution.checked(params, k, dict(counts))
