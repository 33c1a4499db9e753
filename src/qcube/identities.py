"""Two-sided evaluation of the face-count identities.

Each check computes its left side from the face-intersection distribution and
its right side from subset ranks or pairwise distances, through code paths
that share nothing beyond the core primitives (the right side reads
PointSet.packed, block_fold, PointSet.slices and binom), then reports exact
equality. Both sides keep their per-set results in the set's own memo
(PointSet.memo, through per_set), which holds no logic of either side.

verify_main is `qcube verify`'s path; corollary_s1..s3 are the library's.
The sweep's family identities are the main theorem at one s each,
Σ_e C(e, s)·N_k(e) = Σ_{|B| = s} C(n − r(B), k − r(B)), whose right side is
H_s, the s-subsets counted by rank r (_subset_rank_histogram, one per set
and s): main at each s, corollaries 1, 2 and 3 at s = 1, 2 and 3 (a pair's
rank is its distance, a binary triple's half its distance sum), and the
face-count lemma at s = |A| (rank(A)). family_points evaluates them all from
one table (_FAMILIES), each point's checks in its per-point function's
order, and these per-point functions are its oracle.
"""

from __future__ import annotations

from collections import Counter
from functools import wraps
from itertools import accumulate, combinations, compress
from math import comb
from operator import and_, lshift
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

from . import complement
from .core import (
    DEFAULT_GUARD,
    KERNEL_MEMORY_CAP,
    ConsistencyError,
    CubeError,
    CubeParams,
    PointSet,
    SizeGuardError,
    _Record,
    binom,
    block_fold,
    check_guard,
    check_guard_power,
)
from .faces import _check_k, _require_nonempty, distribution, profile
from .rank import distance_sum, rank, rank_rows

Terms = tuple[tuple[str, int], ...]


def per_set(fn: Callable[..., Any]) -> Callable[..., Any]:
    """fn(A, *key) computed once per point set object and key, and kept in
    A.memo. A hit checks no guard, so each caller checks every guard fn's
    work would check before the lookup. cache_info() and cache_clear() are
    named as functools names them: they read and reset fn's lookup counts."""
    lookups: Counter[bool] = Counter()  # hit -> lookups

    @wraps(fn)
    def cached(A: PointSet, *key: Any) -> Any:
        known = A.memo
        hit = (fn, key) in known
        lookups[hit] += 1
        if not hit:
            known[fn, key] = fn(A, *key)
        return known[fn, key]

    cached.cache_info = lambda: SimpleNamespace(hits=lookups[True], misses=lookups[False])
    cached.cache_clear = lookups.clear
    return cached


class IdentityReport(_Record):
    """Outcome of one identity check: both sides, equality, optional per-term
    breakdowns (label, value) whose values sum to their side."""

    _fields = ("identity", "params", "lhs", "rhs", "equal", "lhs_terms", "rhs_terms", "note")
    identity: str
    params: dict[str, Any]
    lhs: int
    rhs: int
    equal: bool
    lhs_terms: Optional[Terms]
    rhs_terms: Optional[Terms]
    note: Optional[str]

    def __init__(
        self,
        identity: str,
        params: dict[str, Any],
        lhs: int,
        rhs: int,
        equal: bool,
        lhs_terms: Optional[Terms] = None,
        rhs_terms: Optional[Terms] = None,
        note: Optional[str] = None,
    ) -> None:
        self._set(
            identity=identity, params=params, lhs=lhs, rhs=rhs, equal=equal,
            lhs_terms=lhs_terms, rhs_terms=rhs_terms, note=note,
        )

    @classmethod
    def of(
        cls,
        identity: str,
        params: dict[str, Any],
        lhs: int,
        rhs: int,
        lhs_terms: Optional[Terms] = None,
        rhs_terms: Optional[Terms] = None,
        proven: bool = False,
    ) -> "IdentityReport":
        equal = lhs == rhs
        note = None
        if proven and not equal:
            note = "sides of a proven identity differ: implementation defect"
        return cls(identity, params, lhs, rhs, equal, lhs_terms, rhs_terms, note)


def intersection_cap(A: PointSet, k: int) -> int:
    """Largest possible |A ∩ F| over k-faces F: min(|A|, q**k)."""
    return min(len(A), A.params.q**k)


def _check_s(A: PointSet, k: int, s: int) -> None:
    _check_k(A.params, k)
    cap = intersection_cap(A, k)
    if not 1 <= s <= cap:
        raise CubeError(f"s must be in [1, {cap}] for this set and k, got {s}")


def _require_size(A: PointSet, least: int, what: str) -> None:
    if len(A) < least:
        raise CubeError(f"{what} requires at least {least} points, got {len(A)}")


def _lhs_terms(A: PointSet, k: int, s: int, guard: int) -> Terms:
    """The left side's terms, labelled by e in increasing order."""
    dist = distribution(A, k, guard)
    return tuple((f"e={e}", binom(e, s) * count) for e, count in dist.items() if e >= s)


def _left(A: PointSet, k: int, s: int, guard: int, include_terms: bool) -> tuple[int, Optional[Terms]]:
    """The left side's sum, and its terms if asked for."""
    terms = _lhs_terms(A, k, s, guard)
    return sum(v for _, v in terms), terms if include_terms else None


def _right(histogram: Iterable[tuple[int, int]], n: int, k: int) -> int:
    """Sum of C(n - r, k - r) over a histogram r -> number of subsets."""
    return sum(count * binom(n - r, k - r) for r, count in histogram)


def _report(
    identity: str, A: PointSet, k: int, s: int, lhs: int, rhs: int, lt: Optional[Terms], rt: Optional[Terms]
) -> IdentityReport:
    params = {"q": A.params.q, "n": A.params.n, "k": k, "s": s, "m": len(A)}
    return IdentityReport.of(identity, params, lhs, rhs, lt, rt, proven=True)


def _check_main(A: PointSet, k: int, s: int) -> None:
    _require_size(A, 1, "main_lhs")
    _check_s(A, k, s)


def main_lhs(A: PointSet, k: int, s: int, guard: int = DEFAULT_GUARD) -> int:
    """Left side: sum over e >= s of C(e, s) * (number of k-faces meeting A in
    exactly e points)."""
    _check_main(A, k, s)
    return _left(A, k, s, guard, False)[0]


# The sliced route's s-subsets are ranked a block of consecutive last points
# at a time, about _RHS_BLOCK subsets per block; everything it holds at once
# is kept under KERNEL_MEMORY_CAP bytes (see _rhs_sliced_bytes).
_RHS_BLOCK = 1 << 14


def _rhs_sliced_bytes(params: CubeParams, m: int, s: int) -> int:
    """Upper bound on the bytes the sliced route holds at once for m points
    and s >= 3, counting 2/15 byte per bit (CPython stores 30 bits in 4
    bytes):
    - the contained tables, n*min(q, m) bitsets of C(m-1, s-1) bits;
    - the lower levels' masks, C(m, j) bits for each j = 2..s-1;
    - a block's bitsets: its masks, its planes and the parts split from
      them, 2*bit_length(n) + 6 bitsets of max(_RHS_BLOCK, C(m-1, s-1))
      bits at most;
    - 40 bytes per entry of the per-point lists, (n + 2s)*m entries, and
      64 KiB of the interpreter's own.
    The masks are added only while the bound is within KERNEL_MEMORY_CAP:
    past it, the value is some bound above the cap, reached in a few terms
    even at s near m."""
    n = params.n
    width = binom(m - 1, s - 1)
    fixed = 40 * (n + 2 * s) * m + (64 << 10)
    bits = n * min(params.q, m) * width + (2 * n.bit_length() + 6) * max(_RHS_BLOCK, width)
    for j in range(2, s):
        if bits * 2 // 15 + fixed > KERNEL_MEMORY_CAP:
            break
        bits += binom(m, j)
    return bits * 2 // 15 + fixed


def _rhs_sliced_pays(params: CubeParams, m: int, s: int) -> bool:
    """Whether the sliced route is estimated cheaper than the walk, from
    (q, n, m, s) alone, within KERNEL_MEMORY_CAP bytes (_rhs_sliced_bytes).

    Costs are in units of the walk's time per subset, fitted to both routes'
    times on a grid of q in {2, 3, 5, 11}, n up to 200 and C(m, s) up to
    700 000 (see ROADMAP):
    - the walk: C(m, s) subsets, 5 per (s-1)-prefix, and n/576 per subset
      for the width of its ORs;
    - the sliced route: 200 at the start, per coordinate 2s+5 for each of
      min(q, m) values and 2s-1 per point (the tables and the blocks'
      pieces), and n/400 per subset for its bitset operations.
    s <= 2 always takes the walk."""
    if s < 3 or m < s or _rhs_sliced_bytes(params, m, s) > KERNEL_MEMORY_CAP:
        return False
    n, subsets = params.n, binom(m, s)
    walk = subsets + 5 * binom(m, s - 1) + n * subsets // 576
    sliced = 200 + n * (min(params.q, m) * (2 * s + 5) + m * (2 * s - 1)) + n * subsets // 400
    return sliced < walk


@per_set
def _subset_rank_histogram(A: PointSet, s: int) -> tuple[tuple[int, int], ...]:
    """The sorted (r, number of s-subsets of rank r) pairs of A, H_s: the
    right side of the main theorem at s, and so of corollaries 1, 2 and 3
    (s = 1, 2, 3) and of the face-count lemma (s = |A|). A nonempty A is
    required first. s = 1 is every point at rank 0, s = |A| the one subset
    A at rank(A); s = 2 is the pair distances, which the walk takes from the
    same popcounts as rank.distance_sum.

    Two routes give the same histogram: the walk, which visits every subset
    (_subset_rank_histogram_walked), and for s >= 3 the sliced route, which
    ranks a block of about 2^14 subsets at once with bitset operations
    (_subset_rank_histogram_sliced). _rhs_sliced_pays picks the sliced route
    when its cost estimate from (q, n, m, s) is below the walk's and
    everything it holds at once, bounded by _rhs_sliced_bytes, fits in
    KERNEL_MEMORY_CAP (16 MiB). The walk keeps s = 2, sets of a few points,
    and n in the thousands, where its ORs of packed rows are cheaper.
    For m - s <= s/3 the walk is replaced by the walk over the m - s points
    left out (qcube.complement, which no other right side executes), m - s
    deep rather than s - 1. Both were timed for m/2 < s < m on a grid of q
    up to 11, n up to 3 000 and m up to 100 (see ROADMAP): the complement
    was faster at every routed shape but one, where it was 2% slower, and up
    to twice as slow nearer s = m/2. So an s - 1 deep walk that would pass
    the recursion limit has over 330 points left out and over 10^300
    subsets."""
    _require_nonempty(A)
    if s == 1:
        return ((0, len(A)),)
    if s == len(A):
        return ((rank(A), 1),)
    if _rhs_sliced_pays(A.params, len(A), s):
        return _subset_rank_histogram_sliced(A, s)
    if s < len(A) and 3 * (len(A) - s) <= s:
        return complement._subset_rank_histogram_complement(A, s)
    return _subset_rank_histogram_walked(A, s)


def _subset_rank_histogram_walked(A: PointSet, s: int) -> tuple[tuple[int, int], ...]:
    """The walk: every s-subset depth first, anchored at its first row.

    The walk carries the OR of the folded differences fold(anchor ^ row) of
    the rows chosen so far (core.block_fold over PointSet.packed), and r(B)
    is the popcount of that OR at the last row. At s = 1 there is no row to
    choose after the anchor, so each point is one subset of rank 0."""
    if s == 1:
        return ((0, len(A)),)
    packed = A.packed
    fold = block_fold(A.params)
    hist: Counter[int] = Counter()
    ranks: list[int] = []
    tally = ranks.extend

    def walk(diffs: list[int], acc: int, left: int) -> None:
        # Choose `left` more rows from diffs. The last row is tallied for all
        # its candidates at once, and the level above it is unrolled.
        if left == 1:
            tally(map(int.bit_count, map(acc.__or__, diffs)))
        elif left == 2:
            for j, d in enumerate(diffs):
                tally(map(int.bit_count, map((acc | d).__or__, diffs[j + 1 :])))
        else:
            for j in range(len(diffs) - left + 1):
                walk(diffs[j + 1 :], acc | diffs[j], left - 1)

    for a, anchor in enumerate(packed):
        walk([fold(anchor ^ p) for p in packed[a + 1 :]], 0, s - 1)
        hist.update(ranks)
        ranks.clear()
    return tuple(sorted(hist.items()))


# Bytes of bin() digits, reversed, to selector bytes for itertools.compress.
_BIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def _colex_counts(m: int, s: int) -> list[list[int]]:
    """counts[k][t] = C(t, k) for k < s and t < m: the number of k-subsets of
    the first t points, which precede in colex order the k-subsets whose
    last point is t. Each row is the running sum of the row below it."""
    counts = [[1] * m]
    for _ in range(1, s):
        counts.append([0, *accumulate(counts[-1][:-1])])
    return counts


def _contained_tables(A: PointSet, counts: list[list[int]]) -> list[list[int]]:
    """For each coordinate j, the list over points t of one bitset: over the
    (s-1)-subsets of the first m-1 points in colex order, bit i set when
    subset i lies inside the value slice of t at j (PointSet.slices), for
    s = len(counts). Points with the same value at j share their bitset.

    The k-subsets inside a slice S are, for each t in S, the (k-1)-subsets
    inside S below t, shifted to the colex position C(t, k) (_colex_counts)."""
    m, s = len(A), len(counts)
    below = [[(1 << c) - 1 for c in row] for row in counts[: s - 1]]
    tables = []
    for column in A.slices:
        owner = [0] * m
        for S in column:
            members = list(compress(range(m), bin(S)[:1:-1].encode().translate(_BIT_SELECTORS)))
            inner = members[:-1] if members[-1] == m - 1 else members
            table = S & ((1 << (m - 1)) - 1)
            for k in range(2, s):
                table = sum(
                    map(
                        lshift,
                        map(table.__and__, map(below[k - 1].__getitem__, inner)),
                        map(counts[k].__getitem__, inner),
                    )
                )
            for t in members:
                owner[t] = table
        tables.append(owner)
    return tables


def _subset_rank_histogram_sliced(A: PointSet, s: int) -> tuple[tuple[int, int], ...]:
    """The sliced route, for s >= 3: every s-subset ranked at once with
    bitset operations, a block of consecutive last points at a time.

    An s-subset B with last point t is constant at coordinate j exactly when
    B - {t} lies inside the slice of t's value at j, so the bitset over the
    s-subsets ending at t of those constant at j is the first C(t, s-1) bits
    of t's contained table at j (_contained_tables). A block's n such
    bitsets are added by a bit-sliced sideways adder into bit_length(n)
    planes, and the count of subsets constant at c coordinates, of rank
    n - c, is the popcount of the planes matched against c's bits."""
    m, n = len(A), A.params.n
    if m < s:
        return ()
    counts = _colex_counts(m, s)
    tables = _contained_tables(A, counts)
    widths = counts[s - 1]
    hist: Counter[int] = Counter()
    t = s - 1
    while t < m:
        # The block: last points start..t-1, their subsets in colex order.
        start, size, offsets, masks = t, 0, [], []
        while t < m and (not size or size + widths[t] <= _RHS_BLOCK):
            offsets.append(size)
            masks.append((1 << widths[t]) - 1)
            size += widths[t]
            t += 1
        planes: list[int] = []
        for owner in tables:
            carry = sum(map(lshift, map(and_, owner[start:t], masks), offsets))
            for i, plane in enumerate(planes):
                planes[i] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
        # Split the block by the planes, highest first, depth first so that
        # at most len(planes) + 1 parts are held: a part at level 0 holds the
        # subsets constant at exactly c coordinates.
        stack = [(len(planes), 0, (1 << size) - 1)]
        while stack:
            level, c, part = stack.pop()
            if not level:
                hist[n - c] += part.bit_count()
                continue
            level -= 1
            high = part & planes[level]
            if high:
                stack.append((level, c | 1 << level, high))
            if high != part:
                stack.append((level, c, part ^ high))
    return tuple(sorted(hist.items()))


def _rhs_terms(A: PointSet, k: int, s: int) -> Terms:
    # Reads s rows of n coordinates for each s-subset; verify_main costs this.
    n = A.params.n
    rows = A.coord_rows()
    out = []
    for idx in combinations(range(len(rows)), s):
        r = rank_rows([rows[i] for i in idx])
        out.append((f"B={idx}", binom(n - r, k - r)))
    return tuple(out)


def main_rhs(A: PointSet, k: int, s: int, guard: int = DEFAULT_GUARD) -> int:
    """Right side: sum of C(n - r(B), k - r(B)) over all s-element subsets B
    of A, where r(B) is the subset rank.

    It is summed over H_s, the histogram r -> number of s-subsets of rank
    r (_subset_rank_histogram), kept in A.memo per s and shared with the
    corollaries and the sweep, after the binom(m, s) guard, which is checked
    on every call, before the memo is read. s = 1 and s = |A| need no
    subsets; otherwise the histogram has two routes, both exact:
    - the walk visits the subsets depth first over the folded differences of
      the packed rows (core.block_fold over PointSet.packed), or for
      m - s <= s/3 the m - s points left out, ranking each kept set by the
      fold of its rows' OR ^ AND;
    - the sliced route, for s >= 3, ranks a block of subsets at once from
      per-value contained tables over the colex order, built from
      PointSet.slices, and a bit-sliced adder.
    A cost estimate from (q, n, m, s) picks the route (_rhs_sliced_pays) and
    keeps the sliced route under KERNEL_MEMORY_CAP (16 MiB). The oracle is
    rank_rows over s-combinations of the rows (PointSet.rows), which the
    per-subset breakdown of verify_main still uses.
    """
    _require_size(A, 1, "main_rhs")
    _check_s(A, k, s)
    check_guard(binom(len(A), s), guard)
    return _right(_subset_rank_histogram(A, s), A.params.n, k)


def verify_main(
    A: PointSet,
    k: int,
    s: int,
    guard: int = DEFAULT_GUARD,
    include_terms: bool = False,
) -> IdentityReport:
    """Evaluate both sides of the face-count identity independently.

    Holds for every nonempty A, 0 <= k <= n and 1 <= s <= min(|A|, q**k), so
    an unequal report indicates a defect, and is marked as such. With terms,
    the per-subset breakdown's binom(m, s)·s·n row reads are checked against
    the guard before any other work.
    """
    if include_terms:
        check_guard(binom(len(A), s) * s * A.params.n, guard)
    _check_main(A, k, s)
    lhs, lt = _left(A, k, s, guard, include_terms)
    rhs = main_rhs(A, k, s, guard)
    rt = _rhs_terms(A, k, s) if include_terms else None
    return _report("main", A, k, s, lhs, rhs, lt, rt)


def corollary_s1(
    A: PointSet, k: int, guard: int = DEFAULT_GUARD, include_terms: bool = False
) -> IdentityReport:
    """Singleton case: the e-weighted face tally equals |A| * C(n, k).

    Valid for every q (each point lies in exactly C(n, k) k-faces).
    """
    _require_size(A, 1, "corollary_s1")
    lhs, lt = _left(A, k, 1, guard, include_terms)
    rhs = len(A) * binom(A.params.n, k)
    rt = (("m*binom(n,k)", rhs),) if include_terms else None
    return _report("corollary1", A, k, 1, lhs, rhs, lt, rt)


def corollary_s2(
    A: PointSet, k: int, guard: int = DEFAULT_GUARD, include_terms: bool = False
) -> IdentityReport:
    """Pair case: sum of C(e, 2) counts equals the sum over point pairs of
    C(n - d, k - d) at pair distance d.

    Valid for every q: a pair at distance d spans a d-dimensional face, so its
    rank is d, and the right side is the main theorem's at s = 2: it is
    summed over H_2, the histogram d -> number of pairs
    (_subset_rank_histogram(A, 2), kept in A.memo and shared with main_rhs),
    after its binom(m, 2) guard, which is checked on every call. With terms,
    every pair is listed from distance_sum, the histogram's oracle.
    """
    _require_size(A, 2, "corollary_s2")
    check_guard(binom(len(A), 2), guard)
    n = A.params.n
    lhs, lt = _left(A, k, 2, guard, include_terms)
    rhs = _right(_subset_rank_histogram(A, 2), n, k)
    rt = None
    if include_terms:
        rt = tuple((f"pair={ij}", binom(n - d, k - d)) for ij, d in sorted(distance_sum(A, guard).pairwise.items()))
    return _report("corollary2", A, k, 2, lhs, rhs, lt, rt)


def _half_sum(ijt: tuple[int, int, int], dsum: int) -> int:
    if dsum % 2:
        raise ConsistencyError(f"odd distance sum {dsum} for a binary triple {ijt}")
    return dsum // 2


def _triple_ranks(A: PointSet, guard: int) -> Iterator[tuple[tuple[int, int, int], int]]:
    # Half the pairwise distance sum of each triple, in combinations order:
    # its rank in a binary cube, and H_3's oracle.
    d = distance_sum(A, guard).pairwise
    for i, j, t in combinations(range(len(A)), 3):
        yield (i, j, t), _half_sum((i, j, t), d[i, j] + d[i, t] + d[j, t])


def corollary_s3(
    A: PointSet, k: int, guard: int = DEFAULT_GUARD, include_terms: bool = False
) -> IdentityReport:
    """Triple case, binary cubes only: sum of C(e, 3) counts equals the sum
    over point triples of C(n - r, k - r) with r the half-sum of the three
    pairwise distances (an integer in a binary cube).

    A triple's rank is that half-sum, so the right side is the main
    theorem's at s = 3: it is summed over H_3, the histogram r -> number of
    triples (_subset_rank_histogram(A, 3), kept in A.memo and shared with
    main_rhs), after its binom(m, 3) guard, which is checked on every call.
    With terms, every triple is listed from _triple_ranks, the histogram's
    oracle, which refuses an odd distance sum.
    """
    if A.params.q != 2:
        raise CubeError("corollary_s3 is defined for q = 2 only")
    _require_size(A, 3, "corollary_s3")
    m = len(A)
    check_guard(binom(m, 3), guard)
    n = A.params.n
    lhs, lt = _left(A, k, 3, guard, include_terms)
    check_guard(binom(m, 2), guard)  # guards no work: kept for its refusals at m = 3 and 4
    rhs = _right(_subset_rank_histogram(A, 3), n, k)
    rt = None
    if include_terms:
        rt = tuple((f"triple={ijt}", binom(n - r, k - r)) for ijt, r in _triple_ranks(A, guard))
    return _report("corollary3", A, k, 3, lhs, rhs, lt, rt)


def _unchecked(A: PointSet, k: int, s: int, guard: int) -> None:
    pass


class _Family(NamedTuple):
    """One family identity of the sweep as the main theorem at s. `grid(A,
    k, lo, hi)` gives the s of its points at k, lo..hi the config's s range;
    `before(A, k, s, guard)` and `after` are the per-point function's checks
    before and after its distribution(A, k, guard). The right side's r ->
    number of s-subsets of rank r is H_s, _subset_rank_histogram(A, s).
    Rows carry s in their params if `row_s`, error rows if `error_s`."""

    grid: Callable[[PointSet, int, int, int], Iterable[int]]
    before: Callable[[PointSet, int, int, int], None]
    after: Callable[[PointSet, int, int, int], None]
    row_s: bool = True
    error_s: bool = False


# Each per-point function's checks in its order; the engine's functions are
# looked up at call time, so that a wrapper installed on a module attribute
# sees the calls.
_FAMILIES = {
    "main": _Family(  # verify_main
        lambda A, k, lo, hi: range(max(lo, 1), min(hi, intersection_cap(A, k)) + 1),
        _unchecked,
        lambda A, k, s, guard: check_guard(binom(len(A), s), guard),
        error_s=True,
    ),
    "corollary1": _Family(  # corollary_s1
        lambda A, k, lo, hi: (1,),
        lambda A, k, s, guard: _require_size(A, 1, "corollary_s1"),
        _unchecked,
    ),
    "corollary2": _Family(  # corollary_s2
        lambda A, k, lo, hi: (2,) if len(A) >= 2 else (),
        lambda A, k, s, guard: check_guard(binom(len(A), 2), guard),
        _unchecked,
    ),
    "corollary3": _Family(  # corollary_s3
        lambda A, k, lo, hi: (3,) if A.params.q == 2 and len(A) >= 3 else (),
        lambda A, k, s, guard: check_guard(binom(len(A), 3), guard),
        lambda A, k, s, guard: check_guard(binom(len(A), 2), guard),
    ),
    # A k-face contains A iff it meets A in all |A| points: s = |A|, whose
    # left side is the e = |A| entry of the distribution. Its guard is the
    # face scan's (faces_containing_bruteforce), which keeps the sweep's
    # refusals pinned; the distribution's own estimate is never larger.
    "lemma_face_count": _Family(
        lambda A, k, lo, hi: (len(A),),
        lambda A, k, s, guard: check_guard_power(
            A.params.q, A.params.n - k, guard, binom(A.params.n, k) * len(A)
        ),
        _unchecked,
        row_s=False,
    ),
}


def family_points(
    name: str, A: PointSet, ks: range, s_range: tuple[int, int], guard: int, labels: dict[str, int]
) -> Iterator[tuple[dict[str, int], Any]]:
    """The sweep's points of the family identity `name` on A, at each k in ks
    and each s of its grid (s_range bounds main's): their params, with
    `labels` added, and outcome, the two sides or the SizeGuardError that
    refused the point. A point equals the per-point function's report
    (verify_main, corollary_s1..s3, or for lemma_face_count the e = |A|
    entry of distribution(A, k) against faces_containing_count), refusals
    and raised CubeErrors included.

    Every identity is the main theorem at one s, so one evaluator serves
    all five (_FAMILIES). A is profiled over ks in one pass. If the pass's
    guard estimate, the sum of distribution's over ks, is within the guard,
    so is each k's, and the pass gives every level. Otherwise each k's
    distribution(A, k, guard) is read at its first point that passes the
    check before it, and asked again at the next point if refused, which
    costs one guard check. A point's left side sums C(e, s) times the
    level's counts, its right side C(n - r, k - r) times H_s's
    (_subset_rank_histogram)."""
    grid, before, after, row_s, error_s = _FAMILIES[name]
    q, n, m = A.params.q, A.params.n, len(A)
    try:
        levels = dict(zip(ks, profile(A, ks, guard)))
    except SizeGuardError:
        levels = {}
    for k in ks:
        level = levels.get(k)
        for s in grid(A, k, *s_range):
            try:
                before(A, k, s, guard)
                if level is None:
                    level = distribution(A, k, guard)
                after(A, k, s, guard)
            except SizeGuardError as exc:
                yield {"q": q, "n": n, **labels, "k": k, **({"s": s} if error_s else {})}, exc
                continue
            lhs = sum(comb(e, s) * count for e, count in level.counts.items() if e >= s)
            rhs = sum(count * comb(n - r, k - r) for r, count in _subset_rank_histogram(A, s) if r <= k)
            if row_s:
                yield {"q": q, "n": n, "k": k, "s": s, "m": m, **labels}, (lhs, rhs)
            else:
                yield {"q": q, "n": n, "k": k, "m": m, **labels}, (lhs, rhs)
