"""Two-sided evaluation of the face-count identities.

Each check computes its left side from the face-intersection distribution and
its right side from subset ranks or pairwise distances, through code paths
that share nothing beyond the core primitives, then reports exact equality.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Any, Iterator, Optional

from .core import (
    DEFAULT_GUARD,
    ConsistencyError,
    CubeError,
    PointSet,
    binom,
    block_fold,
    check_guard,
)
from .faces import distribution
from .rank import distance_sum, rank_rows

Terms = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check: both sides, equality, optional per-term
    breakdowns (label, value) whose values sum to their side."""

    identity: str
    params: dict[str, Any]
    lhs: int
    rhs: int
    equal: bool
    lhs_terms: Optional[Terms] = None
    rhs_terms: Optional[Terms] = None
    note: Optional[str] = None

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
    cap = intersection_cap(A, k)
    if not 1 <= s <= cap:
        raise CubeError(f"s must be in [1, {cap}] for this set and k, got {s}")


def _require_size(A: PointSet, least: int, what: str) -> None:
    if len(A) < least:
        raise CubeError(f"{what} requires at least {least} points, got {len(A)}")


def _lhs_terms(A: PointSet, k: int, s: int, guard: int) -> Terms:
    dist = distribution(A, k, guard)
    return tuple(
        (f"e={e}", binom(e, s) * count) for e, count in dist.items() if e >= s
    )


def _main_lhs_terms(A: PointSet, k: int, s: int, guard: int) -> Terms:
    _require_size(A, 1, "main_lhs")
    _check_s(A, k, s)
    return _lhs_terms(A, k, s, guard)


def main_lhs(A: PointSet, k: int, s: int, guard: int = DEFAULT_GUARD) -> int:
    """Left side: sum over e >= s of C(e, s) * (number of k-faces meeting A in
    exactly e points)."""
    return sum(v for _, v in _main_lhs_terms(A, k, s, guard))


@lru_cache(maxsize=512)
def _subset_rank_histogram(A: PointSet, s: int) -> tuple[tuple[int, int], ...]:
    packed = A.packed
    if s == 1:
        return ((0, len(packed)),)
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

    The subsets are walked depth-first, anchored at their first row in the
    canonical order. The walk carries the OR of the folded differences
    fold(anchor ^ row) of the rows chosen so far (core.block_fold over
    PointSet.packed), and r(B) is the popcount of that OR at the last row.
    The oracle is rank_rows over s-combinations of the rows (PointSet.rows),
    which the per-subset breakdown of verify_main still uses.
    """
    _require_size(A, 1, "main_rhs")
    _check_s(A, k, s)
    check_guard(binom(len(A), s), guard)
    n = A.params.n
    return sum(
        count * binom(n - r, k - r) for r, count in _subset_rank_histogram(A, s)
    )


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
        lt: Optional[Terms] = _main_lhs_terms(A, k, s, guard)
        lhs = sum(v for _, v in lt)
    else:
        lt = None
        lhs = main_lhs(A, k, s, guard)
    rhs = main_rhs(A, k, s, guard)
    params = {"q": A.params.q, "n": A.params.n, "k": k, "s": s, "m": len(A)}
    rt = _rhs_terms(A, k, s) if include_terms else None
    return IdentityReport.of("main", params, lhs, rhs, lt, rt, proven=True)


def corollary_s1(
    A: PointSet, k: int, guard: int = DEFAULT_GUARD, include_terms: bool = False
) -> IdentityReport:
    """Singleton case: the e-weighted face tally equals |A| * C(n, k).

    Valid for every q (each point lies in exactly C(n, k) k-faces).
    """
    _require_size(A, 1, "corollary_s1")
    dist = distribution(A, k, guard)
    lhs_terms = tuple((f"e={e}", e * c) for e, c in dist.items() if e >= 1)
    lhs = sum(v for _, v in lhs_terms)
    rhs = len(A) * binom(A.params.n, k)
    params = {"q": A.params.q, "n": A.params.n, "k": k, "s": 1, "m": len(A)}
    lt = lhs_terms if include_terms else None
    rt = (("m*binom(n,k)", rhs),) if include_terms else None
    return IdentityReport.of("corollary1", params, lhs, rhs, lt, rt, proven=True)


@lru_cache(maxsize=256)
def _pair_distance_histogram(A: PointSet, guard: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(Counter(distance_sum(A, guard).pairwise.values()).items()))


def corollary_s2(
    A: PointSet, k: int, guard: int = DEFAULT_GUARD, include_terms: bool = False
) -> IdentityReport:
    """Pair case: sum of C(e, 2) counts equals the sum over point pairs of
    C(n - d, k - d) at pair distance d.

    Valid for every q: a pair at distance d spans a d-dimensional face, so its
    rank is d and no separate rank computation is needed. Without terms the
    right side is summed over the histogram d -> number of pairs, built from
    distance_sum once per set and guard and cached; the binom(m, 2) guard is
    checked on every call. With terms, every pair is listed from distance_sum.
    """
    _require_size(A, 2, "corollary_s2")
    check_guard(binom(len(A), 2), guard)
    n = A.params.n
    lhs_terms = _lhs_terms(A, k, 2, guard)
    lhs = sum(v for _, v in lhs_terms)
    if include_terms:
        rt: Optional[Terms] = tuple(
            (f"pair={ij}", binom(n - d, k - d))
            for ij, d in sorted(distance_sum(A, guard).pairwise.items())
        )
        rhs = sum(v for _, v in rt)
        lt: Optional[Terms] = lhs_terms
    else:
        rhs = sum(c * binom(n - d, k - d) for d, c in _pair_distance_histogram(A, guard))
        lt = rt = None
    params = {"q": A.params.q, "n": n, "k": k, "s": 2, "m": len(A)}
    return IdentityReport.of("corollary2", params, lhs, rhs, lt, rt, proven=True)


def _triple_ranks(A: PointSet, guard: int) -> Iterator[tuple[tuple[int, int, int], int]]:
    # Half the pairwise distance sum of each triple, in combinations order.
    d = distance_sum(A, guard).pairwise
    for i, j, t in combinations(range(len(A)), 3):
        dsum = d[(i, j)] + d[(i, t)] + d[(j, t)]
        if dsum % 2:
            raise ConsistencyError(
                f"odd distance sum {dsum} for a binary triple {(i, j, t)}"
            )
        yield (i, j, t), dsum // 2


@lru_cache(maxsize=256)
def _triple_rank_histogram(A: PointSet, guard: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(Counter(r for _, r in _triple_ranks(A, guard)).items()))


def corollary_s3(
    A: PointSet, k: int, guard: int = DEFAULT_GUARD, include_terms: bool = False
) -> IdentityReport:
    """Triple case, binary cubes only: sum of C(e, 3) counts equals the sum
    over point triples of C(n - r, k - r) with r the half-sum of the three
    pairwise distances (an integer in a binary cube).

    Without terms the right side is summed over the histogram r -> number of
    triples, built from distance_sum once per set and guard and cached; the
    binom(m, 3) guard is checked on every call, and distance_sum's m(m-1)/2
    on every miss. With terms, every triple is listed.
    """
    if A.params.q != 2:
        raise CubeError("corollary_s3 is defined for q = 2 only")
    _require_size(A, 3, "corollary_s3")
    m = len(A)
    check_guard(binom(m, 3), guard)
    n = A.params.n
    lhs_terms = _lhs_terms(A, k, 3, guard)
    lhs = sum(v for _, v in lhs_terms)
    if include_terms:
        rt: Optional[Terms] = tuple(
            (f"triple={ijt}", binom(n - r, k - r)) for ijt, r in _triple_ranks(A, guard)
        )
        rhs = sum(v for _, v in rt)
        lt: Optional[Terms] = lhs_terms
    else:
        rhs = sum(c * binom(n - r, k - r) for r, c in _triple_rank_histogram(A, guard))
        lt = rt = None
    params = {"q": 2, "n": n, "k": k, "s": 3, "m": m}
    return IdentityReport.of("corollary3", params, lhs, rhs, lt, rt, proven=True)
