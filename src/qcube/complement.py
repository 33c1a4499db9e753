"""The complement walk: the subset-rank histogram H_s over the m - s points
left out, for s near m.

identities._subset_rank_histogram takes it when the walk is picked and
m - s <= s/3 (see ROADMAP, "Where the RHS complement walk wins"); no other
right side reaches it, so every other command leaves this module
unexecuted.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import and_, or_, xor

from .core import PointSet, block_fold


def _subset_rank_histogram_complement(A: PointSet, s: int) -> tuple[tuple[int, int], ...]:
    """The walk over the m - s points left out, for m/2 < s < m (routed
    at m - s <= s/3): every (m - s)-subset depth first, so it recurses
    m - s deep, and it still ranks C(m, s) kept sets.

    A set's rank is the popcount of fold(OR ^ AND) over its packed rows (a
    coordinate block of OR ^ AND is non-zero exactly where the rows differ).
    The walk carries the OR and AND of the kept rows before the next point
    left out, and reads those after the last one from suffix tables."""
    packed = A.packed
    m = len(packed)
    fold = block_fold(A.params)
    # ors[t], ands[t]: the OR and AND of packed[t:]; the AND of no rows is -1.
    ors = [*accumulate(reversed(packed), or_, initial=0)][::-1]
    ands = [*accumulate(reversed(packed), and_, initial=-1)][::-1]
    hist: Counter[int] = Counter()

    def walk(start: int, kept_or: int, kept_and: int, left: int) -> None:
        # Leave out `left` more points from packed[start:]. For the last, the
        # kept rows before each candidate are running sums, tallied at once.
        rows = packed[start:]
        if left == 1:
            before_or = accumulate(rows, or_, initial=kept_or)
            before_and = accumulate(rows, and_, initial=kept_and)
            after = map(xor, map(or_, before_or, ors[start + 1 :]), map(and_, before_and, ands[start + 1 :]))
            hist.update(map(int.bit_count, map(fold, after)))
            return
        for j, row in enumerate(rows[: len(rows) - left + 1], start):
            walk(j + 1, kept_or, kept_and, left - 1)
            kept_or |= row
            kept_and &= row

    walk(0, 0, -1, m - s)
    return tuple(sorted(hist.items()))
