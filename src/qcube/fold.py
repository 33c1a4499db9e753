"""The dense fold: the face distribution at a range of levels from
bit-sliced counters over the cube's cells.

faces._profile_routed runs it when faces._sliced_pays picks the "dense"
route, which faces._dense_cost estimates and faces._dense_bytes bounds;
every other command and route leaves this module unexecuted.
"""

from __future__ import annotations

from collections import Counter

from .core import CubeParams, PointSet, _block_width
from .faces import FaceDistribution, _cell_bits, total_faces


def _profile_dense(A: PointSet, ks: range) -> list[FaceDistribution]:
    """The dense fold route: the distribution at every level k in ks
    (consecutive, nonempty) from counters over the cube's cells, the bit
    positions of faces._cell_bits, instead of over A's points.

    The counts are bit-sliced: planes[i] holds bit i of every cell's count,
    and at the start one plane, A's indicator, holds 1 at each point of A.
    Folding coordinate j adds to each cell whose block j is 0 the counts of
    its q - 1 siblings, the planes shifted right by v*step for v = 1..q-1
    (_block_cells), in bit-sliced ripple-carry adds; then every plane is
    masked to block j = 0, so the other cells become 0. After the free
    positions T are folded, each face with free positions T holds its
    intersection with A in the one cell whose blocks in T are 0 and whose
    others are its fixed values; every other cell is 0.

    The free sets T are walked depth first in increasing order up to
    max(ks), one fold a step, so every T shares its prefix's folds, and a
    child is entered only if it or an extension lies on a level of ks. At
    each |T| in ks the planes are tallied: their OR is split by each plane
    in turn, from the highest down, keeping only nonempty parts, and each
    part's popcount is the number of faces with its count. The empty faces
    at each k are the rest of total_faces."""
    params = A.params
    n, q = params.n, params.q
    lo, hi = ks[0], ks[-1]
    folds = [_block_cells(params, j) for j in range(n)]
    tallies: list[Counter[int]] = [Counter() for _ in ks]

    def fold(planes: list[int], j: int) -> list[int]:
        step, mask = folds[j]
        total = list(planes)
        for shift in range(step, q * step, step):
            carry = 0
            for i, plane in enumerate(planes):
                sibling = plane >> shift
                x = total[i]
                half = x ^ sibling
                total[i] = half ^ carry
                carry = x & sibling | carry & half
            for i in range(len(planes), len(total)):
                if not carry:
                    break
                x = total[i]
                total[i] = x ^ carry
                carry &= x
            if carry:
                total.append(carry)
        total = [plane & mask for plane in total]
        while total and not total[-1]:
            total.pop()
        return total

    def tally(planes: list[int], counts: Counter[int]) -> None:
        whole = 0
        for plane in planes:
            whole |= plane
        parts = {0: whole} if whole else {}  # count so far -> its cells
        for i in range(len(planes) - 1, -1, -1):
            plane, bit = planes[i], 1 << i
            split = {}
            for e, cells in parts.items():
                high = cells & plane
                if high:
                    split[e | bit] = high
                    if high != cells:
                        split[e] = cells ^ high
                else:
                    split[e] = cells
            parts = split
        for e, cells in parts.items():
            counts[e] += cells.bit_count()

    def walk(planes: list[int], start: int, depth: int) -> None:
        if depth >= lo:
            tally(planes, tallies[depth - lo])
        if depth < hi:
            for j in range(start, n - max(0, lo - depth - 1)):
                walk(fold(planes, j), j + 1, depth + 1)

    walk([_indicator(A)], 0, 0)
    out = []
    for k, counts in zip(ks, tallies):
        counts[0] = total_faces(params, k) - sum(counts.values())
        out.append(FaceDistribution.checked(params, k, counts))
    return out


def _indicator(A: PointSet) -> int:
    """The int with bit x set for each packed point x of A, built in a
    bytearray of a bit per cell."""
    cells = bytearray(((1 << _cell_bits(A.params)) + 7) >> 3)
    for x in A.packed:
        cells[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(cells, "little")


def _block_cells(params: CubeParams, j: int) -> tuple[int, int]:
    """(step, mask) for coordinate j over the cells of faces._cell_bits:
    adding v*step to a cell whose block j is 0 sets that block to v, and
    mask has a bit set for each cell whose block j is 0. The mask is built
    by doubling a run of step ones, about as much work as writing its
    2**(n*w) bits."""
    w, n = _block_width(params), params.n
    step = 1 << w * (n - 1 - j)
    mask, period, size = (1 << step) - 1, step << w, 1 << n * w
    while period < size:
        mask |= mask << period
        period <<= 1
    return step, mask
