"""The face walk: the face distribution at a range of levels from one walk
over A's value bitsets (PointSet.slices).

faces._profile_routed runs it when faces._sliced_pays picks the "walk"
route, which faces._walk_cost estimates; every other command and route
leaves this module unexecuted.
"""

from __future__ import annotations

from collections import Counter
from operator import sub

from .core import PointSet, binom
from .faces import FaceDistribution, total_faces

# The bytes the face walk's fibre buffers hold at most, together; see
# _profile_sliced.
WALK_BUDGET = 1 << 20


def _profile_sliced(A: PointSet, ks: range) -> list[FaceDistribution]:
    """The walk: the distribution at every level k in ks (consecutive,
    nonempty) from one walk over the increasing sets S of fixed positions,
    on A's value bitsets (PointSet.slices), one bit per point.

    A node S holds its nonempty fibres, and splits them by
    `fibre & slices[j][v]` for each child S + {j}, j above S, so every
    extension of S reuses its partition. Its fibres of two or more points
    are tallied at k = n - |S|. A fibre of one point stays one point in
    every extension: if positions start..n-1 remain above S, it adds
    C(n - start, e) singletons at k = n - |S| - e, for each e, and is not
    walked further. The walk goes as deep as n - min(ks) and enters a child
    only if that or one of its extensions lies on a level of ks. At the
    deepest level the fibres' popcounts are tallied, the last value's as the
    fibre's size minus the others'. The empty faces at each k are the rest
    of total_faces.

    What a node does depends only on (|S|, start), so the fibres of all
    nodes there wait in one buffer, split as one with a comprehension per
    (j, v) before it would pass cap fibres, its share of WALK_BUDGET at the
    bytes of an m-bit int and its list slot. The buffers, those being split
    included, hold at most cap fibres each, about WALK_BUDGET in all; each
    depth of the stack adds two lists of cap fibres at most; and the buffers
    left at the end are split shallowest first. A split counts its sizes
    with one Counter.update, and the single-point fibres go to a flat list
    by (|S|, start)."""
    params = A.params
    n, m = params.n, len(A)
    slices = A.slices
    top, bottom = n - ks[-1], n - ks[0]  # the fewest and the most fixed positions
    tallies = [Counter() for _ in range(bottom + 1)]  # by |S|
    lone = [0] * ((bottom + 1) * (n + 1))  # |S|*(n+1) + start -> single-point fibres
    waiting = [[] for _ in lone]  # |S|*(n+1) + start -> fibres not yet split
    cap = WALK_BUDGET // (len(lone) * (4 * (m // 30) + 36))

    def put(at, fibres):
        if len(waiting[at]) + len(fibres) > cap:
            if waiting[at]:
                buffer, waiting[at] = waiting[at], []
                split(at, buffer)
            if len(fibres) > cap:
                return split(at, fibres)
        waiting[at] += fibres

    def split(at, fibres):
        # fibres: nonempty fibres of nodes S, |S| = depth, whose fixed
        # positions all lie below start.
        depth, start = divmod(at, n + 1)
        shared = [s for s in fibres if s & (s - 1)]
        lone[at] += len(fibres) - len(shared)
        if not shared:
            return
        if depth >= top:
            whole = list(map(int.bit_count, shared))
            tallies[depth].update(whole)
        if depth + 1 < bottom:
            for j in range(start, min(n, n + depth + 1 - top)):
                for v in slices[j]:
                    put(at + n + 2 + j - start, [t for s in shared if (t := s & v)])
        elif depth < bottom:  # the children are the deepest level
            if depth < top:
                whole = list(map(int.bit_count, shared))
            level = []
            for j in range(start, n):
                *head, _ = slices[j]
                rest = whole
                for v in head:
                    sized = [(s & v).bit_count() for s in shared]
                    level += sized
                    rest = list(map(sub, rest, sized))
                level += rest
            tallies[bottom].update(level)

    if m:
        put(0, [(1 << m) - 1])
    for at, buffer in enumerate(waiting):  # the shallowest first
        if buffer:
            waiting[at] = []  # let go of each as it is split
            split(at, buffer)
    for at, ones in enumerate(lone):
        if ones:
            depth, start = divmod(at, n + 1)
            for fixed in range(max(depth, top), bottom + 1):
                tallies[fixed][1] += ones * binom(n - start, fixed - depth)
    out = []
    for k in ks:
        counts = tallies[n - k]
        del counts[0]  # the deepest level tallies empty fibres too
        counts[0] = total_faces(params, k) - sum(counts.values())
        out.append(FaceDistribution.checked(params, k, counts))
    return out
