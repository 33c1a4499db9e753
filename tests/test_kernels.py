"""Differential tests of the packed-integer kernels against their oracles.

Each kernel works on PointSet.packed; each oracle works on coordinate tuples.
Alphabet sizes cover tight bit widths (q = 2, 4, 8, 16), loose ones (3, 5, 11)
and q > 10.
"""

from collections import Counter
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcube.core import CubeParams, PointSet, block_fold, column_mask, hamming
from qcube.faces import distribution, distribution_bruteforce
from qcube.identities import _subset_rank_histogram
from qcube.rank import distance_sum, distance_total, rank, rank_rows

QS = (2, 3, 4, 5, 8, 11, 16)
MAX_VOLUME = 4096
MAX_M = 8

kernel_settings = settings(max_examples=60, deadline=None)


@st.composite
def point_sets(draw):
    q = draw(st.sampled_from(QS))
    n = draw(st.integers(0, max(n for n in range(7) if q**n <= MAX_VOLUME)))
    row = st.tuples(*[st.integers(0, q - 1)] * n)
    rows = draw(st.lists(row, min_size=1, max_size=min(MAX_M, q**n), unique=True))
    return PointSet.from_coords(CubeParams(q, n), rows)


def pointset(q, rows):
    return PointSet.from_coords(CubeParams(q, len(rows[0])), rows)


SINGLE_EMPTY_ROW = pointset(3, [()])
LOOSE_WIDTH = pointset(11, [(10, 0, 3), (10, 7, 3), (0, 7, 9)])


def test_packed_layout_puts_coordinate_zero_highest(mkset):
    A = mkset(5, 3, "012 400")  # w = 3 bits per coordinate
    assert A.packed == (0b000_001_010, 0b100_000_000)
    params = A.params
    assert column_mask(params, (0, 2)) == 0b111_000_111
    assert block_fold(params)(0b100_000_011) == 0b100_000_100


@given(point_sets())
@example(SINGLE_EMPTY_ROW)
@example(LOOSE_WIDTH)
@kernel_settings
def test_packed_order_and_fold_match_coordinates(A):
    assert sorted(A.packed) == list(A.packed)
    fold = block_fold(A.params)
    for (a, pa), (b, pb) in combinations(zip(A.points, A.packed), 2):
        assert fold(pa ^ pb).bit_count() == hamming(a, b)


@given(point_sets(), st.integers(1, MAX_M))
@example(SINGLE_EMPTY_ROW, 1)
@example(LOOSE_WIDTH, 2)
@kernel_settings
def test_subset_rank_histogram_matches_rank_rows(A, s):
    for s in (min(s, len(A)), len(A)):
        want = Counter(rank_rows(c) for c in combinations(A.coord_rows(), s))
        assert _subset_rank_histogram(A, s) == tuple(sorted(want.items()))


@given(point_sets())
@example(SINGLE_EMPTY_ROW)
@example(LOOSE_WIDTH)
@kernel_settings
def test_rank_matches_rank_rows(A):
    assert rank(A) == rank_rows(A.coord_rows())


@given(point_sets(), st.integers(0, 6))
@example(SINGLE_EMPTY_ROW, 0)
@example(LOOSE_WIDTH, 1)
@kernel_settings
def test_distribution_matches_bruteforce(A, k):
    k = min(k, A.params.n)
    assert distribution(A, k) == distribution_bruteforce(A, k)


@given(point_sets())
@example(SINGLE_EMPTY_ROW)
@example(LOOSE_WIDTH)
@kernel_settings
def test_distance_total_matches_pairwise(A):
    assert distance_total(A) == distance_sum(A).total
