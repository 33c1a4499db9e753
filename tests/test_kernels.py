"""Differential tests of the packed-integer kernels and the per-set caches
against their oracles.

Each kernel works on PointSet.packed; each oracle works on coordinate tuples.
Alphabet sizes cover tight bit widths (q = 2, 4, 8, 16), loose ones (3, 5, 11)
and q > 10.
"""

import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations, product
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcube.core
import qcube.faces
import qcube.identities
from qcube.core import (
    KERNEL_MEMORY_CAP,
    ConsistencyError,
    CubeError,
    CubeParams,
    PointSet,
    SizeGuardError,
    block_fold,
    column_mask,
    hamming,
    value_slices,
)
from qcube.faces import (
    _dense_bytes,
    _dense_cost,
    _distribution_counted,
    _distribution_grouped,
    _profile_dense,
    _profile_sliced,
    _sliced_pays,
    _walked,
    distribution,
    distribution_bruteforce,
    faces_containing_bruteforce,
    faces_containing_count,
    profile,
    total_faces,
)
from qcube.families import (
    evenweight_distribution_closed,
    face_distribution_closed,
    face_spec,
    gen_even_weight,
    gen_face_subset,
)
from qcube.identities import (
    _RHS_BLOCK,
    _RHS_MEMORY_CAP,
    _rhs_sliced_bytes,
    _rhs_sliced_pays,
    _subset_rank_histogram,
    _subset_rank_histogram_sliced,
    _subset_rank_histogram_walked,
    _lhs,
    _lhs_terms,
    _triple_rank_histogram,
    _triple_ranks,
    corollary_s1,
    corollary_s2,
    corollary_s3,
    intersection_cap,
    main_lhs,
    main_rhs,
)
from qcube.rank import DistanceProfile, distance_sum, distance_total, rank, rank_rows

QS = (2, 3, 4, 5, 8, 11, 16)
MAX_VOLUME = 4096
MAX_M = 8

kernel_settings = settings(max_examples=60, deadline=None)


@st.composite
def point_sets(draw, qs=QS, max_volume=MAX_VOLUME):
    q = draw(st.sampled_from(qs))
    n = draw(st.integers(0, max(n for n in range(7) if q**n <= max_volume)))
    row = st.tuples(*[st.integers(0, q - 1)] * n)
    rows = draw(st.lists(row, min_size=1, max_size=min(MAX_M, q**n), unique=True))
    return PointSet.from_coords(CubeParams(q, n), rows)


def pointset(q, rows):
    return PointSet.from_coords(CubeParams(q, len(rows[0])), rows)


def full_cube(q, n):
    return pointset(q, list(product(range(q), repeat=n)))


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


def random_set(q, n, m, seed):
    rng = random.Random(seed)
    rows = set()
    while len(rows) < m:
        rows.add(tuple(rng.randrange(q) for _ in range(n)))
    return pointset(q, sorted(rows))


@st.composite
def rhs_cases(draw):
    q = draw(st.sampled_from((2, 3, 5, 11)))
    n = draw(st.integers(0, 6 if q == 2 else 4))
    row = st.tuples(*[st.integers(0, q - 1)] * n)
    rows = draw(st.lists(row, min_size=1, max_size=min(30, q**n), unique=True))
    return PointSet.from_coords(CubeParams(q, n), rows)


@given(rhs_cases(), st.sampled_from((1, 5, 64, _RHS_BLOCK)))
@example(SINGLE_EMPTY_ROW, _RHS_BLOCK)
@example(LOOSE_WIDTH, 1)
@example(random_set(2, 6, 30, 0), _RHS_BLOCK)  # C(30, 4) = 27 405: two blocks
@example(random_set(11, 3, 30, 1), 5)
@kernel_settings
def test_sliced_rank_histogram_matches_walk_and_rank_rows(A, block):
    # Called directly, s from 3 to 6 (above |A| both give no subsets). Small
    # blocks cut the colex order into many, some narrower than one last point.
    rows = A.coord_rows()
    for s in range(3, 7):
        with mock.patch.object(qcube.identities, "_RHS_BLOCK", block):
            sliced = _subset_rank_histogram_sliced(A, s)
        if comb(len(A), s) <= 60_000:
            assert sliced == _subset_rank_histogram_walked(A, s), s
        if comb(len(A), s) <= 3_000:
            want = Counter(rank_rows(c) for c in combinations(rows, s))
            assert sliced == tuple(sorted(want.items())), s


def test_sliced_rank_histogram_over_many_blocks_matches_walk():
    A = random_set(3, 7, 40, 2)
    assert comb(40, 4) > 5 * _RHS_BLOCK and _rhs_sliced_pays(A.params, 40, 4)
    assert _subset_rank_histogram_sliced(A, 4) == _subset_rank_histogram_walked(A, 4)
    assert sum(c for _, c in _subset_rank_histogram(A, 4)) == comb(40, 4)


# Each (q, n, m, s) timed on both routes (ROADMAP, "Measured, not planned").
SLICED_FASTER = [(2, 13, 60, 4), (3, 8, 120, 4), (2, 24, 127, 4), (5, 6, 40, 5),
                 (2, 24, 390, 3), (2, 60, 300, 3), (2, 400, 200, 3)]
WALK_FASTER = [(2, 2000, 60, 3), (2, 1000, 100, 3), (2, 5000, 40, 4), (2, 24, 4, 3),
               (2, 60, 8, 4), (2, 10, 6, 6)]


@pytest.mark.parametrize("shape", SLICED_FASTER + WALK_FASTER)
def test_rank_histogram_estimate_at_measured_shapes(shape):
    q, n, m, s = shape
    assert _rhs_sliced_pays(CubeParams(q, n), m, s) == (shape in SLICED_FASTER)


def test_rank_histogram_estimate_routes_the_sweep_and_s2():
    # bench/sweep_random.json: m = 24, q in {2, 3}, n up to 10, s up to 4.
    for q in (2, 3):
        for n in range(1, 11):
            if q**n >= 24:
                assert all(_rhs_sliced_pays(CubeParams(q, n), 24, s) for s in (3, 4))
    for q, n, m in product((2, 3, 11), (1, 10, 100), (2, 24, 2000, 10**6)):
        assert not _rhs_sliced_pays(CubeParams(q, n), m, 2)


def test_rank_histogram_estimate_keeps_the_memory_cap():
    admitted = 0
    for q, n, m, s in product((2, 3, 11, 10**6), (1, 4, 24, 100, 400), (8, 40, 130, 400, 2000), range(3, 7)):
        if _rhs_sliced_pays(CubeParams(q, n), m, s):
            admitted += 1
            assert _rhs_sliced_bytes(CubeParams(q, n), m, s) <= _RHS_MEMORY_CAP == 16 << 20
    assert admitted > 50
    # Cheaper by the estimate, but over the cap.
    params = CubeParams(11, 100)
    assert _rhs_sliced_bytes(params, 500, 3) > _RHS_MEMORY_CAP
    assert not _rhs_sliced_pays(params, 500, 3)
    with mock.patch.object(qcube.identities, "_RHS_MEMORY_CAP", 10**9):
        assert _rhs_sliced_pays(params, 500, 3)


@pytest.mark.parametrize("shape", [(2, 24, 127, 4), (5, 6, 40, 5), (2, 200, 16, 3)])
def test_sliced_rank_histogram_holds_at_most_its_bound(shape):
    q, n, m, s = shape
    A = random_set(q, n, m, 3)
    A.slices  # part of the set, built before either route
    tracemalloc.start()
    try:
        _subset_rank_histogram_sliced(A, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _rhs_sliced_bytes(A.params, m, s)


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


# Block widths w = 1..4, with values above q - 1 possible inside a block for
# every q here but 2 and 16.
SLICE_QS = (2, 3, 5, 6, 10, 11, 16)


@st.composite
def sliced_cases(draw):
    q = draw(st.sampled_from(SLICE_QS))
    n = draw(st.integers(0, max(n for n in range(7) if q**n <= MAX_VOLUME)))
    row = st.tuples(*[st.integers(0, q - 1)] * n)
    rows = draw(st.lists(row, max_size=min(24, q**n), unique=True))
    return PointSet.from_coords(CubeParams(q, n), rows)


def walk_at(A, k):
    """The walk at the one level k."""
    return _profile_sliced(A, range(k, k + 1))[0]


@given(sliced_cases())
@example(PointSet(CubeParams(2, 0), ()))
@example(SINGLE_EMPTY_ROW)
@example(PointSet(CubeParams(5, 3), ()))
@example(pointset(6, [(5, 0, 3)]))
@example(full_cube(3, 3))
@kernel_settings
def test_sliced_route_matches_counter_route_and_bruteforce(A):
    # Called directly: the cost estimate sends small sets to the Counter route.
    for k in range(A.params.n + 1):
        sliced = walk_at(A, k)
        assert sliced == _distribution_counted(A, k)
        if total_faces(A.params, k) * max(len(A), 1) <= 200_000:
            assert sliced == distribution_bruteforce(A, k)


@given(sliced_cases(), st.integers(1, 5))
@example(LOOSE_WIDTH, 2)
@example(pointset(40, [(39, 0), (17, 17)]), 1)
@kernel_settings
def test_value_slices_match_rows(A, chunk):
    # Small chunks put chunk boundaries inside every set drawn here.
    for size in (chunk, qcube.core._SLICE_CHUNK):
        with mock.patch.object(qcube.core, "_SLICE_CHUNK", size):
            slices = value_slices(A.params, A.packed)
        assert len(slices) == A.params.n
        for j, column in enumerate(slices):
            bitsets = Counter()
            for i, row in enumerate(A.rows):
                bitsets[row[j]] |= 1 << i
            assert column == tuple(bitsets[v] for v in sorted(bitsets))


ALL_ROUTES = {"counter", "walk", "dense"}


@pytest.mark.parametrize("nu", range(7, 13))
def test_sliced_route_matches_face_closed_form(nu):
    params = CubeParams(2, 12)
    A = gen_face_subset(params, face_spec(params, nu))
    assert {_sliced_pays(params, range(k, k + 1), len(A)) for k in range(13)} == ALL_ROUTES
    for k in range(13):
        closed = face_distribution_closed(params, nu, k)
        assert walk_at(A, k) == closed == distribution(A, k), k
    assert "rows" not in vars(A)


def test_sliced_route_matches_evenweight_closed_form():
    A = gen_even_weight(12)
    assert {_sliced_pays(A.params, range(k, k + 1), len(A)) for k in range(13)} == ALL_ROUTES
    for k in range(1, 13):
        closed = evenweight_distribution_closed(12, k)
        assert walk_at(A, k) == closed == distribution(A, k), k
    assert walk_at(A, 0) == _distribution_counted(A, 0)
    assert "rows" not in vars(A)


@st.composite
def profile_cases(draw):
    q = draw(st.integers(2, 5))
    n = draw(st.integers(0, max(n for n in range(9) if q**n <= MAX_VOLUME)))
    row = st.tuples(*[st.integers(0, q - 1)] * n)
    rows = draw(st.lists(row, max_size=min(24, q**n), unique=True))
    lo = draw(st.integers(0, n))
    ks = draw(st.sampled_from((range(n + 1), range(lo, draw(st.integers(lo, n)) + 1))))
    return PointSet.from_coords(CubeParams(q, n), rows), ks


@given(profile_cases())
@example((PointSet(CubeParams(2, 0), ()), range(1)))
@example((PointSet(CubeParams(5, 3), ()), range(1, 3)))
@example((pointset(3, [(1, 2, 0)]), range(4)))
@example((pointset(4, [(3, 0, 1), (3, 1, 1)]), range(2, 3)))
@example((full_cube(2, 4), range(5)))
@example((full_cube(3, 3), range(1, 3)))
@kernel_settings
def test_profile_matches_counter_route_and_bruteforce(case):
    # The walk is called directly too: the cost estimate may pick the Counter route.
    A, ks = case
    walked = _profile_sliced(A, ks)
    assert profile(A, ks) == walked
    for k, dist in zip(ks, walked):
        assert dist == _distribution_counted(A, k)
        if total_faces(A.params, k) * max(len(A), 1) <= 200_000:
            assert dist == distribution_bruteforce(A, k)


@pytest.mark.parametrize("nu", range(13))
def test_profile_matches_face_closed_form(nu):
    params = CubeParams(2, 12)
    A = gen_face_subset(params, face_spec(params, nu))
    closed = [face_distribution_closed(params, nu, k) for k in range(13)]
    assert _profile_sliced(A, range(13)) == closed == profile(A, guard=2**12 * len(A))
    assert "rows" not in vars(A)


def test_profile_matches_evenweight_closed_form():
    A = gen_even_weight(12)
    walked = _profile_sliced(A, range(13))
    assert walked[1:] == [evenweight_distribution_closed(12, k) for k in range(1, 13)]
    assert walked[0] == _distribution_counted(A, 0)
    assert profile(A) == walked
    assert "rows" not in vars(A)


def test_distribution_reads_the_profile_after_its_own_guard():
    A = random_set(2, 10, 24, 5)
    _walked.cache_clear()
    _distribution_grouped.cache_clear()
    whole = 2**10 * 24  # the sum over k of C(10, k) * 24
    with pytest.raises(SizeGuardError):
        profile(A, guard=whole - 1)
    assert "slices" not in vars(A)  # refused before any bitset is built
    dists = profile(A, guard=whole)
    with mock.patch.object(qcube.faces, "_profile_routed", side_effect=AssertionError):
        assert [distribution(A, k) for k in range(11)] == dists
        with pytest.raises(SizeGuardError):
            distribution(A, 5, guard=comb(10, 5) * 24 - 1)
        assert profile(A, range(3, 8)) == dists[3:8]


def test_profile_refuses_levels_out_of_range():
    A = random_set(3, 4, 5, 0)
    assert profile(A, range(2, 2)) == []
    for ks in (range(0, 6), range(-1, 2), range(0, 4, 2)):
        with pytest.raises(CubeError):
            profile(A, ks)


# _sliced_pays on bench/sweep_random.json's shapes (m = 24), over the whole k
# range and one k at a time, and on bench/workloads.py's point files. These
# pin decisions, not timings: a refit of the estimate shows here as a diff.
# Routes read 0 for the Counter route, 1 for the walk and 2 for the dense fold.
SWEEP_ROUTES = {
    (2, 5): (True, "001110"),
    (2, 6): (True, "0001110"),
    (2, 7): (True, "00001110"),
    (2, 8): (True, "000001110"),
    (2, 9): (True, "0000001110"),
    (2, 10): (True, "00000001110"),
    (3, 3): (True, "0110"),
    (3, 4): (True, "00110"),
    (3, 5): (True, "000110"),
    (3, 6): (False, "0000110"),
    (3, 7): (False, "00000110"),
    (3, 8): (False, "000000110"),
    (3, 9): (True, "0000000110"),
    (3, 10): (True, "00000000110"),
}
ROUTE_DIGITS = {"counter": "0", "walk": "1", "dense": "2"}


def _routes(params, m, ks):
    return "".join(ROUTE_DIGITS[_sliced_pays(params, range(k, k + 1), m)] for k in ks)


def test_route_pins_for_the_sweep_shapes():
    shapes = [(q, n) for q in (2, 3) for n in range(1, 11) if q**n >= 24]
    assert shapes == list(SWEEP_ROUTES)
    for (q, n), (whole, one_k) in SWEEP_ROUTES.items():
        params = CubeParams(q, n)
        assert _sliced_pays(params, range(n + 1), 24) == ("walk" if whole else "counter"), (q, n)
        assert _routes(params, 24, range(n + 1)) == one_k, (q, n)


def test_route_pins_for_the_point_files():
    # Timed on an m = 800 file, in process, best of 5 (README): the dense
    # fold was fastest at k = 1..6, the walk at 7..12.
    assert _routes(CubeParams(2, 13), 800, range(14)) == "02222221111110"
    assert _routes(CubeParams(2, 20), 60_000, (19, 20)) == "10"


@pytest.mark.parametrize("q", (2, 3, 1000))
def test_routing_a_huge_cube_builds_no_power(q, monkeypatch):
    # 2**(n*w) cells and q**n points have a million digits or more here; the
    # dense route is ruled out from the bit length n*w alone.
    monkeypatch.setattr(qcube.faces, "_dense_bytes", mock.Mock(side_effect=AssertionError))
    params = CubeParams(q, 10**6)
    levels = [range(k, k + 1) for k in (0, 1, 10**6 - 1, 10**6)]
    start = time.perf_counter()
    routes = [_sliced_pays(params, ks, 2) for ks in levels]
    assert time.perf_counter() - start < 0.05
    assert "dense" not in routes
    tracemalloc.start()
    try:
        for ks in levels:
            _sliced_pays(params, ks, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000


def test_dense_estimate_keeps_the_memory_cap():
    admitted = 0
    for q, n, m, lo, hi in product((2, 3, 4, 5, 16), range(1, 25), (2, 24, 800, 60_000), range(3), (2, 6, 24)):
        if m > q**n or lo > min(hi, n):
            continue
        ks = range(lo, min(hi, n) + 1)
        if _sliced_pays(CubeParams(q, n), ks, m) == "dense":
            admitted += 1
            assert _dense_bytes(CubeParams(q, n), ks, m) <= KERNEL_MEMORY_CAP == 16 << 20
    assert admitted > 50
    # Cheaper by the estimate, but over the cap: 2**24 cells of 2 MiB an int.
    params, ks = CubeParams(2, 24), range(1, 2)
    assert _dense_bytes(params, ks, 10**6) > KERNEL_MEMORY_CAP
    assert _sliced_pays(params, ks, 10**6) == "counter"
    with mock.patch.object(qcube.faces, "KERNEL_MEMORY_CAP", 10**9):
        assert _sliced_pays(params, ks, 10**6) == "dense"


@pytest.mark.parametrize("shape", [(2, 13, 800, range(5, 6)), (3, 8, 300, range(9)), (5, 4, 200, range(1, 3)),
                                   (2, 18, 4000, range(2, 3))])
def test_dense_route_holds_at_most_its_bound(shape):
    q, n, m, ks = shape
    A = random_set(q, n, m, 4)
    assert _dense_cost(A.params, ks, m) is not None
    tracemalloc.start()
    try:
        _profile_dense(A, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _dense_bytes(A.params, ks, m) <= KERNEL_MEMORY_CAP


@st.composite
def dense_cases(draw):
    q = draw(st.sampled_from((2, 3, 4, 5)))
    n = draw(st.integers(0, max(n for n in range(9) if q**n <= MAX_VOLUME)))
    row = st.tuples(*[st.integers(0, q - 1)] * n)
    rows = draw(st.lists(row, max_size=min(40, q**n), unique=True))
    lo = draw(st.integers(0, n))
    ks = draw(st.sampled_from((range(n + 1), range(lo, draw(st.integers(lo, n)) + 1))))
    return PointSet.from_coords(CubeParams(q, n), rows), ks


@given(dense_cases())
@example((PointSet(CubeParams(2, 0), ()), range(1)))
@example((pointset(2, [()]), range(1)))
@example((PointSet(CubeParams(5, 3), ()), range(4)))
@example((pointset(3, [(2, 2, 2)]), range(3, 4)))
@example((full_cube(2, 6), range(4, 7)))  # counts up to 64: seven planes
@example((full_cube(3, 4), range(5)))
@example((full_cube(5, 3), range(2, 4)))
@example((full_cube(4, 3), range(3, 4)))
@kernel_settings
def test_dense_route_matches_counter_route_walk_and_bruteforce(case):
    # Called directly: the cost estimate may pick another route. q = 3 and 5
    # leave block codes unused, whose cells stay empty.
    A, ks = case
    dense = _profile_dense(A, ks)
    assert dense == _profile_sliced(A, ks)
    for k, dist in zip(ks, dense):
        assert dist == _distribution_counted(A, k)
        if total_faces(A.params, k) * max(len(A), 1) <= 200_000:
            assert dist == distribution_bruteforce(A, k)


@pytest.mark.parametrize("nu", range(13))
def test_dense_route_matches_face_closed_form(nu):
    params = CubeParams(2, 12)
    A = gen_face_subset(params, face_spec(params, nu))
    assert _profile_dense(A, range(13)) == [face_distribution_closed(params, nu, k) for k in range(13)]


def test_dense_route_matches_evenweight_closed_form():
    A = gen_even_weight(12)
    dense = _profile_dense(A, range(13))
    assert dense[1:] == [evenweight_distribution_closed(12, k) for k in range(1, 13)]
    assert dense[0] == _distribution_counted(A, 0)


@given(point_sets())
@example(SINGLE_EMPTY_ROW)
@example(LOOSE_WIDTH)
@example(pointset(1000, [(999, 5), (999, 6), (0, 5)]))
@example(pointset(17, [(i % 17, i // 17, 5 * i % 17) for i in range(20)]))  # no slices
@kernel_settings
def test_distance_total_matches_pairwise(A):
    assert distance_total(A) == distance_sum(A).total


@given(point_sets((2, 3, 4, 5), max_volume=5**6))
@example(SINGLE_EMPTY_ROW)
@example(pointset(5, [(4, 0, 3, 1, 2, 0)]))
@example(full_cube(2, 3))
@example(full_cube(3, 2))
@example(full_cube(4, 2))
@kernel_settings
def test_containing_count_routes_agree(A):
    # The sweep's lemma_face_count LHS, its face-scan oracle and its RHS.
    for k in range(A.params.n + 1):
        top = distribution(A, k)[len(A)]
        assert top == faces_containing_bruteforce(A, k) == faces_containing_count(A, k)


def _rhs_routes_agree(corollary, A, k, s):
    rhs = corollary(A, k).rhs
    assert rhs == sum(v for _, v in corollary(A, k, include_terms=True).rhs_terms)
    # main_rhs admits s <= min(|A|, q**k); above that no s points share a k-face.
    assert rhs == (main_rhs(A, k, s) if s <= intersection_cap(A, k) else 0)


@given(point_sets(), st.integers(0, 6))
@example(LOOSE_WIDTH, 1)
@example(full_cube(3, 2), 2)
@kernel_settings
def test_corollary2_histogram_matches_terms_and_main_rhs(A, k):
    if len(A) >= 2:
        _rhs_routes_agree(corollary_s2, A, min(k, A.params.n), 2)


@given(point_sets((2,)), st.integers(0, 6))
@example(full_cube(2, 3), 2)
@example(pointset(2, [(0, 0, 0), (0, 1, 1), (1, 0, 1)]), 3)
@kernel_settings
def test_corollary3_histogram_matches_terms_and_main_rhs(A, k):
    if len(A) >= 3:
        _rhs_routes_agree(corollary_s3, A, min(k, A.params.n), 3)


@st.composite
def binary_sets(draw):
    n = draw(st.integers(2, 8))
    row = st.tuples(*[st.integers(0, 1)] * n)
    rows = draw(st.lists(row, min_size=3, max_size=min(30, 2**n), unique=True))
    return PointSet.from_coords(CubeParams(2, n), rows)


@given(binary_sets())
@example(full_cube(2, 3))
@example(pointset(2, [(0, 0, 0), (0, 1, 1), (1, 0, 1)]))
@kernel_settings
def test_triple_rank_histogram_matches_triple_ranks(A):
    want = Counter(r for _, r in _triple_ranks(A, 10**7))
    assert _triple_rank_histogram.__wrapped__(A, 10**7) == tuple(sorted(want.items()))


def test_triple_rank_histogram_refuses_an_odd_distance_sum():
    # Unreachable in a binary cube; distances 1, 1, 2 and 1, 1, 1 are fed in.
    A = pointset(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    pairwise = {(0, 1): 1, (0, 2): 1, (0, 3): 2, (1, 2): 2, (1, 3): 1, (2, 3): 1}
    pairwise[1, 2] = 1
    fake = DistanceProfile(pairwise, sum(pairwise.values()))
    with mock.patch.object(qcube.identities, "distance_sum", return_value=fake):
        with pytest.raises(ConsistencyError, match=r"^odd distance sum 3 for a binary triple \(0, 1, 2\)$"):
            _triple_rank_histogram.__wrapped__(A, 10**7)


@given(point_sets(), st.integers(0, 6), st.integers(1, 8))
@kernel_settings
def test_unlabelled_lhs_sums_the_labelled_terms(A, k, s):
    k = min(k, A.params.n)
    terms = _lhs_terms(A, k, s, 10**7)
    assert _lhs(A, k, s, 10**7) == sum(v for _, v in terms)
    assert [label for label, _ in terms] == [f"e={e}" for e, c in distribution(A, k).items() if e >= s]
    if s <= intersection_cap(A, k):
        assert main_lhs(A, k, s) == _lhs(A, k, s, 10**7)
    for corollary, least in ((corollary_s1, 1), (corollary_s2, 2), (corollary_s3, 3)):
        if len(A) >= least and (corollary is not corollary_s3 or A.params.q == 2):
            with_terms = corollary(A, k, include_terms=True)
            assert corollary(A, k).lhs == with_terms.lhs == sum(v for _, v in with_terms.lhs_terms)
