import importlib
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from qcube.core import CubeError, CubeParams, PointSet, SizeGuardError
from qcube.rank import (
    column_distance_sum,
    distance_sum,
    distance_total,
    isometric,
    rank,
    rank_bounds,
    rank_closed_small,
    random_isometry_image,
)


def all_subsets(params, sizes):
    pts = list(product(range(params.q), repeat=params.n))
    for size in sizes:
        for combo in combinations(pts, size):
            yield PointSet(params, combo)


class TestRank:
    def test_examples(self, mkset):
        assert rank(mkset(2, 3, "000")) == 0
        assert rank(mkset(2, 3, "000 011")) == 2
        assert rank(mkset(2, 3, "000 011 101")) == 3

    def test_column_oracle(self, mkset):
        # independent check: count non-constant columns by hand
        A = mkset(2, 4, "0000 0011 0001")
        cols = list(zip(*A.coord_rows()))
        assert sum(1 for col in cols if len(set(col)) > 1) == 2
        assert rank(A) == 2

    def test_nonbinary(self, mkset):
        assert rank(mkset(3, 2, "00 21")) == 2
        assert rank(mkset(4, 3, "010 013")) == 1

    def test_empty_set_rejected(self):
        with pytest.raises(CubeError):
            rank(PointSet(CubeParams(2, 3), ()))


class TestDistanceSum:
    def test_triple_example(self, mkset):
        prof = distance_sum(mkset(2, 3, "000 011 101"))
        assert prof.total == 6
        assert prof.pairwise == {(0, 1): 2, (0, 2): 2, (1, 2): 2}

    def test_full_square(self, mkset):
        assert distance_sum(mkset(2, 2, "00 01 10 11")).total == 8

    def test_matches_direct_recount(self, mkset):
        rng = random.Random(99)
        for _ in range(40):
            q = rng.choice([2, 3, 4])
            n = rng.randint(1, 7)
            params = CubeParams(q, n)
            m = rng.randint(1, min(10, params.volume))
            coords = set()
            while len(coords) < m:
                coords.add(tuple(rng.randrange(q) for _ in range(n)))
            A = PointSet.from_coords(params, coords)
            rows = A.coord_rows()
            expected = {
                (i, j): sum(x != y for x, y in zip(rows[i], rows[j]))
                for i, j in combinations(range(m), 2)
            }
            prof = distance_sum(A)
            assert prof.pairwise == expected
            assert prof.total == sum(expected.values())

    def test_singleton(self, mkset):
        prof = distance_sum(mkset(3, 2, "01"))
        assert prof.pairwise == {} and prof.total == 0

    def test_guard_counts_pairs_before_the_first(self, mkset, monkeypatch):
        A = mkset(2, 3, "000 011 101 110")
        assert distance_sum(A, guard=6).total == 12
        folds = []
        rank_module = importlib.import_module("qcube.rank")  # qcube.rank is also a function
        monkeypatch.setattr(rank_module, "block_fold", lambda params: folds.append(params))
        with pytest.raises(SizeGuardError, match="about 6 elementary operations, guard is 5"):
            distance_sum(A, guard=5)
        assert folds == []


class TestDistanceTotal:
    def test_examples(self, mkset):
        assert distance_total(mkset(3, 2, "00 12 02")) == 4
        assert distance_total(mkset(12, 2, "11,0 0,0")) == 1
        assert distance_total(PointSet.from_coords(CubeParams(4, 0), [()])) == 0

    def test_empty_set_rejected(self):
        with pytest.raises(CubeError):
            distance_total(PointSet(CubeParams(3, 2), ()))


class TestColumnDistanceSum:
    def test_examples(self, mkset):
        assert column_distance_sum(mkset(2, 3, "000 011 101")) == 6
        assert column_distance_sum(mkset(2, 2, "00 11")) == 2
        assert column_distance_sum(mkset(2, 1, "0")) == 0

    def test_always_equals_pairwise_total(self, mkset):
        rng = random.Random(2024)
        for _ in range(120):
            n = rng.randint(1, 16)
            params = CubeParams(2, n)
            m = rng.randint(1, min(20, params.volume))
            coords = set()
            while len(coords) < m:
                coords.add(tuple(rng.randrange(2) for _ in range(n)))
            A = PointSet.from_coords(params, coords)
            assert column_distance_sum(A) == distance_sum(A).total

    def test_binary_only(self, mkset):
        with pytest.raises(CubeError):
            column_distance_sum(mkset(3, 2, "00 12"))


class TestRankBounds:
    def test_triple_collapses(self, mkset):
        b = rank_bounds(mkset(2, 3, "000 011 101"))
        assert (b.lower, b.upper, b.exact_rank) == (Fraction(3), Fraction(3), 3)

    def test_pair_collapses(self, mkset):
        b = rank_bounds(mkset(2, 2, "00 11"))
        assert (b.lower, b.upper, b.exact_rank) == (Fraction(2), Fraction(2), 2)

    def test_four_point_example(self, mkset):
        A = mkset(2, 4, "0000 1111 0011 1100")
        assert distance_sum(A).total == 16
        b = rank_bounds(A)
        assert b.lower == Fraction(4)
        assert b.upper == Fraction(16, 3)
        assert b.exact_rank == 4

    def test_singleton(self, mkset):
        b = rank_bounds(mkset(2, 5, "00000"))
        assert (b.lower, b.upper, b.exact_rank) == (Fraction(0), Fraction(0), 0)

    def test_binary_only(self, mkset):
        with pytest.raises(CubeError):
            rank_bounds(mkset(3, 2, "00 11"))

    def test_guard_counts_coordinates_before_either_scan(self, mkset, monkeypatch):
        A = mkset(2, 4, "0000 1111 0011 1100")  # n * m = 16
        assert rank_bounds(A, guard=16).exact_rank == 4
        scans = []
        rank_module = importlib.import_module("qcube.rank")  # qcube.rank is also a function
        monkeypatch.setattr(rank_module, "rank_rows", lambda rows: scans.append(rows))
        monkeypatch.setattr(rank_module, "distance_total", lambda A: scans.append(A))
        with pytest.raises(SizeGuardError, match="about 16 elementary operations, guard is 15"):
            rank_bounds(A, guard=15)
        assert scans == []

    def test_guard_checked_before_the_alphabet(self, mkset):
        A = mkset(3, 2, "00 11")  # n * m = 4
        with pytest.raises(SizeGuardError, match="about 4 elementary operations, guard is 3"):
            rank_bounds(A, guard=3)
        with pytest.raises(CubeError, match="defined for q = 2 only"):
            rank_bounds(A, guard=4)

    def test_bounds_hold_on_random_sets(self):
        rng = random.Random(555)
        for _ in range(200):
            n = rng.randint(1, 12)
            params = CubeParams(2, n)
            m = rng.randint(1, min(16, params.volume))
            coords = set()
            while len(coords) < m:
                coords.add(tuple(rng.randrange(2) for _ in range(n)))
            A = PointSet.from_coords(params, coords)
            b = rank_bounds(A)
            assert b.lower <= rank(A) <= b.upper
            assert b.exact_rank == rank(A)


class TestRankClosedSmall:
    def test_examples(self, mkset):
        assert rank_closed_small(mkset(2, 3, "000 011")) == 2
        assert rank_closed_small(mkset(2, 3, "000 011 101")) == 3
        assert rank_closed_small(mkset(2, 4, "0000")) == 0
        assert rank_closed_small(mkset(2, 2, "00 01 10 11")) is None

    def test_binary_only(self, mkset):
        with pytest.raises(CubeError):
            rank_closed_small(mkset(3, 1, "0 1"))

    def test_matches_rank_exhaustively(self):
        for n in range(1, 5):
            params = CubeParams(2, n)
            for A in all_subsets(params, (1, 2, 3)):
                assert rank_closed_small(A) == rank(A)

    def test_triple_distance_sum_is_even(self):
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randint(2, 14)
            params = CubeParams(2, n)
            coords = set()
            while len(coords) < 3:
                coords.add(tuple(rng.randrange(2) for _ in range(n)))
            A = PointSet.from_coords(params, coords)
            assert distance_sum(A).total % 2 == 0


def assert_is_isometry(A, B, mapping):
    assert set(mapping.keys()) == set(A.points)
    assert set(mapping.values()) == set(B.points)
    rows = A.points
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            da = sum(x != y for x, y in zip(rows[i].coords, rows[j].coords))
            ia, ja = mapping[rows[i]], mapping[rows[j]]
            db = sum(x != y for x, y in zip(ia.coords, ja.coords))
            assert da == db


class TestIsometric:
    def test_translated_pair(self, mkset):
        A = mkset(2, 3, "000 011")
        B = mkset(2, 3, "111 100")
        mapping = isometric(A, B)
        assert mapping is not None
        assert_is_isometry(A, B, mapping)

    def test_triples_with_same_profile(self, mkset):
        A = mkset(2, 2, "00 01 10")
        B = mkset(2, 2, "00 01 11")
        mapping = isometric(A, B)
        assert mapping is not None
        assert_is_isometry(A, B, mapping)

    def test_equidistant_quadruples(self, mkset):
        A = mkset(2, 3, "000 011 101 110")
        B = mkset(2, 3, "111 100 010 001")
        # both are 4 points pairwise at distance 2
        mapping = isometric(A, B)
        assert mapping is not None
        assert_is_isometry(A, B, mapping)

    def test_unequal_distance_multisets(self, mkset):
        # same size, but the second set has distance-1 pairs
        A = mkset(2, 3, "000 011 101 110")
        B = mkset(2, 3, "000 001 010 100")
        assert isometric(A, B) is None

    def test_distance_mismatch(self, mkset):
        assert isometric(mkset(2, 2, "00 01"), mkset(2, 2, "00 11")) is None

    def test_size_mismatch(self, mkset):
        assert isometric(mkset(2, 2, "00"), mkset(2, 2, "00 11")) is None

    def test_empty_sets(self):
        params = CubeParams(2, 2)
        assert isometric(PointSet(params, ()), PointSet(params, ())) == {}

    def test_across_different_dimensions(self, mkset):
        A = mkset(2, 2, "00 01")
        B = mkset(2, 4, "0000 0100")
        mapping = isometric(A, B)
        assert mapping is not None
        assert_is_isometry(A, B, mapping)

    def test_guard_counts_backtracking_nodes(self):
        # Every point of the full cube has the same distance profile, so no
        # candidate is pruned up front; a bijection of 8 points needs the
        # empty assignment and 8 extensions of it, 9 nodes at the least.
        A = PointSet.from_coords(CubeParams(2, 3), product((0, 1), repeat=3))
        B = random_isometry_image(A, 5)
        with pytest.raises(SizeGuardError, match="about 9 elementary operations, guard is 8"):
            isometric(A, B, guard=8)
        assert_is_isometry(A, B, isometric(A, B, guard=9))
        assert_is_isometry(A, B, isometric(A, B))

    def test_profile_multiset_not_sufficient_alone(self, mkset):
        # sets with equal total distance but different structure
        A = mkset(2, 3, "000 001 010 111")
        B = mkset(2, 3, "000 001 010 011")
        total_a = distance_sum(A).total
        total_b = distance_sum(B).total
        if total_a == total_b:
            result = isometric(A, B)
            if result is not None:
                assert_is_isometry(A, B, result)


class TestRandomIsometryImage:
    def test_deterministic(self, mkset):
        A = mkset(3, 4, "0120 2001 1111")
        assert random_isometry_image(A, 9) == random_isometry_image(A, 9)

    def test_preserves_rank_and_distances(self):
        rng = random.Random(808)
        for _ in range(60):
            q = rng.choice([2, 3, 4])
            n = rng.randint(1, 8)
            params = CubeParams(q, n)
            m = rng.randint(1, min(8, params.volume))
            coords = set()
            while len(coords) < m:
                coords.add(tuple(rng.randrange(q) for _ in range(n)))
            A = PointSet.from_coords(params, coords)
            B = random_isometry_image(A, rng.randrange(2**30))
            assert len(B) == len(A)
            assert rank(B) == rank(A)
            assert sorted(distance_sum(B).pairwise.values()) == sorted(
                distance_sum(A).pairwise.values()
            )

    def test_recoverable_by_isometric(self, mkset):
        A = mkset(2, 4, "0000 0011 0101 1110")
        B = random_isometry_image(A, 17)
        mapping = isometric(A, B)
        assert mapping is not None
        assert_is_isometry(A, B, mapping)

    def test_zero_dimension(self):
        params = CubeParams(2, 0)
        A = PointSet.from_coords(params, [()])
        assert random_isometry_image(A, 3) == A
