import random
from itertools import combinations, product

import pytest

from qcube.core import (
    ConsistencyError,
    CubeError,
    CubeParams,
    Face,
    Point,
    PointSet,
    SizeGuardError,
    binom,
)
from qcube.faces import (
    FaceDistribution,
    distribution,
    distribution_bruteforce,
    enumerate_faces,
    face_contains,
    faces_containing_bruteforce,
    faces_containing_count,
    total_faces,
)


def literal_faces(params, k):
    """Independent in-test enumeration: (fixed-position tuple, value tuple)."""
    n, q = params.n, params.q
    out = []
    for free in combinations(range(n), k):
        fixed = [i for i in range(n) if i not in free]
        for vals in product(range(q), repeat=n - k):
            out.append((tuple(fixed), vals))
    return out


def contains(face_raw, coords):
    fixed, vals = face_raw
    return all(coords[i] == v for i, v in zip(fixed, vals))


class TestEnumerateFaces:
    @pytest.mark.parametrize(
        "q,n,k,expected",
        [(2, 2, 1, 4), (2, 3, 2, 6), (3, 2, 0, 9), (2, 3, 0, 8), (2, 3, 3, 1), (3, 2, 2, 1)],
    )
    def test_counts(self, q, n, k, expected):
        params = CubeParams(q, n)
        faces = list(enumerate_faces(params, k))
        assert len(faces) == expected == total_faces(params, k)

    def test_uniqueness_and_totals(self):
        for q, n in [(2, 4), (3, 3), (4, 2)]:
            params = CubeParams(q, n)
            for k in range(n + 1):
                faces = list(enumerate_faces(params, k))
                assert len(set(faces)) == len(faces) == total_faces(params, k)

    def test_deterministic_order(self):
        params = CubeParams(3, 3)
        assert list(enumerate_faces(params, 1)) == list(enumerate_faces(params, 1))

    def test_lexicographic_free_sets_first(self):
        params = CubeParams(2, 3)
        free_sets = [tuple(sorted(f.free_positions)) for f in enumerate_faces(params, 1)]
        deduped = []
        for fs in free_sets:
            if not deduped or deduped[-1] != fs:
                deduped.append(fs)
        assert deduped == [(0,), (1,), (2,)]

    def test_k_out_of_range(self):
        params = CubeParams(2, 3)
        with pytest.raises(CubeError):
            list(enumerate_faces(params, 4))
        with pytest.raises(CubeError):
            list(enumerate_faces(params, -1))

    def test_zero_dimension_cube(self):
        params = CubeParams(2, 0)
        faces = list(enumerate_faces(params, 0))
        assert len(faces) == 1
        assert faces[0].dimension == 0


class TestFaceContains:
    def test_examples(self):
        params = CubeParams(2, 3)
        face = Face(params, frozenset({1, 2}), ((0, 0),))
        assert face_contains(face, Point(params, (0, 1, 1)))
        assert not face_contains(face, Point(params, (1, 1, 1)))

    def test_zero_dimensional(self):
        params = CubeParams(3, 2)
        face = Face(params, frozenset(), ((0, 2), (1, 1)))
        assert face_contains(face, Point(params, (2, 1)))
        assert not face_contains(face, Point(params, (2, 2)))

    def test_mismatched_cubes(self):
        face = Face(CubeParams(2, 2), frozenset({0}), ((1, 0),))
        with pytest.raises(CubeError):
            face_contains(face, Point(CubeParams(2, 3), (0, 0, 0)))

    def test_agrees_with_membership(self):
        params = CubeParams(3, 3)
        rng = random.Random(12)
        pts = [Point(params, tuple(rng.randrange(3) for _ in range(3))) for _ in range(10)]
        for k in range(4):
            for face in enumerate_faces(params, k):
                members = {pt.coords for pt in face.points()}
                for p in pts:
                    assert face_contains(face, p) == (p.coords in members)


class TestFacesContaining:
    def test_pair_k2_with_inline_oracle(self, mkset):
        A = mkset(2, 3, "000 011")
        params = A.params
        # independent oracle: scan the six 2-faces literally
        faces = literal_faces(params, 2)
        assert len(faces) == 6
        expected = sum(
            1 for f in faces if all(contains(f, row) for row in A.coord_rows())
        )
        assert expected == 1
        assert faces_containing_count(A, 2) == 1
        assert faces_containing_bruteforce(A, 2) == 1

    def test_singleton(self, mkset):
        A = mkset(2, 2, "00")
        assert faces_containing_count(A, 1) == 2
        assert faces_containing_bruteforce(A, 1) == 2

    def test_spread_pair_fits_no_edge(self, mkset):
        A = mkset(2, 3, "000 011")
        assert faces_containing_count(A, 1) == 0
        assert faces_containing_bruteforce(A, 1) == 0

    def test_k_below_rank_gives_zero(self, mkset):
        A = mkset(2, 4, "0000 1111")
        assert faces_containing_count(A, 3) == 0

    def test_oracle_equivalence_exhaustive_small(self):
        for q, max_n in [(2, 4), (3, 2)]:
            for n in range(0, max_n + 1):
                params = CubeParams(q, n)
                pts = list(product(range(q), repeat=n))
                for size in (1, 2, 3):
                    if size > len(pts):
                        continue
                    for combo in combinations(pts, size):
                        A = PointSet(params, combo)
                        for k in range(n + 1):
                            assert faces_containing_bruteforce(A, k) == faces_containing_count(A, k)

    def test_empty_set_rejected(self):
        with pytest.raises(CubeError):
            faces_containing_count(PointSet(CubeParams(2, 2), ()), 1)

    def test_guard_refuses_large_scans(self, mkset):
        A = mkset(2, 3, "000 011")
        with pytest.raises(SizeGuardError):
            faces_containing_bruteforce(A, 1, guard=5)


class TestDistribution:
    def test_diagonal_pair(self, mkset):
        dist = distribution(mkset(2, 2, "00 11"), 1)
        assert dist.counts == {1: 4, 0: 0}

    def test_even_weight_n3_k2(self, mkset):
        dist = distribution(mkset(2, 3, "000 011 101 110"), 2)
        assert dist.counts == {2: 6, 0: 0}

    def test_singleton_edges(self, mkset):
        dist = distribution(mkset(2, 3, "000"), 1)
        assert dist.counts == {1: 3, 0: 9}

    def test_empty_set(self):
        params = CubeParams(2, 3)
        dist = distribution(PointSet(params, ()), 1)
        assert dist.counts == {0: total_faces(params, 1)}

    def test_whole_cube_face(self, mkset):
        A = mkset(2, 2, "00 01 10 11")
        assert distribution(A, 2).counts == {4: 1, 0: 0}

    def test_indexing_defaults_to_zero(self, mkset):
        dist = distribution(mkset(2, 2, "00 11"), 1)
        assert dist[1] == 4 and dist[3] == 0

    def test_matches_bruteforce_exhaustively(self):
        params = CubeParams(2, 3)
        pts = list(product((0, 1), repeat=3))
        for size in range(0, 9):
            for combo in combinations(pts, size):
                A = PointSet(params, combo)
                for k in range(4):
                    assert distribution(A, k) == distribution_bruteforce(A, k)

    def test_matches_bruteforce_random(self):
        rng = random.Random(60_601)
        for _ in range(40):
            q = rng.choice([2, 3, 4])
            n = rng.randint(1, 5)
            params = CubeParams(q, n)
            m = rng.randint(1, min(9, params.volume))
            coords = set()
            while len(coords) < m:
                coords.add(tuple(rng.randrange(q) for _ in range(n)))
            A = PointSet.from_coords(params, coords)
            for k in range(n + 1):
                assert distribution(A, k) == distribution_bruteforce(A, k)

    def test_invariants_random(self):
        rng = random.Random(77)
        for _ in range(50):
            q = rng.choice([2, 3, 4])
            n = rng.randint(1, 8)
            params = CubeParams(q, n)
            m = rng.randint(1, min(12, params.volume))
            coords = set()
            while len(coords) < m:
                coords.add(tuple(rng.randrange(q) for _ in range(n)))
            A = PointSet.from_coords(params, coords)
            k = rng.randint(0, n)
            dist = distribution(A, k)
            assert dist.total == total_faces(params, k)
            assert sum(e * c for e, c in dist.counts.items()) == m * binom(n, k)
            cap = min(m, q**k)
            assert all(e <= cap for e in dist.counts if e >= 1)
            assert all(c >= 1 for e, c in dist.counts.items() if e >= 1)

    def test_top_count_matches_containing_count(self, mkset):
        A = mkset(2, 4, "0000 0011 0101")
        for k in range(5):
            assert distribution(A, k)[len(A)] == faces_containing_count(A, k)

    def test_k_out_of_range(self, mkset):
        with pytest.raises(CubeError):
            distribution(mkset(2, 2, "00"), 3)

    def test_guard(self, mkset):
        A = mkset(2, 4, "0000 1111 0101 1010")
        with pytest.raises(SizeGuardError):
            distribution(A, 2, guard=3)
        with pytest.raises(SizeGuardError):
            distribution_bruteforce(A, 2, guard=3)

    def test_guard_checked_after_a_cached_result(self, mkset):
        A = mkset(2, 4, "0000 1111 0101 1010")
        distribution(A, 2, guard=10**6)
        with pytest.raises(SizeGuardError):
            distribution(A, 2, guard=3)

    def test_checked_rejects_bad_tally(self):
        params = CubeParams(2, 2)
        with pytest.raises(ConsistencyError):
            FaceDistribution.checked(params, 1, {1: 3, 0: 0})

    def test_checked_rejects_a_negative_count(self):
        # The four edges of the square, with one empty edge too few.
        with pytest.raises(ConsistencyError, match="face tally -1 at e=0 is negative at k=1"):
            FaceDistribution.checked(CubeParams(2, 2), 1, {1: 3, 2: 2, 0: -1})
        with pytest.raises(ConsistencyError, match="face tally -2 at e=3 is negative at k=2"):
            FaceDistribution.checked(CubeParams(2, 3), 2, {3: -2, 1: 8})

    def test_zero_dimension_cube(self):
        params = CubeParams(3, 0)
        A = PointSet.from_coords(params, [()])
        assert distribution(A, 0).counts == {1: 1, 0: 0}
        assert faces_containing_bruteforce(A, 0) == 1
