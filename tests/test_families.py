import random
import tracemalloc
from itertools import combinations, product
from math import comb
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcube.closed
import qcube.families
from qcube.closed import chu_vandermonde_generalized_cell, evenweight_cell, vandermonde_cell
from qcube.core import CubeError, CubeParams, Point, PointSet, SizeGuardError, binom
from qcube.faces import distribution
from qcube.families import (
    FamilySpec,
    check_chu_vandermonde_generalized,
    check_evenweight_identity,
    check_vandermonde,
    evenweight_distribution_closed,
    face_distribution_closed,
    face_spec,
    gen_even_weight,
    gen_face_subset,
    gen_random_subset,
    realize_family,
)
from qcube.identities import corollary_s2
from qcube.rank import rank, rank_rows


class TestGenFace:
    def test_explicit_positions(self):
        params = CubeParams(2, 3)
        spec = face_spec(params, 1, (2,), ((0, 0), (1, 0)))
        A = gen_face_subset(params, spec)
        assert A.coord_rows() == ((0, 0, 0), (0, 0, 1))

    def test_default_positions_and_values(self):
        params = CubeParams(3, 3)
        A = gen_face_subset(params, face_spec(params, 2))
        assert len(A) == 9
        assert rank(A) == 2
        assert all(p.coords[2] == 0 for p in A)

    def test_nu_extremes(self):
        params = CubeParams(3, 2)
        assert len(gen_face_subset(params, face_spec(params, 0))) == 1
        assert len(gen_face_subset(params, face_spec(params, 2))) == 9

    def test_rank_equals_dimension(self):
        rng = random.Random(5)
        for _ in range(20):
            q = rng.choice([2, 3])
            n = rng.randint(1, 6)
            params = CubeParams(q, n)
            nu = rng.randint(1, n)
            free = tuple(sorted(rng.sample(range(n), nu)))
            A = gen_face_subset(params, face_spec(params, None, free))
            assert rank(A) == nu and len(A) == q**nu

    def test_spec_validation(self):
        params = CubeParams(2, 3)
        with pytest.raises(CubeError):
            face_spec(params, 2, (0,))  # nu disagrees with free positions
        with pytest.raises(CubeError):
            face_spec(params, 4)
        with pytest.raises(CubeError):
            gen_face_subset(params, FamilySpec("random", m=2))

    @pytest.mark.parametrize("kind", ["diagonal", ["x"]], ids=["diagonal", "list"])
    def test_family_kind_validation(self, kind):
        with pytest.raises(CubeError) as info:
            FamilySpec(kind)
        assert str(info.value) == (
            f"unknown family kind {kind!r}; expected one of ('face', 'even_weight', 'random', 'file')"
        )

    def test_builds_no_point_objects(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a Point was built")

        monkeypatch.setattr(Point, "__init__", refuse)
        params = CubeParams(3, 4)
        A = gen_face_subset(params, face_spec(params, None, (1, 3), ((0, 2), (2, 1))))
        assert A.coord_rows() == tuple((2, a, 1, b) for a in range(3) for b in range(3))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_packed_build_matches_the_product_of_the_axes(self, data):
        q, n = data.draw(st.integers(2, 16)), data.draw(st.integers(0, 6))
        nu = data.draw(st.integers(0, min(n, 12 // q.bit_length())))
        free = data.draw(st.permutations(range(n)))[:nu]
        fixed = {i: data.draw(st.integers(0, q - 1)) for i in range(n) if i not in free}
        params = CubeParams(q, n)
        A = gen_face_subset(params, face_spec(params, None, free, tuple(fixed.items())))
        axes = [range(q) if i in free else (fixed[i],) for i in range(n)]
        assert A == PointSet(params, product(*axes))


class TestGenEvenWeight:
    @given(st.integers(0, 14))
    @settings(max_examples=30, deadline=None)
    def test_packed_build_matches_the_filtered_product(self, n):
        A = gen_even_weight(n)
        assert A == PointSet(CubeParams(2, n), (row for row in product((0, 1), repeat=n) if sum(row) % 2 == 0))

    def test_small_cases(self):
        assert gen_even_weight(2).coord_rows() == ((0, 0), (1, 1))
        assert len(gen_even_weight(3)) == 4

    def test_zero_dimension(self):
        A = gen_even_weight(0)
        assert A.coord_rows() == ((),)

    def test_negative_dimension_refused_by_the_params(self):
        with pytest.raises(CubeError, match=r"^dimension n must be >= 0, got -1$"):
            gen_even_weight(-1)

    def test_sizes_and_parity(self):
        for n in range(1, 11):
            A = gen_even_weight(n)
            assert len(A) == 2 ** (n - 1)
            assert all(sum(p.coords) % 2 == 0 for p in A)

    def test_full_rank_for_n_at_least_two(self):
        for n in range(2, 9):
            assert rank(gen_even_weight(n)) == n


class TestGenRandom:
    def test_deterministic(self):
        params = CubeParams(3, 4)
        assert gen_random_subset(params, 7, 42) == gen_random_subset(params, 7, 42)

    def test_size_and_distinctness(self):
        rng = random.Random(8)
        for _ in range(30):
            q = rng.choice([2, 3, 4])
            n = rng.randint(1, 8)
            params = CubeParams(q, n)
            m = rng.randint(1, min(20, params.volume))
            A = gen_random_subset(params, m, rng.randrange(10**6))
            assert len(A) == m

    def test_full_cube(self):
        params = CubeParams(2, 3)
        assert len(gen_random_subset(params, 8, 1)) == 8

    @given(st.sampled_from((2, 3, 4, 5, 7, 8, 10, 11, 16, 1000)), st.integers(0, 9), st.integers(0, 2**30))
    @example(3, 0, 0)
    @example(6, 4, 1)
    @settings(max_examples=60, deadline=None)
    def test_packed_draw_matches_the_decoded_rows(self, q, n, seed):
        # The same rng.sample picks as index i -> base-q digits, coordinate 0
        # the most significant, checked and packed by PointSet.
        params = CubeParams(q, min(n, 6) if q == 1000 else n)  # q**n within sys.maxsize
        n, m = params.n, min(30, params.volume)
        picks = random.Random(seed).sample(range(params.volume), m)
        rows = [tuple(i // q ** (n - 1 - j) % q for j in range(n)) for i in picks]
        A = gen_random_subset(params, m, seed)
        assert A == PointSet(params, rows) and A.rows == tuple(sorted(rows))

    def test_m_validation(self):
        params = CubeParams(2, 3)
        with pytest.raises(CubeError):
            gen_random_subset(params, 0, 1)
        with pytest.raises(CubeError):
            gen_random_subset(params, 9, 1)


class TestRealizeFamily:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("000\n011\n")
        A = realize_family(CubeParams(2, 3), FamilySpec("file", path=str(path)))
        assert A.coord_rows() == ((0, 0, 0), (0, 1, 1))

    def test_even_weight_requires_binary(self):
        with pytest.raises(CubeError):
            realize_family(CubeParams(3, 2), FamilySpec("even_weight"))

    def test_random_needs_m(self):
        with pytest.raises(CubeError):
            realize_family(CubeParams(2, 2), FamilySpec("random"))

    @pytest.mark.parametrize(
        "params, spec, size",
        [
            (CubeParams(3, 4), FamilySpec("face", free_positions=(0, 2, 3)), 27),
            (CubeParams(2, 6), FamilySpec("even_weight"), 32),
            (CubeParams(2, 0), FamilySpec("even_weight"), 1),
            (CubeParams(3, 3), FamilySpec("random", m=5, seed=2), 5),
        ],
        ids=["face", "even-weight", "even-weight-n0", "random"],
    )
    def test_guard_counts_the_set_before_building_it(self, monkeypatch, params, spec, size):
        assert len(realize_family(params, spec, guard=size)) == size
        built = []
        for name in ("_face_points", "gen_even_weight", "_random_points"):
            monkeypatch.setattr(qcube.families, name, lambda *args: built.append(args))
        with pytest.raises(SizeGuardError, match=f"about {size} elementary"):
            realize_family(params, spec, guard=size - 1)
        assert built == []

    def test_face_spec_checked_before_the_guard(self):
        spec = FamilySpec("face", free_positions=(0, 0, 1))
        with pytest.raises(CubeError, match="free position 0 is repeated"):
            realize_family(CubeParams(2, 3), spec, guard=1)

    def test_file_read_as_given(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("000\n011\n101\n")
        assert len(realize_family(CubeParams(2, 3), FamilySpec("file", path=str(path)), 1)) == 3


class TestFaceDistributionClosed:
    def test_edge_in_square(self):
        params = CubeParams(2, 2)
        dist = face_distribution_closed(params, 1, 1)
        assert dist.counts == {2: 1, 1: 2, 0: 1}

    def test_full_square(self):
        params = CubeParams(2, 2)
        dist = face_distribution_closed(params, 2, 1)
        assert dist.counts == {2: 4, 0: 0}

    def test_q3_line(self):
        params = CubeParams(3, 2)
        dist = face_distribution_closed(params, 1, 1)
        assert dist.counts == {3: 1, 1: 3, 0: 2}

    def test_matches_enumeration(self):
        for q in (2, 3):
            for n in range(0, 5):
                params = CubeParams(q, n)
                for nu in range(n + 1):
                    A = gen_face_subset(params, face_spec(params, nu))
                    for k in range(n + 1):
                        closed = face_distribution_closed(params, nu, k)
                        assert closed == distribution(A, k), (q, n, nu, k)

    def test_weighted_total_gives_point_face_incidences(self):
        # summing e * count must give q**nu * C(n, k)
        for q in (2, 3):
            for n in range(1, 7):
                params = CubeParams(q, n)
                for nu in range(n + 1):
                    for k in range(n + 1):
                        dist = face_distribution_closed(params, nu, k)
                        weighted = sum(e * c for e, c in dist.counts.items())
                        assert weighted == q**nu * binom(n, k)

    def test_validation(self):
        params = CubeParams(2, 3)
        with pytest.raises(CubeError):
            face_distribution_closed(params, 4, 1)
        with pytest.raises(CubeError):
            face_distribution_closed(params, 1, 4)


class TestEvenweightDistributionClosed:
    def test_small_cases(self):
        assert evenweight_distribution_closed(2, 1).counts == {1: 4, 0: 0}
        assert evenweight_distribution_closed(3, 2).counts == {2: 6, 0: 0}
        assert evenweight_distribution_closed(4, 2).counts == {2: 24, 0: 0}

    def test_matches_enumeration_up_to_n12(self):
        for n in range(1, 13):
            A = gen_even_weight(n)
            for k in range(1, n + 1):
                assert evenweight_distribution_closed(n, k) == distribution(A, k), (n, k)

    def test_k_zero_rejected(self):
        with pytest.raises(CubeError):
            evenweight_distribution_closed(3, 0)

    def test_n_zero_rejected(self):
        with pytest.raises(CubeError):
            evenweight_distribution_closed(0, 0)


class TestVandermonde:
    def test_known_value(self):
        import math

        rep = check_vandermonde(CubeParams(2, 12), 5, 6)
        assert rep.lhs == rep.rhs == math.comb(12, 6) == 924

    def test_nu_zero(self):
        rep = check_vandermonde(CubeParams(2, 4), 0, 2)
        assert rep.lhs == rep.rhs == 6

    def test_grid(self):
        for n in range(0, 11):
            params = CubeParams(2, n)
            for nu in range(n + 1):
                for k in range(n + 1):
                    rep = check_vandermonde(params, nu, k)
                    assert rep.equal and rep.rhs == binom(n, k)

    def test_terms_sum(self):
        rep = check_vandermonde(CubeParams(2, 6), 3, 3)
        assert sum(v for _, v in rep.lhs_terms) == rep.lhs

    def test_validation(self):
        with pytest.raises(CubeError):
            check_vandermonde(CubeParams(2, 3), 5, 1)


class TestChuVandermondeGeneralized:
    def test_known_small_values(self):
        rep = check_chu_vandermonde_generalized(CubeParams(2, 3), 2, 2)
        assert rep.lhs == rep.rhs == 5
        rep = check_chu_vandermonde_generalized(CubeParams(2, 2), 1, 1)
        assert rep.lhs == rep.rhs == 1
        rep = check_chu_vandermonde_generalized(CubeParams(3, 4), 2, 2)
        assert rep.lhs == rep.rhs == 16

    def test_grid_over_q(self):
        for q in (2, 3, 4, 5):
            for n in range(1, 11):
                params = CubeParams(q, n)
                for nu in range(1, n + 1):
                    for k in range(n + 1):
                        rep = check_chu_vandermonde_generalized(params, nu, k)
                        assert rep.equal, (q, n, nu, k)

    def test_q2_right_side_weights_collapse(self):
        # at q = 2 the right side's (q-1)**i weights are all 1
        rep = check_chu_vandermonde_generalized(CubeParams(2, 5), 3, 2)
        assert rep.rhs == sum(binom(3, i) * binom(5 - i, 2 - i) for i in range(1, 4))

    def test_nu_validation(self):
        with pytest.raises(CubeError):
            check_chu_vandermonde_generalized(CubeParams(2, 3), 0, 1)


def assert_cells_match_oracles(params, nus, ks):
    """Both cell evaluators agree with the per-point oracles at every (nu, k),
    side by side, and each oracle side is the sum of its terms. Each nu row's
    packed sides are equal, as the identities hold at every k."""
    chu_nus = range(max(nus.start, 1), nus.stop)
    for cell, oracle, cell_nus in (
        (vandermonde_cell, check_vandermonde, nus),
        (chu_vandermonde_generalized_cell, check_chu_vandermonde_generalized, chu_nus),
    ):
        rows = list(cell(params, cell_nus, ks))
        assert [(row.nu, row.ks) for row in rows] == [(nu, ks) for nu in cell_nus]
        got = [(row.nu, k, lhs, rhs) for row in rows for k, lhs, rhs in row.points()]
        assert [(nu, k) for nu, k, _, _ in got] == [(nu, k) for nu in cell_nus for k in ks]
        for nu, k, lhs, rhs in got:
            rep = oracle(params, nu, k)
            assert (lhs, rhs) == (rep.lhs, rep.rhs), (params, nu, k)
            assert lhs == sum(v for _, v in rep.lhs_terms)
            assert rhs == sum(v for _, v in rep.rhs_terms)
        assert all(row.lhs == row.rhs for row in rows)


class TestClosedFormCells:
    def test_matches_oracles_exhaustively(self):
        for q in (2, 3, 5):
            for n in range(41):
                assert_cells_match_oracles(CubeParams(q, n), range(n + 1), range(n + 1))

    @given(
        q=st.integers(2, 1000),
        n=st.integers(0, 60),
        bounds=st.tuples(*[st.integers(0, 60)] * 4),
    )
    @example(q=1000, n=60, bounds=(0, 60, 0, 60))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracles_at_large_q(self, q, n, bounds):
        # Limbs hold (q+1)^n; large q stresses the limb width.
        nu_lo, nu_hi, k_lo, k_hi = (min(b, n) for b in bounds)
        assert_cells_match_oracles(
            CubeParams(q, n), range(nu_lo, nu_hi + 1), range(k_lo, k_hi + 1)
        )

    @pytest.mark.parametrize(
        "nus, ks",
        [(range(0, 5), range(0, 4)), (range(0, 4), range(-1, 4)), (range(0, 4), range(5, 3, -1))],
        ids=["nu-above-n", "k-below-0", "k-above-n-descending"],
    )
    def test_validation(self, nus, ks):
        params = CubeParams(3, 3)
        with pytest.raises(CubeError):
            list(vandermonde_cell(params, nus, ks))
        with pytest.raises(CubeError):
            list(chu_vandermonde_generalized_cell(params, range(1, nus.stop), ks))

    @pytest.mark.parametrize("q, n", [(2, 0), (2, 7), (3, 40), (5, 40), (1000, 60), (10**8, 100)])
    def test_guard_estimate_covers_the_pascal_rows(self, q, n):
        # The estimate is in 64-bit words; the rows hold (n+1)(n+2)/2 limbs.
        for cell, bits in (
            (vandermonde_cell, n + 1),
            (chu_vandermonde_generalized_cell, n * (q - 1).bit_length() + n + 1),
        ):
            estimate = (n + 1) * (n + 2) // 2 * -(-bits // 64)
            width = qcube.closed._limb_bytes(2**n if cell is vandermonde_cell else (q + 1) ** n)
            rows = qcube.closed._pascal_rows(n, width)
            assert sum(-(-row.bit_length() // 64) for row in rows) <= estimate
            nus = range(1, n + 1)
            rows = cell(CubeParams(q, n), nus, range(n + 1), estimate)
            assert sum(len(list(row.points())) for row in rows) == n * (n + 1)
            with pytest.raises(SizeGuardError, match=f"about {estimate} elementary"):
                next(cell(CubeParams(q, n), nus, range(n + 1), estimate - 1))

    @given(q=st.integers(2, 1000), n=st.integers(1, 60), ends=st.tuples(st.integers(1, 60), st.integers(1, 60)),
           step=st.sampled_from([1, 2, 3, -1, -2, -3]))
    @example(q=1000, n=60, ends=(60, 1), step=-1)
    @example(q=7, n=40, ends=(1, 40), step=2)
    @example(q=3, n=20, ends=(5, 5), step=1)
    @settings(max_examples=40, deadline=None)
    def test_chu_rows_do_not_depend_on_the_order_of_nus(self, q, n, ends, step):
        # The term tables are formed once per cell, up to the largest nu; each
        # nu's row is then the same, in whatever order or step nus runs.
        params, ks = CubeParams(q, n), range(n + 1)
        first, last = (min(end, n) for end in ends)
        nus = range(first, last + (1 if step > 0 else -1), step)
        ascending = {row.nu: row for row in chu_vandermonde_generalized_cell(params, range(1, n + 1), ks)}
        assert list(chu_vandermonde_generalized_cell(params, nus, ks)) == [ascending[nu] for nu in nus]

    def test_chu_limbs_hold_the_largest_coefficient_to_the_byte(self):
        # Each side's coefficients at every (nu, k), summed term by term from
        # math.comb: (q^i-1)*C(nu,i)*C(n-nu,k-i) and (q-1)^i*C(nu,i)*C(n-i,k-i).
        # Both fit the cell's limbs of (q+1)^n's bytes, and at these (q, n) the
        # largest does not fit a byte fewer.
        tight = {(2, 40), (5, 40), (2, 60), (1000, 60)}
        binomials = [[0] * 60 + [comb(a, b) for b in range(a + 1)] + [0] * 60 for a in range(61)]
        columns = [[comb(a, b) for a in range(61)] for b in range(61)]  # C(a, b) at [b][a]
        for q in (2, 3, 5, 1000):
            for n in range(1, 61):
                largest = 0
                for nu in range(1, n + 1):
                    c = [comb(nu, i) for i in range(1, nu + 1)]
                    lhs_weights = [(q**i - 1) * c[i - 1] for i in range(1, nu + 1)]
                    rhs_weights = [(q - 1) ** i * c[i - 1] for i in range(1, nu + 1)]
                    for k in range(n + 1):
                        # C(n-nu, k-i) and C(n-i, k-i) = C(n-i, n-k) for i = 1..nu
                        lhs = sum(map(mul, lhs_weights, binomials[n - nu][60 + k - nu : 60 + k][::-1]))
                        rhs = sum(map(mul, rhs_weights, columns[n - k][n - nu : n][::-1]))
                        largest = max(largest, lhs, rhs)
                (row,) = chu_vandermonde_generalized_cell(CubeParams(q, n), range(1, 2), range(0))
                assert row.width == (((q + 1) ** n).bit_length() + 7) // 8
                assert largest < 256**row.width, (q, n)
                if (q, n) in tight:
                    assert largest >= 256 ** (row.width - 1), (q, n)

    def test_refused_cell_builds_no_rows(self, monkeypatch):
        monkeypatch.setattr(qcube.closed, "_pascal_rows", None)
        cell = chu_vandermonde_generalized_cell(CubeParams(10**8, 600), range(500, 601), range(600, 601))
        with pytest.raises(SizeGuardError, match="about 47576963 elementary"):
            next(cell)

    @pytest.mark.parametrize("q, n", [(2, 120), (7, 100), (1000, 80)])
    def test_chu_cell_holds_at_most_two_and_a_half_estimates(self, q, n):
        # The guard's estimate counts the packed Pascal rows in 64-bit words.
        # Term tables formed unshifted hold about as much again as the rows
        # (1.8x, 1.6x and 2.1x the estimate here); tables shifted by i limbs
        # held 3.3x, 3.0x and 3.9x. The allowance covers what the cell holds
        # besides: one nu's binomials, the sum being formed and the last row.
        estimate = (n + 1) * (n + 2) // 2 * -(-(n * (q - 1).bit_length() + n + 1) // 64)
        tracemalloc.start()
        try:
            for _ in chu_vandermonde_generalized_cell(CubeParams(q, n), range(1, n + 1), range(n + 1)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * estimate // 2 + (64 << 10), (peak, 8 * estimate)

    @given(
        coefficients=st.lists(st.integers(0, 2**24 - 1), min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_limbs_read_back_the_packed_coefficients(self, coefficients, data):
        packed = sum(c << 24 * k for k, c in enumerate(coefficients))
        n = len(coefficients) - 1
        lo = data.draw(st.integers(0, n))
        ks = range(lo, data.draw(st.integers(lo - 1, n)) + 1)
        for order in (ks, ks[::-1]):
            assert qcube.closed.limbs(packed, order, 3) == [coefficients[k] for k in order]

    @given(width=st.integers(1, 40), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_limbs_match_per_limb_slicing(self, width, data):
        # The per-limb slicing that limbs() replaced, kept as its oracle.
        def sliced(packed, ks, width):
            if not ks:
                return []
            stop = max(ks[0], ks[-1]) + 1
            raw = (packed & ((1 << 8 * width * stop) - 1)).to_bytes(stop * width, "little")
            return [int.from_bytes(raw[k * width : (k + 1) * width], "little") for k in ks]

        limb = st.integers(0, 2 ** (8 * width) - 1)
        coefficients = data.draw(st.lists(limb, min_size=1, max_size=10))
        n = len(coefficients) - 1
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo - 1, n))
        step = data.draw(st.integers(1, 3))
        # The drawn range, one k, none, and the drawn range backwards and stepped.
        ranges = [range(lo, hi + 1), range(lo, lo + 1), range(lo, lo), range(hi, lo - 1, -1),
                  range(lo, hi + 1, step)]
        packed = sum(c << 8 * width * k for k, c in enumerate(coefficients))
        for ks in ranges:
            assert qcube.closed.limbs(packed, ks, width) == sliced(packed, ks, width), ks
            # NuRow.points reads both sides through limbs().
            row = qcube.closed.NuRow(None, ks, packed, packed >> 8 * width, width)
            want = zip(ks, sliced(packed, ks, width), sliced(packed >> 8 * width, ks, width))
            assert list(row.points()) == list(want)

    def test_chu_needs_nu_at_least_one(self):
        with pytest.raises(CubeError):
            list(chu_vandermonde_generalized_cell(CubeParams(2, 3), range(0, 2), range(0, 4)))


class TestEvenweightIdentity:
    def test_printed_fails_at_n4_k2(self):
        rep = check_evenweight_identity(4, 2, "printed")
        assert rep.lhs == 48 and rep.rhs == 6 and not rep.equal
        assert rep.identity == "evenweight_printed"

    def test_corrected_holds_at_n4_k2(self):
        rep = check_evenweight_identity(4, 2, "corrected")
        assert rep.lhs == rep.rhs == 6 and rep.equal

    def test_corrected_holds_widely(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                rep = check_evenweight_identity(n, k, "corrected")
                assert rep.equal, (n, k)

    def test_printed_failure_condition(self):
        # fails exactly when the corrected left side is nonzero and n >= 2
        for n in range(1, 11):
            for k in range(1, n + 1):
                rep = check_evenweight_identity(n, k, "printed")
                should_fail = (2 ** (k - 1) - 1) * binom(n, k) != 0 and n >= 2
                assert rep.equal == (not should_fail), (n, k)

    def test_default_form_is_corrected(self):
        assert check_evenweight_identity(5, 3).identity == "evenweight_corrected"

    def test_validation(self):
        with pytest.raises(CubeError):
            check_evenweight_identity(4, 0)
        with pytest.raises(CubeError):
            check_evenweight_identity(0, 1)
        with pytest.raises(CubeError):
            check_evenweight_identity(4, 2, "fixed")

    def test_corrected_matches_pair_identity_on_even_weight_sets(self):
        # the corrected form is the pair identity on the even-weight family
        # with the common factor 2**(n-2) removed
        for n in range(2, 8):
            A = gen_even_weight(n)
            for k in range(1, n + 1):
                rep = corollary_s2(A, k)
                assert rep.equal
                corrected = check_evenweight_identity(n, k, "corrected")
                assert rep.lhs == corrected.lhs * 2 ** (n - 2)
                assert rep.rhs == corrected.rhs * 2 ** (n - 2)


class TestEvenweightCell:
    @pytest.mark.parametrize("form", ["printed", "corrected"])
    def test_matches_the_check_at_every_point(self, form):
        for n in range(1, 41):
            for ks in (range(1, n + 1), range(n, n + 1), range(2, min(n, 5) + 1)):
                row = evenweight_cell(n, ks, form)
                assert row.nu is None and row.ks == ks
                got = list(row.points())
                want = []
                for k in ks:
                    rep = check_evenweight_identity(n, k, form)
                    want.append((k, rep.lhs, rep.rhs))
                assert got == want, (form, n, ks)
            # The corrected form holds at every k, so its packed sides are
            # equal; the printed one fails somewhere from n = 2 on.
            whole = evenweight_cell(n, range(1, n + 1), form)
            assert (whole.lhs == whole.rhs) == (form == "corrected" or n == 1)

    def test_holds_a_few_rows_not_the_triangle(self):
        # At n = 300 a packed row has 301 limbs of 113 bytes, about 34 KB;
        # the Pascal rows 0..300 together take about 5 MB.
        tracemalloc.start()
        try:
            row = evenweight_cell(300, range(298, 301), "corrected")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.width == 113 and peak < 10 * 301 * 113
        assert row.lhs == row.rhs
        assert [lhs for _, lhs, _ in row.points()] == [
            check_evenweight_identity(300, k).lhs for k in range(298, 301)
        ]

    @pytest.mark.parametrize(
        "n, ks, form",
        [(0, range(1, 1), "corrected"), (4, range(0, 3), "corrected"), (4, range(1, 6), "printed"),
         (4, range(1, 3), "fixed")],
        ids=["n-0", "k-0", "k-above-n", "unknown-form"],
    )
    def test_validation(self, n, ks, form):
        with pytest.raises(CubeError):
            evenweight_cell(n, ks, form)


class TestPairRankCounts:
    def test_rank_i_pairs_inside_a_face(self):
        # pairs of face points with rank i number (q-1)**i * C(nu, i) * q**nu / 2
        for q in (2, 3):
            for nu in range(1, 4):
                n = nu + 1
                params = CubeParams(q, n)
                A = gen_face_subset(params, face_spec(params, nu))
                rows = A.coord_rows()
                found = {}
                for a, b in combinations(rows, 2):
                    i = rank_rows((a, b))
                    found[i] = found.get(i, 0) + 1
                for i in range(1, nu + 1):
                    expected2 = (q - 1) ** i * binom(nu, i) * q**nu
                    assert expected2 % 2 == 0
                    assert found.get(i, 0) == expected2 // 2, (q, nu, i)
