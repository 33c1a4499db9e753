import json
import os
import random
import tempfile
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcube import identities, sweep
from qcube.core import DEFAULT_GUARD, CubeError, CubeParams, Point, PointSet, SizeGuardError, binom, check_guard_power
from qcube.faces import distribution, faces_containing_count
from qcube.identities import (
    IdentityReport,
    corollary_s1,
    corollary_s2,
    corollary_s3,
    intersection_cap,
    main_lhs,
    main_rhs,
    verify_main,
)


def random_set(rng, qs=(2, 3, 4), max_n=8, max_m=10):
    q = rng.choice(qs)
    n = rng.randint(1, max_n)
    params = CubeParams(q, n)
    m = rng.randint(1, min(max_m, params.volume))
    coords = set()
    while len(coords) < m:
        coords.add(tuple(rng.randrange(q) for _ in range(n)))
    return PointSet.from_coords(params, coords)


class TestMainSides:
    def test_lhs_even_weight_example(self, mkset):
        assert main_lhs(mkset(2, 3, "000 011 101 110"), 2, 2) == 6

    def test_lhs_singleton(self, mkset):
        assert main_lhs(mkset(2, 3, "000"), 1, 1) == 3

    def test_rhs_even_weight_example(self, mkset):
        assert main_rhs(mkset(2, 3, "000 011 101 110"), 2, 2) == 6

    def test_rhs_full_triple(self, mkset):
        assert main_rhs(mkset(2, 3, "000 011 101"), 3, 3) == 1

    def test_s_out_of_range(self, mkset):
        A = mkset(2, 2, "00 11")
        with pytest.raises(CubeError):
            main_lhs(A, 0, 2)  # p(0) = 1
        with pytest.raises(CubeError):
            main_rhs(A, 1, 3)  # s > |A|
        with pytest.raises(CubeError):
            main_lhs(A, 1, 0)

    def test_k_out_of_range(self, mkset):
        with pytest.raises(CubeError):
            main_lhs(mkset(2, 2, "00"), 3, 1)

    def test_rhs_guard(self, mkset):
        A = mkset(2, 4, "0000 0001 0010 0100 1000 1111 0011 0101")
        with pytest.raises(SizeGuardError):
            main_rhs(A, 2, 2, guard=10)

    def test_rhs_guard_checked_before_either_route_builds(self, monkeypatch):
        rng = random.Random(4)
        A = PointSet.from_coords(
            CubeParams(2, 10), {tuple(rng.randrange(2) for _ in range(10)) for _ in range(30)}
        )
        m = len(A)
        assert identities._rhs_sliced_pays(A.params, m, 4)
        built = []
        for name in ("_contained_tables", "_subset_rank_histogram_walked"):
            monkeypatch.setattr(identities, name, lambda *args, name=name: built.append(name))
        with pytest.raises(SizeGuardError, match=f"about {binom(m, 4)} elementary operations"):
            main_rhs(A, 4, 4, guard=binom(m, 4) - 1)
        assert built == []
        monkeypatch.undo()
        want = sum(binom(10 - r, 4 - r) for r in map(identities.rank_rows, combinations(A.rows, 4)))
        assert main_rhs(A, 4, 4, guard=binom(m, 4)) == want


class TestVerifyMain:
    def test_even_weight_example(self, mkset):
        rep = verify_main(mkset(2, 3, "000 011 101 110"), 2, 2)
        assert (rep.lhs, rep.rhs, rep.equal) == (6, 6, True)

    def test_singleton_is_binomial(self, mkset):
        for n, k in [(3, 1), (4, 2), (5, 0), (5, 5)]:
            A = mkset(2, n, "0" * n)
            rep = verify_main(A, k, 1)
            assert rep.lhs == rep.rhs == binom(n, k)

    def test_full_square_pairs(self, mkset):
        # hand count: 4 edges each holding one of the 4 side pairs;
        # the two diagonal pairs fit in no edge
        rep = verify_main(mkset(2, 2, "00 01 10 11"), 1, 2)
        assert rep.lhs == rep.rhs == 4

    def test_report_params_and_name(self, mkset):
        rep = verify_main(mkset(3, 2, "00 12"), 1, 1)
        assert rep.identity == "main"
        assert rep.params == {"q": 3, "n": 2, "k": 1, "s": 1, "m": 2}

    def test_terms_sum_to_sides(self, mkset):
        A = mkset(2, 4, "0000 0011 0101 1001 1110")
        rep = verify_main(A, 2, 2, include_terms=True)
        assert sum(v for _, v in rep.lhs_terms) == rep.lhs
        assert sum(v for _, v in rep.rhs_terms) == rep.rhs
        assert len(rep.rhs_terms) == binom(5, 2)

    @pytest.mark.parametrize("slack", [0, -1], ids=["exact", "one-under"])
    def test_breakdown_guard_counts_row_reads_first(self, mkset, monkeypatch, slack):
        # binom(5, 2) subsets of 2 rows of 4 coordinates: 80 reads, more than
        # the distribution's binom(4, 2)·5 projections or the walk's 10 subsets.
        A = mkset(2, 4, "0000 0011 0101 1001 1110")
        guard = binom(5, 2) * 2 * 4 + slack
        calls = []
        original = identities._lhs_terms
        monkeypatch.setattr(identities, "_lhs_terms", lambda *a: calls.append(a) or original(*a))
        if slack == 0:
            assert verify_main(A, 2, 2, guard, include_terms=True).equal
            return
        with pytest.raises(SizeGuardError, match="about 80 elementary operations"):
            verify_main(A, 2, 2, guard, include_terms=True)
        assert calls == []
        assert verify_main(A, 2, 2, guard).equal  # without terms the walk's estimate holds

    def test_terms_computed_once(self, mkset, monkeypatch):
        calls = []
        original = identities._lhs_terms

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(identities, "_lhs_terms", counted)
        verify_main(mkset(2, 3, "000 011 101"), 2, 2, include_terms=True)
        assert len(calls) == 1

    def test_random_property(self):
        rng = random.Random(90210)
        for _ in range(40):
            A = random_set(rng)
            n, q = A.params.n, A.params.q
            k = rng.randint(0, n)
            cap = intersection_cap(A, k)
            s = rng.randint(1, min(3, cap))
            rep = verify_main(A, k, s)
            assert rep.equal, (A, k, s)

    def test_zero_dimension(self):
        A = PointSet.from_coords(CubeParams(2, 0), [()])
        rep = verify_main(A, 0, 1)
        assert rep.equal and rep.lhs == 1


class TestCorollary1:
    def test_diagonal_pair(self, mkset):
        rep = corollary_s1(mkset(2, 2, "00 11"), 1)
        assert rep.lhs == rep.rhs == 4

    def test_q3_line(self, mkset):
        rep = corollary_s1(mkset(3, 2, "00 01 02"), 1)
        assert rep.lhs == rep.rhs == 6

    def test_every_q_up_to_five(self):
        rng = random.Random(11)
        for q in (2, 3, 4, 5):
            for _ in range(10):
                A = random_set(rng, qs=(q,), max_n=5, max_m=8)
                k = rng.randint(0, A.params.n)
                rep = corollary_s1(A, k)
                assert rep.equal
                assert rep.rhs == len(A) * binom(A.params.n, k)

    def test_identity_name(self, mkset):
        assert corollary_s1(mkset(2, 1, "0"), 1).identity == "corollary1"


class TestCorollary2:
    def test_even_weight_n4(self, mkset):
        rep = corollary_s2(mkset(2, 4, "0000 0011 0101 0110 1001 1010 1100 1111"), 2)
        assert rep.lhs == rep.rhs == 24

    def test_q3_full_line(self, mkset):
        rep = corollary_s2(mkset(3, 1, "0 1 2"), 1)
        assert rep.lhs == rep.rhs == 3

    def test_pair_reduces_to_distance_binomial(self, mkset):
        A = mkset(2, 4, "0000 0110")
        for k in range(5):
            rep = corollary_s2(A, k)
            assert rep.equal
            assert rep.rhs == binom(4 - 2, k - 2)

    def test_k_zero_trivial(self, mkset):
        rep = corollary_s2(mkset(2, 3, "000 011 101"), 0)
        assert rep.lhs == rep.rhs == 0

    def test_needs_two_points(self, mkset):
        with pytest.raises(CubeError):
            corollary_s2(mkset(2, 2, "00"), 1)

    def test_agrees_with_main_rhs(self):
        rng = random.Random(313)
        for _ in range(30):
            A = random_set(rng, max_m=9)
            if len(A) < 2:
                continue
            k = rng.randint(0, A.params.n)
            rep = corollary_s2(A, k)
            assert rep.equal
            if intersection_cap(A, k) >= 2:
                assert rep.rhs == main_rhs(A, k, 2)

    def test_terms(self, mkset):
        rep = corollary_s2(mkset(2, 3, "000 011 110"), 2, include_terms=True)
        assert sum(v for _, v in rep.rhs_terms) == rep.rhs
        assert len(rep.rhs_terms) == 3

    def test_guard_checked_after_a_cached_histogram(self, mkset):
        A = mkset(2, 3, "000 011 101 110")
        corollary_s2(A, 2, guard=10**6)
        with pytest.raises(SizeGuardError):
            corollary_s2(A, 2, guard=binom(4, 2) - 1)


class TestCorollary3:
    def test_even_weight_n3_top(self, mkset):
        rep = corollary_s3(mkset(2, 3, "000 011 101 110"), 3)
        assert rep.lhs == rep.rhs == 4

    def test_three_points(self, mkset):
        A = mkset(2, 3, "000 011 101")
        for k in range(4):
            rep = corollary_s3(A, k)
            assert rep.equal
            # the triple has half-distance-sum 3
            assert rep.rhs == binom(3 - 3, k - 3)

    def test_binary_only(self, mkset):
        with pytest.raises(CubeError):
            corollary_s3(mkset(3, 2, "00 11 22"), 1)

    def test_needs_three_points(self, mkset):
        with pytest.raises(CubeError):
            corollary_s3(mkset(2, 2, "00 11"), 1)

    def test_guard_checked_after_a_cached_histogram(self, mkset):
        A = mkset(2, 3, "000 011 101 110")
        corollary_s3(A, 2, guard=10**6)
        with pytest.raises(SizeGuardError):
            corollary_s3(A, 2, guard=binom(4, 3) - 1)

    @pytest.mark.parametrize("k", [0, 3])
    def test_pair_guard_checked_after_a_cached_histogram(self, mkset, k):
        # The 4 triples and the distribution's binom(3, k)·4 projections fit
        # a guard of 5; distance_sum's 6 pairs do not, cached or not.
        A = mkset(2, 3, "000 011 101 110")
        assert corollary_s3(A, k).equal
        with pytest.raises(SizeGuardError, match="about 6 elementary operations, guard is 5"):
            corollary_s3(A, k, guard=5)
        assert corollary_s3(A, k, guard=6).equal

    def test_agrees_with_main_rhs(self):
        rng = random.Random(414)
        for _ in range(25):
            A = random_set(rng, qs=(2,), max_n=7, max_m=8)
            if len(A) < 3:
                continue
            k = rng.randint(0, A.params.n)
            rep = corollary_s3(A, k)
            assert rep.equal
            if intersection_cap(A, k) >= 3:
                assert rep.rhs == main_rhs(A, k, 3)


class TestIdentityReport:
    def test_equal_is_derived(self):
        rep = IdentityReport.of("x", {}, 3, 3)
        assert rep.equal and rep.note is None
        rep = IdentityReport.of("x", {}, 3, 4)
        assert not rep.equal and rep.note is None

    def test_proven_mismatch_is_flagged(self):
        rep = IdentityReport.of("x", {}, 3, 4, proven=True)
        assert not rep.equal
        assert "defect" in rep.note

    def test_intersection_cap(self, mkset):
        A = mkset(2, 3, "000 011 101")
        assert intersection_cap(A, 0) == 1
        assert intersection_cap(A, 1) == 2
        assert intersection_cap(A, 2) == 3


FAMILY_IDENTITIES = ("main", "corollary1", "corollary2", "corollary3", "lemma_face_count")


def per_point_report(name, A, k, s, guard):
    """(params, lhs, rhs) of one sweep point from its per-point function."""
    if name == "main":
        rep = verify_main(A, k, s, guard)
    elif name == "lemma_face_count":
        q, n, m = A.params.q, A.params.n, len(A)
        check_guard_power(q, n - k, guard, binom(n, k) * m)
        lhs = distribution(A, k, guard)[m]
        rhs = faces_containing_count(A, k)
        return {"q": q, "n": n, "k": k, "m": m}, lhs, rhs
    else:
        rep = {"corollary1": corollary_s1, "corollary2": corollary_s2, "corollary3": corollary_s3}[name](A, k, guard)
    return rep.params, rep.lhs, rep.rhs


def per_point_outcomes(name, A, ks, s_range, guard, labels):
    """Each sweep point's params and outcome from the per-point functions,
    one point at a time in the sweep's grid order: the oracle of
    family_points. A refused point's outcome is its error text; a CubeError
    raised ends the list."""
    q, n, m = A.params.q, A.params.n, len(A)
    out = []
    try:
        for k in ks:
            if name == "main":
                lo, hi = s_range
                points = [{"k": k, "s": s} for s in range(max(lo, 1), min(hi, intersection_cap(A, k)) + 1)]
            elif name == "corollary2":
                points = [{"k": k}] if m >= 2 else []
            elif name == "corollary3":
                points = [{"k": k}] if q == 2 and m >= 3 else []
            else:
                points = [{"k": k}]
            for point in points:
                s = point.get("s", {"corollary1": 1, "corollary2": 2, "corollary3": 3}.get(name))
                try:
                    params, lhs, rhs = per_point_report(name, A, k, s, guard)
                except SizeGuardError as exc:
                    out.append(({"q": q, "n": n, **labels, **point}, str(exc)))
                else:
                    out.append(({**params, **labels}, (lhs, rhs)))
    except CubeError as exc:
        out.append((type(exc).__name__, str(exc)))
    return out


def swept_outcomes(points):
    """The same list from the sweep's cell."""
    out = []
    try:
        for params, outcome in points:
            out.append((params, str(outcome) if isinstance(outcome, SizeGuardError) else outcome))
    except CubeError as exc:
        out.append((type(exc).__name__, str(exc)))
    return out


@st.composite
def family_configs(draw):
    """A small sweep config of one family identity, on a random, face,
    even-weight or file family (perhaps an empty file), with k and s
    sub-ranges and a default or small guard."""
    kind = draw(st.sampled_from(["random", "face", "even_weight", "file", "empty_file"]))
    n_lo = draw(st.integers(0, 5))
    n_hi = draw(st.integers(n_lo, 5))
    if kind == "file":
        n_lo = n_hi = 2
    family = {"random": {"kind": "random", "m": draw(st.integers(1, 9))},
              "file": {"kind": "file", "path": "points.txt"},
              "empty_file": {"kind": "file", "path": "empty.txt"}}.get(kind, {"kind": kind})
    k_range = draw(st.one_of(st.just("all"), st.lists(st.integers(0, 6), min_size=2, max_size=2).map(sorted)))
    config = {
        "identities": [draw(st.sampled_from(FAMILY_IDENTITIES))],
        "q": draw(st.lists(st.integers(2, 3), min_size=1, max_size=2, unique=True)),
        "n": [n_lo, n_hi],
        "k": k_range,
        "s": draw(st.lists(st.integers(0, 5), min_size=2, max_size=2).map(sorted)),
        "seeds": [0, 1],
        "family": family,
    }
    guard = draw(st.sampled_from([None, 4, 12, 40, 300]))
    if guard is not None:
        config["guard"] = guard
    return config


class TestFamilyPoints:
    @given(config=family_configs())
    @settings(max_examples=150, deadline=None)
    def test_one_pass_cell_matches_the_per_point_functions(self, config):
        # Every point of the sweep's one-pass cell, its refusals and the
        # CubeError that ends a sweep included, is the per-point function's.
        # The oracle runs on an equal set built apart, which keeps its own
        # per-set results.
        (name,) = config["identities"]
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                Path("points.txt").write_text("00\n01\n11\n")
                Path("empty.txt").write_text("")
                Path("cfg.json").write_text(json.dumps(config))
                cfg = sweep.load_sweep_config("cfg.json")
                guard = cfg.guard or DEFAULT_GUARD
                cells = [(q, n) for q in cfg.qs for n in range(cfg.n_range[0], cfg.n_range[1] + 1)]
                try:
                    instances = {cell: list(sweep._family_instances(cfg, *cell, guard)) for cell in cells}
                except SizeGuardError:
                    return  # a family larger than the guard is refused before any row
            finally:
                os.chdir(cwd)
        cell = sweep.SWEEP_IDENTITIES[name].cell
        for (q, n), found in instances.items():
            ks = range(n + 1) if cfg.k_range is None else range(max(cfg.k_range[0], 0), min(cfg.k_range[1], n) + 1)
            for instance in found:
                A = instance["A"]
                labels = {key: value for key, value in instance.items() if key != "A"}
                got = swept_outcomes(cell(cfg, q, n, instance, guard))
                want = per_point_outcomes(name, PointSet(A.params, A.rows), ks, cfg.s_range, guard, labels)
                assert got == want
