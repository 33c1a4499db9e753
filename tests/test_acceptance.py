"""Acceptance suite: eight end-to-end checks over the whole engine.

Each check prints its own pass/fail line and records a verdict that the
terminal summary hook in conftest.py replays after the run. All comparisons
are exact integer equalities; there are no tolerances anywhere.
"""

import functools
import json
import random
import time
from itertools import combinations, product

from qcube.cli import main as cli_main
from qcube.core import CubeParams, PointSet, binom, hamming
from qcube.faces import (
    distribution,
    distribution_bruteforce,
    faces_containing_bruteforce,
    faces_containing_count,
)
from qcube.families import (
    check_chu_vandermonde_generalized,
    check_evenweight_identity,
    check_vandermonde,
    face_distribution_closed,
    face_spec,
    gen_even_weight,
    gen_face_subset,
    gen_random_subset,
)
from qcube.identities import corollary_s2, intersection_cap, verify_main
from qcube.rank import (
    distance_sum,
    isometric,
    random_isometry_image,
    rank,
    rank_bounds,
    rank_closed_small,
)

RESULTS: list[tuple[int, str, str, str]] = []


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                RESULTS.append((num, desc, "FAIL", str(exc)[:160]))
                print(f"criterion {num} [FAIL] {desc}")
                raise
            elapsed = time.perf_counter() - start
            note = f"{detail}, {elapsed:.1f}s" if detail else f"{elapsed:.1f}s"
            RESULTS.append((num, desc, "PASS", note))
            print(f"criterion {num} [PASS] {desc} ({note})")

        return wrapper

    return decorate


def exhaustive_subsets(params, max_size):
    cube = list(product(range(params.q), repeat=params.n))
    for m in range(1, min(max_size, len(cube)) + 1):
        for combo in combinations(cube, m):
            yield PointSet.from_coords(params, combo)


@criterion(1, "face-count identity holds on 200 random subsets")
def test_criterion_1_main_identity_random_suite():
    start = time.perf_counter()
    rng = random.Random(0xC1)
    checks = 0
    for _ in range(200):
        q = rng.choice((2, 3, 4))
        n = rng.randint(1, 10)
        params = CubeParams(q, n)
        m = rng.randint(1, min(12, params.volume))
        A = gen_random_subset(params, m, rng.randrange(2**30))
        for k in range(n + 1):
            cap = intersection_cap(A, k)
            for s in (1, 2, 3):
                if s > cap:
                    break
                rep = verify_main(A, k, s)
                assert rep.equal, (q, n, m, k, s, rep.lhs, rep.rhs)
                checks += 1
    assert time.perf_counter() - start < 120.0
    return f"200 subsets, {checks} (k, s) checks"


@criterion(2, "containing-face count agrees with face-by-face scan")
def test_criterion_2_containment_count_dual_route():
    checks = 0
    for q, n_max in ((2, 5), (3, 3)):
        for n in range(n_max + 1):
            params = CubeParams(q, n)
            for A in exhaustive_subsets(params, 4):
                for k in range(n + 1):
                    fast = faces_containing_count(A, k)
                    slow = faces_containing_bruteforce(A, k)
                    assert fast == slow, (q, n, A.coord_rows(), k, fast, slow)
                    checks += 1
    rng = random.Random(0xC2)
    for _ in range(100):
        q = rng.choice((2, 3))
        n = rng.randint(6, 8)
        params = CubeParams(q, n)
        m = rng.randint(1, 4)
        A = gen_random_subset(params, m, rng.randrange(2**30))
        for k in range(n + 1):
            assert faces_containing_count(A, k) == faces_containing_bruteforce(A, k)
            checks += 1
    return f"{checks} subset/k pairs, exhaustive plus 100 random"


@criterion(3, "rank bounds bracket the rank; tiny subsets collapse exactly")
def test_criterion_3_rank_bounds():
    rng = random.Random(0xC3)
    for _ in range(500):
        n = rng.randint(1, 16)
        params = CubeParams(2, n)
        m = rng.randint(1, min(20, params.volume))
        A = gen_random_subset(params, m, rng.randrange(2**30))
        b = rank_bounds(A)
        r = rank(A)
        assert b.lower <= r <= b.upper, (n, m, b, r)
        assert b.exact_rank == r
    collapsed = 0
    for n in range(0, 7):
        params = CubeParams(2, n)
        for A in exhaustive_subsets(params, 3):
            b = rank_bounds(A)
            r = rank(A)
            assert b.lower == b.upper == r, (n, A.coord_rows(), b, r)
            assert rank_closed_small(A) == r
            collapsed += 1
    return f"500 random subsets, {collapsed} exhaustive collapse cases"


@criterion(4, "closed-form face distribution matches brute force on faces")
def test_criterion_4_closed_face_distribution():
    checks = 0
    for q in (2, 3):
        for n in range(0, 7):
            params = CubeParams(q, n)
            for nu in range(n + 1):
                A = gen_face_subset(params, face_spec(params, nu))
                for k in range(n + 1):
                    closed = face_distribution_closed(params, nu, k)
                    assert closed == distribution(A, k), (q, n, nu, k)
                    assert closed == distribution_bruteforce(A, k), (q, n, nu, k)
                    conserved = sum(closed.counts.values())
                    assert conserved == binom(n, k) * q ** (n - k)
                    checks += 1
    # the single-point intersections of an edge come from the 0-size block
    assert face_distribution_closed(CubeParams(2, 2), 1, 1)[1] == 2
    return f"{checks} (q, n, nu, k) cells"


@criterion(5, "binomial convolution identities hold on a dense grid")
def test_criterion_5_convolution_identities():
    plain = 0
    for n in range(0, 15):
        params = CubeParams(2, n)
        for nu in range(n + 1):
            for k in range(n + 1):
                rep = check_vandermonde(params, nu, k)
                assert rep.equal and rep.rhs == binom(n, k), (n, nu, k)
                plain += 1
    weighted = 0
    for q in (2, 3, 4):
        for n in range(1, 15):
            params = CubeParams(q, n)
            for nu in range(1, n + 1):
                for k in range(n + 1):
                    rep = check_chu_vandermonde_generalized(params, nu, k)
                    assert rep.equal, (q, n, nu, k)
                    weighted += 1
    return f"{plain} plain, {weighted} weighted checks"


@criterion(6, "even-weight identity: printed form fails, corrected form holds")
def test_criterion_6_evenweight_erratum():
    rep = check_evenweight_identity(4, 2, "printed")
    assert rep.lhs == 48 and rep.rhs == 6 and not rep.equal
    for n in range(1, 17):
        for k in range(1, n + 1):
            rep = check_evenweight_identity(n, k, "corrected")
            assert rep.equal, (n, k)
    pair_checks = 0
    for n in range(2, 11):
        A = gen_even_weight(n)
        for k in range(n + 1):
            rep = corollary_s2(A, k)
            assert rep.equal, (n, k)
            if n <= 8 and k >= 1:
                brute = distribution_bruteforce(A, k)
                lhs_brute = sum(binom(e, 2) * c for e, c in brute.items())
                assert lhs_brute == rep.lhs, (n, k)
            pair_checks += 1
    return f"136 corrected cells, {pair_checks} pair-identity cells"


@criterion(7, "rank and distance sum are isometry invariants")
def test_criterion_7_isometry_invariance():
    rng = random.Random(0xC7)
    for _ in range(100):
        q = rng.choice((2, 3, 4))
        n = rng.randint(1, 8)
        params = CubeParams(q, n)
        m = rng.randint(1, min(8, params.volume))
        A = gen_random_subset(params, m, rng.randrange(2**30))
        B = random_isometry_image(A, rng.randrange(2**30))
        assert rank(B) == rank(A)
        pa = distance_sum(A)
        pb = distance_sum(B)
        assert pb.total == pa.total
        assert sorted(pb.pairwise.values()) == sorted(pa.pairwise.values())
        mapping = isometric(A, B)
        assert mapping is not None
        assert set(mapping.keys()) == set(A.points)
        assert set(mapping.values()) == set(B.points)
        for a1, a2 in combinations(A, 2):
            assert hamming(a1, a2) == hamming(mapping[a1], mapping[a2])
    return "100 subset/image pairs"


@criterion(8, "sweep output is byte-identical across runs and --jobs values")
def test_criterion_8_sweep_determinism(tmp_path):
    config = {
        "identities": [
            "main",
            "corollary1",
            "corollary2",
            "corollary3",
            "vandermonde",
            "chu_vandermonde_generalized",
            "evenweight_printed",
            "evenweight_corrected",
            "bounds",
            "lemma_face_count",
        ],
        "q": [2, 3],
        "n": [1, 4],
        "s": [1, 3],
        "seeds": [0, 1],
        "family": {"kind": "random", "m": 4},
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(config))
    outs = [tmp_path / name for name in ("r1.jsonl", "r2.jsonl", "r3.jsonl")]
    assert cli_main(["sweep", str(cfg), "--output", str(outs[0])]) == 0
    assert cli_main(["sweep", str(cfg), "--output", str(outs[1])]) == 0
    assert cli_main(["sweep", str(cfg), "--output", str(outs[2]), "--jobs", "2"]) == 0
    first = outs[0].read_bytes()
    assert first == outs[1].read_bytes()
    assert first == outs[2].read_bytes()
    rows = first.decode().strip().splitlines()
    summary = json.loads(rows[-1])["summary"]
    assert summary["fail"] == 0 and summary["error"] == 0
    assert summary["total"] == len(rows) - 1
    return f"{summary['total']} rows, {summary['known_erratum']} known-erratum rows"
