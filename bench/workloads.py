"""Seeded inputs, qcube CLI commands and output checks for the benchmark.

Each workload is a list of commands run in order, one process each. Every
check is computed from the generated inputs by this file's own code, never by
calling qcube, so a wrong answer from the program counts as a failed
operation. An operation is one sweep row or one non-sweep command.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = ("sweep-random", "point-files", "sweep-closed")

# Row counts and statuses the committed sweep configs must produce. They do
# not depend on the workload seed: the random family always has m = 24.
SWEEP_EXPECTED = {
    "sweep-random": {"total": 3088, "pass": 3088, "fail": 0, "known_erratum": 0, "error": 0},
    "sweep-closed": {"total": 141983, "pass": 141203, "fail": 0, "known_erratum": 780, "error": 0},
}


@dataclass(frozen=True)
class Outcome:
    """What the checks made of one command's exit code and stdout."""

    failed: int
    rows: int = 0
    guard_refusals: int = 0
    problem: Optional[str] = None


@dataclass(frozen=True)
class Command:
    """One qcube invocation: its arguments after `qcube`, the operations it
    stands for, and the check of its (exit code, stdout)."""

    label: str
    argv: tuple[str, ...]
    ops: int
    check: Callable[[int, bytes], Outcome]


def _digits(index: int, q: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        index, r = divmod(index, q)
        out.append(r)
    return tuple(reversed(out))


def write_points(path: Path, rng: random.Random, q: int, n: int, m: int, dups: int = 3) -> list[tuple[int, ...]]:
    """Write m distinct random vectors of E_q^n (q <= 10, packed digits) in
    random order, with a '#' comment line and `dups` repeated lines. Returns
    the distinct rows, which is what qcube must read back."""
    rows = [_digits(i, q, n) for i in rng.sample(range(q**n), m)]
    lines = ["".join(map(str, r)) for r in rows]
    lines += rng.sample(lines, dups)
    rng.shuffle(lines)
    path.write_text(f"# {m} points of E_{q}^{n} and {dups} duplicate lines\n" + "\n".join(lines) + "\n")
    return rows


def _failed(ops: int, problem: str, refusals: int = 0) -> Outcome:
    return Outcome(failed=ops, guard_refusals=refusals, problem=problem)


def _load_json(out: bytes) -> dict:
    payload = json.loads(out)
    if not isinstance(payload, dict):
        raise ValueError("stdout is not a JSON object")
    return payload


def rank_check(rows: list[tuple[int, ...]], q: int, n: int) -> Callable[[int, bytes], Outcome]:
    """`rank --json`: the rank is the number of non-constant columns, and the
    distance sum is sum over columns j of (m^2 - sum_v c_v^2) / 2, where c_v
    counts the rows with value v in column j. For q = 2 the printed bounds
    must bracket the rank."""
    m = len(rows)
    columns = [Counter(col) for col in zip(*rows)]
    want_rank = sum(1 for c in columns if len(c) > 1)
    want_dsum = sum((m * m - sum(v * v for v in c.values())) // 2 for c in columns)

    def check(rc: int, out: bytes) -> Outcome:
        if rc != 0:
            return _failed(1, f"exit {rc}", refusals=int(rc == 3))
        try:
            got = _load_json(out)
            ok = (got["q"], got["n"], got["m"], got["rank"], got["distance_sum"]) == (
                q, n, m, want_rank, str(want_dsum))
            if q == 2:
                ok = ok and Fraction(got["bounds"]["lower"]) <= want_rank <= Fraction(got["bounds"]["upper"])
        except (ValueError, KeyError, TypeError) as exc:
            return _failed(1, f"unreadable output: {exc}")
        return Outcome(0) if ok else _failed(1, "rank, distance sum or bounds wrong")

    return check


def distribution_check(m: int, q: int, n: int, k: int) -> Callable[[int, bytes], Outcome]:
    """`distribution --json`: total_faces = C(n,k) q^(n-k), the counts add up
    to it, and sum over e of e * count = m * C(n,k) (each point lies in
    C(n,k) k-faces)."""
    faces = comb(n, k) * q ** (n - k)

    def check(rc: int, out: bytes) -> Outcome:
        if rc != 0:
            return _failed(1, f"exit {rc}", refusals=int(rc == 3))
        try:
            got = _load_json(out)
            counts = {int(e): int(c) for e, c in got["counts"].items()}
            ok = (
                (got["q"], got["n"], got["k"], got["m"]) == (q, n, k, m)
                and int(got["total_faces"]) == faces == sum(counts.values())
                and sum(e * c for e, c in counts.items()) == m * comb(n, k)
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return _failed(1, f"unreadable output: {exc}")
        return Outcome(0) if ok else _failed(1, "face counts do not add up")

    return check


def _row_ok(row: dict) -> bool:
    """A sweep row agrees with itself: the status follows from lhs == rhs, or
    for rank bounds from lower <= rank <= upper."""
    status = row["status"]
    if row["identity"] == "bounds":
        holds = Fraction(row["lower"]) <= int(row["rank"]) <= Fraction(row["upper"])
        return row["passed"] == holds and status == ("pass" if holds else "fail")
    if status == "error":
        return True
    equal = row["lhs"] == row["rhs"]
    if row["equal"] != equal:
        return False
    if equal:
        return status == "pass"
    return status == ("known_erratum" if row["identity"] == "evenweight_printed" else "fail")


def sweep_check(expected: dict[str, int]) -> Callable[[int, bytes], Outcome]:
    """`sweep`: every row checks out, the summary line tallies the rows, the
    tallies equal `expected`, and the exit code follows from the tallies."""
    total = expected["total"]

    def check(rc: int, out: bytes) -> Outcome:
        try:
            lines = out.decode().splitlines()
            rows = [json.loads(line) for line in lines[:-1]]
            summary = json.loads(lines[-1])["summary"]
            tally = Counter(row["status"] for row in rows)
            bad = sum(1 for row in rows if row["status"] in ("fail", "error") or not _row_ok(row))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return _failed(total, f"unreadable output: {exc}")
        refusals = tally["error"]
        want_rc = 1 if tally["fail"] else 3 if tally["error"] else 0
        if summary != {"total": len(rows), **{s: tally[s] for s in ("pass", "fail", "known_erratum", "error")}}:
            return _failed(total, "summary does not tally the rows", refusals)
        if summary != expected:
            return _failed(total, f"summary {summary} differs from {expected}", refusals)
        if rc != want_rc:
            return _failed(total, f"exit {rc}, expected {want_rc}", refusals)
        return Outcome(bad, rows=len(rows), guard_refusals=refusals, problem="bad rows" if bad else None)

    return check


def sweep_command(label: str, config: dict, expected: dict[str, int], work: Path) -> Command:
    path = work / f"{label}.json"
    path.write_text(json.dumps(config))
    return Command(label, ("sweep", str(path)), expected["total"], sweep_check(expected))


def point_files(rng: random.Random, work: Path) -> list[Command]:
    cmds = []
    big = work / "q2-n20-m60000.txt"
    rows = write_points(big, rng, 2, 20, 60_000)
    for k in (20, 19):
        cmds.append(Command(f"distribution-m60000-k{k}", ("distribution", str(big), "-k", str(k), "--json"),
                            1, distribution_check(len(rows), 2, 20, k)))
    mid = work / "q2-n13-m800.txt"
    rows = write_points(mid, rng, 2, 13, 800)
    for k in range(14):
        cmds.append(Command(f"distribution-m800-k{k}", ("distribution", str(mid), "-k", str(k), "--json"),
                            1, distribution_check(len(rows), 2, 13, k)))
    wide = work / "q2-n24-m1500.txt"
    rows = write_points(wide, rng, 2, 24, 1500)
    cmds.append(Command("rank-m1500", ("rank", str(wide), "--json"), 1, rank_check(rows, 2, 24)))
    ternary = work / "q3-n12-m1000.txt"
    rows = write_points(ternary, rng, 3, 12, 1000)
    cmds.append(Command("rank-q3-m1000", ("rank", str(ternary), "--q", "3", "--json"), 1, rank_check(rows, 3, 12)))
    return cmds


def build(workload: str, seed: int, work: Path) -> list[Command]:
    """The commands of one workload; inputs are written under `work` and
    depend only on the workload name and the seed."""
    if workload == "sweep-random":
        config = json.loads((BENCH_DIR / "sweep_random.json").read_text())
        config["seeds"] = [4 * seed + i for i in range(4)]
        return [sweep_command(workload, config, SWEEP_EXPECTED[workload], work)]
    if workload == "point-files":
        return point_files(random.Random(f"{workload}:{seed}"), work)
    if workload == "sweep-closed":
        # Closed forms take no random input: the seed changes nothing here.
        config = json.loads((BENCH_DIR / "sweep_closed.json").read_text())
        return [sweep_command(workload, config, SWEEP_EXPECTED[workload], work)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
