"""Tests of the benchmark itself: seeded inputs, failure accounting, and the
removal of every probe after a traced run.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import sys
import time

import pytest

import probes
import run
import workloads

TINY_SWEEP = {
    "identities": ["main", "corollary1", "lemma_face_count", "bounds", "evenweight_printed"],
    "q": [2], "n": [3, 4], "s": [1, 2], "family": {"kind": "random", "m": 4}, "seeds": [0],
}
TINY_EXPECTED = {"total": 43, "pass": 38, "fail": 0, "known_erratum": 5, "error": 0}


def tiny_commands(work):
    rows = workloads.write_points(work / "small.txt", random.Random(7), 2, 6, 20)
    return [
        workloads.sweep_command("tiny-sweep", TINY_SWEEP, TINY_EXPECTED, work),
        workloads.Command("distribution", ("distribution", str(work / "small.txt"), "-k", "3", "--json"),
                          1, workloads.distribution_check(len(rows), 2, 6, 3)),
        workloads.Command("rank", ("rank", str(work / "small.txt"), "--json"), 1, workloads.rank_check(rows, 2, 6)),
    ]


@pytest.fixture
def runner(tmp_path):
    with run.Launcher(run.child_env()) as launcher:
        yield run.Runner("tiny", tiny_commands(tmp_path), tmp_path, time.monotonic() + 60, launcher)


def tamper(out: bytes, key: str, change) -> bytes:
    payload = json.loads(out)
    payload[key] = change(payload[key])
    return json.dumps(payload).encode()


def snapshot(work):
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed(tmp_path, workload):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    built = [workloads.build(workload, seed, d) for seed, d in zip((5, 5, 6), dirs)]
    assert snapshot(dirs[0]) == snapshot(dirs[1])
    assert [c.label for c in built[0]] == [c.label for c in built[1]]
    if workload != "sweep-closed":
        assert snapshot(dirs[0]) != snapshot(dirs[2])


def test_launcher_measures_the_child_alone(tmp_path):
    ballast = bytearray(64 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # this process now holds 64 MiB
    busy = "import time\nt = time.time()\nwhile time.time() - t < 0.6: pass"
    with run.Launcher(run.child_env()) as launcher:
        reply = launcher.run([sys.executable, "-c", busy], tmp_path / "out", tmp_path / "err", 30)
    assert reply["rc"] == 0 and reply["maxrss_kib"] < 48 << 10
    assert len(reply["refs"]) >= 2 and 0.4 < reply["wall"] < 5


def test_correct_outputs_count_no_failure(runner):
    p = runner.run_pass()
    assert (p.ops, p.failed, p.rows, p.problems) == (45, 0, 43, [])
    assert p.rss_kib > 0 and len(p.refs) >= len(runner.cmds) and p.scaled > 0


def test_tampered_output_or_failed_exit_raises_error_rate(runner, tmp_path):
    assert runner.run_pass().failed == 0
    sweep, dist, rank = runner.cmds
    good = {cmd.label: runner.launch(["-m", "qcube", *cmd.argv])[1] for cmd in runner.cmds}

    # A changed byte breaks the pinned hash even where the content still parses.
    assert runner.evaluate(rank, 0, good["rank"].replace(b"\"m\":20", b"\"m\": 20")).failed == 1
    # Without a pin, the benchmark's own checks catch a wrong number.
    assert rank.check(0, tamper(good["rank"], "distance_sum", lambda v: str(int(v) + 2))).failed == 1
    assert rank.check(0, tamper(good["rank"], "rank", lambda v: v - 1)).failed == 1
    assert dist.check(0, tamper(good["distribution"], "counts", lambda c: {**c, "0": str(int(c["0"]) + 1)})).failed == 1
    row = json.loads(good["tiny-sweep"].splitlines()[0])
    row["lhs"] = str(int(row["lhs"]) + 1)
    lines = good["tiny-sweep"].splitlines()
    lines[0] = json.dumps(row).encode()
    assert sweep.check(0, b"\n".join(lines) + b"\n").failed >= 1
    # A non-zero exit fails the command whatever it printed.
    assert dist.check(2, good["distribution"]).failed == 1
    assert sweep.check(1, good["tiny-sweep"]).failed == TINY_EXPECTED["total"]

    bad = workloads.Command("bad-k", ("distribution", str(tmp_path / "small.txt"), "-k", "9", "--json"),
                            1, workloads.distribution_check(20, 2, 6, 9))
    runner.cmds.append(bad)
    p = runner.run_pass()
    assert p.failed == 1 and p.failed / p.ops > 0


def test_traced_run_restores_every_original(runner):
    untraced = runner.run_pass()
    cli = probes.import_qcube(run.ROOT)
    import qcube.faces
    import qcube.identities

    def bindings():
        names = {(m.__name__, k): v for m in probes._qcube_modules() for k, v in vars(m).items()}
        return {**names, "PointSet.coord_rows": qcube.core.PointSet.coord_rows}

    before = bindings()
    with probes.Probes() as probe:
        assert qcube.identities.distribution is qcube.faces.distribution
        assert getattr(qcube.faces.distribution, "_bench_probe", False)
        assert probes.leftover_probes()
        traced = runner.run_traced_pass(cli, probe)
    assert probes.leftover_probes() == []
    after = bindings()
    assert after.keys() == before.keys() and all(after[k] is v for k, v in before.items())
    assert untraced.failed == traced.failed == 0
    layers = traced.layers
    assert layers["cli.rows"] == TINY_EXPECTED["total"]
    assert layers["faces.distribution.calls"] > 0 and layers["rank.rank_rows.calls"] > 0
    assert 0 < layers["identities.main_rhs.hit_ratio"] < 1


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"] and [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = [*probes.Probes().metrics(0, 0), "trace_overhead"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.unit_of(n) for n in layer_names}
