"""Benchmark of the qcube command line, end to end and layer by layer.

    python3 bench/run.py --workload sweep-random --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source checkout; qcube is taken from src/ next to
this directory. Workloads: sweep-random, point-files, sweep-closed, or all.

With --trace 0 each pass runs the workload's commands as a user does: one
`python -m qcube` process per command, in order, one client in a closed loop,
default --jobs. Passes repeat for about --seconds. Reported: the median pass
time (wall_s), the median rate of correct operations (ops_per_s), the largest
max-RSS of any single child, the median time of a process that only imports
qcube.cli (setup_s), and the share of operations that succeeded.

Times are in seconds at a fixed reference speed: launcher.py times a fixed
chunk of Python work on the commands' CPU every quarter second and divides
each slice of a command by it, and REF_SECONDS turns that back into seconds.
The CPU speed of a shared host drifts too much for raw wall time to compare
two runs; the unscaled times are printed next to the scaled ones.

With --trace 1 one untraced pass is followed by passes that run the same
commands in this process through qcube.cli.main(argv), with the probes of
probes.py installed and the qcube caches emptied before each command, as a
new process would find them. Reported: per-layer self times, call and work
counts, cache hit ratios, and traced over untraced wall time, both unscaled.

Every output is checked (see workloads.py), and its sha256 must equal the
first pass's and, for seed 0, the pin in stdout_sha256.json. The last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import probes
import workloads
from workloads import BENCH_DIR, WORKLOADS, Command, Outcome

ROOT = BENCH_DIR.parent
PINS = BENCH_DIR / "stdout_sha256.json"
PINNED_SEED = 0
SETUP_SPAWNS = 11
RUN_LIMIT_S = 170.0
# About the reference chunk's median time (launcher.py) on the 2-core x86-64
# box the baseline was recorded on, so that scaled times read close to
# seconds there.
REF_SECONDS = 0.005

END_TO_END_UNITS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "success_rate": "ratio",
}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith(("hit_ratio", "overhead")):
        return "ratio"
    return "count"


@dataclass
class Pass:
    wall: float
    ops: int
    failed: int
    rows: int = 0
    refusals: int = 0
    rss_kib: int = 0
    scaled: float = 0.0
    refs: list[float] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """The launcher.py process, which starts every command of a run on one
    CPU and measures it; see that file for why."""

    def __init__(self, env: dict[str, str]):
        cpu = min(os.sched_getaffinity(0))
        self._proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launcher.py"), str(cpu)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def run(self, argv: list[str], out: Path, err: Path, timeout: float) -> dict:
        request = {"argv": argv, "out": str(out), "err": str(err), "timeout": max(timeout, 0.0)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self._proc.wait()}")
        return json.loads(reply)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class Runner:
    """Runs one workload's commands and checks what they print."""

    def __init__(self, workload: str, cmds: list[Command], work: Path, deadline: float,
                 launcher: Launcher, pins: Optional[dict[str, str]] = None):
        self.workload = workload
        self.cmds = cmds
        self.work = work
        self.deadline = deadline
        self.launcher = launcher
        self.want_sha = dict(pins or {})
        self._memo: dict[tuple[str, int, str], Outcome] = {}

    def launch(self, argv: list[str]) -> tuple[dict, bytes]:
        """Run one process through the launcher; return its reply and stdout."""
        out, err = self.work / "stdout", self.work / "stderr"
        reply = self.launcher.run([sys.executable, *argv], out, err, self.deadline - time.monotonic())
        return reply, out.read_bytes()

    def evaluate(self, cmd: Command, rc: int, out: bytes) -> Outcome:
        sha = hashlib.sha256(out).hexdigest()
        want = self.want_sha.setdefault(cmd.label, sha)
        if sha != want:
            return Outcome(cmd.ops, problem=f"stdout sha256 {sha[:12]} differs from {want[:12]}")
        key = (cmd.label, rc, sha)
        if key not in self._memo:
            self._memo[key] = cmd.check(rc, out)
        return self._memo[key]

    def _tally(self, p: Pass, cmd: Command, outcome: Outcome) -> None:
        p.ops += cmd.ops
        p.failed += outcome.failed
        p.rows += outcome.rows
        p.refusals += outcome.guard_refusals
        if outcome.problem:
            p.problems.append(f"{self.workload}/{cmd.label}: {outcome.problem}")

    def run_pass(self) -> Pass:
        p = Pass(0.0, 0, 0)
        for cmd in self.cmds:
            reply, out = self.launch(["-m", "qcube", *cmd.argv])
            p.wall += reply["wall"]
            p.scaled += reply["ref_units"] * REF_SECONDS
            p.rss_kib = max(p.rss_kib, reply["maxrss_kib"])
            p.refs += reply["refs"]
            self._tally(p, cmd, self.evaluate(cmd, reply["rc"], out))
        return p

    def run_traced_pass(self, cli, probe: probes.Probes) -> Pass:
        p = Pass(0.0, 0, 0)
        probe.reset()
        for cmd in self.cmds:
            probes.clear_caches()
            out = io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                try:
                    rc = cli.main(list(cmd.argv))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
            p.wall += time.perf_counter() - start
            probe.read_caches()
            self._tally(p, cmd, self.evaluate(cmd, rc, out.getvalue().encode()))
        probes.clear_caches()
        p.layers = probe.metrics(p.rows, p.refusals)
        return p

    def setup_times(self) -> list[dict]:
        """Launcher replies for processes that import qcube.cli and exit,
        after one warm-up that also confirms which qcube is imported."""
        reply, out = self.launch(["-c", "import qcube.cli, sys; sys.stdout.write(qcube.cli.__file__)"])
        if reply["rc"] != 0 or Path(out.decode() or ".").resolve().parent != (ROOT / "src" / "qcube").resolve():
            raise RuntimeError(f"cannot import qcube.cli from {ROOT / 'src'}: "
                               f"{(self.work / 'stderr').read_text().strip()}")
        return [self.launch(["-c", "import qcube.cli"])[0] for _ in range(SETUP_SPAWNS)]


def _repeat(step, seconds: float, deadline: float) -> list[Pass]:
    """Run passes for about `seconds`: stop at the pass boundary nearest to
    it, so a run lasts about as long on a slow machine as on a fast one, and
    never start a pass that would likely overrun the deadline."""
    start = time.monotonic()
    passes = [step()]
    while time.monotonic() - start + passes[-1].wall / 2 < seconds:
        if time.monotonic() + 1.5 * passes[-1].wall > deadline:
            break
        passes.append(step())
    return passes


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path, deadline: float) -> dict:
    pins = json.loads(PINS.read_text()).get(workload) if seed == PINNED_SEED else None
    with Launcher(child_env()) as launcher:
        runner = Runner(workload, workloads.build(workload, seed, work), work, deadline, launcher, pins)
        if trace:
            untraced = runner.run_pass()
            cli = probes.import_qcube(ROOT)
            with probes.Probes() as probe:
                traced = _repeat(lambda: runner.run_traced_pass(cli, probe), seconds - untraced.wall, deadline)
            passes = [untraced, *traced]
            metrics = {name: statistics.median(p.layers[name] for p in traced) for name in traced[0].layers}
            metrics["trace_overhead"] = statistics.median(p.wall for p in traced) / untraced.wall
            unscaled = {}
        else:
            setup = runner.setup_times()
            passes = _repeat(runner.run_pass, seconds, deadline)
            metrics = {
                "wall_s": statistics.median(p.scaled for p in passes),
                "ops_per_s": statistics.median((p.ops - p.failed) / p.scaled for p in passes),
                "peak_rss_mib": max(p.rss_kib for p in passes) / 1024,
                "setup_s": REF_SECONDS * statistics.median(r["ref_units"] for r in setup),
            }
            unscaled = {
                "wall_s": statistics.median(p.wall for p in passes),
                "setup_s": statistics.median(r["wall"] for r in setup),
                "reference_ms": 1000 * statistics.median(t for p in passes for t in p.refs),
            }
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    if not trace:
        metrics["success_rate"] = 1 - failed / attempted
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "problems": [msg for p in passes for msg in p.problems],
        "metrics": metrics,
        "unscaled": unscaled,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qcube" / "cli.py").is_file():
        print(f"error: no qcube sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    work = Path(tempfile.mkdtemp(prefix="_work-", dir=BENCH_DIR))
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), work, deadline)
    finally:
        shutil.rmtree(work)

    metrics = {}
    for name, res in results.items():
        for problem in res["problems"]:
            print(f"problem: {problem}", file=sys.stderr)
        print(f"{name}: {res['passes']} passes, {res['attempted']} operations attempted, "
              f"{res['failed']} failed, error_rate {res['failed'] / res['attempted']:.6g}")
        for metric, value in res["metrics"].items():
            print(f"  {metric:34} {value:14.6g} {unit_of(metric)}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit_of(metric)}
        for metric, value in res["unscaled"].items():
            print(f"  {metric + ' (unscaled)':34} {value:14.6g} {'ms' if metric.endswith('ms') else 's'}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    problems = sum(len(r["problems"]) for r in results.values())
    print(json.dumps({"correct": failed == 0 and problems == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
