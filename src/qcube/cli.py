"""Command line interface: rank reports, distributions, identity checks,
point-set generation, and deterministic JSON-lines parameter sweeps.

Exit codes: 0 success (and identity equality), 1 identity inequality,
2 input/usage error, 3 resource-guard refusal.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence, TextIO

from .core import (
    DEFAULT_GUARD,
    CubeError,
    CubeParams,
    ParseError,
    PointSet,
    SizeGuardError,
    parse_pointset,
    serialize_pointset,
)
from .faces import distribution, faces_containing_bruteforce, faces_containing_count
from .families import (
    FamilySpec,
    check_chu_vandermonde_generalized,
    check_evenweight_identity,
    check_vandermonde,
    face_spec,
    gen_even_weight,
    gen_face_subset,
    gen_random_subset,
    realize_family,
)
from .identities import (
    IdentityReport,
    corollary_s1,
    corollary_s2,
    corollary_s3,
    verify_main,
)
from .rank import distance_total, rank, rank_bounds, rank_closed_small

EXIT_OK = 0
EXIT_UNEQUAL = 1
EXIT_INPUT = 2
EXIT_GUARD = 3

# Data-driven registry of identities whose failures are expected and tracked,
# rather than treated as regressions. The engine itself never consults this.
KNOWN_ERRATA = frozenset({"evenweight_printed"})

SWEEP_IDENTITIES = (
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
)


def json_line(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def report_to_dict(rep: IdentityReport) -> dict[str, Any]:
    """Stable JSON shape for one identity report; big integers go out as
    decimal strings."""
    out: dict[str, Any] = {
        "identity": rep.identity,
        "params": dict(rep.params),
        "lhs": str(rep.lhs),
        "rhs": str(rep.rhs),
        "equal": rep.equal,
    }
    if rep.lhs_terms is not None or rep.rhs_terms is not None:
        terms = [
            {"side": "lhs", "label": label, "value": str(v)}
            for label, v in (rep.lhs_terms or ())
        ]
        terms += [
            {"side": "rhs", "label": label, "value": str(v)}
            for label, v in (rep.rhs_terms or ())
        ]
        out["terms"] = terms
    if rep.note is not None:
        out["note"] = rep.note
    return out


def _csv_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _infer_n(text: str) -> Optional[int]:
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "," in line:
            return len(line.split(","))
        return len(line)
    return None


def _load_pointset(args: argparse.Namespace) -> PointSet:
    text = _read_text(args.input)
    n = args.n
    if n is None:
        n = _infer_n(text)
        if n is None:
            raise CubeError("empty input; pass --n to fix the dimension")
    params = CubeParams(args.q, n)
    A, dropped = parse_pointset(text, params)
    if dropped:
        print(f"note: dropped {dropped} duplicate vector(s)", file=sys.stderr)
    return A


def _emit(payload: dict[str, Any], human_lines: Sequence[str], as_json: bool) -> None:
    if as_json:
        print(json_line(payload))
    else:
        for line in human_lines:
            print(line)


def cmd_rank(args: argparse.Namespace) -> int:
    A = _load_pointset(args)
    r = rank(A)
    total = distance_total(A)
    payload: dict[str, Any] = {
        "q": A.params.q,
        "n": A.params.n,
        "m": len(A),
        "rank": r,
        "distance_sum": str(total),
    }
    lines = [
        f"m: {len(A)}",
        f"rank: {r}",
        f"distance_sum: {total}",
    ]
    if A.params.q == 2:
        b = rank_bounds(A)
        closed = rank_closed_small(A)
        payload["bounds"] = {"lower": str(b.lower), "upper": str(b.upper)}
        payload["closed_form_rank"] = closed
        lines.append(f"bounds: [{b.lower}, {b.upper}]")
        if closed is not None:
            lines.append(f"closed_form_rank: {closed}")
    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    A = _load_pointset(args)
    b = rank_bounds(A)
    payload = {
        "q": A.params.q,
        "n": A.params.n,
        "m": len(A),
        "lower": str(b.lower),
        "upper": str(b.upper),
        "rank": b.exact_rank,
    }
    lines = [
        f"lower: {b.lower}",
        f"upper: {b.upper}",
        f"rank: {b.exact_rank}",
    ]
    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_distribution(args: argparse.Namespace) -> int:
    A = _load_pointset(args)
    dist = distribution(A, args.k, args.guard if args.guard is not None else DEFAULT_GUARD)
    items = dist.items()
    payload = {
        "q": A.params.q,
        "n": A.params.n,
        "k": args.k,
        "m": len(A),
        "counts": {str(e): str(c) for e, c in items},
        "total_faces": str(dist.total),
    }
    lines = [f"e={e}: {c}" for e, c in items]
    lines.append(f"total faces: {dist.total} ✓")
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["e", "count"])
            writer.writerows(items)
    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    A = _load_pointset(args)
    guard = args.guard if args.guard is not None else DEFAULT_GUARD
    rep = verify_main(A, args.k, args.s, guard, include_terms=args.breakdown)
    payload = report_to_dict(rep)
    lines = [
        f"identity: {rep.identity}",
        "params: " + " ".join(f"{key}={value}" for key, value in rep.params.items()),
        f"lhs: {rep.lhs}",
        f"rhs: {rep.rhs}",
        f"equal: {'yes' if rep.equal else 'NO'}",
    ]
    if args.breakdown:
        for label, value in rep.lhs_terms or ():
            lines.append(f"  lhs {label}: {value}")
        for label, value in rep.rhs_terms or ():
            lines.append(f"  rhs {label}: {value}")
    if rep.note:
        lines.append(f"note: {rep.note}")
    _emit(payload, lines, args.json)
    return EXIT_OK if rep.equal else EXIT_UNEQUAL


def cmd_gen(args: argparse.Namespace) -> int:
    if args.n is None:
        raise CubeError("gen requires --n")
    params = CubeParams(args.q, args.n)
    family = args.family
    if family == "even-weight":
        if params.q != 2:
            raise CubeError("the even-weight family requires q = 2")
        A = gen_even_weight(params.n)
    elif family == "face":
        free = _csv_ints(args.free) if args.free is not None else None
        if free is None and args.nu is None:
            raise CubeError("face family needs --nu or --free")
        fixed_pairs = None
        if args.fixed is not None:
            values = _csv_ints(args.fixed)
            free_set = set(free if free is not None else range(args.nu))
            positions = [i for i in range(params.n) if i not in free_set]
            if len(values) != len(positions):
                raise CubeError(
                    f"--fixed needs {len(positions)} values, got {len(values)}"
                )
            fixed_pairs = tuple(zip(positions, values))
        spec = face_spec(params, args.nu, free, fixed_pairs)
        A = gen_face_subset(params, spec)
    elif family == "random":
        if args.m is None:
            raise CubeError("random family needs --m")
        A = gen_random_subset(params, args.m, args.seed)
    else:
        raise CubeError(f"unknown family {family!r}")
    text = serialize_pointset(A)
    if text:
        text += "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


@dataclass(frozen=True)
class SweepConfig:
    """Parsed sweep description: identities to run, parameter ranges, the
    family template, and the output destination."""

    identities: tuple[str, ...]
    qs: tuple[int, ...]
    n_range: tuple[int, int]
    k_range: Optional[tuple[int, int]]
    s_range: tuple[int, int]
    nu_range: Optional[tuple[int, int]]
    seeds: tuple[int, ...]
    family: Optional[dict[str, Any]]
    guard: Optional[int]
    output: Optional[str]
    fmt: str


def _parse_range(value: Any, name: str, allow_all: bool = False) -> Optional[tuple[int, int]]:
    if allow_all and (value is None or value == "all"):
        return None
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, int) for v in value)
    ):
        raise CubeError(f"sweep config: {name} must be a two-int [lo, hi] range")
    lo, hi = value
    if lo > hi:
        raise CubeError(f"sweep config: empty {name} range [{lo}, {hi}]")
    return (lo, hi)


def load_sweep_config(path: str) -> SweepConfig:
    raw = json.loads(_read_text(path))
    if not isinstance(raw, dict):
        raise CubeError("sweep config must be a JSON object")
    identities = tuple(raw.get("identities", ()))
    if not identities:
        raise CubeError("sweep config: identities must be a non-empty list")
    for name in identities:
        if name not in SWEEP_IDENTITIES:
            raise CubeError(
                f"sweep config: unknown identity {name!r}; known: {', '.join(SWEEP_IDENTITIES)}"
            )
    qs = tuple(raw.get("q", [2]))
    if not qs or not all(isinstance(q, int) and q >= 2 for q in qs):
        raise CubeError("sweep config: q must be a list of integers >= 2")
    n_range = _parse_range(raw.get("n"), "n")
    if n_range[0] < 0:
        raise CubeError("sweep config: n range must start at 0 or above")
    k_range = _parse_range(raw.get("k", "all"), "k", allow_all=True)
    s_range = _parse_range(raw.get("s", [1, 3]), "s")
    nu_range = _parse_range(raw.get("nu", "all"), "nu", allow_all=True)
    seeds = tuple(raw.get("seeds", [0]))
    if not seeds or not all(isinstance(s, int) for s in seeds):
        raise CubeError("sweep config: seeds must be a non-empty list of integers")
    family = raw.get("family")
    if family is not None:
        if not isinstance(family, dict) or "kind" not in family:
            raise CubeError("sweep config: family must be an object with a 'kind'")
    needs_family = {"main", "corollary1", "corollary2", "corollary3", "bounds", "lemma_face_count"}
    if family is None and needs_family & set(identities):
        raise CubeError("sweep config: these identities need a family template")
    fmt = raw.get("format", "jsonl")
    if fmt != "jsonl":
        raise CubeError(f"sweep config: unsupported format {fmt!r}")
    guard = raw.get("guard")
    if guard is not None and (not isinstance(guard, int) or guard < 1):
        raise CubeError("sweep config: guard must be a positive integer")
    return SweepConfig(
        identities=identities,
        qs=qs,
        n_range=n_range,
        k_range=k_range,
        s_range=s_range,
        nu_range=nu_range,
        seeds=seeds,
        family=family,
        guard=guard,
        output=raw.get("output"),
        fmt=fmt,
    )


def _ks(cfg: SweepConfig, n: int) -> range:
    if cfg.k_range is None:
        return range(0, n + 1)
    lo, hi = cfg.k_range
    return range(max(lo, 0), min(hi, n) + 1)


def _nus(cfg: SweepConfig, n: int, least: int = 0) -> range:
    if cfg.nu_range is None:
        return range(least, n + 1)
    lo, hi = cfg.nu_range
    return range(max(lo, least), min(hi, n) + 1)


def _family_instances(
    cfg: SweepConfig, q: int, n: int
) -> Iterator[tuple[dict[str, Any], PointSet]]:
    """Yield (extra-params, point set) pairs for one (q, n) cell, skipping
    combinations whose preconditions fail. Deterministic order."""
    fam = cfg.family
    if fam is None:
        return
    kind = fam["kind"]
    params = CubeParams(q, n)
    if kind == "random":
        m = fam.get("m")
        if not isinstance(m, int):
            raise CubeError("sweep config: random family needs an integer m")
        if m < 1 or m > params.volume:
            return
        for seed in cfg.seeds:
            yield {"seed": seed}, gen_random_subset(params, m, seed)
    elif kind == "even_weight":
        if q != 2:
            return
        yield {}, gen_even_weight(n)
    elif kind == "face":
        for nu in _nus(cfg, n):
            yield {"nu": nu}, gen_face_subset(params, face_spec(params, nu))
    elif kind == "file":
        spec = FamilySpec(
            "file", path=fam.get("path"), m=None, seed=None
        )
        yield {}, realize_family(params, spec)
    else:
        raise CubeError(f"sweep config: unknown family kind {kind!r}")


def _expand_sweep(cfg: SweepConfig) -> list[dict[str, Any]]:
    points: list[dict[str, Any]] = []
    n_lo, n_hi = cfg.n_range
    s_lo, s_hi = cfg.s_range
    for identity in cfg.identities:
        for q in cfg.qs:
            for n in range(n_lo, n_hi + 1):
                if identity == "vandermonde":
                    for nu in _nus(cfg, n):
                        for k in _ks(cfg, n):
                            points.append(
                                {"identity": identity, "q": q, "n": n, "nu": nu, "k": k}
                            )
                elif identity == "chu_vandermonde_generalized":
                    for nu in _nus(cfg, n, least=1):
                        for k in _ks(cfg, n):
                            points.append(
                                {"identity": identity, "q": q, "n": n, "nu": nu, "k": k}
                            )
                elif identity in ("evenweight_printed", "evenweight_corrected"):
                    if q != 2 or n < 1:
                        continue
                    for k in _ks(cfg, n):
                        if k >= 1:
                            points.append({"identity": identity, "q": q, "n": n, "k": k})
                else:
                    for extra, A in _family_instances(cfg, q, n):
                        base = {"identity": identity, "q": q, "n": n, "A": A, **extra}
                        if identity == "bounds":
                            if q == 2:
                                points.append(base)
                        elif identity == "main":
                            for k in _ks(cfg, n):
                                cap = min(len(A), q**k)
                                for s in range(max(s_lo, 1), min(s_hi, cap) + 1):
                                    points.append({**base, "k": k, "s": s})
                        elif identity == "corollary1":
                            points.extend({**base, "k": k} for k in _ks(cfg, n))
                        elif identity == "corollary2":
                            if len(A) >= 2:
                                points.extend({**base, "k": k} for k in _ks(cfg, n))
                        elif identity == "corollary3":
                            if q == 2 and len(A) >= 3:
                                points.extend({**base, "k": k} for k in _ks(cfg, n))
                        elif identity == "lemma_face_count":
                            points.extend({**base, "k": k} for k in _ks(cfg, n))
    return points


def _sweep_row(point: dict[str, Any], guard: int) -> dict[str, Any]:
    identity = point["identity"]
    extra = {
        key: value
        for key, value in point.items()
        if key in ("seed", "nu") and identity not in ("vandermonde", "chu_vandermonde_generalized")
    }
    try:
        if identity == "main":
            rep = verify_main(point["A"], point["k"], point["s"], guard)
        elif identity == "corollary1":
            rep = corollary_s1(point["A"], point["k"], guard)
        elif identity == "corollary2":
            rep = corollary_s2(point["A"], point["k"], guard)
        elif identity == "corollary3":
            rep = corollary_s3(point["A"], point["k"], guard)
        elif identity == "vandermonde":
            rep = check_vandermonde(CubeParams(point["q"], point["n"]), point["nu"], point["k"])
        elif identity == "chu_vandermonde_generalized":
            rep = check_chu_vandermonde_generalized(
                CubeParams(point["q"], point["n"]), point["nu"], point["k"]
            )
        elif identity in ("evenweight_printed", "evenweight_corrected"):
            rep = check_evenweight_identity(
                point["n"], point["k"], identity.removeprefix("evenweight_")
            )
        elif identity == "bounds":
            A = point["A"]
            b = rank_bounds(A)
            passed = b.lower <= b.exact_rank <= b.upper
            row = {
                "identity": "bounds",
                "params": {"q": 2, "n": point["n"], "m": len(A), **extra},
                "rank": str(b.exact_rank),
                "lower": str(b.lower),
                "upper": str(b.upper),
                "passed": passed,
                "status": "pass" if passed else "fail",
            }
            return row
        elif identity == "lemma_face_count":
            A = point["A"]
            lhs = faces_containing_bruteforce(A, point["k"], guard)
            rhs = faces_containing_count(A, point["k"])
            params = {"q": point["q"], "n": point["n"], "k": point["k"], "m": len(A), **extra}
            rep = IdentityReport.of("lemma_face_count", params, lhs, rhs, proven=True)
        else:
            raise CubeError(f"unknown identity {identity!r}")
    except SizeGuardError as exc:
        return {
            "identity": identity,
            "params": {k: v for k, v in point.items() if k not in ("identity", "A")},
            "error": str(exc),
            "passed": False,
            "status": "error",
        }
    params = dict(rep.params)
    params.update(extra)
    if rep.equal:
        status = "pass"
    elif identity in KNOWN_ERRATA:
        status = "known_erratum"
    else:
        status = "fail"
    return {
        "identity": rep.identity,
        "params": params,
        "lhs": str(rep.lhs),
        "rhs": str(rep.rhs),
        "equal": rep.equal,
        "passed": rep.equal,
        "status": status,
    }


def run_sweep(cfg: SweepConfig, out: TextIO, jobs: int = 1, guard: Optional[int] = None) -> int:
    """Run every sweep point, stream one JSON line per result plus a summary
    line, and return the exit code. Output depends only on the config."""
    effective_guard = guard if guard is not None else (cfg.guard or DEFAULT_GUARD)
    points = _expand_sweep(cfg)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(lambda pt: _sweep_row(pt, effective_guard), points))
    else:
        rows = [_sweep_row(pt, effective_guard) for pt in points]
    tally = {"pass": 0, "fail": 0, "known_erratum": 0, "error": 0}
    for row in rows:
        tally[row["status"]] += 1
        out.write(json_line(row) + "\n")
    out.write(json_line({"summary": {"total": len(rows), **tally}}) + "\n")
    print(
        "sweep: {total} points, {p} pass, {f} fail, {e} known erratum, {err} error".format(
            total=len(rows),
            p=tally["pass"],
            f=tally["fail"],
            e=tally["known_erratum"],
            err=tally["error"],
        ),
        file=sys.stderr,
    )
    if tally["fail"]:
        return EXIT_UNEQUAL
    if tally["error"]:
        return EXIT_GUARD
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_sweep_config(args.config)
    destination = args.output or cfg.output
    jobs = args.jobs
    if destination:
        with open(destination, "w") as handle:
            return run_sweep(cfg, handle, jobs=jobs, guard=args.guard)
    return run_sweep(cfg, sys.stdout, jobs=jobs, guard=args.guard)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=int, default=2, help="alphabet size (default 2)")
    common.add_argument("--n", type=int, default=None, help="dimension (inferred from input when omitted)")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--jobs", type=int, default=1, help="worker threads for sweeps")
    common.add_argument("--guard", type=int, default=None, help="operation budget (default 10^7)")
    common.add_argument("--seed", type=int, default=0, help="seed for random generation")

    parser = argparse.ArgumentParser(
        prog="qcube",
        description="Exact rank, face-distribution, and identity checks over q-valued cubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", parents=[common], help="rank and distance report")
    p_rank.add_argument("input", help="point-set file, or - for stdin")
    p_rank.set_defaults(func=cmd_rank)

    p_bounds = sub.add_parser("bounds", parents=[common], help="rank bounds (q = 2)")
    p_bounds.add_argument("input", help="point-set file, or - for stdin")
    p_bounds.set_defaults(func=cmd_bounds)

    p_dist = sub.add_parser("distribution", parents=[common], help="face-intersection distribution")
    p_dist.add_argument("input", help="point-set file, or - for stdin")
    p_dist.add_argument("-k", type=int, required=True, help="face dimension")
    p_dist.add_argument("--csv", default=None, help="also write e,count rows to this file")
    p_dist.set_defaults(func=cmd_distribution)

    p_verify = sub.add_parser("verify", parents=[common], help="check the face-count identity")
    p_verify.add_argument("input", help="point-set file, or - for stdin")
    p_verify.add_argument("-k", type=int, required=True, help="face dimension")
    p_verify.add_argument("-s", type=int, required=True, help="subset size weight")
    p_verify.add_argument("--breakdown", action="store_true", help="print per-term values")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", parents=[common], help="generate a structured point set")
    p_gen.add_argument(
        "--family", required=True, choices=("face", "even-weight", "random")
    )
    p_gen.add_argument("--nu", type=int, default=None, help="face dimension (face family)")
    p_gen.add_argument("--free", default=None, help="comma-separated free positions (face family)")
    p_gen.add_argument("--fixed", default=None, help="comma-separated fixed values (face family)")
    p_gen.add_argument("--m", type=int, default=None, help="subset size (random family)")
    p_gen.add_argument("-o", "--output", default=None, help="write here instead of stdout")
    p_gen.set_defaults(func=cmd_gen)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a JSON sweep config")
    p_sweep.add_argument("config", help="sweep config file, or - for stdin")
    p_sweep.add_argument("--output", default=None, help="override the config output path")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (CubeError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
