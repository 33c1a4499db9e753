"""Command line interface: rank reports, distributions, identity checks,
point-set generation, and deterministic JSON-lines parameter sweeps.

Commands call the engine through its modules (faces.distribution, ...) when
they run, so a process executes only the modules its command uses (see the
package docstring) and a wrapper installed on a module attribute sees every
call. The sweep itself lives in qcube.sweep.

Input, a point file or a sweep config, is the file at a path, or stdin for
"-" (input_pieces), read a piece at a time by base.read_pieces; the point
text format, and n when --n is omitted, are core.parse_pointset's alone.

Exit codes: 0 success (and identity equality), 1 identity inequality,
2 input/usage error, 3 resource-guard refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Iterator, Optional, Sequence, TextIO

from . import core, faces, families, identities, sweep, writer
from .base import DEFAULT_GUARD, CubeError, CubeParams, SizeGuardError, check_guard, decimal, int_fields, read_pieces

# The package's `rank` attribute is the function rank(); this is its module.
rank = sys.modules[f"{__package__}.rank"]

EXIT_OK = 0
EXIT_UNEQUAL = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def json_line(obj: Any) -> str:
    return _JSON.encode(obj)


def report_to_dict(rep: identities.IdentityReport) -> dict[str, Any]:
    """Stable JSON shape for one identity report; big integers go out as
    decimal strings."""
    out: dict[str, Any] = {
        "identity": rep.identity,
        "params": dict(rep.params),
        "lhs": decimal(rep.lhs),
        "rhs": decimal(rep.rhs),
        "equal": rep.equal,
    }
    if rep.lhs_terms is not None or rep.rhs_terms is not None:
        terms = [
            {"side": "lhs", "label": label, "value": decimal(v)}
            for label, v in (rep.lhs_terms or ())
        ]
        terms += [
            {"side": "rhs", "label": label, "value": decimal(v)}
            for label, v in (rep.rhs_terms or ())
        ]
        out["terms"] = terms
    if rep.note is not None:
        out["note"] = rep.note
    return out


def _csv_ints(text: str, option: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int_fields(text.split(","), what=f"{option} field"))


def input_pieces(path: str) -> Iterator[str]:
    """The text of the file at path, or of stdin for "-", in pieces
    (base.read_pieces)."""
    if path != "-":
        return read_pieces(path)
    if sys.stdin is None:
        raise CubeError("stdin is closed")
    return read_pieces(sys.stdin)


def _stdout() -> TextIO:
    """sys.stdout, which is None when descriptor 1 was closed at startup; a
    command that writes there refuses then, before it reads or computes."""
    if sys.stdout is None:
        raise CubeError("stdout is closed")
    return sys.stdout


def _guard(args: argparse.Namespace) -> int:
    return args.guard if args.guard is not None else DEFAULT_GUARD


def _load_pointset(args: argparse.Namespace) -> core.PointSet:
    _stdout()  # each point-set command reports on stdout
    A, dropped = core.parse_pointset(input_pieces(args.input), q=args.q, n=args.n)
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
    check_guard(A.params.n * len(A), _guard(args))
    r = rank.rank(A)
    total = rank.distance_total(A)
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
        lower, upper = rank.bounds_from_total(len(A), total)
        closed = rank.closed_rank_from_total(len(A), total)
        payload["bounds"] = {"lower": str(lower), "upper": str(upper)}
        payload["closed_form_rank"] = closed
        lines.append(f"bounds: [{lower}, {upper}]")
        if closed is not None:
            lines.append(f"closed_form_rank: {closed}")
    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    A = _load_pointset(args)
    b = rank.rank_bounds(A, _guard(args))
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
    dist = faces.distribution(A, args.k, _guard(args))
    items = dist.items()
    payload = {
        "q": A.params.q,
        "n": A.params.n,
        "k": args.k,
        "m": len(A),
        "counts": {str(e): decimal(c) for e, c in items},
        "total_faces": decimal(dist.total),
    }
    lines = [f"e={e}: {decimal(c)}" for e, c in items]
    lines.append(f"total faces: {decimal(dist.total)} ✓")
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as handle:
            table = csv.writer(handle)
            table.writerow(["e", "count"])
            table.writerows((e, decimal(c)) for e, c in items)
    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    A = _load_pointset(args)
    rep = identities.verify_main(A, args.k, args.s, _guard(args), include_terms=args.breakdown)
    payload = report_to_dict(rep)
    lines = [
        f"identity: {rep.identity}",
        "params: " + " ".join(f"{key}={value}" for key, value in rep.params.items()),
        f"lhs: {decimal(rep.lhs)}",
        f"rhs: {decimal(rep.rhs)}",
        f"equal: {'yes' if rep.equal else 'NO'}",
    ]
    if args.breakdown:
        for label, value in rep.lhs_terms or ():
            lines.append(f"  lhs {label}: {decimal(value)}")
        for label, value in rep.rhs_terms or ():
            lines.append(f"  rhs {label}: {decimal(value)}")
    if rep.note:
        lines.append(f"note: {rep.note}")
    _emit(payload, lines, args.json)
    return EXIT_OK if rep.equal else EXIT_UNEQUAL


def cmd_gen(args: argparse.Namespace) -> int:
    if not args.output:
        _stdout()
    if args.n is None:
        raise CubeError("gen requires --n")
    params = CubeParams(args.q, args.n)
    if args.family == "face":
        free = _csv_ints(args.free, "--free") if args.free is not None else None
        if free is None and args.nu is None:
            raise CubeError("face family needs --nu or --free")
        # Without --fixed the size is checked before the zero pairs are
        # built; --fixed's own input errors come before the guard.
        guard = _guard(args) if args.fixed is None else None
        spec = families.face_spec(params, args.nu, free, guard=guard)
        if args.fixed is not None:
            values = _csv_ints(args.fixed, "--fixed")
            positions = [i for i, _ in spec.fixed_values]
            if len(values) != len(positions):
                raise CubeError(
                    f"--fixed needs {len(positions)} values, got {len(values)}"
                )
            spec = families.FamilySpec("face", spec.free_positions, tuple(zip(positions, values)))
    elif args.family == "random" and args.m is None:
        raise CubeError("random family needs --m")
    else:
        spec = families.FamilySpec(args.family.replace("-", "_"), m=args.m, seed=args.seed)
    A = families.realize_family(params, spec, _guard(args))
    if args.output:
        with open(args.output, "w") as out:
            out.writelines(writer.serialized_blocks(A))
    else:
        sys.stdout.writelines(writer.serialized_blocks(A))
    return EXIT_OK


def run_sweep(cfg: sweep.SweepConfig, out: TextIO, guard: Optional[int] = None) -> int:
    """Write one JSON line per grid point as it is evaluated, then a summary
    line. A bad family template raises before any output, and memory does not
    grow with the number of rows. Returns the exit code; output depends only on the config.

    A closed-form cell's rows are written one nu row at a time: when the two
    packed sides are equal (an exact test) and str() converts them, the nu
    row's lines are one join of the cell's cached line skeleton with each
    coefficient, converted to decimal once for both sides, and nu. Any other
    two-sided row is filled into a cached template;
    the rest, and sides too long for str(), go through
    json_line(_sweep_row(...)), which is also the oracle of both writers (see
    qcube.sweep)."""
    effective_guard = guard if guard is not None else (cfg.guard or DEFAULT_GUARD)
    tally = {"pass": 0, "fail": 0, "known_erratum": 0, "error": 0}
    for status, count, text in sweep._sweep_rows(cfg, effective_guard):
        tally[status] += count
        out.write(text)
    summary = {"total": sum(tally.values()), **tally}
    out.write(json_line({"summary": summary}) + "\n")
    print(
        "sweep: {total} points, {pass} pass, {fail} fail, {known_erratum} known erratum, "
        "{error} error".format(**summary),
        file=sys.stderr,
    )
    if tally["fail"]:
        return EXIT_UNEQUAL
    if tally["error"]:
        return EXIT_GUARD
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = sweep.load_sweep_config(args.config)  # it may name the output
    destination = args.output or cfg.output
    if destination:
        with open(destination, "w") as handle:
            return run_sweep(cfg, handle, guard=args.guard)
    return run_sweep(cfg, _stdout(), guard=args.guard)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=int, default=2, help="alphabet size (default 2)")
    common.add_argument("--n", type=int, default=None, help="dimension (inferred from input when omitted)")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--jobs", type=int, default=1, help="accepted and ignored; sweeps run serially")
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
        if args.guard is not None and args.guard < 1:  # refused before any input is read
            raise CubeError(f"--guard must be a positive integer, got {args.guard}")
        return args.func(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (CubeError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
