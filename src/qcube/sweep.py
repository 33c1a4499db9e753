"""Deterministic JSON-lines parameter sweeps: the config, the registry of
sweep identities, and the lines of their rows.

`load_sweep_config` reads a config (a file, or stdin for "-", read as point
files are read: cli.input_pieces), `_sweep_rows` evaluates its grid one
(q, n) cell at a time, and `qcube.cli.run_sweep` writes the rows and the
summary. Only `qcube sweep` uses this module, so other commands never run it.
The closed-form cells are qcube.closed's, and the rest is reached through
modules when a row needs it: families for a family template, identities and
rank for the rows on its sets (identities reaches faces and core). So a sweep
of closed forms alone executes cli, base, closed and this module. The five
family identities (main, the three corollaries and lemma_face_count) are each
the paper's main theorem at one s, and one evaluator,
identities.family_points, walks all their points on a family set in one
pass.

A row is written one of two ways, and json_line(_sweep_row(...)) is the
oracle of both. A grid point's row of two sides fills a cached template
(`_sweep_line`). A closed-form cell (Vandermonde, its q-ary generalization,
and both even-weight forms) hands over one row at a time, per nu or, for the
even-weight forms, per n, with both sides at every k packed into one int
each (`closed.NuRow`). When the packed sides are equal, which is exact,
and str() converts them, the whole row is one str.join (`_nu_row_text`) of
the cell's line skeleton (`_skeleton`): the text of its lines cut from the
line template, with the identity, q, n and each k written in once per
cell, around slots that each row fills with its nu and with each
coefficient's decimal, converted once for both sides. Any other row, one
whose sides differ somewhere (the printed even-weight form's known errata)
or have more digits than str() converts, goes through `_sweep_line` one
point at a time.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from typing import Any, Callable, Iterator, Optional

from . import families, identities  # module handles: a closed-form sweep executes neither
from .base import CubeError, CubeParams, SizeGuardError, _Record, abbreviated, decimal, is_int
from .cli import input_pieces, json_line
from .closed import NuRow, chu_vandermonde_generalized_cell, evenweight_cell, limbs, vandermonde_cell

# The package's `rank` attribute is the function rank(); this is its module.
# Named apart from `rank` so that no export of qcube is shadowed here.
_rank_module = sys.modules[f"{__package__}.rank"]


class SweepConfig(_Record):
    """Parsed sweep description: identities to run, parameter ranges, the
    family template, and the output destination."""

    _fields = (
        "identities", "qs", "n_range", "k_range", "s_range", "nu_range", "seeds", "family", "guard", "output",
    )
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

    def __init__(
        self,
        identities: tuple[str, ...],
        qs: tuple[int, ...],
        n_range: tuple[int, int],
        k_range: Optional[tuple[int, int]],
        s_range: tuple[int, int],
        nu_range: Optional[tuple[int, int]],
        seeds: tuple[int, ...],
        family: Optional[dict[str, Any]],
        guard: Optional[int],
        output: Optional[str],
    ) -> None:
        self._set(
            identities=identities, qs=qs, n_range=n_range, k_range=k_range, s_range=s_range,
            nu_range=nu_range, seeds=seeds, family=family, guard=guard, output=output,
        )


def _parse_range(value: Any, name: str, allow_all: bool = False) -> Optional[tuple[int, int]]:
    if allow_all and (value is None or value == "all"):
        return None
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(is_int(v) for v in value)
    ):
        raise CubeError(f"sweep config: {name} must be a two-int [lo, hi] range")
    lo, hi = value
    if lo > hi:
        raise CubeError(f"sweep config: empty {name} range [{lo}, {hi}]")
    return (lo, hi)


class _LongInt:
    """A JSON integer with more digits than int() converts. No is_int check
    accepts it, so the key's own check refuses it by name."""

    def __init__(self, digits: str) -> None:
        self.digits = digits

    def __repr__(self) -> str:
        return abbreviated(self.digits)


def _json_int(digits: str) -> Any:
    try:
        return int(digits)
    except ValueError:
        return _LongInt(digits)


def load_sweep_config(path: str) -> SweepConfig:
    """The config in the file at path, or on stdin for "-"."""
    try:
        raw = json.loads("".join(input_pieces(path)), parse_int=_json_int)
    except RecursionError:
        raise CubeError("sweep config: JSON nested too deeply") from None
    if not isinstance(raw, dict):
        raise CubeError("sweep config must be a JSON object")
    identities = raw.get("identities")
    if not isinstance(identities, list) or not identities:
        raise CubeError("sweep config: identities must be a non-empty list")
    for name in identities:
        if not isinstance(name, str) or name not in SWEEP_IDENTITIES:
            raise CubeError(
                f"sweep config: unknown identity {name!r}; known: {', '.join(SWEEP_IDENTITIES)}"
            )
    qs = raw.get("q", [2])
    if not isinstance(qs, list) or not qs or not all(is_int(q) and q >= 2 for q in qs):
        raise CubeError("sweep config: q must be a list of integers >= 2")
    n_range = _parse_range(raw.get("n"), "n")
    if n_range[0] < 0:
        raise CubeError("sweep config: n range must start at 0 or above")
    k_range = _parse_range(raw.get("k", "all"), "k", allow_all=True)
    s_range = _parse_range(raw.get("s", [1, 3]), "s")
    nu_range = _parse_range(raw.get("nu", "all"), "nu", allow_all=True)
    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(is_int(s) for s in seeds):
        raise CubeError("sweep config: seeds must be a non-empty list of integers")
    family = raw.get("family")
    if family is not None:
        if not isinstance(family, dict) or "kind" not in family:
            raise CubeError("sweep config: family must be an object with a 'kind'")
    if family is None and any(SWEEP_IDENTITIES[name].family for name in identities):
        raise CubeError("sweep config: these identities need a family template")
    if raw.get("format", "jsonl") != "jsonl":
        raise CubeError(f"sweep config: unsupported format {raw['format']!r}")
    guard = raw.get("guard")
    if guard is not None and (not is_int(guard) or guard < 1):
        raise CubeError("sweep config: guard must be a positive integer")
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise CubeError("sweep config: output must be a string")
    return SweepConfig(
        identities=tuple(identities),
        qs=tuple(qs),
        n_range=n_range,
        k_range=k_range,
        s_range=s_range,
        nu_range=nu_range,
        seeds=tuple(seeds),
        family=family,
        guard=guard,
        output=output,
    )


def _clip(bounds: Optional[tuple[int, int]], least: int, n: int) -> range:
    """The values least..n, within the configured [lo, hi] bounds if any."""
    lo, hi = bounds if bounds is not None else (least, n)
    return range(max(lo, least), min(hi, n) + 1)


def _family_instances(cfg: SweepConfig, q: int, n: int, guard: int) -> Iterator[dict[str, Any]]:
    """Yield the params of each family instance of its kind's grid
    (families.KINDS) in one (q, n) cell, with its point set under "A". A
    family that cannot be built is refused for the whole sweep, naming the cell."""
    kind = cfg.family["kind"]
    params = CubeParams(q, n)
    if kind not in families.FAMILY_KINDS:  # a tuple test: a JSON kind may be unhashable
        raise CubeError(f"sweep config: unknown family kind {kind!r}")
    for labels, spec in families.KINDS[kind].grid(cfg.family, params, _clip(cfg.nu_range, 0, n), cfg.seeds):
        try:
            A = families.realize_family(params, spec, guard)
        except CubeError as exc:
            name = f"file {spec.path}" if kind == "file" else kind
            error = SizeGuardError if isinstance(exc, SizeGuardError) else CubeError
            raise error(f"sweep config: family {name} at q={q}, n={n}: {exc}") from None
        yield {**labels, "A": A}


# The (params, outcome) of each grid point of one cell; see SweepIdentity.
Outcomes = Iterator[tuple[dict[str, Any], Any]]
Cell = Callable[[SweepConfig, int, int, dict[str, Any], int], Outcomes]


class SweepIdentity(_Record):
    """One sweep identity. `cell(cfg, q, n, instance, guard)` evaluates the
    grid points of one (q, n) cell and yields, in order, each point's params
    and outcome: the two sides (lhs, rhs), the fields of a finished row, or the
    SizeGuardError that refused the point. A closed form yields instead one
    params without k and its NuRow per nu (per n for the even-weight forms),
    for the points at each k of the row. `instance` is a family instance's
    params with its point set under "A" if `family` is set, else empty.
    Failures of an `erratum` identity count as known_erratum, not as fail.

    Params values and sides must be ints: the line of a two-sided row is a
    template whose params are %d fields and whose sides are their str() (see
    _row_template), and the tests hold it to the JSON encoding of the row."""

    _fields = ("cell", "family", "erratum")
    cell: Cell
    family: bool
    erratum: bool

    def __init__(self, cell: Cell, family: bool = False, erratum: bool = False) -> None:
        self._set(cell=cell, family=family, erratum=erratum)

    def replace(self, **changes: Any) -> "SweepIdentity":
        """A copy with the named fields changed."""
        return SweepIdentity(**{**dict(zip(self._fields, self._key(self))), **changes})


def _labels(instance: dict[str, Any]) -> dict[str, Any]:
    return {key: value for key, value in instance.items() if key != "A"}


def _closed_form(
    sides: Callable[[CubeParams, range, range, int], Iterator[NuRow]],
    least_nu: int,
) -> Cell:
    """A cell whose whole (nu, k) grid `sides(params, nus, ks, guard)` evaluates
    at once, one NuRow per nu. A cell refused by the guard, which `sides` does
    before its first row, gives every grid point an error row."""

    def cell(cfg: SweepConfig, q: int, n: int, instance: dict[str, Any], guard: int) -> Outcomes:
        nus, ks = _clip(cfg.nu_range, least_nu, n), _clip(cfg.k_range, 0, n)
        try:
            for row in sides(CubeParams(q, n), nus, ks, guard):
                yield {"q": q, "n": n, "nu": row.nu}, row
        except SizeGuardError as exc:
            for nu in nus:
                for k in ks:
                    yield {"q": q, "n": n, "nu": nu, "k": k}, exc

    return cell


def _evenweight(form: str) -> Cell:
    """The cell of one even-weight form: at q = 2, one row of both sides at
    every k >= 1 (closed.evenweight_cell), with params (q, n). Like the
    check at one point, it is unguarded."""

    def cell(cfg: SweepConfig, q: int, n: int, instance: dict[str, Any], guard: int) -> Outcomes:
        ks = _clip(cfg.k_range, 1, n)
        if q == 2 and ks:
            yield {"q": q, "n": n}, evenweight_cell(n, ks, form)

    return cell


def _bounds_cell(
    cfg: SweepConfig, q: int, n: int, instance: dict[str, Any], guard: int
) -> Outcomes:
    if q != 2:
        return
    A = instance["A"]
    params = {"q": 2, "n": n, "m": len(A), **_labels(instance)}
    try:
        b = _rank_module.rank_bounds(A, guard)
    except SizeGuardError as exc:
        yield params, exc
        return
    passed = b.lower <= b.exact_rank <= b.upper
    yield params, {
        "rank": str(b.exact_rank),
        "lower": str(b.lower),
        "upper": str(b.upper),
        "passed": passed,
        "status": "pass" if passed else "fail",
    }


def _family(name: str) -> Cell:
    """The cell of a family identity: its points on the instance's set at
    each k of the cell, one pass over the set (identities.family_points)."""

    def cell(cfg: SweepConfig, q: int, n: int, instance: dict[str, Any], guard: int) -> Outcomes:
        ks = _clip(cfg.k_range, 0, n)
        return identities.family_points(name, instance["A"], ks, cfg.s_range, guard, _labels(instance))

    return cell


# The family identities are one table-driven cell each (_family), the closed
# forms one packed row per nu or n (_closed_form, _evenweight), and bounds one
# row per family set. The evaluators look the engine functions up at call
# time, so that a wrapper installed on a module attribute sees the calls.
SWEEP_IDENTITIES: dict[str, SweepIdentity] = {
    "main": SweepIdentity(_family("main"), family=True),
    "corollary1": SweepIdentity(_family("corollary1"), family=True),
    "corollary2": SweepIdentity(_family("corollary2"), family=True),
    "corollary3": SweepIdentity(_family("corollary3"), family=True),
    "vandermonde": SweepIdentity(_closed_form(vandermonde_cell, 0)),
    "chu_vandermonde_generalized": SweepIdentity(_closed_form(chu_vandermonde_generalized_cell, 1)),
    "evenweight_printed": SweepIdentity(_evenweight("printed"), erratum=True),
    "evenweight_corrected": SweepIdentity(_evenweight("corrected")),
    "bounds": SweepIdentity(_bounds_cell, family=True),
    "lemma_face_count": SweepIdentity(_family("lemma_face_count"), family=True),
}


def _sweep_rows(cfg: SweepConfig, guard: int) -> Iterator[tuple[str, int, str]]:
    """Yield the rows' lines in order, as (status, count, text): `count`
    lines of that status, each ended by a newline. One (q, n) cell is
    evaluated at a time, after building every cell's family instances, so
    that a bad family template raises before any row."""
    n_lo, n_hi = cfg.n_range
    cells = [(q, n) for q in cfg.qs for n in range(n_lo, n_hi + 1)]
    instances: dict[tuple[int, int], list[dict[str, Any]]] = {}
    if any(SWEEP_IDENTITIES[identity].family for identity in cfg.identities):
        # Every family identity shares one build of each cell's instances.
        instances = {
            cell: list(_family_instances(cfg, *cell, guard)) for cell in dict.fromkeys(cells)
        }
    for identity in cfg.identities:
        entry = SWEEP_IDENTITIES[identity]
        for q, n in cells:
            for instance in instances[q, n] if entry.family else [{}]:
                for params, outcome in entry.cell(cfg, q, n, instance, guard):
                    if isinstance(outcome, NuRow):
                        yield from _nu_rows(identity, entry.erratum, params, outcome)
                    else:
                        status, line = _sweep_line(identity, entry.erratum, params, outcome)
                        yield status, 1, line + "\n"


def _nu_rows(
    identity: str, erratum: bool, params: dict[str, int], row: NuRow
) -> Iterator[tuple[str, int, str]]:
    """The lines of one nu row's points, as _sweep_rows yields them: in one
    piece if _nu_row_text writes them, else one point at a time."""
    text = _nu_row_text(identity, params, row)
    if text is None:
        for k, lhs, rhs in row.points():
            status, line = _sweep_line(identity, erratum, {**params, "k": k}, (lhs, rhs))
            yield status, 1, line + "\n"
    elif text:
        yield "pass", len(row.ks), text


@lru_cache(maxsize=1)
def _decimals(side: int, ks: range, width: int) -> list[str]:
    """str() of a packed side's limbs at each k in ks. The last one is kept,
    so a side shared by every nu of a cell (Vandermonde's) is converted once."""
    return list(map(str, limbs(side, ks, width)))


# No line holds a NUL: json_line escapes control characters. It marks the
# slots when a skeleton is cut from the row template.
_SLOT = "\0"


@lru_cache(maxsize=1)
def _skeleton(identity: str, q: int, n: int, ks: range, nu: bool) -> tuple[str, ...]:
    """The lines of a passing row of a closed-form cell at q and n, one per k
    in ks, as text pieces around empty slots: pieces 1, 3 and 5 of every six
    are a line's lhs, nu and rhs. A row without nu (an even-weight form's)
    keeps its nu slot empty, just before its rhs. The row template, filled
    with q, n and a sentinel in every slot, is filled with each k in turn
    and split on the sentinel, so the lines keep the template's layout. The
    last skeleton is kept, so the rows of one cell share it."""
    keys = ("q", "n", "nu", "k") if nu else ("q", "n", "k")
    fmt, order = _row_template(identity, "pass", keys, ("k", "nu"))
    # k's field is given "%d", so the line is a format of k.
    values = {"q": q, "n": n, "nu": _SLOT, "k": "%d"}
    line = fmt % (_SLOT, *[values[key] for key in order], _SLOT if nu else _SLOT * 2) + "\n"
    texts = ((line * len(ks)) % tuple(ks)).split(_SLOT)
    pieces = [""] * (2 * len(texts) - 1)
    pieces[::2] = texts
    return tuple(pieces)


def _nu_row_text(identity: str, params: dict[str, int], row: NuRow) -> Optional[str]:
    """The lines of the points params + {"k": k}, for each k in row.ks, when
    the two sides are equal and str() converts them, else None. Equal packed
    sides are equal at every k, so each coefficient is converted once and its
    text fills both sides, and the rows pass. The cell's skeleton (_skeleton)
    holds the rest of the text, with k, q and n in it, so a row fills its
    slots with the digits and nu and joins the pieces once. The text ends
    with a newline unless it is empty."""
    if row.lhs != row.rhs:
        return None
    try:
        digits = _decimals(row.rhs, row.ks, row.width)
    except ValueError:
        return None
    pieces = list(_skeleton(identity, params["q"], params["n"], row.ks, row.nu is not None))
    pieces[1::6] = digits
    if row.nu is not None:
        pieces[3::6] = ["%d" % params["nu"]] * len(digits)
    pieces[5::6] = digits
    return "".join(pieces)


def _status(equal: bool, erratum: bool) -> str:
    if equal:
        return "pass"
    return "known_erratum" if erratum else "fail"


@lru_cache(maxsize=None)
def _row_template(
    identity: str, status: str, keys: tuple[str, ...], slots: tuple[str, ...] = ()
) -> tuple[str, tuple[str, ...]]:
    """The %-format of the line of an (lhs, rhs) row with these param keys, and
    the keys in sorted order. Like json_line, it writes the row's keys and the
    params' keys in sorted order. Filled with (lhs, *params, rhs), the sides
    as %s and the params as %d, it is the line; the params named in `slots`
    are %s fields too, to be filled with their text. Identity names,
    statuses and param keys hold no '%'."""
    order = tuple(sorted(keys))
    equal = json_line(status == "pass")
    params = ",".join(f"{json_line(key)}:%{'s' if key in slots else 'd'}" for key in order)
    fmt = (
        f'{{"equal":{equal},"identity":{json_line(identity)},"lhs":"%s","params":{{{params}}},'
        f'"passed":{equal},"rhs":"%s","status":{json_line(status)}}}'
    )
    return fmt, order


def _sweep_line(
    identity: str, erratum: bool, params: dict[str, Any], outcome: Any
) -> tuple[str, str]:
    """The status and line of one grid point's row: json_line(_sweep_row(...)).
    An (lhs, rhs) row is written by filling its template instead, unless a
    side has more digits than str() converts; _sweep_row prints it in full."""
    if isinstance(outcome, tuple):
        lhs, rhs = outcome
        status = _status(lhs == rhs, erratum)
        fmt, keys = _row_template(identity, status, tuple(params))
        try:
            return status, fmt % (lhs, *[params[key] for key in keys], rhs)
        except ValueError:
            pass
    row = _sweep_row(identity, erratum, params, outcome)
    return row["status"], json_line(row)


def _sweep_row(
    identity: str, erratum: bool, params: dict[str, Any], outcome: Any
) -> dict[str, Any]:
    """The row of one grid point from its params and outcome (see SweepIdentity);
    the oracle of _sweep_line's templates."""
    if isinstance(outcome, SizeGuardError):
        return {
            "identity": identity,
            "params": params,
            "error": str(outcome),
            "passed": False,
            "status": "error",
        }
    if isinstance(outcome, dict):
        return {"identity": identity, "params": params, **outcome}
    lhs, rhs = outcome
    equal = lhs == rhs
    return {
        "identity": identity,
        "params": params,
        "lhs": decimal(lhs),
        "rhs": decimal(rhs),
        "equal": equal,
        "passed": equal,
        "status": _status(equal, erratum),
    }

