"""Domain types and exact integer combinatorics for q-valued cubes.

Everything here is pure and immutable: points, point sets (stored as packed
ints, see below), and faces of the cube E_q^n (vectors of length n over
{0, ..., q-1}), plus the binomial and Hamming primitives the rest of the
package is built on. No floating point.

Packed layout: a point packs into one int with w = (q-1).bit_length() bits
per coordinate, coordinate 0 in the most significant block, so packed ints
sort like coordinate tuples. The layout is decided here only; other modules
go through PointSet.packed, column_mask, block_fold and PointSet.slices, and
the faces module's dense fold reads the block width w to address the cells
below 2**(n*w), where a packed point is a bit position.

Bit-sliced form: PointSet.slices holds, for each coordinate j and each value
v that occurs there, one int whose bit i is set when point i has coordinate
j equal to v (value_slices builds it from the packed ints, a chunk of rows at
a time; slices_cost estimates its size). Intersecting those bitsets splits
the set by its values on several positions at once: the faces module's walk
visits the fixed-position prefixes of the k-faces that way, for one k or a
range of k at once, when a cost estimate from (q, n, k, m) puts it below
grouping projections, and rank.distance_total reads each column's value
counts as their popcounts.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from itertools import chain, product, repeat
from operator import attrgetter, eq, itemgetter, lt, mul
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional


class CubeError(ValueError):
    """Malformed or mismatched cube data."""


class ParseError(CubeError):
    """Point-set text that could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SizeGuardError(CubeError):
    """Instance too large: the configured operation budget would be exceeded."""


class ConsistencyError(RuntimeError):
    """An internal invariant that should be unreachable was violated."""


DEFAULT_GUARD = 10_000_000

# The most bytes a bit-sliced kernel's route may hold at once: the subset-rank
# histogram's sliced route and the face distribution's dense fold route are
# picked only when their bound on what they hold is within it.
KERNEL_MEMORY_CAP = 16 << 20


def check_guard(ops: int, guard: int = DEFAULT_GUARD) -> None:
    """Raise SizeGuardError if an operation estimate exceeds the budget. An
    estimate too long for str() is named by a power of ten below it, since
    converting it in full (decimal) can take seconds."""
    if ops > guard:
        try:
            about = f"about {ops}"
        except ValueError:
            about = _more_than(ops.bit_length())
        _refuse(about, guard)


def _more_than(bits: int) -> str:
    # 0.30102999566 < log10(2), so 10**e <= 2**(bits-1) <= an estimate of bits bits
    return f"more than 10^{(bits - 1) * 30102999566 // 10**11}"


def _refuse(about: str, guard: int) -> None:
    raise SizeGuardError(f"instance too large: {about} elementary operations, guard is {guard}")


def check_guard_power(base: int, exp: int, guard: int = DEFAULT_GUARD, factor: int = 1) -> None:
    """check_guard(factor * base**exp, guard), for base >= 2 and exp, factor
    >= 0, without building the power when bit lengths alone refuse it.

    factor * base**exp has at least exp*(bit_length(base) - 1) +
    bit_length(factor) bits. When that is more than the guard's and more
    than str() converts, the estimate is refused unbuilt, and named by its
    exact bit length as check_guard names it (_power_bit_length). Otherwise
    the power is at most about twice the size of those bounds, and is built
    and checked as before."""
    if not factor:
        return
    low = exp * (base.bit_length() - 1) + factor.bit_length()
    limit = sys.get_int_max_str_digits()
    # 3.322 > log2(10): from low - 1 >= 3.322*limit bits on, str() refuses it
    if low <= guard.bit_length() or not limit or (low - 1) * 1000 < limit * 3322:
        check_guard(factor * base**exp, guard)
    else:
        _refuse(_more_than(_power_bit_length(base, exp, factor)), guard)


def _power_bit_length(base: int, exp: int, factor: int) -> int:
    """(factor * base**exp).bit_length(), from its leading bits: the power is
    taken by squaring on mantissas cut to p bits, once rounded down and once
    up, with the dropped bits counted apart, so that the two results bound
    it. Their bit lengths agree unless the power lies within a relative
    2**-60 or so of a power of two; then it is built."""
    p = 64 + 2 * exp.bit_length()

    def cut(x: int, shift: int, up: bool) -> tuple[int, int]:
        drop = x.bit_length() - p
        if drop <= 0:
            return x, shift
        y = x >> drop
        return y + (up and y << drop != x), shift + drop

    bounds = []
    for up in (False, True):
        (acc, s), (b, t), e = (factor, 0), (base, 0), exp
        while e:
            if e & 1:
                acc, s = cut(acc * b, s + t, up)
            e >>= 1
            if e:
                b, t = cut(b * b, 2 * t, up)
        bounds.append(acc.bit_length() + s)
    low, high = bounds
    return low if low == high else (factor * base**exp).bit_length()


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), zero-extended: 0 whenever k < 0 or k > n.

    A negative n is a usage error, not a value in the extended convention.
    """
    if n < 0:
        raise ValueError(f"binom requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


class _Record:
    """Base of the package's frozen value classes, in place of frozen
    dataclasses, whose module costs every command milliseconds to import
    and each decorated class more. Equality, hashing and repr come from the
    attributes named in `_fields` (two or more), in order, as a frozen
    dataclass derives them from its fields: instances are equal when they
    are of the same class and their fields are, and the hash is that of the
    fields' tuple, so a record with an unhashable field is unhashable. Each
    class's __init__ checks its arguments and stores the fields with _set;
    assigning or deleting an attribute afterwards raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # The fields' tuple, read in C; an attrgetter is no descriptor, so
        # it is called as self._key(self).
        cls._key = attrgetter(*cls._fields)

    def _set(self, **fields: Any) -> None:
        self.__dict__.update(fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class CubeParams(_Record):
    """Alphabet size q >= 2 and dimension n >= 0."""

    _fields = ("q", "n")
    q: int
    n: int

    def __init__(self, q: int, n: int) -> None:
        if q < 2:
            raise CubeError(f"alphabet size q must be >= 2, got {q}")
        if n < 0:
            raise CubeError(f"dimension n must be >= 0, got {n}")
        self._set(q=q, n=n)

    @property
    def volume(self) -> int:
        """Number of points of the cube, q**n."""
        return self.q**self.n


def is_int(value: object) -> bool:
    """An int that is not a bool (bool subclasses int; JSON true/false load as bool)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_row(params: CubeParams, coords: tuple[int, ...]) -> None:
    if len(coords) != params.n:
        raise CubeError(
            f"point has {len(coords)} coordinates, cube dimension is {params.n}"
        )
    q = params.q
    for c in coords:
        if not is_int(c) or not 0 <= c < q:
            raise CubeError(f"coordinate {c!r} out of range for q={q}")


class Point(_Record):
    """One vector of the cube. Equality compares the owning cube and coordinates."""

    _fields = ("params", "coords")
    params: CubeParams
    coords: tuple[int, ...]

    def __init__(self, params: CubeParams, coords: Iterable[int]) -> None:
        coords = tuple(coords)
        _check_row(params, coords)
        self._set(params=params, coords=coords)


class PointSet(_Record):
    """A deduplicated set of points of one cube, stored as packed ints.

    `packed` holds the points in the packed layout (see the module docstring),
    distinct and in increasing order, which is the lexicographic order of the
    rows, so equal sets compare and hash equal regardless of construction order.
    May be empty. Each given row is checked once (length n, int coordinates in
    [0, q)) and packed. `rows` decodes the ints on first use, and Point objects
    are built only for `points`, iteration and `in`.
    """

    _fields = ("params", "packed")
    params: CubeParams
    packed: tuple[int, ...]

    def __init__(self, params: CubeParams, rows: Iterable[Iterable[int]]) -> None:
        w, n = _block_width(params), params.n
        weights = [1 << (w * (n - 1 - j)) for j in range(n)]
        packed = []
        for row in map(tuple, rows):
            _check_row(params, row)
            packed.append(sum(map(mul, row, weights)))
        self._init_packed(params, packed)

    def _init_packed(self, params: CubeParams, packed: Iterable[int]) -> None:
        """Store the distinct packed ints, checked by the caller, in increasing order."""
        self._set(params=params, packed=tuple(sorted(set(packed))))

    @classmethod
    def from_coords(cls, params: CubeParams, coords: Iterable[Iterable[int]]) -> "PointSet":
        return cls(params, tuple(coords))

    def __len__(self) -> int:
        return len(self.packed)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def coord_rows(self) -> tuple[tuple[int, ...], ...]:
        """The coordinate matrix: one row per point, canonical order."""
        return self.rows

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The packed ints decoded into coordinate tuples, canonical order;
        built on first use."""
        w, n = _block_width(self.params), self.params.n
        block = (1 << w) - 1
        shifts = [w * (n - 1 - j) for j in range(n)]
        return tuple([tuple([x >> s & block for s in shifts]) for x in self.packed])

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """The rows as Point objects, canonical order; built on first use."""
        return tuple(Point(self.params, row) for row in self.rows)

    @cached_property
    def slices(self) -> tuple[tuple[int, ...], ...]:
        """The set's value bitsets, one bit per point in canonical order:
        slices[j] holds the bitset of each value that occurs at coordinate
        j, in increasing order of value. Built on first use, see
        value_slices."""
        return value_slices(self.params, self.packed)


def _block_width(params: CubeParams) -> int:
    return (params.q - 1).bit_length()


_SLICE_CHUNK = 8192


def value_slices(params: CubeParams, packed: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Bit-sliced form of packed rows: slices[j] holds, in increasing order
    of the value v, one int for each value that occurs at coordinate j, with
    bit i set when packed[i] has coordinate j equal to v.

    The rows are formatted as n*w-bit strings, about 8 192 at a time, and
    joined back to front, so that every (n*w+3)-th character from one offset
    is one bit plane of the chunk with its first row lowest. Each column is
    then split by its block's w planes, most significant first, keeping only
    nonempty parts. This holds no Python object per row, decodes no
    coordinates and never counts up to q; see slices_cost for its size.
    """
    n, w = params.n, _block_width(params)
    width = n * w
    planes = [0] * width
    if width:
        # bin() of a row with a sentinel bit above its n*w bits is "0b1" and
        # then exactly those bits, so every row takes width + 3 characters.
        sentinel = (1 << width).__or__
        for start in range(0, len(packed), _SLICE_CHUNK):
            chunk = packed[start : start + _SLICE_CHUNK]
            text = "".join(map(bin, map(sentinel, chunk)))[::-1]
            for b in range(width):
                planes[b] |= int(text[width - 1 - b :: width + 3], 2) << start
    every = [(1 << len(packed)) - 1] if packed else []
    slices = []
    for j in range(n):
        column = every
        for plane in planes[j * w : (j + 1) * w]:
            split = []
            for s in column:
                high = s & plane
                split += (s ^ high, high)
            column = [s for s in split if s]
        slices.append(tuple(column))
    return tuple(slices)


def slices_cost(params: CubeParams, m: int) -> int:
    """Estimate of building PointSet.slices for m points, in the unit of the
    packed projections it replaces: n*min(q, m) bitsets of m bits at most,
    one projection per 16 bits."""
    return params.n * min(params.q, m) * m // 16


def column_mask(params: CubeParams, positions: Iterable[int]) -> int:
    """Packed mask with every bit of the given coordinates' blocks set, so
    that `packed & mask` projects a row onto those coordinates."""
    w, n = _block_width(params), params.n
    block = (1 << w) - 1
    mask = 0
    for j in positions:
        mask |= block << (w * (n - 1 - j))
    return mask


def block_fold(params: CubeParams) -> Callable[[int], int]:
    """The per-block fold of the packed layout: maps a packed int to one with
    a single bit per coordinate block, set when that block is non-zero. So
    fold(a ^ b).bit_count() is the Hamming distance of two packed rows, and
    folding commutes with OR."""
    w = _block_width(params)
    ones = sum(1 << (w * i) for i in range(params.n))
    high = ones << (w - 1)
    rest = ones * ((1 << (w - 1)) - 1)
    # Adding `rest` to a block's low w-1 bits carries into its top bit exactly
    # when they are non-zero, and never out of the block (TAOCP 7.1.3).
    return lambda x: (((x & rest) + rest) | x) & high


class Face(_Record):
    """A face of the cube: a set of free positions plus fixed values elsewhere.

    free_positions and the positions of fixed_values partition {0, ..., n-1}.
    fixed_values is normalized to a tuple of int (position, value) pairs
    sorted by position; a mapping may be passed in. The checks run on whole
    columns in C-level passes, and only a refused face is scanned, for the
    pair its message names. Pairs that are int tuples in position order
    already, as families.face_spec builds them, are kept as given.
    """

    _fields = ("params", "free_positions", "fixed_values")
    params: CubeParams
    free_positions: frozenset[int]
    fixed_values: tuple[tuple[int, int], ...]

    def __init__(
        self,
        params: CubeParams,
        free_positions: Iterable[int],
        fixed_values: Mapping[int, int] | Iterable[tuple[int, int]],
    ) -> None:
        free = frozenset(map(int, free_positions))
        fixed = tuple(fixed_values.items() if isinstance(fixed_values, Mapping) else fixed_values)
        if not (
            set(map(type, fixed)) <= {tuple}
            and set(map(len, fixed)) <= {2}
            and set(map(type, chain.from_iterable(fixed))) <= {int}
        ):
            fixed = tuple((int(i), int(v)) for i, v in fixed)
        positions = tuple(map(itemgetter(0), fixed))
        if not all(map(lt, positions, positions[1:])):  # not in position order yet
            fixed = tuple(sorted(fixed))
            positions = tuple(map(itemgetter(0), fixed))
            if any(map(eq, positions, positions[1:])):
                raise CubeError("duplicate fixed position")
        if not free.isdisjoint(positions):
            raise CubeError("a position cannot be both free and fixed")
        # Distinct positions, free or fixed, partition range(n) when there are
        # n of them and none lies outside it.
        n, q = params.n, params.q
        ends = [*positions[:1], *positions[-1:], *free]
        if len(free) + len(positions) != n or ends and not 0 <= min(ends) <= max(ends) < n:
            raise CubeError("free and fixed positions must partition the coordinate set")
        values = tuple(map(itemgetter(1), fixed))
        if values and not 0 <= min(values) <= max(values) < q:
            i, v = next((i, v) for i, v in fixed if not 0 <= v < q)
            raise CubeError(f"fixed value {v} at position {i} out of range for q={q}")
        self._set(params=params, free_positions=free, fixed_values=fixed)

    @property
    def dimension(self) -> int:
        return len(self.free_positions)

    def points(self) -> Iterator[Point]:
        """All q**dimension points of the face."""
        n, q = self.params.n, self.params.q
        free = sorted(self.free_positions)
        base = [0] * n
        for i, v in self.fixed_values:
            base[i] = v
        for vals in product(range(q), repeat=len(free)):
            coords = base[:]
            for i, v in zip(free, vals):
                coords[i] = v
            yield Point(self.params, tuple(coords))


def hamming(a: Point, b: Point) -> int:
    """Number of positions where the two points differ."""
    if a.params != b.params:
        raise CubeError("points live in different cubes")
    return sum(x != y for x, y in zip(a.coords, b.coords))


def decimal(x: int) -> str:
    """str(x) for an int of any size. Python 3.11+ refuses str() of an int
    above sys.get_int_max_str_digits() digits; such an int is split by divmod
    into a high and a low half of its digits, each converted the same way."""
    try:
        return str(x)
    except ValueError:
        pass
    if x < 0:
        return "-" + decimal(-x)
    half = x.bit_length() * 3 // 20  # log10(2) is about 3/10
    high, low = divmod(x, 10**half)
    return decimal(high) + decimal(low).zfill(half)


def abbreviated(digits: str) -> str:
    """A digit string as messages show it: in full up to 20 digits, else its
    first 8 and its length."""
    return digits if len(digits) <= 20 else f"{digits[:8]}… ({len(digits)} digits)"


def int_fields(parts: Iterable[str], q: Optional[int] = None, what: str = "field") -> list[int]:
    """Comma-separated fields as ints. Each field is stripped, then must be an
    optional '-' (so that "-1" reaches the range check) and ASCII digits.

    With q, each field in turn must then be a coordinate in [0, q). A field
    with more digits than q has, leading zeros aside, is refused unconverted:
    int() takes time quadratic in the number of digits, and Python 3.11+
    refuses more than sys.get_int_max_str_digits() of them. Without q, only a
    field with more digits than that is refused, as `what` followed by the
    field."""
    parts = [part.strip() for part in parts]
    for part in parts:
        digits = part.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise CubeError(f"not an integer: {part!r}")
    width = len(str(q)) if q is not None else sys.get_int_max_str_digits()
    coords = []
    for part in parts:
        sign = "-" if part.startswith("-") else ""
        digits = part.removeprefix("-").lstrip("0") or "0"
        if width and len(digits) > width:  # so it is not converted
            if q is None:
                raise CubeError(f"{what} {sign}{abbreviated(digits)} has more than {width} digits")
            raise CubeError(f"coordinate {sign}{abbreviated(digits)} out of range for q={q}")
        c = int(sign + digits)
        if q is not None and not 0 <= c < q:
            raise CubeError(f"coordinate {c} out of range for q={q}")
        coords.append(c)
    return coords


_DIGITS = "0123456789"


def _parse_vector(line: str, params: CubeParams, line_no: int, bits: dict[int, str]) -> int:
    q, n = params.q, params.n
    if "," in line or q > 10:
        parts = line.split(",")
        if len(parts) != n:
            if q > 10 and "," not in line:
                raise ParseError(
                    f"q={q} > 10 requires comma-separated coordinates", line_no
                )
            raise ParseError(f"expected {n} coordinates, got {len(parts)}", line_no)
    else:
        if len(line) != n:
            raise ParseError(f"expected {n} digits, got {len(line)}", line_no)
        if not (line.isascii() and line.isdigit()):
            for ch in line:
                if ch not in _DIGITS:
                    raise ParseError(f"invalid character {ch!r}", line_no)
        if max(line) <= _DIGITS[q - 1]:
            return int(line.translate(bits), 2)
        parts = list(line)  # one digit per coordinate, only for the message below
    try:
        coords = int_fields(parts, q)
    except CubeError as exc:
        raise ParseError(str(exc), line_no) from None
    w = _block_width(params)
    return sum(c << w * (n - 1 - j) for j, c in enumerate(coords))


def _digit_blocks(params: CubeParams) -> dict[int, str]:
    """Each digit below q as its w-bit block, so a digit string packs by int(..., 2)."""
    w = _block_width(params)
    return str.maketrans({d: f"{int(d):0{w}b}" for d in _DIGITS[: params.q]})


def parse_pointset(text: str, params: CubeParams) -> tuple[PointSet, int]:
    """Parse the one-vector-per-line text format.

    For q <= 10 a line may be a compact digit string ("01021"); comma-separated
    coordinates ("0,1,0,2,1") are accepted for any q and are mandatory for
    q > 10; coordinates are ASCII digits. Blank lines and lines starting with
    '#' are ignored. Duplicate vectors are dropped, not rejected.

    For q <= 10 the whole text is tried first as compact lines, each pass
    over all of them at once (_parse_compact). If a line fails, or has a
    comma, the text is parsed a line at a time (_parse_each_line), which
    checks each line once, packs it straight into PointSet.packed, and names
    the first bad line; it is also the only parser for q > 10.

    Returns (pointset, number_of_duplicates_dropped). Errors carry the 1-based
    line number.
    """
    if params.q <= 10:
        parsed = _parse_compact(text, params)
        if parsed is not None:
            return parsed
    return _parse_each_line(text, params)


_PARSE_CHUNK = 4096


def _parse_compact(text: str, params: CubeParams) -> Optional[tuple[PointSet, int]]:
    """parse_pointset of a text whose lines, blank and comment lines aside,
    are all compact, for q <= 10; None if any line is not. The stripped
    lines are checked in C-level passes, each over all of them: each is n
    characters, all ASCII digits. They are then packed by int(..., 2), of
    the line itself for q = 2 and of its _digit_blocks translation
    otherwise, which also checks that every digit is below q: a digit of q
    or more is left as itself, which base 2 refuses.

    The lines are never joined, and once the text's split is freed they are
    the only list of them. They are replaced by their packed ints in place,
    a chunk at a time, so the parse never holds every line and every int at
    once, as _parse_each_line does."""
    n, q = params.n, params.q
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    if lines and not (
        set(map(len, lines)) == {n} and all(map(str.isascii, lines)) and all(map(str.isdigit, lines))
    ):
        return None
    blocks = _digit_blocks(params) if q > 2 else None
    try:
        for start in range(0, len(lines), _PARSE_CHUNK):
            chunk = slice(start, start + _PARSE_CHUNK)
            digits = lines[chunk] if blocks is None else map(str.translate, lines[chunk], repeat(blocks))
            lines[chunk] = map(int, digits, repeat(2))
    except ValueError:  # a digit of q or more
        return None
    A = object.__new__(PointSet)
    A._init_packed(params, lines)  # the packed ints by now
    return A, len(lines) - len(A)


def _parse_each_line(text: str, params: CubeParams) -> tuple[PointSet, int]:
    """parse_pointset a line at a time: the parser for q > 10 and for comma
    lines, the one that names the first bad line, and the oracle of
    _parse_compact."""
    bits = _digit_blocks(params)
    packed: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        packed.append(_parse_vector(line, params, line_no, bits))
    A = object.__new__(PointSet)
    A._init_packed(params, packed)
    return A, len(packed) - len(A)


def serialize_pointset(A: PointSet) -> str:
    """Inverse of parse_pointset: one vector per line, canonical order.

    parse(serialize(A)) == A for every n >= 1. The n = 0 cube has no line
    representation (the empty coordinate string is a blank line), so both the
    empty set and the singleton set serialize to "" there.
    """
    sep = "" if A.params.q <= 10 else ","
    return "\n".join(sep.join(str(c) for c in row) for row in A.rows)
