"""Points, point sets and faces of q-valued cubes, and their text format.

Everything here is pure and immutable: points, point sets (stored as packed
ints, see below), and faces of the cube E_q^n (vectors of length n over
{0, ..., q-1}), the Hamming distance and the point-text parser; the writer,
which only `qcube gen` runs, is qcube.writer. No floating point. The one
mutable part is each point set's memo (PointSet.memo, filled through
identities.per_set and by faces.profile), which keeps what is computed from
that set object for as long as it lives.

The primitives below them (the errors, the guard, binom, CubeParams, the
record base, the integer text helpers and the reader of input in pieces) are
qcube.base's, which a closed-form sweep runs without this module; they are
imported here by name, so each qcube.core path of them is the same object.

Packed layout: a point packs into one int with w = (q-1).bit_length() bits
per coordinate, coordinate 0 in the most significant block, so packed ints
sort like coordinate tuples. The layout is decided here only; other modules
go through PointSet.packed, column_mask, block_fold and PointSet.slices, the
dense fold (qcube.fold) reads the block width w to address the cells below
2**(n*w), where a packed point is a bit position, the writer (qcube.writer)
prints the w-bit blocks as digits, and the families module builds its face
and even-weight sets as packed ints (PointSet._from_packed).

Bit-sliced form: PointSet.slices holds, for each coordinate j and each value
v that occurs there, one int whose bit i is set when point i has coordinate
j equal to v (value_slices builds it from the packed ints, a chunk of rows at
a time; slices_cost estimates its size). Intersecting those bitsets splits
the set by its values on several positions at once: the face walk
(qcube.walk) visits the fixed-position prefixes of the k-faces that way, for
one k or a range of k at once, when a cost estimate from (q, n, k, m) puts
it below grouping projections, and rank.distance_total reads each column's
value counts as their popcounts.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress, product, repeat
from operator import mul, ne
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

# base's names, each also a qcube.core path to the same object.
from .base import (
    DEFAULT_GUARD,
    KERNEL_MEMORY_CAP,
    ConsistencyError,
    CubeError,
    CubeParams,
    SizeGuardError,
    _Record,
    _power_bit_length,
    abbreviated,
    binom,
    check_guard,
    check_guard_power,
    decimal,
    int_fields,
    is_int,
    read_pieces,
    text_pieces,
)


class ParseError(CubeError):
    """Point-set text that could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


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
    are built only for `points`, iteration and `in`. `memo` keeps what is
    computed from this object; it takes no part in equality or hash.
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

    def _init_packed(self, params: CubeParams, packed: list[int]) -> None:
        """Store the packed ints, checked by the caller, distinct and in increasing
        order: the list is sorted in place, and an int equal to the one before it is dropped."""
        packed.sort()
        self._set(params=params, packed=tuple(compress(packed, map(ne, packed, chain((None,), packed)))))

    @classmethod
    def from_coords(cls, params: CubeParams, coords: Iterable[Iterable[int]]) -> "PointSet":
        """The set of the given rows, each checked and packed as it arrives."""
        return cls(params, coords)

    @classmethod
    def _from_packed(cls, params: CubeParams, packed: list[int]) -> "PointSet":
        """The set of packed ints that the caller has checked; see _init_packed."""
        A = object.__new__(cls)
        A._init_packed(params, packed)
        return A

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
        return _decoded_rows(self.params, self.packed)

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

    @cached_property
    def memo(self) -> dict[tuple[Any, ...], Any]:
        """What was computed from this set, by (function, key); built on first
        use. An equal set built apart keeps its own, and the results go when
        the set does."""
        return {}


def _decoded_rows(params: CubeParams, packed: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Packed ints decoded into coordinate tuples, in the given order."""
    w, n = _block_width(params), params.n
    block = (1 << w) - 1
    shifts = [w * (n - 1 - j) for j in range(n)]
    return tuple([tuple([x >> s & block for s in shifts]) for x in packed])


def _block_width(params: CubeParams) -> int:
    return (params.q - 1).bit_length()


_SLICE_CHUNK = 2048


def value_slices(params: CubeParams, packed: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Bit-sliced form of packed rows: slices[j] holds, in increasing order
    of the value v, one int for each value that occurs at coordinate j, with
    bit i set when packed[i] has coordinate j equal to v.

    The rows are formatted as n*w-bit strings, about 2 048 at a time, and
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
    sorted by position; a mapping may be passed in.
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
        items = fixed_values.items() if isinstance(fixed_values, Mapping) else fixed_values
        fixed = tuple(sorted((int(i), int(v)) for i, v in items))
        positions = [i for i, _ in fixed]
        if len(set(positions)) != len(positions):
            raise CubeError("duplicate fixed position")
        if not free.isdisjoint(positions):
            raise CubeError("a position cannot be both free and fixed")
        n, q = params.n, params.q
        if free.union(positions) != set(range(n)):
            raise CubeError("free and fixed positions must partition the coordinate set")
        for i, v in fixed:
            if not 0 <= v < q:
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



_DIGITS = "0123456789"


def _coordinates(line: str, q: int) -> list[str] | str:
    """A data line's coordinates as text: its comma-separated fields, or for
    q <= 10 and a line with no comma, the line itself, a digit each. Their
    number is the line's number of coordinates."""
    return line.split(",") if "," in line or q > 10 else line


def _parse_vector(line: str, params: CubeParams, line_no: int, bits: dict[int, str]) -> int:
    q, n = params.q, params.n
    parts = _coordinates(line, q)
    if parts is not line:
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


def parse_pointset(
    text: str | Iterable[str], params: Optional[CubeParams] = None, *, q: int = 2, n: Optional[int] = None
) -> tuple[PointSet, int]:
    """Parse the one-vector-per-line text format, given whole or as pieces
    that each end just after a line break, the last aside (read_pieces).

    For q <= 10 a line may be a compact digit string ("01021"); comma-separated
    coordinates ("0,1,0,2,1") are accepted for any q and are mandatory for
    q > 10; coordinates are ASCII digits. Blank lines and lines starting with
    '#' are ignored. Duplicate vectors are dropped, not rejected.

    The cube is params, or else E_q^n. When n is None too, n is the number
    of coordinates (_coordinates) of the first line that is neither blank
    nor a comment, and input with no such line is refused.

    A whole text is cut into pieces of about base._PARSE_CHUNK characters
    (text_pieces). For q <= 10 each piece is tried first as compact lines,
    checked and packed in C-level passes (_pack_compact). From the first
    piece with a line that fails, or has a comma, on, pieces are parsed a
    line at a time (_pack_lines), which checks each line once and names the
    first bad line by its number in the whole text; that is also the only
    parser for q > 10. The ints go to one list, so the parse holds the
    finished set's ints and one piece's lines, never the whole text.

    When a line, q or n is refused, the remaining pieces are read first, so
    that an error in reading them (a byte the decoding refuses) is raised
    instead, as when the whole text was read before it was parsed.

    Returns (pointset, number_of_duplicates_dropped). Errors carry the 1-based
    line number.
    """
    if isinstance(text, str):
        pieces = text_pieces(text)
    else:
        pieces = iter(text)
    try:
        if params is None and n is not None:
            params = CubeParams(q, n)
        packed, params = _packed(pieces, params, q)
    except CubeError:
        for _ in pieces:
            pass
        raise
    A = PointSet._from_packed(params, packed)
    return A, len(packed) - len(A)


def _packed(pieces: Iterator[str], params: Optional[CubeParams], q: int) -> tuple[list[int], CubeParams]:
    """The packed int of each line of the pieces that is neither blank nor a
    comment, as parse_pointset reads them, and the cube: params, or E_q^n
    with n read from the first piece that has such a line. No piece is held
    on return, and none after it is parsed."""
    packed: list[int] = []
    compact = True
    line_no = 0  # lines before the piece
    for lines in map(str.splitlines, pieces):
        if params is None:
            first = next((line for line in map(str.strip, lines) if line and line[0] != "#"), None)
            if first is not None:
                params = CubeParams(q, len(_coordinates(first, q)))
        if params is not None:
            bits = _digit_blocks(params)
            compact = compact and params.q <= 10 and _pack_compact(lines, params, bits, packed)
            if not compact:
                _pack_lines(lines, params, line_no + 1, bits, packed)
        line_no += len(lines)
    if params is None:
        raise CubeError("empty input; pass --n to fix the dimension")
    return packed, params



def _pack_compact(lines: list[str], params: CubeParams, bits: dict[int, str], packed: list[int]) -> bool:
    """Append the packed ints of a piece's lines to `packed` and return True
    when, blank and comment lines aside, all are compact (q <= 10); return
    False when one is not.

    The stripped lines are checked in C-level passes, each over all of them:
    each is n characters, all ASCII digits; if one is not, nothing is
    appended. They are then packed by int(..., 2), of the line itself for
    q = 2 and of its _digit_blocks translation otherwise, which also checks
    that every digit is below q: a digit of q or more is left as itself,
    which base 2 refuses. Then some of the piece's ints may have been
    appended, but the per-line parser refuses that digit's line, so the
    parse fails and they are never used."""
    lines = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    if lines and not (
        set(map(len, lines)) == {params.n} and all(map(str.isascii, lines)) and all(map(str.isdigit, lines))
    ):
        return False
    digits = lines if params.q == 2 else map(str.translate, lines, repeat(bits))
    try:
        packed += map(int, digits, repeat(2))
    except ValueError:  # a digit of q or more
        return False
    return True


def _pack_lines(lines: list[str], params: CubeParams, first: int, bits: dict[int, str], packed: list[int]) -> None:
    """Append the packed int of each line that is neither blank nor a comment
    to `packed`, checking it on its own; lines are numbered from `first`."""
    for line_no, raw in enumerate(lines, first):
        line = raw.strip()
        if line and not line.startswith("#"):
            packed.append(_parse_vector(line, params, line_no, bits))
