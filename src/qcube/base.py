"""The primitives every qcube command uses, and nothing more: the errors, the
size guard, the binomial, the frozen record base and CubeParams, the integer
text helpers, and the reader of text input in pieces.

A closed-form sweep needs these and no point set, so they live apart from
core, which holds the points, point sets, faces, the point-text parser and
the writer: such a sweep never executes core (see the package docstring).
core imports the public names here, so each qcube.core path of them is the
same object.
"""

from __future__ import annotations

import codecs
import io
import math
import sys
from functools import partial
from operator import attrgetter
from os import PathLike
from typing import Any, BinaryIO, Iterable, Iterator, Optional, TextIO


class CubeError(ValueError):
    """Malformed or mismatched cube data."""


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


_PARSE_CHUNK = 1 << 16


def text_pieces(text: str) -> Iterator[str]:
    """A whole text in pieces for core.parse_pointset: chunks of
    _PARSE_CHUNK characters, cut by _pieces, as read_pieces cuts reads."""
    return _pieces(text[i : i + _PARSE_CHUNK] for i in range(0, len(text), _PARSE_CHUNK))


def _pieces(chunks: Iterable[str]) -> Iterator[str]:
    """The text of the chunks again, in pieces that each end just after a
    "\n", the last aside: what follows a chunk's last "\n" is carried into
    the next piece. So no line, and no "\r\n", is cut, and the pieces' lines
    are the text's lines."""
    held: list[str] = []
    for chunk in chunks:
        cut = chunk.rfind("\n") + 1
        if cut:
            held.append(chunk[:cut])
            yield "".join(held)
            held = []
        held.append(chunk[cut:])
    tail = "".join(held)
    if tail:
        yield tail


def read_pieces(source: TextIO | str | PathLike[str]) -> Iterator[str]:
    """The text of an open text stream, or of the file at a path, a str (or
    an os.PathLike), opened with open(path), in pieces for
    core.parse_pointset. About _PARSE_CHUNK bytes are read at a time, and
    cut into pieces by _pieces.

    The bytes below the stream are decoded with its encoding and errors, as
    its read() decodes them, and "\r\n" and "\r" become "\n", as they do in
    open(path).read(). A byte the decoding refuses is named by its position in
    the whole input, as decoding it at once names it. A stream with no bytes
    below it, such as io.StringIO, is read as text."""
    if not isinstance(source, io.TextIOBase):
        with open(source) as stream:
            yield from read_pieces(stream)
        return
    raw = getattr(source, "buffer", None)
    if raw is None:
        yield from _pieces(iter(partial(source.read, _PARSE_CHUNK), ""))
    else:
        yield from _pieces(_reads(raw, source.encoding, source.errors))


def _reads(raw: BinaryIO, encoding: str, errors: str) -> Iterator[str]:
    """Each read of _PARSE_CHUNK bytes, decoded, the empty read at the end
    of the input last and final."""
    decoder = codecs.getincrementaldecoder(encoding)(errors)
    decode = io.IncrementalNewlineDecoder(decoder, True).decode
    done = 0  # bytes read before data
    while True:
        data = raw.read(_PARSE_CHUNK)
        try:
            text = decode(data, not data)
        except UnicodeDecodeError as exc:
            # exc counts from the decoder's held bytes; the zeros put the
            # refused bytes at their place in the whole input for str(exc).
            skip = done - len(decoder.getstate()[0])
            raise UnicodeDecodeError(
                exc.encoding, bytes(skip) + exc.object, exc.start + skip, exc.end + skip, exc.reason
            ) from None
        yield text
        if not data:
            return
        done += len(data)
