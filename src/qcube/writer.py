"""The point-text writer: a point set as the one-vector-per-line text that
core.parse_pointset reads, in blocks of rows.

Only `qcube gen` writes point sets, so it alone executes this module; the
parser and the packed layout it writes from stay in core.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator

from .core import PointSet, _block_width, _decoded_rows

# The format() type that writes one digit per w-bit block, by w.
_DIGIT_FORMATS = {1: "b", 3: "o", 4: "x"}
# Each hex digit of a packed row at q = 3, 4 as its two base-4 digits.
_HEX_PAIRS = str.maketrans({f"{v:x}": f"{v >> 2}{v & 3}" for v in range(16)})


# Rows per block of serialized_blocks.
_WRITE_ROWS = 1 << 12


def serialize_pointset(A: PointSet) -> str:
    """Inverse of core.parse_pointset: one vector per line, canonical
    order; the lines of serialized_blocks(A) without the last line's "\n".

    parse(serialize(A)) == A for every n >= 1. The n = 0 cube has no line
    representation (the empty coordinate string is a blank line), so both the
    empty set and the singleton set serialize to "" there.
    """
    return "".join(serialized_blocks(A))[:-1]


def serialized_blocks(A: PointSet) -> Iterator[str]:
    """A's lines, each followed by "\n", in blocks of _WRITE_ROWS lines,
    each written from a slice of PointSet.packed; none for n = 0.

    For q <= 10 the w-bit blocks of a packed int are its digits, so a line is
    written without decoding the row: in binary for q = 2, in octal for
    q = 5..8 and in hex for q = 9, 10 (one digit per block), and for q = 3, 4
    in hex turned into digit pairs, the leading pad digit of an odd n
    dropped. Above q = 10 a block's rows are decoded and their coordinates
    joined by commas."""
    q, n = A.params.q, A.params.n
    if not n:
        return
    w = _block_width(A.params)
    for start in range(0, len(A.packed), _WRITE_ROWS):
        rows = A.packed[start : start + _WRITE_ROWS]
        if q > 10:
            yield "".join([",".join(map(str, row)) + "\n" for row in _decoded_rows(A.params, rows)])
        elif w != 2:
            yield "\n".join([*map(format, rows, repeat(f"0{n}{_DIGIT_FORMATS[w]}")), ""])
        else:
            text = "\n".join([*map(format, rows, repeat(f"0{(n + 1) // 2}x")), ""]).translate(_HEX_PAIRS)
            yield ("\n" + text).replace("\n0", "\n")[1:] if n % 2 else text
