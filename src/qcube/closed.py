"""The closed-form sweep cells: both sides of the Vandermonde identity, of its
q-ary generalization and of the even-weight pair identity, at every point of
a (nu, k) grid at once, each side Kronecker-packed into one int per nu (NuRow).

Only a closed-form sweep and the tests use these, so a sweep of closed forms
executes cli, base, this module and sweep, and neither families nor core. The
per-point checks (families.check_vandermonde, check_chu_vandermonde_generalized
and check_evenweight_identity) are the cells' oracles and stay in families.
"""

from __future__ import annotations

from itertools import repeat
from math import comb
from operator import itemgetter, lshift, mul
from struct import iter_unpack
from typing import Iterator, NamedTuple, Optional

from .base import DEFAULT_GUARD, CubeError, CubeParams, binom, check_guard

EVENWEIGHT_FORMS = ("printed", "corrected")


def _limb_bytes(largest: int) -> int:
    """Bytes per limb of a Kronecker-packed polynomial whose coefficients,
    and those of every product and sum formed from it, are at most `largest`."""
    return (largest.bit_length() + 7) // 8


def _pascal_rows(n: int, width: int) -> list[int]:
    """Row j packs C(j, 0..j) into limbs of `width` bytes: (1+x)^j at x = 2^(8*width)."""
    rows = [1]
    for _ in range(n):
        rows.append(rows[-1] + (rows[-1] << 8 * width))
    return rows


def _check_cell_range(values: range, least: int, n: int, name: str) -> None:
    if values and not least <= min(values) <= max(values) <= n:
        raise CubeError(f"{name} must lie in [{least}, {n}], got {values}")


def _check_cell_cost(n: int, bits: int, guard: int) -> None:
    """Refuse a cell whose packed Pascal rows 0..n take more 64-bit words than
    the guard: (n+1)(n+2)/2 limbs, each of at most ceil(bits/64) words when no
    coefficient needs more than `bits` bits."""
    check_guard((n + 1) * (n + 2) // 2 * -(-bits // 64), guard)


def limbs(packed: int, ks: range, width: int) -> list[int]:
    """The limbs of a packed polynomial with nonnegative coefficients at each
    k in ks. The limbs from min(ks) to max(ks) are cut apart and converted in
    C (struct.iter_unpack, int.from_bytes), then ks's step picks among them."""
    if not ks:
        return []
    lo, count = min(ks[0], ks[-1]), abs(ks[-1] - ks[0]) + 1
    raw = ((packed >> 8 * width * lo) & ((1 << 8 * width * count) - 1)).to_bytes(count * width, "little")
    values = list(map(int.from_bytes, map(itemgetter(0), iter_unpack(f"{width}s", raw)), repeat("little")))
    return values if ks.step == 1 else values[ks[0] - lo :: ks.step]


class NuRow(NamedTuple):
    """Both sides of a closed-form identity at one nu, for each k in ks. Each
    side is Kronecker-packed: limb k, of `width` bytes, is that side at
    (nu, k), for every k from 0 to n. The limbs are nonnegative and each holds
    its coefficient, so the packing is injective: lhs == rhs exactly when the
    two sides agree at every k, and then they agree at each k in ks. An
    identity without nu (the even-weight pair) has nu None."""

    nu: Optional[int]
    ks: range
    lhs: int
    rhs: int
    width: int

    def points(self) -> Iterator[tuple[int, int, int]]:
        """(k, lhs, rhs) at each k in ks."""
        return zip(self.ks, limbs(self.lhs, self.ks, self.width), limbs(self.rhs, self.ks, self.width))


def vandermonde_cell(
    params: CubeParams, nus: range, ks: range, guard: int = DEFAULT_GUARD
) -> Iterator[NuRow]:
    """The sides of check_vandermonde at each nu in nus and each k in ks, one
    NuRow per nu. Each nu's left sides for every k are one product of packed
    Pascal rows, row[nu] * row[n-nu]; the right sides are row[n], the same
    int at every nu. The rows' size is checked against the guard before the
    first is built."""
    n = params.n
    _check_cell_range(nus, 0, n, "nu")
    _check_cell_range(ks, 0, n, "k")
    _check_cell_cost(n, n + 1, guard)
    width = _limb_bytes(2**n)  # every coefficient is some C(n, k) <= 2^n
    rows = _pascal_rows(n, width)
    for nu in nus:
        yield NuRow(nu, ks, rows[nu] * rows[n - nu], rows[n], width)


def chu_vandermonde_generalized_cell(
    params: CubeParams, nus: range, ks: range, guard: int = DEFAULT_GUARD
) -> Iterator[NuRow]:
    """The sides of check_chu_vandermonde_generalized at each nu in nus and
    each k in ks, one NuRow per nu, with the sides kept apart: the left sides
    are one product, the packed weights (q^i-1)*C(nu,i) times row[n-nu]; the
    right sides are one sum of packed rows, (q-1)^i*C(nu,i)*row[n-i] shifted
    by i limbs. Each side's i-th term without its binomial and unshifted,
    q^i-1 and (q-1)^i*row[n-i], is formed once per cell in a term table;
    each nu takes C(nu, i) from math.comb, and each product of a binomial
    and a term is shifted by i limbs as it is summed, all in C. So a table
    holds no zero limbs, and no product multiplies them. The rows' size is
    checked against the guard before (q+1)^n or the first row is built."""
    n, q = params.n, params.q
    _check_cell_range(nus, 1, n, "nu")
    _check_cell_range(ks, 0, n, "k")
    # The estimate counts limbs of bn + n + 1 bits, b = (q-1).bit_length(), more
    # than (q+1)^n <= 2^(bn+n) needs; it is kept so that refusals stay put.
    _check_cell_cost(n, n * (q - 1).bit_length() + n + 1, guard)
    # Each coefficient, term and partial sum of a side is at most that side at
    # x = 1, ((q+1)^nu - 2^nu) * 2^(n-nu) <= (q+1)^n, as is each C(n, k) <= 2^n.
    width = _limb_bytes((q + 1) ** n)
    bits = 8 * width
    rows = _pascal_rows(n, width)
    steps = range(1, max(nus, default=0) + 1)  # i, up to the largest nu
    shifts = [bits * i for i in steps]
    lhs_terms = [q**i - 1 for i in steps]
    rhs_terms = [(q - 1) ** i * rows[n - i] for i in steps]
    for nu in nus:
        c = list(map(comb, repeat(nu), range(1, nu + 1)))  # C(nu, i) for i = 1..nu
        lhs = sum(map(lshift, map(mul, c, lhs_terms), shifts)) * rows[n - nu]
        yield NuRow(nu, ks, lhs, sum(map(lshift, map(mul, c, rhs_terms), shifts)), width)



def evenweight_cell(n: int, ks: range, form: str = "corrected") -> NuRow:
    """The sides of check_evenweight_identity(n, k, form) at each k in ks, as
    one NuRow with nu None; every k is at least 1, where the identity is
    defined, and both sides' limb 0 is 0.

    The right side is the sum over i >= 1 of C(n, 2i) * row[n-2i] shifted by
    2i limbs, the Pascal rows built one from the last, so that only one is
    held at a time. The left side packs (2^(k-1)-1) * C(n, k) at each k >= 1,
    C(n, k) read from row[n]; the printed form's is that times 2^(n-1), which
    multiplies every limb. Like the check at one point, the cell is unguarded:
    it holds O(1) rows of n+1 limbs of about 3n bits."""
    if form not in EVENWEIGHT_FORMS:
        raise CubeError(f"form must be one of {EVENWEIGHT_FORMS}, got {form!r}")
    if n < 1:
        raise CubeError(f"n must be >= 1, got {n}")
    _check_cell_range(ks, 1, n, "k")
    # C(n, k) <= 2^n, and the right side at k is at most the sum over i of
    # C(n, 2i) * 2^(n-2i) <= 2^(2n), as is every partial sum; the printed
    # left side is at most 2^(k-1) * 2^n * 2^(n-1) < 2^(3n).
    width = _limb_bytes(1 << 3 * n)
    bits = 8 * width
    row, rhs = 1, 0  # row[j], packed, for j = 0..n
    for j in range(n):
        if (n - j) % 2 == 0:
            rhs += (binom(n, n - j) * row) << bits * (n - j)
        row += row << bits
    weights = [(1 << (k - 1)) - 1 for k in range(1, n + 1)]
    products = map(mul, weights, limbs(row, range(1, n + 1), width))
    packed = b"".join(map(int.to_bytes, products, repeat(width), repeat("little")))
    lhs = int.from_bytes(packed, "little") << bits  # limb 0 is 0
    if form == "printed":
        lhs <<= n - 1
    return NuRow(None, ks, lhs, rhs, width)
