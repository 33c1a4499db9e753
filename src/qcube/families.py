"""Structured point-set generators, their closed-form distributions, and the
binomial identities those distributions imply.

Families: a full sub-face, the binary even-weight set, seeded uniform random
subsets, and sets loaded from a file. The closed forms are verified against
the enumeration path in the test suite; any divergence is resolved in favour
of enumeration.
"""

from __future__ import annotations

import random
import sys
from itertools import filterfalse, product, repeat
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

from . import faces, identities  # module handles: gen executes neither
from .core import (
    DEFAULT_GUARD,
    CubeError,
    CubeParams,
    Face,
    PointSet,
    _Record,
    binom,
    check_guard,
    check_guard_power,
    decimal,
)
from .core import parse_pointset

FAMILY_KINDS = ("face", "even_weight", "random", "file")


class FamilySpec(_Record):
    """Which family to generate plus its kind-specific parameters.

    face: free_positions (and optionally fixed_values, default all zero);
    even_weight: nothing extra (q must be 2); random: m and seed; file: path.
    """

    _fields = ("kind", "free_positions", "fixed_values", "m", "seed", "path")
    kind: str
    free_positions: Optional[tuple[int, ...]]
    fixed_values: Optional[tuple[tuple[int, int], ...]]
    m: Optional[int]
    seed: Optional[int]
    path: Optional[str]

    def __init__(
        self,
        kind: str,
        free_positions: Optional[tuple[int, ...]] = None,
        fixed_values: Optional[tuple[tuple[int, int], ...]] = None,
        m: Optional[int] = None,
        seed: Optional[int] = None,
        path: Optional[str] = None,
    ) -> None:
        if kind not in FAMILY_KINDS:
            raise CubeError(f"unknown family kind {kind!r}; expected one of {FAMILY_KINDS}")
        self._set(kind=kind, free_positions=free_positions, fixed_values=fixed_values, m=m, seed=seed, path=path)


def face_spec(
    params: CubeParams,
    nu: Optional[int] = None,
    free_positions: Optional[tuple[int, ...]] = None,
    fixed_values: Optional[tuple[tuple[int, int], ...]] = None,
    guard: Optional[int] = None,
) -> FamilySpec:
    """Build a face FamilySpec, defaulting the free positions to 0..nu-1 and
    the fixed values to zero. The positions are checked and filled in
    whole-set passes. Without fixed values, the free positions are checked
    in full first, and then the face's size q**|free| against the guard, if
    one is given, before any zero fixed value is built."""
    if free_positions is None:
        if nu is None:
            raise CubeError("face family needs nu or an explicit free-position set")
        if not 0 <= nu <= params.n:
            raise CubeError(f"nu must be in [0, {params.n}], got {nu}")
        free_positions = tuple(range(nu))
    else:
        free_positions = tuple(sorted(map(int, free_positions)))
        if len(set(free_positions)) != len(free_positions):
            i = next(i for i, j in zip(free_positions, free_positions[1:]) if i == j)
            raise CubeError(f"free position {i} is repeated")
        if nu is not None and nu != len(free_positions):
            raise CubeError(
                f"nu={nu} disagrees with {len(free_positions)} free positions"
            )
    if fixed_values is None:
        # Face refuses these with the same message, once the pairs are built.
        if free_positions and not 0 <= free_positions[0] <= free_positions[-1] < params.n:
            raise CubeError("free and fixed positions must partition the coordinate set")
        if guard is not None:
            check_guard_power(params.q, len(free_positions), guard)
        free = set(free_positions)
        fixed_values = zip(filterfalse(free.__contains__, range(params.n)), repeat(0))
    return FamilySpec("face", free_positions=free_positions, fixed_values=tuple(fixed_values))


def _face(params: CubeParams, spec: FamilySpec) -> Face:
    """The face a face spec names, with every position and value checked."""
    if spec.kind != "face":
        raise CubeError(f"expected a face spec, got kind {spec.kind!r}")
    if spec.free_positions is None:
        raise CubeError("face spec is missing its free positions")
    filled = face_spec(params, None, spec.free_positions, spec.fixed_values)
    return Face(params, frozenset(filled.free_positions), filled.fixed_values)


def gen_face_subset(params: CubeParams, spec: FamilySpec) -> PointSet:
    """All points of one face, as a point set; its rank equals the dimension."""
    return _face_points(params, _face(params, spec))


def _face_points(params: CubeParams, face: Face) -> PointSet:
    fixed = dict(face.fixed_values)
    axes = [range(params.q) if i in face.free_positions else (fixed[i],) for i in range(params.n)]
    return PointSet(params, product(*axes))


def gen_even_weight(n: int) -> PointSet:
    """All binary vectors of even coordinate sum; 2**(n-1) points for n >= 1,
    and the single empty vector for n = 0."""
    params = CubeParams(2, n)
    rows = tuple(bits for bits in product((0, 1), repeat=n) if sum(bits) % 2 == 0)
    return PointSet(params, rows)


def _decode(index: int, params: CubeParams) -> tuple[int, ...]:
    digits = []
    for _ in range(params.n):
        index, r = divmod(index, params.q)
        digits.append(r)
    return tuple(reversed(digits))


def _check_random(params: CubeParams, m: int) -> None:
    """The draw indexes the q**n points with a machine-size int, so a larger
    cube is refused before it."""
    if not 1 <= m <= params.volume:
        raise CubeError(f"m must be in [1, {decimal(params.volume)}], got {m}")
    if params.volume > sys.maxsize:
        raise CubeError(
            f"random family needs q**n <= {sys.maxsize} (sys.maxsize), "
            f"got q={params.q}, n={params.n}"
        )


def gen_random_subset(params: CubeParams, m: int, seed: int) -> PointSet:
    """Uniform random m-subset of the cube, without replacement, seeded."""
    _check_random(params, m)
    rng = random.Random(seed)
    picks = rng.sample(range(params.volume), m)
    return PointSet(params, tuple(_decode(i, params) for i in picks))


def realize_family(params: CubeParams, spec: FamilySpec, guard: int = DEFAULT_GUARD) -> PointSet:
    """Materialize a FamilySpec into a point set. A generated family's size
    (q**|free|, 2**(n-1) or m) is checked against the guard after all of the
    spec's own checks, before any point is built, and a power that is over
    it by its bit length alone is refused unbuilt (check_guard_power); a
    file is read as given."""
    if spec.kind == "file":
        if not isinstance(spec.path, str):
            raise CubeError("file family needs a path")
        return parse_pointset(Path(spec.path).read_text(), params)[0]
    if spec.kind == "face":
        face = _face(params, spec)
        check_guard_power(params.q, face.dimension, guard)
        return _face_points(params, face)
    if spec.kind == "even_weight":
        if params.q != 2:
            raise CubeError("the even-weight family requires q = 2")
        check_guard_power(2, max(params.n - 1, 0), guard)
        return gen_even_weight(params.n)
    if spec.m is None:
        raise CubeError("random family needs m")
    _check_random(params, spec.m)
    check_guard(spec.m, guard)
    return gen_random_subset(params, spec.m, spec.seed or 0)


def face_distribution_closed(params: CubeParams, nu: int, k: int) -> faces.FaceDistribution:
    """Distribution for a nu-dimensional face subset, in closed form.

    Intersection sizes are powers of q: for i = 0..nu the level e = q**i is hit
    by q**(nu-i) * C(nu, i) * C(n-nu, k-i) faces (i free positions inside the
    face, the rest of the face's span fixed), and each such coefficient feeds
    q**(n-nu-k+i) - 1 empty parallel fibers into e = 0. Terms whose binomial
    vanishes are skipped, which also keeps every exponent nonnegative.
    """
    n, q = params.n, params.q
    if not 0 <= nu <= n:
        raise CubeError(f"nu must be in [0, {n}], got {nu}")
    if not 0 <= k <= n:
        raise CubeError(f"k must be in [0, {n}], got {k}")
    counts: dict[int, int] = {}
    empty = 0
    for i in range(nu + 1):
        coeff = q ** (nu - i) * binom(nu, i) * binom(n - nu, k - i)
        if coeff == 0:
            continue
        counts[q**i] = coeff
        empty += coeff * (q ** (n - nu - k + i) - 1)
    counts[0] = empty
    return faces.FaceDistribution.checked(params, k, counts)


def evenweight_distribution_closed(n: int, k: int) -> faces.FaceDistribution:
    """Distribution for the even-weight set: every k-face with k >= 1 meets it
    in exactly 2**(k-1) points, so a single level carries all C(n,k)*2**(n-k)
    faces. The k = 0 slice is not covered by this form and is rejected."""
    if n < 1:
        raise CubeError(f"even-weight closed form needs n >= 1, got {n}")
    if not 1 <= k <= n:
        raise CubeError(f"k must be in [1, {n}] for the closed form, got {k}")
    params = CubeParams(2, n)
    counts = {2 ** (k - 1): 2 ** (n - k) * binom(n, k), 0: 0}
    return faces.FaceDistribution.checked(params, k, counts)


def check_vandermonde(params: CubeParams, nu: int, k: int) -> identities.IdentityReport:
    """Splitting C(n, k) by how many of the k choices land in a fixed
    nu-subset: sum over i of C(nu, i) * C(n-nu, k-i) = C(n, k)."""
    n = params.n
    if not 0 <= nu <= n:
        raise CubeError(f"nu must be in [0, {n}], got {nu}")
    lhs_terms = tuple(
        (f"i={i}", binom(nu, i) * binom(n - nu, k - i)) for i in range(nu + 1)
    )
    lhs = sum(v for _, v in lhs_terms)
    rhs = binom(n, k)
    rep_params = {"q": params.q, "n": n, "nu": nu, "k": k}
    return identities.IdentityReport.of(
        "vandermonde", rep_params, lhs, rhs, lhs_terms, (("binom(n,k)", rhs),), proven=True
    )


def check_chu_vandermonde_generalized(
    params: CubeParams, nu: int, k: int
) -> identities.IdentityReport:
    """q-weighted counterpart: sum over i >= 1 of (q**i - 1)*C(nu,i)*C(n-nu,k-i)
    equals sum over i >= 1 of (q-1)**i * C(nu,i) * C(n-i,k-i).

    Both sides count, in two ways, the nonempty-overlap excess left after the
    plain splitting identity; q = 2 collapses the right side's weights to 1.
    """
    n, q = params.n, params.q
    if not 1 <= nu <= n:
        raise CubeError(f"nu must be in [1, {n}], got {nu}")
    lhs_terms = tuple(
        (f"i={i}", (q**i - 1) * binom(nu, i) * binom(n - nu, k - i))
        for i in range(1, nu + 1)
    )
    rhs_terms = tuple(
        (f"i={i}", (q - 1) ** i * binom(nu, i) * binom(n - i, k - i))
        for i in range(1, nu + 1)
    )
    lhs = sum(v for _, v in lhs_terms)
    rhs = sum(v for _, v in rhs_terms)
    rep_params = {"q": q, "n": n, "nu": nu, "k": k}
    return identities.IdentityReport.of(
        "chu_vandermonde_generalized", rep_params, lhs, rhs, lhs_terms, rhs_terms, proven=True
    )


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
    k in ks."""
    if not ks:
        return []
    stop = max(ks[0], ks[-1]) + 1
    raw = (packed & ((1 << 8 * width * stop) - 1)).to_bytes(stop * width, "little")
    return [int.from_bytes(raw[k * width : (k + 1) * width], "little") for k in ks]


class NuRow(NamedTuple):
    """Both sides of a closed-form identity at one nu, for each k in ks. Each
    side is Kronecker-packed: limb k, of `width` bytes, is that side at
    (nu, k), for every k from 0 to n. The limbs are nonnegative and each holds
    its coefficient, so the packing is injective: lhs == rhs exactly when the
    two sides agree at every k, and then they agree at each k in ks."""

    nu: int
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
    each k in ks, one NuRow per nu, with the sides kept apart: for each nu the
    left sides are one product, the packed weights (q^i-1)*C(nu,i) times
    row[n-nu]; the right sides are one sum of packed rows,
    (q-1)^i*C(nu,i)*row[n-i] shifted by i limbs. The rows' size is checked
    against the guard before the first is built, and before q^n is."""
    n, q = params.n, params.q
    _check_cell_range(nus, 1, n, "nu")
    _check_cell_range(ks, 0, n, "k")
    # Both sides are at most q^nu * C(n, k) <= q^n * 2^n at every k, since
    # C(n-i, k-i) <= C(n, k); so is every weight and every partial sum. As
    # q <= 2^b for b = (q-1).bit_length(), q^n * 2^n has at most bn + n + 1 bits.
    _check_cell_cost(n, n * (q - 1).bit_length() + n + 1, guard)
    width = _limb_bytes(q**n << n)
    bits = 8 * width
    rows = _pascal_rows(n, width)
    for nu in nus:
        c = limbs(rows[nu], range(nu + 1), width)
        weights = sum(((q**i - 1) * c[i]) << bits * i for i in range(1, nu + 1))
        shifted = sum(((q - 1) ** i * c[i] * rows[n - i]) << bits * i for i in range(1, nu + 1))
        yield NuRow(nu, ks, weights * rows[n - nu], shifted, width)


EVENWEIGHT_FORMS = ("printed", "corrected")


def check_evenweight_identity(n: int, k: int, form: str = "corrected") -> identities.IdentityReport:
    """Even-weight pair identity in two variants sharing one right side,
    sum over i >= 1 of C(n, 2i) * C(n-2i, k-2i).

    form="corrected" puts (2**(k-1) - 1) * C(n, k) on the left and verifies;
    form="printed" keeps a spurious extra factor 2**(n-1) on the left and is
    retained, failures intact, as a documented erratum regression.
    """
    if form not in EVENWEIGHT_FORMS:
        raise CubeError(f"form must be one of {EVENWEIGHT_FORMS}, got {form!r}")
    if n < 1:
        raise CubeError(f"n must be >= 1, got {n}")
    if not 1 <= k <= n:
        raise CubeError(f"k must be in [1, {n}], got {k}")
    rhs_terms = tuple(
        (f"i={i}", binom(n, 2 * i) * binom(n - 2 * i, k - 2 * i))
        for i in range(1, n // 2 + 1)
    )
    rhs = sum(v for _, v in rhs_terms)
    base = (2 ** (k - 1) - 1) * binom(n, k)
    if form == "printed":
        lhs = base * 2 ** (n - 1)
        label = f"(2^{k - 1}-1)*2^{n - 1}*binom(n,k)"
    else:
        lhs = base
        label = f"(2^{k - 1}-1)*binom(n,k)"
    rep_params = {"q": 2, "n": n, "k": k}
    return identities.IdentityReport.of(
        f"evenweight_{form}",
        rep_params,
        lhs,
        rhs,
        ((label, lhs),),
        rhs_terms,
        proven=(form == "corrected"),
    )
