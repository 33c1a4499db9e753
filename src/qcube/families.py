"""Structured point-set generators, their closed-form distributions, and the
binomial identities those distributions imply.

Families: a full sub-face, the binary even-weight set, seeded uniform random
subsets, and sets loaded from a file, each one row of KINDS: its builder and
its sweep grid. The closed forms are verified against the enumeration path in
the test suite; any divergence is resolved in favour of enumeration.

The per-point identity checks here (check_vandermonde,
check_chu_vandermonde_generalized, check_evenweight_identity) are the
oracles of the sweep's packed cells, which live in qcube.closed so that a
closed-form sweep never executes this module.
"""

from __future__ import annotations

import sys
from itertools import filterfalse, repeat
from operator import lt
from typing import Any, Callable, NamedTuple, Optional

from . import closed, faces, identities  # module handles: gen executes none of them
from .base import (
    DEFAULT_GUARD,
    CubeError,
    CubeParams,
    _Record,
    binom,
    check_guard,
    check_guard_power,
    decimal,
    is_int,
    read_pieces,
)
from .core import Face, PointSet, _block_width, parse_pointset


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
    """The face a face spec names, with every position and value checked. A
    spec as face_spec leaves it, with fixed values and with free positions in
    increasing order, goes to Face as it is; face_spec fills in or checks any
    other first."""
    if spec.kind != "face":
        raise CubeError(f"expected a face spec, got kind {spec.kind!r}")
    free = spec.free_positions
    if free is None:
        raise CubeError("face spec is missing its free positions")
    if spec.fixed_values is None or not all(map(lt, free, free[1:])):
        spec = face_spec(params, None, free, spec.fixed_values)
    return Face(params, frozenset(spec.free_positions), spec.fixed_values)


def gen_face_subset(params: CubeParams, spec: FamilySpec) -> PointSet:
    """All points of one face, as a point set; its rank equals the dimension."""
    return _face_points(params, _face(params, spec))


def _face_points(params: CubeParams, face: Face) -> PointSet:
    """A checked face's points as packed ints in canonical order: from the fixed
    part, each free position in increasing order adds its block's q values."""
    w, n = _block_width(params), params.n
    packed = [sum(v << w * (n - 1 - i) for i, v in face.fixed_values)]
    for j in sorted(face.free_positions):
        values = [v << w * (n - 1 - j) for v in range(params.q)]
        packed = [x + v for x in packed for v in values]
    return PointSet._from_packed(params, packed)


def gen_even_weight(n: int) -> PointSet:
    """All binary vectors of even coordinate sum; 2**(n-1) points for n >= 1,
    and the single empty vector for n = 0: the packed ints 2x + parity(x) for
    x < 2**(n-1), whose n-1 bits are the first coordinates, in canonical order."""
    xs = range(1 << max(n - 1, 0))
    return PointSet._from_packed(CubeParams(2, n), [2 * x + (x.bit_count() & 1) for x in xs])


def random_m_fits(params: CubeParams, m: int) -> bool:
    """1 <= m <= q**n. Since q**n >= 2**n, the power is built only for an m
    of more than n bits."""
    return m >= 1 and (m.bit_length() <= params.n or m <= params.volume)


def _check_random(params: CubeParams, m: int) -> None:
    """The draw indexes the q**n points with a machine-size int, so a larger
    cube is refused before it, and q**n is not built for it when n alone
    puts it over sys.maxsize."""
    if not random_m_fits(params, m):
        raise CubeError(f"m must be in [1, {decimal(params.volume)}], got {m}")
    if params.n >= sys.maxsize.bit_length() or params.volume > sys.maxsize:
        raise CubeError(
            f"random family needs q**n <= {sys.maxsize} (sys.maxsize), "
            f"got q={params.q}, n={params.n}"
        )


def gen_random_subset(params: CubeParams, m: int, seed: int) -> PointSet:
    """Uniform random m-subset of the cube, without replacement, seeded."""
    _check_random(params, m)
    return _random_points(params, m, seed)


def _random_points(params: CubeParams, m: int, seed: int) -> PointSet:
    """gen_random_subset after its checks. The draw picks m indexes below
    q**n, each a point's base-q digits, coordinate 0 the most significant.
    For q a power of two an index is the packed int; otherwise each digit,
    the last coordinate's first, goes to its w-bit block."""
    import random  # only a random family needs it

    packed = random.Random(seed).sample(range(params.volume), m)
    q, w = params.q, _block_width(params)
    if q != 1 << w:
        rest, packed = packed, [0] * m
        for shift in range(0, params.n * w, w):
            packed = [x | r % q << shift for x, r in zip(packed, rest)]
            rest = [r // q for r in rest]
    return PointSet._from_packed(params, packed)


def _build_face(params: CubeParams, spec: FamilySpec, guard: int) -> PointSet:
    face = _face(params, spec)
    check_guard_power(params.q, face.dimension, guard)
    return _face_points(params, face)


def _build_even_weight(params: CubeParams, spec: FamilySpec, guard: int) -> PointSet:
    if params.q != 2:
        raise CubeError("the even-weight family requires q = 2")
    check_guard_power(2, max(params.n - 1, 0), guard)
    return gen_even_weight(params.n)


def _build_random(params: CubeParams, spec: FamilySpec, guard: int) -> PointSet:
    if spec.m is None:
        raise CubeError("random family needs m")
    _check_random(params, spec.m)
    check_guard(spec.m, guard)
    return _random_points(params, spec.m, spec.seed or 0)


def _random_grid(fam: dict[str, Any], params: CubeParams, nus: range, seeds: tuple[int, ...]) -> list:
    m = fam.get("m")
    if not is_int(m):
        raise CubeError("sweep config: random family needs an integer m")
    return [({"seed": s}, FamilySpec("random", m=m, seed=s)) for s in (seeds if random_m_fits(params, m) else ())]


def _build_file(params: CubeParams, spec: FamilySpec, guard: int) -> PointSet:
    if not isinstance(spec.path, str):
        raise CubeError("file family needs a path")
    return parse_pointset(read_pieces(spec.path), params)[0]


# Each family kind. build(params, spec, guard) runs the spec's own checks, then
# refuses a set over the guard (q**|free|, 2**(n-1) or m) before building it; a
# file is read as given. grid(family, params, nus, seeds) lists the (labels,
# spec) of each sweep instance in one (q, n) cell, nus clipped to [0, n], and
# leaves each spec's checks to build, so that they run once.
FamilyKind = NamedTuple("FamilyKind", [("build", Callable[..., PointSet]), ("grid", Callable[..., list])])
KINDS = {
    "face": FamilyKind(
        _build_face, lambda fam, p, nus, seeds: [({"nu": nu}, FamilySpec("face", tuple(range(nu)))) for nu in nus]
    ),
    "even_weight": FamilyKind(
        _build_even_weight, lambda fam, p, nus, seeds: [({}, FamilySpec("even_weight"))] if p.q == 2 else []
    ),
    "random": FamilyKind(_build_random, _random_grid),
    "file": FamilyKind(_build_file, lambda fam, p, nus, seeds: [({}, FamilySpec("file", path=fam.get("path")))]),
}
FAMILY_KINDS = tuple(KINDS)


def realize_family(params: CubeParams, spec: FamilySpec, guard: int = DEFAULT_GUARD) -> PointSet:
    """Materialize a FamilySpec into a point set with its kind's builder."""
    return KINDS[spec.kind].build(params, spec, guard)


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


def check_evenweight_identity(n: int, k: int, form: str = "corrected") -> identities.IdentityReport:
    """Even-weight pair identity in two variants sharing one right side,
    sum over i >= 1 of C(n, 2i) * C(n-2i, k-2i).

    form="corrected" puts (2**(k-1) - 1) * C(n, k) on the left and verifies;
    form="printed" keeps a spurious extra factor 2**(n-1) on the left and is
    retained, failures intact, as a documented erratum regression.
    """
    if form not in closed.EVENWEIGHT_FORMS:
        raise CubeError(f"form must be one of {closed.EVENWEIGHT_FORMS}, got {form!r}")
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
