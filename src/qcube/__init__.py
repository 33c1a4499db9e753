"""Exact combinatorics over q-valued cubes: subset ranks, face-intersection
distributions, and two-sided verification of the counting identities that
relate them. Integer arithmetic throughout; no floating point.

The submodules base, closed, complement, core, faces, families, fold,
identities, rank, sweep, walk and writer are registered lazily: each is in
sys.modules (and, but for rank, a package attribute) from the start, and
executes on its first attribute access. So a command runs only the modules
it uses: base holds what every command needs (the errors, the guard, binom,
CubeParams, the input reader), core the point sets and their parser, and
closed the closed-form sweep cells, so a sweep of closed forms runs cli,
base, closed and sweep alone. faces picks the route of each face
distribution and holds the Counter route; walk holds the face walk and fold
the dense fold, and a distribution executes at most the one it takes.
writer holds the point-text writer, which only gen runs, and complement the
subset-rank walk over the points left out, which only a right side with s
near |A| takes.
The names in __all__ resolve through __getattr__ to the objects their
modules define, so `from qcube import X` works as before; `qcube.rank` is
the function rank(), its module is sys.modules["qcube.rank"].

A module reaches a sibling that a command may not need through its module,
not its names: `from . import faces` binds the registered module without
executing it, and `faces.FaceDistribution` executes it when first used. The
one exception is rank, because `from . import rank` binds the function
rank(): cli and sweep bind sys.modules["qcube.rank"] instead, and
faces_containing_count imports it inside the function.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec


def _lazy(name: str):
    """Register submodule `name` so that it executes on first attribute access."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


base, closed, complement, core, faces, families, fold, identities, sweep, walk, writer = map(
    _lazy,
    ("base", "closed", "complement", "core", "faces", "families", "fold", "identities", "sweep", "walk", "writer"),
)
_lazy("rank")  # not a package attribute: qcube.rank is the function rank()

# Each re-exported name, by its defining module.
_EXPORTS = {
    "base": (
        "DEFAULT_GUARD",
        "ConsistencyError",
        "CubeError",
        "CubeParams",
        "SizeGuardError",
        "binom",
    ),
    "closed": (
        "NuRow",
        "chu_vandermonde_generalized_cell",
        "vandermonde_cell",
    ),
    "core": (
        "Face",
        "ParseError",
        "Point",
        "PointSet",
        "hamming",
        "parse_pointset",
    ),
    "faces": (
        "FaceDistribution",
        "distribution",
        "distribution_bruteforce",
        "enumerate_faces",
        "face_contains",
        "faces_containing_bruteforce",
        "faces_containing_count",
        "profile",
        "total_faces",
    ),
    "families": (
        "FamilySpec",
        "check_chu_vandermonde_generalized",
        "check_evenweight_identity",
        "check_vandermonde",
        "evenweight_distribution_closed",
        "face_distribution_closed",
        "face_spec",
        "gen_even_weight",
        "gen_face_subset",
        "gen_random_subset",
        "realize_family",
    ),
    "identities": (
        "IdentityReport",
        "corollary_s1",
        "corollary_s2",
        "corollary_s3",
        "intersection_cap",
        "main_lhs",
        "main_rhs",
        "verify_main",
    ),
    "rank": (
        "DistanceProfile",
        "RankBounds",
        "column_distance_sum",
        "distance_sum",
        "distance_total",
        "isometric",
        "rank",
        "rank_bounds",
        "rank_closed_small",
        "random_isometry_image",
    ),
    "writer": ("serialize_pointset",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"
