"""Per-layer probes for the traced benchmark run.

Probes replace public functions of the qcube modules with wrappers that count
calls and, for all but the hot leaves, time them. A wrapper is installed under
every name a caller binds (for example both `qcube.faces.distribution` and
`qcube.identities.distribution`), and every original is put back on exit. The
time of a span minus the time of the spans it encloses is its self time.
Nothing under src/ is changed.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from math import comb
from pathlib import Path
from time import perf_counter
from types import ModuleType

_MARK = "_bench_probe"

# (defining module, attribute, layer). Spans of one layer share a self time.
TIMED = (
    ("qcube.core", "parse_pointset", "core.parse_pointset"),
    ("qcube.rank", "distance_sum", "rank.distance_sum"),
    ("qcube.rank", "rank_bounds", "rank.rank_bounds"),
    ("qcube.faces", "distribution", "faces.distribution"),
    ("qcube.faces", "faces_containing_bruteforce", "faces.bruteforce"),
    ("qcube.identities", "main_lhs", "identities.main_lhs"),
    ("qcube.identities", "main_rhs", "identities.main_rhs"),
    ("qcube.identities", "corollary_s1", "identities.corollaries"),
    ("qcube.identities", "corollary_s2", "identities.corollaries"),
    ("qcube.identities", "corollary_s3", "identities.corollaries"),
    ("qcube.families", "gen_random_subset", "families.gen"),
    ("qcube.families", "gen_even_weight", "families.gen"),
    ("qcube.families", "gen_face_subset", "families.gen"),
    ("qcube.families", "realize_family", "families.gen"),
    ("qcube.families", "check_vandermonde", "families.closed_forms"),
    ("qcube.families", "check_chu_vandermonde_generalized", "families.closed_forms"),
    ("qcube.families", "check_evenweight_identity", "families.closed_forms"),
    ("qcube.families", "face_distribution_closed", "families.closed_forms"),
    ("qcube.families", "evenweight_distribution_closed", "families.closed_forms"),
    ("qcube.cli", "json_line", "cli.json_line"),
    ("qcube.cli", "run_sweep", "cli"),
    ("qcube.cli", "cmd_rank", "cli"),
    ("qcube.cli", "cmd_bounds", "cli"),
    ("qcube.cli", "cmd_distribution", "cli"),
    ("qcube.cli", "cmd_verify", "cli"),
    ("qcube.cli", "cmd_gen", "cli"),
    ("qcube.cli", "cmd_sweep", "cli"),
)

# Hot leaves: counted, not timed, so that the probes stay cheap.
COUNTED = (
    ("qcube.core", "binom", "core.binom"),
    ("qcube.core", "PointSet.coord_rows", "core.coord_rows"),
    ("qcube.rank", "rank_rows", "rank.rank_rows"),
)

# lru_cache objects whose hits and misses are read, keyed by the layer they
# serve. Without the cache every call does the work and the hit ratio reads 0.
CACHES = {
    "faces.distribution": ("qcube.faces", "_distribution_grouped"),
    "identities.main_rhs": ("qcube.identities", "_subset_rank_histogram"),
}


# Work a span did, counted from its bound arguments and result, by layer:
# (name of the count, function). Cached layers count it only on a miss.
WORK = {
    "core.parse_pointset": ("rows", lambda a, result: len(result[0]) + result[1]),
    "rank.distance_sum": ("pairs", lambda a, result: comb(len(a["A"]), 2)),
    "faces.bruteforce": ("faces", lambda a, result: comb(a["A"].params.n, a["k"])
                         * a["A"].params.q ** (a["A"].params.n - a["k"])),
    "faces.distribution": ("projections", lambda a, result: comb(a["A"].params.n, a["k"]) * len(a["A"])),
    "identities.main_rhs": ("subsets", lambda a, result: comb(len(a["A"]), a["s"])),
}


def _qcube_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items()) if name == "qcube" or name.startswith("qcube.")]


def clear_caches() -> None:
    """Empty every lru_cache in qcube, as a fresh process would start."""
    for module in _qcube_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _resolve(module: str, dotted: str) -> tuple[object, str]:
    owner: object = sys.modules[module]
    *path, name = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Probes:
    """Installed on enter, removed on exit. `seconds` holds self time per
    layer, `counts` holds calls, work and cache hits/misses."""

    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._children = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.seconds.clear()
        self.counts.clear()

    def __enter__(self) -> "Probes":
        try:
            for module, attr, layer in TIMED:
                self._install(module, attr, self._timed(layer, *_resolve(module, attr)))
            for module, attr, layer in COUNTED:
                self._install(module, attr, self._counted(layer, *_resolve(module, attr)))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _install(self, module: str, attr: str, wrapper: object) -> None:
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        if isinstance(owner, type):
            self._patches.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for mod in _qcube_modules():
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, alias, original))
                    setattr(mod, alias, wrapper)

    def _counted(self, layer: str, owner: object, name: str):
        fn = getattr(owner, name)
        counts = self.counts
        key = layer + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _timed(self, layer: str, owner: object, name: str):
        fn = getattr(owner, name)
        signature = inspect.signature(fn)
        cache = CACHES.get(layer)
        work = WORK.get(layer)
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lru = getattr(sys.modules[cache[0]], cache[1], None) if cache else None
            misses = lru.cache_info().misses if lru else 0
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                self.seconds[layer] += span - children.pop()
                children[-1] += span
            self.counts[layer + ".calls"] += 1
            if work and (lru is None or lru.cache_info().misses > misses):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[f"{layer}.{work[0]}"] += work[1](bound.arguments, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def read_caches(self) -> None:
        """Add the cache statistics of the command just run; call before
        clear_caches()."""
        for layer, (module, attr) in CACHES.items():
            lru = getattr(sys.modules[module], attr, None)
            if lru is not None:
                info = lru.cache_info()
                self.counts[layer + ".hits"] += info.hits
                self.counts[layer + ".misses"] += info.misses


    def metrics(self, rows: int, refusals: int) -> dict[str, float]:
        """Per-layer metrics of the commands run since the last reset. `rows`
        and `refusals` come from the checked outputs."""
        s, c = self.seconds, self.counts

        def hit_ratio(layer: str) -> float:
            lookups = c[layer + ".hits"] + c[layer + ".misses"]
            return c[layer + ".hits"] / lookups if lookups else 0.0

        return {
            "core.parse_pointset.s": s["core.parse_pointset"],
            "core.parse_pointset.rows": c["core.parse_pointset.rows"],
            "core.coord_rows.calls": c["core.coord_rows.calls"],
            "core.binom.calls": c["core.binom.calls"],
            "core.guard_refusals": refusals,
            "rank.rank_rows.calls": c["rank.rank_rows.calls"],
            "identities.main_rhs.s": s["identities.main_rhs"],
            "identities.main_rhs.calls": c["identities.main_rhs.calls"],
            "identities.main_rhs.subsets": c["identities.main_rhs.subsets"],
            "identities.main_rhs.hit_ratio": hit_ratio("identities.main_rhs"),
            "faces.bruteforce.s": s["faces.bruteforce"],
            "faces.bruteforce.faces": c["faces.bruteforce.faces"],
            "faces.distribution.s": s["faces.distribution"],
            "faces.distribution.calls": c["faces.distribution.calls"],
            "faces.distribution.projections": c["faces.distribution.projections"],
            "faces.distribution.hit_ratio": hit_ratio("faces.distribution"),
            "rank.distance_sum.s": s["rank.distance_sum"],
            "rank.distance_sum.calls": c["rank.distance_sum.calls"],
            "rank.distance_sum.pairs": c["rank.distance_sum.pairs"],
            "rank.rank_bounds.s": s["rank.rank_bounds"],
            "identities.main_lhs.s": s["identities.main_lhs"],
            "identities.corollaries.s": s["identities.corollaries"],
            "families.gen.s": s["families.gen"],
            "families.closed_forms.s": s["families.closed_forms"],
            "cli.self_s": s["cli"],
            "cli.json_line.s": s["cli.json_line"],
            "cli.rows": rows,
        }


def leftover_probes() -> list[str]:
    """Names of qcube attributes that still hold a probe; empty after exit."""
    found = []
    for module in _qcube_modules():
        for name, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__.startswith("qcube"):
                found += [f"{module.__name__}.{name}.{a}" for a, v in vars(value).items() if getattr(v, _MARK, False)]
    return found


def import_qcube(root: Path) -> ModuleType:
    """Import qcube.cli from root/src, refusing any other copy."""
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import qcube.cli

    if Path(qcube.cli.__file__).resolve().parent != src.resolve() / "qcube":
        raise ImportError(f"qcube was imported from {qcube.cli.__file__}, not from {src}")
    return qcube.cli
