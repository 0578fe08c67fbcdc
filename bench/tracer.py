"""Span tracer for zrk, installed from outside the package.

``Tracer.install`` wraps every public function of the eight traced modules,
and every public method of their classes, in each ``zrk`` module namespace
that binds it: ``zmaps`` holds its own ``desingularize`` and ``den`` through
``from .regular import ...``, and all of them are replaced.  Nothing under
``src/`` is edited; ``uninstall`` restores every binding.

Spans are kept in memory as columns (name, start, end, parent) and written
out at the end of a pass.  Self time is derived from the spans: a span's
duration minus the durations of its direct children.

Generator functions (``GeoSimplex.faces``/``facets``) are not wrapped: a span
around one would close before the generator does any work.  The scalar
helpers in ``UNTRACED`` are not wrapped either: they run once per coordinate
(millions of calls on a cube4 parse), a span costs more than their body, and
their time stays in the self time of the calling span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("exactnum", "linalg", "complexes", "subdivide", "regular",
          "collapse", "zmaps", "scx")

UNTRACED = frozenset({
    "linalg.frac", "linalg.vec", "linalg.vadd", "linalg.vsub",
    "linalg.vscale", "linalg.dot", "linalg.AffineForm.negate",
    "exactnum.format_rat", "exactnum.parse_rat", "exactnum.lcd",
    "regular.den", "regular.homog",
})

# Metric name -> span names whose calls and self time it sums.  A name not
# listed here is its own single span name.
GROUPS = {
    "complexes.carrier": ("complexes.GeoComplex.carrier",),
    "linalg.solve": ("linalg.solve_affine", "linalg.solve_square",
                     "linalg.barycentric_coords"),
    "regular.desingularize": ("regular.desingularize",
                              "regular.desingularize_relative"),
    "zmaps.verify": ("zmaps.verify_zretract", "zmaps.verify_section_retraction",
                     "zmaps.fixes_pointwise"),
    "scx.parse": ("scx.parse_scx",),
    "scx.print": ("scx.print_scx",),
}

# Per-layer metrics reported by a traced run, with their units.
PER_LAYER = [
    ("collapse.find_collapse_sequence.calls", "count"),
    ("collapse.find_collapse_sequence.self_s", "s"),
    ("collapse.steps", "count"),
    ("collapse.found_frac", "ratio"),
    ("collapse.replay.calls", "count"),
    ("collapse.replay.self_s", "s"),
    ("collapse.free_faces.calls", "count"),
    ("complexes.build_validated.calls", "count"),
    ("complexes.build_validated.self_s", "s"),
    ("complexes.build_unvalidated.calls", "count"),
    ("complexes.carrier.calls", "count"),
    ("complexes.carrier.self_s", "s"),
    ("complexes.simplex_hrep.hit_frac", "ratio"),
    ("linalg.enumerate_cell_vertices.calls", "count"),
    ("linalg.enumerate_cell_vertices.self_s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.self_s", "s"),
    ("linalg.pull_triangulation.self_s", "s"),
    ("linalg.affinely_independent.calls", "count"),
    ("subdivide.supports.calls", "count"),
    ("subdivide.supports.self_s", "s"),
    ("subdivide.is_subdivision.self_s", "s"),
    ("subdivide.inside_subcomplex.calls", "count"),
    ("subdivide.inside_subcomplex.self_s", "s"),
    ("subdivide.stellar.calls", "count"),
    ("subdivide.stellar.self_s", "s"),
    ("subdivide.common_refinement.self_s", "s"),
    ("subdivide.restrict.self_s", "s"),
    ("subdivide.refine_for_map.self_s", "s"),
    ("regular.desingularize.self_s", "s"),
    ("regular.stellar_steps", "count"),
    ("regular.is_regular.calls", "count"),
    ("regular.is_regular.hit_frac", "ratio"),
    ("regular.coprime_point.calls", "count"),
    ("exactnum.invariant_factors.calls", "count"),
    ("exactnum.invariant_factors.self_s", "s"),
    ("exactnum.smith_with_transforms.calls", "count"),
    ("exactnum.smith_with_transforms.self_s", "s"),
    ("zmaps.certify_main.self_s", "s"),
    ("zmaps.pipeline_dh.self_s", "s"),
    ("zmaps.part2_reduce.self_s", "s"),
    ("zmaps.verify.self_s", "s"),
    ("zmaps.PLMap.eval.calls", "count"),
    ("zmaps.is_zmap.calls", "count"),
    ("scx.parse.calls", "count"),
    ("scx.parse.self_s", "s"),
    ("scx.parse.bytes", "bytes"),
    ("scx.print.calls", "count"),
    ("scx.print.self_s", "s"),
    ("scx.print.bytes", "bytes"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("trace.pass_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
]

# Spans whose per-op inclusive time is reported (the ROADMAP cube4 row).
INCLUSIVE = ("complexes.build_validated", "collapse.find_collapse_sequence",
             "collapse.replay")

_CACHED = {"complexes.simplex_hrep": "complexes.simplex_hrep.hit_frac",
           "regular.is_regular": "regular.is_regular.hit_frac"}


def _count_parse(counters, args, result):
    counters["scx.parse.bytes"] += len(args[0])


def _count_print(counters, args, result):
    counters["scx.print.bytes"] += len(result)


def _count_search(counters, args, result):
    counters["collapse.searches"] += 1
    if result is not None:
        counters["collapse.found"] += 1
        counters["collapse.steps"] += len(result.steps)


_HOOKS = {"scx.parse_scx": _count_parse, "scx.print_scx": _count_print,
          "collapse.find_collapse_sequence": _count_search}


class Tracer:
    """Records spans around zrk's public callables while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.ops: list[tuple[str, int]] = []  # (op id, root span index)
        self.counters: dict[str, int] = defaultdict(int)
        self.paused = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cached: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def open_op(self, op_id: str) -> int:
        idx = self._open(self._name_id("op"))
        self.ops.append((op_id, idx))
        return idx

    def close_op(self, idx: int) -> None:
        self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return traced

    def _wrap_init(self, fn):
        """GeoComplex.__init__, named by whether it validates."""
        validated = self._name_id("complexes.build_validated")
        unvalidated = self._name_id("complexes.build_unvalidated")
        tracer = self

        @functools.wraps(fn)
        def traced(obj, simplexes, validate=True, closed=False):
            if tracer.paused:
                return fn(obj, simplexes, validate, closed)
            idx = tracer._open(validated if validate else unvalidated)
            try:
                fn(obj, simplexes, validate, closed)
            finally:
                tracer._close(idx)

        return traced

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public callables of the traced layers (zrk imported)."""
        originals: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"zrk.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_methods(layer, obj)
                elif callable(obj) and not inspect.isgeneratorfunction(obj):
                    name = f"{layer}.{attr}"
                    if name in _CACHED:
                        self._cached[name] = obj
                    if name not in UNTRACED:
                        originals[id(obj)] = (obj, self._wrap(name, obj))
        geo = sys.modules["zrk.complexes"].GeoComplex
        self._set(geo, "__init__", self._wrap_init(geo.__init__))
        for modname, mod in list(sys.modules.items()):
            if modname != "zrk" and not modname.startswith("zrk."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        self._cache_base = {name: self._cache_counts(name) for name in self._cached}

    def _install_methods(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_") or name in UNTRACED:
                continue
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member) and not inspect.isgeneratorfunction(member):
                self._set(cls, attr, self._wrap(name, member))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _cache_counts(self, name: str) -> tuple[int, int]:
        info = self._cached[name].cache_info()
        return info.hits, info.misses

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics (without trace.*) and per-op inclusive times."""
        n = len(self.start)
        names, nid_of, parent = self.names, self.name, self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        desing = {self._ids.get("regular.desingularize"),
                  self._ids.get("regular.desingularize_relative")} - {None}
        stellar = self._ids.get("subdivide.stellar")
        under_desing = [False] * n
        stellar_steps = 0
        for i in range(n):
            p = parent[i]
            under_desing[i] = p >= 0 and (under_desing[p] or nid_of[p] in desing)
            if nid_of[i] == stellar and under_desing[i]:
                stellar_steps += 1
            nm = names[nid_of[i]]
            calls[nm] += 1
            self_s[nm] += dur[i] - child[i]

        metrics: dict[str, float] = {}
        for metric, _unit in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind in ("calls", "self_s") and base:
                spans = GROUPS.get(base, (base,))
                if base in LAYERS:
                    spans = [nm for nm in self_s if nm.startswith(base + ".")]
                table = calls if kind == "calls" else self_s
                metrics[metric] = sum(table.get(nm, 0) for nm in spans)
        searches = self.counters["collapse.searches"]
        metrics["collapse.steps"] = self.counters["collapse.steps"]
        metrics["collapse.found_frac"] = (self.counters["collapse.found"] / searches
                                          if searches else 0.0)
        metrics["regular.stellar_steps"] = stellar_steps
        metrics["scx.parse.bytes"] = self.counters["scx.parse.bytes"]
        metrics["scx.print.bytes"] = self.counters["scx.print.bytes"]
        for name, metric in _CACHED.items():
            hits, misses = self._cache_counts(name)
            base_hits, base_misses = self._cache_base[name]
            hits, misses = hits - base_hits, misses - base_misses
            metrics[metric] = hits / (hits + misses) if hits + misses else 0.0

        return {"metrics": metrics, "self_total_s": sum(self_s.values()),
                "spans": n, "op_inclusive": self._op_inclusive(dur)}

    def _op_inclusive(self, dur: list[float]) -> dict[str, dict[str, float]]:
        """Per op, the time inside the outermost span of each INCLUSIVE name."""
        wanted = {}
        for base in INCLUSIVE:
            for nm in GROUPS.get(base, (base,)):
                if nm in self._ids:
                    wanted[self._ids[nm]] = base
        root_of = {idx: op_id for op_id, idx in self.ops}
        op_of: list[str | None] = [None] * len(dur)
        out: dict[str, dict[str, float]] = {op_id: {} for op_id, _ in self.ops}
        for i in range(len(dur)):
            p = self.parent[i]
            op_of[i] = root_of.get(i) if p < 0 else op_of[p]
            base = wanted.get(self.name[i])
            if base is None or op_of[i] is None:
                continue
            if p >= 0 and wanted.get(self.name[p]) == base:
                continue
            out[op_of[i]][base] = out[op_of[i]].get(base, 0.0) + dur[i]
        return out

    def dump(self, path) -> None:
        """Write every span as columns, with the name table and op roots."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": list(self.name),
                       "start": list(self.start), "end": list(self.end),
                       "parent": list(self.parent),
                       "ops": [[op_id, idx] for op_id, idx in self.ops]}, fh)
