"""In-process tracer: wraps the library's public functions from the
benchmark's own code, keeps spans in memory and aggregates per-layer stats.

A span is (id, parent id, name, start, end, instance).  A layer's self time
is its span time minus the time of the wrapped calls made inside it; it is
computed on the fly from the call stack, which gives the same figure as
subtracting child spans afterwards because the benchmark is single-threaded.

Each function is patched on every ``hypertope`` module that holds it (where
it is defined and where it was imported), so ``cplus.product_set`` and
``cosetgeo.product_set`` both report as ``permcore.product_set``.  A target
that no longer exists is reported as absent; every patch is undone on exit.

Two hot kernel methods, ``Permutation.__mul__`` and ``Permutation.__init__``,
are counted but not timed: a span per product would cost more than the
product itself.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional

PACKAGE = "hypertope"
LAYER_MODULES = ("permcore", "cosetgeo", "cplus", "oracle", "corpus", "cli")

# methods timed as spans: module -> (class, method) pairs.  Module-level
# public functions of the layer modules are found and timed automatically.
TIMED_METHODS = {
    "cosetgeo": [("IncidenceView", "chambers"), ("IncidenceView", "is_geometry"),
                 ("IncidenceView", "is_thin"),
                 ("IncidenceView", "is_residually_connected"),
                 ("CosetGeometry", "flag_orbit"),
                 ("CosetGeometry", "is_chamber_transitive")],
}

# work counts taken from a call's arguments and result: name -> {stat: fn}
WORK_COUNTS: dict[str, dict[str, Callable]] = {
    "permcore.generate_group": {"elements": lambda a, kw, r: r.order},
    "permcore.product_set": {"pairs": lambda a, kw, r: len(a[0]) * len(a[1])},
    "cosetgeo.IncidenceView.chambers": {"count": lambda a, kw, r: len(r)},
    "cosetgeo.CosetGeometry.flag_orbit": {"size": lambda a, kw, r: len(r)},
    "oracle.build_incidence_graph": {"vertices": lambda a, kw, r: r.num_vertices,
                                     "edges": lambda a, kw, r: r.num_edges},
    "oracle.chambers_via_maximal_cliques": {"cliques": lambda a, kw, r: len(r)},
}



def _tuple_candidates(args, kwargs) -> int:
    """(|G| - 1)^size ordered candidates of ``generating_tuples(G, size)``."""
    G = args[0] if args else kwargs["G"]
    size = args[1] if len(args) > 1 else kwargs["size"]
    return (len(G) - 1) ** size


# work counts taken from a call's arguments before it runs
CALL_COUNTS: dict[str, dict[str, Callable]] = {
    "corpus.generating_tuples": {"tried": _tuple_candidates},
}

SPAN_CAP = 200_000  # spans kept for the trace file; stats stay exact past it


class Stats:
    __slots__ = ("calls", "total_s", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work: dict[str, float] = defaultdict(float)


class Tracer:
    """Context manager that patches the layer modules while it is active."""

    def __init__(self):
        self.stats: dict[str, Stats] = defaultdict(Stats)
        self.absent: set[str] = set()
        self._declared: dict[str, set[str]] = {}
        self.instance = -1  # set by the workload loop; shared by an instance's spans
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [start, child_s, span id]
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_meta = array("q")  # id, parent, name id, instance per span
        self._span_times = array("d")  # start, end per span
        self._next_id = 0
        self.dropped_spans = 0

    # -- span bookkeeping -------------------------------------------------

    def _enter(self) -> list:
        frame = [0.0, 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def _exit(self, frame: list, st: Stats, name_id: int) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - frame[0]
        st.total_s += dur
        st.self_s += dur - frame[1]
        parent = -1
        if stack:
            stack[-1][1] += dur
            parent = stack[-1][2]
        if len(self._span_times) < 2 * SPAN_CAP:
            self._span_meta.extend((frame[2], parent, name_id, self.instance))
            self._span_times.extend((frame[0], end))
        else:
            self.dropped_spans += 1

    def _hide(self, t0: float) -> None:
        """Keep the tracer's own counting out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][1] += time.perf_counter() - t0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn: Callable) -> Callable:
        tracer, name_id = self, self._name_id(name)
        before = CALL_COUNTS.get(name, {})
        after = WORK_COUNTS.get(name, {})
        st = self.stats[name]
        is_gen = inspect.isgeneratorfunction(fn)
        declared = {"calls", "self_s", "total_s", *before, *after}
        if is_gen:
            declared.add("yielded")
        if "tried" in declared:
            declared.add("yield_ratio")
        self._declared[name] = declared

        def count(counts, *call):
            t0 = time.perf_counter()
            for stat, how in counts.items():
                try:
                    st.work[stat] += how(*call)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.absent.add(f"{name}.{stat}")
            tracer._hide(t0)

        def wrapper(*args, **kwargs):
            st.calls += 1
            if before:
                count(before, args, kwargs)
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, st, name_id)
            if after:
                count(after, args, kwargs, result)
            return result

        def gen_wrapper(*args, **kwargs):
            st.calls += 1
            if before:
                count(before, args, kwargs)
            gen = fn(*args, **kwargs)
            while True:
                frame = tracer._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._exit(frame, st, name_id)
                st.work["yielded"] += 1
                yield item

        return functools.wraps(fn)(gen_wrapper if is_gen else wrapper)

    def _counted_mul(self, fn: Callable) -> Callable:
        st = self.stats["permcore.Permutation.mul"]
        self._declared["permcore.Permutation.mul"] = {"calls", "points"}
        work = st.work

        def __mul__(p, q):
            st.calls += 1
            work["points"] += len(p.images)
            return fn(p, q)
        return __mul__

    def _counted_init(self, fn: Callable) -> Callable:
        st = self.stats["permcore.Permutation.init"]
        self._declared["permcore.Permutation.init"] = {"calls"}

        def __init__(p, images):
            st.calls += 1
            fn(p, images)
        return __init__

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapped) -> None:
        """Replace ``original`` on every loaded module of the package."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def _method(self, modname: str, cls_name: str, meth: str):
        mod = sys.modules[f"{PACKAGE}.{modname}"]
        cls = getattr(mod, cls_name, None)
        if cls is None or meth not in vars(cls):
            self.absent.add(f"{modname}.{cls_name}.{meth}")
            return None, None
        return cls, vars(cls)[meth]

    def __enter__(self) -> "Tracer":
        importlib.import_module(PACKAGE)
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}")
                for m in LAYER_MODULES}
        try:
            for modname, mod in mods.items():
                for attr, fn in list(vars(mod).items()):
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__):
                        continue
                    self._patch_everywhere(fn, self._timed(f"{modname}.{attr}", fn))
                for cls_name, meth in TIMED_METHODS.get(modname, []):
                    cls, fn = self._method(modname, cls_name, meth)
                    if cls is not None:
                        self._set(cls, meth, self._timed(
                            f"{modname}.{cls_name}.{meth}", fn))
            for meth, wrap in (("__mul__", self._counted_mul),
                               ("__init__", self._counted_init)):
                cls, fn = self._method("permcore", "Permutation", meth)
                if cls is not None:
                    self._set(cls, meth, wrap(fn))
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._restore()

    # -- output -------------------------------------------------------------

    def metric(self, name: str) -> Optional[float]:
        """Value of ``<module>.<function>.<stat>``; None when it is absent.

        ``stat`` is ``calls``, ``self_s``, ``total_s``, a work count, or
        ``yield_ratio`` (yielded / tried).
        """
        func, _, stat = name.rpartition(".")
        if name in self.absent or stat not in self._declared.get(func, ()):
            return None
        st = self.stats[func]
        if stat in ("calls", "self_s", "total_s"):
            return getattr(st, stat)
        if stat == "yield_ratio":
            tried = st.work["tried"]
            return st.work["yielded"] / tried if tried else 0.0
        return st.work[stat]

    def metrics(self) -> dict[str, float]:
        """Every stat of every wrapped function that is not absent."""
        out = {}
        for func, declared in self._declared.items():
            for stat in sorted(declared):
                value = self.metric(f"{func}.{stat}")
                if value is not None:
                    out[f"{func}.{stat}"] = value
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines; returns how many were written."""
        meta, times, names = self._span_meta, self._span_times, self._names
        n = len(times) // 2
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(n):
                sid, parent, name_id, inst = meta[4 * i: 4 * i + 4]
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": names[name_id],
                    "start": times[2 * i], "end": times[2 * i + 1],
                    "instance": inst}) + "\n")
        return n
