"""Span recorder and layer wrappers for the traced benchmark pass.

The spans are recorded from the benchmark's own code: ``install`` wraps
every public function of the seven chanent modules and puts the wrapper
into every module namespace that holds the function, so a call through
``from .channels import noise_operator`` is recorded as well as a call
through ``channels.noise_operator``.  Each span keeps its name, start,
end and parent in memory; ``Recorder.dump`` writes them out when the
pass ends.

Counts are taken at the same boundaries: calls per function, the work
a call was asked to do (derived from its arguments), lru-cache builds,
and the peak of memory allocated inside a call, from tracemalloc, which
sees numpy buffers.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import tracemalloc
from collections import defaultdict

MODULES = (
    "bitspace",
    "boolfn",
    "channels",
    "entropy_analysis",
    "inequalities",
    "listdecode",
    "cli",
)

# Called once per subset mask; a span each would cost more than the call.
COUNT_ONLY = frozenset({"bitspace.rank_gf2"})

# Functions whose allocation peak is reported.
ALLOC_PEAK = frozenset({"channels.noise_operator", "listdecode.likely_probability"})

# lru-cached functions whose cache misses are reported as builds.
CACHE_BUILDS = frozenset({"entropy_analysis.subset_renyi_values"})


def _noise_work(a: dict) -> tuple:
    n = len(a["f"]).bit_length() - 1
    # one 2x2 mix per axis: read two float64 operands, write one
    return n << n, 24 * (n << n)


# Work counters derived from a call's bound arguments: names, then values.
WORK = {
    "channels.noise_operator": (("elem_ops", "bytes_computed"), _noise_work),
    "entropy_analysis.subset_entropy_expectation_mc": (
        ("trials",),
        lambda a: (a["trials"],),
    ),
    "listdecode.simulate": (
        ("trials", "pair_evals"),
        lambda a: (a["trials"], a["trials"] * a["code"].size),
    ),
    "listdecode.likely_probability": (
        ("pair_evals",),
        lambda a: ((1 << a["code"].n) * a["code"].size,),
    ),
}


def self_times(start: list[float], end: list[float], parent: list[int]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans are opened and closed on one thread, so children of one span
    never overlap and their durations add up to the covered interval.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


class Recorder:
    """In-memory spans and counters of one traced process."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.functions: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._alloc: list[list[int]] = []  # [current at entry, max peak seen]
        self._caches: dict[str, tuple[object, int]] = {}

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def _alloc_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        # reset_peak below hides the enclosing spans' peak; keep it for them
        for frame in self._alloc:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._alloc.append([current, 0])

    def _alloc_exit(self, name: str) -> None:
        _, peak = tracemalloc.get_traced_memory()
        current0, seen = self._alloc.pop()
        self.peak_bytes[name] = max(self.peak_bytes[name], max(seen, peak) - current0)
        if not self._alloc:
            tracemalloc.stop()

    def wrap(self, name: str, fn):
        self.functions.append(name)
        calls = name + ".calls"
        counts = self.counts
        if name in COUNT_ONLY:

            def counted(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)

            return counted

        keys, work = WORK.get(name, ((), None))
        signature = inspect.signature(fn) if work else None
        alloc = name in ALLOC_PEAK
        if name in CACHE_BUILDS:
            self._caches[name] = (fn, fn.cache_info().misses)

        def traced(*args, **kwargs):
            counts[calls] += 1
            if work is not None:
                values = work(signature.bind(*args, **kwargs).arguments)
                for key, value in zip(keys, values):
                    counts[f"{name}.{key}"] += value
            if alloc:
                self._alloc_enter()
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
                if alloc:
                    self._alloc_exit(name)

        return traced

    # -- results ---------------------------------------------------------

    def summary(self, steps_start: float, steps_end: float) -> dict[str, float]:
        """Per-function and per-module metrics of everything recorded.

        ``steps_start``/``steps_end`` (perf_counter) delimit the
        workload's steps; ``trace.coverage`` is the share of that
        interval covered by top-level spans.
        """
        out: dict[str, float] = {}
        for fname in self.functions:
            out[fname + ".calls"] = 0
            if fname not in COUNT_ONLY:
                out[fname + ".busy_s"] = 0.0
                out[fname + ".self_s"] = 0.0
            if fname in ALLOC_PEAK:
                out[fname + ".peak_alloc_mb"] = 0.0
            for key in WORK.get(fname, ((), None))[0]:
                out[f"{fname}.{key}"] = 0
        for module in MODULES:
            out[module + ".self_s"] = 0.0
        out.update(self.counts)

        selfs = self_times(self.start, self.end, self.parent)
        covered = 0.0
        for i, name in enumerate(self.name):
            out[name + ".self_s"] += selfs[i]
            out[name.split(".", 1)[0] + ".self_s"] += selfs[i]
            p = self.parent[i]
            if p < 0 and self.start[i] >= steps_start:
                covered += self.end[i] - self.start[i]
            while p >= 0 and self.name[p] != name:
                p = self.parent[p]
            if p < 0:  # outermost span of this function
                out[name + ".busy_s"] += self.end[i] - self.start[i]
        for name, peak in self.peak_bytes.items():
            out[name + ".peak_alloc_mb"] = peak / 2**20
        for name, (fn, misses0) in self._caches.items():
            out[name + ".builds"] = fn.cache_info().misses - misses0
        wall = steps_end - steps_start
        out["trace.coverage"] = covered / wall if wall > 0 else 0.0
        out["trace.spans"] = len(self.name)
        return out

    def dump(self, path) -> None:
        """Write the spans as parallel arrays (times in perf_counter seconds)."""
        names = sorted(set(self.name))
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": names,
                    "name": [index[n] for n in self.name],
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                },
                fh,
            )


def install(recorder: Recorder) -> None:
    """Replace chanent's public functions by recording wrappers, everywhere."""
    package = importlib.import_module("chanent")
    modules = {m: importlib.import_module(f"chanent.{m}") for m in MODULES}
    namespaces = [package, *modules.values()]
    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            wrapper = recorder.wrap(f"{short}.{attr}", obj)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, key, wrapper)
