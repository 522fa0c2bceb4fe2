"""Span tracer that measures the interfere layers from outside the package.

Installing the tracer rebinds every public function of each layer module,
wherever the package binds it (the defining module, modules that imported
it by name and the package namespace), to a wrapper that records one span:
function id, start, end and parent span.  Spans are kept in compact arrays
and turned into self times when the run ends: a span's self time is its
duration minus the durations of its direct children.

The hottest calls are counted, not spanned: the ``ProbabilityCache``
lookup methods only increment a counter, so a cache hit costs its caller
one extra Python call.  A cache miss is spanned through the transition
module's value functions, which is where a fill does its work.

Uninstalling restores every original binding.  Nothing under ``src/`` is
modified on disk.
"""

from __future__ import annotations

import functools
import math
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "identities", "genfunc", "transition", "permdet", "combinat", "matrixcore")

# Private transition functions that fill the probability cache on a miss.
CACHE_FILLS = ("_boson_value", "_fermion_value", "_classical_value")
CACHE_LOOKUPS = ("boson", "fermion", "classical")

# Every SAMPLE_EVERY-th occupation_permanent call is kept for the accuracy check.
SAMPLE_EVERY = 251


def _multiplicity_rows(row_occ, col_occ) -> int:
    """Rows the multiplicity Ryser kernel sums: prod(occ_s + 1) on the
    cheaper side, or 0 when a shape convention decides the value."""
    rows = [int(c) for c in row_occ]
    cols = [int(c) for c in col_occ]
    if sum(rows) != sum(cols) or sum(rows) == 0:
        return 0
    return min(math.prod(c + 1 for c in rows), math.prod(c + 1 for c in cols))


def _ryser_terms(a) -> int:
    shape = np.shape(a)
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
        return 0
    return (1 << shape[0]) - 1


class Tracer:
    """Span recorder bound to one imported ``interfere`` package."""

    def __init__(self, package: types.ModuleType):
        self.package = package
        self.modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS}
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.fid = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {
            "occupation_permanent.terms": 0,
            "permanent.terms": 0,
            "batched.terms": 0,
            **{f"lookup.{s}": 0 for s in CACHE_LOOKUPS},
        }
        self.samples: list[tuple] = []
        self._occ_calls = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = self._build_wrappers()

    # -- wrappers ---------------------------------------------------------

    def _fid(self, layer: str, name: str) -> int:
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _span(self, fn, fid: int, post=None):
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if post is not None:
                post(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _lookup(self, fn, key: str):
        counts = self.counts

        def wrapper(cache, i, n):
            counts[key] += 1
            return fn(cache, i, n)

        return functools.update_wrapper(wrapper, fn)

    def _post_occupation_permanent(self, args, kwargs, result):
        a, row_occ, col_occ = args[:3]
        self.counts["occupation_permanent.terms"] += _multiplicity_rows(row_occ, col_occ)
        self._occ_calls += 1
        if self._occ_calls % SAMPLE_EVERY == 0:
            self.samples.append((np.array(a), tuple(row_occ), tuple(col_occ), result.value))

    def _post_permanent(self, args, kwargs, result):
        self.counts["permanent.terms"] += _ryser_terms(args[0])

    def _post_permanent_many(self, args, kwargs, result):
        shape = np.shape(args[0])
        if len(shape) == 3 and shape[1] == shape[2]:
            self.counts["batched.terms"] += shape[0] * ((1 << shape[1]) - 1)

    def _build_wrappers(self) -> dict[int, tuple[object, object]]:
        """Map id(original) -> (original, wrapper) for every traced function."""
        posts = {
            ("permdet", "occupation_permanent"): self._post_occupation_permanent,
            ("permdet", "permanent"): self._post_permanent,
            ("permdet", "permanent_many"): self._post_permanent_many,
        }
        wrappers = {}
        for layer, module in self.modules.items():
            for name, obj in sorted(vars(module).items()):
                public = not name.startswith("_")
                fill = layer == "transition" and name in CACHE_FILLS
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and (public or fill)
                ):
                    fid = self._fid(layer, name)
                    wrappers[id(obj)] = (obj, self._span(obj, fid, posts.get((layer, name))))
        return wrappers

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = self.package.__name__
        namespaces = [
            m for name, m in sys.modules.items()
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        cache_cls = self.modules["transition"].ProbabilityCache
        for stat in CACHE_LOOKUPS:
            original = vars(cache_cls)[stat]
            self._patches.append((cache_cls, stat, original))
            setattr(cache_cls, stat, self._lookup(original, f"lookup.{stat}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.frombuffer(self.fid, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Self time per layer, span counts per function and the root time.

        ``root_s`` is the summed duration of spans without a parent; the
        layer self times add up to it exactly, up to rounding.
        """
        s = self.spans()
        dur = s["end"] - s["start"]
        child = np.zeros_like(dur)
        nested = s["parent"] >= 0
        np.add.at(child, s["parent"][nested], dur[nested])
        self_time = dur - child
        fid = s["fid"].astype(np.intp)
        layer = np.asarray(self.layer_of, dtype=np.intp)[fid]
        calls = np.bincount(fid, minlength=len(self.names))
        incl = np.bincount(fid, weights=dur, minlength=len(self.names))
        layer_self = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        layer_calls = np.bincount(layer, minlength=len(LAYERS))
        return {
            "spans": len(dur),
            "root_s": float(dur[~nested].sum()),
            "layer_self_s": {name: float(layer_self[k]) for k, name in enumerate(LAYERS)},
            "layer_calls": {name: int(layer_calls[k]) for k, name in enumerate(LAYERS)},
            "calls": {name: int(calls[k]) for k, name in enumerate(self.names)},
            "inclusive_s": {name: float(incl[k]) for k, name in enumerate(self.names)},
        }

    def save(self, path: Path) -> None:
        """Write every span and the function-name table to one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), layers=np.array(LAYERS), **self.spans())
