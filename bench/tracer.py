"""In-memory span tracer that wraps fwdapprox's public functions from outside.

Every public function of a traced module, and the public and arithmetic
methods of its classes, is replaced by a wrapper that records one span
(name, start, end, parent) per call.  A module that did ``from .x import y``
holds its own binding of ``y``, so each wrapper is installed at every binding
site found by identity in the package's module dictionaries; calls through
``cli`` or ``dynamics`` aliases are therefore counted too.  ``numpy.fft.fft``
is wrapped as well, because both FFT projections call it by attribute.

Nothing inside the library changes: ``restore`` puts every original back.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("space", "basis", "projection", "semigroup", "dynamics",
          "markovian", "cli")
_METHOD_DUNDERS = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__")


class Tracer:
    """Span store plus the patching that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.raised: Counter = Counter()
        self.coeff_keys: set = set()
        self._coeff_sig = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def wrap(self, fn, name: str, layer: str, post=None):
        """Return a span-recording wrapper of ``fn``.

        ``post(args, kwargs, result)`` runs after the span closes and returns
        the value handed back to the caller.
        """
        nid = self._name_id(name, layer)
        span_name, start, end, parent = (self.span_name, self.start, self.end,
                                         self.parent)
        stack, raised, clock = self.stack, self.raised, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[layer] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            return out if post is None else post(args, kwargs, out)

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "fwdapprox") -> None:
        """Wrap every layer's public callables at all of their binding sites."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(obj, f"{layer}.{attr}", layer,
                                                  self._post_hook(layer, attr, obj))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        space = modules[f"{package}.space"]
        spline = space.CubicSpline
        wrappers[id(spline)] = self.wrap(spline, "space.CubicSpline", "space")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._set(mod, attr, w)
        self._set(np.fft, "fft", self.wrap(np.fft.fft, "projection.fft",
                                           "projection", self._count_fft))

    def _wrap_class(self, cls, layer: str) -> None:
        done: dict[int, object] = {}
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr.startswith("_") and attr not in _METHOD_DUNDERS:
                continue
            w = done.get(id(obj))
            if w is None:
                w = done[id(obj)] = self.wrap(obj, f"{layer}.{cls.__name__}.{obj.__name__}",
                                              layer)
            self._set(cls, attr, w)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- counters read where the work happens ---------------------------------

    def _post_hook(self, layer: str, attr: str, fn):
        if layer == "basis" and attr.startswith("eval_"):
            return self._count_points
        if (layer, attr) == ("projection", "coefficients_fft"):
            self._coeff_sig = inspect.signature(fn)
            return self._note_coeff_input
        if (layer, attr) == ("cli", "write_csv"):
            return self._count_rows
        if (layer, attr) == ("markovian", "make_field"):
            return self._trace_field
        return None

    def _count_points(self, args, kwargs, out):
        self.counters["basis.eval_points"] += int(np.size(out))
        return out

    def _count_fft(self, args, kwargs, out):
        self.counters["projection.fft_points"] += int(np.shape(args[0])[-1])
        return out

    def _count_rows(self, args, kwargs, out):
        self.counters["cli.rows_written"] += len(args[2]) + 1
        return out

    def _note_coeff_input(self, args, kwargs, out):
        bound = self._coeff_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        h, k, params, n_points = bound.args
        self.coeff_keys.add((complex(h.value_at_zero), hash(h.deriv_samples.tobytes()),
                             h.grid_step, h.x_max, k, params, n_points))
        return out

    def _trace_field(self, args, kwargs, field):
        return dataclasses.replace(
            field,
            b=self.wrap(field.b, "markovian.field.b", "markovian"),
            psi=self.wrap(field.psi, "markovian.field.psi", "markovian"))

    # -- reading the spans ---------------------------------------------------

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Array view of the recorded spans with the usual aggregates."""

    def __init__(self, tr: Tracer) -> None:
        self.names = tr.names
        self.layer_names = list(LAYERS)
        self.name = np.array(tr.span_name, dtype=np.int64)
        self.parent = np.array(tr.parent, dtype=np.int64)
        self.dur = np.array(tr.end, dtype=float) - np.array(tr.start, dtype=float)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=self.dur.size)
        self.self_time = self.dur - child
        layer_idx = np.array([LAYERS.index(layer) for layer in tr.layer_of], dtype=np.int64)
        self.span_layer = layer_idx[self.name]

    def _ids(self, names) -> np.ndarray:
        wanted = set(names)
        return np.array([i for i, nm in enumerate(self.names) if nm in wanted],
                        dtype=np.int64)

    def mask(self, names) -> np.ndarray:
        return np.isin(self.name, self._ids(names))

    def calls(self, *names) -> int:
        return int(np.count_nonzero(self.mask(names)))

    def calls_under(self, name: str, parent: str) -> int:
        """Spans of ``name`` whose direct parent is a span of ``parent``."""
        m = self.mask([name]) & (self.parent >= 0)
        return int(np.count_nonzero(self.mask([parent])[self.parent[m]]))

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self.mask([name])]

    def inclusive(self, *names) -> float:
        """Time covered by spans of ``names``, nested ones counted once."""
        m = self.mask(names)
        nested = np.zeros_like(m)
        anc = np.where(m, self.parent, -1)
        while np.any(anc >= 0):
            live = anc >= 0
            nested[live] |= m[anc[live]]
            anc[live] = self.parent[anc[live]]
        return float(np.sum(self.dur[m & ~nested]))

    def self_of(self, *names) -> float:
        return float(np.sum(self.self_time[self.mask(names)]))

    def layer_self(self, layer: str) -> float:
        return float(np.sum(self.self_time[self.span_layer == self.layer_names.index(layer)]))

    def layer_calls(self, layer: str) -> int:
        return int(np.count_nonzero(self.span_layer == self.layer_names.index(layer)))

    def root_time(self) -> float:
        return float(np.sum(self.dur[self.parent < 0]))

    def names_like(self, prefix: str) -> list[str]:
        return [n for n in self.names if n.startswith(prefix)]
