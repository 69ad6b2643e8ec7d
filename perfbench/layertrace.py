"""Layer-boundary tracing from outside the program.

:class:`LayerTracer` wraps every public function and method of each
layer's modules, found by introspection, so an entry point added later
(a batched probe, say) is traced without editing this file.  A wrapper
opens a span only when the call crosses from one layer into another;
calls inside a layer pass straight through.  Spans (layer, start, end,
parent) stay in memory until :meth:`LayerTracer.write` saves them once
the run has ended.

Span clocks are ``time.perf_counter_ns`` (wall time): reading the
process CPU clock costs about 5x more per call on Linux.  The caller
passes :meth:`LayerTracer.summary` a ``scale`` that turns wall time at
a given moment into reference CPU time (host speed, and the window's
CPU/wall ratio for preemption), so ``self_s`` is in the same units as
the end-to-end metrics.

Module-level functions are also rebound where another module copied
them with ``from x import f``, but only in modules of a different layer
(or of no layer): calls inside a layer never open a span anyway, and a
layer's own identity tests (``compare is compare_pages`` selecting an
inlined fast path, say) must keep seeing the original function.

Known blind spots, by construction: private methods (``_name``) run
inside whichever layer called them (event callbacks such as
``LoadGenerator._query_arrival`` count as ``sim.engine`` self time);
properties are not wrapped; a public generator's span closes when the
generator is created, so its iteration counts towards the consumer.
"""

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array

import numpy as np

__all__ = ["LAYERS", "LayerTracer"]

#: Layer name -> the package or module it owns (longest prefix wins).
LAYERS = {
    "sim.engine": "repro.sim.engine",
    "sim.load": "repro.sim.load",
    "sim.memmodel": "repro.sim.memmodel",
    "sim.backends": "repro.sim.backends",
    "cache": "repro.cache",
    "core": "repro.core",
    "mem": "repro.mem",
    "ecc": "repro.ecc",
    "ksm": "repro.ksm",
    "virt": "repro.virt",
    "workloads": "repro.workloads",
    "serve": "repro.serve",
}

#: Pseudo-layer of the caller outside every layer (the benchmark).
OUTSIDE = -1


def _layer_modules(root):
    """The module ``root`` and, for a package, every submodule."""
    module = importlib.import_module(root)
    yield module
    if hasattr(module, "__path__"):
        for info in pkgutil.walk_packages(module.__path__, root + "."):
            yield importlib.import_module(info.name)


class LayerTracer:
    """Wraps layer entry points and records cross-layer spans."""

    def __init__(self, layers=LAYERS):
        self.names = list(layers)
        self._roots = sorted(
            ((module, i) for i, module in enumerate(layers.values())),
            key=lambda item: -len(item[0]),
        )
        self._patches = []  # (owner, attribute, original)
        # Span columns; the wrappers hold references to these arrays.
        self.span_layer = array("b")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [OUTSIDE]
        self._open = [-1]

    def _layer_of(self, module_name):
        for root, index in self._roots:
            if module_name == root or module_name.startswith(root + "."):
                return index
        return None

    # Wrapping -------------------------------------------------------------------

    def _wrap(self, fn, layer):
        stack = self._stack
        open_spans = self._open
        layer_col = self.span_layer
        parent_col = self.span_parent
        start_col = self.span_start
        end_col = self.span_end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack[-1] == layer:
                return fn(*args, **kwargs)
            index = len(layer_col)
            layer_col.append(layer)
            parent_col.append(open_spans[-1])
            end_col.append(0)
            stack.append(layer)
            open_spans.append(index)
            start_col.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_col[index] = clock()
                stack.pop()
                open_spans.pop()

        return traced

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap every public function and method of every layer."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions = {}  # id(original) -> (original, wrapper)
        for root in dict.fromkeys(m for m, _ in self._roots):
            for module in _layer_modules(root):
                layer = self._layer_of(module.__name__)
                for name, obj in list(vars(module).items()):
                    if name.startswith("_"):
                        continue
                    if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                        functions[id(obj)] = (obj, self._wrap(obj, layer),
                                              layer)
                    elif (inspect.isclass(obj)
                          and obj.__module__ == module.__name__
                          and not issubclass(obj, BaseException)):
                        self._wrap_class(obj, layer)
        # Rebind module-level functions wherever ``from x import f``
        # copied them into a module of another layer (or of none), so
        # cross-layer calls go through the wrapper.  The function's own
        # layer keeps the original: see the module docstring.
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if not module_name.startswith("repro"):
                continue
            module_layer = self._layer_of(module_name)
            for name, obj in list(vars(module).items()):
                hit = functions.get(id(obj))
                if hit is not None and hit[0] is obj and hit[2] != module_layer:
                    self._patch(module, name, hit[1])
        return self

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(
                    self._wrap(attr.__func__, layer)))
            elif isinstance(attr, classmethod):
                self._patch(cls, name, classmethod(
                    self._wrap(attr.__func__, layer)))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(attr, layer))

    def uninstall(self):
        """Restore every wrapped attribute (reverse order of patching)."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # Analysis -------------------------------------------------------------------

    def _arrays(self):
        layer = np.frombuffer(self.span_layer, dtype=np.int8).astype(np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        start = np.frombuffer(self.span_start, dtype=np.int64)
        end = np.frombuffer(self.span_end, dtype=np.int64)
        return layer, parent, start, end

    def summary(self, window_ns, scale=None):
        """Per-layer ``self_s`` and ``calls``, plus the unattributed share.

        A span's self time is its duration minus its direct children's
        durations (children nest inside their parent on one thread),
        multiplied by ``scale(midpoints)``: one factor per span, given
        the spans' ``perf_counter_ns`` midpoints (1 when ``scale`` is
        None).  ``unattributed_frac`` is the part of the traced window
        (``window_ns`` of wall time) that no top-level span covers: the
        benchmark's own loop between calls into the program.
        """
        layer, parent, start, end = self._arrays()
        if (end == 0).any():
            raise RuntimeError("summary() with spans still open")
        duration = end - start
        child = np.zeros(len(duration), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_ns = (duration - child).astype(np.float64)
        if scale is not None and len(self_ns):
            self_ns *= scale(start + duration // 2)
        n = len(self.names)
        out = {}
        calls = np.bincount(layer, minlength=n)
        self_total = np.bincount(layer, weights=self_ns, minlength=n)
        for i, name in enumerate(self.names):
            out[f"{name}.self_s"] = float(self_total[i]) / 1e9
            out[f"{name}.calls"] = int(calls[i])
        covered = int(duration[~has_parent].sum())
        out["trace.unattributed_frac"] = (
            max(0, window_ns - covered) / window_ns if window_ns else 0.0
        )
        return out

    def write(self, path):
        """Save every span to a compressed numpy archive at ``path``.

        Arrays: ``names`` (layer names), ``layer`` (index into
        ``names``), ``parent`` (span index, -1 at top level), ``start_ns``
        and ``end_ns`` (``perf_counter_ns`` from the first span).
        """
        layer, parent, start, end = self._arrays()
        origin = int(start.min()) if len(start) else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), layer=layer.astype(np.int8),
            parent=parent, start_ns=start - origin, end_ns=end - origin,
        )
