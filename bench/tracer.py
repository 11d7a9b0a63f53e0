"""Per-layer spans around calls that cross from one conefourier module
into a function of another.

The layers are the package's modules.  install() replaces every function
that some other layer module (or the package namespace the benchmark
calls through) imports with a wrapper, in every namespace that binds it,
including its own module so that function-local imports see it too.  A
wrapped call opens a span only when the caller's span belongs to another
layer; a call inside the same layer runs unwrapped.  Quadrature entry
points also wrap the integrand callables they receive, which gives the
oracle's integrand-call count and attributes the integrand's own code to
the layer that defined it.

A layer's self time is its span time minus the time of the spans opened
inside it.  Counts are per pass and repeat exactly between runs.
"""

from __future__ import annotations

import functools
import time
import types

import numpy as np

LAYERS = ("kernel", "univariate", "multivariate", "transforms",
          "quadrature", "verify", "cli")

_QUADRATURE_ENTRIES = {"integrate_1d": 1, "integrate_tensor": 1,
                       "fourier_num": 1, "parseval_lhs": 2}


def _points(args) -> tuple[int, bool]:
    """(largest array size among the arguments, whether all are scalar);
    sequences are looked into one level deep."""
    size, scalar = 1, True
    for a in args:
        items = a if isinstance(a, (tuple, list)) else (a,)
        for b in items:
            if isinstance(b, np.ndarray) and b.ndim:
                scalar = False
                size = max(size, b.size)
    return size, scalar


class _Layer:
    __slots__ = ("calls", "entries", "points", "scalar_calls", "self_s")

    def __init__(self):
        self.calls = self.entries = self.points = self.scalar_calls = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.by_module = {mod.__name__: name
                          for name, mod in self.modules.items()}
        self._saved = []

    def _reset(self):
        self.layers = {name: _Layer() for name in LAYERS}
        self.stack = []  # [layer, child seconds] per open span
        self.integrals = self.evals = 0
        self.integrand_calls = self.integrand_points = 0

    def install(self):
        self._reset()
        namespaces = list(self.modules.values()) + [self.pkg]
        crossing = {}
        for ns in namespaces:
            for attr, obj in vars(ns).items():
                if not isinstance(obj, types.FunctionType):
                    continue
                home = self.by_module.get(obj.__module__)
                if home is None:
                    continue
                if ns is self.pkg or ns.__name__ != obj.__module__:
                    crossing[id(obj)] = (obj, home)
        crossing[id(self.modules["cli"].main)] = (self.modules["cli"].main, "cli")
        wrappers = {key: self._wrap(fn, home)
                    for key, (fn, home) in crossing.items()}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, w)

    def uninstall(self) -> dict:
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved.clear()
        return self.snapshot()

    def snapshot(self) -> dict:
        out = {}
        for name, st in self.layers.items():
            out[name] = {"calls": st.calls, "entries": st.entries,
                         "points": st.points,
                         "scalar_calls": st.scalar_calls, "self_s": st.self_s}
        out["quadrature"].update(integrals=self.integrals, evals=self.evals,
                                 integrand_calls=self.integrand_calls,
                                 integrand_points=self.integrand_points)
        return out

    def _span(self, fn, layer, args, kwargs):
        stack = self.stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        st = self.layers[layer]
        size, scalar = _points(args)
        st.calls += 1
        st.entries += not stack
        st.points += size
        st.scalar_calls += scalar
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - t0
            stack.pop()
            st.self_s += took - frame[1]
            if stack:
                stack[-1][1] += took

    def _wrap(self, fn, layer):
        n_integrands = _QUADRATURE_ENTRIES.get(fn.__name__) \
            if layer == "quadrature" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if n_integrands is None or (self.stack
                                        and self.stack[-1][0] == layer):
                return self._span(fn, layer, args, kwargs)
            args = tuple(self._integrand(a) if i < n_integrands else a
                         for i, a in enumerate(args))
            self.integrals += 1
            res = self._span(fn, layer, args, kwargs)
            self.evals += int(res.evaluations)
            return res
        return wrapper

    def _integrand(self, f):
        home = self.by_module.get(getattr(f, "__module__", None), "quadrature")

        def integrand(*args):
            self.integrand_calls += 1
            self.integrand_points += _points(args)[0]
            return self._span(f, home, args, {})
        return integrand
