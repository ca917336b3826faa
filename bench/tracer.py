"""Spans around calls into the public functions of the ``toda`` modules.

The tracer works from outside the package: ``install`` replaces every public
function defined in a ``toda.<layer>`` module, in every ``toda`` namespace
that binds it, with a wrapper that records one span per call; ``uninstall``
puts the originals back.  Nothing in the package is edited, and code run
between ``uninstall`` and the next ``install`` calls the originals.

A span is ``(key, start, end, parent, op, error, size, extra)``: ``key`` is
``<layer>.<function>``, times are ``perf_counter`` seconds, ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the operation id set by
the caller, ``error`` the class name of a ``TodaError`` that left the call
(else ``None``), ``size`` the matrix size of the first argument where it has
one, and ``extra`` a per-function count (RK4 steps of ``lax_integrate``,
bytes returned by ``dumps``).  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "jacobi_core",
    "spectral_direct",
    "rational_weyl",
    "spectral_inverse",
    "coordinates",
    "poisson",
    "flows",
    "serialize",
    "suites",
    "cli",
)


def _lax_steps(args, kwargs, result):
    t = kwargs.get("t", args[1] if len(args) > 1 else 0.0)
    dt = kwargs.get("dt", args[2] if len(args) > 2 else 1e-3)
    return max(1, math.ceil(abs(float(t)) / float(dt) - 1e-12))


def _returned_bytes(args, kwargs, result):
    return len(result.encode())


_EXTRA = {
    "flows.lax_integrate": _lax_steps,
    "serialize.dumps": _returned_bytes,
}

# Functions whose spans also record the matrix size, for the size sweep.
SIZED = (
    "spectral_direct.eigen",
    "rational_weyl.to_quotient",
    "spectral_inverse.stieltjes_reconstruct",
    "spectral_inverse.lanczos_reconstruct",
)


class Tracer:
    def __init__(self, todaerror: type):
        self.todaerror = todaerror
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, key: str, fn):
        extra_of = _EXTRA.get(key)
        sized = key in SIZED
        spans, stack, todaerror = self.spans, self._stack, self.todaerror

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except todaerror as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                size = getattr(args[0], "n", None) if sized and args else None
                extra = extra_of(args, kwargs, result) if extra_of and error is None else None
                spans[index] = (key, start, end, parent, self.op, error, size, extra)

        return traced

    def install(self) -> None:
        """Wrap every public toda function in every toda namespace."""
        wrappers: dict[int, object] = {}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "toda" or name.startswith("toda.")):
                continue
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or value.__name__.startswith("_"):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("toda.") or layer not in LAYERS:
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = wrappers[id(value)] = self._wrap(
                        "%s.%s" % (layer, value.__name__), value
                    )
                setattr(module, attr, wrapper)
                self._patches.append((module, attr, value, wrapper))

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """One JSON object per span, in call order."""
        fields = ("name", "start", "end", "parent", "op", "error", "size", "extra")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")


def summarize(spans: list) -> dict:
    """Per-layer and per-function totals over a list of spans.

    Self time is a span's duration minus the durations of its direct
    children.  A function's inclusive time counts only spans whose parent is
    not the same function, so recursion is not counted twice.  A layer's
    errors are the spans that raised a ``TodaError`` to a caller outside the
    layer.
    """
    child_time = [0.0] * len(spans)
    for key, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layer_calls: dict = defaultdict(int)
    layer_self: dict = defaultdict(float)
    layer_errors: dict = defaultdict(int)
    fn_calls: dict = defaultdict(int)
    fn_time: dict = defaultdict(float)
    fn_errors: dict = defaultdict(int)
    fn_extra: dict = defaultdict(int)
    by_size: dict = defaultdict(list)
    for i, (key, start, end, parent, op, error, size, extra) in enumerate(spans):
        layer = key.partition(".")[0]
        parent_key = spans[parent][0] if parent >= 0 else None
        layer_calls[layer] += 1
        layer_self[layer] += end - start - child_time[i]
        fn_calls[key] += 1
        if error is not None:
            fn_errors[key] += 1
            if parent_key is None or parent_key.partition(".")[0] != layer:
                layer_errors[layer] += 1
        if parent_key != key:
            fn_time[key] += end - start
            if extra is not None:
                fn_extra[key] += extra
        if size is not None:
            by_size[(key, size)].append(end - start)
    return {
        "layer_calls": dict(layer_calls),
        "layer_self_s": dict(layer_self),
        "layer_errors": dict(layer_errors),
        "fn_calls": dict(fn_calls),
        "fn_time_s": dict(fn_time),
        "fn_errors": dict(fn_errors),
        "fn_extra": dict(fn_extra),
        "by_size_s": dict(by_size),
    }
