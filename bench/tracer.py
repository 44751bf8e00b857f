"""Span recorder for the traced benchmark run.

The recorder wraps public stkrig functions in the namespace of the module
that calls them (``stkrig.krige.hpd_solve`` is the name ``predict_dft``
looks up), so no code inside the package changes. Each wrapped call records
a span (name, start, end, parent) in memory; per-call counters such as
kernel points are derived from argument sizes and results. A wrapped name
that the package no longer has is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np


def _kernel_points(args, kwargs):
    """h x omega points a (h, omega, params) kernel call evaluates."""
    h = kwargs.get("h", args[0] if args else 0.0)
    omega = kwargs.get("omega", args[1] if len(args) > 1 else 0.0)
    return int(np.broadcast(np.asarray(h), np.asarray(omega)).size)


def _count_variogram(tracer, args, kwargs, result):
    tracer.add("covmodel.kernel_points", _kernel_points(args, kwargs))


def _count_cov_freq(tracer, args, kwargs, result):
    tracer.add("covmodel.cov_freq.kernel_points", _kernel_points(args, kwargs))


def _count_cov_matrix(tracer, args, kwargs, result):
    m = np.shape(kwargs.get("distances", args[0] if args else None))[0]
    tracer.add("covmodel.cov_matrix.kernel_points", m * m)
    tracer.add("covmodel.cov_matrix.useful_points", m * (m + 1) // 2)


def _count_bins(tracer, args, kwargs, result):
    m = np.shape(kwargs.get("locations", args[0] if args else None))[0]
    tracer.add("estimate.bins", len(result))
    tracer.add("estimate.pairs", m * (m - 1) // 2)


def _count_krige(tracer, args, kwargs, result):
    report = result.jitter_report
    tracer.add("krige.jittered", report["n_jittered"])
    tracer.add("krige.clamped", report["n_clamped"])
    tracer.add("krige.failed", report["n_failed"])


def _count_indep(tracer, args, kwargs, result):
    tracer.add("indeptest.pd_repairs", result.pd_repairs)


def _count_fit(tracer, args, kwargs, result):
    tracer.add("estimate.fits", 1)


# (namespace, attribute, counter). Each namespace is the module whose code
# makes the call, so the span name says who called and the wrapped
# function's own module says which layer did the work.
TARGETS = (
    # calls the benchmark makes itself
    ("stkrig.estimate", "fit", _count_fit),
    ("stkrig.simulate", "simulate_panel", None),
    ("stkrig.krige", "krige_series", _count_krige),
    ("stkrig.cli", "main", None),
    # estimate
    ("stkrig.estimate", "dft_panel", None),
    ("stkrig.estimate", "build_distance_bins", _count_bins),
    ("stkrig.estimate", "variogram_model", _count_variogram),
    ("stkrig.estimate", "unpack_params", None),
    ("stkrig.estimate", "nelder_mead", None),
    ("stkrig.estimate", "asymptotic_covariance", None),
    # krige
    ("stkrig.krige", "dft_panel", None),
    ("stkrig.krige", "assemble_system", None),
    ("stkrig.krige", "cov_matrix", _count_cov_matrix),
    ("stkrig.krige", "cov_freq", _count_cov_freq),
    ("stkrig.krige", "cov_zero", None),
    ("stkrig.krige", "predict_dft", None),
    ("stkrig.krige", "hpd_solve", None),
    ("stkrig.krige", "reconstruct_series", None),
    ("stkrig.krige", "dft_inverse", None),
    ("stkrig.krige", "dft_forward", None),
    ("stkrig.krige", "nelder_mead", None),
    # simulate
    ("stkrig.simulate", "cov_matrix", _count_cov_matrix),
    ("stkrig.simulate", "cholesky_with_jitter", None),
    # indeptest
    ("stkrig.indeptest", "dft_panel", None),
    ("stkrig.indeptest", "cholesky_with_jitter", None),
    # cli
    ("stkrig.cli", "simulate_panel", None),
    ("stkrig.cli", "dft_panel", None),
    ("stkrig.cli", "fit", _count_fit),
    ("stkrig.cli", "krige_series", _count_krige),
    ("stkrig.cli", "ar_forecast", None),
    ("stkrig.cli", "independence_test", _count_indep),
    ("stkrig.cli", "load_locations", None),
    ("stkrig.cli", "load_panel", None),
    ("stkrig.cli", "load_model", None),
    ("stkrig.cli", "load_single_series", None),
    ("stkrig.cli", "save_panel", None),
    ("stkrig.cli", "write_json", None),
)

# The optimizer's objective is a closure, so it is wrapped where it is
# handed to nelder_mead; the key is the namespace that calls nelder_mead.
OBJECTIVES = {
    "stkrig.estimate": "estimate.criterion",
    "stkrig.krige": "krige.ar_objective",
}

# The CLI dispatches through a dict of private handlers.
HANDLERS = ("stkrig.cli", "_HANDLERS")


def layer_key(fn) -> str:
    """'<module>.<function>' of the code that does the work."""
    module = getattr(fn, "__module__", "") or ""
    return "%s.%s" % (module.rsplit(".", 1)[-1], fn.__name__)


class Tracer:
    """In-memory span recorder; inactive until ``active`` is set."""

    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent, op]
        self.counters = {}
        self.absent = []
        self.active = False
        self.op = -1
        self._stack = []
        self._restore = []

    def add(self, counter: str, value) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def enter(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, layer: str, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(idx)
            if counter is not None:
                try:
                    counter(tracer, args, kwargs, result)
                except (TypeError, IndexError, KeyError, AttributeError, ValueError):
                    # a changed signature or result loses the count, not the run
                    tracer.add("counter_errors." + name, 1)
            return result

        return wrapper

    def _wrap_optimizer(self, fn, name: str, layer: str, objective_key: str):
        tracer = self
        plain = self.wrap(fn, name, layer)

        @functools.wraps(fn)
        def wrapper(objective, *args, **kwargs):
            if not tracer.active:
                return fn(objective, *args, **kwargs)
            traced = tracer.wrap(objective, name.rsplit(".", 1)[0] + ".objective",
                                 objective_key)
            result = plain(traced, *args, **kwargs)
            tracer.add(objective_key + ".restarts", 1)
            tracer.add(objective_key + ".converged", int(bool(result.converged)))
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target that exists; remember how to undo it."""
        for namespace, attr, counter in TARGETS:
            module = importlib.import_module(namespace)
            fn = getattr(module, attr, None)
            name = "%s.%s" % (namespace, attr)
            if fn is None:
                self.absent.append(name)
                continue
            if attr == "nelder_mead" and namespace in OBJECTIVES:
                wrapped = self._wrap_optimizer(fn, name, layer_key(fn), OBJECTIVES[namespace])
            else:
                wrapped = self.wrap(fn, name, layer_key(fn), counter)
            setattr(module, attr, wrapped)
            self._restore.append((module, attr, fn))
        namespace, attr = HANDLERS
        handlers = getattr(importlib.import_module(namespace), attr, None)
        if not isinstance(handlers, dict):
            self.absent.append("%s.%s" % HANDLERS)
            return
        original = dict(handlers)
        for command, fn in original.items():
            handlers[command] = self.wrap(fn, "%s.%s.%s" % (namespace, attr, command),
                                          "cli." + command.replace("-", "_"))
        self._restore.append((handlers, None, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if attr is None:
                owner.update(original)
            else:
                setattr(owner, attr, original)
        self._restore = []

    def self_times(self) -> list:
        """Self seconds of each span: its duration minus its children's."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layers(self) -> dict:
        """Per layer key: calls, total seconds, self seconds, seconds per call."""
        out = {}
        for span, own in zip(self.spans, self.self_times()):
            _, layer, start, end, _, _ = span
            row = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        for row in out.values():
            row["s_per_call"] = row["total_s"] / row["calls"]
        return out

    def write(self, path: str, extra: dict) -> None:
        payload = dict(extra)
        payload["absent"] = list(self.absent)
        payload["counters"] = self.counters
        payload["spans"] = [
            {"name": n, "layer": l, "start": s, "end": e, "parent": p, "op": o}
            for n, l, s, e, p, o in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(payload, handle)
