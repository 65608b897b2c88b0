"""Spans around the public functions of each bryantflux module.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper, in every module namespace that holds it (``bryant.eval_at``,
``flux.immersion_samples`` and the ``bryantflux`` package itself), and
``Tracer.remove`` puts the originals back.
Wrappers record a span only inside ``Tracer.op``; calls outside an op pass
straight through. Spans stay in memory.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

# The layers are the package's modules, in import order.
LAYERS = ("geometry", "series", "killing", "bryant", "ends", "flux",
          "balance", "cli")


def _eval_terms(a, rho, taus):
    """Horner steps of one eval_at call: N angles times K + 1 coefficients."""
    return len(a.coeffs) * int(np.size(taus))


# Work counted at the call, from its arguments, for the spans that have one.
WORK = {"series.eval_at": _eval_terms}


@dataclass
class Span:
    name: str
    op: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    failed: bool = False
    work: int = 0

    @property
    def duration(self):
        return self.end - self.start


def public_functions(module):
    """Functions a module defines and does not mark private."""
    return {name: fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == module.__name__}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._patches = []

    def install(self):
        """Wrap every public function of every layer wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules["bryantflux." + layer]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = self._wrap("%s.%s" % (layer, name), fn)
        namespaces = [m for key, m in sys.modules.items()
                      if key == "bryantflux" or key.startswith("bryantflux.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def remove(self):
        while self._patches:
            ns, attr, value = self._patches.pop()
            setattr(ns, attr, value)

    def _wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = Span(name, self._op,
                        self._stack[-1] if self._stack else None, 0.0)
            if work is not None:
                span.work = work(*args, **kwargs)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return wrapper

    @contextmanager
    def op(self, op_id):
        """Root span of one benchmark op; layer spans nest under it."""
        self._op = op_id
        span = Span("op", op_id, None, 0.0)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._op = None


def self_times(spans):
    """Each span's duration minus the time its child spans cover. Children
    of one span run one after another on one thread, so they never overlap
    and cover the sum of their durations."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


# Per-layer metrics: name -> unit. Totals are per pass over the op pool.
PER_LAYER_UNITS = {
    "ends.build_end.calls": "count",
    "ends.build_end.self_ms": "ms",
    "ends.build_end.failed": "count",
    "ends.frobenius_solve.calls": "count",
    "ends.frobenius_solve.self_ms": "ms",
    "ends.solves_per_build": "ratio",
    "series.eval_at.calls": "count",
    "series.eval_at.self_ms": "ms",
    "series.eval_at.terms": "count",
    "bryant.immersion_samples.calls": "count",
    "bryant.immersion_samples.self_ms": "ms",
    "bryant.transform_frame.self_ms": "ms",
    "bryant.one_forms.self_ms": "ms",
    "flux.flux_triple.self_ms": "ms",
    "flux.circle_samples.calls": "count",
    "flux.circle_samples.self_ms": "ms",
    "flux.flux_from_samples.calls": "count",
    "flux.flux_from_samples.self_ms": "ms",
    "flux.rings_per_circle": "ratio",
    "flux.samples_reuse": "ratio",
    "killing.samples.self_ms": "ms",
    "balance.calls": "count",
    "balance.self_ms": "ms",
    "cli.run.calls": "count",
    "cli.run.self_ms": "ms",
    "cli.bytes_out": "B",
    **{layer + ".share": "ratio" for layer in LAYERS},
    "other.share": "ratio",
    "trace.overhead": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, passes):
    """Per-layer values: counts and times averaged over ``passes`` traced
    passes, ratios of the totals.

    ``other.share`` is the self time of the op root spans: benchmark code
    inside an op that no layer wrapper covers.
    """
    selfs = self_times(spans)
    calls, self_ms, failed, work = {}, {}, {}, {}
    rings = 0
    for s, t in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_ms[s.name] = self_ms.get(s.name, 0.0) + 1e3 * t
        failed[s.name] = failed.get(s.name, 0) + s.failed
        work[s.name] = work.get(s.name, 0) + s.work
        if (s.name == "bryant.immersion_samples" and s.parent is not None
                and spans[s.parent].name == "flux.circle_samples"):
            rings += 1
    op_ms = sum(1e3 * s.duration for s in spans if s.name == "op")

    def total(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    m = {
        "ends.build_end.calls": calls.get("ends.build_end", 0),
        "ends.build_end.self_ms": self_ms.get("ends.build_end", 0.0),
        "ends.build_end.failed": failed.get("ends.build_end", 0),
        "ends.frobenius_solve.calls": calls.get("ends.frobenius_solve", 0),
        "ends.frobenius_solve.self_ms":
            self_ms.get("ends.frobenius_solve", 0.0),
        "series.eval_at.calls": calls.get("series.eval_at", 0),
        "series.eval_at.self_ms": self_ms.get("series.eval_at", 0.0),
        "series.eval_at.terms": work.get("series.eval_at", 0),
        "bryant.immersion_samples.calls":
            calls.get("bryant.immersion_samples", 0),
        "bryant.immersion_samples.self_ms":
            self_ms.get("bryant.immersion_samples", 0.0),
        "bryant.transform_frame.self_ms":
            self_ms.get("bryant.transform_frame", 0.0),
        "bryant.one_forms.self_ms": self_ms.get("bryant.one_forms", 0.0),
        "flux.flux_triple.self_ms": self_ms.get("flux.flux_triple", 0.0),
        "flux.circle_samples.calls": calls.get("flux.circle_samples", 0),
        "flux.circle_samples.self_ms":
            self_ms.get("flux.circle_samples", 0.0),
        "flux.flux_from_samples.calls":
            calls.get("flux.flux_from_samples", 0),
        "flux.flux_from_samples.self_ms":
            self_ms.get("flux.flux_from_samples", 0.0),
        "killing.samples.self_ms":
            self_ms.get("killing.vector_samples", 0.0)
            + self_ms.get("killing.potential_samples", 0.0),
        "balance.calls": total(calls, "balance."),
        "balance.self_ms": total(self_ms, "balance."),
        "cli.run.calls": calls.get("cli.run", 0),
        "cli.run.self_ms": self_ms.get("cli.run", 0.0),
    }
    for key in list(m):
        m[key] /= passes
    m["ends.solves_per_build"] = _ratio(calls.get("ends.frobenius_solve", 0),
                                        calls.get("ends.build_end", 0))
    m["flux.rings_per_circle"] = _ratio(rings,
                                        calls.get("flux.circle_samples", 0))
    m["flux.samples_reuse"] = _ratio(calls.get("flux.flux_from_samples", 0),
                                     calls.get("flux.circle_samples", 0))
    for layer in LAYERS:
        m[layer + ".share"] = _ratio(total(self_ms, layer + "."), op_ms)
    m["other.share"] = _ratio(self_ms.get("op", 0.0), op_ms)
    return m
