"""Spans at combpolar's module boundaries, recorded from outside the package.

A traced pass replaces, for its duration only, the names one module of
combpolar imports from another (for example the decoder functions that
`combpolar.simulate` imports) by thin wrappers that record a span around
each call.  Nothing inside the package changes.  Spans stay in memory and
are written out when the run ends.

Worker processes forked by `run_fer` inherit the wrappers, but a wrapper
records only in the process that created the tracer; per-layer times are
therefore taken from the single-process (threads=1) parts of a workload,
and the pool itself is traced from the parent.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ARMS = ("cp", "csp-nonc", "csp-c")


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a parent stack and an operation id."""

    def __init__(self):
        self.pid = os.getpid()
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.tags: dict = {}
        self.recording = False
        self._next_id = 0

    def _live(self) -> bool:
        return self.recording and os.getpid() == self.pid

    def _append(self, sid, parent, name, start, end, attrs) -> None:
        self.spans.append(Span(sid, parent, self.op, name, start - self.t0, end - self.t0,
                               {**self.tags, **attrs}))

    def record(self, name: str, start: float, end: float, attrs: dict) -> None:
        """A span whose start and end the caller measured."""
        if not self._live():
            return
        self._next_id += 1
        self._append(self._next_id - 1, self.stack[-1] if self.stack else None,
                     name, start, end, attrs)

    @contextmanager
    def span(self, name: str, **attrs):
        if not self._live():
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stack.pop()
            self._append(sid, parent, name, start, time.perf_counter(), attrs)

    @contextmanager
    def operation(self, label: str, **tags):
        """One benchmark-level call: every span inside shares its id."""
        self.op = self._next_id
        old_tags, self.tags = self.tags, {**self.tags, **tags}
        try:
            with self.span(label):
                yield
        finally:
            self.tags = old_tags
            self.op = None

    def to_json(self) -> list:
        return [{"id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                 "start": s.start, "end": s.end, "attrs": s.attrs} for s in self.spans]


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) == 2 else 1
    return len(x)


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


# (module, attribute, span name, attrs from the call's arguments)
BOUNDARIES = (
    ("combpolar.simulate", "estimate_symmetric_reliability", "construction.estimate",
     lambda a, k: {"N": int(_arg(a, k, 0, "N")),
                   "method": _arg(a, k, 2, "method", "gaussian-approximation")}),
    ("combpolar.simulate", "monte_carlo_symmetric_capacity", "construction.mc",
     lambda a, k: {"frames": int(_arg(a, k, 2, "trials"))}),
    ("combpolar.construction", "genie_decision_llrs", "decoder.genie",
     lambda a, k: {"frames": _rows(_arg(a, k, 0, "llrs"))}),
    ("combpolar.simulate", "sc_decode_batch", "decoder.sc",
     lambda a, k: {"frames": _rows(_arg(a, k, 0, "llrs"))}),
    ("combpolar.simulate", "scl_decode_batch", "decoder.scl",
     lambda a, k: {"frames": _rows(_arg(a, k, 0, "llrs"))}),
    # the shaped arm's decoder: SC at list size 1, SCL otherwise
    ("combpolar.simulate", "ccd_decode_batch", "decoder.ccd",
     lambda a, k: {"frames": _rows(_arg(a, k, 0, "y")),
                   "list_size": int(_arg(a, k, 3, "list_size"))}),
    ("combpolar.simulate", "encode", "polar.encode",
     lambda a, k: {"frames": _rows(_arg(a, k, 0, "u"))}),
    ("combpolar.construction", "encode", "polar.encode",
     lambda a, k: {"frames": _rows(_arg(a, k, 0, "u"))}),
    ("combpolar.simulate", "make_link", "simulate.make_link", lambda a, k: {}),
    ("combpolar.simulate", "synthesize_frames", "simulate.synth",
     lambda a, k: {"frames": len(_arg(a, k, 1, "frame_indices"))}),
    ("combpolar.simulate", "run_link_frames", "simulate.frames",
     lambda a, k: {"frames": len(_arg(a, k, 1, "frame_indices"))}),
    # run_psd imports modulate_symbols from the modem module when it runs
    ("combpolar.modem", "modulate_symbols", "modem.modulate", lambda a, k: {}),
    ("combpolar.simulate", "welch_psd", "spectral.welch", lambda a, k: {}),
)


def _wrap(tracer: Tracer, fn, name: str, attrs_of):
    def traced(*args, **kwargs):
        if not tracer._live():
            return fn(*args, **kwargs)
        with tracer.span(name, **attrs_of(args, kwargs)):
            return fn(*args, **kwargs)

    traced.__wrapped__ = fn
    return traced


def _traced_pool(tracer: Tracer, base):
    class TracedPool(base):
        """The pool `run_fer` builds per super-batch, timed from creation to shutdown."""

        def __init__(self, *args, **kwargs):
            self._trace_start = time.perf_counter()
            self._trace_workers = _arg(args, kwargs, 0, "max_workers")
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                if self._trace_start is not None:
                    tracer.record("simulate.pool", self._trace_start, time.perf_counter(),
                                  {"workers": self._trace_workers})
                    self._trace_start = None

    return TracedPool


@contextmanager
def traced_boundaries(tracer: Tracer):
    """Install the boundary wrappers and record spans; restore on exit."""
    import importlib

    saved = []
    try:
        for mod_name, attr, name, attrs_of in BOUNDARIES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(tracer, fn, name, attrs_of))
        sim = importlib.import_module("combpolar.simulate")
        saved.append((sim, "ProcessPoolExecutor", sim.ProcessPoolExecutor))
        sim.ProcessPoolExecutor = _traced_pool(tracer, sim.ProcessPoolExecutor)
        tracer.recording = True
        yield tracer
    finally:
        tracer.recording = False
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def _layer_of(span: Span) -> str:
    """Map a span to the layer name used in the metric names."""
    if span.name == "decoder.ccd":
        return "decoder.sc" if span.attrs.get("list_size") == 1 else "decoder.scl"
    if span.name == "construction.estimate" and \
            span.attrs.get("method") == "gaussian-approximation":
        return "construction.ga"
    return span.name


COUNTED = ("construction.ga", "construction.mc", "decoder.genie", "decoder.scl",
           "decoder.sc", "simulate.synth", "polar.encode", "simulate.make_link",
           "modem.modulate", "spectral.welch")
WITH_FRAMES = ("construction.mc", "decoder.genie", "decoder.scl", "decoder.sc",
               "simulate.synth", "polar.encode")


def layer_metrics(spans: list, passes: int, overhead_frac: float) -> dict:
    """Per-layer (value, unit) pairs from the spans of `passes` identical traced passes.

    Totals are per pass; per-frame times divide total time by frames seen
    at that boundary.  A layer the workload never enters reads 0, with a
    call count of 0 as its base.  Called with no spans, it lists every
    per-layer metric.
    """
    by_layer: dict[str, list] = {}
    for s in spans:
        by_layer.setdefault(_layer_of(s), []).append(s)

    def total(layer, arm=None):
        return sum(s.duration for s in by_layer.get(layer, ())
                   if arm is None or s.attrs.get("arm") == arm)

    def frames(layer, arm=None):
        return sum(s.attrs.get("frames", 0) for s in by_layer.get(layer, ())
                   if arm is None or s.attrs.get("arm") == arm)

    def ms_per_frame(layer, arm=None):
        n = frames(layer, arm)
        return (1e3 * total(layer, arm) / n if n else 0.0), "ms/frame"

    def median_call(layer, n):
        d = [s.duration for s in by_layer.get(layer, ()) if s.attrs.get("N") == n]
        return (statistics.median(d) if d else 0.0), "s"

    def per_pass(layer):
        return total(layer) / passes, "s"

    mc_time = total("construction.mc")
    pool = by_layer.get("simulate.pool", ())
    pool_capacity = sum(s.duration * (s.attrs.get("workers") or 1) for s in pool)
    # the same frames computed in one process: the threads=1 part of the pass
    single = total("simulate.frames")

    v = {
        "construction.ga_s.n256": median_call("construction.ga", 256),
        "construction.ga_s.n1024": median_call("construction.ga", 1024),
        "construction.mc_trials_per_s": (
            frames("construction.mc") / mc_time if mc_time else 0.0, "trials/s"),
        "decoder.genie_s": per_pass("decoder.genie"),
    }
    for layer, name in (("decoder.scl", "decoder.scl_ms_per_frame"),
                        ("decoder.sc", "decoder.sc_ms_per_frame"),
                        ("simulate.synth", "simulate.synth_ms_per_frame")):
        for arm in ARMS:
            v[f"{name}.{arm}"] = ms_per_frame(layer, arm)
    v.update({
        "polar.encode_ms_per_frame": ms_per_frame("polar.encode"),
        "simulate.make_link_s": per_pass("simulate.make_link"),
        "simulate.pool.starts": (len(pool) / passes, "count"),
        "simulate.pool.wall_s": per_pass("simulate.pool"),
        "simulate.pool.idle_frac": (
            1.0 - single / pool_capacity if pool_capacity else 0.0, "ratio"),
        "modem.modulate_s": per_pass("modem.modulate"),
        "spectral.welch_s": per_pass("spectral.welch"),
    })
    for layer in COUNTED:
        v[f"{layer}.calls"] = (len(by_layer.get(layer, ())) / passes, "count")
        if layer in WITH_FRAMES:
            v[f"{layer}.frames"] = (frames(layer) / passes, "count")
    v["trace.overhead_frac"] = (overhead_frac, "ratio")
    return v
