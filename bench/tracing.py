"""Span tracing around snnfault's public functions, installed from outside.

A span records a name, a start and an end (``perf_counter_ns``) and the span
that was open when it began (its parent). Spans are kept in flat in-memory
arrays and summarised, or saved, after the traced phase. A span's self time
is its duration minus the durations of its direct children.

``installed(tracer)`` wraps the library functions at the names their callers
look up (``snnfault.core.linear_forward`` for ``network_forward``'s kernel
calls, ``snnfault.campaign.network_forward`` for the campaign, and so on) and
restores the originals on exit. The library itself is not edited.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

KERNELS = ("linear_forward", "recurrent_forward", "conv2d_forward", "avgpool2d_forward", "lif_step")


class Tracer:
    """Collects spans from the functions it wraps; one tracer per traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def spans(self) -> dict[str, "Spans"]:
        """Per-name durations and self times, in nanoseconds."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_ns = dur - child
        return {
            name: Spans(dur[ids == i], self_ns[ids == i]) for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


@dataclass
class Spans:
    dur_ns: np.ndarray
    self_ns: np.ndarray

    @property
    def calls(self) -> int:
        return int(self.dur_ns.size)

    def mean_us(self, self_time: bool = False) -> float:
        ns = self.self_ns if self_time else self.dur_ns
        return float(ns.mean()) / 1e3 if ns.size else 0.0

    def pct_ms(self, q: float) -> float:
        return float(np.percentile(self.dur_ns, q)) / 1e6 if self.dur_ns.size else 0.0

    def total_s(self, self_time: bool = False) -> float:
        return float((self.self_ns if self_time else self.dur_ns).sum()) / 1e9


NO_SPANS = Spans(np.zeros(0, np.int64), np.zeros(0, np.int64))


@contextmanager
def installed(tracer: Tracer):
    """Wrap the library's per-layer functions for the duration of the block."""
    from snnfault import campaign, core, faults, report

    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def trace(owner, attr, name):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    for kernel in KERNELS:
        trace(core, kernel, f"core.{kernel}")
    trace(core.Network, "copy", "core.Network.copy")
    trace(campaign, "network_forward", "core.network_forward")
    trace(campaign, "reset_state", "core.reset_state")
    trace(campaign, "inject_static", "faults.inject_static")
    trace(campaign, "target_tensor", "faults.target_tensor")
    trace(faults, "target_tensor", "faults.target_tensor")
    trace(campaign, "run_golden", "campaign.run_golden")
    trace(campaign, "run_faulty", "campaign.run_faulty")
    trace(campaign, "write_golden", "campaign.write_golden")
    trace(campaign, "load_model", "dataio.load_model")
    trace(campaign, "load_dataset", "dataio.load_dataset")
    trace(campaign, "read_fault_list", "faultlist.read_fault_list")
    trace(campaign, "parse_score", "dataio.parse_score")
    trace(report, "classify_pair", "classify.classify_pair")

    make_hook = campaign.make_refresh_hook
    patch(campaign, "make_refresh_hook",
          lambda d: tracer.wrap("faults.refresh_hook", make_hook(d)))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
