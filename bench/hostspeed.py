"""Host-speed normalisation of wall times.

The benchmark's host is a few vCPUs shared with other tenants, and its speed
drifts: in a fast stretch the same Python and numpy work runs up to twice as
fast, the stretches switch within seconds, and their mix can change for
longer than a run. A median within a run cannot cancel that. So every timed
call is scaled by how fast the host ran a fixed reference loop
(``reference_work``) right before and right after it:

    nominal_s = wall_s * NOMINAL_REFERENCE_S / interquartile_mean(reference_s)

That is the call's time on a host that runs the reference loop in
``NOMINAL_REFERENCE_S``. Each probe runs the loop once on every CPU the
process may use, pinned to it in turn, because a pooled campaign runs on all
of them and a serial one on whichever the scheduler picks. The reference loop
is the benchmark's own code and uses nothing of snnfault, so a change to the
library moves the nominal times exactly as it moves the wall times.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# Seconds the reference loop takes on the 2-vCPU Xeon host the bounds were set on.
NOMINAL_REFERENCE_S = 0.0075

_rng = np.random.default_rng(20240400)
_W = _rng.standard_normal((100, 96)).astype(np.float32)
_X = (_rng.random((25, 96)) < 0.3).astype(np.float32)


def reference_work() -> int:
    """A fixed mix of the two kinds of work snnfault does: interpreted row
    formatting and dict updates, then small binary32 array ops over T=25 steps
    of a 96->100 LIF layer."""
    counts: dict[str, int] = {}
    acc = 0
    for i in range(3000):
        key = f"{i:05d},{i * 0.5:.6f}"
        counts[key] = counts.get(key, 0) + len(key.split(","))
        acc += i & 7
    v = np.zeros(100, np.float32)
    for t in range(25):
        v = v * np.float32(0.9) + np.cumsum(_W * _X[t], axis=1)[:, -1]
        v[v > 1.0] = 0.0
    return acc + len(counts)


def interquartile_mean(samples: list[float]) -> float:
    """Mean of the middle half of the samples. A probe that another tenant's
    burst slowed, or that caught a brief fast spell, does not move it. Over
    the same five runs per workload, it cut the spread of the scaled step
    times by a quarter to two thirds against a plain mean."""
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut : len(ordered) - cut])


@dataclass
class HostClock:
    """Times calls in wall and nominal seconds. The probe after one call is
    the probe before the next, so back-to-back calls pay for one probe each."""

    reference_s: list[float] = field(default_factory=list)
    _last_probe: list[float] = field(default_factory=list)

    def probe(self, rounds: int) -> list[float]:
        """Reference-loop times, `rounds` times on each allowed CPU."""
        cpus = os.sched_getaffinity(0)
        samples = []
        try:
            for _ in range(rounds):
                for cpu in sorted(cpus):
                    os.sched_setaffinity(0, {cpu})
                    t0 = time.perf_counter()
                    reference_work()
                    samples.append(time.perf_counter() - t0)
        finally:
            os.sched_setaffinity(0, cpus)
        self.reference_s.extend(samples)
        self._last_probe = samples
        return samples

    def call(self, fn, rounds: int = 1):
        """Run fn() between probes. Returns its result, wall and nominal seconds."""
        before = self._last_probe or self.probe(rounds)
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        after = self.probe(rounds)
        return result, wall, wall * NOMINAL_REFERENCE_S / interquartile_mean(before + after)

    def summary(self) -> str:
        ref = self.reference_s or [float("nan")]
        return (f"reference loop: {len(self.reference_s)} samples, "
                f"median {statistics.median(ref) * 1e3:.3f} ms "
                f"(nominal {NOMINAL_REFERENCE_S * 1e3:.3f} ms), "
                f"min {min(ref) * 1e3:.3f} ms, max {max(ref) * 1e3:.3f} ms")
