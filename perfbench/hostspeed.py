"""A fixed probe of the host's speed, to take host drift out of timings.

On a shared host the same call can run 1.5 times slower for minutes at a
time, and the slow spells outlast a whole run, so neither more calls nor
best-of-k remove them. The probe is a fixed piece of work that does not use
clcd: a G²-style contingency count with numpy on a small and a large table,
and a pure-Python loop over dicts and tuples, the three kinds of work clcd's
calls are made of. It is timed right before and right after every timed
call, and the call's time is scaled by ``reference / probe``: the time the
call would have taken at the host speed the reference was recorded at.

A change to clcd cannot move the probe, so a faster clcd still reads faster;
only the host's speed is divided out.
"""

from __future__ import annotations

import resource
import time

import numpy as np

PROBE_SEED = 20_11_04176


def _self_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Probe:
    """Times the fixed probe; each :meth:`measure` returns (wall, cpu)."""

    def __init__(self, small_n: int = 5000, large_n: int = 400_000,
                 small_reps: int = 150, loop_n: int = 60_000):
        rng = np.random.default_rng(PROBE_SEED)
        self.small = [rng.integers(0, k, small_n) for k in (3, 3, 9)]
        self.large = [rng.integers(0, k, large_n) for k in (3, 3, 27)]
        self.small_reps = small_reps
        self.keys = [tuple(rng.integers(0, 50, 3).tolist())
                     for _ in range(loop_n)]

    @staticmethod
    def _g2(x, y, z) -> float:
        joint = (z * 3 + x) * 3 + y
        _, inv = np.unique(joint, return_inverse=True)
        counts = np.bincount(inv).astype(float)
        return float(np.sum(counts * np.log(counts)))

    def work(self) -> float:
        acc = 0.0
        for _ in range(self.small_reps):
            acc += self._g2(*self.small)
        acc += self._g2(*self.large)
        seen: dict = {}
        for key in self.keys:
            seen[key] = seen.get(key, 0) + 1
            acc += len(key)
        return acc + len(seen)

    def measure(self) -> tuple:
        cpu0 = _self_cpu()
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0, _self_cpu() - cpu0
