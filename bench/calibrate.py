"""A fixed probe of how fast the machine runs right now.

The host this benchmark was built on runs the same code up to twice as slowly
for stretches of seconds to minutes, set by load outside the container.
`probe()` does a fixed amount of work shaped like the package's own hot loops
at the parent commit (compensated sums of x(1-x)^t over a Python tuple, and
per-replicate generator set-up plus inverse-CDF draws), but never calls the
package, so a change to the package cannot move it.  Timing it between
operations measures the machine's speed at that moment.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Typical probe time, and wall time of this file run as a fresh process, on
# the 2-vCPU Xeon (2.1 GHz) virtual machine where the benchmark was written,
# in its fast state: timings are reported at that speed.
REFERENCE_S = 0.0040
PROCESS_REFERENCE_S = 0.14

_MASSES = tuple(float(m) for m in np.random.default_rng(12345).exponential(size=2000))
_TOTAL = math.fsum(_MASSES)
_MASSES = tuple(m / _TOTAL for m in _MASSES)
_CUM = np.cumsum(np.full(50, 1.0 / 50))
_CUM[-1] = 1.0
_WEIGHTS = np.full(50, 1.0 / 50)


def _pow_one_minus(p: float, t: int) -> float:
    if p >= 1.0:
        return 0.0
    if t >= 64 or p < 1e-8:
        return math.exp(t * math.log1p(-p))
    return (1.0 - p) ** t


def _work() -> float:
    s = 0.0
    for t in (10, 100, 1000):
        s += math.fsum(m * _pow_one_minus(m, t) for m in _MASSES)
    for i in range(150):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=1, spawn_key=(i,)))
        counts = np.bincount(np.searchsorted(_CUM, rng.random(100), side="right"), minlength=50)
        s += float(_WEIGHTS[counts == 0].sum())
    return s


def probe() -> float:
    """Seconds taken by the fixed probe work (fastest of 3, to shed hiccups)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(times: list[float], probes: list[float]) -> list[float]:
    """times[i] at the reference speed, judged by the mean of the probes
    taken just before (probes[i]) and just after (probes[i + 1]) it."""
    return [t * 2.0 * REFERENCE_S / (probes[i] + probes[i + 1]) for i, t in enumerate(times)]


if __name__ == "__main__":
    # The reference process for set-up and CLI timings: interpreter start,
    # numpy import and a fixed amount of the probe work.
    for _ in range(4):
        _work()
