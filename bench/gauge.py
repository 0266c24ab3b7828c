"""A fixed numpy workload that measures how fast the machine runs right now.

On a shared host the same code can run twice as slow for minutes at a
time, from load the container's load average does not show. The harness
times this gauge before every operation of a pass and after the last one,
and reports times scaled to the gauge's reference speed:

    time at reference speed = measured time * REFERENCE_MS / mean gauge_ms()

The gauge involves no snslab code, so a change to the package moves the
scaled times exactly as it moves the measured ones.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# the gauge's time on an unloaded core of the 2-core Xeon VM the benchmark
# was built on; it only sets the scale of the reported times
REFERENCE_MS = 6.0

_X = np.linspace(0.0, 1.0, 2048)
_N = 65536
_POOLS: dict[int, ThreadPoolExecutor] = {}


def _draws(seed: int) -> None:
    rng = np.random.default_rng(seed)
    lit = rng.random(_N) < 0.5
    photons = rng.poisson(np.where(lit, 0.4, 0.1))
    np.bincount(rng.binomial(photons, 0.3))


def gauge_ms(threads: int = 1) -> float:
    """Time one fixed round of small-array arithmetic and large-array sampling.

    The two halves follow the two kinds of work in snslab: Python-driven
    numpy calls on short arrays (the analytic chain, sensing) and random
    draws over long arrays (the sampler). Each kind slows differently when
    the machine is shared, so the gauge holds both. With threads > 1 every
    thread makes the same draws at once, as a session sampled on that many
    jobs does; a one-thread gauge follows such a session worse than its
    own wall-clock time does.
    """
    t0 = time.perf_counter()
    for _ in range(100):
        np.mean(np.exp(-_X * np.cos(_X)))
    if threads == 1:
        _draws(0)
    else:
        pool = _POOLS.setdefault(threads, ThreadPoolExecutor(threads))
        list(pool.map(_draws, range(threads)))
    return 1e3 * (time.perf_counter() - t0)


def at_reference(seconds: float, gauge: float) -> float:
    return seconds * REFERENCE_MS / gauge
