"""Host-speed calibration for the timed metrics.

The small shared machines this benchmark runs on switch, for seconds to
minutes at a time, between full speed and about half speed (a busy neighbour
on the same physical core).  Raw wall times of one run then differ from the
next by up to 2x, which no choice of run length or statistic removes.  Each
timed section is therefore bracketed by a fixed calibration kernel that does
not touch fwdapprox, and reported as

    wall * REF_S / (mean calibration time around it)

i.e. in seconds at the reference speed: the kernel's time on an uncontended
core of the reference machine (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).
The raw wall times are kept in the run's results file.
"""
from __future__ import annotations

import time

# fast-mode kernel times on the reference machine
NUMERIC_REF_S = 0.105
PYTHON_REF_S = 0.050
_NUMERIC_REPS = 350
_MEMORY_PASSES = 4
_PYTHON_REPS = 2500


def python_kernel() -> float:
    """Seconds for a fixed pure-Python workload (dicts, strings, floats)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_PYTHON_REPS):
        d = {str(j): repr(j * 0.5 + i) for j in range(40)}
        acc += len("".join(d.values()))
    return time.perf_counter() - t0


def numeric_kernel() -> float:
    """Seconds for a fixed mix of the work the library's loops do: small numpy
    operations with Python glue, one mid-size FFT, and passes over an array
    larger than the caches.  Neighbours slow the cache-bound part about 2x
    and the memory-bound part about 1.4x, so the mix tracks both kinds of
    workload."""
    import numpy as np

    rng = np.random.default_rng(0)
    v = rng.normal(size=4096) + 0j
    m = rng.normal(size=(17, 17)) / 5.0 + 0j
    s = rng.normal(size=17) + 0j
    big = np.linspace(0.0, 1.0, 2000 * 1024).reshape(2000, 1024)
    t0 = time.perf_counter()
    for _ in range(_NUMERIC_REPS):
        np.fft.fft(v)
        x = s
        for j in range(20):
            x = (m @ x) * np.exp(-0.01 * j) + s
        {str(j): repr(j * 0.5) for j in range(100)}
    for _ in range(_MEMORY_PASSES):
        (np.abs(big * 1.0001 + 0.5) ** 2).max(axis=1)
    return time.perf_counter() - t0


def at_reference(wall: float, cal_before: float, cal_after: float, ref: float) -> float:
    """``wall`` rescaled to reference speed by the calibration around it."""
    return wall * ref * 2.0 / (cal_before + cal_after)
