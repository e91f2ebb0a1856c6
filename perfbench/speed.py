"""Host-speed probe: fixed units of work timed between the benchmark's ops.

On a shared host the speed of the whole core drifts with other tenants'
load, by up to 2x over tens of seconds and for minutes at a time (see
NOTES.md). A median over one run cannot remove a slow phase that spans the
run. The benchmark therefore times this probe after every op and reports
times at a reference host speed: a measured time is multiplied by
:func:`factor` of the probes around it.

The probe is the benchmark's own code and calls nothing in the package,
so a change to the package moves the measured op times and not the probe.
It has two units, because a slow phase does not slow all code alike:

- ``spectral``: 128 x 128 real FFT round trips, the kind of work of
  ``final_density`` on the spectral ``convolve`` path;
- ``prefix``: small index arithmetic and fancy indexing on a 61-offset
  neighbourhood and a prefix sum and search over 10^4 doubles, the kind of
  work of the particle rate cache per event.

How much each unit slows, relative to a workload's ops, changes from one
slow phase to another. Each workload therefore weights the two units (its
``probe_weight``, the weight of the spectral unit) so that, over runs made
in several phases, the blend slowed as its ops did (see NOTES.md).
"""
from __future__ import annotations

import time

import numpy as np

#: Median unit times (spectral, prefix) on a 2-vCPU x86-64 container in an
#: unloaded phase; scaled times read in seconds of a host this fast.
REFERENCE_S = (1.0e-3, 0.9e-3)


class SpeedProbe:
    """Times the two units; every call does exactly the same work."""

    def __init__(self):
        self._field = np.random.default_rng(1).random((128, 128))
        self._rates = np.random.default_rng(2).random(10_000)
        self._offsets = np.random.default_rng(3).integers(-4, 5, size=(61, 2))
        self._strides = np.array([100, 1])
        self._coords = np.empty(2, dtype=np.int64)

    def __call__(self) -> tuple[float, float]:
        start = time.perf_counter()
        for _ in range(3):
            np.fft.irfft2(np.fft.rfft2(self._field) * 0.5, s=self._field.shape)
        mid = time.perf_counter()
        rates, coords = self._rates, self._coords
        for k in range(15):
            coords[0], coords[1] = k, 3 * k
            nbr = ((coords + self._offsets) % 100) @ self._strides
            picked = nbr[rates[nbr] > 0.5]
            rates[picked] += 0.0
            prefix = np.cumsum(rates)
            int(np.searchsorted(prefix, 0.5 * prefix[-1]))
        return mid - start, time.perf_counter() - mid


def factor(probe_times, weight: float) -> float:
    """Scale from measured to reference seconds for these probe times.

    ``probe_times`` holds (spectral, prefix) pairs; ``weight`` is the
    weight of the spectral unit in the geometric blend of the two.
    """
    spectral, prefix = np.median(np.asarray(probe_times).reshape(-1, 2), axis=0)
    return ((REFERENCE_S[0] / spectral) ** weight
            * (REFERENCE_S[1] / prefix) ** (1.0 - weight))
