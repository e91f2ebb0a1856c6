"""Deterministic density evolution: the nonlocal SIR system on the grid.

The susceptible/infected densities (u0, u1) on the torus obey

    du0/dt = -beta * (K * u1) * u0
    du1/dt =  beta * (K * u1) * u0 - u1

where ``K *`` is the kernel convolution of :mod:`epilattice.grid`. The
integrator is fixed-step classic Runge-Kutta and never clips: the structural
properties of the system (u0 nonincreasing, densities in [0, 1], u0 + u1
nonincreasing) are monitored every step and a breach beyond
``STABILITY_TOL`` aborts the run rather than being silently repaired.

Two consequences of the dynamics are exposed for verification and for the
final-density solvers. Writing V = u0 + u1, integrating
d/dt log u0 = beta * d/dt (K * V) gives the conserved form

    u0(t) = rho0 * exp(-beta * K*(rho0 + rho1) + beta * (K * V)(t)),

whose defect :func:`exp_identity_residual` measures (for spatially uniform
rho0 + rho1 the first convolution is the plain sum, recovering the familiar
scalar form). Since K*V(t) >= 0 decreases to the convolved final density,
u0 stays above rho0 * exp(-beta * K*(rho0 + rho1)) at all times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    GridMismatchError,
    HorizonExceededError,
    InvalidProfileError,
    StabilityViolationError,
)
from .grid import DiscreteKernel, TorusGrid, convolve

MAX_PDE_DT = 0.1
STABILITY_TOL = 1e-6

#: Default tolerance on max u1 used to declare the long-time limit reached.
U1_TOL = 1e-8


@dataclass
class DensityField:
    """A susceptible/infected density pair on a grid."""

    grid: TorusGrid
    u0: np.ndarray
    u1: np.ndarray

    def __post_init__(self) -> None:
        self.u0 = np.asarray(self.u0, dtype=float)
        self.u1 = np.asarray(self.u1, dtype=float)
        if self.u0.shape != self.grid.shape or self.u1.shape != self.grid.shape:
            raise GridMismatchError(
                f"profile shapes {self.u0.shape}/{self.u1.shape} do not match "
                f"grid {self.grid.shape}")
        if self.u0.min() < 0.0 or self.u1.min() < 0.0:
            raise InvalidProfileError("densities must be nonnegative")
        if (self.u0 + self.u1).max() > 1.0 + 1e-12:
            raise InvalidProfileError("u0 + u1 must not exceed 1")


def uniform_field(grid: TorusGrid, rho0: float, rho1: float) -> DensityField:
    return DensityField(grid, np.full(grid.shape, float(rho0)),
                        np.full(grid.shape, float(rho1)))


def cosine_bump(grid: TorusGrid, center: Sequence[float], halfwidth: float,
                height: float) -> np.ndarray:
    """A smooth localized bump, ``height * cos^2(pi * dist / (2*halfwidth))``.

    ``dist`` is torus distance from ``center``; the bump vanishes outside
    distance ``halfwidth``. Used to build nonuniform initial profiles.
    """
    pos = grid.positions()
    delta = np.abs(pos - np.asarray(center, dtype=float))
    delta = np.minimum(delta, 1.0 - delta)
    dist = np.sqrt((delta**2).sum(axis=1)).reshape(grid.shape)
    out = np.zeros(grid.shape)
    inside = dist < halfwidth
    out[inside] = height * np.cos(np.pi * dist[inside] / (2.0 * halfwidth)) ** 2
    return out


class PdeRun(NamedTuple):
    """Sampled solution: times (m,), u0 and u1 of shape (m, *grid.shape)."""

    t: np.ndarray
    u0: np.ndarray
    u1: np.ndarray


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def _deriv(kernel: DiscreteKernel, beta: float, u0: np.ndarray,
           u1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The infection flux beta * (K * u1) * u0 = -du0/dt, and du1/dt. The
    stepper subtracts the flux: ``x - y`` is the float ``x + (-y)``."""
    flux = beta * convolve(kernel, u1) * u0
    return flux, flux - u1


def _check_step(t: float, u0, u1, prev_u0, prev_v) -> np.ndarray:
    """Check the structural bounds of one step; returns v = u0 + u1."""
    v = u0 + u1
    worst = max(-u0.min(), -u1.min(), (u0 - prev_u0).max(),
                (v - prev_v).max(), v.max() - 1.0)
    if worst > STABILITY_TOL:
        raise StabilityViolationError(
            f"structural bound breached by {worst:.3e} at t = {t:.6g}")
    return v


def integrate_pde(kernel: DiscreteKernel, beta: float, init: DensityField,
                  sample_times: Sequence[float], dt: float = 1e-3) -> PdeRun:
    """Integrate the density system, sampling at the requested times.

    Each sampling interval is cut into an integer number of Runge-Kutta
    steps of size at most ``dt``, so samples land exactly on the requested
    times. Sample times must be nonnegative and strictly increasing.

    Raises:
        StabilityViolationError: a structural bound was breached beyond
            ``STABILITY_TOL`` (the step size is too coarse for this run).
    """
    if kernel.grid != init.grid:
        raise GridMismatchError("kernel and initial field use different grids")
    if not 0.0 < dt <= MAX_PDE_DT:
        raise InvalidProfileError(f"dt must lie in (0, {MAX_PDE_DT}], got {dt}")
    times = [float(s) for s in sample_times]
    if not times or any(s < 0.0 for s in times) or np.any(np.diff(times) <= 0):
        raise InvalidProfileError("sample times must be strictly increasing, >= 0")

    return _run_from(kernel, beta, init.u0.copy(), init.u1.copy(),
                     0.0, times, dt)


def _run_from(kernel: DiscreteKernel, beta: float, u0: np.ndarray,
              u1: np.ndarray, t: float, times: list[float],
              dt: float) -> PdeRun:
    """Stepping core; resumable from raw arrays without re-validation."""
    out0 = np.empty((len(times),) + u0.shape)
    out1 = np.empty_like(out0)
    idx = 0
    if times[0] == t:
        out0[0], out1[0] = u0, u1
        idx = 1
    prev_u0 = u0.copy()
    prev_v = u0 + u1
    for target in times[idx:]:
        span = target - t
        n = max(1, math.ceil(span / dt - 1e-12))
        h = span / n
        half, sixth = 0.5 * h, h / 6.0
        for _ in range(n):
            fa, a1 = _deriv(kernel, beta, u0, u1)
            fb, b1 = _deriv(kernel, beta, u0 - half * fa, u1 + half * a1)
            fc, c1 = _deriv(kernel, beta, u0 - half * fb, u1 + half * b1)
            fd, d1 = _deriv(kernel, beta, u0 - h * fc, u1 + h * c1)
            u0 = u0 - sixth * (fa + 2.0 * fb + 2.0 * fc + fd)
            u1 = u1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
            t += h
            prev_v = _check_step(t, u0, u1, prev_u0, prev_v)
            prev_u0 = u0
        t = target
        out0[idx], out1[idx] = u0, u1
        idx += 1
    return PdeRun(np.asarray(times), out0, out1)


# ---------------------------------------------------------------------------
# derived identities
# ---------------------------------------------------------------------------

def exp_identity_residual(kernel: DiscreteKernel, beta: float,
                          init: DensityField, u0_t: np.ndarray,
                          u1_t: np.ndarray) -> np.ndarray:
    """Defect of the conserved exponential form at one time slice.

    Returns ``u0(t) - rho0 * exp(-beta*K*(rho0+rho1) + beta*K*(u0+u1)(t))``
    per site. At t = 0 this vanishes identically; under exact integration it
    vanishes for all t, so its size measures time-discretization error (it
    shrinks at the Runge-Kutta order when dt is refined).
    """
    conv0 = convolve(kernel, init.u0 + init.u1)
    conv_t = convolve(kernel, u0_t + u1_t)
    return u0_t - init.u0 * np.exp(beta * (conv_t - conv0))


class LongTimeResult(NamedTuple):
    """Limit profile, the time at which u1 fell below tolerance, and the
    conserved-form lower bound rho0 * exp(-beta * K*(rho0 + rho1))."""

    u0: np.ndarray
    t_reached: float
    lower_bound: np.ndarray


def long_time_limit(kernel: DiscreteKernel, beta: float, init: DensityField,
                    dt: float = 1e-3, u1_tol: float = U1_TOL) -> LongTimeResult:
    """Integrate until the infected density is everywhere below ``u1_tol``.

    The time cap is 50 * max(1, 1/(1-beta)) below beta = 1 and 200 at or
    above it; hitting the cap raises :class:`HorizonExceededError`. The
    returned profile is checked against the conserved-form lower bound.
    """
    if kernel.grid != init.grid:
        raise GridMismatchError("kernel and initial field use different grids")
    cap = 200.0 if beta >= 1.0 else 50.0 * max(1.0, 1.0 / (1.0 - beta))
    lower = init.u0 * np.exp(-beta * convolve(kernel, init.u0 + init.u1))

    block = 1.0
    u0, u1 = init.u0.copy(), init.u1.copy()
    t = 0.0
    while t < cap:
        span = min(block, cap - t)
        run = _run_from(kernel, beta, u0, u1, t, [t + span], dt)
        t += span
        u0, u1 = run.u0[-1], run.u1[-1]
        if float(u1.max()) < u1_tol:
            if float((lower - u0).max()) > 1e-9:
                raise StabilityViolationError(
                    "limit profile fell below its conserved-form lower bound")
            return LongTimeResult(u0, t, lower)
    raise HorizonExceededError(
        f"u1 did not fall below {u1_tol:g} by the time cap t = {cap:g}")
