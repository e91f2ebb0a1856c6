"""Implicit equations for the surviving susceptible density, and inverses.

The long-time susceptible profile rho solves the fixed-point equation

    rho = rho0 * exp(-beta * K*(rho0 + rho1 - rho)),

the spatial generalization of the scalar final-size relation (for uniform
total initial mass the outer convolution of rho0 + rho1 collapses to the
plain sum). Its right-hand side T is monotone in rho: from the conserved-form
lower bound rho0 * exp(-beta * K*(rho0 + rho1)) the iterates of T increase to
the least fixed point above the bound (the one the density dynamics select),
contracting near it at the top eigenvalue lambda of J = beta * diag(T(rho)) * K.
The solver takes Polyak's heavy-ball step rho <- min(rho + a * (T(rho) - rho) +
mu * (rho - rho_prev), rho0), with s = sqrt((1 - lambda) / (1 - lambda_lo)), a = 4 /
((1 - lambda_lo) * (1 + s)**2) and mu = ((1 - s) / (1 + s))**2. J's eigenvalues lie in
[lambda_lo, lambda], lambda_lo = beta * max(rho0) * min(0, min eig K), so each mode decays
at sqrt(mu) per step (0.52 at lambda = 0.9); plain steps resume if the update is slower.

Two inverse problems ride on the same equation in the fully seeded scenario
rho0 + rho1 = 1:

* on a region that started fully susceptible (rho0 = 1 there), the equation
  rearranges to  beta = -log(rho) / K*(1 - rho),  giving a per-site estimate
  of the infection rate from the final profile alone;
* at known beta the initial split is recovered exactly:
  rho0 = rho * exp(beta * (1 - K*rho)), rho1 = 1 - rho0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSiteError,
    GridMismatchError,
    InconsistentInputError,
    NoConvergenceError,
)
from .grid import DiscreteKernel, convolve
from .pde import DensityField

MAX_FIXED_POINT_ITERATIONS = 100_000

#: Sites whose convolved susceptible deficit is below this carry no
#: information about beta and are excluded from inference.
DEGENERATE_PRESSURE_TOL = 1e-12


@dataclass
class FinalDensityResult:
    """Fixed point, iteration count, and the equation residual in max norm."""

    rho: np.ndarray
    iterations: int
    residual: float


def solve_final_density(kernel: DiscreteKernel, beta: float,
                        init: DensityField, tol: float = 1e-10) -> FinalDensityResult:
    """Least fixed point of the final-density equation above its lower bound.

    Iterates ``rho <- rho0 * exp(-beta * K*(rho0 + rho1 - rho))`` from
    ``rho0 * exp(-beta * K*(rho0 + rho1))``, by heavy-ball steps at rate sqrt(mu) (module
    docstring) once two plain-update ratios agree on lambda <= 0.95. Plain steps resume
    while the update shrinks slower than at lambda = 0.95, so crawls at degenerate roots
    still hit the cap. Stops once the plain update is below ``tol``; returns its image.

    Raises:
        NoConvergenceError: update still above ``tol`` after 1e5 iterations.
    """
    if kernel.grid != init.grid:
        raise GridMismatchError("kernel and profile use different grids")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    beta = float(beta)
    conv_mass = convolve(kernel, init.u0 + init.u1)
    rho = init.u0 * np.exp(-beta * conv_mass)
    lam_lo = 0.0 if kernel.uniform else beta * float(init.u0.max()) * min(
        0.0, float(kernel._fft.real.min()))
    a, prev, last, last2, lam = 0.0, rho, np.inf, np.inf, np.nan  # a = 0: plain steps
    for iteration in range(1, MAX_FIXED_POINT_ITERATIONS + 1):
        new = convolve(kernel, rho)  # a fresh array: updated in place
        new -= conv_mass
        new *= beta
        np.exp(new, out=new)
        new *= init.u0
        step = new - rho
        update = float(np.abs(step).max())
        if update < tol:
            return FinalDensityResult(new, iteration, update)
        if not a:
            lam_prev, lam = lam, update / last
            if abs(lam - lam_prev) <= 0.005 and lam <= 0.95:  # steady, far from a double root
                s = ((1.0 - lam) / (1.0 - lam_lo)) ** 0.5
                a, mu = 4.0 / (1.0 - lam_lo) / (1.0 + s) ** 2, ((1.0 - s) / (1.0 + s)) ** 2
                b = 1.0 + mu - a * 0.05  # z**2 - b*z + mu = 0 for a mode at lambda = 0.95
                slowest = (b + max(b * b - 4.0 * mu, 0.0) ** 0.5) ** 2 / 4.0  # its 2-step decay
        elif update > slowest * last2:  # slower than lambda = 0.95 allows: re-estimate
            a, lam = 0.0, np.nan
        if a:  # heavy-ball step: rho + a * (T(rho) - rho) + mu * (rho - prev)
            step *= a
            step += rho
            prev -= rho  # prev is not read again
            step -= np.multiply(prev, mu, out=prev)
            new = np.minimum(step, init.u0, out=step)
        prev, rho, last2, last = rho, new, last, update
    raise NoConvergenceError(
        f"final-density iteration stuck above tol={tol:g} after "
        f"{MAX_FIXED_POINT_ITERATIONS} iterations (last update {update:.3e})")


# ---------------------------------------------------------------------------
# inverse problems (fully seeded scenario, rho0 + rho1 = 1)
# ---------------------------------------------------------------------------

@dataclass
class BetaInference:
    """Per-site rate estimates over a region, with the aggregate.

    ``per_site`` is NaN outside the region and on excluded (degenerate)
    sites; ``estimate`` averages the usable sites and ``spread`` is their
    max-min gap, a quick consistency diagnostic.
    """

    per_site: np.ndarray
    estimate: float
    spread: float
    n_used: int
    excluded: np.ndarray


def _check_final_density(rho: np.ndarray) -> None:
    if not (rho.min() >= 0.0 and rho.max() <= 1.0):  # NaN fails both
        raise InconsistentInputError("final density must lie in [0, 1]")


def infer_beta(kernel: DiscreteKernel, rho: np.ndarray,
               region: np.ndarray) -> BetaInference:
    """Estimate the infection rate from a final profile.

    Args:
        kernel: interaction kernel of the epidemic.
        rho: final susceptible density, assumed to come from a fully seeded
            initial condition (rho0 + rho1 = 1 everywhere).
        region: boolean mask of sites that started fully susceptible
            (rho0 = 1), where  beta = -log(rho) / K*(1 - rho)  applies.

    Raises:
        DegenerateSiteError: no region site carries information (the 0/0
            situation rho = 1 with an untouched neighborhood).
    """
    grid = kernel.grid
    rho = np.asarray(rho, dtype=float)
    region = np.asarray(region, dtype=bool)
    if rho.shape != grid.shape or region.shape != grid.shape:
        raise GridMismatchError("rho/region shape does not match the grid")
    _check_final_density(rho)

    pressure = convolve(kernel, 1.0 - rho)
    excluded = region & (pressure <= DEGENERATE_PRESSURE_TOL)
    usable = region & ~excluded
    if not usable.any():
        raise DegenerateSiteError(
            "every region site is degenerate (no infection reached it)")
    per_site = np.full(grid.shape, np.nan)
    with np.errstate(divide="ignore"):
        per_site[usable] = -np.log(rho[usable]) / pressure[usable]
    used = per_site[usable]
    return BetaInference(per_site, float(used.mean()),
                         float(used.max() - used.min()), int(usable.sum()),
                         excluded)


def infer_initial_infected(kernel: DiscreteKernel, beta: float,
                           rho: np.ndarray) -> DensityField:
    """Recover the initial split (rho0, rho1) from a final profile.

    Exact algebraic inversion under rho0 + rho1 = 1:
    rho0 = rho * exp(beta * (1 - K*rho)). Values escaping [0, 1] by at most
    1e-9 are snapped to the boundary (discretization slack); beyond that the
    input cannot have come from this model and an error is raised.
    """
    grid = kernel.grid
    rho = np.asarray(rho, dtype=float)
    if rho.shape != grid.shape:
        raise GridMismatchError("rho shape does not match the grid")
    _check_final_density(rho)
    # a huge beta overflows into inf, and 0 * inf into NaN, which min and
    # max propagate and the negated test below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        rho0 = rho * np.exp(beta * (1.0 - convolve(kernel, rho)))
    escape = max(float(-rho0.min()), float(rho0.max() - 1.0))
    if not escape <= 1e-9:
        raise InconsistentInputError(
            f"recovered rho0 escapes [0, 1] by {escape:.3e}; the profile is "
            f"inconsistent with a fully seeded epidemic at beta = {beta}")
    rho0 = np.clip(rho0, 0.0, 1.0)
    return DensityField(grid, rho0, 1.0 - rho0)
