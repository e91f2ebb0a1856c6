"""Mean-field reduction: the planar ODE, its phase curve, and final sizes.

With spatially blind interaction the susceptible/infected fractions (x, y)
close on themselves:

    x' = -beta * x * y
    y' =  beta * x * y - y

started from (rho0, rho1). The removed fraction z obeys z' = y, so x + y + z
is conserved. Everything in this module is a consequence of this system:

* the phase curve y(x) obtained by dividing the two equations,
* the height of the infection peak, reached where x = 1/beta (present
  only when rho0 > 1/beta),
* the final susceptible fraction x_inf, the root of
  x = rho0 * exp(-beta * (rho0 + rho1 - x)),
* the limit of x_inf under vanishing seeding, the first positive root of
  x = exp(beta * (x - 1)), nontrivial exactly when beta > 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, InvalidProfileError

MAX_ODE_DT = 0.1


@dataclass(frozen=True)
class MeanFieldParams:
    """Infection rate and initial fractions for the planar system."""

    beta: float
    rho0: float
    rho1: float

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise InvalidProfileError(f"beta must be positive, got {self.beta}")
        # written so that a NaN, which fails every comparison, is rejected too
        if not (self.rho0 >= 0.0 and self.rho1 >= 0.0 and self.rho0 + self.rho1 <= 1.0):
            raise InvalidProfileError(
                f"need rho0, rho1 >= 0 and rho0 + rho1 <= 1, got "
                f"({self.rho0}, {self.rho1})")


class MeanFieldTrajectory(NamedTuple):
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def _bisect(f, lo: float, hi: float) -> float:
    """Bisection to floating-point resolution.

    The bracket's sign change is verified before iterating; the loop stops
    when the midpoint collides with an endpoint, i.e. at full double
    precision (residuals come out at roundoff level, well under 1e-12).
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise DomainError(
            f"no sign change on bracket [{lo:.6g}, {hi:.6g}]: "
            f"f(lo)={flo:.3e}, f(hi)={fhi:.3e}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

def ode_integrate(params: MeanFieldParams, t_end: float,
                  dt: float = 1e-3) -> MeanFieldTrajectory:
    """Integrate the planar system with fixed-step classic Runge-Kutta.

    Returns the full step-resolved trajectory including z (removed), so the
    linear conservation of x + y + z can be checked by the caller; at
    ``t_end = 0`` it is the initial point alone.
    """
    if not 0.0 < dt <= MAX_ODE_DT:
        raise DomainError(f"dt must lie in (0, {MAX_ODE_DT}], got {dt}")
    if not 0.0 <= t_end < math.inf:
        raise DomainError(f"t_end must be finite and nonnegative, got {t_end}")
    beta = params.beta
    n = max(1, math.ceil(t_end / dt - 1e-12)) if t_end > 0 else 0
    h = t_end / max(n, 1)

    def f(u):
        x, y, _ = u
        inf = beta * x * y
        return np.array([-inf, inf - y, y])

    u = np.array([params.rho0, params.rho1, 0.0])
    out = np.empty((n + 1, 3))
    out[0] = u
    for k in range(n):
        k1 = f(u)
        k2 = f(u + 0.5 * h * k1)
        k3 = f(u + 0.5 * h * k2)
        k4 = f(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = u
    t = np.linspace(0.0, t_end, n + 1)
    return MeanFieldTrajectory(t, out[:, 0], out[:, 1], out[:, 2])


# ---------------------------------------------------------------------------
# phase plane
# ---------------------------------------------------------------------------

def phase_curve(params: MeanFieldParams, x) -> np.ndarray | float:
    """Infected fraction along the orbit through (rho0, rho1), as y(x).

    y(x) = -x + log(x)/beta + rho0 + rho1 - log(rho0)/beta, valid for
    0 < x <= rho0.
    """
    if not params.rho0 > 0.0:
        raise DomainError("phase curve needs rho0 > 0")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0) or np.any(x_arr > params.rho0):
        raise DomainError(
            f"phase curve defined on 0 < x <= rho0 = {params.rho0}")
    b = params.beta
    y = (-x_arr + np.log(x_arr) / b + params.rho0 + params.rho1
         - math.log(params.rho0) / b)
    return float(y) if np.isscalar(x) else y


def peak_height(beta: float, rho0: float, rho1: float) -> Optional[float]:
    """Height of the infection maximum, or None if y only decays.

    The peak exists iff rho1 > 0 and rho0 > 1/beta (at the boundary the
    derivative of y is nonpositive from the start). It is attained where x
    crosses 1/beta, at the height

        y_peak = rho0 + rho1 - 1/beta - log(beta * rho0)/beta.
    """
    MeanFieldParams(beta, rho0, rho1)
    if rho1 == 0.0 or rho0 <= 1.0 / beta:
        return None
    return rho0 + rho1 - 1.0 / beta - math.log(beta * rho0) / beta


# ---------------------------------------------------------------------------
# final sizes
# ---------------------------------------------------------------------------

def final_size(beta: float, rho0: float, rho1: float) -> float:
    """Limiting susceptible fraction of the planar system.

    The value is the root in [0, rho0] of

        x = rho0 * exp(-beta * (rho0 + rho1 - x)),

    strictly below both rho0 and 1/beta, or 0 at rho0 = 0. At rho1 = 0
    nothing happens, so the value is rho0 at any beta. It is found in
    y = rho0 - x, by bisection on y + rho0 * expm1(-beta * (rho1 + y)) = 0
    (convex, negative at 0, nonnegative at rho0), and returned as
    rho0 * exp(-beta * (rho1 + y)): near threshold the x-form cancels.
    """
    MeanFieldParams(beta, rho0, rho1)
    if rho1 == 0.0:
        return rho0

    def f(y):
        return y + rho0 * math.expm1(-beta * (rho1 + y))

    return rho0 * math.exp(-beta * (rho1 + _bisect(f, 0.0, rho0)))


def hat_x_infinity(beta: float) -> float:
    """First positive root of x = exp(beta * (x - 1)).

    For beta > 1 the equation has exactly two roots in (0, 1], the smaller of
    which is the meaningful limit; for beta <= 1 the only root is 1, and no
    epidemic survives the limit. The root is found in y = 1 - x, on
    y + expm1(-beta * y) = 0 (convex, negative at (beta - 1) / beta^2,
    positive at 1), and returned as exp(-beta * y): near beta = 1, where x
    tends to 1 - 2 (beta - 1), the x-form cancels to rounding noise.
    """
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if beta <= 1.0:
        return 1.0

    def f(y):
        return y + math.expm1(-beta * y)

    return math.exp(-beta * _bisect(f, (beta - 1.0) / beta / beta, 1.0))


def xinf_max(beta: float) -> float:
    """Supremum of attainable final sizes over rho0 when rho0 + rho1 = 1.

    First positive root of 1 = x * exp(beta * (1 - x)); equals 1 for
    beta <= 1. Solved on its own equation (not by delegating to
    :func:`hat_x_infinity`) so the two routes stay independent checks of one
    another; algebraically the two values coincide. In y = 1 - x the
    equation reads beta * y + log1p(-y) = 0 (concave, positive at
    (beta - 1) / beta^2, -inf at 1).
    """
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if beta <= 1.0:
        return 1.0

    def f(y):
        return beta * y + math.log1p(-y) if y < 1.0 else -math.inf

    return math.exp(-beta * _bisect(f, (beta - 1.0) / beta / beta, 1.0))
