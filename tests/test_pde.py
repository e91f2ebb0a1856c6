"""Nonlocal density system: integrator, structural bounds, conserved form."""
from __future__ import annotations

import math

import numpy as np
import pytest

from epilattice import (
    MeanField,
    TopHat,
    TorusGrid,
    WrappedBump,
    build_kernel,
    convolve,
)
from epilattice.errors import (
    GridMismatchError,
    HorizonExceededError,
    InvalidProfileError,
    StabilityViolationError,
)
from epilattice.meanfield import MeanFieldParams, ode_integrate
from epilattice.pde import (
    DensityField,
    cosine_bump,
    exp_identity_residual,
    integrate_pde,
    long_time_limit,
    uniform_field,
)


def rough_field(grid, seed=0):
    """A nonuniform valid profile with uniform total mass."""
    bump = cosine_bump(grid, [0.3] * grid.d, 0.15, 0.4)
    return DensityField(grid, 0.97 - bump, 0.02 + bump)


# ---------------------------------------------------------------------------
# basic contracts
# ---------------------------------------------------------------------------

def test_profile_validation():
    g = TorusGrid(1, 16)
    with pytest.raises(InvalidProfileError):
        DensityField(g, np.full(g.shape, -0.1), np.zeros(g.shape))
    with pytest.raises(InvalidProfileError):
        DensityField(g, np.full(g.shape, 0.7), np.full(g.shape, 0.4))
    with pytest.raises(GridMismatchError):
        DensityField(g, np.zeros(17), np.zeros(17))


def test_sampling_contract():
    g = TorusGrid(1, 16)
    k = build_kernel(g, MeanField())
    init = uniform_field(g, 0.9, 0.1)
    run = integrate_pde(k, 1.0, init, [0.0, 0.35, 1.0])
    assert np.array_equal(run.t, [0.0, 0.35, 1.0])
    assert np.array_equal(run.u0[0], init.u0)
    with pytest.raises(InvalidProfileError):
        integrate_pde(k, 1.0, init, [1.0, 0.5])
    with pytest.raises(InvalidProfileError):
        integrate_pde(k, 1.0, init, [1.0], dt=0.5)
    with pytest.raises(GridMismatchError):
        integrate_pde(build_kernel(TorusGrid(1, 8), MeanField()), 1.0, init, [1.0])


def test_stepper_matches_plain_rk4_bitwise():
    # the stepper subtracts the infection flux from u0; classic RK4 on the
    # signed derivative must give the same floats
    def deriv(k, beta, u0, u1):
        infection = beta * convolve(k, u1) * u0
        return -infection, infection - u1

    for g, spec in [(TorusGrid(1, 30), TopHat(0.2)),
                    (TorusGrid(2, 10), WrappedBump(0.45)),
                    (TorusGrid(2, 9), MeanField())]:
        k = build_kernel(g, spec)
        init = rough_field(g)
        run = integrate_pde(k, 2.3, init, [0.05, 0.3])
        u0, u1 = init.u0, init.u1
        for n, h in [(50, 0.05 / 50), (250, 0.25 / 250)]:
            for _ in range(n):
                a0, a1 = deriv(k, 2.3, u0, u1)
                b0, b1 = deriv(k, 2.3, u0 + 0.5 * h * a0, u1 + 0.5 * h * a1)
                c0, c1 = deriv(k, 2.3, u0 + 0.5 * h * b0, u1 + 0.5 * h * b1)
                d0, d1 = deriv(k, 2.3, u0 + h * c0, u1 + h * c1)
                u0 = u0 + (h / 6.0) * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
                u1 = u1 + (h / 6.0) * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        assert np.array_equal(run.u0[-1], u0)
        assert np.array_equal(run.u1[-1], u1)


def test_uniform_runs_reduce_to_planar_ode():
    # with uniform data every kernel sees a constant convolution, so the
    # field must track the planar system site-by-site
    g = TorusGrid(1, 24)
    traj = ode_integrate(MeanFieldParams(2.0, 0.95, 0.05), 6.0, dt=1e-2)
    for spec in (MeanField(), TopHat(0.25), WrappedBump(0.3)):
        k = build_kernel(g, spec)
        run = integrate_pde(k, 2.0, uniform_field(g, 0.95, 0.05),
                            [2.0, 6.0], dt=1e-2)
        for i, tt in enumerate(run.t):
            j = np.argmin(np.abs(traj.t - tt))
            assert np.abs(run.u0[i] - traj.x[j]).max() <= 1e-10
            assert np.abs(run.u1[i] - traj.y[j]).max() <= 1e-10


def test_structural_bounds_randomized():
    rng = np.random.default_rng(404)
    specs = [MeanField(), TopHat(0.2), WrappedBump(0.35)]
    for trial in range(6):
        d = 1 if trial % 2 == 0 else 2
        g = TorusGrid(d, 32 if d == 1 else 12)
        k = build_kernel(g, specs[trial % 3])
        beta = float(rng.uniform(0.2, 3.0))
        base0 = rng.uniform(0.3, 0.8)
        bump = cosine_bump(g, rng.uniform(0, 1, d), 0.2, rng.uniform(0.05, 0.15))
        init = DensityField(g, np.full(g.shape, base0), bump + 0.01)
        run = integrate_pde(k, beta, init, np.linspace(0.5, 8.0, 16), dt=5e-3)
        tol = 1e-9
        assert run.u0.min() >= -tol and run.u1.min() >= -tol
        assert (run.u0 + run.u1).max() <= 1.0 + tol
        # u0 and u0+u1 nonincreasing sample-to-sample, per site
        assert np.diff(run.u0, axis=0).max() <= tol
        assert np.diff(run.u0 + run.u1, axis=0).max() <= tol


def test_stability_violation_detected():
    g = TorusGrid(1, 16)
    k = build_kernel(g, MeanField())
    with pytest.raises(StabilityViolationError):
        integrate_pde(k, 60.0, uniform_field(g, 0.5, 0.5), [2.0], dt=0.1)


# ---------------------------------------------------------------------------
# conserved exponential form
# ---------------------------------------------------------------------------

def test_residual_zero_at_start():
    g = TorusGrid(1, 32)
    k = build_kernel(g, TopHat(0.2))
    init = rough_field(g)
    r = exp_identity_residual(k, 2.0, init, init.u0, init.u1)
    assert np.array_equal(r, np.zeros(g.shape))


def test_residual_zero_without_infecteds():
    g = TorusGrid(1, 32)
    k = build_kernel(g, TopHat(0.2))
    bump = cosine_bump(g, [0.6], 0.2, 0.3)
    init = DensityField(g, 0.5 + bump, np.zeros(g.shape))
    run = integrate_pde(k, 2.0, init, [3.0])
    r = exp_identity_residual(k, 2.0, init, run.u0[-1], run.u1[-1])
    assert np.abs(r).max() == 0.0


def test_residual_fourth_order_in_dt():
    # vigorous dynamics put dt=1e-3 in the dt-dominated regime; at mild beta
    # the residual sits at the roundoff floor and no ratio can be measured
    g = TorusGrid(1, 64)
    k = build_kernel(g, TopHat(0.1))
    bump = cosine_bump(g, [0.3], 0.15, 0.4)
    init = DensityField(g, 0.97 - bump, 0.02 + bump)
    res = {}
    for dt in (1e-3, 5e-4):
        run = integrate_pde(k, 10.0, init, [5.0], dt)
        res[dt] = np.abs(
            exp_identity_residual(k, 10.0, init, run.u0[-1], run.u1[-1])).max()
    assert res[1e-3] <= 1e-6
    assert res[1e-3] / res[5e-4] >= 8.0


def test_self_convergence_order():
    g = TorusGrid(1, 64)
    k = build_kernel(g, TopHat(0.1))
    init = rough_field(g)
    ref = integrate_pde(k, 2.5, init, [5.0], 0.0025).u0[-1]
    errs = [np.abs(integrate_pde(k, 2.5, init, [5.0], dt).u0[-1] - ref).max()
            for dt in (0.08, 0.04, 0.02)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.9


# ---------------------------------------------------------------------------
# long-time limit
# ---------------------------------------------------------------------------

def test_long_time_limit_uniform_frozen_values():
    # mpmath bisection values for the planar final size
    cases = [
        (0.5, 0.9, 0.1, 0.8243143337985063),
        (2.0, 0.99, 0.01, 0.19979603232320074),
    ]
    g = TorusGrid(1, 16)
    k = build_kernel(g, MeanField())
    for beta, r0, r1, expected in cases:
        res = long_time_limit(k, beta, uniform_field(g, r0, r1))
        assert np.abs(res.u0 - expected).max() <= 1e-6
        assert np.all(res.u0 >= res.lower_bound - 1e-9)
        cap = 200.0 if beta >= 1 else 50.0 * max(1.0, 1.0 / (1.0 - beta))
        assert res.t_reached < cap


def test_long_time_limit_nonuniform_bound():
    g = TorusGrid(1, 64)
    k = build_kernel(g, TopHat(0.15))
    init = DensityField(g, np.full(g.shape, 0.8),
                        cosine_bump(g, [0.5], 0.1, 0.15))
    res = long_time_limit(k, 1.5, init)
    assert np.all(res.u0 >= res.lower_bound - 1e-9)
    assert np.all(res.u0 <= init.u0 + 1e-12)
    # sites far from the seeding bump keep more susceptibles
    assert res.u0.max() > res.u0.min() + 0.01


def test_long_time_limit_horizon_error():
    g = TorusGrid(1, 16)
    k = build_kernel(g, MeanField())
    with pytest.raises(HorizonExceededError):
        long_time_limit(k, 2.0, uniform_field(g, 0.99, 0.01),
                        dt=0.05, u1_tol=1e-300)
