"""Final-density fixed point and the two inverse problems."""
from __future__ import annotations

import numpy as np
import pytest

from epilattice import MeanField, TopHat, TorusGrid, WrappedBump, build_kernel, convolve
from epilattice.errors import (
    DegenerateSiteError,
    GridMismatchError,
    InconsistentInputError,
    NoConvergenceError,
)
from epilattice.final_density import (
    infer_beta,
    infer_initial_infected,
    solve_final_density,
)
from epilattice.meanfield import final_size, hat_x_infinity
from epilattice.pde import DensityField, cosine_bump, long_time_limit


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def test_uniform_meanfield_matches_planar_final_size():
    # mpmath bisection values for the planar relation
    cases = [
        (2.0, 0.99, 0.01, 0.19979603232320074),
        (0.5, 0.9, 0.1, 0.8243143337985063),
        (1.5, 0.5, 0.5, 0.13702193127829431),
    ]
    g = TorusGrid(1, 16)
    k = build_kernel(g, MeanField())
    for beta, r0, r1, expected in cases:
        res = solve_final_density(k, beta, DensityField(g, r0, r1))
        assert np.abs(res.rho - expected).max() <= 1e-8
        assert res.residual <= 1e-10
        tight = solve_final_density(k, beta, DensityField(g, r0, r1), tol=1e-14)
        assert np.abs(tight.rho - final_size(beta, r0, r1)).max() <= 1e-12


def test_no_initial_infecteds_subcritical_regime():
    # with rho1 = 0 and beta*rho0 < 1 the only fixed point is rho0 itself
    g = TorusGrid(1, 16)
    k = build_kernel(g, MeanField())
    res = solve_final_density(k, 0.8, DensityField(g, 0.9, 0.0))
    assert np.abs(res.rho - 0.9).max() <= 1e-8


def test_solution_bounds_and_monotone_refinement():
    g = TorusGrid(1, 48)
    k = build_kernel(g, TopHat(0.15))
    rho1 = cosine_bump(g, [0.4], 0.2, 0.25)
    init = DensityField(g, 0.95 - rho1, rho1 + 0.01)
    coarse = solve_final_density(k, 1.3, init, tol=1e-4)
    fine = solve_final_density(k, 1.3, init, tol=1e-12)
    # iterates grow pointwise from the conserved-form lower bound
    lower = init.u0 * np.exp(-1.3 * _conv(k, init.u0 + init.u1))
    assert np.all(fine.rho >= lower - 1e-15)
    assert np.all(fine.rho >= coarse.rho - 1e-15)
    assert np.all(fine.rho <= init.u0 + 1e-15)


def _conv(kernel, f):
    from epilattice import convolve
    return convolve(kernel, f)


def test_agrees_with_pde_long_time_nonuniform():
    # genuinely nonuniform profiles, including nonuniform total mass
    g = TorusGrid(1, 64)
    k = build_kernel(g, TopHat(0.2))
    bump = cosine_bump(g, [0.2], 0.2, 0.35)
    profiles = [
        DensityField(g, 0.9 - bump, 0.02 + 0.5 * bump),
        DensityField(g, np.full(g.shape, 0.85), cosine_bump(g, [0.7], 0.1, 0.1)),
    ]
    for beta, init in zip((1.5, 2.2), profiles):
        lt = long_time_limit(k, beta, init, u1_tol=1e-8)
        fp = solve_final_density(k, beta, init, tol=1e-10)
        assert np.abs(fp.rho - lt.u0).max() <= 1e-7


def _plain_iteration(kernel, beta, init, tol):
    """Reference: the unrelaxed map from the lower bound, stopped alike."""
    conv_mass = convolve(kernel, init.u0 + init.u1)
    rho = init.u0 * np.exp(-beta * conv_mass)
    for iteration in range(1, 100_001):
        new = init.u0 * np.exp(-beta * (conv_mass - convolve(kernel, rho)))
        update = np.abs(new - rho).max()
        rho = new
        if update < tol:
            return rho, iteration
    raise AssertionError("plain reference did not converge")


def _plateau(g, radius, level):
    """rho0 = 1 on a centred disk, ``level`` elsewhere; rho1 = 1 - rho0."""
    delta = np.abs(g.positions() - 0.5)
    dist = np.hypot.reduce(np.minimum(delta, 1.0 - delta), axis=1)
    rho0 = np.where((dist < radius).reshape(g.shape), 1.0, level)
    return DensityField(g, rho0, 1.0 - rho0)


@pytest.mark.parametrize("g, spec, beta, radius, level, slow", [
    (TorusGrid(2, 32), WrappedBump(0.15), 1.5, 0.25, 0.3, False),  # FFT path
    (TorusGrid(1, 200), TopHat(0.05), 1.02, 0.3, 0.2, True),       # beta ~ 1
])
def test_relaxed_solve_matches_plain_iteration(g, spec, beta, radius, level, slow):
    k = build_kernel(g, spec)
    init = _plateau(g, radius, level)
    reference, plain_iterations = _plain_iteration(k, beta, init, 1e-14)
    res = solve_final_density(k, beta, init, tol=1e-14)
    assert np.abs(res.rho - reference).max() <= 1e-12
    assert res.residual < 1e-14
    if slow:
        assert res.iterations < plain_iterations


@pytest.mark.parametrize("g, spec, beta, radius, level, ceiling", [
    (TorusGrid(2, 32), WrappedBump(0.15), 1.5, 0.25, 0.3, 30),
    (TorusGrid(1, 200), TopHat(0.05), 1.02, 0.3, 0.2, 150),
    (TorusGrid(2, 64), WrappedBump(0.06), 1.0, 0.25, 0.5, 110),
])
def test_heavy_ball_solve_iteration_ceiling(g, spec, beta, radius, level, ceiling):
    # the over-relaxed solve took 35, 215 and 164 iterations on these cells
    k = build_kernel(g, spec)
    init = _plateau(g, radius, level)
    reference, _ = _plain_iteration(k, beta, init, 1e-14)
    res = solve_final_density(k, beta, init, tol=1e-14)
    assert np.abs(res.rho - reference).max() <= 1e-12
    assert res.iterations <= ceiling


@pytest.mark.parametrize("g, spec", [
    (TorusGrid(1, 8), MeanField()),
    (TorusGrid(2, 32), WrappedBump(0.15)),
    (TorusGrid(1, 200), TopHat(0.05)),
])
@pytest.mark.parametrize("beta", [1.05, 1.1, 1.2, 2.0, 4.0])
def test_no_initial_infecteds_reaches_least_fixed_point(g, spec, beta):
    # with rho1 = 0, rho0 = 1 is itself a fixed point; a momentum step
    # clipped at rho0 must not stop there instead of at hat_x
    k = build_kernel(g, spec)
    res = solve_final_density(k, beta, DensityField(g, 1.0, 0.0), tol=1e-13)
    assert np.abs(res.rho - hat_x_infinity(beta)).max() <= 1e-11


def test_no_convergence_at_critical_double_root():
    # beta = 1, rho0 = 1: the fixed point at 1 is degenerate and the
    # iteration crawls sublinearly, exhausting the cap
    g = TorusGrid(1, 8)
    k = build_kernel(g, MeanField())
    with pytest.raises(NoConvergenceError):
        solve_final_density(k, 1.0, DensityField(g, 1.0, 0.0), tol=1e-10)


def test_grid_mismatch():
    k = build_kernel(TorusGrid(1, 16), MeanField())
    init = DensityField(TorusGrid(1, 8), 0.9, 0.1)
    with pytest.raises(GridMismatchError):
        solve_final_density(k, 1.0, init)


@pytest.mark.parametrize("tol", [0.0, -1e-12])
def test_solver_rejects_a_nonpositive_tolerance(tol):
    g = TorusGrid(1, 8)
    with pytest.raises(ValueError, match="tol must be positive"):
        solve_final_density(build_kernel(g, MeanField()), 1.5, DensityField(g, 0.9, 0.1), tol=tol)


# ---------------------------------------------------------------------------
# inverse problems
# ---------------------------------------------------------------------------

def seeded_profile(g, center=0.5, halfwidth=0.15, height=0.3):
    rho1 = cosine_bump(g, [center], halfwidth, height)
    return DensityField(g, 1.0 - rho1, rho1), rho1 == 0.0


def test_infer_beta_round_trip():
    g = TorusGrid(1, 64)
    k = build_kernel(g, TopHat(0.2))
    init, region = seeded_profile(g)
    for beta in (0.7, 1.4, 2.5):
        fp = solve_final_density(k, beta, init, tol=1e-12)
        out = infer_beta(k, fp.rho, region)
        assert abs(out.estimate - beta) <= 1e-6
        assert out.spread <= 1e-6
        assert out.n_used == int(region.sum())
        assert not out.excluded.any()
        used = out.per_site[region]
        assert np.abs(used - beta).max() <= 1e-6
        assert np.isnan(out.per_site[~region]).all()


def test_infer_beta_degenerate_region():
    # an untouched neighborhood: rho == 1 on a strip much wider than the
    # kernel reach, region deep inside it -> every site is 0/0
    g = TorusGrid(1, 64)
    k = build_kernel(g, TopHat(0.05))
    rho = np.ones(g.shape)
    rho[40:56] = 0.6
    pos = g.positions()[:, 0]
    region = (pos > 0.1) & (pos < 0.3)
    with pytest.raises(DegenerateSiteError):
        infer_beta(k, rho, region)


def test_infer_beta_excludes_partial_degenerates():
    g = TorusGrid(1, 64)
    k = build_kernel(g, TopHat(0.05))
    rho = np.ones(g.shape)
    rho[40:56] = 0.6
    region = np.ones(g.shape, dtype=bool)
    out = infer_beta(k, rho, region)
    assert out.excluded.sum() > 0
    assert out.n_used + out.excluded.sum() == g.n_sites


def test_infer_initial_infected_round_trip():
    g = TorusGrid(1, 64)
    k = build_kernel(g, TopHat(0.2))
    init, _ = seeded_profile(g, center=0.3, height=0.4)
    for beta in (0.9, 1.7):
        fp = solve_final_density(k, beta, init, tol=1e-12)
        rec = infer_initial_infected(k, beta, fp.rho)
        assert np.abs(rec.u0 - init.u0).max() <= 1e-8
        assert np.abs(rec.u1 - init.u1).max() <= 1e-8


def test_infer_initial_infected_inconsistent():
    g = TorusGrid(1, 32)
    k = build_kernel(g, MeanField())
    with pytest.raises(InconsistentInputError):
        infer_initial_infected(k, 3.0, np.full(g.shape, 0.1))
    with pytest.raises(InconsistentInputError):
        infer_initial_infected(k, 1.0, np.full(g.shape, 1.5))


def test_infer_initial_infected_rejects_an_overflowing_beta():
    # exp overflows to inf where K*rho < 1, and 0 * inf is NaN on the
    # empty stripes; the escape check must catch it, silently
    g = TorusGrid(2, 16)
    k = build_kernel(g, WrappedBump(0.2))
    rho = np.zeros(g.shape)
    rho[::2] = 0.3
    with pytest.raises(InconsistentInputError, match="escapes"):
        infer_initial_infected(k, 1e300, rho)


def test_inverse_maps_reject_nan_final_density():
    g = TorusGrid(1, 32)
    k = build_kernel(g, TopHat(0.2))
    rho = np.full(g.shape, 0.5)
    rho[7] = np.nan
    with pytest.raises(InconsistentInputError):
        infer_beta(k, rho, np.ones(g.shape, dtype=bool))
    with pytest.raises(InconsistentInputError):
        infer_initial_infected(k, 1.5, rho)


def test_inverse_maps_reject_mismatched_shapes():
    g = TorusGrid(1, 32)
    k = build_kernel(g, TopHat(0.2))
    rho = np.full(g.shape, 0.5)
    with pytest.raises(GridMismatchError):
        infer_beta(k, np.full(16, 0.5), np.ones(16, dtype=bool))
    with pytest.raises(GridMismatchError):
        infer_beta(k, rho, np.ones(16, dtype=bool))
    with pytest.raises(GridMismatchError):
        infer_initial_infected(k, 1.5, np.full((32, 1), 0.5))
