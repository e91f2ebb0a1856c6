"""Acceptance gate: one test per release criterion, release-blocking.

Each test prints a single labelled line with its measured quantities, so a
verbose run reads as a checklist. Budgeted criteria assert their own wall
time. Randomized criteria fix their generator seeds; sweep criteria fix
master seeds, so every number here is bit-reproducible.
"""
import time

import numpy as np
import pytest

from epilattice import MeanField, TopHat, TorusGrid, WrappedBump, build_kernel
from epilattice.cli import main as cli_main
from epilattice.config import ExperimentConfig
from epilattice.experiments import run_critical_sweep, run_hydro_sweep
from epilattice.final_density import (
    infer_beta,
    infer_initial_infected,
    solve_final_density,
)
from epilattice.meanfield import (
    MeanFieldParams,
    final_size,
    hat_x_infinity,
    ode_integrate,
    peak_height,
    phase_curve,
    xinf_max,
)
from epilattice.particle import gillespie_step, init_random
from epilattice.pde import (
    DensityField,
    cosine_bump,
    exp_identity_residual,
    integrate_pde,
    long_time_limit,
)


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: {detail}")


# ---------------------------------------------------------------------------
# 1. structural bounds of the density system on randomized runs
# ---------------------------------------------------------------------------

def test_criterion_01_structural_bounds_randomized():
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    worst_increase = 0.0
    worst_escape = 0.0
    for case in range(20):
        d = int(rng.integers(1, 3))
        L = int(rng.integers(24, 49)) if d == 1 else int(rng.integers(8, 15))
        grid = TorusGrid(d, L)
        spec = [MeanField(), TopHat(float(rng.uniform(0.05, 0.5))),
                WrappedBump(float(rng.uniform(0.05, 0.5)))][int(rng.integers(3))]
        kernel = build_kernel(grid, spec)
        beta = float(rng.uniform(0.2, 3.0))
        if rng.random() < 0.5:
            rho0 = np.full(grid.shape, rng.uniform(0.2, 0.9))
        else:
            rho0 = cosine_bump(grid, tuple(rng.uniform(0, 1, d)),
                               float(rng.uniform(0.1, 0.45)),
                               float(rng.uniform(0.3, 0.95)))
        head = float(1.0 - rho0.max())
        rho1 = (np.full(grid.shape, rng.uniform(0.0, head)) if head > 0
                else np.zeros(grid.shape))
        dt = 1e-3
        times = np.arange(0.0, 20.0 + dt / 2, dt)  # every integration step
        run = integrate_pde(kernel, beta, DensityField(grid, rho0, rho1),
                            times, dt=dt)
        worst_increase = max(worst_increase,
                             float(np.diff(run.u0, axis=0).max()))
        worst_escape = max(worst_escape,
                           float(-run.u0.min()), float(run.u0.max() - 1.0),
                           float(-run.u1.min()),
                           float((run.u1 - (1.0 - run.u0)).max()))
        assert np.all(np.diff(run.u0, axis=0) <= 1e-9)
        assert run.u0.min() >= -1e-9 and run.u0.max() <= 1.0 + 1e-9
        assert run.u1.min() >= -1e-9
        assert (run.u1 - (1.0 - run.u0)).max() <= 1e-9
    elapsed = time.perf_counter() - start
    _report("criterion 1", f"20 runs, worst u0 increase {worst_increase:.2e}, "
            f"worst bound escape {worst_escape:.2e}, {elapsed:.1f} s")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. conserved-form identity residual and its 4th-order decay
# ---------------------------------------------------------------------------

def test_criterion_02_identity_residual_order():
    # strong coupling keeps the residual step-size dominated (at mild beta
    # it sits at roundoff, where halving dt cannot show the order)
    grid = TorusGrid(1, 64)
    kernel = build_kernel(grid, TopHat(0.1))
    init = DensityField(grid, cosine_bump(grid, (0.5,), 0.3, 0.9),
                        np.full(grid.shape, 0.05))
    resid = {}
    for dt in (1e-3, 5e-4):
        run = integrate_pde(kernel, 10.0, init, [5.0], dt=dt)
        r = exp_identity_residual(kernel, 10.0, init, run.u0[0], run.u1[0])
        resid[dt] = float(np.abs(r).max())
    ratio = resid[1e-3] / resid[5e-4]
    _report("criterion 2", f"max residual {resid[1e-3]:.2e} at dt=1e-3, "
            f"falls {ratio:.1f}x when halved")
    assert resid[1e-3] <= 1e-6
    assert ratio >= 8.0


# ---------------------------------------------------------------------------
# 3. final-size consistency triangle (uniform mean field)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta, rho0, rho1", [
    (2.0, 0.99, 0.01),
    (0.5, 0.9, 0.1),
    (1.5, 0.5, 0.5),
])
def test_criterion_03_final_size_triangle(beta, rho0, rho1):
    grid = TorusGrid(1, 32)
    kernel = build_kernel(grid, MeanField())
    init = DensityField(grid, np.full(grid.shape, rho0),
                        np.full(grid.shape, rho1))
    scalar = final_size(beta, rho0, rho1)
    limit = long_time_limit(kernel, beta, init, dt=1e-3, u1_tol=1e-8)
    fixed_point = solve_final_density(kernel, beta, init, tol=1e-12)
    gap_pde = float(np.abs(limit.u0 - scalar).max())
    gap_fp = float(np.abs(fixed_point.rho - scalar).max())
    _report("criterion 3", f"beta={beta}: x_inf={scalar:.6f}, "
            f"|pde limit - x_inf|={gap_pde:.2e}, |fixed point - x_inf|={gap_fp:.2e}")
    assert gap_pde <= 1e-3
    assert gap_fp <= 1e-8


# ---------------------------------------------------------------------------
# 4. spatial consistency of the two final-state routes
# ---------------------------------------------------------------------------

def test_criterion_04_spatial_fixed_point_vs_pde():
    rng = np.random.default_rng(44)
    grid = TorusGrid(1, 64)
    u1_tol = 1e-8
    start = time.perf_counter()
    worst = 0.0
    for case in range(5):
        kernel = build_kernel(grid, TopHat(float(rng.uniform(0.08, 0.25))))
        beta = float(rng.uniform(0.6, 2.5))
        rho0 = cosine_bump(grid, (float(rng.uniform(0, 1)),),
                           float(rng.uniform(0.15, 0.45)),
                           float(rng.uniform(0.4, 0.9)))
        rho1 = cosine_bump(grid, (float(rng.uniform(0, 1)),),
                           float(rng.uniform(0.1, 0.3)),
                           float(rng.uniform(0.02, 0.1)))
        if (rho0 + rho1).max() > 1.0:
            rho1 *= (1.0 - rho0.max()) / rho1.max()
        init = DensityField(grid, rho0, rho1)
        fixed_point = solve_final_density(kernel, beta, init, tol=1e-12)
        limit = long_time_limit(kernel, beta, init, dt=1e-3, u1_tol=u1_tol)
        gap = float(np.abs(fixed_point.rho - limit.u0).max())
        worst = max(worst, gap)
        assert gap <= 10 * u1_tol
    elapsed = time.perf_counter() - start
    _report("criterion 4", f"5 nonuniform profiles, worst per-site gap "
            f"{worst:.2e} (bound {10 * u1_tol:.0e}), {elapsed:.1f} s")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. hydrodynamic convergence rate at desk scale
# ---------------------------------------------------------------------------

def test_criterion_05_hydro_convergence_rate():
    config = ExperimentConfig(L_values=(100, 1000, 10000), betas=(2.0,),
                              rho0="0.95", rho1="0.05", replicas=20, seed=7,
                              t_end=10.0, samples=64, dt=1e-2)
    start = time.perf_counter()
    result = run_hydro_sweep(config)
    elapsed = time.perf_counter() - start
    medians = [result.medians[L] for L in config.L_values]
    _report("criterion 5", "medians " +
            " > ".join(f"{m:.4f}" for m in medians) +
            f", log-log slope {result.slope:.3f}, {elapsed:.1f} s")
    assert medians[0] > medians[1] > medians[2]
    assert -0.65 <= result.slope <= -0.35
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 6. critical threshold behavior under vanishing seeding
# ---------------------------------------------------------------------------

def test_criterion_06_critical_threshold():
    config = ExperimentConfig(L_values=(100, 1000, 10000), betas=(0.5, 2.0),
                              alpha=0.25, replicas=50, seed=11)
    start = time.perf_counter()
    result = run_critical_sweep(config)
    elapsed = time.perf_counter() - start
    by_key = {(row[0], row[2]): row for row in result.summary}

    # (a) subcritical: survival approaches 1, branching bound on the mean
    sub_medians = [by_key[(0.5, L)][4] for L in config.L_values]
    assert sub_medians[0] < sub_medians[1] < sub_medians[2]
    assert sub_medians[2] >= 0.75
    for L in config.L_values:
        mean_attack = 1.0 - by_key[(0.5, L)][5]
        bound = 2.0 * (1.0 / L) ** 0.25 / (1.0 - 0.5)
        assert mean_attack <= bound

    # (b) supercritical: median final size near the infinitesimal-seeding root
    sup_median = by_key[(2.0, 10000)][4]
    target = hat_x_infinity(2.0)
    assert 0.153 <= sup_median <= 0.253
    _report("criterion 6", f"beta=0.5 medians {sub_medians[0]:.3f} < "
            f"{sub_medians[1]:.3f} < {sub_medians[2]:.3f}; beta=2 median "
            f"{sup_median:.4f} (target {target:.5f}), {elapsed:.1f} s")
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# 7. inverse problems recover their inputs
# ---------------------------------------------------------------------------

def test_criterion_07_inverse_round_trips():
    rng = np.random.default_rng(7)
    worst_beta = 0.0
    worst_rho0 = 0.0
    for case in range(5):
        d = 1 if case < 4 else 2
        grid = TorusGrid(d, 64 if d == 1 else 24)
        kernel = build_kernel(grid, TopHat(float(rng.uniform(0.08, 0.2))))
        beta = float(rng.uniform(0.8, 2.5))
        pos = grid.positions()[:, 0].reshape(grid.shape)
        plateau = (pos >= 0.1) & (pos < 0.45)
        rho0 = np.where(plateau, 1.0,
                        rng.uniform(0.2, 0.8) * np.ones(grid.shape))
        init = DensityField(grid, rho0, 1.0 - rho0)
        rho = solve_final_density(kernel, beta, init, tol=1e-14).rho
        est = infer_beta(kernel, rho, plateau)
        recovered = infer_initial_infected(kernel, beta, rho)
        worst_beta = max(worst_beta, abs(est.estimate - beta))
        worst_rho0 = max(worst_rho0, float(np.abs(recovered.u0 - rho0).max()))
        assert abs(est.estimate - beta) <= 1e-6
        assert np.abs(recovered.u0 - rho0).max() <= 1e-8
    _report("criterion 7", f"5 cases: worst |beta error| {worst_beta:.2e}, "
            f"worst |rho0 error| {worst_rho0:.2e}")


# ---------------------------------------------------------------------------
# 8. space-homogeneous identities
# ---------------------------------------------------------------------------

def test_criterion_08_mean_field_identities():
    # conservation of the phase-plane first integral along trajectories
    worst_conservation = 0.0
    for beta, rho0, rho1 in ((2.0, 0.99, 0.01), (1.5, 0.5, 0.5),
                             (0.8, 0.9, 0.1)):
        params = MeanFieldParams(beta, rho0, rho1)
        traj = ode_integrate(params, 12.0, dt=1e-3)
        drift = float(np.abs(traj.y - phase_curve(params, traj.x)).max())
        worst_conservation = max(worst_conservation, drift)
        assert drift <= 1e-7

    # the two characterizations of the infinitesimal-seeding root agree
    worst_root = 0.0
    for beta in (1.1, 1.5, 2.0, 3.0):
        gap = abs(xinf_max(beta) - hat_x_infinity(beta))
        worst_root = max(worst_root, gap)
        assert gap <= 1e-12

    # closed-form peak height against the trajectory maximum
    params = MeanFieldParams(2.0, 0.9, 0.1)
    peak = peak_height(2.0, 0.9, 0.1)
    traj = ode_integrate(params, 10.0, dt=1e-4)
    gap_peak = abs(peak - float(traj.y.max()))
    assert gap_peak <= 1e-4
    _report("criterion 8", f"phase drift {worst_conservation:.2e}, root gap "
            f"{worst_root:.2e}, peak vs trajectory {gap_peak:.2e}")


# ---------------------------------------------------------------------------
# 9. simulator self-audits on long runs
# ---------------------------------------------------------------------------

def test_criterion_09_simulator_audits():
    rng = np.random.default_rng(424242)
    worst_drift = 0.0
    for case in range(10):
        d = int(rng.integers(1, 3))
        if case < 2:
            spec, L = MeanField(), (20_000 if d == 1 else 145)
        else:
            spec = [TopHat(float(rng.uniform(0.04, 0.2))),
                    WrappedBump(float(rng.uniform(0.05, 0.2)))][int(rng.integers(2))]
            L = (int(rng.integers(18_000, 26_001)) if d == 1
                 else int(rng.integers(135, 166)))
        grid = TorusGrid(d, L)
        kernel = build_kernel(grid, spec)
        beta = float(rng.uniform(1.2, 2.5))
        state = init_random(kernel, beta, float(rng.uniform(0.85, 0.95)),
                            float(rng.uniform(0.03, 0.08)),
                            int(rng.integers(2**32)))
        prev_sus = state.n_sus
        for _ in range(10_000):
            gillespie_step(state)
            assert state.n_sus + state.n_inf + state.n_rem == grid.n_sites
            assert state.n_sus <= prev_sus
            prev_sus = state.n_sus
        if state.uniform_path:
            drift = float(np.abs(state.site_rates()
                                 - state.fresh_site_rates()).max())
        else:
            drift = state.audit_rates()
        worst_drift = max(worst_drift, drift)
        assert drift <= 1e-8
    _report("criterion 9", f"10 configs x 10^4 events, worst rate drift "
            f"{worst_drift:.2e}")


# ---------------------------------------------------------------------------
# 10. manifest-driven byte-identical reruns
# ---------------------------------------------------------------------------

def test_criterion_10_reproducibility(tmp_path):
    def run(cmd, config_path, out):
        assert cli_main([cmd, "--config", str(config_path),
                         "--out", str(out)]) == 0

    hydro_config = tmp_path / "hydro.txt"
    hydro_config.write_text(
        "d = 1\nL = 50, 150\nkernel = meanfield\nbeta = 2.0\nrho0 = 0.95\n"
        "rho1 = 0.05\nreplicas = 3\nseed = 3\nt_end = 4\nsamples = 9\ndt = 0.01\n")
    crit_config = tmp_path / "crit.txt"
    crit_config.write_text(
        "d = 1\nL = 50, 100\nbeta = 0.5, 2\nalpha = 0.25\nreplicas = 4\nseed = 9\n")
    sim_config = tmp_path / "sim.txt"
    sim_config.write_text(
        "d = 1\nL = 200\nkernel = tophat:0.1\nbeta = 2.0\nrho0 = 0.9\n"
        "rho1 = 0.05\nreplicas = 2\nseed = 5\nt_end = 5\nsamples = 6\n")

    checked = []
    for cmd, config_path, names in (
            ("hydro-sweep", hydro_config,
             ("hydro_convergence.csv", "hydro_summary.csv")),
            ("critical-sweep", crit_config,
             ("critical.csv", "critical_summary.csv")),
            ("simulate", sim_config,
             ("trajectory_r0.csv", "trajectory_r1.csv"))):
        first = tmp_path / f"{cmd}-a"
        second = tmp_path / f"{cmd}-b"
        run(cmd, config_path, first)
        # the manifest alone reproduces the run
        run(cmd, first / "manifest.txt", second)
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()
            checked.append(name)
    _report("criterion 10", f"{len(checked)} CSVs byte-identical across "
            "manifest reruns (timing-bearing final.csv excluded)")
