"""Sweep orchestration: seeds, linearized benchmark, observables, outputs."""
import math

import numpy as np
import pytest

from epilattice import MeanField, TorusGrid, build_kernel
from epilattice.config import ExperimentConfig
from epilattice.errors import ConfigError, DomainError
from epilattice.experiments import (
    CriticalResult,
    HydroResult,
    RunManifest,
    build_test_functions,
    derive_seed,
    linearized_trajectory,
    run_critical_sweep,
    run_hydro_sweep,
    run_simulation,
    seeded_infected_count,
    write_critical_outputs,
    write_csv,
    write_hydro_outputs,
)
from epilattice.meanfield import hat_x_infinity
from epilattice.particle import init_exact_counts, run_sampled


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------

def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(7, 100, 3) == derive_seed(7, 100, 3)
    seeds = {derive_seed(7, job, L, rep)
             for job in range(2) for L in (100, 1000) for rep in range(25)}
    assert len(seeds) == 100  # no collisions across the key lattice
    assert derive_seed(7, 100, 3) != derive_seed(8, 100, 3)
    assert all(0 <= s < 2**128 for s in seeds)


# ---------------------------------------------------------------------------
# linearized benchmark
# ---------------------------------------------------------------------------

def test_linearized_initial_point():
    gamma, alpha = 1e-4, 0.25
    x, y, t_c = linearized_trajectory(2.0, alpha, gamma, 0.0)
    assert x == pytest.approx(1.0 - gamma**alpha, abs=1e-15)
    assert y == pytest.approx(gamma**alpha, abs=1e-15)


def test_linearized_critical_time():
    # alpha/(beta-1) * ln(1/gamma) at beta=2, alpha=0.25, gamma=1e-4
    _, _, t_c = linearized_trajectory(2.0, 0.25, 1e-4, 0.0)
    assert t_c == pytest.approx(2.3025850929940457, abs=1e-15)
    _, y_at_tc, _ = linearized_trajectory(2.0, 0.25, 1e-4, t_c)
    assert y_at_tc == pytest.approx(1.0, abs=1e-12)


def test_linearized_vectorized_and_consistent():
    t = np.linspace(0.0, 2.0, 201)
    beta = 1.5
    x, y, _ = linearized_trajectory(beta, 0.3, 1e-3, t)
    assert x.shape == t.shape
    # the pair solves x' = -beta*y with frozen susceptible density: check
    # the closed forms against a central difference (interior points)
    dx = np.gradient(x, t)[1:-1]
    np.testing.assert_allclose(dx, -beta * y[1:-1], rtol=1e-4)


def test_linearized_domain_errors():
    with pytest.raises(DomainError):
        linearized_trajectory(1.0, 0.25, 1e-4, 0.0)
    with pytest.raises(DomainError):
        linearized_trajectory(2.0, -0.1, 1e-4, 0.0)
    with pytest.raises(DomainError):
        linearized_trajectory(2.0, 0.25, 0.0, 0.0)


# ---------------------------------------------------------------------------
# test-function families
# ---------------------------------------------------------------------------

def test_build_test_functions_1d():
    grid = TorusGrid(1, 8)
    funcs = build_test_functions(grid, "one,cos:1,sin:1,cos:2")
    assert funcs.shape == (4, 8)
    r = grid.positions()[:, 0]
    np.testing.assert_array_equal(funcs[0], np.ones(8))
    np.testing.assert_allclose(funcs[1], np.cos(2 * np.pi * r), atol=1e-15)
    np.testing.assert_allclose(funcs[2], np.sin(2 * np.pi * r), atol=1e-15)
    np.testing.assert_allclose(funcs[3], np.cos(4 * np.pi * r), atol=1e-15)


def test_build_test_functions_2d_per_axis():
    grid = TorusGrid(2, 6)
    funcs = build_test_functions(grid, "one,cos:1")
    assert funcs.shape == (1 + 2, 36)  # one + cos per axis


@pytest.mark.parametrize("bad", ["", "triangle", "cos", "cos:x", "one,"])
def test_build_test_functions_errors(bad):
    grid = TorusGrid(1, 8)
    if bad == "one,":
        # trailing comma is tolerated, not an error
        assert build_test_functions(grid, bad).shape == (1, 8)
        return
    with pytest.raises(ConfigError):
        build_test_functions(grid, bad)


# ---------------------------------------------------------------------------
# critical sweep
# ---------------------------------------------------------------------------

def test_seeded_infected_count_values():
    # round(gamma^alpha * L^d) = round(L^(d - alpha))
    assert seeded_infected_count(10_000, 1, 0.25) == 1000
    assert seeded_infected_count(1000, 1, 0.25) == 178
    assert seeded_infected_count(100, 1, 0.25) == 32
    assert seeded_infected_count(100, 2, 0.25) == round(100 ** 1.75)


def test_run_critical_sweep_small():
    config = ExperimentConfig(L_values=(50, 100), betas=(0.5, 2.0),
                              alpha=0.25, replicas=4, seed=3)
    result = run_critical_sweep(config)
    assert len(result.rows) == 2 * 2 * 4
    assert result.realized == {50: seeded_infected_count(50, 1, 0.25),
                               100: 32}
    for beta, alpha, L, replica, seed, x_inf, target in result.rows:
        assert 0.0 <= x_inf <= 1.0
        assert target == (1.0 if beta <= 1 else hat_x_infinity(beta).value)
        assert seed == derive_seed(3, [0.5, 2.0].index(beta), L, replica)
    # deterministic
    again = run_critical_sweep(config)
    assert again.rows == result.rows
    assert again.events == result.events > 0


def test_golden_critical_sweep():
    # pinned final susceptible counts and events of a small d = 1 sweep:
    # any change to the sweep's seeds or to the absorption chain's stream
    # moves them
    config = ExperimentConfig(L_values=(50, 100), betas=(0.5, 2.0),
                              alpha=0.25, replicas=3, seed=3)
    result = run_critical_sweep(config)
    finals = [round(row[5] * row[2]) for row in result.rows]
    assert finals == [19, 30, 25, 51, 47, 44, 9, 9, 7, 19, 11, 3]
    assert [row[5] for row in result.rows] == [
        n_sus / row[2] for n_sus, row in zip(finals, result.rows)]
    assert result.events == 946


def test_run_critical_sweep_three_dimensions():
    config = ExperimentConfig(d=3, L_values=(6, 10), betas=(0.5, 2.0),
                              alpha=0.25, replicas=4, seed=3)
    result = run_critical_sweep(config)
    assert len(result.rows) == 2 * 2 * 4
    assert result.realized == {6: round(6 ** 2.75), 10: round(10 ** 2.75)}
    expected = 0
    for beta, alpha, L, replica, seed, x_inf, target in result.rows:
        n, n_inf = L ** 3, result.realized[L]
        n_sus = round(x_inf * n)
        assert x_inf == n_sus / n and 0 <= n_sus <= n - n_inf
        expected += n_inf + 2 * (n - n_inf - n_sus)
    assert result.events == expected
    assert run_critical_sweep(config).rows == result.rows


def test_run_critical_sweep_validates():
    with pytest.raises(ConfigError, match="meanfield"):
        run_critical_sweep(ExperimentConfig(kernel="tophat:0.1", alpha=0.25))
    with pytest.raises(ConfigError, match="alpha"):
        run_critical_sweep(ExperimentConfig(alpha=0.5))
    with pytest.raises(ConfigError, match="alpha"):
        run_critical_sweep(ExperimentConfig(alpha=0.0))


# ---------------------------------------------------------------------------
# hydro sweep
# ---------------------------------------------------------------------------

def test_run_hydro_sweep_small_shapes_and_determinism():
    config = ExperimentConfig(L_values=(40, 80), betas=(2.0,), rho0="0.9",
                              rho1="0.1", replicas=3, seed=5, t_end=3.0,
                              samples=7, dt=0.01)
    result = run_hydro_sweep(config)
    assert len(result.rows) == 2 * 3
    assert set(result.medians) == {40, 80}
    assert math.isfinite(result.slope)
    assert run_hydro_sweep(config).rows == result.rows


def test_run_hydro_sweep_two_dimensions():
    # profiles keep the grid's shape on their way to init_random in d >= 2
    config = ExperimentConfig(d=2, L_values=(8, 12), kernel="tophat:0.3",
                              rho0="0.8", rho1="bump:0.2,0.3", replicas=2,
                              seed=4, t_end=1.0, samples=3, dt=0.1)
    result = run_hydro_sweep(config)
    assert [row[:3] for row in result.rows] == [
        (L, 1 / L, replica) for L in (8, 12) for replica in range(2)]
    assert all(0.0 <= err < 1.0 for row in result.rows for err in row[3:])
    assert run_hydro_sweep(config).rows == result.rows


def test_run_hydro_sweep_three_dimensions():
    config = ExperimentConfig(d=3, L_values=(6, 8), kernel="tophat:0.3",
                              betas=(2.0,), rho0="0.9", rho1="0.1",
                              replicas=2, seed=5, t_end=1.0, samples=3,
                              dt=0.05)
    result = run_hydro_sweep(config)
    assert [row[:3] for row in result.rows] == [
        (L, 1.0 / L, replica) for L in (6, 8) for replica in range(2)]
    errs = np.array([row[3:] for row in result.rows])
    assert np.isfinite(errs).all() and (errs >= 0).all()
    assert set(result.medians) == {6, 8} and math.isfinite(result.slope)
    assert run_hydro_sweep(config).rows == result.rows


def test_hydro_without_infection_is_pure_initial_noise():
    # rho1 = 0: nothing ever happens, the infected-component error vanishes
    # and the susceptible error is the (time-constant) sampling noise
    config = ExperimentConfig(L_values=(200,), betas=(2.0,), rho0="0.9",
                              rho1="0.0", replicas=5, seed=1, t_end=2.0,
                              samples=5, dt=0.01)
    result = run_hydro_sweep(config)
    for L, gamma, replica, err_i0, err_i1 in result.rows:
        assert err_i1 == 0.0
        assert 0.0 < err_i0 < 5.0 / math.sqrt(200)


def test_exact_count_pairing_error_at_time_zero():
    # deterministic counts: the constant-function pairing at t=0 differs
    # from the target fraction only by integer rounding, at most gamma^d
    grid = TorusGrid(1, 1000)
    kernel = build_kernel(grid, MeanField())
    rho0 = 0.7303
    n_sus = round(rho0 * grid.n_sites)
    state = init_exact_counts(kernel, 2.0, n_sus, 10, 4)
    samples = run_sampled(state, [0.0], np.ones((1, grid.n_sites)))
    assert abs(samples[0].averages[0, 0] - rho0) <= grid.gamma


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def test_write_csv_formats_17_digits(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1, 1.0 / 3.0), (2, 0.1)])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.33333333333333331"
    assert lines[2] == "2,0.10000000000000001"


def test_write_csv_empty_rows(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["x", "y"], [])
    assert path.read_text() == "x,y\n"


def test_write_outputs_empty_results(tmp_path):
    config = ExperimentConfig()
    hydro_dir = tmp_path / "h"
    write_hydro_outputs(HydroResult([], [], {}, float("nan")),
                        RunManifest("hydro-sweep", config), hydro_dir)
    assert (hydro_dir / "manifest.txt").exists()
    assert (hydro_dir / "hydro_convergence.csv").read_text() == \
        "L,gamma,replica,err_i0,err_i1\n"
    crit_dir = tmp_path / "c"
    write_critical_outputs(CriticalResult([], [], {}, 0),
                           RunManifest("critical-sweep", config), crit_dir)
    assert (crit_dir / "critical.csv").read_text() == \
        "beta,alpha,L,replica,seed,x_inf,target\n"


def test_manifest_reproduces_config():
    from epilattice.config import parse_kv_text
    config = ExperimentConfig(L_values=(10, 30), betas=(0.5, 2.0), seed=41,
                              rho0="bump:0.9,0.25", rho1="complement")
    manifest = RunManifest("critical-sweep", config,
                           extra={"realized.L10.n_infected": "4"})
    manifest.wall_seconds = 1.25
    items = parse_kv_text(manifest.render())
    assert items["command"] == "critical-sweep"
    assert items["wall_seconds"] == "1.250"
    assert items["realized.L10.n_infected"] == "4"
    assert ExperimentConfig.from_items(items) == config


def test_run_simulation_exact_init_and_determinism():
    config = ExperimentConfig(L_values=(200,), betas=(1.5,), replicas=2,
                              seed=6, t_end=4.0, samples=5,
                              init="exact:190,10")
    out = run_simulation(config)
    assert len(out.trajectories) == 2
    assert all(len(t) == 5 for t in out.trajectories)
    again = run_simulation(config)
    # wall_ms varies run to run; everything else is bit-stable
    assert [f[:4] for f in out.finals] == [f[:4] for f in again.finals]
    assert out.trajectories[0][0].x == 190 / 200


def test_run_simulation_random_init_two_dimensions():
    config = ExperimentConfig(d=2, L_values=(8,), kernel="tophat:0.3",
                              rho0="0.8", rho1="bump:0.2,0.3", replicas=2,
                              seed=6, t_end=1.0, samples=3)
    out = run_simulation(config)
    assert all(len(t) == 3 for t in out.trajectories)
    for samples, (_, _, x_inf, events, _) in zip(out.trajectories, out.finals):
        assert samples[-1].x >= x_inf
        assert events >= samples[-1].events
    again = run_simulation(config)
    assert [f[:4] for f in again.finals] == [f[:4] for f in out.finals]


def test_run_simulation_bad_init():
    with pytest.raises(ConfigError, match="init"):
        run_simulation(ExperimentConfig(init="exact:10"))
    with pytest.raises(ConfigError, match="init"):
        run_simulation(ExperimentConfig(init="scattered"))
