"""Sweep orchestration: convergence studies and critical-threshold runs.

Two experiment families are automated here:

* the scaling study ``run_hydro_sweep`` — replicas of the particle system at
  increasing L, each compared against the deterministic density field
  through a family of test functions; the sup (over sampled times and test
  functions) discrepancy per replica is the convergence observable, and its
  per-L median should shrink like L^{-1/2};
* the threshold study ``run_critical_sweep`` — mean-field absorption runs
  seeded with a vanishing infected fraction gamma^alpha, whose final
  susceptible fraction concentrates near 1 below beta = 1 and near the root
  of x = e^{beta(x-1)} above it. Only final sizes are needed, so each is
  drawn exactly from the counts' absorption chain
  (``particle.absorb_mean_field``), with no event loop.

Every replica draws its generator from a seed derived deterministically
from (master seed, job position, L, replica index), so sweeps are
reproducible replica-by-replica and streams never collide across jobs.
Results are plain rows, and a sweep result's ``tables()`` names its CSV files
and their columns; only the command line (``cli``) renders and writes them.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, _parse_float, _parse_int, parse_profile_pair
from .errors import ConfigError
from .grid import MeanField, TorusGrid, build_kernel, parse_kernel_spec
from .meanfield import hat_x_infinity
from .particle import (absorb_mean_field, init_exact_counts, init_random, make_rng,
                       run_sampled, run_to_absorption)
from .pde import DensityField, integrate_pde


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def derive_seed(master: int, *key: int) -> int:
    """Deterministic 128-bit replica seed from a master seed and an index key.

    Distinct keys give statistically independent streams; the integer alone
    reproduces the replica's generator via ``make_rng``.
    """
    words = np.random.SeedSequence(master, spawn_key=tuple(key)).generate_state(4)
    return int.from_bytes(words.astype("<u4").tobytes(), "little")


# ---------------------------------------------------------------------------
# test functions for the convergence observable
# ---------------------------------------------------------------------------

def build_test_functions(grid: TorusGrid, spec: str) -> np.ndarray:
    """(n_funcs, n_sites) matrix of observables from a token list.

    Tokens: ``one`` | ``cos:<k>`` | ``sin:<k>``; the oscillatory tokens
    expand to one function per axis with frequency k (macroscopic
    coordinate, so ``cos:1`` is cos(2 pi r_axis)).
    """
    coords = grid.positions()  # (n_sites, d), macroscopic in [0, 1)
    funcs = []
    for token in (t.strip() for t in spec.split(",")):
        if not token:
            continue
        if token == "one":
            funcs.append(np.ones(grid.n_sites))
            continue
        head, _, freq_text = token.partition(":")
        if head not in ("cos", "sin") or not freq_text:
            raise ConfigError(
                f"test_functions: expected one | cos:<k> | sin:<k>, got {token!r}")
        freq = _parse_float("test_functions", freq_text)
        if abs(freq) > grid.L / 2:
            raise ConfigError(
                f"test_functions: |k| must be at most L/2 = {grid.L / 2:g}, got {token!r}")
        wave = np.cos if head == "cos" else np.sin
        for axis in range(grid.d):
            funcs.append(wave(2.0 * np.pi * freq * coords[:, axis]))
    if not funcs:
        raise ConfigError("test_functions: empty set")
    return np.stack(funcs)


# ---------------------------------------------------------------------------
# hydrodynamic-convergence sweep
# ---------------------------------------------------------------------------

@dataclass
class HydroResult:
    """Per-replica sup-discrepancies plus per-L medians and the fitted slope."""

    rows: list[tuple]              # (L, gamma, replica, err_i0, err_i1)
    summary: list[tuple]           # (L, gamma, median/q25/q75 for i0 and i1)
    medians: dict[int, float]      # L -> median over replicas of max(err_i0, err_i1)
    slope: float                   # log-log fit of the combined medians vs L

    def tables(self) -> dict[str, tuple[list[str], list[tuple]]]:
        return {
            "hydro_convergence.csv": (["L", "gamma", "replica", "err_i0", "err_i1"],
                                      self.rows),
            "hydro_summary.csv": (["L", "gamma", "median_err_i0", "q25_err_i0",
                                   "q75_err_i0", "median_err_i1", "q25_err_i1",
                                   "q75_err_i1"], self.summary),
        }


def run_hydro_sweep(config: ExperimentConfig) -> HydroResult:
    """Compare particle replicas against the density field across L values.

    For each L: build the kernel, evaluate the initial profiles, solve the
    deterministic field once, then per replica pair the empirical state
    with each test function at the sampled times. The per-replica error is
    the max discrepancy over times and functions, reported separately for
    the susceptible (i0) and infected (i1) components.
    """
    kernel_spec = parse_kernel_spec(config.kernel)
    sample_times = np.linspace(0.0, config.t_end, config.samples)
    rows = []
    summary = []
    medians: dict[int, float] = {}
    for L in config.L_values:
        grid = TorusGrid(config.d, L)
        kernel = build_kernel(grid, kernel_spec)
        rho0, rho1 = parse_profile_pair(grid, config.rho0, config.rho1)
        test_funcs = build_test_functions(grid, config.test_functions)
        vol = grid.cell_volume()

        run = integrate_pde(kernel, config.beta, DensityField(grid, rho0, rho1),
                            sample_times, dt=config.dt)
        # Riemann pairings of the deterministic field, (n_times, 2, n_funcs)
        pde_pairings = vol * np.stack(
            [np.stack([run.u0[k].ravel() @ test_funcs.T,
                       run.u1[k].ravel() @ test_funcs.T])
             for k in range(len(sample_times))])

        errs = np.empty((config.replicas, 2))
        for replica in range(config.replicas):
            seed = derive_seed(config.seed, L, replica)
            state = init_random(kernel, config.beta, rho0, rho1, seed)
            samples = run_sampled(state, sample_times, test_funcs)
            emp = np.stack([s.averages for s in samples])
            errs[replica] = np.abs(emp - pde_pairings).max(axis=(0, 2))
            rows.append((L, grid.gamma, replica,
                         float(errs[replica, 0]), float(errs[replica, 1])))
        (q25_0, q25_1), (med0, med1), (q75_0, q75_1) = np.quantile(
            errs, (0.25, 0.5, 0.75), axis=0)
        summary.append((L, grid.gamma, float(med0), float(q25_0), float(q75_0),
                        float(med1), float(q25_1), float(q75_1)))
        medians[L] = float(np.median(errs.max(axis=1)))

    slope = float("nan")
    if len(config.L_values) >= 2:
        xs = np.log(np.asarray(config.L_values, dtype=float))
        ys = np.log(np.asarray([medians[L] for L in config.L_values]))
        slope = float(np.polyfit(xs, ys, 1)[0])
    return HydroResult(rows, summary, medians, slope)


# ---------------------------------------------------------------------------
# critical-threshold sweep
# ---------------------------------------------------------------------------

@dataclass
class CriticalResult:
    """Absorption outcomes per (beta, L, replica) and their aggregates."""

    rows: list[tuple]     # (beta, alpha, L, replica, seed, x_inf, target)
    summary: list[tuple]  # (beta, alpha, L, n_infected, median, mean, std, target)
    realized: dict[int, int]  # L -> initial infected count
    events: int           # committed events over all replicas, counted on the
                          # absorption chain: as many as particle runs commit

    def tables(self) -> dict[str, tuple[list[str], list[tuple]]]:
        return {
            "critical.csv": (["beta", "alpha", "L", "replica", "seed", "x_inf",
                              "target"], self.rows),
            "critical_summary.csv": (["beta", "alpha", "L", "n_infected",
                                      "median_x_inf", "mean_x_inf", "std_x_inf",
                                      "target"], self.summary),
        }


def seeded_infected_count(L: int, d: int, alpha: float) -> int:
    """Nearest integer to gamma^alpha * L^d sites (gamma = 1/L)."""
    return round(L ** (d - alpha))


def run_critical_sweep(config: ExperimentConfig) -> CriticalResult:
    """Final susceptible fractions under vanishing seeding, across beta and L.

    Initial states carry exactly round(gamma^alpha L^d) infected sites and
    no removed sites; no kernel is built, since the mean-field final size
    depends on L only through n = L^d. The theoretical target column is 1
    for beta <= 1 and the first positive root of x = e^{beta(x-1)} above
    threshold.
    """
    alpha = config.alpha
    if not 0.0 < alpha < 0.5:
        raise ConfigError(f"alpha: critical runs need alpha in (0, 1/2), got {alpha}")
    if not isinstance(parse_kernel_spec(config.kernel), MeanField):
        raise ConfigError(
            f"critical sweeps are defined for the meanfield kernel, got {config.kernel!r}")
    rows = []
    summary = []
    realized: dict[int, int] = {}
    events = 0
    for beta_idx, beta in enumerate(config.betas):
        target = hat_x_infinity(beta)
        for L in config.L_values:
            n = L ** config.d
            n_inf = seeded_infected_count(L, config.d, alpha)
            realized[L] = n_inf
            finals = np.empty(config.replicas)
            for replica in range(config.replicas):
                seed = derive_seed(config.seed, beta_idx, L, replica)
                n_sus, n_events = absorb_mean_field(n, beta, n - n_inf, n_inf,
                                                    make_rng(seed))
                x_inf = n_sus / n
                finals[replica] = x_inf
                events += n_events
                rows.append((beta, alpha, L, replica, seed, x_inf, target))
            std = float(finals.std(ddof=1)) if config.replicas > 1 else 0.0
            o, r = np.sort(finals), config.replicas  # np.median's value, bit for bit
            summary.append((beta, alpha, L, n_inf, 0.5 * float(o[(r - 1) // 2] + o[r // 2]),
                            float(finals.mean()), std, target))
    return CriticalResult(rows, summary, realized, events)


# ---------------------------------------------------------------------------
# single-model runs used by the command layer
# ---------------------------------------------------------------------------

@dataclass
class SimulationOutput:
    trajectories: list[list]   # per replica: list of TrajectorySample
    finals: list[tuple]        # (replica, seed, x_inf, events, wall_ms)
    attempts: list[int]        # per replica: events plus rejected proposals


def run_simulation(config: ExperimentConfig) -> SimulationOutput:
    """Replicated trajectory + absorption runs from one configuration."""
    grid = TorusGrid(config.d, config.L)
    kernel = build_kernel(grid, parse_kernel_spec(config.kernel))
    sample_times = np.linspace(0.0, config.t_end, config.samples)
    if config.init == "random":
        rho0, rho1 = parse_profile_pair(grid, config.rho0, config.rho1)
    elif config.init.startswith("exact:"):
        parts = config.init[len("exact:"):].split(",")
        if len(parts) != 2:
            raise ConfigError(f"init: expected exact:<n_sus>,<n_inf>, got {config.init!r}")
        n_sus, n_inf = (_parse_int("init", part) for part in parts)
    else:
        raise ConfigError(
            f"init: expected random | exact:<n_sus>,<n_inf>, got {config.init!r}")
    trajectories = []
    finals = []
    attempts = []
    for replica in range(config.replicas):
        seed = derive_seed(config.seed, config.L, replica)
        start = time.perf_counter()
        state = (init_random(kernel, config.beta, rho0, rho1, seed)
                 if config.init == "random"
                 else init_exact_counts(kernel, config.beta, n_sus, n_inf, seed))
        trajectories.append(run_sampled(state, sample_times))
        x_inf = run_to_absorption(state).x_inf
        wall_ms = (time.perf_counter() - start) * 1e3
        finals.append((replica, seed, x_inf, state.events, wall_ms))
        attempts.append(state.attempts)
    return SimulationOutput(trajectories, finals, attempts)
