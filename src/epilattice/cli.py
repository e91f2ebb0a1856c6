"""``epi`` command line: one subcommand per workflow, flat config files.

    epi simulate       --config c.txt [--seed N] [--out DIR]
    epi pde            --config c.txt [--out DIR]
    epi final          --config c.txt [--out DIR]
    epi meanfield      [--config c.txt] [--out DIR]
    epi infer          --config c.txt [--out DIR]
    epi hydro-sweep    --config c.txt [--seed N] [--out DIR]
    epi critical-sweep --config c.txt [--seed N] [--out DIR]

``--seed`` and ``--out`` override the config's ``seed`` / ``out_dir``. Any
manifest written by a previous run can be passed to ``--config`` directly.
Exit codes: 0 success, 2 configuration/input problem, 3 numerical failure
(instability, non-convergence, domain violations), 1 unexpected error (its
traceback goes to stderr).
"""
from __future__ import annotations

import argparse
import math
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, parse_profile_pair
from .errors import ConfigError, IoError, NumericsError, SetupError
from .experiments import (
    RunManifest,
    run_critical_sweep,
    run_hydro_sweep,
    run_simulation,
    write_critical_outputs,
    write_csv,
    write_hydro_outputs,
    write_manifest,
)
from .final_density import infer_beta, infer_initial_infected, solve_final_density
from .grid import TorusGrid, build_kernel, parse_kernel_spec
from .meanfield import MeanFieldParams, final_size, hat_x_infinity, peak_infection
from .pde import DensityField, exp_identity_residual, integrate_pde


def _load_config(args) -> ExperimentConfig:
    config = (ExperimentConfig.from_file(args.config) if args.config
              else ExperimentConfig())
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    return replace(config, **overrides) if overrides else config


def _build_model(config: ExperimentConfig):
    grid = TorusGrid(config.d, config.L)
    kernel = build_kernel(grid, parse_kernel_spec(config.kernel))
    return grid, kernel


def _profiles(config: ExperimentConfig, grid: TorusGrid):
    return parse_profile_pair(grid, config.rho0, config.rho1)


def _scalar(spec: str, key: str) -> float:
    """A profile spec that must be uniform (bare number or uniform:<v>)."""
    text = spec.strip()
    if text.lower().startswith("uniform:"):
        text = text.split(":", 1)[1]
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"{key}: this command needs a uniform value, got {spec!r}") from None


def _finish(manifest: RunManifest, out_dir, started: float) -> None:
    manifest.wall_seconds = time.perf_counter() - started
    write_manifest(Path(out_dir) / "manifest.txt", manifest)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    started = time.perf_counter()
    config = _load_config(args)
    output = run_simulation(config)
    out = Path(config.out_dir)
    for replica, samples in enumerate(output.trajectories):
        name = ("trajectory.csv" if config.replicas == 1
                else f"trajectory_r{replica}.csv")
        write_csv(out / name, ["t", "x", "y", "z", "events"],
                  [(s.t, s.x, s.y, s.z, s.events) for s in samples])
    write_csv(out / "final.csv",
              ["replica", "seed", "x_inf", "events", "wall_ms"], output.finals)
    for replica, seed, x_inf, events, _ in output.finals:
        print(f"replica {replica}: x_inf = {x_inf:.6f} after {events} events")
    manifest = RunManifest("simulate", config)
    manifest.extra["realized.events"] = str(sum(final[3] for final in output.finals))
    manifest.extra["realized.attempts"] = str(sum(output.attempts))
    _finish(manifest, out, started)
    return 0


def _cmd_pde(args) -> int:
    started = time.perf_counter()
    config = _load_config(args)
    grid, kernel = _build_model(config)
    rho0, rho1 = _profiles(config, grid)
    init = DensityField(grid, rho0, rho1)
    times = np.linspace(0.0, config.t_end, config.samples)
    run = integrate_pde(kernel, config.beta, init, times, dt=config.dt)

    field_rows = []
    summary_rows = []
    for k, t in enumerate(run.t):
        u0 = run.u0[k].ravel()
        u1 = run.u1[k].ravel()
        field_rows.extend(
            (t, site, u0[site], u1[site]) for site in range(grid.n_sites))
        resid = exp_identity_residual(kernel, config.beta, init,
                                      run.u0[k], run.u1[k])
        summary_rows.append((t, float(u0.mean()), float(u1.mean()),
                             float(np.abs(resid).max())))
    out = Path(config.out_dir)
    write_csv(out / "pde_fields.csv", ["t", "site_index", "u0", "u1"], field_rows)
    write_csv(out / "pde_summary.csv",
              ["t", "mean_u0", "mean_u1", "max_resid_exp_identity"], summary_rows)
    last = summary_rows[-1]
    print(f"t = {last[0]:g}: mean_u0 = {last[1]:.6f}, mean_u1 = {last[2]:.6f}, "
          f"max identity residual = {last[3]:.3e}")
    _finish(RunManifest("pde", config), out, started)
    return 0


def _cmd_final(args) -> int:
    started = time.perf_counter()
    config = _load_config(args)
    grid, kernel = _build_model(config)
    rho0, rho1 = _profiles(config, grid)
    result = solve_final_density(kernel, config.beta,
                                 DensityField(grid, rho0, rho1), tol=config.tol)
    rho = result.rho.ravel()
    out = Path(config.out_dir)
    write_csv(out / "final_density.csv",
              ["site_index", "rho0", "rho1", "rho_final"],
              [(site, rho0.ravel()[site], rho1.ravel()[site], rho[site])
               for site in range(grid.n_sites)])
    print(f"converged in {result.iterations} iterations "
          f"(last update {result.residual:.3e}); "
          f"mean rho_final = {rho.mean():.6f}")
    _finish(RunManifest("final", config), out, started)
    return 0


def _cmd_meanfield(args) -> int:
    started = time.perf_counter()
    config = _load_config(args)
    rho0 = _scalar(config.rho0, "rho0")
    rho1 = _scalar(config.rho1, "rho1")
    rows = []
    for beta in config.betas:
        x_inf = final_size(beta, rho0, rho1)
        y_peak = math.nan
        if rho1 > 0:
            peak = peak_infection(MeanFieldParams(beta, rho0, rho1))
            if peak is not None:
                y_peak = peak[1]
        rows.append((beta, rho0, rho1, x_inf, y_peak, hat_x_infinity(beta).value))
    header = ["beta", "rho0", "rho1", "x_inf", "y_peak", "x_hat"]
    print(",".join(header))
    for row in rows:
        print(",".join("%.17g" % c if isinstance(c, float) else str(c)
                       for c in row))
    if args.out is not None:
        out = Path(config.out_dir)
        write_csv(out / "meanfield.csv", header, rows)
        _finish(RunManifest("meanfield", config), out, started)
    return 0


def _read_final_csv(path, grid: TorusGrid):
    try:
        data = np.genfromtxt(path, delimiter=",", names=True)
    except OSError as exc:
        raise IoError(f"cannot read input {path}: {exc}") from None
    needed = ("site_index", "rho0", "rho1", "rho_final")
    names = data.dtype.names or ()
    if any(col not in names for col in needed):
        raise ConfigError(
            f"input {path}: expected columns {','.join(needed)}, got {','.join(names)}")
    if data.size != grid.n_sites:
        raise ConfigError(
            f"input {path}: {data.size} rows for a grid of {grid.n_sites} sites")
    order = np.argsort(data["site_index"])
    return (data["rho0"][order].reshape(grid.shape),
            data["rho1"][order].reshape(grid.shape),
            data["rho_final"][order].reshape(grid.shape))


def _cmd_infer(args) -> int:
    started = time.perf_counter()
    config = _load_config(args)
    if not config.input:
        raise ConfigError("infer needs input = <final-density csv> in the config")
    grid, kernel = _build_model(config)
    rho0, rho1, rho = _read_final_csv(config.input, grid)
    out = Path(config.out_dir)
    if config.mode in ("beta", "both"):
        region = rho0 >= 1.0 - 1e-12
        estimate = infer_beta(kernel, rho, region)
        write_csv(out / "inferred_beta.csv", ["site_index", "beta_site"],
                  [(site, estimate.per_site.ravel()[site])
                   for site in range(grid.n_sites)])
        print(f"beta_estimate = {estimate.estimate:.12g} "
              f"(spread {estimate.spread:.3e} over {estimate.n_used} sites)")
    if config.mode in ("initial", "both"):
        recovered = infer_initial_infected(kernel, config.beta, rho)
        r0 = recovered.u0.ravel()
        r1 = recovered.u1.ravel()
        write_csv(out / "inferred_initial.csv", ["site_index", "rho0", "rho1"],
                  [(site, r0[site], r1[site]) for site in range(grid.n_sites)])
        print(f"recovered initial split: mean rho0 = {r0.mean():.6f}, "
              f"mean rho1 = {r1.mean():.6f}")
    _finish(RunManifest("infer", config), out, started)
    return 0


def _cmd_hydro_sweep(args) -> int:
    started = time.perf_counter()
    config = _load_config(args)
    result = run_hydro_sweep(config)
    manifest = RunManifest("hydro-sweep", config)
    manifest.wall_seconds = time.perf_counter() - started
    write_hydro_outputs(result, manifest, config.out_dir)
    for L, gamma, med0, _, _, med1, _, _ in result.summary:
        print(f"L = {L:>6}: median err_i0 = {med0:.5f}, err_i1 = {med1:.5f}")
    print(f"log-log slope of combined medians: {result.slope:.3f}")
    return 0


def _cmd_critical_sweep(args) -> int:
    started = time.perf_counter()
    config = _load_config(args)
    result = run_critical_sweep(config)
    manifest = RunManifest("critical-sweep", config)
    manifest.wall_seconds = time.perf_counter() - started
    write_critical_outputs(result, manifest, config.out_dir)
    for beta, alpha, L, n_inf, median, mean, std, target in result.summary:
        print(f"beta = {beta:g}, L = {L:>6} (seeded {n_inf}): "
              f"median x_inf = {median:.4f}, mean = {mean:.4f} "
              f"+/- {std:.4f}, target = {target:.5f}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": (_cmd_simulate, True),
    "pde": (_cmd_pde, False),
    "final": (_cmd_final, False),
    "meanfield": (_cmd_meanfield, False),
    "infer": (_cmd_infer, False),
    "hydro-sweep": (_cmd_hydro_sweep, True),
    "critical-sweep": (_cmd_critical_sweep, True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epi",
        description="Lattice epidemic simulation and analysis toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, takes_seed) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value config file "
                                        "(or a manifest.txt from a previous run)")
        p.add_argument("--out", help="output directory (overrides out_dir)")
        if takes_seed:
            p.add_argument("--seed", type=int, help="master seed override")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        traceback.print_exc()
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
