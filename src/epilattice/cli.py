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
Each subcommand computes and prints; it returns its CSV tables and its
``realized.*`` manifest entries, and ``main`` alone renders and writes them,
all or nothing and ``manifest.txt`` last, so a run that fails writes nothing.
Exit codes: 0 success, 2 configuration/input problem, 3 numerical failure
(instability, non-convergence, domain violations), 1 unexpected error (its
traceback goes to stderr).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, parse_profile_pair, parse_uniform
from .errors import ConfigError, IoError, NumericsError, SetupError
from .experiments import run_critical_sweep, run_hydro_sweep, run_simulation
from .final_density import infer_beta, infer_initial_infected, solve_final_density
from .grid import TorusGrid, build_kernel, parse_kernel_spec
from .meanfield import final_size, hat_x_infinity, peak_height
from .pde import DensityField, exp_identity_residual, integrate_pde

FLOAT_FMT = "%.17g"


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


def _site_rows(*fields) -> list[tuple]:
    """One row per site: its index, then each field's value there."""
    return list(zip(range(fields[0].size), *(f.ravel() for f in fields)))


# ---------------------------------------------------------------------------
# subcommands: each returns ({file name: (header, rows)}, {realized key: text})
# ---------------------------------------------------------------------------

def _cmd_simulate(config: ExperimentConfig):
    output = run_simulation(config)
    tables = {}
    for replica, samples in enumerate(output.trajectories):
        name = ("trajectory.csv" if config.replicas == 1
                else f"trajectory_r{replica}.csv")
        tables[name] = (["t", "x", "y", "z", "events"],
                        [(s.t, s.x, s.y, s.z, s.events) for s in samples])
    tables["final.csv"] = (["replica", "seed", "x_inf", "events", "wall_ms"],
                           output.finals)
    for replica, seed, x_inf, events, _ in output.finals:
        print(f"replica {replica}: x_inf = {x_inf:.6f} after {events} events")
    return tables, {"realized.events": str(sum(final[3] for final in output.finals)),
                    "realized.attempts": str(sum(output.attempts))}


def _cmd_pde(config: ExperimentConfig):
    grid, kernel = _build_model(config)
    rho0, rho1 = parse_profile_pair(grid, config.rho0, config.rho1)
    init = DensityField(grid, rho0, rho1)
    times = np.linspace(0.0, config.t_end, config.samples)
    run = integrate_pde(kernel, config.beta, init, times, dt=config.dt)

    field_rows = []
    summary_rows = []
    for t, u0, u1 in zip(run.t, run.u0, run.u1):
        field_rows.extend((t, *row) for row in _site_rows(u0, u1))
        resid = exp_identity_residual(kernel, config.beta, init, u0, u1)
        summary_rows.append((t, float(u0.mean()), float(u1.mean()),
                             float(np.abs(resid).max())))
    last = summary_rows[-1]
    print(f"t = {last[0]:g}: mean_u0 = {last[1]:.6f}, mean_u1 = {last[2]:.6f}, "
          f"max identity residual = {last[3]:.3e}")
    return {"pde_fields.csv": (["t", "site_index", "u0", "u1"], field_rows),
            "pde_summary.csv": (["t", "mean_u0", "mean_u1", "max_resid_exp_identity"],
                                summary_rows)}, {}


def _cmd_final(config: ExperimentConfig):
    grid, kernel = _build_model(config)
    rho0, rho1 = parse_profile_pair(grid, config.rho0, config.rho1)
    result = solve_final_density(kernel, config.beta,
                                 DensityField(grid, rho0, rho1), tol=config.tol)
    print(f"converged in {result.iterations} iterations "
          f"(last update {result.residual:.3e}); "
          f"mean rho_final = {result.rho.mean():.6f}")
    return {"final_density.csv": (["site_index", "rho0", "rho1", "rho_final"],
                                  _site_rows(rho0, rho1, result.rho))}, {
        "realized.final_density.iterations": str(result.iterations),
        "realized.final_density.residual": FLOAT_FMT % result.residual}


def _cmd_meanfield(config: ExperimentConfig):
    rho0 = parse_uniform(config.rho0, "rho0")
    rho1 = parse_uniform(config.rho1, "rho1")
    rows = []
    for beta in config.betas:
        y_peak = peak_height(beta, rho0, rho1)
        rows.append((beta, rho0, rho1, final_size(beta, rho0, rho1),
                     math.nan if y_peak is None else y_peak, hat_x_infinity(beta)))
    header = ["beta", "rho0", "rho1", "x_inf", "y_peak", "x_hat"]
    print(_csv_text(header, rows), end="")
    return {"meanfield.csv": (header, rows)}, {}


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
    if not np.array_equal(data["site_index"][order], np.arange(grid.n_sites)):
        raise ConfigError(f"input {path}: site_index must list each site "
                          f"0 .. {grid.n_sites - 1} once")
    return (data["rho0"][order].reshape(grid.shape),
            data["rho1"][order].reshape(grid.shape),
            data["rho_final"][order].reshape(grid.shape))


def _cmd_infer(config: ExperimentConfig):
    if not config.input:
        raise ConfigError("infer needs input = <final-density csv> in the config")
    grid, kernel = _build_model(config)
    rho0, rho1, rho = _read_final_csv(config.input, grid)
    tables = {}
    if config.mode in ("beta", "both"):
        region = rho0 >= 1.0 - 1e-12
        estimate = infer_beta(kernel, rho, region)
        tables["inferred_beta.csv"] = (["site_index", "beta_site"],
                                       _site_rows(estimate.per_site))
        print(f"beta_estimate = {estimate.estimate:.12g} "
              f"(spread {estimate.spread:.3e} over {estimate.n_used} sites)")
    if config.mode in ("initial", "both"):
        recovered = infer_initial_infected(kernel, config.beta, rho)
        tables["inferred_initial.csv"] = (["site_index", "rho0", "rho1"],
                                          _site_rows(recovered.u0, recovered.u1))
        print(f"recovered initial split: mean rho0 = {recovered.u0.mean():.6f}, "
              f"mean rho1 = {recovered.u1.mean():.6f}")
    return tables, {}


def _cmd_hydro_sweep(config: ExperimentConfig):
    result = run_hydro_sweep(config)
    for L, gamma, med0, _, _, med1, _, _ in result.summary:
        print(f"L = {L:>6}: median err_i0 = {med0:.5f}, err_i1 = {med1:.5f}")
    print(f"log-log slope of combined medians: {result.slope:.3f}")
    return result.tables(), {"realized.loglog_slope": FLOAT_FMT % result.slope}


def _cmd_critical_sweep(config: ExperimentConfig):
    result = run_critical_sweep(config)
    for beta, alpha, L, n_inf, median, mean, std, target in result.summary:
        print(f"beta = {beta:g}, L = {L:>6} (seeded {n_inf}): "
              f"median x_inf = {median:.4f}, mean = {mean:.4f} "
              f"+/- {std:.4f}, target = {target:.5f}")
    realized = {"realized.events": str(result.events)}
    for L, n_inf in sorted(result.realized.items()):
        realized[f"realized.L{L}.n_infected"] = str(n_inf)
        realized[f"realized.L{L}.fraction"] = FLOAT_FMT % (n_inf / L ** config.d)
    return result.tables(), realized


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


def _csv_text(header, rows) -> str:
    """A table as CSV text, floats at 17 significant digits."""
    return "".join(",".join(FLOAT_FMT % cell if isinstance(cell, (float, np.floating))
                            else str(cell) for cell in row) + "\n"
                   for row in (header, *rows))


def _manifest_text(command: str, config: ExperimentConfig, files,
                   realized: dict[str, str], wall_seconds: float) -> str:
    """Key-value run record; the ``config.*`` echo alone reproduces the run."""
    items = {"manifest_version": "1", "package_version": __version__, "command": command,
             "wall_seconds": "%.3f" % wall_seconds, "files": ", ".join(files),
             **{f"config.{key}": value for key, value in config.as_items().items()},
             **realized}
    return "".join(f"{key} = {value}\n" for key, value in items.items())


def _write_run(out: Path, texts: dict[str, str]) -> None:
    """Stage every file under a temporary name in ``out``, then rename each
    into place, the last one last; on an ``OSError`` no temporary stays."""
    staged = []
    try:
        for name in texts:
            if (out / name).is_dir():
                raise IsADirectoryError(f"{out / name} is a directory")
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            staged.append(out / f".{name}.{os.getpid()}.tmp")
            staged[-1].write_text(text)
        for temporary, name in zip(staged, texts):
            os.replace(temporary, out / name)
    except OSError as exc:
        for temporary in staged:
            temporary.unlink(missing_ok=True)
        raise IoError(f"cannot write the run into {out}: {exc}") from None


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
        started = time.perf_counter()
        config = _load_config(args)
        tables, realized = args.func(config)
        if args.command == "meanfield" and args.out is None:
            return 0  # the table went to stdout only
        texts = {name: _csv_text(*table) for name, table in tables.items()}
        texts["manifest.txt"] = _manifest_text(
            args.command, config, tables, realized, time.perf_counter() - started)
        _write_run(Path(config.out_dir), texts)
        return 0
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
