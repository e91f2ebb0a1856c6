"""The three benchmark workloads: set-up, the closed op loop, and checks.

Every workload is a single client in a closed loop: the next op starts
when the previous one has returned and been checked. After each op the
host-speed probe (``speed.SpeedProbe``) runs once, outside the op's
latency; its times let ``run.py`` report times at a reference host speed.
Inputs come from the seed alone. The amount of work is fixed by
``--seconds`` through a nominal op rate per workload (sized so that a run
lasts about that long on a 2-core x86-64 container at the commit that
introduced the benchmark), never by a clock, so that a faster program
finishes the same work sooner and exact counts repeat.

An op's latency covers the calls into the package that produce its result;
the benchmark's own checks run after the op's clock stops but inside
``wall_s``. An op that raises or fails its check counts as failed.
"""
from __future__ import annotations

import contextlib
import dataclasses
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from epilattice import config, experiments, final_density, grid, particle, pde

#: No run has fewer op blocks; with blocks of at least 10 ops, at least 10
#: latencies lie beyond the p90.
MIN_BLOCKS = 10


@dataclass
class Outcome:
    """What one pass over a workload produced.

    Per op: its start time (``time.perf_counter``), latency, the events
    it committed (particle events, or fixed-point iterations on
    ``inverse-batch``) and the time of the speed probe that followed it;
    ops form consecutive blocks of ``block`` ops of the same make-up. ``counts`` holds exact counts that must repeat for a
    given seed, ``probes`` the correctness probes reported per layer.
    """

    block: int
    starts: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    op_events: list[int] = field(default_factory=list)
    probe_s: list[tuple[float, float]] = field(default_factory=list)
    finished: float = 0.0
    failed: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    probes: dict[str, float] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)

    @property
    def events(self) -> int:
        return sum(self.op_events)


def _span(tracer, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _run_op(outcome: Outcome, tracer, probe, index: int, op):
    """Time ``op()`` and then run ``probe()``; return None if ``op`` raised.

    An op that raised counts as failed. The op's event count starts at 0;
    the caller sets it once checked.
    """
    if tracer is not None:
        tracer.op = index
    with _span(tracer, "bench.op"):
        start = time.perf_counter()
        try:
            result = op()
        except Exception:  # an op failure is a benchmark result, not a crash
            traceback.print_exc(file=sys.stderr)
            result = None
        outcome.latencies.append(time.perf_counter() - start)
    outcome.starts.append(start)
    outcome.op_events.append(0)
    outcome.probe_s.append(probe())
    if result is None:
        outcome.failed += 1
    return result


def _parse_config(text: str) -> config.ExperimentConfig:
    return config.ExperimentConfig.from_items(config.parse_kv_text(text))


def _op_count(seconds: int, ops_per_s: float, block: int) -> int:
    return block * max(MIN_BLOCKS, round(seconds * ops_per_s / block))


# ---------------------------------------------------------------------------
# meanfield-critical
# ---------------------------------------------------------------------------

class MeanfieldCritical:
    """``experiments.run_critical_sweep`` on the mean-field kernel in d = 2.

    One op is one sweep call with a single (beta, L) point and one replica,
    so that each replica is timed from outside without wrapping anything.
    The cells straddle beta = 1 at two lattice sizes; every block of 10 ops
    holds them in the proportions 3:3:2:2 in shuffled order, which keeps the
    p50 inside the middle latency cluster and the p90 inside the slowest
    cell. alpha = 0.45 keeps the seeded fraction gamma^alpha near 0.1, close
    enough to vanishing for the supercritical median to sit within criterion
    6's window of hat_x_infinity(beta) at d = 2 lattice sizes.
    """

    name = "meanfield-critical"
    config_text = "d = 2\nkernel = meanfield\nalpha = 0.45\nreplicas = 1\n"
    cells = ((0.8, 100, 3), (0.8, 160, 3), (2.0, 100, 2), (2.0, 160, 2))
    block = sum(n for _, _, n in cells)
    ops_per_s = 9.5
    #: weight of the spectral unit in the speed probe (see speed.py)
    probe_weight = 0.5
    #: criterion 6: supercritical median within this distance of hat_x.
    target_window = 0.05

    def setup(self, seed: int, seconds: int):
        base = _parse_config(self.config_text)
        cells = [(beta, L) for beta, L, n in self.cells for _ in range(n)]
        rng = np.random.default_rng(seed)
        plan = []
        for _ in range(_op_count(seconds, self.ops_per_s, self.block) // self.block):
            for k in rng.permutation(self.block):
                beta, L = cells[k]
                plan.append(dataclasses.replace(
                    base, betas=(beta,), L_values=(L,),
                    seed=int(rng.integers(0, 2**63))))
        return plan

    def execute(self, plan, tracer, probe) -> Outcome:
        out = Outcome(self.block)
        finals: dict[tuple, list] = {}
        for index, cfg in enumerate(plan):
            result = _run_op(out, tracer, probe, index,
                             lambda: experiments.run_critical_sweep(cfg))
            if result is None:
                continue
            beta, alpha, L, _, _, x_inf, target = result.rows[0]
            n = L ** cfg.d
            n_inf = result.realized[L]
            n_sus = round(x_inf * n)
            if not (abs(x_inf * n - n_sus) < 1e-6 and 0 <= n_sus <= n - n_inf
                    and (target == 1.0) == (beta <= 1.0) and 0.0 < target <= 1.0):
                out.failed += 1
                continue
            # Started with no removed site and run to absorption, every site
            # ever infected recovered once: events = n_inf + 2 * new infections.
            out.op_events[-1] = n_inf + 2 * (n - n_inf - n_sus)
            finals.setdefault((beta, L), []).append((x_inf, target, alpha))
        out.finished = time.perf_counter()

        # Cell-level checks of criterion 6; a failing cell fails all its ops.
        largest = max(L for _, L, _ in self.cells)
        for (beta, L), rows in finals.items():
            x = np.array([r[0] for r in rows])
            target, alpha = rows[0][1], rows[0][2]
            if beta < 1.0:
                ok = 1.0 - x.mean() <= 2.0 * (1.0 / L) ** alpha / (1.0 - beta)
            elif L == largest:
                ok = abs(float(np.median(x)) - target) <= self.target_window
            else:
                ok = True
            if not ok:
                print(f"check failed: cell beta={beta} L={L}", file=sys.stderr)
                out.failed += len(rows)
        out.counts["particle.events"] = out.events
        # the mean-field kernel's support is every site
        out.sizes = {"ops": len(plan), "sites_max": largest ** 2,
                     "sites_min": min(L for _, L, _ in self.cells) ** 2,
                     "offsets_max": largest ** 2, "events": out.events}
        return out


# ---------------------------------------------------------------------------
# local-hydro
# ---------------------------------------------------------------------------

class LocalHydro:
    """Particle replicas against one PDE reference, top-hat kernel, d = 2.

    This is the computation of ``experiments.run_hydro_sweep``, driven
    through the ``particle`` and ``pde`` layers directly: the sweep passes
    flattened profiles to ``init_random``, which rejects them for d >= 2
    (see NOTES.md). The radius gives 61 offsets, under
    ``grid.DIRECT_SUPPORT_MAX``, so ``convolve`` takes its direct path, and
    10^4 sites make the per-event prefix sum of the rate cache dominate.
    """

    name = "local-hydro"
    config_text = (
        "d = 2\nL = 100\nkernel = tophat:0.0425\nbeta = 2.0\nrho0 = 0.9\n"
        "rho1 = bump:0.1,0.3,{cx:.6f},{cy:.6f}\nt_end = 2.0\nsamples = 9\n"
        "dt = 0.02\ntest_functions = one,cos:1,sin:1,cos:2\nseed = {seed}\n")
    block = 20
    ops_per_s = 17.0
    probe_weight = 0.0
    #: Sup pairing error allowed per replica: ten times 0.5 / sqrt(n_sites),
    #: the largest standard deviation of one empirical pairing.
    err_bound_scale = 10 * 0.5
    #: Bound on the conserved-identity defect of the PDE reference.
    identity_bound = 1e-6

    def setup(self, seed: int, seconds: int):
        cx, cy = np.random.default_rng(seed).random(2)
        cfg = _parse_config(self.config_text.format(cx=cx, cy=cy, seed=seed))
        g = grid.TorusGrid(cfg.d, cfg.L)
        kernel = grid.build_kernel(g, grid.parse_kernel_spec(cfg.kernel))
        rho0, rho1 = config.parse_profile_pair(g, cfg.rho0, cfg.rho1)
        test_funcs = experiments.build_test_functions(g, cfg.test_functions)
        grid.convolve(kernel, rho1)  # builds the kernel's lazy gather table
        times = np.linspace(0.0, cfg.t_end, cfg.samples)
        return (cfg, kernel, rho0, rho1, test_funcs, times,
                _op_count(seconds, self.ops_per_s, self.block))

    def execute(self, ctx, tracer, probe) -> Outcome:
        cfg, kernel, rho0, rho1, test_funcs, times, n_ops = ctx
        g = kernel.grid
        out = Outcome(self.block)
        with _span(tracer, "bench.reference"):
            init = pde.DensityField(g, rho0, rho1)
            run = pde.integrate_pde(kernel, cfg.beta, init, times, dt=cfg.dt)
            residual = float(np.abs(pde.exp_identity_residual(
                kernel, cfg.beta, init, run.u0[-1], run.u1[-1])).max())
            vol = g.cell_volume()
            reference = vol * np.stack([
                np.stack([run.u0[k].ravel() @ test_funcs.T,
                          run.u1[k].ravel() @ test_funcs.T])
                for k in range(len(times))])
        reference_ok = residual <= self.identity_bound
        bound = self.err_bound_scale / math.sqrt(g.n_sites)
        drift_max = err_max = 0.0

        def replica(index):
            state = particle.init_random(kernel, cfg.beta, rho0, rho1,
                                         experiments.derive_seed(cfg.seed, index))
            samples = particle.run_sampled(state, times, test_funcs)
            return state, samples, state.audit_rates()

        for index in range(n_ops):
            result = _run_op(out, tracer, probe, index, lambda: replica(index))
            if result is None:
                continue
            state, samples, drift = result
            out.op_events[-1] = state.events
            err = float(np.abs(np.stack([s.averages for s in samples])
                               - reference).max())
            drift_max, err_max = max(drift_max, drift), max(err_max, err)
            if not (reference_ok and err <= bound
                    and drift <= particle.DRIFT_REBUILD_TOL):
                out.failed += 1
        out.finished = time.perf_counter()
        out.counts["particle.events"] = out.events
        out.probes = {"particle.cache_drift_max": drift_max,
                      "pde.identity_residual_max": residual,
                      "hydro.err_max": err_max, "hydro.err_bound": bound}
        out.sizes = {"ops": n_ops, "sites": g.n_sites,
                     "offsets": kernel.support_size, "events": out.events}
        return out


# ---------------------------------------------------------------------------
# inverse-batch
# ---------------------------------------------------------------------------

class InverseBatch:
    """Forward solve then both inverse maps, bump kernel, d = 2.

    The bump's 185 offsets exceed ``grid.DIRECT_SUPPORT_MAX``, so
    ``convolve`` takes its spectral path. Each request draws beta, the
    off-plateau susceptible level and a disk-shaped rho0 = 1 plateau; the
    fixed-point iteration count varies with them, which spreads latencies.
    Checks follow criterion 7.
    """

    name = "inverse-batch"
    config_text = "d = 2\nL = 128\nkernel = bump:0.06\ntol = 1e-14\n"
    block = 20
    ops_per_s = 30.0
    probe_weight = 0.5
    beta_tol = 1e-6
    rho0_tol = 1e-8

    def setup(self, seed: int, seconds: int):
        cfg = _parse_config(self.config_text)
        g = grid.TorusGrid(cfg.d, cfg.L)
        kernel = grid.build_kernel(g, grid.parse_kernel_spec(cfg.kernel))
        grid.convolve(kernel, np.ones(g.shape))  # caches the kernel spectrum
        n_ops = _op_count(seconds, self.ops_per_s, self.block)
        # Latin hypercube: every parameter is stratified over its range, so
        # seeds differ in which requests meet, not in how hard the batch is.
        rng = np.random.default_rng(seed)
        low = np.array([0.8, 0.2, 0.0, 0.0, 0.15])   # beta, rho0 off the
        high = np.array([2.5, 0.8, 1.0, 1.0, 0.3])   # plateau, center, radius
        strata = np.stack([rng.permutation(n_ops) for _ in low], axis=1)
        requests = low + (high - low) * (strata + rng.random(strata.shape)) / n_ops
        return cfg, kernel, g.positions(), requests

    def execute(self, ctx, tracer, probe) -> Outcome:
        cfg, kernel, positions, requests = ctx
        g = kernel.grid
        out = Outcome(self.block)
        residual_max = 0.0
        for index, (beta, level, cx, cy, radius) in enumerate(requests):
            delta = np.abs(positions - (cx, cy))
            delta = np.minimum(delta, 1.0 - delta)
            plateau = (np.hypot(delta[:, 0], delta[:, 1]) < radius).reshape(g.shape)
            rho0 = np.where(plateau, 1.0, level)

            def request():
                init = pde.DensityField(g, rho0, 1.0 - rho0)
                solved = final_density.solve_final_density(kernel, beta, init,
                                                           tol=cfg.tol)
                estimate = final_density.infer_beta(kernel, solved.rho, plateau)
                recovered = final_density.infer_initial_infected(kernel, beta,
                                                                 solved.rho)
                return solved, estimate, recovered

            result = _run_op(out, tracer, probe, index, request)
            if result is None:
                continue
            solved, estimate, recovered = result
            out.op_events[-1] = solved.iterations
            residual_max = max(residual_max, solved.residual)
            if not (abs(estimate.estimate - beta) <= self.beta_tol
                    and float(np.abs(recovered.u0 - rho0).max()) <= self.rho0_tol
                    and solved.residual < cfg.tol):
                out.failed += 1
        out.finished = time.perf_counter()
        out.counts["final_density.iterations"] = out.events
        out.probes = {"final_density.residual_max": residual_max}
        out.sizes = {"ops": len(requests), "sites": g.n_sites,
                     "offsets": kernel.support_size, "iterations": out.events}
        return out


WORKLOADS = {w.name: w for w in (MeanfieldCritical(), LocalHydro(), InverseBatch())}
