"""In-memory span recorder wrapped around the package's public functions.

Spans are recorded only while :meth:`Tracer.installed` is active; outside
it every wrapped name is restored to the original object, so an untraced
pass calls nothing wrapped. Each name is wrapped where the calling module
binds it (``from .grid import convolve`` makes ``pde.convolve`` a separate
binding from ``grid.convolve``), which is why the table below lists the
same function under several modules.
"""
from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

from epilattice import config, experiments, final_density, grid, particle, pde

# (owner object, attribute, span name); the span name's prefix is the layer.
TARGETS = [
    (config, "parse_kv_text", "config.parse_kv_text"),
    (config.ExperimentConfig, "from_items", "config.from_items"),
    (config, "parse_profile_pair", "config.parse_profile_pair"),
    (grid, "build_kernel", "grid.build_kernel"),
    (experiments, "build_kernel", "grid.build_kernel"),
    (grid, "convolve", "grid.convolve"),
    (particle, "convolve", "grid.convolve"),
    (pde, "convolve", "grid.convolve"),
    (final_density, "convolve", "grid.convolve"),
    (particle, "init_random", "particle.init_random"),
    (experiments, "init_exact_counts", "particle.init_exact_counts"),
    (particle, "run_sampled", "particle.run_sampled"),
    (experiments, "run_to_absorption", "particle.run_to_absorption"),
    (particle.EpidemicState, "audit_rates", "particle.audit_rates"),
    (pde, "integrate_pde", "pde.integrate_pde"),
    (pde, "exp_identity_residual", "pde.exp_identity_residual"),
    (final_density, "solve_final_density", "final_density.solve_final_density"),
    (final_density, "infer_beta", "final_density.infer_beta"),
    (final_density, "infer_initial_infected", "final_density.infer_initial_infected"),
    (experiments, "hat_x_infinity", "meanfield.hat_x_infinity"),
    (experiments, "run_critical_sweep", "experiments.run_critical_sweep"),
    (experiments, "build_test_functions", "experiments.build_test_functions"),
]

LAYERS = ("config", "grid", "particle", "pde", "final_density", "meanfield",
          "experiments")


def convolve_bytes(kernel, *_args, **_kwargs) -> int:
    """Bytes one ``grid.convolve`` call touches, computed from array sizes.

    Input and output fields are 8 bytes per site. The direct path adds the
    int32 gather matrix and the float64 gathered operand (support x sites
    each); the spectral path adds the field spectrum, the cached kernel
    spectrum and their product (16 bytes per complex coefficient); the
    mean-field shortcut adds nothing. Cache reuse is ignored, so this is a
    computed figure, not a measured bandwidth.
    """
    n = kernel.grid.n_sites
    base = 16 * n
    if kernel.uniform:
        return base
    if kernel.support_size <= grid.DIRECT_SUPPORT_MAX:
        return base + 12 * kernel.support_size * n
    coeffs = n // kernel.grid.L * (kernel.grid.L // 2 + 1)
    return base + 3 * 16 * coeffs


class Tracer:
    """Spans as ``[name, start, end, parent_index, op]`` lists in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.bytes_computed = 0

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name: str, fn):
        counts_bytes = name == "grid.convolve"

        def traced(*args, **kwargs):
            if counts_bytes:
                self.bytes_computed += convolve_bytes(*args, **kwargs)
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(name, original.__func__))
                else:
                    wrapped = self.wrap(name, original)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- derived figures ------------------------------------------------------

    def total(self, *names: str) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans
                   if name in names)

    def count(self, name: str, parent: str | None = None) -> int:
        return sum(1 for span in self.spans if span[0] == name and (
            parent is None or (span[3] >= 0 and self.spans[span[3]][0] == parent)))

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover.

        Spans opened by the benchmark itself (names outside ``LAYERS``) are
        reported under ``bench``.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict.fromkeys(LAYERS + ("bench",), 0.0)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            layer = name.split(".", 1)[0]
            out[layer if layer in out else "bench"] += end - start - covered
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "parent": parent, "op": op,
                    "start_s": start - origin, "end_s": end - origin}) + "\n")
