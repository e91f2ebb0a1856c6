"""Discrete torus geometry and interaction kernels.

The spatial arena is the lattice torus with ``L`` sites per side in ``d``
dimensions, embedded in the unit torus by the scaling ``gamma = 1/L``: lattice
site ``x`` sits at macroscopic position ``gamma * x`` in ``[0, 1)^d``.

An interaction kernel assigns a weight ``w[z]`` to every lattice displacement
``z`` (minimal image), subject to three structural requirements checked at
construction:

* symmetry, ``w[z] == w[-z]``;
* normalization, ``gamma^d * sum(w) == 1`` (Riemann sum of a unit-mass
  kernel);
* radial monotonicity, ``|z| <= |z'|`` implies ``w[z] >= w[z']``.

Convolution against a field ``f`` on the grid is the Riemann sum

    (K * f)(x) = gamma^d * sum_z w[z] * f(x - z),

which is what both the density PDE and the rate computations of the particle
system consume.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import EmptySupportError, GridMismatchError, InvalidGridError, InvalidSpecError

#: ``convolve`` sums directly only when ``support_size * n_sites <=
#: DIRECT_COST_MAX``: the measured crossover with the spectral path
#: (ROADMAP.md), which also caps the gather table at 160 KB.
DIRECT_COST_MAX = 20_000
#: Selects no path; ``perfbench/tracing.py`` reads it to attribute bytes.
DIRECT_SUPPORT_MAX = 64

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class TorusGrid:
    """Lattice torus with ``L`` sites per side in ``d`` dimensions."""

    d: int
    L: int

    def __post_init__(self) -> None:
        if not (1 <= self.d <= 3):
            raise InvalidGridError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.L < 2:
            raise InvalidGridError(f"need at least 2 sites per side, got L={self.L}")

    @property
    def gamma(self) -> float:
        """Lattice spacing 1/L."""
        return 1.0 / self.L

    @property
    def n_sites(self) -> int:
        return self.L**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.L,) * self.d

    def cell_volume(self) -> float:
        """Riemann cell volume gamma^d."""
        return self.gamma**self.d

    def positions(self) -> np.ndarray:
        """Macroscopic site positions, shape (n_sites, d), row-major order."""
        axes = np.indices(self.shape).reshape(self.d, -1).T
        return axes * self.gamma

    def centered_offsets(self) -> np.ndarray:
        """All minimal-image displacements, shape (n_sites, d).

        Each coordinate runs over the centered residues
        ``[-L//2, ..., L - L//2 - 1]`` so every residue class appears exactly
        once and carries its shortest representative.
        """
        axes = np.indices(self.shape).reshape(self.d, -1).T
        return (axes + self.L // 2) % self.L - self.L // 2

    def offset_distances(self, offsets: np.ndarray) -> np.ndarray:
        """Macroscopic Euclidean length of minimal-image displacements."""
        return self.gamma * np.sqrt((offsets.astype(float) ** 2).sum(axis=1))


# ---------------------------------------------------------------------------
# kernel specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanField:
    """Spatially blind kernel: every site interacts equally with every site."""


@dataclass(frozen=True)
class TopHat:
    """Uniform weight on the closed ball of the given macroscopic radius."""

    radius: float


@dataclass(frozen=True)
class WrappedBump:
    """Smooth compactly supported bump, ``exp(-1 / (1 - (r/width)^2))``."""

    width: float


KernelSpec = Union[MeanField, TopHat, WrappedBump]


def parse_kernel_spec(text: str) -> KernelSpec:
    """Parse ``meanfield``, ``tophat:<radius>`` or ``bump:<width>``."""
    head, _, arg = text.strip().partition(":")
    head = head.lower()
    if head == "meanfield":
        if arg:
            raise InvalidSpecError("meanfield takes no parameter")
        return MeanField()
    if head in ("tophat", "bump"):
        try:
            value = float(arg)
        except ValueError:
            raise InvalidSpecError(f"bad kernel parameter in {text!r}") from None
        return TopHat(value) if head == "tophat" else WrappedBump(value)
    raise InvalidSpecError(f"unknown kernel {text!r}")


# ---------------------------------------------------------------------------
# discretized kernels
# ---------------------------------------------------------------------------

class DiscreteKernel:
    """A kernel sampled and renormalized on a specific grid.

    Attributes:
        grid: the grid the kernel was built for.
        spec: the originating :data:`KernelSpec`.
        offsets: minimal-image displacements with nonzero weight, (S, d) int.
        weights: weight per offset, (S,) float, renormalized so that
            ``gamma^d * weights.sum() == 1`` to within 1e-12.
        dense: full-grid weight array indexed by displacement residue.
        uniform: True for the mean-field kernel (all weights equal 1, which
            makes several downstream identities exact). Its uniform paths
            read none of the arrays above, so it builds them on first read.
    """

    def __init__(self, grid: TorusGrid, spec: KernelSpec,
                 offsets: np.ndarray | None = None, weights: np.ndarray | None = None):
        self.grid = grid
        self.spec = spec
        self.uniform = isinstance(spec, MeanField)
        if not self.uniform:
            self.offsets = offsets
            self.weights = weights
            self.validate()

    @cached_property
    def offsets(self) -> np.ndarray:
        return self.grid.centered_offsets()

    @cached_property
    def weights(self) -> np.ndarray:
        return np.ones(self.grid.n_sites)

    @cached_property
    def dense(self) -> np.ndarray:
        dense = np.zeros(self.grid.shape)
        dense[tuple((self.offsets % self.grid.L).T)] = self.weights
        return dense

    @property
    def support_size(self) -> int:
        return self.grid.n_sites if self.uniform else len(self.weights)

    # -- structural checks --------------------------------------------------

    def validate(self) -> None:
        """Check symmetry, normalization and radial monotonicity."""
        mirrored = self.dense[tuple(
            np.ix_(*[(-np.arange(self.grid.L)) % self.grid.L] * self.grid.d))]
        if not np.array_equal(self.dense, mirrored):
            raise InvalidSpecError("kernel weights are not symmetric under z -> -z")
        total = self.grid.cell_volume() * self.dense.sum()
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise InvalidSpecError(
                f"kernel normalization off by {total - 1.0:.3e}")
        dist = self.grid.offset_distances(self.offsets)
        order = np.argsort(dist, kind="stable")
        w = self.weights[order]
        if np.any(np.diff(w) > 1e-15):
            raise InvalidSpecError("kernel weights increase with distance")

    # -- cached machinery for convolve and the particle thinning sampler ----

    @cached_property
    def _fft(self) -> np.ndarray:
        """gamma^d * DFT(dense), the eigenvalues of ``convolve``'s operator."""
        return self.grid.cell_volume() * np.fft.rfftn(self.dense)

    @cached_property
    def _gather(self) -> np.ndarray:
        """(S, n_sites) intp matrix (no per-call index conversion); row s
        holds flat indices of x - z_s."""
        base = np.arange(self.grid.n_sites).reshape(self.grid.shape)
        rows = [np.roll(base, shift=tuple(z), axis=tuple(range(self.grid.d))).ravel()
                for z in self.offsets]
        return np.array(rows, dtype=np.intp)

    @cached_property
    def _thinning(self) -> tuple[list, list]:
        """Cumulative weights, and per offset the (stride, step) pairs it
        adds along each axis of the flat site index."""
        strides = [self.grid.L**k for k in range(self.grid.d - 1, -1, -1)]
        return (np.cumsum(self.weights).tolist(),
                [tuple(zip(strides, z)) for z in self.offsets.tolist()])


def build_kernel(grid: TorusGrid, spec: KernelSpec) -> DiscreteKernel:
    """Sample a kernel spec on a grid and renormalize exactly.

    Raises:
        InvalidSpecError: non-positive radius/width, or beyond the half-torus
            limit 1/2.
        EmptySupportError: the discretized support contains no displacement
            besides the origin (radius/width below one lattice spacing).
    """
    if isinstance(spec, MeanField):
        # Uniform weight 1 satisfies gamma^d * L^d * 1 == 1 identically; the
        # kernel keeps its weights at exactly 1.0 rather than renormalizing.
        return DiscreteKernel(grid, spec)

    if isinstance(spec, TopHat):
        reach, label = spec.radius, "radius"
    elif isinstance(spec, WrappedBump):
        reach, label = spec.width, "width"
    else:
        raise InvalidSpecError(f"unknown kernel spec {spec!r}")
    if not reach > 0.0:
        raise InvalidSpecError(f"kernel {label} must be positive, got {reach}")
    if reach > 0.5:
        raise InvalidSpecError(
            f"kernel {label} {reach} exceeds the half-torus limit 0.5")

    all_offsets = grid.centered_offsets()
    dist = grid.offset_distances(all_offsets)
    if isinstance(spec, TopHat):
        raw = (dist <= spec.radius).astype(float)
    else:
        raw = np.zeros(grid.n_sites)
        inside = dist < spec.width
        s = dist[inside] / spec.width
        # picking the smooth profile up through floats: guard the rim, where
        # 1 - s^2 can round to zero even though dist < width held.
        t = np.maximum(1.0 - s**2, 1e-300)
        raw[inside] = np.exp(-1.0 / t)

    keep = raw > 0.0
    if keep.sum() <= 1:
        raise EmptySupportError(
            f"kernel {label} {reach} is below one lattice spacing "
            f"(gamma = {grid.gamma:.6g}); support reduces to the origin")
    offsets = all_offsets[keep]
    weights = raw[keep] / (grid.cell_volume() * raw[keep].sum())
    return DiscreteKernel(grid, spec, offsets, weights)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def convolve(kernel: DiscreteKernel, field: np.ndarray,
             method: str = "auto") -> np.ndarray:
    """Riemann-sum convolution ``gamma^d * sum_z w[z] * f(x - z)``.

    Args:
        kernel: a built kernel.
        field: array of shape ``kernel.grid.shape``.
        method: ``auto`` takes an exact shortcut for the mean-field kernel
            (the spatial average), direct summation when ``support_size *
            n_sites <= DIRECT_COST_MAX``, and the spectral path otherwise;
            ``direct`` (over a support x sites gather table) and ``fft``
            force a path. The spectral path runs ``irfftn(rfftn(field) *
            kernel._fft)``'s transforms in place in one complex work array,
            in ``rfftn``'s axis order (another order rounds differently in
            d = 3), so its result is theirs bit for bit.

    Returns:
        A new array of the same shape as ``field``.
    """
    grid = kernel.grid
    field = np.asarray(field, dtype=float)
    if field.shape != grid.shape:
        raise GridMismatchError(
            f"field shape {field.shape} does not match grid {grid.shape}")

    if method == "auto":
        if kernel.uniform:
            # gamma^d * sum(f) is exactly the mean since gamma^d = 1/n_sites;
            # sum / size is ``field.mean()`` bit for bit, minus its overhead.
            return np.full(grid.shape, np.add.reduce(field, axis=None) / field.size)
        cheap = kernel.support_size * grid.n_sites <= DIRECT_COST_MAX
        method = "direct" if cheap else "fft"

    if method == "direct":
        gathered = field.ravel()[kernel._gather]
        out = (kernel.weights @ gathered) * grid.cell_volume()
        return out.reshape(grid.shape)

    if method == "fft":
        spectral = np.fft.rfft(field)
        for axis in range(grid.d - 2, -1, -1):
            np.fft.fft(spectral, axis=axis, out=spectral)
        spectral *= kernel._fft
        for axis in range(grid.d - 1):
            np.fft.ifft(spectral, axis=axis, out=spectral)
        return np.fft.irfft(spectral, n=grid.L)

    raise ValueError(f"unknown convolve method {method!r}")
