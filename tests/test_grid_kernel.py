"""Grid, kernel construction and convolution."""
from __future__ import annotations

import numpy as np
import pytest

from epilattice import (
    MeanField,
    TopHat,
    TorusGrid,
    WrappedBump,
    build_kernel,
    convolve,
    parse_kernel_spec,
)
from epilattice.errors import (
    EmptySupportError,
    GridMismatchError,
    InvalidSpecError,
    SetupError,
)
from epilattice.grid import DIRECT_COST_MAX, DiscreteKernel
from epilattice.particle import init_random, make_rng, run_sampled


def conv_bruteforce(kernel, field):
    """Independent oracle: plain nested loops over sites and support."""
    g = kernel.grid
    out = np.zeros(g.shape)
    for x in np.ndindex(g.shape):
        acc = 0.0
        for z, w in zip(kernel.offsets, kernel.weights):
            y = tuple((np.asarray(x) - z) % g.L)
            acc += w * field[y]
        out[x] = acc * g.cell_volume()
    return out


def random_specs(rng):
    yield MeanField()
    yield TopHat(float(rng.uniform(0.15, 0.5)))
    yield WrappedBump(float(rng.uniform(0.2, 0.5)))


# ---------------------------------------------------------------------------
# grid basics
# ---------------------------------------------------------------------------

def test_grid_derived_quantities():
    g = TorusGrid(2, 10)
    assert g.gamma == 0.1
    assert g.n_sites == 100
    assert g.shape == (10, 10)
    pos = g.positions()
    assert pos.shape == (100, 2)
    assert pos.min() == 0.0 and pos.max() < 1.0
    # row-major order: second site is (0, gamma)
    assert np.allclose(pos[1], [0.0, 0.1])


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TorusGrid(0, 8)
    with pytest.raises(ValueError):
        TorusGrid(1, 1)


def test_bad_grid_is_a_setup_error():
    # the command line maps setup errors to exit code 2
    for d, L in ((4, 3), (0, 8), (1, 1)):
        with pytest.raises(SetupError):
            TorusGrid(d, L)


def test_centered_offsets_cover_all_residues():
    g = TorusGrid(1, 8)
    offs = g.centered_offsets()[:, 0]
    assert sorted(offs) == list(range(-4, 4))
    g2 = TorusGrid(2, 5)
    offs2 = g2.centered_offsets()
    assert set(map(tuple, offs2)) == {(a, b) for a in range(-2, 3) for b in range(-2, 3)}


# ---------------------------------------------------------------------------
# kernel construction
# ---------------------------------------------------------------------------

def test_tophat_frozen_example():
    # L=8, radius 0.25: support is {-2,...,2}, each weight 8/5.
    k = build_kernel(TorusGrid(1, 8), TopHat(0.25))
    assert sorted(k.offsets[:, 0]) == [-2, -1, 0, 1, 2]
    assert np.allclose(k.weights, 1.6, rtol=0, atol=1e-12)
    assert k.dense[tuple(np.atleast_1d([2]) % 8)] == k.dense[tuple(np.atleast_1d([-2]) % 8)]
    assert k.dense[tuple(np.atleast_1d([3]) % 8)] == 0.0


def test_meanfield_weights_are_one():
    g = TorusGrid(1, 12)
    k = build_kernel(g, MeanField())
    assert k.support_size == g.n_sites
    assert np.all(k.weights == 1.0)
    assert k.uniform


def test_meanfield_kernel_builds_no_arrays_on_its_uniform_paths():
    g = TorusGrid(2, 20)
    k = build_kernel(g, MeanField())
    field = np.random.default_rng(3).random(g.shape)
    assert np.array_equal(convolve(k, field), np.full(g.shape, field.mean()))
    state = init_random(k, 2.0, 0.9, 0.1, make_rng(5))
    run_sampled(state, [0.0, 1.0, 2.0], np.ones((1, g.n_sites)))
    assert k.support_size == g.n_sites
    assert not {"offsets", "weights", "dense", "_fft", "_gather", "_index"} & set(vars(k))
    # built on first read, they are the full-grid arrays
    assert np.array_equal(k.offsets, g.centered_offsets())
    assert np.array_equal(k.dense, np.ones(g.shape))


# weights at offsets -1, 0, 1 on L = 4, where normalization needs a sum of 4
@pytest.mark.parametrize("weights, match", [
    ([0.5, 2.0, 1.5], "symmetric"),
    ([1.0, 1.0, 1.0], "normalization"),
    ([1.5, 1.0, 1.5], "increase with distance"),
])
def test_validate_rejects_malformed_local_kernels(weights, match):
    g = TorusGrid(1, 4)
    offsets = np.array([[-1], [0], [1]])
    with pytest.raises(InvalidSpecError, match=match):
        DiscreteKernel(g, TopHat(0.25), offsets, np.array(weights))


def test_support_below_lattice_spacing():
    with pytest.raises(EmptySupportError):
        build_kernel(TorusGrid(1, 8), TopHat(0.01))
    with pytest.raises(EmptySupportError):
        build_kernel(TorusGrid(1, 16), WrappedBump(1.0 / 16))


def test_invalid_kernel_parameters():
    g = TorusGrid(1, 8)
    for spec in (TopHat(0.0), TopHat(-0.1), TopHat(0.51),
                 WrappedBump(0.0), WrappedBump(0.7)):
        with pytest.raises(InvalidSpecError):
            build_kernel(g, spec)


def test_kernel_structural_invariants_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(6):
        d = int(rng.integers(1, 3))
        L = int(rng.integers(6, 14)) if d == 2 else int(rng.integers(8, 40))
        g = TorusGrid(d, L)
        for spec in random_specs(rng):
            try:
                k = build_kernel(g, spec)
            except EmptySupportError:
                continue
            # symmetry, exhaustively over the support
            for z, w in zip(k.offsets, k.weights):
                assert k.dense[tuple(np.atleast_1d(-z) % L)] == w
            # normalization
            assert abs(g.cell_volume() * k.dense.sum() - 1.0) <= 1e-12
            # radial monotonicity, all support pairs
            dist = g.offset_distances(k.offsets)
            order = np.argsort(dist)
            w_sorted = k.weights[order]
            assert np.all(np.diff(w_sorted) <= 1e-15)
            # equal distance implies equal weight
            d_sorted = dist[order]
            same = np.diff(d_sorted) == 0.0
            assert np.all(np.abs(np.diff(w_sorted))[same] == 0.0)


def test_kernel_spec_string_round_trip():
    for text, spec in (("meanfield", MeanField()), ("tophat:0.25", TopHat(0.25)),
                       ("bump:0.125", WrappedBump(0.125))):
        assert parse_kernel_spec(text) == spec
    for bad in ("gauss:1", "tophat", "tophat:x", "meanfield:1"):
        with pytest.raises(InvalidSpecError):
            parse_kernel_spec(bad)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_convolve_matches_bruteforce():
    rng = np.random.default_rng(7)
    cases = [
        (TorusGrid(1, 11), TopHat(0.3)),
        (TorusGrid(1, 9), MeanField()),
        (TorusGrid(1, 16), WrappedBump(0.4)),
        (TorusGrid(2, 7), TopHat(0.35)),
        (TorusGrid(2, 8), MeanField()),
        (TorusGrid(3, 6), TopHat(0.2)),
        (TorusGrid(3, 8), TopHat(0.3)),
    ]
    for g, spec in cases:
        k = build_kernel(g, spec)
        f = rng.random(g.shape)
        expected = conv_bruteforce(k, f)
        for method in ("auto", "direct", "fft"):
            assert np.abs(convolve(k, f, method) - expected).max() < 1e-12


def test_convolve_constant_field():
    g = TorusGrid(1, 32)
    for spec in (TopHat(0.2), WrappedBump(0.3), MeanField()):
        k = build_kernel(g, spec)
        out = convolve(k, np.full(g.shape, 0.7))
        assert np.abs(out - 0.7).max() <= 1e-12


def test_convolve_meanfield_is_spatial_average():
    g = TorusGrid(2, 9)
    k = build_kernel(g, MeanField())
    f = np.random.default_rng(5).random(g.shape)
    assert np.array_equal(convolve(k, f), np.full(g.shape, f.mean()))


def test_convolve_point_mass():
    g = TorusGrid(1, 16)
    k = build_kernel(g, TopHat(0.25))
    e0 = np.zeros(g.shape)
    e0[0] = 1.0
    assert np.abs(convolve(k, e0) - g.gamma * k.dense).max() <= 1e-14


def test_convolve_translation_equivariance():
    rng = np.random.default_rng(13)
    for g, spec in [(TorusGrid(1, 24), TopHat(0.2)),
                    (TorusGrid(2, 9), WrappedBump(0.3))]:
        k = build_kernel(g, spec)
        f = rng.random(g.shape)
        shift = tuple(int(s) for s in rng.integers(1, g.L, g.d))
        axes = tuple(range(g.d))
        a = convolve(k, np.roll(f, shift, axes))
        b = np.roll(convolve(k, f), shift, axes)
        assert np.abs(a - b).max() <= 1e-12


def test_convolve_preserves_bounds():
    rng = np.random.default_rng(99)
    g = TorusGrid(1, 50)
    for spec in (TopHat(0.1), WrappedBump(0.25), MeanField()):
        k = build_kernel(g, spec)
        f = rng.random(g.shape)
        out = convolve(k, f)
        assert out.min() >= f.min() - 1e-12
        assert out.max() <= f.max() + 1e-12


def test_direct_and_fft_paths_agree():
    rng = np.random.default_rng(17)
    # forced direct always gathers, also beyond DIRECT_COST_MAX
    # (the bump and the d = 2 and d = 3 top-hats)
    for g, spec in [(TorusGrid(1, 200), TopHat(0.05)),
                    (TorusGrid(1, 300), WrappedBump(0.45)),
                    (TorusGrid(2, 24), TopHat(0.3)),
                    (TorusGrid(3, 16), TopHat(0.15))]:
        k = build_kernel(g, spec)
        f = rng.random(g.shape)
        a = convolve(k, f, "direct")
        b = convolve(k, f, "fft")
        assert np.abs(a - b).max() <= 1e-10


@pytest.mark.parametrize("g", [TorusGrid(1, 7), TorusGrid(1, 128),
                               TorusGrid(2, 15), TorusGrid(2, 16),
                               TorusGrid(3, 9), TorusGrid(3, 10)])
@pytest.mark.parametrize("transposed", [False, True])
def test_fft_path_is_the_rfftn_round_trip(g, transposed):
    k = build_kernel(g, WrappedBump(0.35))
    f = np.random.default_rng(g.L).random(g.shape)
    if transposed:
        f = f.T  # non-contiguous for d >= 2
    f_before, spectrum_before = f.copy(), k._fft.copy()
    out = convolve(k, f, "fft")
    axes = tuple(range(g.d))
    reference = np.fft.irfftn(np.fft.rfftn(f, axes=axes) * k._fft, s=g.shape, axes=axes)
    assert np.array_equal(out, reference)
    assert np.array_equal(f, f_before)
    assert np.array_equal(k._fft, spectrum_before)
    # the final-density solver updates the result in place
    assert out.dtype == np.float64 and out.flags.writeable
    assert not np.shares_memory(out, f)
    assert not np.shares_memory(out, k._fft)


@pytest.mark.parametrize("g, spec, direct", [
    (TorusGrid(1, 40), TopHat(0.1), True),          # 9 offsets x 40 sites
    (TorusGrid(2, 14), TopHat(0.3), True),          # 57 x 196, a criterion-1 grid
    (TorusGrid(1, 400), TopHat(0.05), True),        # 41 x 400 = 16,400
    (TorusGrid(1, 500), TopHat(0.04), False),       # 41 x 500 = 20,500
    (TorusGrid(2, 12), WrappedBump(0.45), True),    # 97 x 144, support > 64
    (TorusGrid(2, 100), TopHat(0.0425), False),     # 61 x 10^4
])
def test_auto_path_follows_cost_rule(g, spec, direct):
    k = build_kernel(g, spec)
    cost = k.support_size * g.n_sites
    # the support size alone never picks the spectral path
    assert direct == (cost <= DIRECT_COST_MAX)
    f = np.random.default_rng(23).random(g.shape)
    auto = convolve(k, f)
    # the gather table exists only once the direct path has run
    assert ("_gather" in vars(k)) == direct
    forced = {method: convolve(k, f, method) for method in ("direct", "fft")}
    assert np.array_equal(auto, forced["direct" if direct else "fft"])
    for out in forced.values():
        assert np.abs(out - auto).max() <= 1e-12


def _rolled_gather(kernel):
    """Reference gather table: the site grid rolled once per offset."""
    base = np.arange(kernel.grid.n_sites).reshape(kernel.grid.shape)
    axes = tuple(range(kernel.grid.d))
    return np.array([np.roll(base, shift=tuple(z), axis=axes).ravel()
                     for z in kernel.offsets])


@pytest.mark.parametrize("g", [TorusGrid(1, 40), TorusGrid(1, 41), TorusGrid(2, 14),
                               TorusGrid(2, 15), TorusGrid(3, 8), TorusGrid(3, 9)],
                         ids=lambda g: f"d{g.d}-L{g.L}")
@pytest.mark.parametrize("spec", ["spacing", TopHat(0.3), WrappedBump(0.25), TopHat(0.5),
                                  MeanField()], ids=str)
def test_haloed_index_finds_every_neighbour(g, spec):
    # "spacing": the top-hat whose reach is one lattice spacing
    k = build_kernel(g, TopHat(g.gamma) if spec == "spacing" else spec)
    pad, site_at, step = k._index
    for table in k._index:
        assert isinstance(table, np.ndarray) and table.dtype == np.intp
    coords = np.indices(g.shape).reshape(g.d, -1)
    targets = np.ravel_multi_index(coords[:, None, :] + k.offsets.T[:, :, None],
                                   g.shape, mode="wrap")
    assert np.array_equal(site_at[step[:, None] + pad], targets)
    # the mean-field kernel gathers only when the direct path is forced
    gather = k._gather
    assert gather.dtype == np.intp
    assert np.array_equal(gather, _rolled_gather(k))


def test_cached_spectrum_is_the_operator_spectrum():
    # the final-density solver reads K's smallest eigenvalue off _fft
    g = TorusGrid(2, 12)
    k = build_kernel(g, WrappedBump(0.3))
    sites = np.indices(g.shape).reshape(g.d, -1).T
    residues = (sites[:, None, :] - sites[None, :, :]) % g.L
    circulant = g.cell_volume() * k.dense[residues[..., 0], residues[..., 1]]
    spectrum = k._fft
    assert np.abs(spectrum.imag).max() <= 1e-15
    assert abs(spectrum.real.min() - np.linalg.eigvalsh(circulant).min()) <= 1e-14
    assert spectrum.real.min() < 0.0


def test_convolve_grid_mismatch():
    k = build_kernel(TorusGrid(1, 8), TopHat(0.25))
    with pytest.raises(GridMismatchError):
        convolve(k, np.zeros(9))
