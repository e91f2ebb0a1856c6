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
    format_kernel_spec,
    parse_kernel_spec,
)
from epilattice.errors import (
    EmptySupportError,
    GridMismatchError,
    InvalidSpecError,
)
from epilattice.grid import DIRECT_COST_MAX


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
    assert k.weight_at([2]) == k.weight_at([-2])
    assert k.weight_at([3]) == 0.0


def test_meanfield_weights_are_one():
    g = TorusGrid(1, 12)
    k = build_kernel(g, MeanField())
    assert k.support_size == g.n_sites
    assert np.all(k.weights == 1.0)
    assert k.uniform


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
                assert k.weight_at(-z) == w
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
    for text in ("meanfield", "tophat:0.25", "bump:0.125"):
        spec = parse_kernel_spec(text)
        assert parse_kernel_spec(format_kernel_spec(spec)) == spec
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
    assert (k._gather_cache is not None) == direct
    forced = {method: convolve(k, f, method) for method in ("direct", "fft")}
    assert np.array_equal(auto, forced["direct" if direct else "fft"])
    for out in forced.values():
        assert np.abs(out - auto).max() <= 1e-12


def test_convolve_grid_mismatch():
    k = build_kernel(TorusGrid(1, 8), TopHat(0.25))
    with pytest.raises(GridMismatchError):
        convolve(k, np.zeros(9))
