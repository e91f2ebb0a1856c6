"""Event-driven simulator: exact rates, registries, reproducibility."""
import hashlib
import math

import numpy as np
import pytest

from epilattice import MeanField, TopHat, TorusGrid, WrappedBump, build_kernel, particle
from epilattice.errors import (
    AbsorbedError,
    CountOverflowError,
    GridMismatchError,
    InvalidProfileError,
)
from epilattice.particle import (
    INFECTED,
    REMOVED,
    SUSCEPTIBLE,
    UNIFORM_BLOCK,
    EpidemicState,
    _advance,
    absorb_mean_field,
    gillespie_step,
    init_exact_counts,
    init_random,
    make_rng,
    run_sampled,
    run_to_absorption,
)


def _mean_field_state(L=100, beta=2.0, n_sus=90, n_inf=10, seed=1):
    grid = TorusGrid(1, L)
    kernel = build_kernel(grid, MeanField())
    return init_exact_counts(kernel, beta, n_sus, n_inf, seed)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_site_rates_match_definition_mean_field():
    state = _mean_field_state(seed=3)
    for _ in range(25):
        gillespie_step(state)
    np.testing.assert_allclose(
        state.site_rates(), state.fresh_site_rates(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d, L, spec, n_events", [
    (1, 8000, TopHat(0.05), 5000),
    (1, 8000, WrappedBump(0.08), 5000),
    (2, 64, TopHat(0.1), 3000),
    (2, 100, TopHat(0.0425), 3000),
])
def test_rate_cache_audit_after_long_run(d, L, spec, n_events):
    kernel = build_kernel(TorusGrid(d, L), spec)
    state = init_random(kernel, 1.5, 0.9, 0.05, 11)
    for _ in range(n_events):
        gillespie_step(state)
    assert state.audit_rates() <= 1e-8


def _unreached(kernel, eta):
    """Mask of sites with no infected site inside the kernel support."""
    infected = (eta == INFECTED).reshape(kernel.grid.shape).astype(np.int64)
    axes = tuple(range(kernel.grid.d))
    reach = sum(np.roll(infected, tuple(z), axis=axes) for z in kernel.offsets)
    return reach.ravel() == 0


def _per_offset_rates(state):
    """Reference: per-site rates added up one kernel offset at a time."""
    grid, kernel = state.grid, state.kernel
    contrib = state.beta * grid.cell_volume() * kernel.weights
    coords = np.stack(np.unravel_index(np.flatnonzero(state.eta == INFECTED),
                                       grid.shape))
    rates = np.zeros(grid.n_sites)
    for z, c in zip(kernel.offsets, contrib):
        # one offset maps distinct sources to distinct targets
        rates[np.ravel_multi_index(coords + z[:, None], grid.shape, mode="wrap")] += c
    rates[state.eta != SUSCEPTIBLE] = 0.0
    return rates


def test_site_rates_zero_off_susceptibles():
    # zeros must be exact where no infected site is in reach; the
    # convolution reference cannot promise that on the d = 2 and d = 3
    # grids, where convolve takes the FFT path, whose round-off is not 0
    for d, L, spec, rho0, rho1, seed, n_events in (
            (1, 300, TopHat(0.08), 0.7, 0.2, 9, 200),
            (2, 40, WrappedBump(0.15), 0.7, 0.02, 1, 20),
            (3, 16, TopHat(0.15), 0.7, 0.005, 3, 20)):
        kernel = build_kernel(TorusGrid(d, L), spec)
        state = init_random(kernel, 1.2, rho0, rho1, seed)
        for _ in range(n_events):
            gillespie_step(state)
        rates = state.site_rates()
        assert np.array_equal(rates, _per_offset_rates(state))
        assert (rates[state.eta != SUSCEPTIBLE] == 0.0).all()
        assert rates.min() >= 0.0
        unreached = _unreached(kernel, state.eta) & (state.eta == SUSCEPTIBLE)
        assert unreached.any()
        assert (rates[unreached] == 0.0).all()
        assert (rates[~unreached & (state.eta == SUSCEPTIBLE)] > 0.0).all()
        # with no infected site left, every rate is a float 0
        empty = EpidemicState(kernel, 1.2, np.zeros(kernel.grid.n_sites), make_rng(0))
        assert empty.site_rates().dtype == np.float64
        assert not empty.site_rates().any()


def test_first_event_law_matches_site_rates():
    # thinning must realize the jump chain: over independent seeds, the
    # first committed event is (kind, site) with probability rate / total,
    # after an Exp(total) wait; each frequency within 5 sigma
    kernel = build_kernel(TorusGrid(1, 12), WrappedBump(0.3))
    eta = np.array([0, 0, 1, 0, -1, 0, 0, 0, 1, 1, 0, -1], dtype=np.int8)
    probe = EpidemicState(kernel, 1.7, eta.copy(), make_rng(0))
    total = probe.n_inf + probe.site_rates().sum()
    expected = {("infection", x): r / total
                for x, r in enumerate(probe.site_rates())}
    expected.update({("recovery", x): float(eta[x] == INFECTED) / total
                     for x in range(len(eta))})
    assert sum(expected.values()) == pytest.approx(1.0, abs=1e-12)
    n = 20_000
    counts = dict.fromkeys(expected, 0)
    waits = np.empty(n)
    for seed in range(n):
        record = gillespie_step(EpidemicState(kernel, 1.7, eta.copy(),
                                              make_rng(seed)))
        counts[record.kind, record.site] += 1
        waits[seed] = record.time
    for outcome, p in expected.items():
        assert abs(counts[outcome] / n - p) <= 5 * np.sqrt(p * (1 - p) / n), outcome
    assert abs(waits.mean() - 1 / total) <= 5 / (total * np.sqrt(n))


def test_attempts_count_rejections_on_every_kernel():
    # both kernels thin: the mean-field kernel's attempts land on removed and
    # infected sites too
    kernel = build_kernel(TorusGrid(1, 400), TopHat(0.05))
    state = init_random(kernel, 2.0, 0.6, 0.2, 3)
    run_to_absorption(state)
    assert state.attempts > state.events
    state = _mean_field_state(seed=4)
    run_to_absorption(state)
    assert state.attempts > state.events > 0


def _stuck_runs_keep_the_mean_field_law(monkeypatch, spec, n_sus, n_inf):
    # on L = 512 at beta = 64 an infected site makes 64 infection attempts per
    # recovery, nearly all aimed at removed sites, so runs of REJECTION_STREAK
    # rejections are common, and the event still to come is then drawn from
    # the rates. Final counts against the exact law; seeds and binning were
    # fixed before any outcome was seen.
    L, beta, runs = 512, 64.0, 4000
    kernel = build_kernel(TorusGrid(1, L), spec)
    draw, sus_left = particle._draw_from_rates, []

    def counting(state, u_kind, u_pick):
        sus_left.append(int((state.eta == SUSCEPTIBLE).sum()))
        return draw(state, u_kind, u_pick)

    monkeypatch.setattr(particle, "_draw_from_rates", counting)
    finals = [round(run_to_absorption(init_exact_counts(kernel, beta, n_sus, n_inf, seed))
                    .x_inf * L) for seed in range(runs)]
    pmf = _final_susceptible_pmf(L, beta, n_sus, n_inf)
    stat, critical = _chi_square(np.bincount(finals, minlength=n_sus + 1), pmf)
    assert stat < critical
    # the bound was reached with susceptible sites left, where the law
    # depends on how the event is drawn
    assert sum(n > 0 for n in sus_left) > runs // 4


def test_thinning_runs_stuck_on_rejections_keep_the_mean_field_law(monkeypatch):
    # tophat:0.5 weighs every offset equally, so thinning realizes the
    # mean-field chain with a = beta / L
    _stuck_runs_keep_the_mean_field_law(monkeypatch, TopHat(0.5), 8, 2)


@pytest.mark.parametrize("spec, n_sus, n_inf", [
    (MeanField(), 8, 2), (MeanField(), 6, 12), (TopHat(0.5), 6, 12)],
    ids=["mean-field-8-2", "mean-field-6-12", "tophat-6-12"])
def test_thinning_runs_stuck_on_rejections_keep_the_law_on_more_cells(
        monkeypatch, spec, n_sus, n_inf):
    # the mean-field kernel thins with uniform targets; from 12 infected
    # sites the exact draw must read the infected count as it is at that
    # event, not as it was when the run was last written back
    _stuck_runs_keep_the_mean_field_law(monkeypatch, spec, n_sus, n_inf)


def test_thinning_bound_keeps_the_recovery_clock(monkeypatch):
    # site 12 is susceptible but out of reach of infected sites 0-4, so at
    # beta = 1e300 an infected site recovers about once in 1e300 attempts
    # and every recovery is drawn past the bound; absorption from 5 infected
    # sites takes the largest of 5 Exp(1) periods, mean H_5 and variance
    # sum 1/k^2
    kernel = build_kernel(TorusGrid(1, 20), TopHat(0.2))
    eta = np.full(20, REMOVED, dtype=np.int8)
    eta[:5] = INFECTED
    eta[12] = SUSCEPTIBLE
    draw, exact = particle._draw_from_rates, []

    def counting(state, u_kind, u_pick):
        exact.append(state.events)
        return draw(state, u_kind, u_pick)

    monkeypatch.setattr(particle, "_draw_from_rates", counting)
    runs, harmonic = 2000, sum(1 / k for k in range(1, 6))
    sd = np.sqrt(sum(1 / k**2 for k in range(1, 6)) / runs)
    finals = [run_to_absorption(EpidemicState(kernel, 1e300, eta, make_rng(seed)))
              for seed in range(runs)]
    assert all(final.events == 5 for final in finals)
    assert len(exact) == 5 * runs
    assert abs(np.mean([final.time for final in finals]) - harmonic) < 5 * sd


@pytest.mark.parametrize("streak", [3, 64])
def test_thinning_reads_the_same_uniforms_at_any_block_size(monkeypatch, streak):
    # the block only sets when the generator is asked for more uniforms, not
    # which ones an attempt or an exact draw reads; at beta = 50 on a ring
    # of 40, rejection streaks run into the exact draw at either length
    kernel = build_kernel(TorusGrid(1, 40), TopHat(0.2))
    monkeypatch.setattr(particle, "REJECTION_STREAK", streak)
    draw, exact = particle._draw_from_rates, []

    def counting(state, u_kind, u_pick):
        exact.append(state.events)
        return draw(state, u_kind, u_pick)

    monkeypatch.setattr(particle, "_draw_from_rates", counting)
    runs = {}
    for block in (4096, 7, 8, 11, 64):
        monkeypatch.setattr(particle, "UNIFORM_BLOCK", block)
        state = init_random(kernel, 50.0, 0.7, 0.1, 5)
        run_sampled(state, [0.05, 0.1, 0.2])
        run_to_absorption(state)
        runs[block] = (state.events, state.attempts, state.time, state.eta.tobytes())
    assert all(run == runs[4096] for run in runs.values())
    assert exact


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_random_product_measure_frequencies():
    kernel = build_kernel(TorusGrid(1, 200_000), MeanField())
    state = init_random(kernel, 1.0, 0.6, 0.3, 123)
    n = state.grid.n_sites
    # CLT: 5 sigma on a Bernoulli frequency
    assert abs(state.n_sus / n - 0.6) < 5 * np.sqrt(0.6 * 0.4 / n)
    assert abs(state.n_inf / n - 0.3) < 5 * np.sqrt(0.3 * 0.7 / n)


def test_init_random_per_site_profile():
    grid = TorusGrid(1, 4)
    kernel = build_kernel(grid, MeanField())
    state = init_random(kernel, 1.0, [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], 2)
    assert list(state.eta) == [SUSCEPTIBLE, INFECTED, SUSCEPTIBLE, INFECTED]


@pytest.mark.parametrize("rho0, rho1", [
    (-0.1, 0.5), (0.5, -0.1), (0.7, 0.4),
    (np.nan, 0.1), (0.5, np.array([0.1] * 9 + [np.nan]))])
def test_init_random_rejects_bad_profile(rho0, rho1):
    kernel = build_kernel(TorusGrid(1, 10), MeanField())
    with pytest.raises(InvalidProfileError):
        init_random(kernel, 1.0, rho0, rho1, 0)


def test_init_random_profile_shape_mismatch():
    kernel = build_kernel(TorusGrid(1, 10), MeanField())
    with pytest.raises(GridMismatchError):
        init_random(kernel, 1.0, np.full(7, 0.5), 0.1, 0)


def test_init_exact_counts_places_exactly():
    state = _mean_field_state(L=50, n_sus=30, n_inf=15, seed=8)
    assert (state.n_sus, state.n_inf, state.n_rem) == (30, 15, 5)
    assert int((state.eta == INFECTED).sum()) == 15
    assert int((state.eta == SUSCEPTIBLE).sum()) == 30


def test_init_exact_counts_overflow():
    kernel = build_kernel(TorusGrid(1, 10), MeanField())
    with pytest.raises(CountOverflowError):
        init_exact_counts(kernel, 1.0, 8, 3, 0)
    with pytest.raises(CountOverflowError):
        init_exact_counts(kernel, 1.0, -1, 3, 0)


def test_state_rejects_bad_eta_values():
    kernel = build_kernel(TorusGrid(1, 4), MeanField())
    # out-of-range values must not be wrapped or truncated into range
    for bad in ([0, 1, 2, 0], [0, 1, 257, 0], [0, 1, 255, 0], [0, 1, 0.5, 0]):
        with pytest.raises(InvalidProfileError):
            EpidemicState(kernel, 1.0, np.array(bad), make_rng(0))
    with pytest.raises(GridMismatchError):
        EpidemicState(kernel, 1.0, np.zeros(5, dtype=np.int8), make_rng(0))
    with pytest.raises(InvalidProfileError):
        EpidemicState(kernel, 0.0, np.zeros(4, dtype=np.int8), make_rng(0))


# ---------------------------------------------------------------------------
# dynamics invariants
# ---------------------------------------------------------------------------

def test_counts_conserved_and_match_eta():
    kernel = build_kernel(TorusGrid(2, 32), TopHat(0.12))
    state = init_random(kernel, 1.8, 0.85, 0.1, 21)
    n = state.grid.n_sites
    for _ in range(500):
        gillespie_step(state)
        assert state.n_sus + state.n_inf + state.n_rem == n
    assert state.n_sus == int((state.eta == SUSCEPTIBLE).sum())
    assert state.n_inf == int((state.eta == INFECTED).sum())
    assert state.n_rem == int((state.eta == REMOVED).sum())


def test_susceptibles_never_increase_removed_never_decrease():
    state = _mean_field_state(L=400, n_sus=360, n_inf=40, seed=13)
    prev_s, prev_r = state.n_sus, state.n_rem
    for _ in range(300):
        gillespie_step(state)
        assert state.n_sus <= prev_s
        assert state.n_rem >= prev_r
        prev_s, prev_r = state.n_sus, state.n_rem


def test_event_clock_strictly_increases():
    kernel = build_kernel(TorusGrid(1, 200), TopHat(0.1))
    state = init_random(kernel, 2.0, 0.9, 0.08, 17)
    last = 0.0
    for _ in range(200):
        rec = gillespie_step(state)
        assert rec.time > last
        last = rec.time
    assert state.time == last


def test_absorbed_state_raises():
    kernel = build_kernel(TorusGrid(1, 20), MeanField())
    state = init_exact_counts(kernel, 1.0, 20, 0, 0)
    with pytest.raises(AbsorbedError):
        gillespie_step(state)


def test_run_to_absorption_event_bound_and_terminal_state():
    state = _mean_field_state(L=300, n_sus=290, n_inf=10, seed=5)
    final = run_to_absorption(state)
    assert state.n_inf == 0
    assert final.events <= 2 * state.grid.n_sites
    assert final.x_inf == state.n_sus / state.grid.n_sites
    assert 0.0 <= final.x_inf <= 290 / 300


def test_determinism_same_seed_bitwise():
    for seed in (0, 99, 2**40 + 3):
        runs = [run_to_absorption(_mean_field_state(L=150, n_sus=140,
                                                    n_inf=10, seed=seed))
                for _ in range(2)]
        assert runs[0] == runs[1]
    kernel = build_kernel(TorusGrid(1, 400), TopHat(0.06))
    finals = [run_to_absorption(init_random(kernel, 1.6, 0.9, 0.05, 77))
              for _ in range(2)]
    assert finals[0] == finals[1]


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _fingerprint(state):
    return (state.events, state.attempts, repr(state.time), _sha256(state.eta),
            _sha256(state.site_rates()))


# site_rates() of an absorbed 40 x 40 state: 1600 float zeros
_NO_RATES = "59ec91dcb7dc65b5f928091cb0e25c26729a0a4453ebe7d8244fc1ceae7d9712"


@pytest.mark.parametrize("grid, spec, init, mid, end", [
    (TorusGrid(2, 40), MeanField(),
     lambda k: init_exact_counts(k, 1.5, 1400, 20, 2024),
     (194, 212, "3.018647210473855",
      "2e30edfb5022b2c44da644430f1e0fc201e1ae45ac4b89dade56d44ad6afdfdb",
      "7a0e314576e71bd2fba39e0a0109cace8c03f47865fb6afbdf6dbdbd28e2bf95"),
     (1360, 1701, "29.879744451737444",
      "a0f782587ed70e40c97ef6d8e7f08b2919cabbc48d86b28c90425b3fee14dc60",
      _NO_RATES)),
    (TorusGrid(2, 40), TopHat(0.1),
     lambda k: init_random(k, 1.5, 0.85, 0.03, 2024),
     (316, 374, "3.005905071287217",
      "1ec89ad71f21318e2254170b5e1ba30c7994fd1b708340deb6805f8c07ddc433",
      "ce28fdb8144025ec81be319867b4fad3338eda8834c87da46116163d3504b651"),
     (707, 916, "22.838148243186115",
      "fad44a00e3d3ed134576bb5a1c2aa30614ba59ce6efb1b2438d4350652510f5a",
      _NO_RATES)),
    (TorusGrid(1, 400), TopHat(0.05),
     lambda k: init_random(k, 2.0, 0.85, 0.1, 2024),
     (340, 502, "3.052765348494189",
      "f1ee51fd6f192b8ef4118b306cbeed40dfdb9ea7758b18cab9399e87652f762f",
      "6563d434d31ff1e5e84b439dfe9bd86d0f80faa9a8dfb2c2d5d36dac47190e5f"),
     (448, 713, "7.663447450276518",
      "feb1c5e2f4c158c0b16ab947127402305b6b51f99948f2e20811d48c0a449600",
      "5a312281df4bd8dfbb4d4a94ad0bf44d01bb8cfced1206b90e21b4ca0568cdb1")),
    (TorusGrid(3, 10), TopHat(0.3),
     lambda k: init_random(k, 1.5, 0.85, 0.03, 2024),
     (135, 159, "3.025896297019604",
      "ee4914be77b7b39043529e4a013450088a6d0f3817b4ab3b6c5501277627205e",
      "c235d1ad693a98eee3492a1bc56c81b73086977b0a63a8f43a59adf599001a86"),
     (323, 389, "12.529059403215234",
      "3c92e7b73e167a214944a71c61d5ce4800b113bbcb8ffeed573b34acc84c39bc",
      "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b")),
    # reach 7 = L // 2 on an odd grid: every offset but the corners
    (TorusGrid(2, 15), TopHat(0.5),
     lambda k: init_random(k, 2.0, 0.85, 0.1, 2024),
     (207, 284, "3.002044427809629",
      "430cbff41eefd8ef1378ded4833aac809d5753cfa6231f581e0b00ec9bc3279c",
      "c725c39fd5e0a8e0aa7fc23f503d4e2f53c0f9f4eb5c4ce880fbbaa85dc85468"),
     (322, 516, "10.211616550954389",
      "db29849fb4f9d607e374351faf24415c1b2ee94328ff12436ee265cba91b6f30",
      "09cec5a5bd8afffbb758753810a20c55ccb06a46d7bf54eda69ecd2ad645ef11")),
], ids=["mean-field", "thinning", "thinning-d1", "thinning-d3", "thinning-half-torus"])
def test_golden_trajectories(grid, spec, init, mid, end):
    # pinned values of the event loop on both kinds of kernel: any change to
    # the random stream, the draw order or the infected registry's order moves them
    state = init(build_kernel(grid, spec))
    run_sampled(state, [0.5, 1.5, 3.0])
    assert _fingerprint(state) == mid
    run_to_absorption(state)
    assert _fingerprint(state) == end


@pytest.mark.parametrize("bit_generator, prefill, pinned", [
    (np.random.MT19937, False,
     (1976, 2533, "19.811701617576187",
      "b530f932013468a63b5bbec6a7771d9df66ba5388c743b349a0fe73402c92c9a",
      2175498109)),
    (np.random.Philox, True,
     (1676, 2040, "36.85825622378652",
      "050ae128e47c0c647ecaaf9fdddcd5ece21f2847d53b5a560b4319d67d8b167b",
      6351600440360145254)),
    (np.random.PCG64, True,
     (2164, 2784, "20.645216499281165",
      "97cfd4d5737782597009d23b912d29d4d14479b31bb8dd376a1f823b2c34fdc4",
      12029430096618315376)),
    (np.random.SFC64, True,
     (1840, 2334, "26.079567651225165",
      "4d6159de8acccb3ce5d588d1202576a53f9160281d0bafe8b6351eda46521111",
      5587114725443642554)),
], ids=["MT19937", "Philox-half-full", "PCG64-half-full", "SFC64-half-full"])
def test_golden_mean_field_runs_across_generators(bit_generator, prefill, pinned):
    # the event loop reads uniform blocks through Generator.random on any bit
    # generator, a buffered 32-bit half-word left as it was: the events,
    # attempts, clock, final eta and the next raw word after the run
    kernel = build_kernel(TorusGrid(2, 40), MeanField())
    eta = np.zeros(1600, dtype=np.int8)
    eta[::80] = INFECTED
    rng = np.random.Generator(bit_generator(2024))
    if prefill:
        rng.integers(5)
        assert rng.bit_generator.state["has_uint32"] == 1
    state = EpidemicState(kernel, 1.5, eta, rng)
    run_to_absorption(state)
    assert (state.events, state.attempts, repr(state.time), _sha256(state.eta),
            rng.bit_generator.random_raw()) == pinned


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.PCG64,
                                           np.random.SFC64])
def test_state_leaves_the_generator_as_it_found_it(bit_generator):
    # building a state edits no generator state, the buffered half-word
    # included, and after one event the generator must continue exactly like
    # a twin that drew one block of uniforms
    kernel = build_kernel(TorusGrid(1, 100), MeanField())
    eta = np.zeros(100, dtype=np.int8)
    eta[::10] = INFECTED
    rng, twin = (np.random.Generator(bit_generator(11)) for _ in range(2))
    rng.integers(5)
    twin.integers(5)
    state = EpidemicState(kernel, 2.0, eta, rng)
    np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)
    gillespie_step(state)
    twin.random(UNIFORM_BLOCK)
    assert np.array_equal(rng.integers(2**31, size=3), twin.integers(2**31, size=3))


def _final_state(state):
    return (state.eta.tobytes(), state.n_sus, state.n_inf, state.n_rem,
            state.events, state.attempts, state.time)


@pytest.mark.parametrize("spec", [MeanField(), TopHat(0.1)], ids=["mean-field", "thinning"])
def test_run_paths_match_stepping(spec):
    kernel = build_kernel(TorusGrid(2, 30), spec)

    def fresh():
        return init_random(kernel, 1.6, 0.85, 0.05, 5)

    stepped = fresh()
    with pytest.raises(AbsorbedError):
        while True:
            gillespie_step(stepped)
    absorbed = fresh()
    run_to_absorption(absorbed)
    assert _final_state(absorbed) == _final_state(stepped)

    sampled = fresh()
    run_sampled(sampled, [0.5, 2.0])
    assert 0 < sampled.events < stepped.events
    stepped = fresh()
    for _ in range(sampled.events):
        gillespie_step(stepped)
    assert _final_state(sampled) == _final_state(stepped)


def test_state_does_not_alias_callers_eta():
    kernel = build_kernel(TorusGrid(1, 200), TopHat(0.05))
    eta = np.zeros(200, dtype=np.int8)
    eta[::10] = INFECTED
    before = eta.copy()
    state = EpidemicState(kernel, 2.0, eta, make_rng(3))
    run_to_absorption(state)
    assert state.events > 0
    assert np.array_equal(eta, before)


def test_different_seeds_differ():
    outs = {run_to_absorption(_mean_field_state(L=200, n_sus=190, n_inf=10,
                                                seed=s)).time
            for s in range(6)}
    assert len(outs) == 6


# ---------------------------------------------------------------------------
# sampled trajectories
# ---------------------------------------------------------------------------

def test_run_sampled_times_validated():
    state = _mean_field_state()
    with pytest.raises(InvalidProfileError):
        run_sampled(state, [1.0, 0.5])
    with pytest.raises(InvalidProfileError):
        run_sampled(state, [])
    with pytest.raises(InvalidProfileError):
        run_sampled(state, [-1.0, 1.0])


def test_run_sampled_rejects_nan_times():
    state = _mean_field_state()
    with pytest.raises(InvalidProfileError):
        run_sampled(state, [0.0, float("nan")])
    assert state.events == 0  # rejected before any event is drawn


def test_run_sampled_fractions_sum_to_one_and_x_monotone():
    kernel = build_kernel(TorusGrid(1, 1000), TopHat(0.07))
    state = init_random(kernel, 2.0, 0.95, 0.03, 31)
    samples = run_sampled(state, np.linspace(0.25, 12.0, 48))
    xs = [s.x for s in samples]
    for s in samples:
        assert abs(s.x + s.y + s.z - 1.0) < 1e-12
    assert all(b <= a + 1e-15 for a, b in zip(xs, xs[1:]))


def test_run_sampled_pads_after_absorption():
    state = _mean_field_state(L=30, n_sus=25, n_inf=5, seed=2)
    samples = run_sampled(state, [1.0, 50.0, 100.0, 150.0])
    assert [s.t for s in samples] == [1.0, 50.0, 100.0, 150.0]
    # the epidemic on 30 sites is long dead by t=50; padded samples freeze
    assert samples[-1].y == 0.0
    assert samples[-2].y == 0.0
    assert samples[-1].x == samples[-2].x
    assert samples[-1].events == samples[-2].events


def test_run_sampled_constant_test_function_recovers_fractions():
    grid = TorusGrid(1, 500)
    kernel = build_kernel(grid, TopHat(0.1))
    state = init_random(kernel, 1.5, 0.9, 0.05, 19)
    ones = np.ones((1, grid.n_sites))
    samples = run_sampled(state, [0.5, 1.5, 3.0], ones)
    for s in samples:
        assert s.averages.shape == (2, 1)
        # gamma^d * sum 1{eta=0} is exactly the susceptible fraction
        assert abs(s.averages[0, 0] - s.x) < 1e-12
        assert abs(s.averages[1, 0] - s.y) < 1e-12


@pytest.mark.parametrize("d, L", [(1, 300), (2, 18), (3, 7)])
@pytest.mark.parametrize("spec", [MeanField(), TopHat(0.2)], ids=["mean-field", "thinning"])
def test_run_sampled_matches_stepping_with_pairings(d, L, spec):
    # reference: a same-seed twin stepped one event at a time, with a copy of
    # eta taken before each step paired at every sample time that step
    # crosses; 1e-12 covers only the order of the pairing sums
    grid = TorusGrid(d, L)
    kernel = build_kernel(grid, spec)
    x = grid.positions()
    funcs = np.stack([np.cos(2 * np.pi * x[:, 0]), np.sin(2 * np.pi * x.sum(axis=1)),
                      np.cos(4 * np.pi * x[:, -1])])
    times = [0.2, 0.2001, 1.0, 2.5, 60.0]  # 60 lies past absorption
    sampled = init_random(kernel, 1.8, 0.85, 0.05, 29)
    samples = run_sampled(sampled, times[:4], funcs)
    stopped = _final_state(sampled)
    samples += run_sampled(sampled, times[4:], funcs)

    stepped = init_random(kernel, 1.8, 0.85, 0.05, 29)
    expected, k, crossed = [], 0, None
    while k < len(times):
        eta, events = stepped.eta.copy(), stepped.events
        absorbed = stepped.n_inf == 0
        if not absorbed:
            gillespie_step(stepped)
        while k < len(times) and (absorbed or stepped.time >= times[k]):
            expected.append((times[k], events, eta))
            k += 1
        if k == 4 and crossed is None:  # after the step crossing times[3]
            crossed = _final_state(stepped)
    assert crossed == stopped
    assert absorbed and _final_state(sampled) == _final_state(stepped)
    vol = grid.cell_volume()
    for sample, (t, events, eta) in zip(samples, expected, strict=True):
        assert (sample.t, sample.events) == (t, events)
        counts = [int((eta == i).sum()) for i in (SUSCEPTIBLE, INFECTED, REMOVED)]
        assert (sample.x, sample.y, sample.z) == tuple(c / grid.n_sites for c in counts)
        pairings = vol * np.stack([funcs @ (eta == i) for i in (SUSCEPTIBLE, INFECTED)])
        assert np.abs(sample.averages - pairings).max() <= 1e-12


def test_run_sampled_rejects_mismatched_test_functions():
    state = _mean_field_state()
    with pytest.raises(GridMismatchError):
        run_sampled(state, [1.0], np.ones((1, 7)))


def test_pure_decay_without_susceptibles():
    # rho0 = 0: infections are impossible, each site recovers at rate 1,
    # so y(t) is a binomial thinning with mean e^{-t}
    grid = TorusGrid(1, 100_000)
    kernel = build_kernel(grid, MeanField())
    state = init_exact_counts(kernel, 5.0, 0, grid.n_sites, 43)
    samples = run_sampled(state, [1.0])
    expect = np.exp(-1.0)
    assert abs(samples[0].y - expect) < 5 * np.sqrt(expect * (1 - expect) / grid.n_sites)
    assert samples[0].x == 0.0


def test_mean_field_tracks_ode_at_moderate_size():
    # law of large numbers: stochastic fractions near the ODE at L = 4000
    from epilattice.meanfield import MeanFieldParams, ode_integrate
    grid = TorusGrid(1, 4000)
    kernel = build_kernel(grid, MeanField())
    params = MeanFieldParams(2.0, 0.95, 0.05)
    ode = {t: ode_integrate(params, t, dt=0.01) for t in (2.0, 5.0)}
    acc = np.zeros((2, 2))
    reps = 8
    for rep in range(reps):
        state = init_random(kernel, 2.0, 0.95, 0.05, 900 + rep)
        samples = run_sampled(state, [2.0, 5.0])
        acc += [[s.x, s.y] for s in samples]
    acc /= reps
    for k, t in enumerate((2.0, 5.0)):
        assert abs(acc[k, 0] - ode[t].x[-1]) < 0.02
        assert abs(acc[k, 1] - ode[t].y[-1]) < 0.02


# ---------------------------------------------------------------------------
# final sizes from the mean-field threshold form, against the exact chain law
# ---------------------------------------------------------------------------

def _ks_pvalue(a, b):
    """Two-sample Kolmogorov-Smirnov p-value, asymptotic (conservative on ties)."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    stat = np.abs(np.searchsorted(a, grid, side="right") / a.size
                  - np.searchsorted(b, grid, side="right") / b.size).max()
    if stat == 0.0:  # the series below sums to 0 there, not to its limit 1
        return 1.0
    en = np.sqrt(a.size * b.size / (a.size + b.size))
    lam = (en + 0.12 + 0.11 / en) * stat
    j = np.arange(1, 101)
    return float(np.clip(2.0 * np.sum((-1.0) ** (j - 1) * np.exp(-2.0 * (j * lam) ** 2)),
                         0.0, 1.0))


def test_ks_pvalue_reads_one_on_equal_samples():
    assert _ks_pvalue(np.zeros(400), np.zeros(400)) == 1.0
    assert _ks_pvalue(np.array([1., 2, 3] * 100), np.array([3., 1, 2] * 100)) == 1.0
    assert _ks_pvalue(np.arange(400.0), np.arange(400.0) + 100) < 1e-6


@pytest.mark.parametrize("beta, n_inf", [(2.0, 104), (0.8, 104), (2.0, 4)],
                         ids=["supercritical", "subcritical", "early-extinction"])
def test_absorb_mean_field_law_matches_particle_runs(beta, n_inf):
    # the chain's final susceptible count has the law of the event-by-event
    # run from the same counts, on a d = 2, L = 20 torus
    kernel = build_kernel(TorusGrid(2, 20), MeanField())
    n_sus, replicas = 400 - n_inf, 2000
    particle = np.array([run_to_absorption(
        init_exact_counts(kernel, beta, n_sus, n_inf, seed)).x_inf * 400
        for seed in range(replicas)])
    chain = []
    for seed in range(replicas):
        final, events = absorb_mean_field(400, beta, n_sus, n_inf,
                                          make_rng(10**6 + seed))
        assert 0 <= final <= n_sus and events == n_inf + 2 * (n_sus - final)
        chain.append(final)
    assert _ks_pvalue(np.round(particle), np.array(chain)) > 0.01


def _final_susceptible_pmf(n_sites, beta, n_sus, n_inf):
    # exact law of the final susceptible count: push the probability mass of
    # each chain state (s, i) to (s - 1, i + 1) w.p. q(s) and to (s, i - 1)
    # otherwise, s descending and, within s, i descending
    a = beta / n_sites
    mass = np.zeros((n_sus + 1, n_sus + n_inf + 1))
    mass[n_sus, n_inf] = 1.0
    for s in range(n_sus, -1, -1):
        q = a * s / (a * s + 1.0)
        for i in range(n_inf + n_sus - s, 0, -1):
            if s:
                mass[s - 1, i + 1] += q * mass[s, i]
            mass[s, i - 1] += (1.0 - q) * mass[s, i]
    return mass[:, 0]


@pytest.mark.parametrize("n_sites, beta, n_sus, n_inf",
                         [(8, 2.0, 6, 2), (8, 0.8, 7, 1), (12, 3.0, 10, 2)])
def test_absorb_mean_field_matches_exact_pmf(n_sites, beta, n_sus, n_inf):
    # every final count within 5 sigma of its exact expectation; unlike the
    # KS cells above, this sees an absorption one step late
    pmf = _final_susceptible_pmf(n_sites, beta, n_sus, n_inf)
    assert abs(pmf.sum() - 1.0) < 1e-12
    draws = 20000
    finals = [absorb_mean_field(n_sites, beta, n_sus, n_inf, make_rng(seed))[0]
              for seed in range(draws)]
    counts = np.bincount(finals, minlength=n_sus + 1)
    sigma = np.sqrt(draws * pmf * (1.0 - pmf))
    assert np.all(np.abs(counts - draws * pmf) <= 5.0 * sigma)


def _chi_square(counts, pmf, min_expected=20.0):
    """Pearson's statistic of observed ``counts`` against ``pmf``, with its
    0.999 quantile under the null (Wilson-Hilferty). Bins are fixed by the
    pmf alone: adjacent outcomes, in increasing order, merge until each bin
    expects at least ``min_expected`` draws; a remainder joins the last bin.
    """
    draws = counts.sum()
    observed, expected, o, e = [], [], 0.0, 0.0
    for c, p in zip(counts, pmf):
        o, e = o + c, e + draws * p
        if e >= min_expected:
            observed.append(o)
            expected.append(e)
            o = e = 0.0
    observed[-1] += o
    expected[-1] += e
    observed, expected = np.array(observed), np.array(expected)
    stat = float(((observed - expected) ** 2 / expected).sum())
    dof = observed.size - 1
    z = 3.090232  # the standard normal's 0.999 quantile
    return stat, dof * (1 - 2 / (9 * dof) + z * np.sqrt(2 / (9 * dof))) ** 3


@pytest.mark.parametrize("beta", [0.8, 1.5, 2.0])
def test_absorb_mean_field_passes_a_chi_square_test_of_its_exact_law(beta):
    # 20,000 final counts at n = 200 from 5 infected sites, against the exact
    # law; master seed and binning were fixed before any outcome was seen
    n, n_inf, draws = 200, 5, 20000
    pmf = _final_susceptible_pmf(n, beta, n - n_inf, n_inf)
    rng = make_rng(2026)  # draws are independent: each reads fresh exponentials
    finals = [absorb_mean_field(n, beta, n - n_inf, n_inf, rng)[0] for _ in range(draws)]
    stat, critical = _chi_square(np.bincount(finals, minlength=n - n_inf + 1), pmf)
    assert stat < critical


@pytest.mark.parametrize("block", [3, 16])
def test_absorb_mean_field_passes_a_chi_square_test_in_small_blocks(monkeypatch, block):
    # blocks of 3 or 16 positions, at most that many per round: every run
    # walks several rounds and fills several blocks; master seed and draw
    # count were fixed before any outcome was seen
    monkeypatch.setattr(particle, "BLOCK_MAX", block)
    n, n_inf, draws = 200, 5, 5000
    pmf = _final_susceptible_pmf(n, 2.0, n - n_inf, n_inf)
    rng = make_rng(2027)
    finals = [absorb_mean_field(n, 2.0, n - n_inf, n_inf, rng)[0] for _ in range(draws)]
    stat, critical = _chi_square(np.bincount(finals, minlength=n - n_inf + 1), pmf)
    assert stat < critical


@pytest.mark.parametrize("beta", [1.0, 1.2, 3.0])
def test_absorb_mean_field_passes_a_chi_square_test_from_three_infected(beta):
    # 20,000 final counts at n = 400 from 3 infected sites, where early
    # extinction and a major outbreak both carry mass; master seed and draw
    # count were fixed before any outcome was seen
    n, n_inf, draws = 400, 3, 20000
    pmf = _final_susceptible_pmf(n, beta, n - n_inf, n_inf)
    rng = make_rng(2028)
    finals = [absorb_mean_field(n, beta, n - n_inf, n_inf, rng)[0] for _ in range(draws)]
    stat, critical = _chi_square(np.bincount(finals, minlength=n - n_inf + 1), pmf)
    assert stat < critical


def test_run_to_absorption_passes_a_chi_square_test_of_the_mean_field_law():
    # the event loop on the mean-field kernel against the exact chain law:
    # 3,000 runs at n = 100 from 5 infected sites, seeds fixed before any
    # outcome was seen
    kernel = build_kernel(TorusGrid(1, 100), MeanField())
    n, n_inf, draws = 100, 5, 3000
    pmf = _final_susceptible_pmf(n, 2.0, n - n_inf, n_inf)
    finals = [round(run_to_absorption(init_exact_counts(
        kernel, 2.0, n - n_inf, n_inf, seed)).x_inf * n) for seed in range(draws)]
    stat, critical = _chi_square(np.bincount(finals, minlength=n - n_inf + 1), pmf)
    assert stat < critical


def _counts_pmf_at(n_sites, beta, n_sus, n_inf, times):
    # exact law of the mean-field counts (s, i) at each time, flattened
    # s-major, by uniformization: P(t) = sum_k Pois(k; lam t) (I + Q / lam)^k,
    # each power pushing the mass of (s, i) to (s - 1, i + 1) at rate a s i
    # and to (s, i - 1) at rate i, a = beta / n_sites
    s, i = np.ogrid[:n_sus + 1, :n_sus + n_inf + 1]
    infect, recover = beta / n_sites * s * i, i + 0.0 * s
    lam = float((infect + recover).max())
    mass = np.zeros(infect.shape)
    mass[n_sus, n_inf] = 1.0
    laws = [np.zeros(infect.shape) for _ in times]
    top = lam * times[-1]
    for k in range(int(top + 10 * math.sqrt(top)) + 20):
        for law, t in zip(laws, times):  # Poisson weights in logs: no underflow
            law += math.exp(k * math.log(lam * t) - lam * t - math.lgamma(k + 1)) * mass
        step = mass * (1.0 - (infect + recover) / lam)
        step[:-1, 1:] += (mass * infect / lam)[1:, :-1]
        step[:, :-1] += (mass * recover / lam)[:, 1:]
        mass = step
    assert all(abs(law.sum() - 1.0) < 1e-12 for law in laws)
    return [law.ravel() for law in laws]


def test_run_sampled_passes_a_chi_square_test_of_the_mean_field_law_at_each_time():
    # the joint counts (s, i) of run_sampled's snapshots on the mean-field
    # kernel against the exact time-t law: 5,000 runs at n = 64, beta = 2
    # from 60 susceptible and 4 infected sites; seeds, times and binning were
    # fixed before any outcome was seen
    n, beta, n_sus, n_inf, times = 64, 2.0, 60, 4, [0.5, 1.5, 4.0]
    kernel = build_kernel(TorusGrid(1, n), MeanField())
    width = n_sus + n_inf + 1
    counts = np.zeros((len(times), (n_sus + 1) * width), dtype=np.int64)
    for seed in range(5000):
        samples = run_sampled(init_exact_counts(kernel, beta, n_sus, n_inf, seed), times)
        for row, sample in zip(counts, samples):
            row[round(sample.x * n) * width + round(sample.y * n)] += 1
    for row, pmf in zip(counts, _counts_pmf_at(n, beta, n_sus, n_inf, times)):
        stat, critical = _chi_square(row, pmf)
        assert stat < critical


def _absorb_at_once(n_sites, beta, n_sus, n_inf, rng):
    # Sellke's threshold form without blocks: every threshold and every
    # period drawn, and the first k with T_(k+1) > a*S_(n_inf+k)
    thresholds = np.sort(rng.standard_exponential(n_sus))
    periods = np.cumsum(rng.standard_exponential(n_inf + n_sus))[n_inf - 1:-1]
    hit = np.flatnonzero(thresholds > beta / n_sites * periods)
    k_end = int(hit[0]) if hit.size else n_sus
    return n_sus - k_end, n_inf + 2 * k_end


def _same_law(cell, results, seeds):
    # the final counts of ``results`` against as many runs of the threshold
    # form drawn in one block, at seeds 10^6 + s (KS, p > 0.001)
    once = [_absorb_at_once(*cell, make_rng(10**6 + seed))[0] for seed in seeds]
    finals = [final for final, _ in results]
    return _ks_pvalue(np.array(finals), np.array(once)) > 0.001


#: the critical benchmark's (beta, L) cells in d = 2, as (n, beta, n_sus, n_inf)
CRITICAL_CELLS = [(L * L, beta, L * L - round(L**1.55), round(L**1.55))
                  for beta in (0.8, 2.0) for L in (100, 160)]


#: cells whose runs stray far from the estimated absorption point
OFF_ESTIMATE_CELLS = [
    (10_000, 1.0, 8741, 1259),   # critical
    (5000, 1.5, 4999, 1),        # one seed: dies out early or breaks out
    (5000, 1.1, 4999, 1),        # one seed near threshold: runs stray widely
    (100, 150.0, 99, 1),         # every site gets infected
    (60, 2.0, 50, 10),           # fewer than 64 susceptible sites
    (100, 2.0, 0, 7),            # none susceptible
]
OFF_ESTIMATE_IDS = ["critical", "one-seed", "one-seed-near-critical", "all-infected",
                    "few-susceptible", "none-susceptible"]


def test_absorb_mean_field_carries_across_blocks():
    # about 0.8 n of 3 x BLOCK_MAX positions get infected, so the crossing
    # lies many blocks into the round, past the threshold and pressure each
    # block carries to the next; seeds fixed before any outcome was seen
    n = 3 * particle.BLOCK_MAX
    cell, seeds = (n, 2.0, n - 200, 200), range(200)
    results = [absorb_mean_field(*cell, make_rng(seed)) for seed in seeds]
    assert all(n - 200 - final > particle.BLOCK_MAX for final, _ in results)
    assert all(events == 200 + 2 * (n - 200 - final) for final, events in results)
    assert _same_law(cell, results, seeds)


@pytest.mark.parametrize("block", [97, 4096, 65_536])
def test_absorb_mean_field_does_not_depend_on_block_size(monkeypatch, block):
    # BLOCK_MAX caps the positions per block, the blocks per round and the
    # blocks per fill pass: at 97 the (2.0, 160) cell walks two rounds of
    # capped blocks, at 65,536 no cap binds; the final counts keep the law of
    # the threshold form drawn in one block (seeds fixed before any outcome
    # was seen)
    monkeypatch.setattr(particle, "BLOCK_MAX", block)
    seeds = range(200)
    for cell in CRITICAL_CELLS:
        results = [absorb_mean_field(*cell, make_rng(seed)) for seed in seeds]
        assert _same_law(cell, results, seeds)


@pytest.mark.parametrize("cell", CRITICAL_CELLS + OFF_ESTIMATE_CELLS,
                         ids=[f"L{round(c[0] ** 0.5)}-beta{c[1]}" for c in CRITICAL_CELLS]
                         + OFF_ESTIMATE_IDS)
def test_absorb_mean_field_gives_the_same_draws_from_a_cold_and_a_warm_plan(
        monkeypatch, cell):
    # each call plans its first round from its own estimate and keeps
    # nothing: a seed drawn cold, then again after every other cell has been
    # drawn, reads the same numbers and gives the same result
    seeds = range(200 if cell in CRITICAL_CELLS else 40)
    estimates = []

    def counting(*args):
        estimates.append(args)
        return estimate(*args)

    estimate = particle._absorption_estimate
    monkeypatch.setattr(particle, "_absorption_estimate", counting)
    cold, ends = [], []
    for seed in seeds:
        rng = make_rng(seed)
        cold.append(absorb_mean_field(*cell, rng))
        ends.append(_position(rng))
    planned = len(estimates)
    assert planned == sum(final < cell[2] for final, _ in cold)  # one per round walk
    for other in CRITICAL_CELLS + OFF_ESTIMATE_CELLS:
        absorb_mean_field(*other, make_rng(1))
    del estimates[:]
    for seed, first, end in zip(seeds, cold, ends):
        rng = make_rng(seed)
        assert absorb_mean_field(*cell, rng) == first
        assert _position(rng) == end
    assert len(estimates) == planned


def test_absorb_mean_field_draws_less_than_a_block_on_a_small_subcritical_cell():
    # beta = 0.8, L = 100 in d = 2 with round(L^1.55) infected sites absorbs
    # near k = 2,000; the chain read one exponential per infection, the
    # threshold form reads a gamma per block and fills about three blocks,
    # fewer words than infections and than a block of UNIFORM_BLOCK
    n, n_inf = 10_000, round(100 ** 1.55)
    for seed in range(3):
        rng, twin = make_rng(seed), make_rng(seed)
        final, _ = absorb_mean_field(n, 0.8, n - n_inf, n_inf, rng)
        drawn = 0  # 64-bit words the twin has read
        while _position(twin) != _position(rng) and drawn <= UNIFORM_BLOCK:
            twin.bit_generator.random_raw()
            drawn += 1
        assert drawn < n - n_inf - final and drawn < UNIFORM_BLOCK
        assert rng.random() == twin.random()


@pytest.mark.parametrize("cell", OFF_ESTIMATE_CELLS, ids=OFF_ESTIMATE_IDS)
def test_absorb_mean_field_matches_one_block_where_the_estimate_is_off(cell):
    # the first round is sized from a deterministic estimate of the
    # absorption point; where the runs stray far from it the final counts
    # still have the law of the threshold form drawn in one block (KS, 400
    # runs a side, seeds fixed before any outcome was seen)
    results = [absorb_mean_field(*cell, make_rng(seed)) for seed in range(400)]
    finals = [final for final, _ in results]
    _, beta, n_sus, n_inf = cell
    assert all(events == n_inf + 2 * (n_sus - final) for final, events in results)
    assert _same_law(cell, results, range(400))
    if beta == 1.5:
        assert min(finals) < 0.7 * n_sus < max(finals)
    if beta == 150.0:  # the first event is a recovery w.p. 1 / (1 + 148.5)
        assert finals.count(0) >= 0.95 * len(finals)
    if n_sus == 0:
        rng = make_rng(3)
        assert absorb_mean_field(*cell, rng) == (0, n_inf)
        assert _position(rng) == _position(make_rng(3))  # drew nothing


def _position(rng):
    # where a make_rng generator is in its stream: Philox's block counter and
    # the next word of its buffered block
    state = rng.bit_generator.state
    return state["state"]["counter"].tolist(), state["buffer_pos"]


@pytest.mark.parametrize("n_sites, n_sus", [(100, 60.5), (5000, 1000.5)])
def test_absorb_mean_field_rejects_a_non_integer_count(n_sites, n_sus):
    with pytest.raises(TypeError):
        absorb_mean_field(n_sites, 2.0, n_sus, 10, make_rng(0))


def test_absorb_mean_field_edge_cases():
    rng, twin = make_rng(5), make_rng(5)
    assert absorb_mean_field(100, 2.0, 0, 7, rng) == (0, 7)  # pure decay
    assert rng.random() == twin.random()  # drew nothing
    assert absorb_mean_field(100, 2.0, 60, 0, rng) == (60, 0)  # nothing to spread
    assert rng.random() == twin.random()  # drew nothing
    # a*s so small that the first recovery run overflows int64: the lone
    # infected site still recovers first
    assert absorb_mean_field(100, 1e-20, 99, 1, rng) == (99, 1)
    # one infected site: the first event is its recovery w.p. 1 / (a*s + 1)
    a_s, draws = 2.0 * 60 / 100, 4000
    none = sum(absorb_mean_field(100, 2.0, 60, 1, make_rng(seed)) == (60, 1)
               for seed in range(draws))
    p = 1.0 / (a_s + 1.0)
    assert abs(none / draws - p) < 5 * np.sqrt(p * (1 - p) / draws)
    with pytest.raises(CountOverflowError):
        absorb_mean_field(100, 2.0, 90, 11, rng)
    with pytest.raises(CountOverflowError):
        absorb_mean_field(100, 2.0, -1, 1, rng)
    with pytest.raises(InvalidProfileError):
        absorb_mean_field(100, 0.0, 90, 10, rng)


@pytest.mark.filterwarnings("error")
def test_absorb_mean_field_takes_extreme_cells_without_warnings():
    # a*Gamma far below every threshold, or at and past float range (beta =
    # 1e308 on 10 sites), and a run over 10^6 sites from one infected one
    for seed in range(20):
        assert absorb_mean_field(100, 1e-300, 90, 10, make_rng(seed)) == (90, 10)
        assert absorb_mean_field(10, 1e308, 7, 3, make_rng(seed)) == (0, 3 + 2 * 7)
        assert absorb_mean_field(10, 1e308, 9, 1, make_rng(seed)) == (0, 1 + 2 * 9)
    n = 10**6
    for seed in range(20):
        final, events = absorb_mean_field(n, 2.0, n - 1, 1, make_rng(seed))
        assert events == 1 + 2 * (n - 1 - final)
        # dies out early, or ends near the root 0.2032 of x = e^{2(x-1)}
        assert final > n - 1000 or abs(final / n - 0.2032) < 0.01
