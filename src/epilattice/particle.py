"""Exact event-driven simulation of the lattice epidemic.

Site states are 0 (susceptible), 1 (infected), -1 (removed). A susceptible
site x becomes infected at rate

    beta * gamma^d * sum_y 1{eta(y) = 1} * w[x - y],

an infected site recovers at rate 1, and events are realized one at a time.
Nothing is approximated — the simulator implements the jump chain of the
continuous-time Markov process exactly. Two samplers realize it event by
event, and a third draws mean-field final sizes alone:

* finite-support kernels use thinning (Lewis & Shedler 1979; Cota &
  Ferreira 2017): every infected site recovers at rate 1 and fires
  infection attempts at the constant rate c = beta * gamma^d * sum(w), each
  aimed at y + z with probability w[z] / sum(w). An attempt commits only
  when its target is susceptible; a rejected one changes nothing but the
  clock. The proposal rate n_inf * (1 + c) is known exactly, no rate is
  stored, and a committed event costs at most 1 + c attempts on average;
* the mean-field kernel makes every susceptible site equivalent — the whole
  infection channel carries rate beta * gamma^d * n_sus * n_inf exactly, and
  the site is drawn uniformly from a susceptible registry;
* by that same equivalence the mean-field counts (n_sus, n_inf) form a
  Markov chain of their own: with s susceptible sites left, the next event
  is an infection with probability q(s) = a*s / (a*s + 1), a = beta *
  gamma^d, whatever n_inf is. So the recoveries before each infection are
  independent Geometric(q(s)) - 1 draws, one per s, and the run is absorbed
  once the recoveries so far use up the sites infected so far (compare
  Sellke, J. Appl. Probab. 20 (1983) 390). ``absorb_mean_field`` draws the
  final count this way, each run by inversion from one exponential, with
  the law ``run_to_absorption`` realizes but not its stream, and no event loop.

The registries (infected sites; on the mean-field path also susceptible
sites) are plain lists. A draw picks a registry slot, and the commit
removes that entry by moving the last one into its place and popping, so
add and remove are O(1) and no site-to-slot map is kept. Per-site rates
are computed on demand from the infected registry (``site_rates``) and
audited against the convolution definition (``audit_rates``). Random
numbers are consumed in a fixed per-event order, so a run is
bit-reproducible from (seed, config). The state owns its generator: the
thinning path prefetches blocks of ``UNIFORM_BLOCK`` uniforms, and the
mean-field path draws registry slots exactly as ``Generator.integers``
does, but inline from the bit generator's raw words, holding the buffered
32-bit half-word itself. Nothing else may draw from the generator while a
state runs on it.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    AbsorbedError,
    CountOverflowError,
    GridMismatchError,
    InvalidProfileError,
)
from .grid import DiscreteKernel, convolve

SUSCEPTIBLE = 0
INFECTED = 1
REMOVED = -1

#: Audit tolerance: largest max-abs difference allowed between the rates the
#: sampler realizes (``site_rates``) and their definition
#: (``fresh_site_rates``).
DRIFT_REBUILD_TOL = 1e-9

#: Variates drawn from the generator at a time: uniforms by the thinning
#: sampler, exponentials by ``absorb_mean_field``; fixed, so that consumption
#: is a function of (seed, config) alone.
UNIFORM_BLOCK = 4096


def make_rng(seed) -> np.random.Generator:
    """Counter-based generator (128-bit Philox) from a seed, or pass-through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


def _uniform_stream(rng: np.random.Generator) -> Iterator[float]:
    """Endless uniforms on [0, 1), drawn ``UNIFORM_BLOCK`` at a time."""
    while True:
        yield from rng.random(UNIFORM_BLOCK).tolist()


class EventRecord(NamedTuple):
    time: float
    kind: str  # "infection" | "recovery"
    site: int


class TrajectorySample(NamedTuple):
    """State snapshot: fractions sum to 1, and ``averages`` (optional) holds
    the empirical pairings gamma^d * sum_{eta=i} G(gamma x) with shape
    (2, n_functions) for i = 0, 1."""

    t: float
    x: float
    y: float
    z: float
    events: int
    averages: Optional[np.ndarray]


class FinalState(NamedTuple):
    x_inf: float
    events: int
    time: float


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

class EpidemicState:
    """Mutable simulation state over a grid/kernel/beta triple."""

    def __init__(self, kernel: DiscreteKernel, beta: float, eta: np.ndarray,
                 rng: np.random.Generator):
        grid = kernel.grid
        eta = np.array(eta, dtype=np.int8).ravel()  # a copy: runs mutate it
        if eta.size != grid.n_sites:
            raise GridMismatchError(
                f"eta has {eta.size} sites, grid has {grid.n_sites}")
        if not np.isin(eta, (SUSCEPTIBLE, INFECTED, REMOVED)).all():
            raise InvalidProfileError("eta entries must be -1, 0 or 1")
        if not beta > 0.0:
            raise InvalidProfileError(f"beta must be positive, got {beta}")
        self.kernel = kernel
        self.grid = grid
        self.beta = float(beta)
        self.eta = eta
        # the event loop reads and writes eta through this view, which takes
        # and gives Python ints instead of numpy scalars
        self._eta = memoryview(eta)
        self.rng = rng
        self.time = 0.0
        self.events = 0
        #: proposals drawn: committed events plus rejected thinning attempts
        self.attempts = 0
        self.uniform_path = kernel.uniform

        self.n_sus = int((eta == SUSCEPTIBLE).sum())
        self.n_inf = int((eta == INFECTED).sum())
        self.n_rem = grid.n_sites - self.n_sus - self.n_inf

        # registries: lists of sites in one state, addressed by the slot the
        # sampler draws; an entry leaves by swapping with the last and popping
        self._inf_sites = np.flatnonzero(eta == INFECTED).tolist()
        if self.uniform_path:
            self._sus_sites = np.flatnonzero(eta == SUSCEPTIBLE).tolist()
            self._unit_rate = self.beta * grid.cell_volume()
            self._exponential = rng.standard_exponential
            self._random = rng.random
            # Registry slots are drawn as Generator.integers(n) draws them,
            # but inline from raw 64-bit words; the state takes over the
            # generator's buffered 32-bit half-word. Generators without one
            # (MT19937 has 32-bit raw words) keep calling integers, as do
            # grids over 2**32 sites, where integers switches to 64-bit draws.
            bit_state = rng.bit_generator.state
            if "has_uint32" in bit_state and grid.n_sites <= 2**32:
                self._raw = rng.bit_generator.random_raw
                self._half = bit_state["uinteger"] if bit_state["has_uint32"] else None
            else:
                self._raw = None
                self._integers = rng.integers
        else:
            self._offsets = kernel.offsets.astype(np.int64)
            self._contrib = self.beta * grid.cell_volume() * kernel.weights
            self._attempt_rate = float(self._contrib.sum())
            self._cum_weights = np.cumsum(kernel.weights).tolist()
            # per offset, (stride, step) along each axis of the flat index
            strides = [grid.L**k for k in range(grid.d - 1, -1, -1)]
            self._shifts = [tuple(zip(strides, z)) for z in self._offsets.tolist()]
            self._uniform = _uniform_stream(rng).__next__

    # -- rates ---------------------------------------------------------------

    def infection_rate_total(self) -> float:
        """Total rate of the infection channel."""
        if self.uniform_path:
            return self._unit_rate * self.n_sus * self.n_inf
        return float(self.site_rates().sum())

    def site_rates(self) -> np.ndarray:
        """Per-site infection rates from the infected registry, in one pass.

        One ``np.bincount`` scatters every registered infected site's kernel
        contributions onto its support, so a susceptible site with no
        infected site in reach has rate exactly 0. The mean-field rate is a
        closed form.
        """
        sus = self.eta == SUSCEPTIBLE
        if self.uniform_path:
            return np.where(sus, self._unit_rate * self.n_inf, 0.0)
        shape = self.grid.shape
        coords = np.stack(np.unravel_index(
            np.array(self._inf_sites, dtype=np.int64), shape))
        # offset-major targets, so each site adds its contributions in offset order
        targets = np.ravel_multi_index(
            coords[:, None, :] + self._offsets.T[:, :, None], shape, mode="wrap")
        rates = np.bincount(targets.ravel(), weights=np.repeat(self._contrib, self.n_inf),
                            minlength=self.grid.n_sites)
        # bincount returns integer zeros when no site is infected
        return np.where(sus, rates, 0.0)

    def fresh_site_rates(self) -> np.ndarray:
        """From-scratch recomputation straight from the definition."""
        infected = (self.eta == INFECTED).astype(float).reshape(self.grid.shape)
        pressure = self.beta * convolve(self.kernel, infected).ravel()
        return np.where(self.eta == SUSCEPTIBLE, pressure, 0.0)

    def audit_rates(self) -> float:
        """Max abs difference between ``site_rates`` and ``fresh_site_rates``.

        The first reads the infected registry, the second ``eta``, so this
        checks the registry the sampler draws sources from against the state.
        """
        return float(np.abs(self.site_rates() - self.fresh_site_rates()).max())

    def fractions(self) -> tuple[float, float, float]:
        n = self.grid.n_sites
        return self.n_sus / n, self.n_inf / n, self.n_rem / n


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _broadcast_profile(grid, value, name) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(grid.shape, float(arr))
    if arr.shape != grid.shape:
        raise GridMismatchError(f"{name} shape {arr.shape} != grid {grid.shape}")
    return arr.ravel()


def init_random(kernel: DiscreteKernel, beta: float, rho0, rho1,
                seed) -> EpidemicState:
    """Product-measure initialization with marginals (rho0, rho1, rest).

    ``rho0``/``rho1`` may be scalars or per-site fields; each site is
    independently infected with probability rho1, susceptible with rho0,
    removed otherwise.
    """
    grid = kernel.grid
    r0 = _broadcast_profile(grid, rho0, "rho0")
    r1 = _broadcast_profile(grid, rho1, "rho1")
    if r0.min() < 0 or r1.min() < 0 or (r0 + r1).max() > 1.0 + 1e-12:
        raise InvalidProfileError("need rho0, rho1 >= 0 with rho0 + rho1 <= 1")
    rng = make_rng(seed)
    u = rng.random(grid.n_sites)
    eta = np.full(grid.n_sites, REMOVED, dtype=np.int8)
    eta[u < r1] = INFECTED
    eta[(u >= r1) & (u < r0 + r1)] = SUSCEPTIBLE
    return EpidemicState(kernel, beta, eta, rng)


def init_exact_counts(kernel: DiscreteKernel, beta: float, n_sus: int,
                      n_inf: int, seed) -> EpidemicState:
    """Exactly ``n_inf`` infected and ``n_sus`` susceptible sites, placed
    uniformly at random; remaining sites start removed."""
    grid = kernel.grid
    if n_sus < 0 or n_inf < 0 or n_sus + n_inf > grid.n_sites:
        raise CountOverflowError(
            f"counts ({n_sus}, {n_inf}) incompatible with {grid.n_sites} sites")
    rng = make_rng(seed)
    perm = rng.permutation(grid.n_sites)
    eta = np.full(grid.n_sites, REMOVED, dtype=np.int8)
    eta[perm[:n_inf]] = INFECTED
    eta[perm[n_inf:n_inf + n_sus]] = SUSCEPTIBLE
    return EpidemicState(kernel, beta, eta, rng)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def total_rate(state: EpidemicState) -> float:
    """Current total jump rate (recoveries at 1 each plus infections)."""
    return state.n_inf + state.infection_rate_total()


def _draw_event(state: EpidemicState):
    """Waiting time and next committed event, advancing the rng.

    Returns (dt, kind, site, slot): ``slot`` is the site's index in the
    registry it leaves (infected for a recovery, susceptible for a mean-field
    infection), or None for a thinning infection, whose target has no
    registry. On the thinning path dt includes the waits of the rejected
    attempts before the event.

    Raises:
        AbsorbedError: no infected site is left.
    """
    n_inf = state.n_inf
    if n_inf == 0:
        raise AbsorbedError("no infected sites left")
    if state.uniform_path:
        total = state._unit_rate * state.n_sus * n_inf + n_inf
        dt = state._exponential() / total
        if state._random() * total < n_inf:
            kind, n, registry = "recovery", n_inf, state._inf_sites
        else:
            kind, n, registry = "infection", state.n_sus, state._sus_sites
        if n == 1:
            slot = 0  # integers(1) draws nothing
        elif state._raw is None:
            slot = state._integers(n)
        else:
            # Lemire's bounded draw (ACM TOMACS 2019) on 32-bit halves, as
            # integers(n) does it: a raw word gives its low half first and
            # keeps the high half; the product word * n is rejected when its
            # low half is under (2**32 - n) % n
            while True:
                word = state._half
                if word is None:
                    word = state._raw()
                    state._half = word >> 32
                    word &= 0xFFFFFFFF
                else:
                    state._half = None
                m = word * n
                low = m & 0xFFFFFFFF
                if low >= n or low >= (0x100000000 - n) % n:
                    break
            slot = m >> 32
        return dt, kind, registry[slot], slot
    # thinning: proposals arrive at the constant rate n_inf * (1 + c); a
    # rejected attempt leaves the state as it was and only adds its wait
    u = state._uniform
    per_site = 1.0 + state._attempt_rate
    inf_sites, eta, L = state._inf_sites, state._eta, state.grid.L
    cum = state._cum_weights
    wait = 0.0
    while True:
        wait -= math.log(1.0 - u())
        slot = int(u() * n_inf)
        source = inf_sites[slot]
        if u() * per_site < 1.0:
            return wait / (n_inf * per_site), "recovery", source, slot
        target = 0
        for stride, step in state._shifts[bisect_right(cum, u() * cum[-1])]:
            target += ((source // stride + step) % L) * stride
        if eta[target] == SUSCEPTIBLE:
            return wait / (n_inf * per_site), "infection", target, None
        state.attempts += 1


def _commit(state: EpidemicState, dt: float, kind: str, site: int, slot) -> None:
    """Apply a drawn event; the site leaves its registry slot, if it has one,
    by swap-with-last, and a newly infected site is appended."""
    state.time += dt
    if kind == "infection":
        state._eta[site] = INFECTED
        if slot is not None:
            sus = state._sus_sites
            sus[slot] = sus[-1]
            sus.pop()
        state.n_sus -= 1
        state._inf_sites.append(site)
        state.n_inf += 1
    else:
        state._eta[site] = REMOVED
        inf = state._inf_sites
        inf[slot] = inf[-1]
        inf.pop()
        state.n_inf -= 1
        state.n_rem += 1
    state.events += 1
    state.attempts += 1


def gillespie_step(state: EpidemicState) -> EventRecord:
    """Advance by exactly one event.

    Raises:
        AbsorbedError: the epidemic is over (no infected sites).
    """
    dt, kind, site, slot = _draw_event(state)
    _commit(state, dt, kind, site, slot)
    return EventRecord(state.time, kind, site)


def _snapshot(state: EpidemicState, t: float,
              test_functions: Optional[np.ndarray]) -> TrajectorySample:
    x, y, z = state.fractions()
    averages = None
    if test_functions is not None:
        vol = state.grid.cell_volume()
        sus = (state.eta == SUSCEPTIBLE).astype(float)
        inf = (state.eta == INFECTED).astype(float)
        averages = vol * np.stack([test_functions @ sus, test_functions @ inf])
    return TrajectorySample(t, x, y, z, state.events, averages)


def run_sampled(state: EpidemicState, sample_times: Sequence[float],
                test_functions: Optional[np.ndarray] = None) -> list[TrajectorySample]:
    """Run to the last sample time, snapshotting exactly at each sample.

    The event clock is never disturbed: a waiting time is drawn once per
    event and any sample boundaries it crosses are emitted from the frozen
    pre-event state. After absorption the remaining samples repeat the final
    state. ``test_functions`` is an optional (n_funcs, n_sites) array of
    site-evaluated observables.
    """
    times = [float(t) for t in sample_times]
    if not times or any(t < 0 for t in times) or np.any(np.diff(times) <= 0):
        raise InvalidProfileError("sample times must be strictly increasing, >= 0")
    if test_functions is not None:
        test_functions = np.atleast_2d(np.asarray(test_functions, dtype=float))
        if test_functions.shape[1] != state.grid.n_sites:
            raise GridMismatchError("test functions not evaluated on this grid")

    out: list[TrajectorySample] = []
    k = 0
    while k < len(times):
        try:
            dt, kind, site, slot = _draw_event(state)
        except AbsorbedError:
            while k < len(times):
                out.append(_snapshot(state, times[k], test_functions))
                k += 1
            return out
        while k < len(times) and state.time + dt >= times[k]:
            out.append(_snapshot(state, times[k], test_functions))
            k += 1
        _commit(state, dt, kind, site, slot)
    return out


def run_to_absorption(state: EpidemicState) -> FinalState:
    """Run until no infected site remains; returns the surviving fraction.

    Total work is bounded: each site is infected at most once and each
    infection recovers once, so the event count never exceeds 2 * n_sites.
    """
    while state.n_inf > 0:
        _commit(state, *_draw_event(state))
    return FinalState(state.n_sus / state.grid.n_sites, state.events, state.time)


def absorb_mean_field(n_sites: int, beta: float, n_sus: int, n_inf: int,
                      rng: np.random.Generator) -> tuple[int, int]:
    """(final susceptible count, committed events) of a mean-field run from
    ``n_sus`` susceptible and ``n_inf`` infected sites, drawn from the
    counts' absorption chain (module docstring); no site, event or time is
    simulated.

    Infection k (k = 0, 1, ...) happens with s = n_sus - k susceptible sites
    left, after floor(E / log1p(a*s)) recoveries, E standard exponential:
    Geometric(q(s)) - 1 by inversion (Devroye 1986, ch. X). The run absorbs
    at the first k whose recoveries so far reach n_inf + k, else at k = n_sus,
    leaving n_sus - k susceptible sites after n_inf + 2k events. The float64
    sums are exact integers below n_sites until that k, where monotone
    rounding cannot drop below n_inf + k; no huge run wraps as in int64.
    Exponentials are drawn ``UNIFORM_BLOCK`` at a time, up to the block that
    absorbs.
    """
    if n_sus < 0 or n_inf < 0 or n_sus + n_inf > n_sites:
        raise CountOverflowError(
            f"counts ({n_sus}, {n_inf}) incompatible with {n_sites} sites")
    if not beta > 0.0:
        raise InvalidProfileError(f"beta must be positive, got {beta}")
    if n_inf == 0:
        return n_sus, 0
    a = beta / n_sites
    recovered = 0  # recoveries before infection k0
    for k0 in range(0, n_sus, UNIFORM_BLOCK):
        k = np.arange(k0, min(k0 + UNIFORM_BLOCK, n_sus))
        cum = rng.standard_exponential(k.size) / np.log1p(a * (n_sus - k))
        np.cumsum(np.floor(cum, out=cum), out=cum)
        hit = np.flatnonzero(cum >= n_inf + k - recovered)
        if hit.size:
            k_end = k0 + int(hit[0])
            return n_sus - k_end, n_inf + 2 * k_end
        recovered += int(cum[-1])
    return 0, n_inf + 2 * n_sus
