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
  final count this way, each run by inversion from one exponential read
  in blocks sized from the deterministic final size, with the law
  ``run_to_absorption`` realizes but not its stream, and no event loop.

The registries (infected sites; on the mean-field path also susceptible
sites) are plain lists. A draw picks a registry slot, and the commit
removes that entry by moving the last one into its place and popping, so
add and remove are O(1) and no site-to-slot map is kept. Each sampler
draws and commits in one loop over locals (``_advance``). The thinning
constants are built once per kernel: the cumulative weights, and the
haloed site index (``DiscreteKernel._index``), through which an attempt
finds its target site with one addition and two lookups and no division.
Per-site rates are computed on demand from the infected registry through
the same index (``site_rates``) and audited against the convolution
definition (``audit_rates``). Random numbers are consumed in a
fixed per-event order, so a run is bit-reproducible from (seed, config).
The state owns its generator: the thinning path reads uniforms by index
from blocks of ``UNIFORM_BLOCK``, and the mean-field path draws registry
slots exactly as ``Generator.integers`` does, but inline from the bit
generator's raw words. It takes a buffered 32-bit half-word out of the
generator when it is built and holds it itself, so the generator never
serves that word a second time. Nothing else may draw from the generator
while a state runs on it.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_right
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    AbsorbedError,
    CountOverflowError,
    GridMismatchError,
    InvalidProfileError,
)
from .grid import DiscreteKernel, convolve
from .pde import DensityField, check_sample_times

SUSCEPTIBLE = 0
INFECTED = 1
REMOVED = -1

#: Audit tolerance: largest max-abs difference allowed between the rates the
#: sampler realizes (``site_rates``) and their definition
#: (``fresh_site_rates``).
DRIFT_REBUILD_TOL = 1e-9

#: Uniforms the thinning sampler draws from the generator at a time, and the
#: most exponentials ``absorb_mean_field`` draws at a time; fixed, so that
#: consumption is a function of (seed, config) alone.
UNIFORM_BLOCK = 4096


def make_rng(seed) -> np.random.Generator:
    """Counter-based generator (128-bit Philox) from a seed, or pass-through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


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
        values = np.asarray(eta).ravel()
        if values.size != grid.n_sites:
            raise GridMismatchError(
                f"eta has {values.size} sites, grid has {grid.n_sites}")
        # the counts reach n_sites only if every value, before the int8 cast, is -1, 0 or 1
        sus, inf = values == SUSCEPTIBLE, values == INFECTED
        self.n_sus, self.n_inf = int(np.count_nonzero(sus)), int(np.count_nonzero(inf))
        self.n_rem = int(np.count_nonzero(values == REMOVED))
        if self.n_sus + self.n_inf + self.n_rem != grid.n_sites:
            raise InvalidProfileError("eta entries must be -1, 0 or 1")
        if not beta > 0.0:
            raise InvalidProfileError(f"beta must be positive, got {beta}")
        self.kernel = kernel
        self.grid = grid
        self.beta = float(beta)
        self.eta = values.astype(np.int8)  # a copy: runs mutate it
        # the event loop reads and writes eta through this view, which takes
        # and gives Python ints instead of numpy scalars
        self._eta = memoryview(self.eta)
        self.rng = rng
        self.time = 0.0
        self.events = 0
        #: proposals drawn: committed events plus rejected thinning attempts
        self.attempts = 0
        self.uniform_path = kernel.uniform

        # registries: lists of sites in one state, addressed by the slot the
        # sampler draws; an entry leaves by swapping with the last and popping
        self._inf_sites = np.flatnonzero(inf).tolist()
        if self.uniform_path:
            self._sus_sites = np.flatnonzero(sus).tolist()
            self._unit_rate = self.beta * grid.cell_volume()
            # Registry slots are drawn as Generator.integers(n) draws them,
            # but inline from raw 64-bit words; the state takes the
            # generator's buffered 32-bit half-word out of it, so the word is
            # served once. Generators without one (MT19937 has 32-bit raw
            # words) keep calling integers, as do grids over 2**32 sites,
            # where integers switches to 64-bit draws.
            bit_state = rng.bit_generator.state
            if "has_uint32" in bit_state and grid.n_sites <= 2**32:
                self._raw, self._half = rng.bit_generator.random_raw, None
                if bit_state["has_uint32"]:
                    self._half, bit_state["has_uint32"] = bit_state["uinteger"], 0
                    rng.bit_generator.state = bit_state
            else:
                self._raw = self._half = None
        else:
            self._contrib = self.beta * grid.cell_volume() * kernel.weights
            self._attempt_rate = float(self._contrib.sum())
            self._uniforms, self._next_uniform = [], 0  # a block, next unread index

    # -- rates ---------------------------------------------------------------

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
        pad, site_at, step = self.kernel._index
        # offset-major targets, so each site adds its contributions in offset order
        targets = site_at[step[:, None] + pad[self._inf_sites]]
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

def _check_counts(n_sites: int, n_sus: int, n_inf: int) -> None:
    if n_sus < 0 or n_inf < 0 or n_sus + n_inf > n_sites:
        raise CountOverflowError(
            f"counts ({n_sus}, {n_inf}) incompatible with {n_sites} sites")


def init_random(kernel: DiscreteKernel, beta: float, rho0, rho1,
                seed) -> EpidemicState:
    """Product-measure initialization with marginals (rho0, rho1, rest).

    ``rho0``/``rho1`` may be scalars or per-site fields, checked as a
    :class:`~epilattice.pde.DensityField`; each site is independently
    infected with probability rho1, susceptible with rho0, removed otherwise.
    """
    grid = kernel.grid
    field = DensityField(grid, rho0, rho1)
    r0, r1 = field.u0.ravel(), field.u1.ravel()
    rng = make_rng(seed)
    u = rng.random(grid.n_sites)
    # u < rho1 implies u < rho0 + rho1, so eta is 1, 0 or -1
    eta = (u < r1).astype(np.int8) + (u < r0 + r1) - 1
    return EpidemicState(kernel, beta, eta, rng)


def init_exact_counts(kernel: DiscreteKernel, beta: float, n_sus: int,
                      n_inf: int, seed) -> EpidemicState:
    """Exactly ``n_inf`` infected and ``n_sus`` susceptible sites, placed
    uniformly at random; remaining sites start removed."""
    grid = kernel.grid
    _check_counts(grid.n_sites, n_sus, n_inf)
    rng = make_rng(seed)
    perm = rng.permutation(grid.n_sites)
    eta = np.full(grid.n_sites, REMOVED, dtype=np.int8)
    eta[perm[:n_inf]] = INFECTED
    eta[perm[n_inf:n_inf + n_sus]] = SUSCEPTIBLE
    return EpidemicState(kernel, beta, eta, rng)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def _advance(state: EpidemicState, t_stop: float, event=None):
    """Draw and commit events until one would reach time ``t_stop``; return
    that one uncommitted, as (dt, kind, site, slot), or None once no site is
    infected. ``slot`` indexes the registry the site leaves (infected for a
    recovery, susceptible for a mean-field infection); a thinning infection
    has None, and its dt includes the waits of the attempts rejected before
    it. An ``event`` returned earlier is committed first; if that brings the
    clock to ``t_stop``, nothing is drawn. The state's fields are held in
    locals and written back before this returns.
    """
    time, events, attempts = state.time, state.events, state.attempts
    n_sus, n_inf, n_rem = state.n_sus, state.n_inf, state.n_rem
    eta, inf_sites, rng = state._eta, state._inf_sites, state.rng
    uniform = state.uniform_path
    if uniform:
        sus_sites, unit_rate, raw, half = (state._sus_sites, state._unit_rate,
                                           state._raw, state._half)
        exponential, random = rng.standard_exponential, rng.random
    else:
        # thinning: proposals arrive at the constant rate n_inf * (1 + c); a
        # rejected attempt leaves the state as it was and only adds its wait.
        # An attempt reads its uniforms from the block at index i: wait,
        # source slot, recovery test and, for an infection attempt, offset;
        # the block is refilled before an attempt that might run past it.
        per_site = 1.0 + state._attempt_rate
        cum = state.kernel._thinning
        pad, site_at, step = map(memoryview, state.kernel._index)
        cum_total, log = cum[-1], math.log
        block, i = state._uniforms, state._next_uniform
        size = len(block)
    while n_inf:
        if event is not None:  # returned by an earlier call: commit it first
            dt, kind, site, slot = event
            recovery = kind == "recovery"
        elif uniform:
            total = unit_rate * n_sus * n_inf + n_inf
            dt = exponential() / total
            recovery = random() * total < n_inf
            n, registry = (n_inf, inf_sites) if recovery else (n_sus, sus_sites)
            if n == 1:
                slot = 0  # integers(1) draws nothing
            elif raw is None:
                slot = rng.integers(n)
            else:
                # Lemire's bounded draw (ACM TOMACS 2019) on 32-bit halves, as
                # integers(n) does it: a raw word gives its low half first and
                # keeps the high half; the product word * n is rejected when
                # its low half is under (2**32 - n) % n
                while True:
                    if half is None:
                        word = raw()
                        word, half = word & 0xFFFFFFFF, word >> 32
                    else:
                        word, half = half, None
                    m = word * n
                    low = m & 0xFFFFFFFF
                    if low >= n or low >= (0x100000000 - n) % n:
                        break
                slot = m >> 32
            site = registry[slot]
        else:
            wait = 0.0
            while True:
                if i + 4 > size:  # the unread tail stays first in line
                    block = block[i:] + rng.random(UNIFORM_BLOCK).tolist()
                    i, size = 0, len(block)
                wait -= log(1.0 - block[i])
                slot = int(block[i + 1] * n_inf)
                site = inf_sites[slot]
                recovery = block[i + 2] * per_site < 1.0
                if recovery:
                    i += 3
                    break
                site = site_at[pad[site] + step[bisect_right(cum, block[i + 3] * cum_total)]]
                i += 4
                if eta[site] == SUSCEPTIBLE:
                    slot = None
                    break
                attempts += 1
            dt = wait / (n_inf * per_site)
        if event is None and time + dt >= t_stop:
            event = dt, "recovery" if recovery else "infection", site, slot
            break
        event = None
        time += dt
        events += 1
        attempts += 1
        if recovery:
            eta[site] = REMOVED
            inf_sites[slot] = inf_sites[-1]
            inf_sites.pop()
            n_inf -= 1
            n_rem += 1
        else:
            if slot is not None:
                sus_sites[slot] = sus_sites[-1]
                sus_sites.pop()
            eta[site] = INFECTED
            n_sus -= 1
            inf_sites.append(site)
            n_inf += 1
        if time >= t_stop:
            break
    if uniform:
        state._half = half
    else:
        state._uniforms, state._next_uniform = block, i
    state.time, state.events, state.attempts = time, events, attempts
    state.n_sus, state.n_inf, state.n_rem = n_sus, n_inf, n_rem
    return event


def gillespie_step(state: EpidemicState) -> EventRecord:
    """Advance by exactly one event.

    Raises:
        AbsorbedError: the epidemic is over (no infected sites).
    """
    event = _advance(state, state.time)  # every event reaches the current time
    if event is None:
        raise AbsorbedError("no infected sites left")
    _advance(state, state.time, event)  # commits it and draws nothing
    return EventRecord(state.time, event[1], event[2])


def run_sampled(state: EpidemicState, sample_times: Sequence[float],
                test_functions: Optional[np.ndarray] = None) -> list[TrajectorySample]:
    """Run to the last sample time, snapshotting exactly at each sample.

    The event clock is never disturbed: a waiting time is drawn once per
    event and any sample boundaries it crosses are emitted from the frozen
    pre-event state. After absorption the remaining samples repeat the final
    state. ``test_functions`` is an optional (n_funcs, n_sites) array of
    site-evaluated observables.
    """
    times = check_sample_times(sample_times)
    if test_functions is not None:
        test_functions = np.atleast_2d(np.asarray(test_functions, dtype=float))
        if test_functions.shape[1] != state.grid.n_sites:
            raise GridMismatchError("test functions not evaluated on this grid")
        masks = np.empty((2, state.grid.n_sites))  # both pairings in one product

    out: list[TrajectorySample] = []
    event = None  # drawn but uncommitted: the first to reach the sample time
    for t in times:
        if event is None or state.time + event[0] < t:
            event = _advance(state, t, event)
        averages = None
        if test_functions is not None:
            np.equal(state.eta, SUSCEPTIBLE, out=masks[0], casting="unsafe")
            np.equal(state.eta, INFECTED, out=masks[1], casting="unsafe")
            averages = state.grid.cell_volume() * (masks @ test_functions.T)
        out.append(TrajectorySample(t, *state.fractions(), state.events, averages))
    _advance(state, times[-1], event)  # commits the event that crossed times[-1]
    return out


def run_to_absorption(state: EpidemicState) -> FinalState:
    """Run until no infected site remains; returns the surviving fraction.

    Total work is bounded: each site is infected at most once and each
    infection recovers once, so the event count never exceeds 2 * n_sites.
    """
    _advance(state, math.inf)
    return FinalState(state.n_sus / state.grid.n_sites, state.events, state.time)


def absorb_mean_field(n_sites: int, beta: float, n_sus: int, n_inf: int,
                      rng: np.random.Generator) -> tuple[int, int]:
    """(final susceptible count, committed events) of a mean-field run from
    ``n_sus`` susceptible and ``n_inf`` infected sites, drawn from the
    counts' absorption chain (module docstring); no site, event or time is
    simulated.

    Infection k (k = 0, 1, ...) happens with s = n_sus - k susceptible sites
    left, after r_k = floor(E / log1p(a*s)) recoveries, E standard
    exponential: Geometric(q(s)) - 1 by inversion (Devroye 1986, ch. X). The
    run absorbs at the first k whose sum of r_j - 1 reaches n_inf - 1 (its
    recoveries reach n_inf + k), else at k = n_sus, leaving n_sus - k
    susceptible sites after n_inf + 2k events. The float64 sums and the
    threshold carried across blocks are exact integers below n_sites in size
    until that k, where monotone rounding cannot drop below the threshold; no
    huge run wraps as in int64. Blocks hold at most ``UNIFORM_BLOCK`` draws,
    sized to end near 1.1 k* + 64 (k* the deterministic absorption point),
    then full; draws are sequential, so the sizes change no result.
    """
    _check_counts(n_sites, n_sus, n_inf)
    if not beta > 0.0:
        raise InvalidProfileError(f"beta must be positive, got {beta}")
    if n_inf == 0:
        return n_sus, 0
    a = beta / n_sites
    # k* solves (1/a) log(n_sus / (n_sus - k)) = n_inf + k. In u = log(1 -
    # k/n_sus) that is h(u) = u + a (n_inf + n_sus (1 - e^u)) = 0, h concave,
    # so Newton steps from the bound u = -a (n_inf + n_sus) rise to the root.
    u = -a * (n_inf + n_sus)
    for _ in range(6):
        g = a * n_sus * math.exp(u)
        if not g < 1.0:
            break
        u -= (u + a * (n_inf + n_sus) - g) / (1.0 - g)
    k_est = -n_sus * math.expm1(u)
    end = min(n_sus, math.ceil(1.1 * k_est) + 64) if k_est < n_sus else n_sus
    need = n_inf - 1.0  # what this block's sum of r_j - 1 must reach
    for start, stop in ((0, end), (end, operator.index(n_sus))):
        for k0 in range(start, stop, UNIFORM_BLOCK):
            m = min(UNIFORM_BLOCK, stop - k0)
            lam = np.arange(n_sus - k0, n_sus - k0 - m, -1.0)
            np.log1p(np.multiply(lam, a, out=lam), out=lam)
            runs = rng.standard_exponential(m)
            np.floor(np.divide(runs, lam, out=runs), out=runs)
            runs -= 1.0
            np.cumsum(runs, out=runs)
            hit = np.flatnonzero(runs >= need)
            if hit.size:
                k_end = k0 + int(hit[0])
                return n_sus - k_end, n_inf + 2 * k_end
            need -= runs[-1]
    return 0, n_inf + 2 * n_sus
