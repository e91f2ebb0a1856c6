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
  stored, and a committed event costs at most 1 + c attempts on average.
  After ``REJECTION_STREAK`` rejections in a row (at a huge c they may never
  end) the event is drawn from the per-site rates instead, exactly, since
  waits are memoryless;
* the mean-field kernel makes every susceptible site equivalent — the whole
  infection channel carries rate beta * gamma^d * n_sus * n_inf exactly, and
  the site is drawn uniformly from a susceptible registry;
* by that same equivalence the mean-field final count has Sellke's
  threshold form (Sellke, J. Appl. Probab. 20 (1983) 390; Ball, Adv.
  Appl. Probab. 18 (1986) 289): every susceptible site holds an Exp(1)
  threshold, every infected site an Exp(1) infectious period, and a site
  is infected once a = beta * gamma^d times the periods of those infected
  so far passes its threshold. ``absorb_mean_field`` draws the final count
  this way, with the law ``run_to_absorption`` realizes but not its
  stream, and no event loop. Sorted thresholds and period sums are drawn
  in blocks whose sums have closed-form laws, so only the few blocks
  around the absorption point are drawn one number per site.

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
from blocks of ``UNIFORM_BLOCK``, read ahead of use, and the mean-field
path draws registry slots as ``Generator.integers`` draws them, from the
bit generator's own words (``BitGenerator.ctypes``); no generator state
is ever edited. Those reads skip the bit generator's lock, so nothing
else may draw from a state's generator while the state runs on it.
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

#: Uniforms the thinning sampler draws from the generator at a time (at
#: least 7); fixed, so that consumption is a function of (seed, config) alone.
UNIFORM_BLOCK = 4096

#: Rejected thinning attempts in a row after which the sampler draws the next
#: event exactly from the per-site rates instead (``_advance``).
REJECTION_STREAK = 64

#: Most positions in an ``absorb_mean_field`` block and most blocks in one
#: of its rounds: no array it makes holds more than 6 x BLOCK_MAX floats
#: (192 KB).
BLOCK_MAX = 2**12


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
            # the words Generator.integers(n) and random() read, served by the
            # bit generator itself; over 2**32 sites integers switches to
            # 64-bit draws, and is called instead
            words = rng.bit_generator.ctypes
            self._words = (words.state, words.next_double,
                           words.next_uint32 if grid.n_sites <= 2**32 else None)
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
        weights = np.repeat(self._contrib, len(self._inf_sites))
        rates = np.bincount(targets.ravel(), weights=weights, minlength=self.grid.n_sites)
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
        sus_sites, unit_rate = state._sus_sites, state._unit_rate
        bits, next_double, next_uint32 = state._words
        exponential = rng.standard_exponential
    else:
        # thinning: proposals arrive at the constant rate n_inf * (1 + c); a
        # rejected attempt leaves the state as it was and only adds its wait.
        # An attempt reads its uniforms from the block at index i: wait,
        # source slot, recovery test and, for an infection attempt, offset;
        # an event drawn from the rates after REJECTION_STREAK rejections
        # reads three: wait, kind and site. The block is refilled before an
        # attempt that leaves fewer than those three unread.
        per_site = 1.0 + state._attempt_rate
        cum = state.kernel._thinning
        pad, site_at, step = map(memoryview, state.kernel._index)
        cum_total, log, streak = cum[-1], math.log, REJECTION_STREAK
        block, i = state._uniforms, state._next_uniform
        size = len(block)
    while n_inf:
        if event is not None:  # returned by an earlier call: commit it first
            dt, kind, site, slot = event
            recovery = kind == "recovery"
        elif uniform:
            total = unit_rate * n_sus * n_inf + n_inf
            dt = exponential() / total
            recovery = next_double(bits) * total < n_inf
            n, registry = (n_inf, inf_sites) if recovery else (n_sus, sus_sites)
            if n == 1:
                slot = 0  # integers(1) draws nothing
            elif next_uint32 is None:
                slot = rng.integers(n)
            else:
                # Lemire's bounded draw (ACM TOMACS 2019) on 32-bit words, as
                # integers(n) does it: the product word * n is redrawn while
                # its low half is under (2**32 - n) % n, which is below n
                m = next_uint32(bits) * n
                while m & 0xFFFFFFFF < n and m & 0xFFFFFFFF < (0x100000000 - n) % n:
                    m = next_uint32(bits) * n
                slot = m >> 32
            site = registry[slot]
        else:
            wait, left = 0.0, streak  # left: rejections until the exact draw
            while True:
                if i + 7 > size:  # the unread tail stays first in line
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
                left -= 1
                if not left:
                    # a long run of rejections: as waits are memoryless, the
                    # event still to come is drawn from the rates instead
                    rate, recovery, site, slot = _draw_from_rates(
                        state, block[i + 1], block[i + 2])
                    wait -= log(1.0 - block[i]) * (n_inf * per_site / rate)
                    i += 3
                    break
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
    if not uniform:
        state._uniforms, state._next_uniform = block, i
    state.time, state.events, state.attempts = time, events, attempts
    state.n_sus, state.n_inf, state.n_rem = n_sus, n_inf, n_rem
    return event


def _draw_from_rates(state: EpidemicState, u_kind: float, u_pick: float):
    """(n_inf + R, recovery?, site, slot) of a thinning run's next event,
    drawn from the per-site rates (total R) without thinning: a recovery
    w.p. n_inf / (n_inf + R) by ``u_kind``, then ``u_pick`` picks an infected
    site uniformly or a susceptible one by rate. Reads the registry only."""
    inf_sites = state._inf_sites
    n_inf = len(inf_sites)
    rates = state.site_rates()
    sites = np.flatnonzero(rates)  # every susceptible site in reach, only those
    cum = np.cumsum(rates[sites])
    rate = n_inf + (float(cum[-1]) if sites.size else 0.0)
    if u_kind * rate < n_inf or not sites.size:
        slot = int(u_pick * n_inf)
        return rate, True, inf_sites[slot], slot
    pick = int(np.searchsorted(cum, u_pick * cum[-1], side="right"))
    return rate, False, int(sites[min(pick, sites.size - 1)]), None


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


def _absorption_estimate(a: float, n_sus: int, n_inf: int) -> tuple[float, float]:
    """(k, end) for ``absorb_mean_field``: its deterministic absorption point,
    and k plus 4 sd of the final count, or n_sus where no sd is finite."""
    # k solves (1/a) log(n_sus / (n_sus - k)) = n_inf + k. In u = log(1 -
    # k/n_sus) that is h(u) = u + a (n_inf + n_sus (1 - e^u)) = 0, h concave,
    # so Newton steps from the bound u = -a (n_inf + n_sus) rise to the root.
    u = -a * (n_inf + n_sus)
    for _ in range(6):
        g = a * n_sus * math.exp(u)
        if not g < 1.0:
            break
        u -= (u + a * (n_inf + n_sus) - g) / (1.0 - g)
    k = -n_sus * math.expm1(u)
    g = a * (n_sus - k)
    if not g < 1.0:
        return k, n_sus
    # the final count's variance, linearising the threshold construction at
    # k: threshold and period noise
    var = (k * (1.0 - k / n_sus) + g * g * (n_inf + k)) / (1.0 - g) ** 2
    return k, k + 4.0 * math.sqrt(var)


def absorb_mean_field(n_sites: int, beta: float, n_sus: int, n_inf: int,
                      rng: np.random.Generator) -> tuple[int, int]:
    """(final susceptible count, committed events) of a mean-field run from
    ``n_sus`` susceptible and ``n_inf`` infected sites, drawn from Sellke's
    threshold form (module docstring); no site, event or time is simulated.

    Let T_(1) < T_(2) < ... be the sorted Exp(1) thresholds of the n_sus
    susceptible sites, T_(n_sus + 1) = inf, and S_m a sum of m Exp(1)
    periods. The run absorbs at k* = min{k >= 0 : T_(k+1) > a*S_(n_inf+k)},
    a = beta / n_sites, leaving n_sus - k* susceptible sites after
    n_inf + 2k* events.

    Positions k are walked in rounds of equal blocks, one gamma draw giving
    every block's threshold spacings and period sum. Given T_(k) = x, the N
    thresholds above x are x + Exp(1) each, so the j-th of them is
    x - log1p(-G_j / G_(N+1)), G_j a sum of j exponentials. A block whose
    last threshold lies below the pressure before it holds no crossing; from
    the first other one on, blocks are filled position by position, a few
    per pass, from normalized exponential partial sums (exact given the
    block's sums: the Dirichlet bridge), and the first crossing is k*. The
    first round spans the deterministic absorption point plus 4 sd of the
    final count, a block about its square root (at least 64 positions).
    Thresholds are compared in units of 1/a, so no a*S overflows.
    """
    _check_counts(n_sites, n_sus, n_inf)
    if not beta > 0.0:
        raise InvalidProfileError(f"beta must be positive, got {beta}")
    n_sus = operator.index(n_sus)
    if n_inf == 0 or n_sus == 0:
        return n_sus, n_inf
    a = beta / n_sites
    s = rng.standard_gamma(n_inf)  # S_(n_inf)
    x = rng.standard_exponential() / n_sus  # T_(1)
    if x > a * s:
        return n_sus, n_inf
    k, (k_est, span) = 1, _absorption_estimate(a, n_sus, n_inf)
    size = min(max(64, math.isqrt(math.ceil(k_est))), BLOCK_MAX)
    while k < n_sus:  # x = T_(k), s = S_(n_inf + k - 1)
        left = n_sus - k
        nb = min(max(1, math.ceil(min(span, left) / size)), BLOCK_MAX)
        r = min(left - (nb - 1) * size, size)  # positions in the last block
        m = (nb - 1) * size + r
        g = rng.standard_gamma(size, (2, nb))  # threshold spacings; periods
        if r < size:
            g[:, -1] = rng.standard_gamma(r, 2)
        g[0] /= -(g[0].sum() + rng.standard_gamma(left + 1 - m))  # -G / G_(N+1)
        hi = np.add.accumulate(g, axis=1)
        lo = hi - g
        lo[1] += s  # the pressure before each block
        ends = np.log1p(hi[0])
        np.subtract(x, ends, out=ends)  # each block's last threshold
        live = ends / a > lo[1]  # the other blocks hold no crossing
        i, w = 0, 3  # the crossing is within 3 live blocks in most runs
        while live[i:].any():
            i += int(live[i:].argmax())
            j = min(i + w, nb)
            e = rng.standard_exponential((2, j - i, size))
            if r < size and j == nb:
                e[:, -1, r:] = 0.0  # a crossing past r is one at n_sus
            c = np.add.accumulate(e, axis=2)
            c /= c[:, :, -1:]
            c *= g[:, i:j, None]
            c += lo[:, i:j, None]  # -G / G_(N+1) and pressure at each position
            t = np.log1p(c[0], out=c[0])
            hit = (x - t) / a > c[1]
            h = int(hit.argmax())
            if hit.flat[h]:
                k_end = min(k + i * size + h, n_sus)
                return n_sus - k_end, n_inf + 2 * k_end
            i, w = j, min(2 * w, max(1, BLOCK_MAX // size))
        k += m
        x = float(ends[-1])
        s += float(hi[1, -1])
        span = left
    return 0, n_inf + 2 * n_sus
