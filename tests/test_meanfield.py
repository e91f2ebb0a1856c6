"""Planar mean-field system: trajectory, phase curve, peak height, final sizes.

Numeric literals were computed independently with mpmath (40 digits) by
bisection on the defining equations; see the tolerances at the assertions.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from epilattice.errors import DomainError, InvalidProfileError
from epilattice.meanfield import (
    MeanFieldParams,
    _bisect,
    final_size,
    hat_x_infinity,
    ode_integrate,
    peak_height,
    phase_curve,
    xinf_max,
)

FINAL_SIZE_CASES = [
    ((2.0, 0.99, 0.01), 0.19979603232320074),
    ((0.5, 0.9, 0.1), 0.8243143337985063),
    ((1.5, 0.5, 0.5), 0.13702193127829431),
    ((2.0, 0.9, 0.1), 0.17171202838115674),
]

HAT_X_CASES = [
    (1.1, 0.82386585636819045),
    (1.5, 0.41718835613418861),
    (2.0, 0.20318786997997995),
    (3.0, 0.059520209292640369),
]

# x_inf at (beta, rho0, rho1), each the double nearest the literal, from
# mpmath's Lambert W at 60 digits: x = -W0(-beta rho0 e^(-beta (rho0 + rho1))) / beta
LAMBERT_FINAL_SIZE_CASES = [
    # near threshold, where x - rho0 e^(-beta (rho0 + rho1 - x)) cancels
    ((1.0001, 0.99999, 1e-12), 0.99981001428680101134),
    ((1 + 1e-6, 1 - 1e-9, 1e-9), 0.99995426817423300701),
    ((1 + 1e-8, 1 - 1e-12, 1e-12), 0.99999857575176373311),
    # ordinary cells
    ((2.0, 0.99, 0.01), 0.19979603232320073888),
    ((1.5, 0.999, 0.001), 0.41607693287771027365),
    ((0.5, 0.9, 0.1), 0.82431433379850631926),
    ((5.0, 0.3, 0.2), 0.028379927336073632127),
    ((0.8, 0.95, 0.05), 0.82762948559588244464),
    # rho0 + rho0 expm1(-beta (rho0 + rho1)) rounds to 0: the root is the
    # bracket's end, and x = rho0 e^(-beta (rho0 + rho1)), or 0 once that
    # underflows (4.6e-435 at beta = 1000)
    ((50.0, 0.5, 0.5), 9.6437492398195889151e-23),
    ((1000.0, 0.9, 0.1), 0.0),
]

# hat_x at beta = 1 + 10^-k (the double nearest to it), from mpmath's Lambert
# W at 50 digits: x = -W0(-beta e^-beta) / beta
NEAR_CRITICAL_HAT_X = [
    (2, 0.98026358956040822663),
    (4, 0.99980002666355592124),
    (6, 0.99999800000266682809),
    (8, 0.99999998000000038822),
    (10, 0.99999999979999998348),
]


# ---------------------------------------------------------------------------
# params and trajectory
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(InvalidProfileError):
        MeanFieldParams(0.0, 0.5, 0.1)
    with pytest.raises(InvalidProfileError):
        MeanFieldParams(1.0, 0.7, 0.4)
    with pytest.raises(InvalidProfileError):
        MeanFieldParams(1.0, -0.1, 0.2)
    for rho0, rho1 in ((math.nan, 0.1), (0.5, math.nan)):
        with pytest.raises(InvalidProfileError):
            MeanFieldParams(2.0, rho0, rho1)


def test_ode_conserves_total_mass():
    traj = ode_integrate(MeanFieldParams(2.0, 0.99, 0.01), 20.0)
    total = traj.x + traj.y + traj.z
    assert np.abs(total - 1.0).max() <= 1e-9
    assert np.all(np.diff(traj.x) <= 1e-15)
    assert traj.y.min() >= -1e-15


def test_ode_degenerate_solutions():
    # no infection: the state never moves
    traj = ode_integrate(MeanFieldParams(1.7, 0.6, 0.0), 5.0)
    assert np.all(traj.x == 0.6)
    assert np.all(traj.y == 0.0)
    # no susceptibles: pure exponential decay of y
    traj = ode_integrate(MeanFieldParams(1.7, 0.0, 0.8), 5.0)
    assert np.abs(traj.y - 0.8 * np.exp(-traj.t)).max() <= 1e-10
    assert np.all(traj.x == 0.0)


def test_ode_long_time_matches_final_size():
    for (beta, r0, r1), expected in FINAL_SIZE_CASES:
        traj = ode_integrate(MeanFieldParams(beta, r0, r1), 60.0, dt=1e-2)
        assert abs(traj.x[-1] - expected) <= 1e-8


def test_ode_rejects_bad_dt():
    with pytest.raises(DomainError):
        ode_integrate(MeanFieldParams(1.0, 0.9, 0.1), 1.0, dt=0.2)


def test_ode_at_zero_horizon_is_the_initial_point():
    traj = ode_integrate(MeanFieldParams(2.0, 0.9, 0.1), 0.0)
    assert traj.t.tolist() == [0.0]
    assert (traj.x.tolist(), traj.y.tolist(), traj.z.tolist()) == ([0.9], [0.1], [0.0])


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
def test_ode_rejects_nonfinite_or_negative_horizon(t_end):
    with pytest.raises(DomainError, match="t_end"):
        ode_integrate(MeanFieldParams(2.0, 0.9, 0.1), t_end)


# ---------------------------------------------------------------------------
# phase plane
# ---------------------------------------------------------------------------

def test_phase_curve_frozen_value():
    y = phase_curve(MeanFieldParams(2.0, 0.99, 0.01), 0.5)
    assert abs(y - 0.15845157764677807) <= 1e-14


def test_phase_curve_domain():
    p = MeanFieldParams(2.0, 0.99, 0.01)
    for bad in (0.0, -0.5, 0.991, 2.0):
        with pytest.raises(DomainError):
            phase_curve(p, bad)
    with pytest.raises(DomainError):
        phase_curve(MeanFieldParams(2.0, 0.0, 0.01), 0.5)


def test_phase_curve_follows_trajectory():
    p = MeanFieldParams(1.6, 0.8, 0.05)
    traj = ode_integrate(p, 8.0)
    assert np.abs(phase_curve(p, traj.x) - traj.y).max() <= 1e-7


def test_peak_height_frozen_value():
    y_peak = peak_height(2.0, 0.99, 0.01)
    assert abs(y_peak - 0.15845157764677807) <= 1e-14
    traj = ode_integrate(MeanFieldParams(2.0, 0.99, 0.01), 12.0)
    assert abs(traj.y.max() - y_peak) <= 1e-4


def test_peak_absent_at_or_below_threshold():
    assert peak_height(2.0, 0.5, 0.1) is None
    assert peak_height(2.0, 0.3, 0.2) is None
    # boundary rho0 == 1/beta counts as absent
    assert peak_height(2.0, 0.5, 0.25) is None
    # with no infected there is no epidemic to peak
    assert peak_height(2.0, 0.99, 0.0) is None


def test_peak_monotone_decay_when_absent():
    traj = ode_integrate(MeanFieldParams(1.25, 0.6, 0.3), 10.0)
    assert np.all(np.diff(traj.y) <= 1e-12)


# ---------------------------------------------------------------------------
# final sizes
# ---------------------------------------------------------------------------

def test_final_size_frozen_values():
    for (beta, r0, r1), expected in FINAL_SIZE_CASES:
        assert abs(final_size(beta, r0, r1) - expected) <= 1e-12


@pytest.mark.parametrize("cell, expected", LAMBERT_FINAL_SIZE_CASES,
                         ids=[str(cell) for cell, _ in LAMBERT_FINAL_SIZE_CASES])
def test_final_size_matches_lambert_w(cell, expected):
    assert math.isclose(final_size(*cell), expected, rel_tol=1e-15, abs_tol=0.0)


def test_final_size_degenerate_cases():
    assert final_size(1.3, 0.75, 0.0) == 0.75
    assert final_size(1.3, 0.0, 0.4) == 0.0
    # exp(-beta * rho0) underflows to 0, so f(0) is 0 too; rho1 = 0 still gives rho0
    assert final_size(1000.0, 0.9, 0.0) == 0.9


def test_final_size_residual_and_bounds():
    rng = np.random.default_rng(31)
    for _ in range(25):
        beta = float(rng.uniform(0.2, 3.5))
        r0 = float(rng.uniform(0.05, 0.99))
        r1 = float(rng.uniform(0.005, 1.0 - r0))
        x = final_size(beta, r0, r1)
        resid = x - r0 * math.exp(-beta * (r0 + r1 - x))
        assert abs(resid) <= 1e-12
        assert 0.0 < x < min(1.0 / beta, r0)


def test_hat_x_frozen_values():
    for beta, expected in HAT_X_CASES:
        hat = hat_x_infinity(beta)
        assert hat < 1.0
        assert abs(hat - expected) <= 1e-12
        assert abs(hat - math.exp(beta * (hat - 1.0))) <= 1e-12


def test_hat_x_degenerate_below_critical():
    for beta in (0.3, 0.9, 1.0):
        assert hat_x_infinity(beta) == 1.0


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
def test_hat_x_and_xinf_max_reject_a_nonpositive_beta(beta):
    with pytest.raises(DomainError):
        hat_x_infinity(beta)
    with pytest.raises(DomainError):
        xinf_max(beta)


def test_bisect_requires_a_sign_change():
    with pytest.raises(DomainError, match="no sign change"):
        _bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def test_xinf_max_identity_with_hat_x():
    for beta in (1.1, 1.5, 2.0, 3.0):
        xm = xinf_max(beta)
        assert abs(xm * math.exp(beta * (1.0 - xm)) - 1.0) <= 1e-12
        assert abs(xm - hat_x_infinity(beta)) <= 1e-12
    assert xinf_max(0.7) == 1.0
    assert xinf_max(1.0) == 1.0


@pytest.mark.parametrize("k, expected", NEAR_CRITICAL_HAT_X,
                         ids=[f"1e-{k}" for k, _ in NEAR_CRITICAL_HAT_X])
def test_hat_x_just_above_threshold(k, expected):
    # x = exp(beta (x - 1)) cancels to rounding noise as x -> 1, where the
    # root is 1 - 2 (beta - 1) + O((beta - 1)^2); in y = 1 - x it does not
    beta = 1.0 + 10.0**-k
    eps = beta - 1.0
    hat = hat_x_infinity(beta)
    assert abs(hat - expected) <= 2.5e-16  # two units in the last place below 1
    y = 1.0 - hat  # exact: hat lies in [1/2, 1]
    assert abs(y + math.expm1(-beta * y)) <= 1e-15 * y
    # y = 2 eps - (8/3) eps^2 + ..., so y / (2 eps) is 1 - (4/3) eps to first
    # order (1.3e-6 at k = 6); the 1e-6 is 1 - hat's rounding, 1.1e-16
    # against y = 2e-10 at k = 10
    assert abs(y / (2.0 * eps) - 1.0) <= 1.5 * eps + 1e-6
    if k >= 8:
        assert abs(y / (2.0 * eps) - 1.0) <= 1e-6
    assert abs(xinf_max(beta) - hat) <= 1e-15
