"""Properties of the solved map over all ten built-in metrics, with c on
both sides of 0: mu decreases in c, J >= 0, ||Dw||^2 <= 2 J + K', the
energy is at least twice the metric area of the target, and the stretches
p' and p/s are ordered by the sign of c and bracketed by the Lipschitz
constants.  For rho = y^a the solve scales exactly with the target
annulus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annuharm.solver as solver
from annuharm import (
    ProblemSpec,
    area,
    build_profile,
    critical_constant,
    critical_inner_radius,
    energy,
    kk_constants,
    lipschitz_constant,
    modulus_of_c,
    parse_metric,
    solve_c,
)
from annuharm.fields import field_arrays
from annuharm.metrics import RadialMetric

NAMES = ["euclidean", "inverse_r", "sphere", "hyperbolic", "power:-3",
         "power:-2", "power:-1.5", "power:1", "power:2", "power:4"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(NAMES),
    outer=st.floats(0.0, 1.0),
    ratio=st.floats(0.1, 0.9),
    lift=st.floats(-0.99, 4.0),
)
def test_property_matrix(name, outer, ratio, lift):
    metric = parse_metric(name)
    # Q log-uniform in [0.3, 10], or uniform in [0.3, 0.95] for hyperbolic
    Q = 0.3 + 0.65 * outer if name == "hyperbolic" else 0.3 * (10 / 0.3) ** outer
    q = ratio * Q
    c_crit = critical_constant(metric, q, Q)
    # c from 0.01 |c0| above c0 through 0 to 4 |c0|
    c = lift * abs(c_crit)
    mu = modulus_of_c(metric, q, Q, c)
    gap = c - c_crit
    assert modulus_of_c(metric, q, Q, c - 0.5 * gap) > mu
    assert mu > modulus_of_c(metric, q, Q, c + 0.5 * gap)

    r = math.exp(-mu)
    profile = build_profile(ProblemSpec(metric=metric, q=q, Q=Q, r=r), c)
    arrays = field_arrays(profile, metric, np.linspace(r, 1.0, 17),
                          2.0 * math.pi * np.arange(8) / 8)
    assert np.all(arrays["jac"] >= 0.0)
    _, k_prime = kk_constants(profile, metric)
    norm_sq = 2.0 * (np.abs(arrays["wz"]) ** 2 + np.abs(arrays["wzb"]) ** 2)
    assert np.all(norm_sq <= (2.0 * arrays["jac"] + k_prime) * (1.0 + 1e-12))
    lower = 2.0 * area(metric, q, Q)
    assert energy(profile, metric) >= lower * (1.0 - 1e-12)


# the sampled stretches are solved at radii s and the constants read in the
# first integral's variable v: they may differ by a few ulps
SLACK = 1e-14


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(NAMES),
    outer=st.floats(0.0, 1.0),
    ratio=st.floats(0.1, 0.9),
    lift=st.floats(-0.99, 4.0),
)
def test_lipschitz_matrix(name, outer, ratio, lift):
    # p'^2 - (p/s)^2 = c / (rho(p) s^2): p' - p/s has the sign of c, and
    # (sup |Dw|, inf l(Dw)) brackets both stretches at every sampled radius
    metric = parse_metric(name)
    Q = 0.3 + 0.65 * outer if name == "hyperbolic" else 0.3 * (10 / 0.3) ** outer
    q = ratio * Q
    c = lift * abs(critical_constant(metric, q, Q))
    r = math.exp(-modulus_of_c(metric, q, Q, c))
    profile = build_profile(ProblemSpec(metric=metric, q=q, Q=Q, r=r), c)
    s = np.linspace(r, 1.0, 4097)
    p = profile.profile(s)
    tangential, radial = p / s, profile.p_tau(p) / s
    order = np.sign(radial - tangential)
    # c/rho(p) may round away next to p^2 (order 0), but never reverses it
    lost = abs(c) <= 16.0 * np.finfo(float).eps * p * p * metric.eval(p)
    assert np.all((order == np.sign(c)) | (lost & (order == 0.0)))
    sup_op, inf_lo = lipschitz_constant(profile, metric)
    assert np.max(np.maximum(tangential, radial)) <= sup_op * (1.0 + SLACK)
    assert inf_lo <= np.min(np.minimum(tangential, radial)) * (1.0 + SLACK)


# the power densities rho = y^a among the built-ins, with their exponents
POWERS = [("euclidean", 0), ("inverse_r", -1), ("power:-2", -2),
          ("power:1", 1), ("power:2", 2), ("power:4", 4)]


def _power_configs():
    """120 (name, a, q, r) with Q = 1, round-robin over POWERS: q =
    U(0.1, 0.9), then r ~ U(lo, min(0.99, max(1.5 lo, 1.5 q))) with lo =
    max(1.01 critical_inner_radius, 0.01)."""
    rng = np.random.default_rng(5)
    configs = []
    for i in range(120):
        name, a = POWERS[i % len(POWERS)]
        q = rng.uniform(0.1, 0.9)
        lo = max(1.01 * critical_inner_radius(parse_metric(name), q, 1.0), 0.01)
        configs.append((name, a, q, rng.uniform(lo, min(0.99, max(1.5 * lo, 1.5 * q)))))
    return configs


def _solved(name, q, Q, r):
    """(c, energy, sup |Dw|, inf l(Dw), class) of the solved map."""
    metric = parse_metric(name)
    spec = ProblemSpec(metric=metric, q=q, Q=Q, r=r)
    profile = build_profile(spec, solve_c(spec))
    return (profile.c, energy(profile, metric),
            *lipschitz_constant(profile, metric), profile.classification)


@pytest.mark.parametrize("k", [-7, 7])
def test_exact_scaling(k):
    # scaling the target annulus by lam = 2^k scales p by lam, and for rho =
    # y^a c and the energy by lam^(a+2): every step of the solve is exact
    # in binary, so the outputs must scale bitwise
    lam = 2.0 ** k
    missed = []
    for name, a, q, r in _power_configs():
        c, e, sup, inf, kind = _solved(name, q, 1.0, r)
        scale = lam ** (a + 2)
        want = (scale * c, scale * e, lam * sup, lam * inf, kind)
        got = _solved(name, lam * q, lam, r)
        if got != want:
            ulps = [(x - y) / np.spacing(y) for x, y in zip(got[:4], want[:4])]
            missed.append((name, q, r, ulps, got[4], kind))
    assert not missed


def _scanned_weight(lam):
    """A metric that declares no minima, so its critical data and inf rho
    are scanned: on [lam, 2 lam] its weight y^2 rho = 1 + ((y/lam - 1.37) /
    0.3)^2 has its minimum 1 inside, at y = 1.37 lam."""
    def weight(y):
        return 1.0 + ((y / lam - 1.37) / 0.3) ** 2

    def slope(y):
        return (y / lam - 1.37) / (0.045 * lam)

    return RadialMetric(
        eval=lambda y: weight(y) / (y * y),
        deriv=lambda y: slope(y) / (y * y) - 2.0 * weight(y) / y**3,
        deriv2=lambda y: (1.0 / (0.045 * lam * lam * y * y)
                          - 4.0 * slope(y) / y**3 + 6.0 * weight(y) / y**4),
        valid_interval=(0.0, math.inf), name="scanned")


def _scanned(lam):
    """(y*, c0, c at r = 1e-2, 1e-4, 1e-8, K') of _scanned_weight(lam) on
    [lam, 2 lam]."""
    metric = _scanned_weight(lam)
    y_star, c0 = solver._critical(metric, lam, 2.0 * lam)
    cs = [solve_c(ProblemSpec(metric, lam, 2.0 * lam, r))
          for r in (1e-2, 1e-4, 1e-8)]
    profile = build_profile(ProblemSpec(metric, lam, 2.0 * lam, 1e-2), cs[0])
    return y_star, c0, *cs, kk_constants(profile, metric)[1]


@pytest.mark.parametrize("k", [-40, -20, 20, 40])
def test_scanned_critical_data_scale(k):
    # the scans' steps are fractions of the span, so a metric without
    # declared minima scales like a built-in: y* and K' by lam and lam^2, c0
    # and c (which carry the unit of the weight, here none) not at all
    lam = 2.0 ** k
    y_star, c0, *cs, k_prime = _scanned(1.0)
    assert _scanned(lam) == (lam * y_star, c0, *cs, lam * lam * k_prime)
