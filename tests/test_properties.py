"""Properties of the solved map over all ten built-in metrics, with c on
both sides of 0: mu decreases in c, J >= 0, ||Dw||^2 <= 2 J + K' and the
energy is at least twice the metric area of the target."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from annuharm import (
    ProblemSpec,
    area,
    build_profile,
    critical_constant,
    energy,
    kk_constants,
    modulus_of_c,
    parse_metric,
)
from annuharm.fields import field_arrays

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
