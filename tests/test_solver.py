"""Solver contracts: critical constant, modulus equation, first-integral
profile."""

import math
import time

import numpy as np
import pytest

from annuharm import (
    BelowCritical,
    DivergentModulus,
    OutOfDomain,
    ProblemSpec,
    ProfileMismatch,
    SolverConfig,
    build_profile,
    critical_constant,
    critical_inner_radius,
    euclidean_nitsche_map,
    find_root_bracketed,
    integrate_adaptive,
    modulus_of_c,
    parse_metric,
    solve_c,
)

EUCLID = parse_metric("euclidean")
INV_R = parse_metric("inverse_r")
SPHERE = parse_metric("sphere")

# closed-form oracles (antiderivatives of 1/sqrt(y^2 + c/rho)):
#   euclidean: log(y + sqrt(y^2 + c))
#   inverse_r: 2 log(sqrt(y) + sqrt(y + c))
MU_INVR_HALF = 2.0 * (math.log(1.0 + math.sqrt(1.5))
                      - math.log(math.sqrt(0.5) + 1.0))
MU_INVR_CRIT = 2.0 * math.asinh(1.0)  # int_0.5^1 dy/sqrt(y^2 - y/2)
R_CRIT_INVR = 3.0 - 2.0 * math.sqrt(2.0)  # exp(-MU_INVR_CRIT)


def euclid_mu(c, q):
    anti = lambda y: math.log(y + math.sqrt(y * y + c))
    return anti(1.0) - anti(q)


class TestCriticalConstant:
    def test_euclidean(self):
        assert critical_constant(EUCLID, 0.8, 1.0) == pytest.approx(-0.64, abs=1e-12)

    def test_inverse_r(self):
        # y^2 (1/y) = y, minimal at the inner radius
        assert critical_constant(INV_R, 0.5, 1.0) == pytest.approx(-0.5, abs=1e-12)

    def test_sphere(self):
        # y^2/(1+y^2)^2 increases on (0, 1): min at 0.5 is 0.16
        assert critical_constant(SPHERE, 0.5, 1.0) == pytest.approx(-0.16,
                                                                    abs=1e-12)

    def test_strictly_negative(self):
        for metric in (EUCLID, INV_R, SPHERE):
            assert critical_constant(metric, 0.3, 1.4) < 0.0

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            critical_constant(parse_metric("hyperbolic"), 0.5, 1.2)


class TestModulus:
    def test_conformal_constant(self):
        assert modulus_of_c(EUCLID, 0.8, 1.0, 0.0) == pytest.approx(
            math.log(1.25), abs=1e-10)

    def test_critical_euclidean_is_log2(self):
        got = modulus_of_c(EUCLID, 0.8, 1.0, -0.64)
        assert got == pytest.approx(math.log(2.0), abs=1e-9)

    def test_inverse_r_positive_constant(self):
        got = modulus_of_c(INV_R, 0.5, 1.0, 0.5)
        assert got == pytest.approx(MU_INVR_HALF, abs=1e-9)

    def test_inverse_r_critical_singular(self):
        got = modulus_of_c(INV_R, 0.5, 1.0, -0.5)
        assert got == pytest.approx(MU_INVR_CRIT, abs=1e-8)

    def test_monotone_in_c(self):
        for metric, q in ((EUCLID, 0.8), (INV_R, 0.5), (SPHERE, 0.5)):
            c_crit = critical_constant(metric, q, 1.0)
            ladder = np.linspace(c_crit + 1e-3, 2.0, 20)
            values = [modulus_of_c(metric, q, 1.0, c) for c in ladder]
            assert np.all(np.diff(values) < 0.0)

    def test_below_critical(self):
        with pytest.raises(BelowCritical):
            modulus_of_c(EUCLID, 0.8, 1.0, -0.7)

    def test_interior_zero_diverges(self):
        # power:-2 makes y^2 rho constant: the radicand vanishes everywhere
        # at the critical constant and the modulus diverges
        metric = parse_metric("power:-2")
        with pytest.raises(DivergentModulus):
            modulus_of_c(metric, 0.5, 1.0, critical_constant(metric, 0.5, 1.0))


class TestSolveC:
    def test_conformal(self):
        spec = ProblemSpec(metric=EUCLID, q=0.8, Q=1.0, r=0.8)
        assert solve_c(spec) == 0.0

    def test_critical(self):
        spec = ProblemSpec(metric=EUCLID, q=0.8, Q=1.0, r=0.5)
        c = solve_c(spec)
        assert c == pytest.approx(-0.64, abs=1e-6)
        assert build_profile(spec, c).classification == "Critical"

    def test_subcritical_exact_rational(self):
        # mu(c) = log(1/0.6) has the exact solution c = -39/64: with it
        # sqrt(1+c) = 5/8 and sqrt(0.64+c) = 7/40, giving the ratio 5/3
        assert euclid_mu(-0.609375, 0.8) == pytest.approx(math.log(1 / 0.6),
                                                          abs=1e-15)
        spec = ProblemSpec(metric=EUCLID, q=0.8, Q=1.0, r=0.6)
        assert solve_c(spec) == pytest.approx(-0.609375, abs=1e-6)

    def test_below_critical_carries_payload(self):
        spec = ProblemSpec(metric=EUCLID, q=0.8, Q=1.0, r=0.4)
        with pytest.raises(BelowCritical) as info:
            solve_c(spec)
        assert info.value.critical_r == pytest.approx(0.5, abs=1e-8)
        assert info.value.critical_c == pytest.approx(-0.64, abs=1e-9)

    def test_round_trip_through_modulus(self):
        for c in (-0.3, 0.0, 0.5, 2.0):
            r = math.exp(-modulus_of_c(INV_R, 0.5, 1.0, c))
            spec = ProblemSpec(metric=INV_R, q=0.5, Q=1.0, r=r)
            assert solve_c(spec) == pytest.approx(c, abs=1e-6)

    def test_sign_law(self):
        # sign(c) agrees with log(Q/q) - log(1/r) wherever a solution exists
        for q in (0.6, 0.7, 0.8, 0.9, 0.95):
            for r in (0.5, 0.6, 0.7, 0.8, 0.9):
                spec = ProblemSpec(metric=EUCLID, q=q, Q=1.0, r=r)
                try:
                    c = solve_c(spec)
                except BelowCritical:
                    continue
                gap = math.log(1.0 / q) - math.log(1.0 / r)
                if abs(c) <= 1e-9:
                    assert abs(gap) <= 1e-6
                else:
                    assert (c > 0.0) == (gap > 0.0)


class TestCriticalInnerRadius:
    def test_euclidean(self):
        assert critical_inner_radius(EUCLID, 0.8, 1.0) == pytest.approx(
            0.5, abs=1e-9)

    @pytest.mark.parametrize("r", [0.3, 0.7])
    def test_matches_closed_form_pairs(self, r):
        # for q = 2r/(1+r^2): log((1+sqrt(1-q^2))/q) = log(1/r)
        q = 2.0 * r / (1.0 + r * r)
        assert critical_inner_radius(EUCLID, q, 1.0) == pytest.approx(r, abs=1e-9)

    def test_inverse_r(self):
        got = critical_inner_radius(INV_R, 0.5, 1.0)
        assert got == pytest.approx(R_CRIT_INVR, abs=1e-8)

    def test_divergent_modulus_signals_zero(self):
        assert critical_inner_radius(parse_metric("power:-2"), 0.5, 1.0) == 0.0


class TestBuildProfile:
    def test_conformal_identity(self, euclid_conformal):
        s = np.linspace(0.8, 1.0, 100)
        assert np.max(np.abs(euclid_conformal.profile(s) - s)) <= 1e-8

    def test_critical_profile_values(self, euclid_critical):
        closed = lambda s: (0.25 + s * s) / (s * 1.25)
        assert euclid_critical.profile(0.7) == pytest.approx(closed(0.7), abs=1e-6)
        assert euclid_critical.profile(0.5) == pytest.approx(0.8, abs=1e-6)
        assert euclid_critical.profile(1.0) == 1.0

    def test_endpoint_law(self, sphere_expanding):
        spec = sphere_expanding.spec
        assert abs(sphere_expanding.profile(spec.r) - spec.q) <= 1e-6 * spec.Q
        assert sphere_expanding.profile(1.0) == spec.Q

    def test_inverse_round_trip(self, euclid_critical, sphere_expanding):
        for prof in (euclid_critical, sphere_expanding):
            s = np.linspace(prof.spec.r, 1.0, 100)
            err = np.abs(prof.inverse(prof.profile(s)) - s)
            assert np.max(err) <= 1e-8

    def test_constraint_law(self, euclid_critical, inverse_r_expanding):
        for prof in (euclid_critical, inverse_r_expanding):
            s = np.linspace(prof.spec.r, 1.0, 512)
            p = prof.profile(s)
            constraint = p * p * prof.spec.metric.eval(p) + prof.c
            assert np.min(constraint) >= -1e-10

    def test_profile_strictly_increasing(self, sphere_expanding):
        s = np.linspace(sphere_expanding.spec.r, 1.0, 2000)
        p = sphere_expanding.profile(s)
        assert np.all(np.diff(p) > 0.0)

    def test_mismatched_constant_rejected(self):
        spec = ProblemSpec(metric=EUCLID, q=0.8, Q=1.0, r=0.5)
        with pytest.raises(ProfileMismatch):
            build_profile(spec, -0.3)

    def test_classifications(self):
        cases = [(0.8, "Conformal"), (0.5, "Critical"), (0.6, "Subcritical"),
                 (0.9, "Expanding")]
        for r, expected in cases:
            spec = ProblemSpec(metric=EUCLID, q=0.8, Q=1.0, r=r)
            prof = build_profile(spec, solve_c(spec))
            assert prof.classification == expected

    def test_agrees_with_quadrature_inversion(self, sphere_expanding):
        # dual route: root-find p from log(1/s) = int_p^Q dy/sqrt(y^2 + c/rho)
        # by plain quadrature, without the profile's panel table
        spec, c = sphere_expanding.spec, sphere_expanding.c
        rho = spec.metric.eval
        integrand = lambda y: 1.0 / np.sqrt(y * y + c / rho(y))
        for s in np.linspace(spec.r, 1.0, 9)[1:-1]:
            target = math.log(1.0 / s)
            p = find_root_bracketed(
                lambda x: integrate_adaptive(integrand, x, spec.Q, 1e-13)
                - target, spec.q, spec.Q - 1e-9, 1e-14)
            assert abs(sphere_expanding.profile(s) - p) <= 1e-12


class TestEuclideanNitscheMap:
    def test_half(self):
        prof = euclidean_nitsche_map(0.5)
        assert prof.spec.q == pytest.approx(0.8, abs=1e-15)
        assert prof.c == pytest.approx(-0.64, abs=1e-15)
        assert prof.classification == "Critical"

    def test_outer_normalization(self):
        assert euclidean_nitsche_map(0.5).profile(1.0) == 1.0

    def test_flat_inner_slope(self):
        assert euclidean_nitsche_map(0.5).slope(0.5) == 0.0

    def test_matches_solver(self, euclid_critical):
        prof = euclidean_nitsche_map(0.5)
        s = np.linspace(0.5, 1.0, 64)
        assert np.max(np.abs(prof.profile(s) - euclid_critical.profile(s))) <= 1e-8

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            euclidean_nitsche_map(1.2)


class TestProblemSpecValidation:
    def test_bad_radii(self):
        with pytest.raises(ValueError):
            ProblemSpec(metric=EUCLID, q=1.0, Q=0.8, r=0.5)
        with pytest.raises(ValueError):
            ProblemSpec(metric=EUCLID, q=0.8, Q=1.0, r=1.5)

    def test_metric_domain(self):
        with pytest.raises(OutOfDomain):
            ProblemSpec(metric=parse_metric("hyperbolic"), q=0.8, Q=1.1, r=0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol_c=-1.0)
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                SolverConfig(tol_c=tol)


# y^2 rho(y) underflows to 0 (power:1100), is subnormal (power:1060) or
# overflows (power:-2000) at q = 0.5; Q = inf is no radius at all
_UNREPRESENTABLE = [("power:1100", 1.0), ("power:1060", 1.0),
                    ("power:-2000", 1.0), ("euclidean", math.inf)]


@pytest.mark.parametrize("name, Q", _UNREPRESENTABLE)
def test_unrepresentable_weight_out_of_domain(name, Q):
    metric = parse_metric(name)
    start = time.perf_counter()
    with pytest.raises(OutOfDomain):
        critical_constant(metric, 0.5, Q)
    with pytest.raises(OutOfDomain):
        solve_c(ProblemSpec(metric=metric, q=0.5, Q=Q, r=0.6))
    assert time.perf_counter() - start < 1.0
