"""Radial metric construction and admissibility diagnostics."""

import math

import numpy as np
import pytest

from annuharm import (
    BadParameter,
    OutOfDomain,
    RadialMetric,
    UnknownMetric,
    admissibility_report,
    approx_analytic_constant,
    area,
    curvature,
    parse_metric,
)

BUILTINS = ["euclidean", "inverse_r", "sphere", "hyperbolic", "power:1.5"]


class TestParseMetric:
    def test_densities(self):
        assert parse_metric("euclidean").eval(0.7) == 1.0
        assert parse_metric("inverse_r").eval(0.5) == 2.0
        assert parse_metric("sphere").eval(1.0) == 0.25
        assert parse_metric("power:2").eval(0.5) == 0.25
        hyp = parse_metric("hyperbolic")
        assert hyp.eval(0.5) == pytest.approx(1.0 / 0.75**2)
        assert hyp.valid_interval[1] < 1.0

    def test_unknown(self):
        with pytest.raises(UnknownMetric):
            parse_metric("parabolic")

    @pytest.mark.parametrize("bad", ["power", "power:", "power:abc",
                                     "sphere:2", "power:inf"])
    def test_bad_parameter(self, bad):
        with pytest.raises(BadParameter):
            parse_metric(bad)


class TestCurvature:
    def test_euclidean_flat(self):
        assert curvature(parse_metric("euclidean"), 0.7) == 0.0

    def test_sphere_constant_eight(self):
        # symbolic oracle: lap log(1/(1+y^2)^2) = -8/(1+y^2)^2,
        # so -lap log rho / rho = 8 for every radius
        metric = parse_metric("sphere")
        for y in np.linspace(0.2, 2.5, 40):
            assert abs(curvature(metric, y) - 8.0) <= 1e-10

    def test_inverse_r_flat(self):
        # lap log(1/y) = 1/y^2 - 1/y^2 = 0 radially
        metric = parse_metric("inverse_r")
        for y in np.linspace(0.3, 2.0, 15):
            assert abs(curvature(metric, y)) <= 1e-12

    def test_hyperbolic_constant_minus_eight(self):
        metric = parse_metric("hyperbolic")
        for y in np.linspace(0.1, 0.9, 17):
            assert abs(curvature(metric, y) + 8.0) <= 1e-9

    def test_power_flat(self):
        metric = parse_metric("power:-1.7")
        for y in (0.4, 0.9, 1.7):
            assert abs(curvature(metric, y)) <= 1e-11

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            curvature(parse_metric("hyperbolic"), 1.5)


@pytest.mark.parametrize("name", BUILTINS)
def test_analytic_derivatives_match_differences(name):
    # second-order centered differences of eval must converge to deriv
    metric = parse_metric(name)
    for y in (0.45, 0.8):
        exact = metric.deriv(y)
        errs = []
        for h in (2e-4, 1e-4):
            fd = (metric.eval(y + h) - metric.eval(y - h)) / (2.0 * h)
            errs.append(abs(fd - exact))
        if errs[0] < 1e-12:  # derivative of a constant density
            assert errs[1] < 1e-12
        else:
            assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


@pytest.mark.parametrize("name", BUILTINS)
def test_second_derivatives_match_differences(name):
    metric = parse_metric(name)
    y, h = 0.6, 1e-4
    fd = (metric.eval(y + h) - 2.0 * metric.eval(y) + metric.eval(y - h)) / h**2
    assert fd == pytest.approx(metric.deriv2(y), rel=1e-5, abs=1e-7)


class TestArea:
    def test_euclidean(self):
        assert area(parse_metric("euclidean"), 0.8, 1.0) == pytest.approx(
            math.pi * 0.36, abs=1e-9)

    def test_inverse_r(self):
        # 2 pi int y (1/y) dy = 2 pi (Q - q)
        assert area(parse_metric("inverse_r"), 0.5, 1.0) == pytest.approx(
            math.pi, abs=1e-9)

    def test_empty_annulus_rejected(self):
        with pytest.raises(OutOfDomain):
            area(parse_metric("euclidean"), 0.8, 0.8)

    def test_additive(self):
        metric = parse_metric("sphere")
        whole = area(metric, 0.4, 1.1)
        split = area(metric, 0.4, 0.77) + area(metric, 0.77, 1.1)
        assert whole == pytest.approx(split, abs=1e-9)


    @pytest.mark.parametrize("a", [-3.0, -2.0, -1.0, 0.0, 1.0, 4.0])
    @pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
    def test_power_scale_covariant(self, a, scale):
        # the tolerance is relative, so the area is as accurate at any scale
        # (power:4 on [50.1, 100] once took seconds on an absolute one)
        q, Q = 0.501 * scale, scale
        if a == -2.0:
            exact = 2.0 * math.pi * math.log(Q / q)
        else:
            exact = 2.0 * math.pi * (Q ** (a + 2) - q ** (a + 2)) / (a + 2)
        got = area(parse_metric(f"power:{a:g}"), q, Q)
        assert abs(got - exact) <= 1e-13 * exact


class TestApproxAnalyticConstant:
    def test_euclidean_zero(self):
        assert approx_analytic_constant(parse_metric("euclidean"), 0.5, 1.0) == 0.0

    def test_inverse_r(self):
        # |rho'|/rho = 1/y, sup at the inner radius
        assert approx_analytic_constant(parse_metric("inverse_r"), 0.5, 1.0) \
            == pytest.approx(2.0, abs=1e-9)

    def test_sphere_sup_at_outer_edge(self):
        # 4y/(1+y^2) is increasing below y=1, so the sup on [0.5, 1] sits at
        # the outer endpoint with value 2, not at 0.5 (value 1.6)
        got = approx_analytic_constant(parse_metric("sphere"), 0.5, 1.0)
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_scale_covariant(self):
        base = parse_metric("sphere")
        doubled = RadialMetric(
            eval=lambda y: 2.0 * base.eval(y),
            deriv=lambda y: 2.0 * base.deriv(y),
            deriv2=lambda y: 2.0 * base.deriv2(y),
            valid_interval=base.valid_interval,
            name="sphere-doubled",
        )
        a = approx_analytic_constant(base, 0.4, 1.2)
        b = approx_analytic_constant(doubled, 0.4, 1.2)
        assert a == pytest.approx(b, abs=1e-10)


class TestAdmissibilityReport:
    def test_euclidean(self):
        diag = admissibility_report(parse_metric("euclidean"), 0.8, 1.0)
        assert diag.curvature_min == diag.curvature_max == 0.0
        assert diag.area == pytest.approx(1.1309734, abs=1e-6)
        assert diag.p_constant == 0.0
        assert diag.rho_inf == diag.rho_sup == 1.0

    def test_sphere_constant_curvature(self):
        diag = admissibility_report(parse_metric("sphere"), 0.5, 1.0)
        assert diag.curvature_min == pytest.approx(8.0, abs=1e-9)
        assert diag.curvature_max == pytest.approx(8.0, abs=1e-9)
        assert diag.curvature_min <= diag.curvature_max

    def test_hyperbolic_subannulus(self):
        diag = admissibility_report(parse_metric("hyperbolic"), 0.5, 0.9)
        assert math.isfinite(diag.area) and diag.area > 0.0
        assert math.isfinite(diag.p_constant)
        assert diag.rho_inf <= diag.rho_sup

    def test_hyperbolic_rejects_unit_radius(self):
        with pytest.raises(OutOfDomain):
            admissibility_report(parse_metric("hyperbolic"), 0.5, 1.0)
