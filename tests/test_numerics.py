"""Numerical kernel contracts: quadrature, root finding, minimization."""

import math

import numpy as np
import pytest

from annuharm import (
    DivergentIntegral,
    NoBracket,
    find_root_bracketed,
    integrate_adaptive,
    minimize_scalar,
    parse_metric,
)
from annuharm.numerics import _adaptive_core, _ArrayFunc

# closed-form values the quadrature must reproduce:
#   int_0.8^1 dy/sqrt(y^2-0.64) = [log(y+sqrt(y^2-0.64))] = log 2
#   int_0.5^1 dy/sqrt(y^2+y/2)  = [2 log(sqrt(y)+sqrt(y+1/2))]
LOG2 = math.log(2.0)
MU_INVR_HALF = 2.0 * (math.log(1.0 + math.sqrt(1.5))
                      - math.log(math.sqrt(0.5) + 1.0))  # 0.5296844955220916


class TestIntegrateAdaptive:
    def test_polynomial(self):
        assert integrate_adaptive(lambda y: y, 0.0, 1.0, 1e-10) == pytest.approx(
            0.5, abs=1e-9)

    def test_left_singular_sqrt(self):
        got = integrate_adaptive(
            lambda y: 1.0 / np.sqrt(np.maximum(y * y - 0.64, 0.0)),
            0.8, 1.0, 1e-10)
        assert abs(got - LOG2) <= 1e-9

    def test_smooth_sqrt_combination(self):
        got = integrate_adaptive(lambda y: 1.0 / np.sqrt(y * y + 0.5 * y),
                                 0.5, 1.0, 1e-10)
        assert abs(got - MU_INVR_HALF) <= 1e-9

    def test_right_singular(self):
        # int_0^1 dy/sqrt(1-y) = 2
        got = integrate_adaptive(lambda y: 1.0 / np.sqrt(np.maximum(1.0 - y, 0.0)),
                                 0.0, 1.0, 1e-10)
        assert abs(got - 2.0) <= 1e-9

    def test_scalar_only_callable(self):
        got = integrate_adaptive(lambda y: math.exp(y), 0.0, 1.0, 1e-10)
        assert abs(got - (math.e - 1.0)) <= 1e-9

    def test_smooth_with_large_endpoint_value(self):
        # 1/(y + 1e-7) is smooth on [0, 1] but 1e7 at the left end
        got = integrate_adaptive(lambda y: 1.0 / (y + 1e-7), 0.0, 1.0, 1e-10)
        assert abs(got - math.log1p(1e7)) <= 1e-9

    def test_divergent_endpoint(self):
        with pytest.raises(DivergentIntegral):
            integrate_adaptive(lambda y: 1.0 / y, 0.0, 1.0, 1e-10)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda y: y, 1.0, 1.0, 1e-10)

    def test_core_returns_tiling_panels(self):
        # a boundary layer forces refinement; the accepted panels must tile
        # [0, 1] in order and sum to the returned integral
        f = _ArrayFunc(lambda y: 1.0 / np.sqrt(y + 1e-6))
        total, panels = _adaptive_core(f, 0.0, 1.0, 1e-12)
        assert len(panels) > 1
        assert panels[0, 0] == 0.0 and panels[-1, 1] == 1.0
        assert np.all(panels[1:, 0] == panels[:-1, 1])
        assert total == math.fsum(panels[:, 2])
        exact = 2.0 * (math.sqrt(1.0 + 1e-6) - math.sqrt(1e-6))
        assert abs(total - exact) <= 1e-11


class TestFindRootBracketed:
    def test_sqrt2(self):
        x = find_root_bracketed(lambda x: x * x - 2.0, 1.0, 2.0, 1e-12)
        assert abs(x - math.sqrt(2.0)) <= 1e-9

    def test_zero_crossing(self):
        assert abs(find_root_bracketed(lambda x: x, -1.0, 1.0, 1e-12)) <= 1e-12

    def test_cosine(self):
        x = find_root_bracketed(math.cos, 1.0, 2.0, 1e-12)
        assert abs(x - math.pi / 2.0) <= 1e-9

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    def test_newton_steps_from_known_ends(self):
        seen = []

        def f(x):
            seen.append(x)
            return x * x - 2.0, 2.0 * x

        x = find_root_bracketed(f, 1.0, 2.0, 1e-14, f_lo=f(1.0), f_hi=f(2.0))
        assert abs(x - math.sqrt(2.0)) <= 1e-14
        # the two ends once each, then five Newton steps from x = 1 (the
        # secant alone takes six)
        assert len(seen) <= 2 + 5

    def test_stops_at_xtol(self):
        # a jump, not a root: the bracket closes on it to xtol
        x = find_root_bracketed(lambda x: 1.0 if x < 0.3 else -1.0,
                                0.0, 1.0, 1e-12, xtol=1e-6)
        assert abs(x - 0.3) <= 1e-6

    def test_never_evaluates_outside(self):
        seen = []

        def f(x):
            seen.append(x)
            return math.tanh(3.0 * (x - 0.37))

        find_root_bracketed(f, 0.0, 1.0, 1e-13)
        assert all(0.0 <= x <= 1.0 for x in seen)


class TestMinimizeScalar:
    def test_parabola(self):
        x, fx = minimize_scalar(lambda y: (y - 0.3) ** 2, 0.0, 1.0, 1e-10)
        assert abs(x - 0.3) <= 1e-6 and fx <= 1e-12

    def test_monotone_hits_endpoint(self):
        x, fx = minimize_scalar(lambda y: y * y, 0.8, 1.0, 1e-10)
        assert x == 0.8 and fx == pytest.approx(0.64, abs=1e-12)

    def test_linear(self):
        x, fx = minimize_scalar(lambda y: y * y * (1.0 / y), 0.5, 1.0, 1e-10)
        assert x == 0.5 and fx == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("name, q, Q", [
        ("sphere", 0.5, 1.0), ("euclidean", 0.8, 1.0), ("power:4", 0.2105, 9.07),
        ("power:-3", 0.3, 9.9), ("power:-2", 0.3, 9.9)])
    def test_critical_scan_calls(self, name, q, Q):
        # the critical constant's search: a scan and zoom scans, each one
        # array call of y^2 rho(y), never a call on a single point
        metric = parse_metric(name)
        sizes = []

        def weight(y):
            sizes.append(np.size(y))
            return y * y * metric.eval(y)

        minimize_scalar(weight, q, Q, 1e-13)
        assert len(sizes) <= 12
        assert min(sizes) > 1

    def test_minimum_inside_first_cell(self):
        # the minimum lies between the scan's first two nodes; zooming on
        # the winner a = 0 must still reach it to tol
        x_min = 0.3 / 1023
        x, fx = minimize_scalar(lambda y: (y - x_min) ** 2, 0.0, 1.0, 1e-12)
        assert abs(x - x_min) <= 1e-12
        assert fx <= 1e-24
