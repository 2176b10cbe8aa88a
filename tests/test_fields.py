"""Pointwise field quantities and grid export."""

import cmath
import math

import numpy as np
import pytest

from annuharm import (
    FieldSample,
    OutOfAnnulus,
    PolarGrid,
    ProblemSpec,
    RadialMetric,
    SolverConfig,
    area,
    build_profile,
    derivatives_point,
    energy,
    export_grid,
    hopf_quantity,
    kk_constants,
    lipschitz_constant,
    map_point,
    operator_norms,
    parse_metric,
    solve_c,
)
from annuharm.fields import field_arrays

EUCLID = parse_metric("euclidean")
INV_R = parse_metric("inverse_r")


class TestMapPoint:
    def test_critical_on_axis(self, euclid_critical):
        got = map_point(euclid_critical, 0.7 + 0j)
        assert got.real == pytest.approx((0.25 + 0.49) / (0.7 * 1.25), abs=1e-6)
        assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_conformal_identity(self, euclid_conformal):
        assert map_point(euclid_conformal, 0.9j) == pytest.approx(0.9j, abs=1e-9)

    def test_outer_boundary_normalization(self, sphere_expanding):
        for t in (0.0, 1.1, 4.0):
            z = cmath.exp(1j * t)
            got = map_point(sphere_expanding, z)
            assert got == pytest.approx(sphere_expanding.spec.Q * z, abs=1e-9)

    def test_rotation_equivariance(self, euclid_critical):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = rng.uniform(0.5, 1.0)
            t = rng.uniform(0.0, 2.0 * math.pi)
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            z = s * cmath.exp(1j * t)
            lhs = map_point(euclid_critical, cmath.exp(1j * alpha) * z)
            rhs = cmath.exp(1j * alpha) * map_point(euclid_critical, z)
            assert abs(lhs - rhs) <= 1e-12

    def test_outside_annulus(self, euclid_critical):
        with pytest.raises(OutOfAnnulus):
            map_point(euclid_critical, 0.4 + 0j)


class TestDerivativesPoint:
    def test_equal_moduli_at_inner_boundary(self, euclid_critical):
        wz, wzb = derivatives_point(euclid_critical, 0.5 + 0j)
        assert abs(wz) == pytest.approx(0.8, abs=1e-6)
        assert abs(wzb) == pytest.approx(0.8, abs=1e-6)

    def test_conformal(self, euclid_conformal):
        wz, wzb = derivatives_point(euclid_conformal, 0.88 * cmath.exp(0.3j))
        assert wz == pytest.approx(1.0 + 0j, abs=1e-9)
        assert abs(wzb) <= 1e-9

    def test_outer_boundary(self, euclid_critical):
        # p'(1) = (1 - r^2)/(1 + r^2) = 0.6 for the closed-form profile
        wz, wzb = derivatives_point(euclid_critical, 1.0 + 0j)
        assert abs(wz) == pytest.approx(0.8, abs=1e-6)
        assert abs(wzb) == pytest.approx(0.2, abs=1e-6)


class TestOperatorNorms:
    def test_critical_inner(self, euclid_critical):
        op, lo = operator_norms(euclid_critical, 0.5 + 0j)
        assert op == pytest.approx(1.6, abs=1e-9)
        assert lo == pytest.approx(0.0, abs=1e-9)

    def test_conformal(self, euclid_conformal):
        op, lo = operator_norms(euclid_conformal, 0.9 + 0j)
        assert (op, lo) == (pytest.approx(1.0, abs=1e-9),) * 2

    def test_critical_outer(self, euclid_critical):
        op, lo = operator_norms(euclid_critical, 1.0 + 0j)
        assert op == pytest.approx(1.0, abs=1e-9)
        assert lo == pytest.approx(0.6, abs=1e-6)

    def test_consistent_with_wirtinger_moduli(self, sphere_expanding):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = rng.uniform(sphere_expanding.spec.r, 1.0) \
                * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            wz, wzb = derivatives_point(sphere_expanding, z)
            op, lo = operator_norms(sphere_expanding, z)
            assert op == pytest.approx(abs(wz) + abs(wzb), rel=1e-12)
            assert lo == pytest.approx(abs(abs(wz) - abs(wzb)), abs=1e-12)


class TestHopfQuantity:
    def test_critical_constant(self, euclid_critical):
        z = 0.7 * cmath.exp(0.4j)
        got = z * z * hopf_quantity(euclid_critical, EUCLID, z)
        assert got.real == pytest.approx(-0.16, abs=1e-9)
        assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_conformal_vanishes(self, euclid_conformal):
        assert hopf_quantity(euclid_conformal, EUCLID, 0.85 + 0.1j) == 0.0

    def test_inverse_r_quarter_constant(self, inverse_r_expanding):
        rng = np.random.default_rng(5)
        values = []
        for _ in range(20):
            z = rng.uniform(inverse_r_expanding.spec.r, 1.0) \
                * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            values.append(z * z * hopf_quantity(inverse_r_expanding, INV_R, z))
        values = np.asarray(values)
        assert np.max(np.abs(values - 0.125)) <= 1e-8


class TestEnergy:
    def test_conformal_resolves_steep_density(self):
        # c = 0: the energy is twice the area; the panels of Psi alone left
        # it 2e-7 low here
        metric = parse_metric("hyperbolic")
        spec = ProblemSpec(metric=metric, q=0.475, Q=0.95, r=0.5)
        prof = build_profile(spec, 0.0)
        lower = 2.0 * area(metric, 0.475, 0.95)
        assert abs(energy(prof, metric) - lower) <= 1e-12 * lower

    def test_conformal_attains_bound(self, euclid_conformal):
        total = energy(euclid_conformal, EUCLID)
        assert total == pytest.approx(2.0 * math.pi * 0.36, rel=1e-9)
        assert total - 2.0 * area(EUCLID, 0.8, 1.0) <= 1e-8

    def test_critical_closed_form(self, euclid_critical):
        # symbolic integration of the closed-form profile: 2 pi (1-r^2)/(1+r^2)
        assert energy(euclid_critical, EUCLID) == pytest.approx(
            1.2 * math.pi, abs=1e-5)

    def test_lower_bound(self, sphere_expanding, inverse_r_expanding):
        for prof, metric in ((sphere_expanding, parse_metric("sphere")),
                             (inverse_r_expanding, INV_R)):
            total = energy(prof, metric)
            bound = 2.0 * area(metric, prof.spec.q, prof.spec.Q)
            assert total - bound >= -1e-9


class TestLipschitzConstant:
    def test_critical(self, euclid_critical):
        sup_op, inf_lo = lipschitz_constant(euclid_critical, EUCLID)
        assert sup_op == 0.8 / 0.5  # q/r at the inner edge
        assert inf_lo <= 1e-9

    def test_conformal(self, euclid_conformal):
        sup_op, inf_lo = lipschitz_constant(euclid_conformal, EUCLID)
        assert sup_op == pytest.approx(1.0, abs=1e-9)
        assert inf_lo == pytest.approx(1.0, abs=1e-9)

    def test_conformal_placed_edge(self):
        # c = 0 within tol_c = 1e-3, while p(r) = r Q misses q by 1e-4 Q: the
        # inner end is placed at q, and the pair spans the edge q/r and the
        # stretch Q of the profile p = Q s (the edge alone gave sup < inf)
        spec = ProblemSpec(metric=EUCLID, q=0.8, Q=1.0, r=0.8001)
        config = SolverConfig(tol_c=1e-3)
        prof = build_profile(spec, solve_c(spec, config), config)
        assert prof.c == 0.0 and prof.inner == 0.8
        sup_op, inf_lo = lipschitz_constant(prof, EUCLID)
        assert sup_op == pytest.approx(1.0, rel=1e-14) and inf_lo == 0.8 / 0.8001

    def test_expanding_lower_bound(self, euclid_expanding):
        # c > 0 because log(Q/q) > log(1/r): the smallest stretch stays >= q
        assert euclid_expanding.c > 0.0
        _, inf_lo = lipschitz_constant(euclid_expanding, EUCLID)
        assert inf_lo >= 0.8 - 1e-9

    @pytest.mark.parametrize("q, Q, r", [
        (0.8, 1.0, 0.5),   # critical: p'(r) = 0
        (3.1, 9.7, 0.5),   # expanding
        (2.0, 5.0, 0.45),  # expanding
        (3.1, 9.7, 0.3),   # subcritical
        (2.0, 5.0, 0.33),  # subcritical
    ])
    def test_euclidean_closed_form(self, q, Q, r):
        # p = A s + B/s with p(r) = q, p(1) = Q and c = -4AB: the stretches
        # are p/s = A + B/s^2 and p' = A - B/s^2, both extreme at s = r
        A = (Q - q * r) / (1.0 - r * r)
        B = r * (q - Q * r) / (1.0 - r * r)
        spec = ProblemSpec(metric=EUCLID, q=q, Q=Q, r=r)
        prof = build_profile(spec, -4.0 * A * B)
        tangential, radial = q / r, A - B / (r * r)
        sup_op, inf_lo = lipschitz_constant(prof, EUCLID)
        assert sup_op == pytest.approx(max(tangential, radial), rel=1e-14)
        assert inf_lo == pytest.approx(min(tangential, radial), rel=1e-14,
                                       abs=1e-14 * sup_op)

    @pytest.mark.parametrize("fixture", ["euclid_critical", "euclid_expanding",
                                         "sphere_expanding",
                                         "inverse_r_expanding"])
    def test_tangential_stretch_at_inner_edge(self, fixture, request):
        # p/s is monotone, so one of the constants is p(r)/r itself
        prof = request.getfixturevalue(fixture)
        edge = prof.inner / prof.spec.r
        sup_op, inf_lo = lipschitz_constant(prof, prof.spec.metric)
        assert (sup_op if prof.c <= 0.0 else inf_lo) == edge

    @pytest.mark.parametrize("r", [0.5, 0.6, 0.8])
    def test_interior_extreme(self, r):
        # max p' lies inside: at r = 0.6 it is 6.63194 near s = 0.76, while
        # the ends give 6.196 and 5.164; no built-in metric puts it inside
        wavy = RadialMetric(
            eval=lambda y: 1.0 + 0.5 * np.sin(6.0 * y),
            deriv=lambda y: 3.0 * np.cos(6.0 * y),
            deriv2=lambda y: -18.0 * np.sin(6.0 * y),
            valid_interval=(0.0, math.inf), name="wavy")
        spec = ProblemSpec(metric=wavy, q=1.0, Q=3.0, r=r)
        prof = build_profile(spec, solve_c(spec))
        assert prof.c > 0.0
        s = np.linspace(r, 1.0, 100_001)
        sampled = np.max(prof.p_tau(prof.at_tau(np.log(s))) / s)
        sup_op, _ = lipschitz_constant(prof, wavy)
        assert sampled <= sup_op <= sampled * (1.0 + 1e-8)


class TestKKConstants:
    def test_conformal(self, euclid_conformal):
        assert kk_constants(euclid_conformal, EUCLID) == (1.0, 0.0)

    def test_critical(self, euclid_critical):
        k, k_prime = kk_constants(euclid_critical, EUCLID)
        assert k == 1.0
        assert k_prime == pytest.approx(2.56, abs=1e-9)

    def test_equality_at_inner_boundary(self, euclid_critical):
        # sharpness: ||Dw||^2 - 2J = (|Dw| - l(Dw))^2 = 1.6^2 at |z| = r
        op, lo = operator_norms(euclid_critical, 0.5 + 0j)
        _, k_prime = kk_constants(euclid_critical, EUCLID)
        assert (op - lo) ** 2 == pytest.approx(k_prime, abs=1e-6)


class TestExportGrid:
    def test_row_count_and_order(self, euclid_conformal):
        grid = PolarGrid(n_s=2, n_t=4, s_range=(0.8, 1.0))
        rows = export_grid(euclid_conformal, EUCLID, grid)
        assert len(rows) == 8
        radii = [abs(row.z) for row in rows]
        assert radii == sorted(radii)  # s-major ordering

    def test_conformal_hopf_zero(self, euclid_conformal):
        grid = PolarGrid(n_s=4, n_t=8, s_range=(0.8, 1.0))
        assert all(row.hopf == 0.0 for row in
                   export_grid(euclid_conformal, EUCLID, grid))

    def test_critical_inner_rows_degenerate(self, euclid_critical):
        grid = PolarGrid(n_s=3, n_t=4, s_range=(0.5, 1.0))
        rows = export_grid(euclid_critical, EUCLID, grid)
        inner = [row for row in rows if abs(abs(row.z) - 0.5) < 1e-14]
        assert inner and all(row.lonorm <= 1e-9 for row in inner)

    def test_norm_identities(self, sphere_expanding):
        grid = PolarGrid(n_s=16, n_t=16, s_range=(sphere_expanding.spec.r, 1.0))
        for row in export_grid(sphere_expanding, parse_metric("sphere"), grid):
            assert row.jac == pytest.approx(abs(row.wz) ** 2 - abs(row.wzb) ** 2,
                                            rel=1e-12, abs=1e-12)
            assert row.opnorm * row.lonorm == pytest.approx(abs(row.jac),
                                                            rel=1e-12, abs=1e-12)
            assert row.opnorm ** 2 + row.lonorm ** 2 == pytest.approx(
                2 * abs(row.wz) ** 2 + 2 * abs(row.wzb) ** 2, rel=1e-12)
            assert row.jac >= -1e-12

    def test_rows_are_field_arrays_bitwise(self, sphere_expanding):
        metric = parse_metric("sphere")
        grid = PolarGrid(n_s=8, n_t=16, s_range=(sphere_expanding.spec.r, 1.0))
        rows = export_grid(sphere_expanding, metric, grid)
        arrays = field_arrays(sphere_expanding, metric, grid.s_values,
                              grid.t_values)
        for i in range(grid.n_s):
            for j in range(grid.n_t):
                row = rows[i * grid.n_t + j]
                for name in FieldSample._fields:
                    value, expected = getattr(row, name), arrays[name][i, j]
                    assert type(value) is type(expected.item())
                    assert np.asarray(value).tobytes() == expected.tobytes()

    def test_rows_are_field_samples(self, sphere_expanding):
        # rows are built without FieldSample._make; each must still be a
        # FieldSample equal to _make of the same columns
        metric = parse_metric("sphere")
        grid = PolarGrid(n_s=8, n_t=16, s_range=(sphere_expanding.spec.r, 1.0))
        rows = export_grid(sphere_expanding, metric, grid)
        arrays = field_arrays(sphere_expanding, metric, grid.s_values,
                              grid.t_values)
        columns = [arrays[name].ravel().tolist() for name in FieldSample._fields]
        expected = [FieldSample._make(values) for values in zip(*columns)]
        assert len(rows) == len(expected) == grid.n_s * grid.n_t
        for row, want in zip(rows, expected):
            assert type(row) is FieldSample
            assert row == want

    def test_field_names(self):
        assert FieldSample._fields == ("z", "w", "wz", "wzb", "jac", "opnorm",
                                       "lonorm", "hopf")

    @pytest.mark.parametrize("fixture, metric", [
        ("sphere_expanding", parse_metric("sphere")),
        ("inverse_r_expanding", INV_R),
    ])
    def test_point_helpers_match_grid(self, fixture, metric, request):
        profile = request.getfixturevalue(fixture)
        grid = PolarGrid(n_s=6, n_t=8, s_range=(profile.spec.r, 1.0))
        arrays = field_arrays(profile, metric, grid.s_values, grid.t_values)
        close = lambda got, want: abs(got - want) <= 1e-14 * abs(want)
        for i in range(grid.n_s):
            for j in range(grid.n_t):
                z = complex(arrays["z"][i, j])
                at = lambda name: arrays[name][i, j]
                assert close(map_point(profile, z), at("w"))
                wz, wzb = derivatives_point(profile, z)
                assert close(wz, at("wz")) and close(wzb, at("wzb"))
                op, lo = operator_norms(profile, z)
                assert close(op, at("opnorm")) and close(lo, at("lonorm"))
                assert close(hopf_quantity(profile, metric, z), at("hopf"))
