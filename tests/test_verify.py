"""Verification suite behavior: residual convergence, probes, reports."""

import math

import numpy as np
import pytest

from annuharm import (
    DivergentIntegral,
    DivergentModulus,
    NoConvergence,
    PerturbationLeavesRange,
    PolarGrid,
    ProblemSpec,
    ProfileMismatch,
    RadialMetric,
    SolverConfig,
    StencilOutOfDomain,
    build_profile,
    critical_inner_radius,
    general_harmonic_residual,
    hopf_constancy_check,
    minimality_probe,
    modulus_equivalence_check,
    parse_metric,
    pde_residual,
    run_full_suite,
    solve_c,
)
from annuharm import verify
from annuharm.solver import Psi
from annuharm.verify import _residual_order_record, _sine_basis, _sine_bump

EUCLID = parse_metric("euclidean")
SPHERE = parse_metric("sphere")

# the twelve acceptance configurations (metric, q, Q, r)
TWELVE_CONFIGS = [
    ("euclidean", 0.8, 1.0, 0.5), ("euclidean", 0.8, 1.0, 0.9),
    ("inverse_r", 0.5, 1.0, 0.589), ("inverse_r", 0.5, 1.0, 0.45),
    ("sphere", 0.5, 1.0, 0.7), ("sphere", 0.5, 1.0, 0.4),
    ("euclidean", 0.8, 1.0, 0.8), ("euclidean", 0.8, 1.0, 0.6),
    ("inverse_r", 0.5, 1.0, 0.5), ("sphere", 0.5, 1.0, 0.5),
    ("hyperbolic", 0.3, 0.8, 0.5), ("hyperbolic", 0.3, 0.8, 0.3),
]


class TestPdeResidual:
    def test_conformal_roundoff_only(self, euclid_conformal):
        assert pde_residual(euclid_conformal, EUCLID, 1e-2) <= 1e-10

    def test_critical_truncation_level(self, euclid_critical):
        # the map is exactly harmonic; what remains is h^2 stencil truncation
        assert pde_residual(euclid_critical, EUCLID, 1e-3) <= 1e-5

    def test_second_order_convergence(self, sphere_expanding):
        res_h = pde_residual(sphere_expanding, SPHERE, 1e-3)
        res_half = pde_residual(sphere_expanding, SPHERE, 5e-4)
        assert 3.5 <= res_h / res_half <= 4.5

    def test_stencil_too_wide(self, euclid_critical):
        with pytest.raises(StencilOutOfDomain):
            pde_residual(euclid_critical, EUCLID, 0.2)


class TestGeneralHarmonicResidual:
    def test_conformal_identically_zero(self, euclid_conformal):
        assert general_harmonic_residual(euclid_conformal, EUCLID, 1e-3) <= 1e-12

    def test_critical_truncation_level(self, euclid_critical):
        # exact field -0.16/z^2; centered-stencil truncation of d/dzbar is
        # h^2 |phi'''| / 6 <= h^2 * 24|c/4| / (6 r^5) ~ 2e-5 at the inner edge
        assert general_harmonic_residual(euclid_critical, EUCLID, 1e-3) <= 3e-5
        assert general_harmonic_residual(euclid_critical, EUCLID, 5e-4) <= 1e-5

    def test_second_order_convergence(self, sphere_expanding):
        res_h = general_harmonic_residual(sphere_expanding, SPHERE, 1e-3)
        res_half = general_harmonic_residual(sphere_expanding, SPHERE, 5e-4)
        assert 3.5 <= res_h / res_half <= 4.5


class TestHopfConstancy:
    def test_critical(self, euclid_critical):
        grid = PolarGrid(n_s=32, n_t=64, s_range=(0.5, 1.0))
        record = hopf_constancy_check(euclid_critical, EUCLID, grid, 1e-6)
        assert record.passed and record.measured <= 1e-6

    def test_conformal(self, euclid_conformal):
        grid = PolarGrid(n_s=8, n_t=16, s_range=(0.8, 1.0))
        record = hopf_constancy_check(euclid_conformal, EUCLID, grid, 1e-10)
        assert record.passed

    def test_inverse_r(self, inverse_r_expanding):
        grid = PolarGrid(n_s=16, n_t=32,
                         s_range=(inverse_r_expanding.spec.r, 1.0))
        record = hopf_constancy_check(inverse_r_expanding,
                                      parse_metric("inverse_r"), grid, 1e-8)
        assert record.passed
        assert inverse_r_expanding.c / 4.0 == pytest.approx(0.125, abs=1e-9)


class TestMinimalityProbe:
    def test_conformal(self, euclid_conformal):
        report = minimality_probe(euclid_conformal, EUCLID, 20, 1e-2, seed=42)
        assert report.all_passed

    def test_critical(self, euclid_critical):
        report = minimality_probe(euclid_critical, EUCLID, 20, 1e-2, seed=42)
        assert report.all_passed

    @pytest.mark.parametrize("name, q, r, anchor, excess", [
        ("euclidean", 0.8, 0.5, 0.8, -1.2353617e-05),
        ("power:-3", 0.5, 0.17157287525380366, 1.0, -1.4449102e-06),
    ])
    def test_critical_anchor(self, name, q, r, anchor, excess):
        # at the critical constant g is 0/0 at the anchor, the profile's
        # inner end (y* = q) or outer end (y* = Q); the probe reads its limit
        # there, and meets the excess of a 262,145-point grid (relative to
        # the unperturbed energy)
        metric = parse_metric(name)
        spec = ProblemSpec(metric=metric, q=q, Q=1.0, r=r)
        prof = build_profile(spec, solve_c(spec))
        assert prof.classification == "Critical" and prof.psi.anchor == anchor
        report = minimality_probe(prof, metric, 20, 1e-2, seed=42)
        assert all(math.isfinite(check.measured) for check in report.checks)
        assert report["radial_minimality_excess"].measured == pytest.approx(
            excess, rel=1e-6)

    @pytest.mark.parametrize("fixture", ["euclid_critical", "euclid_conformal"])
    def test_flat_density_scaling_reads_first_variation(self, fixture, request):
        # for rho = 1 the discrete energy is exactly quadratic in p, so
        # excess(eps)/excess(eps/10) = 100 up to the discrete first variation
        # of the solved profile, and the worst gap max(50 - ratio,
        # ratio - 200) lies next to -50 (measured at most 4.9e-7 away)
        profile = request.getfixturevalue(fixture)
        report = minimality_probe(profile, EUCLID, 20, 1e-2, seed=42)
        scaling = report["radial_minimality_quadratic_scaling"].measured
        assert scaling == pytest.approx(-50.0, abs=2e-6)

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_bump_matches_direct_series(self, seed):
        # the probe builds sin(k pi x) and cos(k pi x) once; each bump must
        # still be bitwise the series summed directly
        x = np.linspace(0.0, 1.0, 4097)
        basis = _sine_basis(x)
        rng, direct = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            coeffs = direct.normal(size=3)
            k = np.arange(1, 4)[:, None] * math.pi
            phi = np.sum(coeffs[:, None] * np.sin(k * x[None, :]), axis=0)
            dphi = np.sum(coeffs[:, None] * k * np.cos(k * x[None, :]), axis=0)
            scale = np.max(np.abs(phi))
            got_phi, got_dphi = _sine_bump(rng, basis)
            assert np.array_equal(got_phi, phi / scale)
            assert np.array_equal(got_dphi, dphi / scale)

    def test_deterministic(self, euclid_critical):
        a = minimality_probe(euclid_critical, EUCLID, 5, 1e-2, seed=7).to_json()
        b = minimality_probe(euclid_critical, EUCLID, 5, 1e-2, seed=7).to_json()
        assert a == b

    def test_rejects_big_amplitude(self, euclid_critical):
        with pytest.raises(ValueError):
            minimality_probe(euclid_critical, EUCLID, 5, 0.1)

    def test_perturbation_leaves_range(self, euclid_conformal):
        # probing against a density valid only on an interval narrower than
        # the profile's range: every perturbed competitor escapes
        sliver = RadialMetric(
            eval=lambda y: np.ones_like(np.asarray(y, dtype=float)),
            deriv=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
            deriv2=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
            valid_interval=(0.85, 0.99),
            name="sliver",
        )
        with pytest.raises(PerturbationLeavesRange):
            minimality_probe(euclid_conformal, sliver, 3, 1e-2, seed=0)


class TestModulusEquivalence:
    def test_three_regimes(self):
        report = modulus_equivalence_check(EUCLID, 0.8, 1.0, [0.9, 0.8, 0.6])
        assert report.all_passed
        assert len(report.checks) == 3

    @pytest.mark.parametrize("scale", [1e-5, 1e-4, 1.0, 1e3])
    def test_three_regimes_scale_free(self, scale):
        # c scales by scale^2 with (q, Q); at 1e-5 the expanding c is below
        # the default tol_c, and must still not be read as conformal
        report = modulus_equivalence_check(EUCLID, 0.8 * scale, scale,
                                           [0.9, 0.8, 0.6])
        assert report.all_passed

    def test_conformal_within_tol_c(self):
        # solve_c returns c = 0 where the moduli agree within tol_c (here a
        # gap of 1.25e-4), and the sign law reads it by the same tolerance
        report = modulus_equivalence_check(EUCLID, 0.8, 1.0, [0.8001],
                                           SolverConfig(tol_c=1e-3))
        assert report.all_passed
        assert report.checks[0].detail.startswith("c=0,")

    def test_skips_below_critical(self):
        report = modulus_equivalence_check(EUCLID, 0.8, 1.0, [0.4, 0.6])
        assert report.all_passed
        assert "skipped" in report.checks[0].detail


class TestRunFullSuite:
    def test_critical_euclidean_passes(self):
        spec = ProblemSpec(metric=EUCLID, q=0.8, Q=1.0, r=0.5)
        report = run_full_suite(spec)
        assert report.all_passed
        assert report["min_stretch_vanishes"].measured <= 1e-6

    def test_conformal_passes_with_equality_entry(self):
        spec = ProblemSpec(metric=EUCLID, q=0.8, Q=1.0, r=0.8)
        report = run_full_suite(spec)
        assert report.all_passed
        assert report["energy_attains_lower_bound"].passed

    @pytest.mark.parametrize("r", [0.50000000049, 0.5000000003])
    def test_conformal_sliver(self, r):
        # the moduli agree within tol_c, so c = 0 and p = Q s ends at r Q,
        # not q: its energy is twice the area of A(r Q, Q), which the energy
        # entries take for their bound
        spec = ProblemSpec(metric=SPHERE, q=0.5, Q=1.0, r=r)
        report = run_full_suite(spec)
        assert report.all_passed
        assert report["energy_attains_lower_bound"].measured <= 1e-12
        assert f"A({r:.12g}, 1)" in report["energy_lower_bound"].detail

    def test_flat_psi_next_to_q(self):
        # Psi is flat next to q, so a gap within tol_c leaves p(r) 0.033 from
        # q, as build_profile admits; only the stencils fail, as p'(r) is
        # about 5e8, beyond any stencil of step 1e-3
        spec = ProblemSpec(metric=parse_metric("power:300"), q=0.5, Q=1.0, r=0.6)
        report = run_full_suite(spec)
        assert report["modulus_gap"].passed
        assert [c.name for c in report.checks if not c.passed] == ["pde_residual"]

    def test_below_critical_reported_not_raised(self):
        spec = ProblemSpec(metric=EUCLID, q=0.8, Q=1.0, r=0.4)
        report = run_full_suite(spec)
        assert not report.all_passed
        assert not report["solvable_configuration"].passed

    def test_deterministic(self):
        spec = ProblemSpec(metric=SPHERE, q=0.5, Q=1.0, r=0.7)
        assert run_full_suite(spec).to_json() == run_full_suite(spec).to_json()

    def test_record_invariant(self):
        spec = ProblemSpec(metric=EUCLID, q=0.8, Q=1.0, r=0.6)
        for check in run_full_suite(spec).checks:
            assert check.passed == (check.measured <= check.tolerance)

    @pytest.mark.parametrize("metric_name,q,Q,radii", [
        ("euclidean", 0.8, 1.0, (0.9, 0.8, 0.6)),
        ("inverse_r", 0.5, 1.0, (0.589, 0.5, 0.45)),
        ("sphere", 0.5, 1.0, (0.7, 0.5, 0.4)),
        ("hyperbolic", 0.3, 0.8, (0.5, 0.375, 0.3)),
    ])
    def test_cross_product(self, metric_name, q, Q, radii):
        # one expanding, one conformal-or-near, one subcritical per metric
        metric = parse_metric(metric_name)
        for r in radii:
            spec = ProblemSpec(metric=metric, q=q, Q=Q, r=r)
            report = run_full_suite(spec)
            failed = [c.name for c in report.checks if not c.passed]
            assert report.all_passed, f"{metric_name} r={r}: {failed}"


class TestSuiteStencils:
    @pytest.mark.parametrize("name, q, Q, r", TWELVE_CONFIGS)
    def test_residuals_match_public_functions(self, name, q, Q, r):
        # the suite reads both residuals from one stencil field per step,
        # both on the centres of h: its h field is bitwise the public
        # function's, and its entries extrapolate the two fields pointwise
        metric = parse_metric(name)
        spec = ProblemSpec(metric=metric, q=q, Q=Q, r=r)
        report = run_full_suite(spec)
        prof = build_profile(spec, solve_c(spec))
        h = min(1e-3, (1.0 - r) / 32.0)
        full, half = verify._stencil(prof, h, h), verify._stencil(prof, h / 2.0, h)
        assert np.array_equal(full.z[0], half.z[0])
        s, p = full.s[0], full.p[0]
        for check, residual, field, scale in (
            ("pde_residual", pde_residual,
             lambda step: verify._pde_residual(step, metric), np.max(p / s**2)),
            ("general_harmonic_residual", general_harmonic_residual,
             lambda step: verify._general_harmonic_residual(prof, step, metric),
             np.max(metric.eval(p) * p * p / s**3)),
        ):
            at_h, at_half = field(full), field(half)
            assert np.max(np.abs(at_h)) == residual(prof, metric, h)
            extrapolated = np.max(np.abs(4.0 * at_half - at_h)) / 3.0
            assert report[check].measured == extrapolated / scale
            assert report[f"{check}_order"] == _residual_order_record(
                check, np.max(np.abs(at_h)), np.max(np.abs(at_half)), h, scale)

    def test_stencil_radii_solved_once(self, monkeypatch):
        solved, steps = [], []
        v_of_log, stencil = Psi.v_of_log, verify._stencil

        def counted_v_of_log(self, target):
            solved.append(np.size(target))
            return v_of_log(self, target)

        def counted_stencil(profile, h, centre_h):
            solved.clear()
            step = stencil(profile, h, centre_h)
            steps.append((step, sum(solved)))
            return step

        monkeypatch.setattr(Psi, "v_of_log", counted_v_of_log)
        monkeypatch.setattr(verify, "_stencil", counted_stencil)
        spec = ProblemSpec(metric=SPHERE, q=0.5, Q=1.0, r=0.7)
        assert run_full_suite(spec).all_passed
        assert len(steps) == 2
        assert np.array_equal(steps[0][0].z[0], steps[1][0].z[0])
        for step, points in steps:
            assert step.s.size == 5 * 16 * 32
            assert 0 < points <= np.unique(step.s).size < step.s.size



FUZZ_NAMES = ["euclidean", "inverse_r", "sphere", "hyperbolic", "power:-3",
              "power:-2", "power:-1.5", "power:1", "power:2", "power:4"]
# the densities y^a among them: scaling the target annulus by lam scales p
# by lam and c by lam^(a+2), so no verdict of the suite may depend on lam
POWER_NAMES = ["euclidean", "inverse_r", "power:-3", "power:-2", "power:-1.5",
               "power:1", "power:2", "power:4"]


def _draw_q_r(rng, name, Q):
    """q = Q U(0.1, 0.9), then r ~ U(lo, min(0.99, max(1.5 lo, 1.5 q/Q)))
    with lo = max(1.01 critical_inner_radius, 0.01)."""
    q = Q * rng.uniform(0.1, 0.9)
    lo = max(1.01 * critical_inner_radius(parse_metric(name), q, Q), 0.01)
    return q, rng.uniform(lo, min(0.99, max(1.5 * lo, 1.5 * q / Q)))


def _verify_fuzz():
    """300 (name, q, Q, r), seed 7, round-robin over FUZZ_NAMES: Q uniform
    in [0.3, 0.95] for hyperbolic, else log-uniform in [0.3, 10]."""
    rng = np.random.default_rng(7)
    configs = []
    for i in range(300):
        name = FUZZ_NAMES[i % len(FUZZ_NAMES)]
        if name == "hyperbolic":
            Q = rng.uniform(0.3, 0.95)
        else:
            Q = math.exp(rng.uniform(math.log(0.3), math.log(10.0)))
        q, r = _draw_q_r(rng, name, Q)
        configs.append((name, q, Q, r))
    return configs


def _lambda_matrix():
    """160 (name, q, r) with Q = 1, seed 5, round-robin over POWER_NAMES."""
    rng = np.random.default_rng(5)
    return [(name, *_draw_q_r(rng, name, 1.0))
            for name in (POWER_NAMES[i % len(POWER_NAMES)] for i in range(160))]


class TestScaleFree:
    def test_verify_fuzz(self):
        # every 5th config: a verified solution or a typed numerical error
        failed = []
        for name, q, Q, r in _verify_fuzz()[::5]:
            try:
                report = run_full_suite(
                    ProblemSpec(metric=parse_metric(name), q=q, Q=Q, r=r))
            except (NoConvergence, DivergentModulus, DivergentIntegral,
                    ProfileMismatch):
                continue
            if not report.all_passed:
                failed.append((name, q, Q, r, [c.name for c in report.checks
                                               if not c.passed]))
        assert not failed

    def test_lambda_matrix(self):
        # every 5th config at lam = 1e-2, 1 and 1e2: the same failing set,
        # and every entry relative to its own scale the same to rounding;
        # the raw residuals of the _order entries carry lam, and the modulus
        # gap is what the root search leaves at each lam
        for name, q, r in _lambda_matrix()[::5]:
            metric = parse_metric(name)
            reports = [run_full_suite(ProblemSpec(metric=metric, q=lam * q,
                                                  Q=lam, r=r))
                       for lam in (1e-2, 1.0, 1e2)]
            failing = {tuple(c.name for c in report.checks if not c.passed)
                       for report in reports}
            assert len(failing) == 1, (name, q, r, failing)
            for check in reports[0].checks:
                if check.name.endswith("_order") or check.name == "modulus_gap":
                    continue
                values = [report[check.name].measured for report in reports]
                slack = (1e-5 if check.name == "radial_minimality_quadratic_scaling"
                         else 1e-8)
                assert max(values) - min(values) <= slack, (name, q, r,
                                                            check.name, values)
