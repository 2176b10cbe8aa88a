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
from annuharm.solver import Psi, euclidean_nitsche_map
from annuharm.verify import _residual_records, _sine_basis, _sine_bump

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


class TestChartResiduals:
    @pytest.mark.parametrize("name, q, Q, r", TWELVE_CONFIGS)
    def test_entries_match_chart_kernels(self, name, q, Q, r):
        # the suite's residual entries and their _order entries are bitwise
        # those of the chart kernels at the step and centres of log(1/r)
        metric = parse_metric(name)
        spec = ProblemSpec(metric=metric, q=q, Q=Q, r=r)
        report = run_full_suite(spec)
        prof = build_profile(spec, solve_c(spec))
        h = verify._chart_step(r)
        tau, p = verify._chart_points(prof, h)
        for check, residual in (
            ("pde_residual", verify._chart_pde(prof, metric, p, h)),
            ("general_harmonic_residual",
             verify._chart_hopf(prof, metric, tau, p, h)),
        ):
            at_h, at_half = residual.steps
            extrapolated = np.max(np.abs(4.0 * at_half - at_h)) / 3.0
            assert report[check].measured == extrapolated / residual.scale
            entry, order = _residual_records(check, residual, h,
                                             report[check].tolerance)
            assert report[check] == entry
            assert report[f"{check}_order"] == order

    @pytest.mark.parametrize("r", [0.5, 0.9, 0.99, 0.999])
    def test_step_and_targets_exact(self, r):
        # h is a power of two within min(1e-3, log(1/r)/32); the 16 centres
        # are distinct multiples of h/2 in [-log(1/r) + 2h, -2h], and each
        # target sits exactly 0, +-h or +-h/2 from its centre
        h = verify._chart_step(r)
        length = math.log(1.0 / r)
        bound = min(1e-3, length / 32.0)
        assert math.frexp(h)[0] == 0.5 and bound / 2.0 < h <= bound
        tau, p = verify._chart_points(euclidean_nitsche_map(r), h)
        assert tau.shape == p.shape == (5, 16)
        assert np.array_equal(tau / (0.5 * h), np.round(tau / (0.5 * h)))
        offsets = np.array([[h], [-h], [h / 2.0], [-h / 2.0]])
        assert np.array_equal(tau[1:] - tau[0], np.broadcast_to(offsets, (4, 16)))
        assert np.all(np.diff(tau[0]) > 0.0)
        assert tau[0, 0] >= 2.0 * h - length and tau[0, -1] == -2.0 * h

    def test_one_inverse_for_the_residuals(self, monkeypatch):
        # both steps and both kernels read p from one v_of_log call of at
        # most 80 targets
        solved, calls = [], []
        v_of_log, points = Psi.v_of_log, verify._chart_points

        def counted_v_of_log(self, target):
            solved.append(np.size(target))
            return v_of_log(self, target)

        def counted_points(profile, h):
            solved.clear()
            out = points(profile, h)
            calls.append(list(solved))
            return out

        monkeypatch.setattr(Psi, "v_of_log", counted_v_of_log)
        monkeypatch.setattr(verify, "_chart_points", counted_points)
        spec = ProblemSpec(metric=SPHERE, q=0.5, Q=1.0, r=0.7)
        assert run_full_suite(spec).all_passed
        assert len(calls) == 1 and len(calls[0]) == 1
        assert 0 < calls[0][0] <= 80

    @pytest.mark.parametrize("r", [0.3, 0.5, 0.8])
    def test_nitsche_closed_form(self, r):
        # p = (r^2 e^-tau + e^tau)/(1 + r^2) is a sum of exponentials in tau,
        # so the chart residual at step k is exactly 1/4 p ((2 cosh k - 2)/k^2
        # - 1) = 1/4 p (4 sinh^2(k/2)/k^2 - 1); at h = 2^-6 that truncation
        # (about 5e-6 p) dwarfs the rounding floor
        prof = euclidean_nitsche_map(r)
        h = 2.0**-6
        tau, p = verify._chart_points(prof, h)
        closed = (r * r * np.exp(-tau[0]) + np.exp(tau[0])) / (1.0 + r * r)
        residual = verify._chart_pde(prof, EUCLID, p, h)
        assert residual.floor < 1e-9
        for k, got in zip((h, h / 2.0), residual.steps):
            want = 0.25 * closed * ((2.0 * math.sinh(k / 2.0) / k) ** 2 - 1.0)
            assert np.max(np.abs(got - want)) <= residual.floor
            assert np.min(np.abs(want)) > 1e3 * residual.floor


FUZZ_NAMES = ["euclidean", "inverse_r", "sphere", "hyperbolic", "power:-3",
              "power:-2", "power:-1.5", "power:1", "power:2", "power:4"]
# the densities y^a among them: scaling the target annulus by lam scales p
# by lam and c by lam^(a+2), so no verdict of the suite may depend on lam
POWER_NAMES = ["euclidean", "inverse_r", "power:-3", "power:-2", "power:-1.5",
               "power:1", "power:2", "power:4"]


def _draw_Q(rng, name):
    """Q uniform in [0.3, 0.95] for hyperbolic, else log-uniform in [0.3, 10]."""
    if name == "hyperbolic":
        return rng.uniform(0.3, 0.95)
    return math.exp(rng.uniform(math.log(0.3), math.log(10.0)))


def _draw_q_r(rng, name, Q):
    """q = Q U(0.1, 0.9), then r ~ U(lo, min(0.99, max(1.5 lo, 1.5 q/Q)))
    with lo = max(1.01 critical_inner_radius, 0.01)."""
    q = Q * rng.uniform(0.1, 0.9)
    lo = max(1.01 * critical_inner_radius(parse_metric(name), q, Q), 0.01)
    return q, rng.uniform(lo, min(0.99, max(1.5 * lo, 1.5 * q / Q)))


def _verify_fuzz():
    """300 (name, q, Q, r), seed 7, round-robin over FUZZ_NAMES, Q by
    _draw_Q."""
    rng = np.random.default_rng(7)
    configs = []
    for i in range(300):
        name = FUZZ_NAMES[i % len(FUZZ_NAMES)]
        Q = _draw_Q(rng, name)
        q, r = _draw_q_r(rng, name, Q)
        configs.append((name, q, Q, r))
    return configs


def _expanding_fuzz():
    """200 (name, q, Q, r), seed 11, round-robin over FUZZ_NAMES: Q by
    _draw_Q, q = Q U(0.1, 0.9), then r = 1 - (1 - q/Q) 10^-U(0, 3),
    between the conformal radius q/Q and 1 (the strongly expanding
    regime)."""
    rng = np.random.default_rng(11)
    configs = []
    for i in range(200):
        name = FUZZ_NAMES[i % len(FUZZ_NAMES)]
        Q = _draw_Q(rng, name)
        q = Q * rng.uniform(0.1, 0.9)
        r = 1.0 - (1.0 - q / Q) * 10.0 ** -rng.uniform(0.0, 3.0)
        configs.append((name, q, Q, r))
    return configs


def _lambda_matrix():
    """160 (name, q, r) with Q = 1, seed 5, round-robin over POWER_NAMES."""
    rng = np.random.default_rng(5)
    return [(name, *_draw_q_r(rng, name, 1.0))
            for name in (POWER_NAMES[i % len(POWER_NAMES)] for i in range(160))]


# the expanding fuzz configs the suite fails, each on pde_residual alone:
# profiles steep next to r where q/Q is small, and thin annuli whose step
# approaches the rounding floor (ROADMAP item 11)
EXPANDING_FAILURES = {
    "power:4 0.15647/0.91295/0.74861", "power:4 0.053142/0.34519/0.94809",
    "euclidean 0.54996/0.70855/0.99867", "power:1 0.15612/1.0498/0.99792",
    "power:2 0.63646/2.794/0.97529", "power:1 0.21361/1.5317/0.99662",
    "power:1 0.074292/0.33176/0.99689", "power:4 1.4386/4.2432/0.99232",
    "power:4 0.78672/1.8828/0.96315", "power:2 0.67684/4.3253/0.99222",
    "power:4 0.10639/0.3559/0.99523", "power:2 2.233/6.6325/0.95071",
    "power:2 2.1599/9.3397/0.99885", "power:4 0.34895/1.9605/0.88559",
    "power:1 0.21808/1.598/0.88179", "sphere 0.42001/3.1543/0.98951",
    "power:2 0.074171/0.40844/0.98188", "power:2 0.33107/0.87923/0.99528",
}


class TestScaleFree:
    def test_verify_fuzz(self):
        # every 7th config, which visits all 10 metrics of the round robin: a
        # verified solution or a typed numerical error
        failed = []
        for name, q, Q, r in _verify_fuzz()[::7]:
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

    def test_expanding_fuzz(self):
        # all 200 configs (every 5th would visit only euclidean and power:-2
        # of the round robin): the failing set by name, so that a fix or a
        # regression both show; none may end in a typed error
        failed = {}
        for name, q, Q, r in _expanding_fuzz():
            report = run_full_suite(
                ProblemSpec(metric=parse_metric(name), q=q, Q=Q, r=r))
            bad = tuple(c.name for c in report.checks if not c.passed)
            if bad:
                failed[f"{name} {q:.5g}/{Q:.5g}/{r:.5g}"] = bad
        assert failed == dict.fromkeys(EXPANDING_FAILURES, ("pde_residual",))

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
