"""Independent numerical verification of solved profiles.

The harmonic-map equation is re-checked with centered finite-difference
stencils on Cartesian offsets (second order) applied to the map alone, so
that check shares no derivative formulas with the field evaluator; the
holomorphy of the quadratic-differential field is checked by differencing
the evaluator's field on the same stencils.  Energy bounds, distortion
inequalities and radial local minimality are probed directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BelowCritical, PerturbationLeavesRange, StencilOutOfDomain
from .fields import (
    PolarGrid,
    _columns,
    field_arrays,
    kk_constants,
    lipschitz_constant,
)
from .fields import energy as field_energy
from .metrics import RadialMetric, area
from .solver import (
    CRITICAL,
    MinimizerProfile,
    ProblemSpec,
    SolverConfig,
    build_profile,
    solve_c,
)

__all__ = [
    "CheckRecord",
    "VerificationReport",
    "pde_residual",
    "general_harmonic_residual",
    "hopf_constancy_check",
    "minimality_probe",
    "modulus_equivalence_check",
    "run_full_suite",
]

# fitted convergence order required of the residual stencils, and the
# absolute residual level below which order fitting is meaningless
_MIN_ORDER = 1.8
_NOISE_FLOOR = 1e-9


@dataclass(frozen=True)
class CheckRecord:
    """One verification entry; passed is always measured <= tolerance."""

    name: str
    measured: float
    tolerance: float
    passed: bool
    detail: str = ""

    @classmethod
    def measure(cls, name, measured, tolerance, detail=""):
        measured = float(measured)
        return cls(name, measured, float(tolerance), bool(measured <= tolerance),
                   detail)


@dataclass
class VerificationReport:
    """Ordered collection of verification entries."""

    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    def as_dict(self) -> dict:
        return {
            "checks": [
                {
                    "name": c.name,
                    "measured": c.measured,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "all_passed": self.all_passed,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def __getitem__(self, name: str) -> CheckRecord:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)


def _stencil_points(profile: MinimizerProfile, h: float, n_s: int = 16,
                    n_t: int = 32) -> np.ndarray:
    """Interior grid points whose full +/-h stencils stay inside the
    annulus, stacked as (5, N): center, +h, -h, +ih, -ih."""
    r = profile.spec.r
    lo, hi = r + 2.0 * h, 1.0 - 2.0 * h
    if not lo < hi:
        raise StencilOutOfDomain(
            f"stencil step h={h} leaves no interior grid in [{r}, 1]"
        )
    s = np.linspace(lo, hi, n_s)
    t = 2.0 * math.pi * np.arange(n_t) / n_t
    z = (s[:, None] * np.exp(1j * t)[None, :]).ravel()
    return np.stack([z, z + h, z - h, z + 1j * h, z - 1j * h])


def pde_residual(profile: MinimizerProfile, metric: RadialMetric, h: float) -> float:
    """Max modulus over an interior 16x32 grid of the harmonic-map residual

        tau = h_{z zbar} + (log rho)_w(h) h_z h_zbar,

    with h_{z zbar} from the 5-point Laplacian / 4 and the Wirtinger first
    derivatives from centered differences.  The map itself is read from the
    first integral to rounding accuracy, so the result is pure stencil
    truncation error (second order in h).
    """
    pts = _stencil_points(profile, h)
    radii = np.abs(pts)
    p = profile.profile(radii)
    w = p * pts / radii

    center = w[0]
    h_zzb = (w[1] + w[2] + w[3] + w[4] - 4.0 * center) / (4.0 * h * h)
    wx = (w[1] - w[2]) / (2.0 * h)
    wy = (w[3] - w[4]) / (2.0 * h)
    h_z = 0.5 * (wx - 1j * wy)
    h_zb = 0.5 * (wx + 1j * wy)

    pw = np.abs(center)
    log_rho_w = 0.5 * (metric.deriv(pw) / metric.eval(pw)) * np.conj(center) / pw
    tau = h_zzb + log_rho_w * h_z * h_zb
    return float(np.max(np.abs(tau)))


def general_harmonic_residual(
    profile: MinimizerProfile, metric: RadialMetric, h: float
) -> float:
    """Max modulus of the finite-difference d/dzbar of the sampled field
    rho(w) w_z conj(w_zbar); identically zero for a solved profile, whose
    field is the meromorphic c/(4 z^2)."""
    pts = _stencil_points(profile, h)
    s = np.abs(pts)
    hopf = _columns(profile, metric, s, pts / s).hopf
    d_zbar = ((hopf[1] - hopf[2]) + 1j * (hopf[3] - hopf[4])) / (4.0 * h)
    return float(np.max(np.abs(d_zbar)))


def hopf_constancy_check(
    profile: MinimizerProfile, metric: RadialMetric, grid: PolarGrid, tol: float
) -> CheckRecord:
    """z^2 rho(w) w_z conj(w_zbar) must equal the real constant c/4."""
    arrays = field_arrays(profile, metric, grid.s_values, grid.t_values)
    return _hopf_record(profile.c, arrays["z"] ** 2 * arrays["hopf"], tol)


def _hopf_record(c: float, quotient: np.ndarray, tol: float) -> CheckRecord:
    deviation = float(np.max(np.abs(quotient - c / 4.0)))
    return CheckRecord.measure(
        "hopf_constant_deviation", deviation, tol,
        f"quadratic-differential constant c/4 = {c / 4.0:.12g}",
    )


def _sine_bump(rng, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Random 3-term sine series vanishing at both ends, sup-normalized;
    returns (phi, phi') on the unit grid x in [0, 1]."""
    coeffs = rng.normal(size=3)
    k = np.arange(1, 4)[:, None] * math.pi
    phi = np.sum(coeffs[:, None] * np.sin(k * x[None, :]), axis=0)
    dphi = np.sum(coeffs[:, None] * k * np.cos(k * x[None, :]), axis=0)
    scale = np.max(np.abs(phi))
    return phi / scale, dphi / scale


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule on an odd number of uniform samples."""
    h = (x[-1] - x[0]) / (x.size - 1)
    inner = 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])
    return float(h / 3.0 * (y[0] + inner + y[-1]))


def minimality_probe(
    profile: MinimizerProfile,
    metric: RadialMetric,
    n_perturbations: int,
    eps: float,
    seed: int = 42,
) -> VerificationReport:
    """Probe local minimality within the radial family.

    Perturbs the profile by random fixed-endpoint bumps at amplitudes eps
    and eps/10 and checks that the discretized energy never drops and that
    the excess scales quadratically.  Competitors are radial with fixed
    boundary values; this is radial local minimality only.
    """
    if eps > 1e-2:
        raise ValueError("eps must be at most 1e-2")
    rng = np.random.default_rng(seed)
    spec = profile.spec
    r = spec.r
    s = np.linspace(r, 1.0, 4097)
    x = (s - r) / (1.0 - r)
    p0 = profile.profile(s)
    dp0 = profile.psi.slope(s, p0)
    lo, hi = metric.valid_interval

    def discrete_energy(p, dp):
        integrand = metric.eval(p) * (dp * dp + (p / s) ** 2) * s
        return 2.0 * math.pi * _simpson(integrand, s)

    base = discrete_energy(p0, dp0)
    min_excess = math.inf
    worst_ratio_gap = -math.inf
    for _ in range(n_perturbations):
        for attempt in range(101):
            if attempt == 100:
                raise PerturbationLeavesRange(
                    "could not keep the perturbed profile inside "
                    f"{metric.valid_interval} after 100 retries"
                )
            phi, dphi = _sine_bump(rng, x)
            dphi = dphi / (1.0 - r)  # chain rule from unit grid to s
            trial = p0 + eps * phi
            if np.all(trial > lo) and np.all(trial < hi) and np.all(trial > 0.0):
                break
        excesses = []
        for amplitude in (eps, eps / 10.0):
            perturbed = discrete_energy(p0 + amplitude * phi,
                                        dp0 + amplitude * dphi)
            excesses.append(perturbed - base)
        min_excess = min(min_excess, *excesses)
        ratio = excesses[0] / excesses[1] if excesses[1] != 0.0 else math.inf
        worst_ratio_gap = max(worst_ratio_gap, 50.0 - ratio, ratio - 200.0)

    report = VerificationReport()
    report.checks.append(
        CheckRecord.measure(
            "radial_minimality_excess", -min_excess, 1e-10,
            f"{n_perturbations} perturbations at eps={eps:g} and {eps / 10:g}",
        )
    )
    report.checks.append(
        CheckRecord.measure(
            "radial_minimality_quadratic_scaling", worst_ratio_gap, 0.0,
            "excess(eps)/excess(eps/10) must lie in [50, 200]",
        )
    )
    return report


def _modulus_sign_record(q: float, Q: float, r: float, c: float,
                         tol_c: float) -> CheckRecord:
    """sign(c) against sign(log(Q/q) - log(1/r)) for a solved c."""
    gap = math.log(Q / q) - math.log(1.0 / r)
    if abs(c) <= tol_c:
        agree = abs(gap) <= 1e-6
    elif c > 0.0:
        agree = gap > -1e-9
    else:
        agree = gap < 1e-9
    return CheckRecord.measure(
        f"modulus_sign_r={r:g}", 0.0 if agree else 1.0, 0.5,
        f"c={c:.6g}, Mod(target)-Mod(domain)={gap:.6g}",
    )


def modulus_equivalence_check(
    metric: RadialMetric,
    q: float,
    Q: float,
    r_values,
    config: SolverConfig = SolverConfig(),
) -> VerificationReport:
    """sign(c) must match sign(log(Q/q) - log(1/r)) for every solvable r."""
    report = VerificationReport()
    for r in r_values:
        try:
            c = solve_c(ProblemSpec(metric=metric, q=q, Q=Q, r=r), config)
        except BelowCritical as exc:
            report.checks.append(
                CheckRecord.measure(
                    f"modulus_sign_r={r:g}", 0.0, 0.5,
                    f"skipped: below critical (critical_r={exc.critical_r})",
                )
            )
            continue
        report.checks.append(_modulus_sign_record(q, Q, r, c, config.tol_c))
    return report


def _residual_order_record(name: str, res_h: float, res_half: float,
                           h: float) -> CheckRecord:
    if res_h <= _NOISE_FLOOR:
        return CheckRecord.measure(
            f"{name}_order", 0.0, 0.0,
            f"residual {res_h:.3g} at h={h:g} is below the noise floor; "
            "order not measurable",
        )
    return CheckRecord.measure(
        f"{name}_order", res_half, res_h / 2.0**_MIN_ORDER,
        f"residual {res_h:.3g} at h={h:g} vs {res_half:.3g} at h/2 "
        f"(fitted order {math.log2(res_h / res_half):.2f})"
        if res_half > 0.0 else "residual vanished under halving",
    )


def run_full_suite(
    spec: ProblemSpec,
    config: SolverConfig = SolverConfig(),
    check_tol: float | None = None,
) -> VerificationReport:
    """Solve the configuration and run every verification check.

    Deterministic for a fixed config (the perturbation seed lives in the
    config).  An infeasible configuration is reported as a failed
    "solvable_configuration" entry instead of raising.  ``check_tol``
    overrides the tolerance of the constancy check (defaults to the
    config's tol_c).
    """
    if check_tol is None:
        check_tol = config.tol_c
    report = VerificationReport()
    try:
        c = solve_c(spec, config)
    except BelowCritical as exc:
        report.checks.append(
            CheckRecord(
                name="solvable_configuration",
                measured=1.0,
                tolerance=0.0,
                passed=False,
                detail=f"below critical: critical_r={exc.critical_r:.12g}, "
                       f"critical_c={exc.critical_c:.12g}",
            )
        )
        return report

    profile = build_profile(spec, c, config)
    metric, q, Q, r = spec.metric, spec.q, spec.Q, spec.r
    report.checks.append(
        CheckRecord.measure("solvable_configuration", 0.0, 0.0,
                            f"c={c:.12g}, classification={profile.classification}")
    )

    # profile endpoint and inverse round trip
    report.checks.append(
        CheckRecord.measure(
            "profile_inner_endpoint", abs(profile.profile(r) - q), 1e-6 * Q,
            "p(r) must meet the inner target radius",
        )
    )
    s_sample = np.linspace(r, 1.0, 100)
    roundtrip = np.max(np.abs(profile.inverse(profile.profile(s_sample)) - s_sample))
    report.checks.append(
        CheckRecord.measure("inverse_round_trip", roundtrip, 1e-8,
                            "inverse(profile(s)) = s at 100 sample points")
    )

    # admissibility of the constant along the profile
    s_dense = np.linspace(r, 1.0, 512)
    p_dense = profile.profile(s_dense)
    constraint = p_dense**2 * metric.eval(p_dense) + c
    report.checks.append(
        CheckRecord.measure(
            "constraint_lower_bound", -float(np.min(constraint)), 1e-10,
            "p^2 rho(p) + c must stay nonnegative",
        )
    )

    # quadratic-differential constancy
    grid = PolarGrid(n_s=32, n_t=64, s_range=(r, 1.0))
    arrays = field_arrays(profile, metric, grid.s_values, grid.t_values)
    quotient = arrays["z"] ** 2 * arrays["hopf"]
    report.checks.append(_hopf_record(c, quotient, check_tol))
    report.checks.append(
        CheckRecord.measure(
            "hopf_imaginary_part", abs(float(np.mean(quotient.imag))), 1e-8,
            "mean imaginary part of z^2 rho w_z conj(w_zbar)",
        )
    )

    # PDE residuals with order-of-convergence checks
    h = min(1e-3, (1.0 - r) / 32.0)
    res_pde = pde_residual(profile, metric, h)
    res_pde_half = pde_residual(profile, metric, h / 2.0)
    report.checks.append(
        CheckRecord.measure("pde_residual", res_pde, 5e-4,
                            f"max |tau| at h={h:g}")
    )
    report.checks.append(
        _residual_order_record("pde_residual", res_pde, res_pde_half, h)
    )
    res_gen = general_harmonic_residual(profile, metric, h)
    res_gen_half = general_harmonic_residual(profile, metric, h / 2.0)
    report.checks.append(
        CheckRecord.measure("general_harmonic_residual", res_gen, 5e-4,
                            f"max |d/dzbar of the field| at h={h:g}")
    )
    report.checks.append(
        _residual_order_record("general_harmonic_residual", res_gen,
                               res_gen_half, h)
    )

    # energy bound
    total_energy = field_energy(profile, metric)
    lower_bound = 2.0 * area(metric, q, Q)
    report.checks.append(
        CheckRecord.measure(
            "energy_lower_bound", lower_bound - total_energy, 1e-9,
            f"energy {total_energy:.12g} vs twice the target area "
            f"{lower_bound:.12g}",
        )
    )
    if abs(c) <= 1e-8:
        report.checks.append(
            CheckRecord.measure(
                "energy_attains_lower_bound", abs(total_energy - lower_bound),
                1e-8, "conformal maps attain the bound",
            )
        )
    elif abs(c) >= 1e-3:
        report.checks.append(
            CheckRecord.measure(
                "energy_above_lower_bound",
                lower_bound + 1e-8 - total_energy, 0.0,
                "non-conformal maps must exceed the bound",
            )
        )

    # distortion inequality and algebraic norm identities
    _, k_prime = kk_constants(profile, metric)
    norm_sq = 2.0 * (np.abs(arrays["wz"]) ** 2 + np.abs(arrays["wzb"]) ** 2)
    kk_slack = norm_sq - 2.0 * arrays["jac"] - k_prime
    report.checks.append(
        CheckRecord.measure(
            "kk_inequality", float(np.max(kk_slack)), 1e-9,
            f"||Dw||^2 <= 2 J + K' with K'={k_prime:.6g}",
        )
    )
    product_gap = np.abs(
        arrays["opnorm"] * arrays["lonorm"] - np.abs(arrays["jac"])
    ) / (1.0 + np.abs(arrays["jac"]))
    report.checks.append(
        CheckRecord.measure("norm_product_identity", float(np.max(product_gap)),
                            1e-12, "|Dw| l(Dw) = |J|")
    )
    sum_gap = np.abs(arrays["opnorm"] ** 2 + arrays["lonorm"] ** 2 - norm_sq) \
        / (1.0 + norm_sq)
    report.checks.append(
        CheckRecord.measure("norm_sum_identity", float(np.max(sum_gap)), 1e-12,
                            "|Dw|^2 + l(Dw)^2 = ||Dw||^2")
    )
    report.checks.append(
        CheckRecord.measure("jacobian_sign", -float(np.min(arrays["jac"])), 1e-12,
                            "sense-preserving: J >= 0")
    )

    # smallest-stretch bounds by regime
    _, inf_lo = lipschitz_constant(profile, metric)
    if c >= 0.0:
        report.checks.append(
            CheckRecord.measure("min_stretch_bound", q - inf_lo, 1e-9,
                                "for c >= 0, inf l(Dw) >= q")
        )
    elif profile.classification == CRITICAL:
        report.checks.append(
            CheckRecord.measure("min_stretch_vanishes", inf_lo, 1e-6,
                                "critical maps lose the lower stretch bound")
        )
    else:
        report.checks.append(
            CheckRecord.measure("min_stretch_positive", -inf_lo, 0.0,
                                f"inf l(Dw) = {inf_lo:.6g}")
        )

    # modulus comparison sign law for this configuration
    report.checks.append(_modulus_sign_record(q, Q, r, c, config.tol_c))

    # radial local minimality
    report.extend(
        minimality_probe(profile, metric, n_perturbations=20, eps=1e-2,
                         seed=config.seed)
    )
    return report
