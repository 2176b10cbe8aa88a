"""Independent numerical verification of solved profiles.

The suite checks the harmonic-map equation in the chart zeta = log z = tau +
i theta, where the map's Hopf differential c/(4 z^2) dz^2 is the constant
(c/4) dzeta^2 and, for w = p e^{i theta}, the equation reads

    1/4 [p_tautau - p + (rho'/2 rho)(p_tau^2 - p^2)] e^{i theta}

with its theta-part exact.  Centred differences of p alone in tau (second
order) check it, so that check shares no derivative formulas with the field
evaluator; p is read at exact targets -tau through the first integral.  The
holomorphy of the evaluator's quadratic-differential field is checked by
differencing that field along tau at the same points.  The public
``pde_residual`` and ``general_harmonic_residual`` keep their Cartesian
stencils (5-point Laplacian and centred Wirtinger derivatives on a 16 x 32
polar grid).  Energy bounds, distortion inequalities, the Lipschitz pair and
radial local minimality (the last two on the profile's samples along tau)
are probed directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

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
from .numerics import _EPS
from .solver import (
    CONFORMAL,
    CRITICAL,
    MinimizerProfile,
    ProblemSpec,
    SolverConfig,
    _modulus_gap,
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

# fitted convergence order required of the residual differences
_MIN_ORDER = 1.8
# the interior grid of the public residual stencils: radii by phases
_STENCIL_S = 16
_STENCIL_T = 32
# the suite's residuals: centres in tau, and the targets at each in half
# steps h/2 (centre, +h, -h, +h/2, -h/2)
_CHART_CENTRES = 16
_HALF_STEPS = np.array([0.0, 2.0, -2.0, 1.0, -1.0])[:, None]


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
        return {"checks": [asdict(check) for check in self.checks],
                "all_passed": self.all_passed}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def __getitem__(self, name: str) -> CheckRecord:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)


def _stencil(profile: MinimizerProfile,
             h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stencil field of step h on the interior _STENCIL_S x _STENCIL_T
    grid (r + 2h to 1 - 2h), whose full +/-h stencils stay inside the
    annulus: the points stacked as (5, N) (center, +h, -h, +ih, -ih), their
    radii s and the profile p(s) there."""
    r = profile.spec.r
    lo, hi = r + 2.0 * h, 1.0 - 2.0 * h
    if not lo < hi:
        raise StencilOutOfDomain(
            f"stencil step h={h} leaves no interior grid in [{r}, 1]"
        )
    s = np.linspace(lo, hi, _STENCIL_S)
    t = 2.0 * math.pi * np.arange(_STENCIL_T) / _STENCIL_T
    z = (s[:, None] * np.exp(1j * t)[None, :]).ravel()
    pts = np.stack([z, z + h, z - h, z + 1j * h, z - 1j * h])
    radii = np.abs(pts)
    return pts, radii, profile.profile(radii)


def pde_residual(profile: MinimizerProfile, metric: RadialMetric, h: float) -> float:
    """Max modulus over an interior 16x32 grid of the harmonic-map residual

        tau = h_{z zbar} + (log rho)_w(h) h_z h_zbar,

    with h_{z zbar} from the 5-point Laplacian / 4 and the Wirtinger first
    derivatives from centered differences.  The map itself is read from the
    first integral to rounding accuracy, so the result is pure stencil
    truncation error (second order in h).
    """
    z, s, p = _stencil(profile, h)
    w = p * z / s

    center = w[0]
    h_zzb = (w[1] + w[2] + w[3] + w[4] - 4.0 * center) / (4.0 * h * h)
    wx = (w[1] - w[2]) / (2.0 * h)
    wy = (w[3] - w[4]) / (2.0 * h)
    h_z = 0.5 * (wx - 1j * wy)
    h_zb = 0.5 * (wx + 1j * wy)

    pw = np.abs(center)
    log_rho_w = 0.5 * (metric.deriv(pw) / metric.eval(pw)) * np.conj(center) / pw
    return float(np.max(np.abs(h_zzb + log_rho_w * h_z * h_zb)))


def general_harmonic_residual(
    profile: MinimizerProfile, metric: RadialMetric, h: float
) -> float:
    """Max modulus of the finite-difference d/dzbar of the sampled field
    rho(w) w_z conj(w_zbar); identically zero for a solved profile, whose
    field is the meromorphic c/(4 z^2)."""
    z, s, p = _stencil(profile, h)
    hopf = _columns(profile, metric, s, z / s, p).hopf
    field = ((hopf[1] - hopf[2]) + 1j * (hopf[3] - hopf[4])) / (4.0 * h)
    return float(np.max(np.abs(field)))


class _ChartResidual(NamedTuple):
    """A residual of the suite at the chart's centres: its values at steps h
    and h/2 (rows), the scale of the terms it is formed from, and its
    rounding floor at h/2."""

    steps: np.ndarray
    scale: float
    floor: float


def _chart_step(r: float) -> float:
    """The residuals' step in tau: the largest power of two at most
    min(1e-3, log(1/r)/32)."""
    _, exponent = math.frexp(min(1e-3, math.log(1.0 / r) / 32.0))
    return math.ldexp(1.0, exponent - 1)


def _chart_points(profile: MinimizerProfile,
                  h: float) -> tuple[np.ndarray, np.ndarray]:
    """(tau, p): _CHART_CENTRES centres on multiples of h/2 in [-L + 2h, -2h],
    L = log(1/r), each with the targets tau + (0, +h, -h, +h/2, -h/2) as
    rows of shape (5, _CHART_CENTRES), and p there.  For h a power of two
    every target is an exact float, and all of them are solved in one
    at_tau call, with no log |z| rounded."""
    half = 0.5 * h
    first = math.ceil((2.0 * h - math.log(1.0 / profile.spec.r)) / half)
    tau = (np.round(np.linspace(first, -4.0, _CHART_CENTRES)) + _HALF_STEPS) * half
    return tau, profile.at_tau(tau)


def _chart_pde(profile: MinimizerProfile, metric: RadialMetric, p: np.ndarray,
               h: float) -> _ChartResidual:
    """1/4 [p_tautau - p + (rho'/2 rho)(p_tau^2 - p^2)] at the centres, with
    p_tautau and p_tau by centred differences of step h and h/2.  The scale
    is 1/4 max(|p_tautau|, p, |rho'/2 rho| (p_tau^2 + p^2)), read from the
    first integral p_tau^2 = p^2 + c/rho and p_tautau = p - c rho'/(2 rho^2);
    the floor carries the accuracy of p, v_of_log's stopping step tol_y =
    2^-50 Q, through the h/2 second difference: 16 tol_y/h^2."""
    c, centre = profile.c, p[0]
    k = np.array([[h], [0.5 * h]])
    plus, minus = p[1::2], p[2::2]
    p_tt = (plus + minus - 2.0 * centre) / (k * k)
    p_t = (plus - minus) / (2.0 * k)
    density = metric.eval(centre)
    log_rho = 0.5 * metric.deriv(centre) / density
    steps = 0.25 * (p_tt - centre + log_rho * (p_t * p_t - centre * centre))
    terms = np.maximum.reduce([np.abs(centre - c * log_rho / density), centre,
                               np.abs(log_rho) * (2.0 * centre * centre
                                                  + c / density)])
    floor = 16.0 * 2.0**-50 * profile.spec.Q / (h * h)
    return _ChartResidual(steps, 0.25 * float(np.max(terms)), floor)


def _chart_hopf(profile: MinimizerProfile, metric: RadialMetric,
                tau: np.ndarray, p: np.ndarray, h: float) -> _ChartResidual:
    """d/dzetabar = 1/2 d/dtau, by centred differences of step h and h/2, of
    the evaluator's field rho w_zeta conj(w_zetabar) = z^2 rho w_z
    conj(w_zbar) at the centres (theta = 0).  The evaluator reads p' from
    the first integral, which makes that field the constant c/4 at any p, so
    its exact value is 0 and what this measures is the evaluator's rounding.
    The scale is the field's term size 1/4 max rho (p_tau^2 + p^2) = 1/4 max
    (2 rho p^2 + c), and the floor 16 eps of it through the h/2 difference:
    16 eps scale/h."""
    s = np.exp(tau)
    field = s * s * _columns(profile, metric, s, 1.0, p).hopf
    k = np.array([[h], [0.5 * h]])
    steps = (field[1::2] - field[2::2]) / (4.0 * k)
    centre = p[0]
    scale = 0.25 * float(np.max(2.0 * metric.eval(centre) * centre * centre
                                + profile.c))
    return _ChartResidual(steps, scale, 16.0 * _EPS * scale / h)


def hopf_constancy_check(
    profile: MinimizerProfile, metric: RadialMetric, grid: PolarGrid, tol: float
) -> CheckRecord:
    """z^2 rho(w) w_z conj(w_zbar) must equal the real constant c/4, to tol
    of max |z|^2 rho ||Dw||^2 / 4 on the grid, the size of the terms the
    quotient is formed from."""
    arrays = field_arrays(profile, metric, grid.s_values, grid.t_values)
    return _hopf_records(profile.c, arrays, metric, tol)[0]


def _hopf_records(c: float, arrays: dict, metric: RadialMetric,
                  tol: float) -> tuple[CheckRecord, CheckRecord]:
    """The deviation of the quotient z^2 rho(w) w_z conj(w_zbar) from c/4
    (bound tol) and the mean of its imaginary part, over the term scale max
    |z|^2 rho ||Dw||^2 / 4, which bounds |z^2 rho w_z w_zbar|."""
    z_sq = arrays["z"] ** 2
    quotient = z_sq * arrays["hopf"]
    norm_sq = 2.0 * (np.abs(arrays["wz"]) ** 2 + np.abs(arrays["wzb"]) ** 2)
    density = metric.eval(np.abs(arrays["w"]))
    scale = float(np.max(np.abs(z_sq) * density * norm_sq)) / 4.0
    return (
        CheckRecord.measure(
            "hopf_constant_deviation",
            float(np.max(np.abs(quotient - c / 4.0))) / scale, tol,
            f"over the term scale {scale:.6g}; quadratic-differential "
            f"constant c/4 = {c / 4.0:.12g}"),
        CheckRecord.measure(
            "hopf_imaginary_part", abs(float(np.mean(quotient.imag))) / scale,
            1e-9, "mean imaginary part of z^2 rho w_z conj(w_zbar) over the "
            f"term scale {scale:.6g}"),
    )


def _sine_basis(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k pi, sin(k pi x), cos(k pi x)) for k = 1, 2, 3 on the unit grid x,
    one row per k."""
    k = np.arange(1, 4)[:, None] * math.pi
    return k, np.sin(k * x[None, :]), np.cos(k * x[None, :])


def _sine_bump(rng, basis) -> tuple[np.ndarray, np.ndarray]:
    """Random 3-term sine series vanishing at both ends, sup-normalized;
    returns (phi, phi') on the unit grid of the _sine_basis."""
    k, sines, cosines = basis
    coeffs = rng.normal(size=3)
    phi = np.sum(coeffs[:, None] * sines, axis=0)
    dphi = np.sum(coeffs[:, None] * k * cosines, axis=0)
    scale = np.max(np.abs(phi))
    return phi / scale, dphi / scale


def minimality_probe(
    profile: MinimizerProfile,
    metric: RadialMetric,
    n_perturbations: int,
    eps: float,
    seed: int = 42,
) -> VerificationReport:
    """Probe local minimality within the radial family.

    Perturbs the profile by random fixed-endpoint bumps at amplitudes eps Q
    and eps Q/10 and checks that the discretized energy never drops by more
    than 1e-12 of its unperturbed value and that the excess scales
    quadratically, so that neither entry depends on the scale of the target
    annulus.  Competitors are radial with fixed boundary values; this is
    radial local minimality only.  The energy 2 pi int rho(p) (p_tau^2 +
    p^2) dtau is summed over the profile's samples with their weights in
    tau; a bump's p_tau is s times its slope in s.
    """
    if eps > 1e-2:
        raise ValueError("eps must be at most 1e-2")
    rng = np.random.default_rng(seed)
    r, amplitude = profile.spec.r, eps * profile.spec.Q
    samples = profile.samples
    p0, dp0, weights = samples.p, samples.p_tau, samples.weights
    s = np.exp(samples.tau)
    basis = _sine_basis((s - r) / (1.0 - r))
    lo, hi = metric.valid_interval

    def discrete_energy(p, p_tau):
        integrand = metric.eval(p) * (p_tau * p_tau + p * p) * weights
        return 2.0 * math.pi * float(np.sum(integrand))

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
            phi, dphi = _sine_bump(rng, basis)
            dphi = dphi * s / (1.0 - r)  # chain rule from unit grid to tau
            trial = p0 + amplitude * phi
            if np.all(trial > lo) and np.all(trial < hi) and np.all(trial > 0.0):
                break
        excesses = []
        for a in (amplitude, amplitude / 10.0):
            perturbed = discrete_energy(p0 + a * phi, dp0 + a * dphi)
            excesses.append(perturbed - base)
        min_excess = min(min_excess, *excesses)
        ratio = excesses[0] / excesses[1] if excesses[1] != 0.0 else math.inf
        worst_ratio_gap = max(worst_ratio_gap, 50.0 - ratio, ratio - 200.0)

    report = VerificationReport()
    report.checks.append(
        CheckRecord.measure(
            "radial_minimality_excess", -min_excess / base, 1e-12,
            f"{n_perturbations} perturbations at eps={eps:g} and {eps / 10:g} "
            f"of Q; energy excess over the energy {base:.12g}",
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
    """sign(c) against sign(log(Q/q) - log(1/r)) for a solved c, which is
    exactly 0 for a conformal pair (a tolerance would carry the units of c),
    as solve_c returns it where the moduli agree within tol_c."""
    gap = math.log(Q / q) - math.log(1.0 / r)
    if c == 0.0:
        agree = abs(gap) <= tol_c
    elif c > 0.0:
        agree = gap > -tol_c
    else:
        agree = gap < tol_c
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


def _residual_records(name: str, residual: _ChartResidual, h: float,
                      bound: float) -> tuple[CheckRecord, CheckRecord]:
    """The residual's entry, max |4 R(h/2) - R(h)|/3 (the h^2 truncation
    cancels pointwise) over its term scale, and its _order entry, which
    fits the order from the raw maxima at h and h/2 where R(h) stands above
    the rounding floor."""
    at_h, at_half = residual.steps
    extrapolated = float(np.max(np.abs(4.0 * at_half - at_h))) / 3.0
    res_h, res_half = float(np.max(np.abs(at_h))), float(np.max(np.abs(at_half)))
    scales = (f"h={h:g}, term scale {residual.scale:.6g}, rounding floor "
              f"{residual.floor:.3g}")
    entry = CheckRecord.measure(
        name, extrapolated / residual.scale, bound,
        f"max |4 R(h/2) - R(h)|/3 = {extrapolated:.3g} over the term scale; "
        + scales)
    if res_h <= residual.floor:
        order = CheckRecord.measure(
            f"{name}_order", 0.0, 0.0,
            f"residual {res_h:.3g} at h is within the rounding floor; order "
            "not measurable; " + scales)
    else:
        order = CheckRecord.measure(
            f"{name}_order", res_half, res_h / 2.0**_MIN_ORDER,
            (f"residual {res_h:.3g} at h vs {res_half:.3g} at h/2 (fitted "
             f"order {math.log2(res_h / res_half):.2f})" if res_half > 0.0
             else "residual vanished under halving") + "; " + scales)
    return entry, order


def _solved(spec: ProblemSpec,
            config: SolverConfig) -> tuple[MinimizerProfile, dict]:
    """The solve chain: the profile and the numbers ``annuharm solve``
    prints but critical_r, which each sweep row and the suite read."""
    c = solve_c(spec, config)
    profile = build_profile(spec, c, config)
    metric = spec.metric
    sup_op, inf_lo = lipschitz_constant(profile, metric)
    k, k_prime = kk_constants(profile, metric)
    return profile, {
        "c": c,
        "hopf_constant": c / 4.0,
        "classification": profile.classification,
        "modulus_domain": math.log(1.0 / spec.r),
        "modulus_target": math.log(spec.Q / spec.q),
        "energy": field_energy(profile, metric),
        "energy_lower_bound": 2.0 * area(metric, spec.q, spec.Q),
        "lipschitz_sup": sup_op,
        "lonorm_inf": inf_lo,
        "K": k,
        "K_prime": k_prime,
        "critical_c": profile.critical_c,
    }


def run_full_suite(
    spec: ProblemSpec,
    config: SolverConfig = SolverConfig(),
    check_tol: float | None = None,
) -> VerificationReport:
    """Solve the configuration and run every verification check.

    Each entry divides what it measures by the scale of the terms it is
    formed from and compares that with a unitless constant, so no verdict
    changes when the target annulus is scaled: the modulus gap by
    build_profile's rule; the constraint over max p^2 rho(p); the Hopf
    entries over max |z|^2 rho ||Dw||^2 / 4; the residuals in the chart
    zeta = log z, Richardson extrapolated from steps h and h/2 in tau on
    one set of centres, over the size of their terms (see _chart_pde and
    _chart_hopf); the energy over twice the area of A(p(r), Q); the
    distortion entries over max ||Dw||^2; the Lipschitz pair over sup |Dw|;
    the stretches over q/r; and the radial probe's excess over the energy.
    The class (c == 0 is Conformal) decides which energy entry applies.

    Deterministic for a fixed config (the perturbation seed lives in the
    config).  An infeasible configuration is reported as a failed
    "solvable_configuration" entry instead of raising.  ``check_tol``
    overrides the bound of the Hopf constancy entry (defaults to the
    config's tol_c).
    """
    if check_tol is None:
        check_tol = config.tol_c
    report = VerificationReport()

    def check(name, measured, tolerance, detail=""):
        report.checks.append(CheckRecord.measure(name, measured, tolerance, detail))

    try:
        profile, solved = _solved(spec, config)
    except BelowCritical as exc:
        check("solvable_configuration", 1.0, 0.0,
              f"below critical: critical_r={exc.critical_r:.12g}, "
              f"critical_c={exc.critical_c:.12g}")
        return report
    c = solved["c"]
    metric, q, Q, r = spec.metric, spec.q, spec.Q, spec.r
    check("solvable_configuration", 0.0, 0.0,
          f"c={c:.12g}, classification={profile.classification}")

    # the modulus equation, by build_profile's rule
    ratio, gap, reached = _modulus_gap(profile, config.tol_c)
    check("modulus_gap", ratio, 1.0,
          f"Psi(q) - log(1/r) = {gap:.3g} (tol_c {config.tol_c:g}), "
          f"p(r) - q = {reached - q:.3g}: the smaller over its bound")
    s_sample = np.linspace(r, 1.0, 100)
    roundtrip = np.max(np.abs(profile.inverse(profile.profile(s_sample)) - s_sample))
    check("inverse_round_trip", roundtrip, 1e-8,
          "inverse(profile(s)) = s at 100 sample points")

    # admissibility of the constant along the profile
    samples = profile.samples
    weight = samples.p**2 * samples.rho
    weight_max = float(np.max(weight))
    check("constraint_lower_bound", -float(np.min(weight + c)) / weight_max, 1e-12,
          f"p^2 rho(p) + c >= 0, over max p^2 rho(p) = {weight_max:.6g}")

    # quadratic-differential constancy
    grid = PolarGrid(n_s=32, n_t=64, s_range=(r, 1.0))
    arrays = field_arrays(profile, metric, grid.s_values, grid.t_values)
    report.checks += _hopf_records(c, arrays, metric, check_tol)

    # harmonic-map residuals in the chart zeta = log z, both kernels and
    # both steps on one set of points solved at once
    h = _chart_step(r)
    tau, p = _chart_points(profile, h)
    report.checks += _residual_records(
        "pde_residual", _chart_pde(profile, metric, p, h), h, 1e-6)
    report.checks += _residual_records(
        "general_harmonic_residual", _chart_hopf(profile, metric, tau, p, h),
        h, 1e-7)

    # energy bounds, by twice the area of the annulus the energy spans
    total_energy = solved["energy"]
    lower_bound = 2.0 * area(metric, profile.inner, Q)
    excess = (total_energy - lower_bound) / lower_bound
    check("energy_lower_bound", -excess, 1e-11,
          f"energy {total_energy:.12g} vs twice the area {lower_bound:.12g} "
          f"of A({profile.inner:.12g}, {Q:.12g})")
    if profile.classification == CONFORMAL:
        check("energy_attains_lower_bound", abs(excess), 1e-9,
              "conformal maps attain the bound")
    elif abs(c) >= 1e-3 * weight_max:
        check("energy_above_lower_bound", -excess, -1e-8,
              "non-conformal maps must exceed the bound")

    # distortion inequality and algebraic norm identities, over max ||Dw||^2
    k_prime = solved["K_prime"]
    norm_sq = 2.0 * (np.abs(arrays["wz"]) ** 2 + np.abs(arrays["wzb"]) ** 2)
    norm_max = float(np.max(norm_sq))
    check("kk_inequality",
          float(np.max(norm_sq - 2.0 * arrays["jac"] - k_prime)) / norm_max, 1e-10,
          f"||Dw||^2 <= 2 J + K' with K'={k_prime:.6g}, over max ||Dw||^2 "
          f"= {norm_max:.6g}")
    opnorm, lonorm = arrays["opnorm"], arrays["lonorm"]
    check("norm_product_identity",
          float(np.max(np.abs(opnorm * lonorm - np.abs(arrays["jac"])))) / norm_max,
          1e-13, "|Dw| l(Dw) = |J|")
    check("norm_sum_identity",
          float(np.max(np.abs(opnorm**2 + lonorm**2 - norm_sq))) / norm_max, 1e-13,
          "|Dw|^2 + l(Dw)^2 = ||Dw||^2")
    check("jacobian_sign", -float(np.min(arrays["jac"])) / norm_max, 1e-13,
          "sense-preserving: J >= 0")

    # the Lipschitz pair brackets both stretches at the samples
    sup_op, inf_lo = solved["lipschitz_sup"], solved["lonorm_inf"]
    stretches = np.stack((samples.p_tau, samples.p)) / np.exp(samples.tau)
    check("lipschitz_pair", max(np.max(stretches) - sup_op,
                                inf_lo - np.min(stretches)) / sup_op, 1e-12,
          f"sup |Dw| = {sup_op:.12g} and inf l(Dw) = {inf_lo:.12g} against "
          "max and min of (p', p/s) at the samples, over sup |Dw|")

    # smallest-stretch bounds by regime, over the edge stretch q/r
    if c >= 0.0:
        check("min_stretch_bound", (q - inf_lo) * r / q, 1e-9,
              "for c >= 0, inf l(Dw) >= q")
    elif profile.classification == CRITICAL:
        check("min_stretch_vanishes", inf_lo * r / q, 5e-7,
              "critical maps lose the lower stretch bound")
    else:
        check("min_stretch_positive", -inf_lo * r / q, 0.0,
              f"inf l(Dw) = {inf_lo:.6g}")

    # modulus comparison sign law for this configuration
    report.checks.append(_modulus_sign_record(q, Q, r, c, config.tol_c))

    # radial local minimality
    report.extend(
        minimality_probe(profile, metric, n_perturbations=20, eps=1e-2,
                         seed=config.seed)
    )
    return report
