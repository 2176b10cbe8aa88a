"""Construction of the energy-minimal radial map between annuli.

Given a radial density rho on the target annulus A(q, Q) and a domain
annulus A(r, 1), the minimizer is w(s e^{it}) = p(s) e^{it}.  Its Hopf
differential is c/(4 z^2), which gives the first integral

    log(1/s) = Psi(p) := int_p^Q dy / sqrt(y^2 + c/rho(y)),

and the constant c is fixed by the modulus equation mu(c) := Psi(q) =
log(1/r).  One ``Psi`` table carries all of it: the modulus, the profile
p(s), its inverse s(p) = exp(-Psi(p)) and the slope p' = sqrt(p^2 +
c/rho(p)) / s.

mu is strictly decreasing in c and attains its largest (possibly infinite)
value at the critical constant c0 = -min_{[q,Q]} y^2 rho(y); domain annuli
fatter than r0 = exp(-mu(c0)) admit no radial minimizer.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import (
    BelowCritical,
    DivergentIntegral,
    DivergentModulus,
    NoConvergence,
    OutOfDomain,
    ProfileMismatch,
)
from .metrics import RadialMetric, _check_interval, parse_metric
from .numerics import (
    _EPS,
    _GAUSS_HI,
    _adaptive_core,
    _divergence_guard,
    find_root_bracketed,
    minimize_scalar,
)

__all__ = [
    "CONFORMAL",
    "EXPANDING",
    "SUBCRITICAL",
    "CRITICAL",
    "ProblemSpec",
    "SolverConfig",
    "Psi",
    "MinimizerProfile",
    "critical_constant",
    "modulus_of_c",
    "solve_c",
    "critical_inner_radius",
    "build_profile",
    "euclidean_nitsche_map",
]

CONFORMAL = "Conformal"
EXPANDING = "Expanding"
SUBCRITICAL = "Subcritical"
CRITICAL = "Critical"

# absolute error allowed the quadrature of Psi over [q, Q]
_MODULUS_TOL = 1e-11
# relative closeness of c to the critical constant below which the modulus
# integrand must be treated as endpoint-singular
_NEAR_CRITICAL = 1e-6
_NEWTON_STEPS = 60
# the smallest normal float
_TINY = np.finfo(float).tiny
_KNOTS = 256
# 15-point Gauss-Legendre rule on [0, 1], the fine rule of the panels
_NODES01 = 0.5 * (_GAUSS_HI[0] + 1.0)
_WEIGHTS01 = 0.5 * _GAUSS_HI[1]


@dataclass(frozen=True)
class ProblemSpec:
    """Normalized problem data: domain annulus A(r, 1), target annulus
    A(q, Q), radial metric on the target.

    Domain annuli A(r1, R1) with R1 != 1 are handled by the rescaling
    s -> s/R1 (which leaves the energy unchanged); pass r = r1/R1.
    """

    metric: RadialMetric
    q: float
    Q: float
    r: float

    def __post_init__(self):
        if not 0.0 < self.q < self.Q:
            raise ValueError(f"need 0 < q < Q, got q={self.q}, Q={self.Q}")
        _check_interval(self.metric, self.q, self.Q)
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"need 0 < r < 1, got r={self.r}")


@dataclass(frozen=True)
class SolverConfig:
    """The tolerance of the modulus equation and the seed of the randomized
    probes."""

    tol_c: float = 1e-9
    seed: int = 42

    def __post_init__(self):
        if not 0.0 < self.tol_c < math.inf:
            raise ValueError(f"tol_c must be positive and finite, got {self.tol_c}")


def _weight(metric: RadialMetric, y):
    return y * y * metric.eval(y)


def _critical_info(metric: RadialMetric, q: float, Q: float) -> tuple[float, float]:
    """(argmin, -min) of y^2 rho(y) on [q, Q].

    Raises OutOfDomain where y^2 rho(y) at a scanned point is not a normal
    float: an infinite or subnormal weight leaves the modulus integrand
    without the digits that resolve c."""
    _check_interval(metric, q, Q)

    def weight(y):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            w = _weight(metric, y)
        if not np.all((w >= _TINY) & (w < math.inf)):
            raise OutOfDomain(
                f"y^2 rho(y) of metric {metric.name!r} leaves the normal floats "
                f"on [{q}, {Q}]"
            )
        return w

    y_star, w_min = minimize_scalar(weight, q, Q, 1e-13)
    return y_star, -w_min


# [(metric, q, Q), critical data, Psi table at the root or None] of the
# latest solve_c inside a _sharing_roots() block; None outside every block
_KEPT_ROOT: ContextVar[list | None] = ContextVar("_KEPT_ROOT", default=None)


@contextmanager
def _sharing_roots():
    """Within the block solve_c keeps its critical data and the Psi table it
    built at its root, and solve_c, build_profile and critical_inner_radius
    read them for the same (metric, q, Q) (and c) instead of computing them
    again.  The inputs are the same, so are the outputs, bitwise.  What is
    kept is dropped when the block ends: nothing outlives one verification
    suite or one command."""
    token = _KEPT_ROOT.set([])
    try:
        yield
    finally:
        _KEPT_ROOT.reset(token)


def _kept_root(metric: RadialMetric, q: float, Q: float):
    """(critical data, root Psi table or None) that solve_c kept for
    (metric, q, Q), or (None, None)."""
    kept = _KEPT_ROOT.get()
    if kept and kept[0] == (metric, q, Q):
        return kept[1], kept[2]
    return None, None


def critical_constant(metric: RadialMetric, q: float, Q: float) -> float:
    """The most negative admissible variational constant,
    -min over [q, Q] of y^2 rho(y); always strictly negative."""
    return _critical_info(metric, q, Q)[1]


class Psi:
    """The first integral Psi(p) = int_p^Q dy / sqrt(y^2 + c/rho(y)).

    Psi is held as a table of adaptive Gauss panels in the signed variable
    v with y = a + v|v|, i.e. v = +-sqrt|y - a|, anchored at the critical
    radius a = y* (snapped to q or Q when it lies within 1e-7 of the span
    of one).  The substitution keeps the integrand g(v) = 2|v| /
    sqrt(y^2 + c/rho(y)) smooth through y*, where the radicand vanishes at
    the critical constant.  ``total`` = Psi(q) is the modulus mu(c).

    Psi at any v is a tail sum of whole panels plus one 15-point Gauss rule
    on the part of a panel; below q the same rule continues the integral,
    so the profile of an inconsistent (q, Q, r, c) can overshoot q the way
    the profile equation does.  ``critical`` is the (y*, c0) pair of
    ``_critical_info`` when the caller already has it.  Raises BelowCritical
    for c under the critical constant and DivergentModulus where the
    integral diverges.
    """

    def __init__(self, metric: RadialMetric, q: float, Q: float, c: float,
                 critical: tuple[float, float] | None = None):
        y_star, c_crit = critical or _critical_info(metric, q, Q)
        scale = max(1.0, abs(c_crit))
        if c < c_crit - 1e-12 * scale:
            raise BelowCritical(
                f"c={c} below the critical constant {c_crit}", critical_c=c_crit
            )
        near_critical = (c - c_crit) <= _NEAR_CRITICAL * scale
        span = Q - q
        if y_star - q <= 1e-7 * span:
            anchor = q
        elif Q - y_star <= 1e-7 * span:
            anchor = Q
        elif c <= c_crit:
            raise DivergentModulus(
                f"radicand vanishes at interior radius {y_star}; modulus diverges"
            )
        else:
            anchor = y_star
        self.metric, self.q, self.Q, self.c = metric, q, Q, c
        self.critical_c = c_crit
        self.anchor = anchor

        v_q, v_Q = float(self.v_of_y(q)), float(self.v_of_y(Q))
        pieces = [(lo, hi) for lo, hi in ((v_q, 0.0), (0.0, v_Q)) if lo < hi]
        panels = []
        try:
            for lo, hi in pieces:
                if near_critical:
                    # g(+-u) = 2u / sqrt(radicand(anchor +- u^2))
                    _divergence_guard(self.g, anchor, 1.0 if lo == 0.0 else -1.0)
                with np.errstate(divide="ignore", invalid="ignore"):
                    panels.append(_adaptive_core(
                        partial(self.g, noisy=True), lo, hi,
                        _MODULUS_TOL / len(pieces))[1])
        except (DivergentIntegral, NoConvergence) as exc:
            if near_critical:
                raise DivergentModulus(str(exc)) from exc
            raise
        panels = np.concatenate(panels)
        values = panels[:, 2]
        self.edges = np.append(panels[:, 0], v_Q)
        # tail[k] = Psi at edges[k]: suffix sums of the panel integrals
        self.tail = np.concatenate((np.cumsum(values[::-1])[::-1], [0.0]))
        self.total = float(self.tail[0])

    @cached_property
    def _knots(self) -> tuple[np.ndarray, np.ndarray]:
        """About _KNOTS points splitting the panels evenly, with Psi there:
        they bracket and start the Newton solve of the forward map."""
        parts = max(1, _KNOTS // (self.edges.size - 1))
        frac = np.arange(parts) / parts
        widths = np.diff(self.edges)
        knots = (self.edges[:-1, None] + widths[:, None] * frac).ravel()
        return (np.append(knots, self.edges[-1]),
                np.append(self.at_v(knots), 0.0))

    def v_of_y(self, y):
        d = np.asarray(y, dtype=float) - self.anchor
        return np.sign(d) * np.sqrt(np.abs(d))

    def y_of_v(self, v):
        return self.anchor + v * np.abs(v)

    def _radicand(self, y):
        return y * y + self.c / self.metric.eval(y)

    def g(self, v, noisy=False):
        """-dPsi/dv = 2|v| / sqrt(y^2 + c/rho(y)) at y = y(v), infinite (or
        nan at v = 0) where the radicand vanishes; callers silence the
        floating-point warnings, since this is the quadrature's inner loop.
        With ``noisy`` also the rounding uncertainty of g: the radicand is
        summed from terms as large as y^2 + |c|/rho(y), which near the
        critical radius exceed it by orders of magnitude, and g inherits
        their rounding relative to the radicand."""
        size = np.abs(v)
        y = self.anchor + v * size
        radicand = self._radicand(y)
        g = 2.0 * size / np.sqrt(np.maximum(radicand, 0.0))
        if not noisy:
            return g
        terms = y * y + np.abs(radicand - y * y)
        return g, g * _EPS * terms / np.abs(radicand)

    def _gauss(self, a, b, weight=None):
        """int_a^b g (times weight(y)) dv by one 15-point rule, elementwise."""
        a = np.asarray(a, dtype=float)
        width = np.asarray(b, dtype=float) - a
        nodes = a[..., None] + width[..., None] * _NODES01
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = self.g(nodes)
            if weight is not None:
                vals = vals * weight(self.y_of_v(nodes))
            # a per-row sum: a BLAS product rounds a row by its place in the
            # batch, and p(s) must not depend on the points asked with it
            total = np.einsum("...j,j->...", vals, _WEIGHTS01)
            # an empty interval contributes nothing, even at a singular anchor
            return np.where(width == 0.0, 0.0, width * total)

    def at_v(self, v):
        """Psi at y(v) (vectorized)."""
        v = np.asarray(v, dtype=float)
        k = np.clip(np.searchsorted(self.edges, v, side="right") - 1, 0,
                    self.edges.size - 2)
        below = v < self.edges[0]
        end = np.where(below, self.edges[0], self.edges[k + 1])
        base = np.where(below, self.tail[0], self.tail[k + 1])
        return base + self._gauss(v, end)

    def v_of_log(self, target):
        """v with Psi(y(v)) = target (target = log(1/s), vectorized).

        Safeguarded Newton in v: the knots of the panel table bracket the
        root and interpolating Psi linearly in y between them starts the
        iteration; a step leaving the bracket is replaced by bisection.
        Below q the bracket extends to a floor, and where the radicand turns
        negative the profile stops at its zero, as the profile equation does.
        """
        target = np.asarray(target, dtype=float).ravel()
        knots, known = self._knots
        k = np.clip(np.searchsorted(-known, -target, side="right") - 1, 0,
                    knots.size - 2)
        below = target > known[0]
        # a profile reaching this far below q fails the mismatch check anyway
        span = self.Q - self.q
        floor = max(self.q - span, 0.5 * self.q, self.metric.valid_interval[0])
        lo = np.where(below, self.v_of_y(floor), knots[k])
        hi = np.where(below, knots[0], knots[k + 1])
        y_lo, y_hi = self.y_of_v(lo), self.y_of_v(hi)
        frac = (known[k] - target) / (known[k] - known[k + 1])
        slope_q = np.sqrt(max(self._radicand(self.q), 0.0))
        y0 = np.where(below, self.q - (target - known[0]) * slope_q,
                      y_lo + frac * (y_hi - y_lo))
        v = np.clip(self.v_of_y(y0), lo, hi)
        tol = 2.0**-50 * (knots[-1] - knots[0])
        # the profile cannot leave q when the radicand vanishes there
        active = ~(below & (slope_q == 0.0))
        v[~active] = knots[0]
        for _ in range(_NEWTON_STEPS):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            va = v[idx]
            miss = self.at_v(va) - target[idx]
            # Psi decreases in v; a non-finite value lies past the radicand's
            # zero below q, which is also left of the root
            left = ~np.isfinite(miss) | (miss > 0.0)
            lo[idx] = np.where(left, va, lo[idx])
            hi[idx] = np.where(left, hi[idx], va)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(miss == 0.0, 0.0, miss / self.g(va))
            new = va + step
            # a converged step may round onto the bracket edge it just set
            keep = (np.abs(step) <= tol) | ((new > lo[idx]) & (new < hi[idx]))
            new = np.where(keep, new, 0.5 * (lo[idx] + hi[idx]))
            v[idx] = new
            done = (np.abs(new - va) <= tol) | (hi[idx] - lo[idx] <= tol)
            active[idx[done]] = False
        return v

    def radius(self, s):
        """The profile p(s): Psi(p) = log(1/s); exactly Q at s = 1.  Each
        distinct radius is solved once."""
        target = -np.log(np.asarray(s, dtype=float))
        distinct, where = np.unique(target, return_inverse=True)
        p = self.y_of_v(self.v_of_log(distinct))[where].reshape(target.shape)
        p = np.where(target <= 0.0, self.Q, p)
        return float(p) if p.ndim == 0 else p

    def slope(self, s, p):
        """p'(s) from the first integral at a profile radius p = p(s)."""
        out = np.sqrt(np.maximum(self._radicand(p), 0.0)) / s
        return float(out) if np.ndim(out) == 0 else out

    def integrate(self, weight, p_lo: float) -> float:
        """int_{p_lo}^Q weight(y) dy / sqrt(y^2 + c/rho(y)) on the panels."""
        lo, hi = self.edges[:-1], self.edges[1:]
        whole = math.fsum(self._gauss(lo, hi, weight))
        # p_lo differs from q only by the profile's miss at s = r
        v_lo = self.v_of_y(p_lo)
        return whole - float(self._gauss(self.edges[0], v_lo, weight))

    def dmu_dc(self) -> float:
        """mu'(c) = -1/2 int_q^Q dy / (rho (y^2 + c/rho)^{3/2}) on the panels
        of mu; near the critical constant only its leading digits are
        reliable, which is all a Newton step needs."""
        return -0.5 * self.integrate(
            lambda y: 1.0 / (_weight(self.metric, y) + self.c), self.q)


def modulus_of_c(metric: RadialMetric, q: float, Q: float, c: float) -> float:
    """mu(c) = int_q^Q dy / sqrt(y^2 + c/rho(y)) = Psi(q).

    Raises BelowCritical for c under the critical constant and
    DivergentModulus when the radicand vanishes inside (q, Q) or the
    endpoint singularity at the critical constant is not integrable.
    """
    return Psi(metric, q, Q, c).total


def critical_inner_radius(metric: RadialMetric, q: float, Q: float) -> float:
    """exp(-mu(c0)): domain annuli with r below this admit no radial
    minimizer.  Returns 0.0 when the critical modulus diverges (every
    domain annulus is then feasible)."""
    critical = _kept_root(metric, q, Q)[0] or _critical_info(metric, q, Q)
    try:
        return math.exp(-Psi(metric, q, Q, critical[1],
                             critical=critical).total)
    except DivergentModulus:
        return 0.0


def solve_c(spec: ProblemSpec, config: SolverConfig = SolverConfig()) -> float:
    """Solve mu(c) = log(1/r) for the variational constant.

    Returns 0 for conformal pairs and otherwise a c with |mu(c) - log(1/r)|
    <= tol_c.  The critical constant c0 is returned when the target modulus
    matches the critical modulus to tol_c, or when the root lies closer to
    c0 than c-space resolves (1e-12 max(1, |c0|)).  Raises BelowCritical
    when the domain annulus is fatter than the critical configuration, and
    NoConvergence (DivergentModulus where mu could not be integrated) when
    no c meets the residual, as where the radicand has lost the digits that
    resolve mu next to c0.

    The root is found by safeguarded Newton steps in x = sqrt(c - c0):
    mu'(c) is infinite at c0, but 1/mu is smooth in x there and nearly
    linear for large c, where mu ~ 1/sqrt(c).
    """
    metric, q, Q = spec.metric, spec.q, spec.Q
    critical = _kept_root(metric, q, Q)[0] or _critical_info(metric, q, Q)
    c, psi = _root(spec, config, critical)
    kept = _KEPT_ROOT.get()
    if kept is not None:
        kept[:] = (metric, q, Q), critical, psi
    return c


def _root(spec: ProblemSpec, config: SolverConfig,
          critical: tuple[float, float]) -> tuple[float, Psi | None]:
    """solve_c's root c and the Psi table it built at c (None where it
    returns c0 without one)."""
    metric, q, Q = spec.metric, spec.q, spec.Q
    target = math.log(1.0 / spec.r)
    c_crit = critical[1]
    latest = [math.nan, math.nan, None]

    def modulus(c):
        """mu(c) and its Psi table, or (+inf, None) where Psi reports the
        modulus divergent: only next to c0, where mu exceeds its value at
        every c further out, so the bracket keeps its order; a root next to
        such a c fails the residual check below."""
        try:
            psi = Psi(metric, q, Q, c, critical)
        except DivergentModulus:
            return math.inf, None
        return psi.total, psi

    def miss(mu, psi, x):
        """target (mu - target) / mu, which is mu - target to first order
        and smooth in x where mu is finite, and its slope in x."""
        if psi is None:
            return target, math.nan
        ratio = target / mu
        return target - target * ratio, 2.0 * x * ratio * ratio * psi.dmu_dc()

    def miss_at(x):
        mu, psi = modulus(c_crit + x * x)
        latest[:] = x, mu, psi
        return miss(mu, psi, x)

    mu0, psi0 = modulus(0.0)
    if abs(mu0 - target) <= config.tol_c:
        return 0.0, psi0
    x0 = math.sqrt(-c_crit)
    end0 = miss(mu0, psi0, x0)
    if target < mu0:
        # expanding regime: c > 0 shrinks the modulus, which tends to 0;
        # the upper end is sought by steps of twice the Newton step, and at
        # least doubling x, up to c = 1e12
        x_cap = math.sqrt(1e12 - c_crit)

        def beyond(x, f_x):
            step = -f_x[0] / f_x[1]
            return min(x + max(2.0 * step if step > 0.0 else 0.0, x), x_cap)

        lo, f_lo = x0, end0
        hi = beyond(lo, f_lo)
        while (f_hi := miss_at(hi))[0] > 0.0:
            if hi == x_cap:
                raise NoConvergence("could not bracket c upward")
            lo, f_lo, hi = hi, f_hi, beyond(hi, f_hi)
    else:
        mu_max, psi_max = modulus(c_crit)
        if target > mu_max + config.tol_c:
            raise BelowCritical(
                f"domain modulus {target:.12g} exceeds the critical modulus "
                f"{mu_max:.12g}; no radial minimizer exists",
                critical_c=c_crit,
                critical_r=math.exp(-mu_max),
            )
        if math.isfinite(mu_max) and abs(target - mu_max) <= config.tol_c:
            return c_crit, psi_max
        # closer to c0 than this c-space cannot resolve the root (the collar)
        lo = math.sqrt(max(1e-12, 1e-12 * abs(c_crit)))
        f_lo = miss_at(lo)
        if f_lo[0] <= 0.0:
            return c_crit, None
        hi, f_hi = x0, end0
    # the bracket may shrink to a few ulps of x, where c-space ends
    x = find_root_bracketed(miss_at, lo, hi, 0.5 * config.tol_c,
                            xtol=4.0 * _EPS * hi, f_lo=f_lo, f_hi=f_hi)
    c = c_crit + x * x
    mu, psi = latest[1:] if x == latest[0] else modulus(c)
    gap = mu - target
    if not abs(gap) <= config.tol_c:
        error = DivergentModulus if math.isinf(gap) else NoConvergence
        raise error(
            f"modulus equation unsolved: mu(c) - log(1/r) = {gap:.3g} at "
            f"c - c_crit = {c - c_crit:.3g}")
    return c, psi


def _classify(c: float, c_crit: float, tol_c: float) -> str:
    if abs(c) <= tol_c:
        return CONFORMAL
    if c - c_crit <= tol_c:
        return CRITICAL
    if c > tol_c:
        return EXPANDING
    return SUBCRITICAL


@dataclass(frozen=True)
class MinimizerProfile:
    """A solved radial minimizer.

    ``psi`` is the first integral the profile is read from: ``profile(s)``
    inverts log(1/s) = Psi(p) on [r, 1], ``inverse(p)`` is exp(-Psi(p)) on
    [q, Q] and ``slope(s)`` is p'(s).  ``c`` is the variational constant of
    the modulus equation and ``critical_c`` the critical constant of the
    (q, Q, metric) triple.
    """

    c: float
    psi: Psi
    classification: str
    spec: ProblemSpec
    critical_c: float

    @cached_property
    def inner_v(self) -> float:
        """v at s = r, where p(r) = y(v): solved once per profile."""
        return float(self.psi.v_of_log(-np.log(self.spec.r))[0])

    @property
    def inner(self) -> float:
        """p(r), which meets q for a solved c."""
        return float(self.psi.y_of_v(self.inner_v))

    def profile(self, s):
        """p(s), scalar or array."""
        return self.psi.radius(s)

    def inverse(self, p):
        """s(p) = exp(-Psi(p)), scalar or array."""
        out = np.exp(-self.psi.at_v(self.psi.v_of_y(p)))
        return float(out) if np.ndim(out) == 0 else out

    def slope(self, s):
        """p'(s) = sqrt(p^2 + c/rho(p)) / s, from the first integral."""
        return self.psi.slope(s, self.profile(s))


def build_profile(
    spec: ProblemSpec, c: float, config: SolverConfig = SolverConfig()
) -> MinimizerProfile:
    """Build the first integral Psi for c and package the profile read from
    it (profile, inverse, classification).

    Raises ProfileMismatch when p(r), the solution of Psi(p) = log(1/r),
    misses q by more than 1e-6 Q: the supplied (q, Q, r, c) are then
    inconsistent.  Inside a _sharing_roots() block the Psi table that
    solve_c built at this c is reused.
    """
    metric, q, Q, r = spec.metric, spec.q, spec.Q, spec.r
    critical, psi = _kept_root(metric, q, Q)
    if psi is None or psi.c != c:
        psi = Psi(metric, q, Q, c, critical)
    profile = MinimizerProfile(
        c=c,
        psi=psi,
        classification=_classify(c, psi.critical_c, config.tol_c),
        spec=spec,
        critical_c=psi.critical_c,
    )
    mismatch = abs(profile.inner - q)
    if mismatch > 1e-6 * Q:
        raise ProfileMismatch(
            f"profile reached p(r)={profile.inner:.12g}, expected q={q:.12g} "
            f"(off by {mismatch:.3g}); modulus gap Psi(q) - log(1/r) = "
            f"{psi.total - math.log(1.0 / r):.3g} at c - c_crit = "
            f"{c - psi.critical_c:.3g}; (q, Q, r, c) are inconsistent"
        )
    return profile


def euclidean_nitsche_map(r: float) -> MinimizerProfile:
    """The closed-form critical minimizer for the Euclidean metric:
    p(s) = (r^2 + s^2) / (s (1 + r^2)) between A(r, 1) and A(2r/(1+r^2), 1),
    with c = -4 r^2 / (1 + r^2)^2.  Built directly, without solving for c."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"need 0 < r < 1, got r={r}")
    spec = ProblemSpec(metric=parse_metric("euclidean"), q=2.0 * r / (1.0 + r * r),
                       Q=1.0, r=r)
    # -4 r^2/(1+r^2)^2 equals -q^2; computing it that way makes the radicand
    # vanish bitwise at the inner boundary
    c = -(spec.q * spec.q)
    return MinimizerProfile(c, Psi(spec.metric, spec.q, 1.0, c), CRITICAL, spec, c)
