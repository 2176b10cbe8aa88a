"""Construction of the energy-minimal radial map between annuli.

Given a radial density rho on the target annulus A(q, Q) and a domain
annulus A(r, 1), the minimizer is w(s e^{it}) = p(s) e^{it}.  Its Hopf
differential is c/(4 z^2), which gives the first integral

    log(1/s) = Psi(p) := int_p^Q dy / sqrt(y^2 + c/rho(y)),

and the constant c is fixed by the modulus equation mu(c) := Psi(q) =
log(1/r).  One ``Psi`` table carries all of it, and MinimizerProfile
reads it along tau = log s: p with Psi(p) = -tau, s(p) = exp(-Psi(p)) and
p_tau = s p' = sqrt(p^2 + c/rho(p)).

mu is strictly decreasing in c and attains its largest (possibly infinite)
value at the critical constant c0 = -min_{[q,Q]} y^2 rho(y); domain annuli
fatter than r0 = exp(-mu(c0)) admit no radial minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import (
    BelowCritical,
    DivergentIntegral,
    DivergentModulus,
    NoConvergence,
    OutOfAnnulus,
    OutOfDomain,
    ProfileMismatch,
)
from .metrics import RadialMetric, _check_interval, parse_metric
from .numerics import (
    _EPS,
    _GAUSS_HI,
    _GAUSS_LO,
    _GAUSS_NODES,
    _N_LO,
    _adaptive_core,
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
# relative error allowed MinimizerProfile.integrate
_INTEGRAL_TOL = 1e-13
# closeness of c to the critical constant, relative to |c0|, below which the
# modulus integrand must be treated as endpoint-singular
_NEAR_CRITICAL = 1e-6
# a near-critical table starts from a ladder of panels in v, each rung a
# quarter of the last, down to the boundary layer of the radicand (at most
# _MAX_RUNGS rungs); only for c - c0 of at least _LADDER_FLOOR |c0|, above
# the radicand's rounding floor
_RUNG_RATIO = 0.25
_MAX_RUNGS = 22
_LADDER_FLOOR = 1e-14
_NEWTON_STEPS = 60
# the smallest normal float
_TINY = np.finfo(float).tiny
# 15-point Gauss-Legendre rule on [0, 1], the fine rule of the panels
_NODES01 = 0.5 * (_GAUSS_HI[0] + 1.0)
_WEIGHTS01 = 0.5 * _GAUSS_HI[1]
# the points of a profile's sample set (odd, for Simpson's rule)
_SAMPLES = 2049


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

    A metric with ``endpoint_minima`` is read at q and Q, the smaller
    weight winning (q on a tie, as the scan's argmin takes the first); one
    with a ``constant_weight`` has its critical radius at the midpoint of
    [q, Q], which scales with the annulus, and c0 = -constant_weight.  Any
    other metric is scanned to a step of 1e-13 of the span, which scales
    with it too.  Raises OutOfDomain where y^2 rho(y) at a point read is
    not a normal float: an infinite or subnormal weight leaves the modulus
    integrand without the digits that resolve c."""
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

    if metric.endpoint_minima or metric.constant_weight is not None:
        ends = np.array([q, Q])
        w = weight(ends)
        if metric.constant_weight is not None:
            return 0.5 * (q + Q), -metric.constant_weight
        k = int(w[1] < w[0])
        return float(ends[k]), -float(w[k])
    y_star, w_min = minimize_scalar(weight, q, Q, 1e-13 * (Q - q))
    return y_star, -w_min


# The critical data of the latest annulus, its Psi table at c0 and the latest
# Psi table built for the solver, each in a one-entry cache: all are pure
# functions of their arguments, so a hit returns what a fresh call returns,
# bitwise.  A metric is keyed by identity (RadialMetric compares and hashes
# as an object: two metrics may share a name, not a density).  The callees
# are looked up when the cache misses, so a replaced _critical_info or Psi
# still does the work.
@lru_cache(maxsize=1)
def _critical(metric: RadialMetric, q: float, Q: float) -> tuple[float, float]:
    """The (y*, c0) of _critical_info for (metric, q, Q)."""
    return _critical_info(metric, q, Q)


@lru_cache(maxsize=1)
def _critical_psi(metric: RadialMetric, q: float, Q: float) -> Psi | None:
    """The Psi table of (metric, q, Q) at c0, or None where the critical
    modulus diverges: solve_c's BelowCritical test and its Critical return
    and critical_inner_radius all read it, so an op builds it once."""
    try:
        return Psi(metric, q, Q, _critical(metric, q, Q)[1])
    except DivergentModulus:
        return None


@lru_cache(maxsize=1)
def _psi(metric: RadialMetric, q: float, Q: float, c: float) -> Psi:
    """The Psi table of (metric, q, Q, c): solve_c builds every table of its
    root search here, so build_profile at solve_c's c reads the last one;
    at c0 it is the table of _critical_psi."""
    if c == _critical(metric, q, Q)[1] and (
            psi := _critical_psi(metric, q, Q)) is not None:
        return psi
    return Psi(metric, q, Q, c)


def critical_constant(metric: RadialMetric, q: float, Q: float) -> float:
    """The most negative admissible variational constant,
    -min over [q, Q] of y^2 rho(y); always strictly negative."""
    return _critical(metric, q, Q)[1]


def _near_critical(c: float, c_crit: float) -> bool:
    """Whether c lies in the near-critical band above c0."""
    return c - c_crit <= _NEAR_CRITICAL * abs(c_crit)


def _divergence_guard(g, endpoint: float, inward: float) -> None:
    """Reject endpoint singularities stronger than an integrable 1/sqrt.

    g is Psi's integrand in u, with y = endpoint + inward Q u^2, and must
    meet |g(u)| <= 1/u at inward u = sqrt(100 eps), where Q u^2 is about
    a hundred ulps of any endpoint in [0, Q]."""
    u = math.sqrt(100.0 * _EPS)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = float(g(np.array([inward * u]))[0])
    if not abs(value) <= 1.0 / u:
        raise DivergentIntegral(
            f"endpoint singularity at {endpoint} is not integrable"
        )


class Psi:
    """The first integral Psi(p) = int_p^Q dy / sqrt(y^2 + c/rho(y)).

    Psi is held as a table of adaptive Gauss panels in the signed variable
    v with y = a + Q v|v|, i.e. v = +-sqrt(|y - a| / Q), anchored at the
    critical radius a = y* (snapped to q or Q when it lies within 1e-7 of
    the span of one).  The substitution keeps the integrand g(v) = 2Q|v| /
    sqrt(y^2 + c/rho(y)) smooth through y*, where the radicand vanishes at
    the critical constant; v and g carry no unit.  ``total`` = Psi(q) is
    the modulus mu(c).

    Just above c0 the radicand (y^2 rho(y) + c0 + (c - c0)) / rho(y) has a
    boundary layer at the anchor, of width sqrt((c - c0) / (Q w'(y*))) in v
    for the weight w = y^2 rho.  There each piece of the table starts from a
    ladder of panels, from the piece's far end toward the anchor at ratio
    1/4 in v, down to the first rung where the weight gap w(y) + c0 is at
    most c - c0; bisection from one panel would reach the layer a bit per
    integrand call, or, far below the solver's collar, not at all.  The
    ladder is left out where c - c0 is below 1e-14 |c0|, at the radicand's
    rounding floor.

    Psi at any v is a tail sum of whole panels plus one 15-point Gauss rule
    on the part of a panel; below q the same rule continues the integral,
    so the profile of an inconsistent (q, Q, r, c) can overshoot q the way
    the profile equation does.  ``_moments`` reads mu and mu' at another
    c off the Gauss nodes of the table's panels, with the density read once
    per table; the root search of solve_c steps on such reads where they
    can be trusted (see ``_reread``).  The critical data come from the
    solver's one-entry cache of the latest annulus (see ``_critical``).  Raises
    BelowCritical for c under the critical constant and DivergentModulus
    where the integral diverges.
    """

    def __init__(self, metric: RadialMetric, q: float, Q: float, c: float):
        y_star, c_crit = _critical(metric, q, Q)
        if c < c_crit - 1e-12 * abs(c_crit):
            raise BelowCritical(
                f"c={c} below the critical constant {c_crit}", critical_c=c_crit
            )
        near_critical = _near_critical(c, c_crit)
        ladder = near_critical and c - c_crit >= _LADDER_FLOOR * abs(c_crit)
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
                    # g(+-u) = 2Qu / sqrt(radicand(anchor +- Q u^2))
                    _divergence_guard(self.g, anchor, 1.0 if lo == 0.0 else -1.0)
                with np.errstate(divide="ignore", invalid="ignore"):
                    panels.append(_adaptive_core(
                        partial(self.g, noisy=True), lo, hi,
                        _MODULUS_TOL / len(pieces),
                        self._ladder(lo, hi) if ladder else None)[1])
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

    def _ladder(self, lo: float, hi: float) -> np.ndarray:
        """The increasing edges of the ladder on the piece [lo, hi], which
        has the anchor v = 0 at one end: rungs v_k = far 4^-k from the far
        end, down to the first with w(y(v_k)) + c0 <= c - c0 (or the
        _MAX_RUNGS-th, where w does not sink that far), then the anchor."""
        far = lo if hi == 0.0 else hi
        rungs = far * _RUNG_RATIO ** np.arange(_MAX_RUNGS)
        gap = _weight(self.metric, self.y_of_v(rungs)) + self.critical_c
        inside = np.flatnonzero(gap <= self.c - self.critical_c)
        last = inside[0] if inside.size else _MAX_RUNGS - 1
        edges = np.append(rungs[:last + 1], 0.0)
        return edges if far < 0.0 else edges[::-1]

    def v_of_y(self, y):
        d = np.asarray(y, dtype=float) - self.anchor
        return np.sign(d) * np.sqrt(np.abs(d) / self.Q)

    def y_of_v(self, v):
        return self.anchor + self.Q * (v * np.abs(v))

    def _radicand(self, y):
        return y * y + self.c / self.metric.eval(y)

    def g(self, v, noisy=False):
        """-dPsi/dv = 2Q|v| / sqrt(y^2 + c/rho(y)) at y = y(v), infinite (or
        nan at v = 0) where the radicand vanishes; callers silence the
        floating-point warnings, since this is the quadrature's inner loop.
        With ``noisy`` also the rounding uncertainty of g: the radicand is
        summed from terms as large as y^2 + |c|/rho(y), which near the
        critical radius exceed it by orders of magnitude, and g inherits
        their rounding relative to the radicand."""
        size = np.abs(v)
        y = self.anchor + self.Q * (v * size)
        radicand = self._radicand(y)
        g = 2.0 * self.Q * size / np.sqrt(np.maximum(radicand, 0.0))
        if not noisy:
            return g
        terms = y * y + np.abs(radicand - y * y)
        return g, g * _EPS * terms / np.abs(radicand)

    def g_limit(self, v):
        """g, with its limit 2 sqrt(Q rho(a) / |w'(a)|), w = y^2 rho, where
        the radicand vanishes at the anchor a (at the critical constant)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            g = self.g(v)
        a = self.anchor
        at_anchor = ~np.isfinite(g) & (self.y_of_v(v) == a)
        if at_anchor.any():
            rho = self.metric.eval(a)
            slope_w = 2.0 * a * rho + a * a * self.metric.deriv(a)
            g[at_anchor] = 2.0 * math.sqrt(self.Q * rho / abs(slope_w))
        return g

    def _gauss(self, a, b):
        """int_a^b g dv by one 15-point rule, elementwise."""
        a = np.asarray(a, dtype=float)
        width = np.asarray(b, dtype=float) - a
        nodes = a[..., None] + width[..., None] * _NODES01
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = self.g(nodes)
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

        Safeguarded Newton: the panel edges, where Psi is the table's exact
        tail sum, bracket the root in v, and the cubic Hermite inverse on the
        bracketing panel starts the iteration: y as a cubic in the fraction
        of the panel's Psi drop, matching y and dy/dPsi = -sqrt(radicand) at
        both edges.  Every target is bracketed and started alike, so a
        point's v does not depend on the targets asked with it.

        Above the critical constant the step is taken in y, where dPsi/dy =
        -1/sqrt(radicand) is finite and nonzero at the anchor; dPsi/dv
        vanishes there, so a step in v would gain one bit per sweep next to
        it.  At the critical constant the radicand vanishes at the anchor,
        and the step stays in v.  A step leaving the bracket is replaced by
        bisection in v.
        Below q the bracket extends to a floor, and where the radicand turns
        negative the profile stops at its zero, as the profile equation does.
        Raises NoConvergence for a point unresolved after _NEWTON_STEPS
        sweeps.
        """
        target = np.asarray(target, dtype=float).ravel()
        edges, tail = self.edges, self.tail
        k = np.clip(np.searchsorted(-tail, -target, side="right") - 1, 0,
                    edges.size - 2)
        below = target > tail[0]
        # a profile reaching this far below q fails the mismatch check anyway
        span = self.Q - self.q
        floor = max(self.q - span, 0.5 * self.q, self.metric.valid_interval[0])
        lo = np.where(below, self.v_of_y(floor), edges[k])
        hi = np.where(below, edges[0], edges[k + 1])
        y_lo, y_hi = self.y_of_v(lo), self.y_of_v(hi)
        # -dy/dPsi = sqrt(radicand) at both ends of each bracket and at q
        root = np.sqrt(np.maximum(
            self._radicand(np.concatenate((y_lo, y_hi, [self.q]))), 0.0))
        slope_q = root[-1]
        drop = tail[k] - tail[k + 1]
        t = (tail[k] - target) / drop
        # the cubic Hermite y(t) with y(0) = y_lo, y(1) = y_hi and slopes
        # dy/dt = m_lo, m_hi there
        m_lo, m_hi = drop * root[:-1].reshape(2, -1)
        rise = y_hi - y_lo
        cubic = y_lo + t * (m_lo + t * ((3.0 * rise - 2.0 * m_lo - m_hi)
                                        + t * (m_lo + m_hi - 2.0 * rise)))
        y0 = np.where(below, self.q - (target - tail[0]) * slope_q, cubic)
        v = np.clip(self.v_of_y(y0), lo, hi)
        tol = 2.0**-50 * (edges[-1] - edges[0])
        in_y = self.c > self.critical_c
        # a few ulps of the profile's largest radius
        tol_y = 2.0**-50 * self.Q
        # the profile cannot leave q when the radicand vanishes there
        active = ~(below & (slope_q == 0.0))
        v[~active] = edges[0]
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
                if in_y:
                    y = self.y_of_v(va)
                    step = miss * np.sqrt(np.maximum(self._radicand(y), 0.0))
                    new = self.v_of_y(y + step)
                    converged = np.abs(step) <= tol_y
                else:
                    step = np.where(miss == 0.0, 0.0, miss / self.g(va))
                    new = va + step
                    converged = np.abs(step) <= tol
            # a converged step may round onto the bracket edge it just set
            keep = converged | ((new > lo[idx]) & (new < hi[idx]))
            new = np.where(keep, new, 0.5 * (lo[idx] + hi[idx]))
            v[idx] = new
            # a step within tol ends a point too: rounding can leave it
            # alternating between two floats just over tol apart
            done = (converged | (np.abs(new - va) <= tol)
                    | (hi[idx] - lo[idx] <= tol))
            active[idx[done]] = False
        if active.any():
            i = np.flatnonzero(active)[0]
            raise NoConvergence(
                f"Psi(p) = {target[i]:.17g} unresolved after {_NEWTON_STEPS} "
                f"Newton sweeps: v in [{lo[i]:.17g}, {hi[i]:.17g}]")
        return v

    @cached_property
    def _nodes(self) -> tuple[np.ndarray, ...]:
        """(2Q|v|, y^2, rho) at the nodes of both Gauss rules on each panel
        (one row per panel), and the panels' half-widths: the density is
        read once per table."""
        lo, hi = self.edges[:-1, None], self.edges[1:, None]
        half = 0.5 * (hi - lo)
        v = 0.5 * (hi + lo) + half * _GAUSS_NODES
        y = self.y_of_v(v)
        return 2.0 * self.Q * np.abs(v), y * y, self.metric.eval(y), half[:, 0]

    def _moments(self, c: float) -> tuple[float, float, float]:
        """(mu, error estimate, mu') at the constant c, read off the panels of
        this table by the paired Gauss rules of its quadrature: mu and
        mu'(c) = -1/2 int_q^Q dy / (rho R^{3/2}) = -1/2 int g / (rho R) dv,
        R = y^2 + c/rho, by the 15-point rule, and the error as the sum of
        |15-point - 7-point| over the panels.  The panels were chosen for
        the table's own c: a boundary layer narrower than they are goes
        unseen, and the error estimate then reads about 0.  mu' is singular
        at the critical constant, where only its leading digits are
        reliable, which is all a Newton step needs."""
        two_v, y2, rho, half = self._nodes
        with np.errstate(divide="ignore", invalid="ignore"):
            radicand = y2 + c / rho
            g = two_v / np.sqrt(radicand)
            # per-row sums, as in _gauss
            fine = half * np.einsum("ij,j->i", g[:, _N_LO:], _GAUSS_HI[1])
            coarse = half * np.einsum("ij,j->i", g[:, :_N_LO], _GAUSS_LO[1])
            slope = half * np.einsum("ij,j->i",
                                     (g / (rho * radicand))[:, _N_LO:],
                                     _GAUSS_HI[1])
            error = float(np.sum(np.abs(fine - coarse)))
        return math.fsum(fine), error, -0.5 * math.fsum(slope)


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
    psi = _critical_psi(metric, q, Q)
    return 0.0 if psi is None else math.exp(-psi.total)


def _reread(psi: Psi, c: float) -> tuple[float, float] | None:
    """(mu, mu') at c read off the Gauss nodes of psi, the latest table
    solve_c built at another constant (see Psi._moments), or None where
    they cannot be trusted: c lies nearer c0 than psi.c within the
    near-critical band, where the boundary layer at c is narrower than any
    psi resolved; the error estimate exceeds the tolerance a fresh table
    meets; or a value is not finite."""
    if c < psi.c and _near_critical(c, psi.critical_c):
        return None
    mu, error, slope = psi._moments(c)
    if not (error <= _MODULUS_TOL and math.isfinite(mu)
            and math.isfinite(slope)):
        return None
    return mu, slope


def solve_c(spec: ProblemSpec, config: SolverConfig = SolverConfig()) -> float:
    """Solve mu(c) = log(1/r) for the variational constant.

    Returns 0 for conformal pairs and otherwise a c with |mu(c) - log(1/r)|
    <= tol_c.  The critical constant c0 is returned when the target modulus
    matches the critical modulus to tol_c, or when the root lies closer to
    c0 than c-space resolves (1e-12 |c0|).  Raises BelowCritical
    when the domain annulus is fatter than the critical configuration, and
    NoConvergence (DivergentModulus where mu could not be integrated) when
    no c meets the residual, as where the radicand has lost the digits that
    resolve mu next to c0.

    The root is found by safeguarded Newton steps in x = sqrt((c - c0) /
    |c0|), which has no unit (c0 at 0, c = 0 at 1, the collar at 1e-6):
    mu'(c) is infinite at c0, but 1/mu is smooth in x there and nearly
    linear for large c, where mu ~ 1/sqrt(c), and tends to 0.  mu(0) =
    log(Q/q) in closed form.  An iterate reads mu and mu' off the Gauss
    nodes of the latest table built in the call where _reread trusts
    them, and otherwise builds its own table, which the next iterate
    reads; no read crosses calls.  The returned c is checked on its own
    table, which build_profile then reads.
    """
    metric, q, Q = spec.metric, spec.q, spec.Q
    c_crit = _critical(metric, q, Q)[1]
    target = math.log(1.0 / spec.r)
    # the latest table built in this call, whose nodes the iterates read
    nodes = None

    def modulus(c):
        """mu(c) and mu'(c), or (+inf, nan) where Psi reports the modulus
        divergent: only next to c0, where mu exceeds its value at every c
        further out, so the bracket keeps its order; a root next to such a
        c fails the residual check below."""
        nonlocal nodes
        if nodes is not None and (read := _reread(nodes, c)) is not None:
            return read
        try:
            nodes = _psi(metric, q, Q, c)
        except DivergentModulus:
            return math.inf, math.nan
        return nodes.total, nodes._moments(c)[2]

    def miss(mu, slope, x):
        """target (mu - target) / mu, which is mu - target to first order
        and smooth in x where mu is finite, and its slope in x (dc/dx = 2
        |c0| x); target and no slope where mu is infinite."""
        ratio = target / mu
        return target - target * ratio, -2.0 * c_crit * x * ratio * ratio * slope

    def miss_at(x):
        c = c_crit - c_crit * x * x
        # the radicand y^2 (1 + c / w(y)) is at most (x y)^2
        if not (c < math.inf and x * Q * x * Q < math.inf):
            raise NoConvergence(
                f"could not bracket c upward: c or the radicand leaves the "
                f"floats before mu(c) falls to log(1/r) = {target:.6g}")
        return miss(*modulus(c), x)

    # at c = 0 the first integral is int dy / y for every density
    mu0 = math.log(Q / q)
    if abs(mu0 - target) <= config.tol_c:
        # the table build_profile reads
        _psi(metric, q, Q, 0.0)
        return 0.0
    end0 = miss(mu0, math.nan, 1.0)
    if target < mu0:
        # expanding regime: c > 0 shrinks the modulus, which tends to 0;
        # the upper end is sought by steps of twice the Newton step, and at
        # least doubling x, until c or the radicand leaves the floats
        def beyond(x, f_x):
            step = -f_x[0] / f_x[1]
            return x + max(2.0 * step if step > 0.0 else 0.0, x)

        lo, f_lo = 1.0, end0
        hi = beyond(lo, f_lo)
        while (f_hi := miss_at(hi))[0] > 0.0:
            lo, f_lo, hi = hi, f_hi, beyond(hi, f_hi)
    else:
        psi_max = _critical_psi(metric, q, Q)
        mu_max = math.inf if psi_max is None else psi_max.total
        if target > mu_max + config.tol_c:
            raise BelowCritical(
                f"domain modulus {target:.12g} exceeds the critical modulus "
                f"{mu_max:.12g}; no radial minimizer exists",
                critical_c=c_crit,
                critical_r=math.exp(-mu_max),
            )
        if math.isfinite(mu_max) and abs(target - mu_max) <= config.tol_c:
            return c_crit
        # closer to c0 than this c-space cannot resolve the root (the collar)
        lo = 1e-6
        f_lo = miss_at(lo)
        if f_lo[0] <= 0.0:
            return c_crit
        hi, f_hi = 1.0, end0
    # the bracket may shrink to a few ulps of x, where c-space ends
    x = find_root_bracketed(miss_at, lo, hi, 0.5 * config.tol_c,
                            xtol=4.0 * _EPS * hi, f_lo=f_lo, f_hi=f_hi)
    c = c_crit - c_crit * x * x
    try:
        gap = _psi(metric, q, Q, c).total - target
    except DivergentModulus:
        gap = math.inf
    if not abs(gap) <= config.tol_c:
        error = DivergentModulus if math.isinf(gap) else NoConvergence
        raise error(
            f"modulus equation unsolved: mu(c) - log(1/r) = {gap:.3g} at "
            f"c - c_crit = {c - c_crit:.3g}")
    return c


def _classify(c: float, c_crit: float) -> str:
    """The class of c as solve_c returns it: exactly 0 for a conformal pair
    and exactly c0 for a critical one, so no tolerance (which would carry
    the units of c) decides a class."""
    if c == 0.0:
        return CONFORMAL
    if c == c_crit:
        return CRITICAL
    return EXPANDING if c > 0.0 else SUBCRITICAL


class _Samples:
    """The profile at _SAMPLES points uniform in Psi's variable v from p(r)
    to Q, which need no inverse: ``p``, ``rho`` = rho(p) and ``p_tau`` = s
    p'; when first read, ``tau`` = log s = -Psi(p) (log r and 0 at the ends)
    and ``weights`` in tau, Simpson's rule in v times dtau/dv = g (its limit
    at a critical anchor), with int_{log r}^0 f dtau = sum(weights f)."""

    def __init__(self, profile: MinimizerProfile):
        self._psi, self._r = profile.psi, profile.spec.r
        self._v = np.linspace(profile._inner[0], self._psi.edges[-1], _SAMPLES)
        self.p = p = self._psi.y_of_v(self._v)
        self.rho = rho = profile.spec.metric.eval(p)
        self.p_tau = np.sqrt(np.maximum(p * p + profile.c / rho, 0.0))

    @cached_property
    def tau(self) -> np.ndarray:
        tau = -self._psi.at_v(self._v)
        tau[[0, -1]] = math.log(self._r), 0.0
        return tau

    @cached_property
    def weights(self) -> np.ndarray:
        simpson = np.tile([2.0, 4.0], _SAMPLES // 2 + 1)[:_SAMPLES]
        simpson[[0, -1]] = 1.0
        step = (self._v[-1] - self._v[0]) / (_SAMPLES - 1)
        return step / 3.0 * simpson * self._psi.g_limit(self._v)


@dataclass(frozen=True)
class MinimizerProfile:
    """A solved radial minimizer, read along tau = log s.

    ``psi`` is the first integral, whose layout only this class reads:
    ``at_tau`` inverts -tau = Psi(p), ``inverse(p)`` is exp(-Psi(p)),
    ``p_tau(p)`` is s p', ``samples`` and ``integrate`` read along tau.
    ``c``, ``critical_c`` and ``classification`` are read from the table.
    """

    spec: ProblemSpec
    psi: Psi

    @property
    def c(self) -> float:
        """The variational constant of the modulus equation."""
        return self.psi.c

    @property
    def critical_c(self) -> float:
        """The critical constant of the (q, Q, metric) triple."""
        return self.psi.critical_c

    @property
    def classification(self) -> str:
        """The class of c (see _classify)."""
        return _classify(self.psi.c, self.psi.critical_c)

    @cached_property
    def _solved_inner(self) -> tuple[float, float]:
        """(v, y(v)) with Psi(y(v)) = log(1/r): p(r) as solved, once."""
        v = float(self.psi.v_of_log(-np.log(self.spec.r))[0])
        return v, float(self.psi.y_of_v(v))

    @cached_property
    def _inner(self) -> tuple[float, float]:
        """(v, inner): the solved p(r) where it meets q within 1e-6 Q, else q.
        build_profile admits a p(r) that far from q only where a modulus gap
        within tol_c moves it there; the boundary condition p(r) = q then
        places the inner end (profile(r) keeps the solved p(r))."""
        v, p = self._solved_inner
        q = self.spec.q
        if abs(p - q) > 1e-6 * self.spec.Q:
            return float(self.psi.v_of_y(q)), q
        return v, p

    @property
    def inner(self) -> float:
        """p(r) at the inner end, where the edge stretch p(r)/r, the samples
        and the energy start (see ``_inner``)."""
        return self._inner[1]

    def at_tau(self, tau):
        """p with Psi(p) = -tau, scalar or array, continued past q below log r
        and exactly Q for tau >= 0 (the fields' slack sends 1 + 1e-13 here).
        Each distinct tau is solved once, the same whatever is asked with it.
        """
        tau = np.asarray(tau, dtype=float)
        distinct, where = np.unique(tau, return_inverse=True)
        p = self.psi.y_of_v(self.psi.v_of_log(-distinct))[where]
        p = np.where(tau >= 0.0, self.psi.Q, p.reshape(tau.shape))
        return float(p) if p.ndim == 0 else p

    def profile(self, s):
        """p(s) = at_tau(log s); OutOfAnnulus unless s is positive finite."""
        s = np.asarray(s, dtype=float)
        bad = ~(np.isfinite(s) & (s > 0.0))
        if bad.any():
            raise OutOfAnnulus(f"radius {s[bad].flat[0]} is not a positive "
                               f"finite number")
        # the log of a contiguous copy: numpy rounds the log of a strided or
        # reversed view differently, and p(s) must not depend on the layout
        return self.at_tau(np.log(np.array(s)))

    def inverse(self, p):
        """s(p) = exp(-Psi(p)), scalar or array."""
        out = np.exp(-self.psi.at_v(self.psi.v_of_y(p)))
        return float(out) if np.ndim(out) == 0 else out

    def p_tau(self, p):
        """dp/dtau = s p' = sqrt(max(p^2 + c/rho(p), 0)) at profile radii p."""
        out = np.sqrt(np.maximum(self.psi._radicand(p), 0.0))
        return float(out) if np.ndim(out) == 0 else out

    def slope(self, s):
        """p'(s) = p_tau(p(s)) / s, from the first integral."""
        return self.p_tau(self.profile(s)) / s

    @cached_property
    def samples(self) -> _Samples:
        """The one sample set of the profile (see _Samples)."""
        return _Samples(self)

    def integrate(self, weight) -> float:
        """int_{log r}^0 weight(p) dtau = int_{p(r)}^Q weight(y) dy / sqrt(y^2
        + c/rho(y)) for a positive weight, adaptively in v from the table's
        own panels (which already resolve g, and split at the anchor), to
        _INTEGRAL_TOL relative to the first pass over them, with panels
        settled at the rounding floor of g."""
        psi, v_lo = self.psi, self._inner[0]

        def integrand(v):
            g, noise = psi.g(v, noisy=True)
            w = weight(psi.y_of_v(v))
            return g * w, noise * np.abs(w)

        v_hi = psi.edges[-1]
        inside = psi.edges[(psi.edges > v_lo) & (psi.edges < v_hi)]
        with np.errstate(divide="ignore", invalid="ignore"):
            return _adaptive_core(integrand, v_lo, v_hi, _INTEGRAL_TOL,
                                  np.concatenate(([v_lo], inside, [v_hi])),
                                  relative=True)[0]


def _modulus_gap(profile: MinimizerProfile,
                 tol_c: float) -> tuple[float, float, float]:
    """build_profile's consistency rule for (q, Q, r, c): (ratio, gap, p(r)),
    where the ratio, above 1 for inconsistent data, is the smaller of the
    modulus gap Psi(q) - log(1/r) over tol_c plus a few ulps of log(1/r) and
    |p(r) - q| over 1e-6 Q.  Either alone is not enough: where Psi is flat
    next to q, a gap within tol_c moves p(r) far from q (the inner end is
    then placed at q, see ``MinimizerProfile._inner``); and for a root in
    its collar solve_c returns c0, where mu is steep, so the gap exceeds
    tol_c while p(r) meets q."""
    spec = profile.spec
    target = math.log(1.0 / spec.r)
    gap = profile.psi.total - target
    reached = profile._solved_inner[1]
    return (min(abs(gap) / (tol_c + 4.0 * _EPS * target),
                abs(reached - spec.q) / (1e-6 * spec.Q)), gap, reached)


def build_profile(
    spec: ProblemSpec, c: float, config: SolverConfig = SolverConfig()
) -> MinimizerProfile:
    """Build the first integral Psi for c and package the profile read from
    it (profile, inverse, classification, all read off the table).

    The class is read from c as solve_c returns it: Conformal for c == 0,
    Critical for c == c0 (both exact returns), else by the sign of c.
    Raises ProfileMismatch for (q, Q, r, c) inconsistent by _modulus_gap.
    The table is read through the solver's one-entry cache, so right after
    solve_c on the same metric and radii it is the table of its root.
    """
    psi = _psi(spec.metric, spec.q, spec.Q, c)
    profile = MinimizerProfile(spec, psi)
    ratio, gap, reached = _modulus_gap(profile, config.tol_c)
    if ratio > 1.0:
        raise ProfileMismatch(
            f"profile reached p(r)={reached:.12g}, expected q={spec.q:.12g} "
            f"(off by {abs(reached - spec.q):.3g}); modulus gap Psi(q) - "
            f"log(1/r) = {gap:.3g} at c - c_crit = {c - psi.critical_c:.3g}; "
            f"(q, Q, r, c) are inconsistent"
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
    # vanish bitwise at the inner boundary and c the critical constant exactly
    c = -(spec.q * spec.q)
    return MinimizerProfile(spec, Psi(spec.metric, spec.q, 1.0, c))
