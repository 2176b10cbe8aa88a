"""Pointwise and grid evaluation of a solved radial map.

For w(s e^{it}) = p(s) e^{it} the Wirtinger derivatives are

    w_z    = (p' + p/s) / 2                (real),
    w_zbar = e^{2it} (p' - p/s) / 2,

so the operator norms are max/min of {p/s, p'}, the Jacobian is p p'/s,
and z^2 rho(p) w_z conj(w_zbar) equals c/4 identically (the constant of
the map's quadratic differential).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import OutOfAnnulus
from .metrics import RadialMetric
from .numerics import find_root_bracketed, minimize_scalar
from .solver import MinimizerProfile

__all__ = [
    "PolarGrid",
    "FieldSample",
    "map_point",
    "derivatives_point",
    "operator_norms",
    "hopf_quantity",
    "energy",
    "lipschitz_constant",
    "kk_constants",
    "export_grid",
]

_ANNULUS_SLACK = 1e-12


@dataclass(frozen=True)
class PolarGrid:
    """Uniform polar sampling of the closed annulus s in [r, 1]:
    s_i = r + i (1-r)/(n_s-1), t_j = 2 pi j / n_t."""

    n_s: int
    n_t: int
    s_range: tuple[float, float]

    def __post_init__(self):
        if self.n_s < 2 or self.n_t < 4:
            raise ValueError("need n_s >= 2 and n_t >= 4")
        lo, hi = self.s_range
        if not 0.0 < lo < hi:
            raise ValueError(f"bad s_range {self.s_range}")

    @property
    def s_values(self) -> np.ndarray:
        lo, hi = self.s_range
        return np.linspace(lo, hi, self.n_s)

    @property
    def t_values(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_t) / self.n_t


class FieldSample(NamedTuple):
    """All pointwise quantities of the map at one grid point."""

    z: complex
    w: complex
    wz: complex
    wzb: complex
    jac: float
    opnorm: float
    lonorm: float
    hopf: complex


def _columns(
    profile: MinimizerProfile, metric: RadialMetric, s, phase, p=None
) -> FieldSample:
    """The eight field quantities at radii s and unit phases e^{it},
    broadcast against each other, as a FieldSample of arrays.

    p and p' (from the first integral) are read once per entry of s; a
    caller that already has p = p(s) passes it.
    """
    s = np.asarray(s, dtype=float)
    if p is None:
        p = profile.profile(s)
    dp = profile.p_tau(p) / s
    tangential = p / s
    wz = (0.5 * (dp + tangential)).astype(complex)
    wzb = 0.5 * (dp - tangential) * phase**2
    return FieldSample(*np.broadcast_arrays(
        s * phase, p * phase, wz, wzb, p * dp / s,
        np.maximum(tangential, dp), np.minimum(tangential, dp),
        metric.eval(p) * wz * np.conj(wzb),
    ))


def _at_point(profile: MinimizerProfile, metric: RadialMetric,
              z: complex) -> FieldSample:
    s, r = abs(z), profile.spec.r
    if not (r - _ANNULUS_SLACK <= s <= 1.0 + _ANNULUS_SLACK):
        raise OutOfAnnulus(f"|z| = {s} outside the closed annulus [{r}, 1]")
    return _columns(profile, metric, s, z / s)


def map_point(profile: MinimizerProfile, z: complex) -> complex:
    """w(z) = p(|z|) z / |z|."""
    return complex(_at_point(profile, profile.spec.metric, z).w)


def derivatives_point(profile: MinimizerProfile, z: complex) -> tuple[complex, complex]:
    """(w_z, w_zbar) at z, with p' taken from the first integral."""
    sample = _at_point(profile, profile.spec.metric, z)
    return complex(sample.wz), complex(sample.wzb)


def operator_norms(profile: MinimizerProfile, z: complex) -> tuple[float, float]:
    """(|Dw|, l(Dw)) = (max, min) of {p/s, p'} at |z|."""
    sample = _at_point(profile, profile.spec.metric, z)
    return float(sample.opnorm), float(sample.lonorm)


def hopf_quantity(profile: MinimizerProfile, metric: RadialMetric, z: complex) -> complex:
    """rho(|w|) w_z conj(w_zbar); multiplied by z^2 this is the real
    constant c/4."""
    return complex(_at_point(profile, metric, z).hopf)


def energy(profile: MinimizerProfile, metric: RadialMetric) -> float:
    """Weighted Dirichlet energy 2 pi int_r^1 rho(p) (p'^2 + p^2/s^2) s ds.

    With p' = sqrt(p^2 + c/rho(p)) / s and ds/s = dp / sqrt(p^2 + c/rho(p))
    it becomes 2 pi int_{p(r)}^Q (2 y^2 rho(y) + c) / sqrt(y^2 + c/rho(y)) dy,
    integrated adaptively (``MinimizerProfile.integrate``).  ``metric``,
    read for rho, must be the profile's own.
    """
    c = profile.c
    weight = lambda y: 2.0 * y * y * metric.eval(y) + c
    return 2.0 * math.pi * profile.integrate(weight)


def lipschitz_constant(
    profile: MinimizerProfile, metric: RadialMetric
) -> tuple[float, float]:
    """(sup |Dw|, inf l(Dw)) over the annulus.

    Both stretches p/s and p' are t-independent, and the first integral
    p'^2 - (p/s)^2 = c / (rho(p) s^2) gives p' - p/s the sign of c.  As
    d(p/s)/ds = (p' - p/s) / s, p/s is monotone with extreme p(r)/r: sup
    |Dw| for c <= 0, inf l(Dw) for c > 0.  The other constant is the min of
    p' for c <= 0, its max for c > 0.  As p' = sqrt(R) e^{Psi(p)}, R = y^2
    + c/rho, d log p'/dy has the sign of T(y) = y - c (rho'/rho) / (2 rho) -
    sqrt(R), scanned at the profile's samples (which hold p and sqrt(R) =
    p_tau), each sign change refined in y to 1e-12 of the span of p; p' =
    p_tau/s is read there and at the ends, with s from ``inverse``.  For c =
    0, p' = p/s along the profile, and an inner end placed at q (see
    ``MinimizerProfile.inner``) may lie on either side: the pair spans
    both.  ``metric`` must be the profile's own: the profile's is read.
    """
    c, samples = profile.c, profile.samples
    rho, drho = profile.spec.metric.eval, profile.spec.metric.deriv

    def turning(y, density, root):
        # rho'/rho first: rho^2 underflows for steep densities (power:1000)
        return y - 0.5 * c * (drho(y) / density) / density - root

    y = samples.p
    t = turning(y, samples.rho, samples.p_tau)
    sign = np.sign(t)
    zero = sign == 0.0
    # p' is stationary along a run of zeros of T (all of [q, Q] for c = 0):
    # the run's ends stand for it
    ends = zero[1:-1] & ~(zero[:-2] & zero[2:])
    candidates = [y[0], y[-1], *y[1:-1][ends]]
    xtol = 1e-12 * (y[-1] - y[0])
    for k in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
        candidates.append(find_root_bracketed(
            lambda x: turning(x, rho(x), profile.p_tau(x)), y[k], y[k + 1],
            0.0, xtol=xtol, f_lo=t[k], f_hi=t[k + 1]))
    candidates = np.array(candidates)
    slopes = profile.p_tau(candidates) / profile.inverse(candidates)
    extreme = slopes.min() if c <= 0.0 else slopes.max()
    r = profile.spec.r
    edge = profile.inner / r
    if c == 0.0 and profile.inner != profile.profile(r):
        return max(edge, float(slopes.max())), min(edge, float(extreme))
    return (edge, float(extreme)) if c <= 0.0 else (float(extreme), edge)


def kk_constants(profile: MinimizerProfile, metric: RadialMetric) -> tuple[float, float]:
    """Distortion constants (K, K') with K = 1 and
    K' = |c| / (r^2 inf_{[q,Q]} rho): pointwise ||Dw||^2 <= 2 J + K'.
    ``metric``, read for rho, must be the profile's own; one with
    ``endpoint_minima`` is read at q and Q, any other scanned to a step of
    1e-12 of the span."""
    spec = profile.spec
    if metric.endpoint_minima:
        rho_inf = float(np.min(metric.eval(np.array([spec.q, spec.Q]))))
    else:
        _, rho_inf = minimize_scalar(metric.eval, spec.q, spec.Q,
                                     1e-12 * (spec.Q - spec.q))
    return 1.0, abs(profile.c) / (spec.r**2 * rho_inf)


def field_arrays(
    profile: MinimizerProfile, metric: RadialMetric, s: np.ndarray, t: np.ndarray
) -> dict:
    """Vectorized field quantities on the tensor grid s x t (s-major): the
    grid values "s" and "t" and the eight FieldSample columns.

    The radial quantities are evaluated once per radius and broadcast over t.
    """
    s = np.asarray(s, float)[:, None]
    t = np.asarray(t, float)
    columns = _columns(profile, metric, s, np.exp(1j * t))
    grid_s, grid_t = np.broadcast_arrays(s, t)
    return {"s": grid_s, "t": grid_t, **columns._asdict()}


def export_grid(
    profile: MinimizerProfile, metric: RadialMetric, grid: PolarGrid
) -> list[FieldSample]:
    """One FieldSample per grid point, in deterministic s-major order (built
    by tuple.__new__, which makes each row without a Python frame)."""
    r = profile.spec.r
    lo, hi = grid.s_range
    if lo < r - _ANNULUS_SLACK or hi > 1.0 + _ANNULUS_SLACK:
        raise OutOfAnnulus(f"grid range {grid.s_range} outside [{r}, 1]")
    arrays = field_arrays(profile, metric, grid.s_values, grid.t_values)
    columns = [arrays[name].ravel().tolist() for name in FieldSample._fields]
    return list(map(tuple.__new__, repeat(FieldSample), zip(*columns)))
