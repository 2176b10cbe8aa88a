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
from typing import NamedTuple

import numpy as np

from .errors import OutOfAnnulus
from .metrics import RadialMetric
from .numerics import _zoom, minimize_scalar
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


def _require_in_annulus(profile: MinimizerProfile, s: float) -> None:
    r = profile.spec.r
    if not (r - _ANNULUS_SLACK <= s <= 1.0 + _ANNULUS_SLACK):
        raise OutOfAnnulus(f"|z| = {s} outside the closed annulus [{r}, 1]")


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
    dp = profile.psi.slope(s, p)
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
    s = abs(z)
    _require_in_annulus(profile, s)
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
    integrated on the panels of the profile's first integral.
    """
    c = profile.c
    weight = lambda y: 2.0 * y * y * metric.eval(y) + c
    return 2.0 * math.pi * profile.psi.integrate(weight, profile.inner)


def lipschitz_constant(
    profile: MinimizerProfile, metric: RadialMetric
) -> tuple[float, float]:
    """(sup |Dw|, inf l(Dw)) over the annulus.

    Both quantities are t-independent for radial maps.  They are scanned
    densely in the first integral's variable v, where p = y(v) and s =
    exp(-Psi) are explicit, and the scan winners are refined by zooming:
    seven 33-point scans per quantity, each shrinking the bracket around the
    winner 16-fold, with both quantities' scans evaluated together.  The
    scan's endpoints stay candidates.
    """
    psi = profile.psi

    def extremes(v):
        """(-max, min) of (p/s, p') at y(v)."""
        p, s = psi.y_of_v(v), np.exp(-psi.at_v(v))
        tangential, dp = p / s, psi.slope(s, p)
        return -np.maximum(tangential, dp), np.minimum(tangential, dp)

    scan = np.linspace(profile.inner_v, psi.edges[-1], 2048)
    xs, ys = (scan, scan), extremes(scan)
    for _ in range(7):
        xs = [_zoom(x, y) for x, y in zip(xs, ys)]
        neg_sup, inf_lo = extremes(np.concatenate(xs))
        n = xs[0].size
        ys = neg_sup[:n], inf_lo[n:]
    return -float(np.min(ys[0])), float(np.min(ys[1]))


def kk_constants(profile: MinimizerProfile, metric: RadialMetric) -> tuple[float, float]:
    """Distortion constants (K, K') with K = 1 and
    K' = |c| / (r^2 inf_{[q,Q]} rho): pointwise ||Dw||^2 <= 2 J + K'."""
    spec = profile.spec
    _, rho_inf = minimize_scalar(metric.eval, spec.q, spec.Q, 1e-12)
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
    """One FieldSample per grid point, in deterministic s-major order."""
    r = profile.spec.r
    lo, hi = grid.s_range
    if lo < r - _ANNULUS_SLACK or hi > 1.0 + _ANNULUS_SLACK:
        raise OutOfAnnulus(f"grid range {grid.s_range} outside [{r}, 1]")
    arrays = field_arrays(profile, metric, grid.s_values, grid.t_values)
    columns = [arrays[name].ravel().tolist() for name in FieldSample._fields]
    return list(map(FieldSample._make, zip(*columns)))
