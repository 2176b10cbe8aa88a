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

import numpy as np

from .errors import OutOfAnnulus
from .metrics import RadialMetric
from .numerics import minimize_scalar
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


@dataclass(frozen=True)
class FieldSample:
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


def _radial(profile: MinimizerProfile, z: complex) -> tuple[float, float, float]:
    """(|z|, p, p') at z, each radius evaluated once."""
    s = abs(z)
    _require_in_annulus(profile, s)
    p = profile.profile(s)
    return s, p, profile.psi.slope(s, p)


def map_point(profile: MinimizerProfile, z: complex) -> complex:
    """w(z) = p(|z|) z / |z|."""
    s, p, _ = _radial(profile, z)
    return p * z / s


def derivatives_point(profile: MinimizerProfile, z: complex) -> tuple[complex, complex]:
    """(w_z, w_zbar) at z, with p' taken from the first integral."""
    s, p, dp = _radial(profile, z)
    return complex(0.5 * (dp + p / s), 0.0), 0.5 * (dp - p / s) * (z / s) ** 2


def operator_norms(profile: MinimizerProfile, z: complex) -> tuple[float, float]:
    """(|Dw|, l(Dw)) = (max, min) of {p/s, p'} at |z|."""
    s, p, dp = _radial(profile, z)
    tangential = p / s
    return max(tangential, dp), min(tangential, dp)


def hopf_quantity(profile: MinimizerProfile, metric: RadialMetric, z: complex) -> complex:
    """rho(|w|) w_z conj(w_zbar); multiplied by z^2 this is the real
    constant c/4."""
    s, p, dp = _radial(profile, z)
    return metric.eval(p) * 0.25 * (dp * dp - (p / s) ** 2) * np.conj(z / s) ** 2


def energy(profile: MinimizerProfile, metric: RadialMetric) -> float:
    """Weighted Dirichlet energy 2 pi int_r^1 rho(p) (p'^2 + p^2/s^2) s ds.

    With p' = sqrt(p^2 + c/rho(p)) / s and ds/s = dp / sqrt(p^2 + c/rho(p))
    it becomes 2 pi int_{p(r)}^Q (2 y^2 rho(y) + c) / sqrt(y^2 + c/rho(y)) dy,
    integrated on the panels of the profile's first integral.
    """
    c = profile.c
    inner = profile.profile(profile.spec.r)
    weight = lambda y: 2.0 * y * y * metric.eval(y) + c
    return 2.0 * math.pi * profile.psi.integrate(weight, inner)


def lipschitz_constant(
    profile: MinimizerProfile, metric: RadialMetric
) -> tuple[float, float]:
    """(sup |Dw|, inf l(Dw)) over the annulus.

    Both quantities are t-independent for radial maps.  They are scanned
    densely in the first integral's variable v, where p = y(v) and s =
    exp(-Psi) are explicit, and the scan winners are refined by zooming.
    """
    psi = profile.psi
    v_inner = psi.v_of_log(math.log(1.0 / profile.spec.r))[0]

    def stretches(v):
        """(p/s, p') at y(v)."""
        p, s = psi.y_of_v(v), np.exp(-psi.at_v(v))
        return p / s, psi.slope(s, p)

    scan = np.linspace(v_inner, psi.edges[-1], 2048)
    tangential, dp = stretches(scan)
    sup_op = _zoom_max(lambda v: np.maximum(*stretches(v)), scan,
                       np.maximum(tangential, dp))
    inf_lo = -_zoom_max(lambda v: -np.minimum(*stretches(v)), scan,
                        -np.minimum(tangential, dp))
    return sup_op, inf_lo


def _zoom_max(f, x: np.ndarray, y: np.ndarray) -> float:
    """Refine the maximum of a scan y = f(x): seven 33-point scans, each
    shrinking the bracket around the winner 16-fold.  The scan's endpoints
    stay candidates."""
    for _ in range(7):
        k = int(np.argmax(y))
        x = np.linspace(x[max(k - 1, 0)], x[min(k + 1, x.size - 1)], 33)
        y = f(x)
    return float(np.max(y))


def kk_constants(profile: MinimizerProfile, metric: RadialMetric) -> tuple[float, float]:
    """Distortion constants (K, K') with K = 1 and
    K' = |c| / (r^2 inf_{[q,Q]} rho): pointwise ||Dw||^2 <= 2 J + K'."""
    spec = profile.spec
    _, rho_inf = minimize_scalar(metric.eval, spec.q, spec.Q, 1e-12)
    return 1.0, abs(profile.c) / (spec.r**2 * rho_inf)


def field_arrays(
    profile: MinimizerProfile, metric: RadialMetric, s: np.ndarray, t: np.ndarray
) -> dict:
    """Vectorized field quantities on the tensor grid s x t (s-major).

    The radial quantities are evaluated once per radius and broadcast over t.
    """
    s = np.asarray(s, float)
    S, T = np.meshgrid(s, np.asarray(t, float), indexing="ij")
    p = profile.profile(s)
    dp = profile.psi.slope(s, p)
    column = lambda x: np.broadcast_to(x[:, None], S.shape)
    P, DP, tangential = column(p), column(dp), column(p / s)
    phase = np.exp(1j * T)
    Z = S * phase
    W = P * phase
    wz = (0.5 * (DP + tangential)).astype(complex)
    wzb = 0.5 * (DP - tangential) * phase**2
    jac = column(p * dp / s)
    opnorm = np.maximum(tangential, DP)
    lonorm = np.minimum(tangential, DP)
    hopf = column(metric.eval(p)) * wz * np.conj(wzb)
    return {
        "s": S, "t": T, "z": Z, "w": W, "wz": wz, "wzb": wzb,
        "jac": jac, "opnorm": opnorm, "lonorm": lonorm, "hopf": hopf,
    }


def export_grid(
    profile: MinimizerProfile, metric: RadialMetric, grid: PolarGrid
) -> list[FieldSample]:
    """One FieldSample per grid point, in deterministic s-major order."""
    r = profile.spec.r
    lo, hi = grid.s_range
    if lo < r - _ANNULUS_SLACK or hi > 1.0 + _ANNULUS_SLACK:
        raise OutOfAnnulus(f"grid range {grid.s_range} outside [{r}, 1]")
    arrays = field_arrays(profile, metric, grid.s_values, grid.t_values)
    samples = []
    for i in range(grid.n_s):
        for j in range(grid.n_t):
            samples.append(
                FieldSample(
                    z=complex(arrays["z"][i, j]),
                    w=complex(arrays["w"][i, j]),
                    wz=complex(arrays["wz"][i, j]),
                    wzb=complex(arrays["wzb"][i, j]),
                    jac=float(arrays["jac"][i, j]),
                    opnorm=float(arrays["opnorm"][i, j]),
                    lonorm=float(arrays["lonorm"][i, j]),
                    hopf=complex(arrays["hopf"][i, j]),
                )
            )
    return samples
