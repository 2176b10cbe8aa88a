"""Radial target densities rho(|w|) and their admissibility diagnostics.

A metric is a positive radial density on an interval of radii together with
its first two derivatives; the diagnostics are Gauss curvature, metric area
of an annulus, and the log-gradient bound sup |rho'|/rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadParameter, OutOfDomain, UnknownMetric
from .numerics import _adaptive_core, minimize_scalar

__all__ = [
    "RadialMetric",
    "MetricDiagnostics",
    "parse_metric",
    "curvature",
    "area",
    "approx_analytic_constant",
    "admissibility_report",
]

_SUP_TOL = 1e-12  # grid step of the last zoom scan for sup/inf refinement

# validity interval of the hyperbolic density stops just short of the unit
# circle, where it blows up
_HYPERBOLIC_EDGE = 1.0 - 1e-9


@dataclass(frozen=True, eq=False)
class RadialMetric:
    """Radial density with analytic derivatives on a validity interval.

    ``eval``, ``deriv`` and ``deriv2`` accept floats or numpy arrays and
    return matching shapes; the density is positive on the open interval
    ``valid_interval``.  ``deriv`` is read by the Lipschitz constants (the
    turning points of p'), the general harmonic residual and the curvature,
    ``deriv2`` by the curvature.  A metric compares and hashes by identity:
    two metrics may share a name but not a density, and any callable,
    hashable or not, may serve as one.

    Two optional fields state where the minima over any [q, Q] inside
    ``valid_interval`` lie, so the solver reads them at q and Q instead of
    scanning [q, Q]; at their defaults (False, None) it scans.
    ``endpoint_minima`` says that the density and the weight w = y^2 rho
    each take their minimum over [q, Q] at q or Q, as where each is
    monotone or peaks once.  ``constant_weight`` is the value of w where it
    is constant, so that every radius is critical.  Both describe ``eval``:
    replace them along with it, unless the new ``eval`` is the same density.
    """

    eval: Callable
    deriv: Callable
    deriv2: Callable
    valid_interval: tuple[float, float]
    name: str
    endpoint_minima: bool = False
    constant_weight: float | None = None

    def contains(self, q: float, Q: float) -> bool:
        lo, hi = self.valid_interval
        return lo < q < Q <= hi

    def contains_point(self, y: float) -> bool:
        lo, hi = self.valid_interval
        return lo < y <= hi


@dataclass(frozen=True)
class MetricDiagnostics:
    """Admissibility numbers for a density on a radius interval.

    The library reports the raw values and takes no pass/fail stance; the
    notions of "bounded" and "finite" have no numeric thresholds.
    """

    curvature_min: float
    curvature_max: float
    area: float
    p_constant: float
    rho_inf: float
    rho_sup: float


def _shaped(y, template):
    out = np.asarray(template, dtype=float)
    if np.ndim(y) == 0:
        return float(out)
    return out


def _euclidean() -> RadialMetric:
    return RadialMetric(
        eval=lambda y: _shaped(y, np.ones_like(np.asarray(y, dtype=float))),
        deriv=lambda y: _shaped(y, np.zeros_like(np.asarray(y, dtype=float))),
        deriv2=lambda y: _shaped(y, np.zeros_like(np.asarray(y, dtype=float))),
        valid_interval=(0.0, math.inf),
        name="euclidean",
        endpoint_minima=True,
    )


def _inverse_r() -> RadialMetric:
    return RadialMetric(
        eval=lambda y: 1.0 / y,
        deriv=lambda y: -1.0 / y**2,
        deriv2=lambda y: 2.0 / y**3,
        valid_interval=(0.0, math.inf),
        name="inverse_r",
        endpoint_minima=True,
    )


def _sphere() -> RadialMetric:
    return RadialMetric(
        eval=lambda y: 1.0 / (1.0 + y**2) ** 2,
        deriv=lambda y: -4.0 * y / (1.0 + y**2) ** 3,
        deriv2=lambda y: (20.0 * y**2 - 4.0) / (1.0 + y**2) ** 4,
        valid_interval=(0.0, math.inf),
        name="sphere",
        # w = y^2/(1 + y^2)^2 peaks at y = 1
        endpoint_minima=True,
    )


def _hyperbolic() -> RadialMetric:
    return RadialMetric(
        eval=lambda y: 1.0 / (1.0 - y**2) ** 2,
        deriv=lambda y: 4.0 * y / (1.0 - y**2) ** 3,
        deriv2=lambda y: (4.0 + 20.0 * y**2) / (1.0 - y**2) ** 4,
        valid_interval=(0.0, _HYPERBOLIC_EDGE),
        name="hyperbolic",
        endpoint_minima=True,
    )


def _power(a: float) -> RadialMetric:
    return RadialMetric(
        eval=lambda y: y**a,
        deriv=lambda y: a * y ** (a - 1.0),
        deriv2=lambda y: a * (a - 1.0) * y ** (a - 2.0),
        valid_interval=(0.0, math.inf),
        name=f"power:{a:g}",
        # w = y^(a+2) is monotone, and constant at a = -2
        endpoint_minima=True,
        constant_weight=1.0 if a == -2.0 else None,
    )


_BUILTINS = {
    "euclidean": _euclidean,
    "inverse_r": _inverse_r,
    "sphere": _sphere,
    "hyperbolic": _hyperbolic,
}


def parse_metric(spec: str) -> RadialMetric:
    """Build a built-in metric from its spec string.

    Recognized: "euclidean", "inverse_r", "sphere", "hyperbolic", and
    "power:a" with a single decimal exponent a.
    """
    if not isinstance(spec, str):
        raise BadParameter(f"metric spec must be a string, got {type(spec).__name__}")
    name, sep, arg = spec.strip().partition(":")
    if name == "power":
        if not sep or not arg:
            raise BadParameter('"power" requires an exponent, e.g. "power:1.5"')
        try:
            exponent = float(arg)
        except ValueError:
            raise BadParameter(f'bad exponent {arg!r} in metric spec {spec!r}') from None
        if not math.isfinite(exponent):
            raise BadParameter(f"exponent must be finite, got {arg!r}")
        return _power(exponent)
    if name in _BUILTINS:
        if sep:
            raise BadParameter(f'metric "{name}" takes no parameter (got {spec!r})')
        return _BUILTINS[name]()
    raise UnknownMetric(f"unknown metric spec {spec!r}")


def _check_point(metric: RadialMetric, y: float) -> None:
    if not metric.contains_point(y):
        raise OutOfDomain(
            f"radius {y} outside validity interval {metric.valid_interval} "
            f"of metric {metric.name!r}"
        )


def _check_interval(metric: RadialMetric, q: float, Q: float) -> None:
    if not (math.isfinite(q) and math.isfinite(Q)):
        raise OutOfDomain(f"need finite radii, got q={q}, Q={Q}")
    if not q < Q:
        raise OutOfDomain(f"need q < Q, got q={q}, Q={Q}")
    if not metric.contains(q, Q):
        raise OutOfDomain(
            f"[{q}, {Q}] not inside validity interval {metric.valid_interval} "
            f"of metric {metric.name!r}"
        )


def curvature(metric: RadialMetric, y):
    """Gauss curvature -lap(log rho)/rho at radius y, using the radial
    Laplacian (log rho)'' + (log rho)'/y with analytic derivatives."""
    scalar = np.ndim(y) == 0
    if scalar:
        _check_point(metric, float(y))
    y = np.asarray(y, dtype=float)
    rho = metric.eval(y)
    g1 = metric.deriv(y) / rho
    g2 = metric.deriv2(y) / rho - g1**2
    out = -(g2 + g1 / y) / rho
    return float(out) if scalar else out


def area(metric: RadialMetric, q: float, Q: float) -> float:
    """Metric area of the annulus with radii [q, Q]: 2 pi int rho(y) y dy,
    integrated adaptively on [q, Q] to 1e-13 relative to one Gauss rule
    over the whole interval, so the cost does not depend on the scale."""
    _check_interval(metric, q, Q)
    integrand = lambda y: metric.eval(y) * y
    return 2.0 * math.pi * _adaptive_core(integrand, q, Q, 1e-13,
                                          relative=True)[0]


def approx_analytic_constant(metric: RadialMetric, q: float, Q: float) -> float:
    """sup over [q, Q] of |rho'(y)|/rho(y) (the log-gradient bound)."""
    _check_interval(metric, q, Q)
    _, neg_sup = minimize_scalar(
        lambda y: -np.abs(metric.deriv(y)) / metric.eval(y), q, Q, _SUP_TOL
    )
    return max(0.0, -neg_sup)


def admissibility_report(metric: RadialMetric, q: float, Q: float) -> MetricDiagnostics:
    """Aggregate curvature range, area, log-gradient bound and density range
    of the metric on [q, Q]."""
    _check_interval(metric, q, Q)
    kf = lambda y: curvature(metric, y)
    _, k_min = minimize_scalar(kf, q, Q, _SUP_TOL)
    _, neg_k_max = minimize_scalar(lambda y: -kf(y), q, Q, _SUP_TOL)
    _, rho_inf = minimize_scalar(metric.eval, q, Q, _SUP_TOL)
    _, neg_rho_sup = minimize_scalar(lambda y: -metric.eval(y), q, Q, _SUP_TOL)
    return MetricDiagnostics(
        curvature_min=k_min,
        curvature_max=-neg_k_max,
        area=area(metric, q, Q),
        p_constant=approx_analytic_constant(metric, q, Q),
        rho_inf=rho_inf,
        rho_sup=-neg_rho_sup,
    )
