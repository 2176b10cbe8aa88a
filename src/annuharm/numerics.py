"""Shared numerical kernels.

Adaptive quadrature with integrable-endpoint handling, bracketed root
finding and scalar minimization by scan + golden section.  Tolerances are
absolute-error targets; every routine either meets its target or raises.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np

from .errors import DivergentIntegral, NoBracket, NoConvergence

__all__ = [
    "integrate_adaptive",
    "find_root_bracketed",
    "minimize_scalar",
]

_EPS = np.finfo(float).eps


class _ArrayFunc:
    """Adapter calling a scalar-or-vector callable on numpy arrays.

    The first array call probes whether the callable is numpy-aware; if not,
    evaluation falls back to a per-element loop.
    """

    def __init__(self, f: Callable[[float], float]):
        self._f = f
        self._vectorized: bool | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._vectorized is None or self._vectorized:
            try:
                y = np.asarray(self._f(x), dtype=float)
                if y.shape == x.shape:
                    self._vectorized = True
                    return y
            except (TypeError, ValueError):
                pass
            self._vectorized = False
        out = np.array([self._f(float(v)) for v in x.ravel()], dtype=float)
        return out.reshape(x.shape)

    def probe(self, x: float) -> float:
        """Single-point evaluation that maps arithmetic blowups to +inf."""
        try:
            return float(self._f(float(x)))
        except (ZeroDivisionError, OverflowError, FloatingPointError, ValueError):
            return math.inf
        except TypeError:
            try:
                return float(self(np.asarray([x]))[0])
            except (ZeroDivisionError, OverflowError, FloatingPointError,
                    ValueError):
                return math.inf


_GAUSS_LO = np.polynomial.legendre.leggauss(7)
_GAUSS_HI = np.polynomial.legendre.leggauss(15)

_MAX_PANELS = 1_000_000
_SINGULAR_OFFSET = 1e-12
_SINGULAR_MAGNITUDE = 1e6
# growth of the integrand toward an endpoint relative to the interior that
# also flags a singularity (catches integrable 1/sqrt blowups whose probe
# value stays just under the absolute threshold)
_SINGULAR_GROWTH = 1e4


# both rules' nodes: the integrand's call overhead dominates small panels,
# so all nodes of the panels being scored go through one call
_GAUSS_NODES = np.concatenate((_GAUSS_LO[0], _GAUSS_HI[0]))
_N_LO = _GAUSS_LO[0].size


def _panels(F: _ArrayFunc, bounds) -> list[tuple[float, float]]:
    """(value, error estimate) of the paired Gauss rules on each (lo, hi)."""
    vals = F(np.concatenate([0.5 * (hi + lo) + 0.5 * (hi - lo) * _GAUSS_NODES
                             for lo, hi in bounds]))
    out = []
    for i, (lo, hi) in enumerate(bounds):
        v = vals[i * _GAUSS_NODES.size:(i + 1) * _GAUSS_NODES.size]
        half = 0.5 * (hi - lo)
        coarse = half * float(np.dot(_GAUSS_LO[1], v[:_N_LO]))
        fine = half * float(np.dot(_GAUSS_HI[1], v[_N_LO:]))
        out.append((fine, abs(fine - coarse)))
    return out


def _adaptive_core(
    F: _ArrayFunc, a: float, b: float, tol: float
) -> tuple[float, np.ndarray]:
    """Globally adaptive bisection with a paired Gauss rule per panel.

    The panel with the worst error estimate is refined first, so sharp
    boundary layers cannot starve the error budget of the smooth remainder.
    Returns the integral and the accepted panels as rows (lo, hi, value) in
    increasing order.
    """
    span = b - a
    floor_width = 1e-13 * span
    (value, err), = _panels(F, [(a, b)])
    heap = [(-err, a, b, value)]
    refinable_err = err
    # heap-shaped entries (-err, lo, hi, value) of panels at rounding floor
    settled: list[tuple[float, float, float, float]] = []
    settled_err = 0.0
    n_panels = 1
    while heap and refinable_err + settled_err > tol:
        neg_err, lo, hi, val = heapq.heappop(heap)
        worst = -neg_err
        refinable_err -= worst
        width = hi - lo
        if width < floor_width:
            if not np.isfinite(val):
                raise DivergentIntegral(
                    f"integrand not resolvable near [{lo}, {hi}]"
                )
            settled.append((neg_err, lo, hi, val))
            settled_err += worst
            continue
        mid = 0.5 * (lo + hi)
        halves = ((lo, mid), (mid, hi))
        for (sub_lo, sub_hi), (sub_val, sub_err) in zip(halves, _panels(F, halves)):
            if not np.isfinite(sub_err):
                sub_err = math.inf
            heapq.heappush(heap, (-sub_err, sub_lo, sub_hi, sub_val))
            refinable_err += sub_err
        n_panels += 2
        if n_panels > _MAX_PANELS:
            raise NoConvergence(
                f"quadrature on [{a}, {b}] exceeded {_MAX_PANELS} panels"
            )
    panels = np.array(settled + heap)[:, 1:]
    total = math.fsum(panels[:, 2])
    if not np.isfinite(total):
        raise DivergentIntegral(f"integral over [{a}, {b}] is not finite")
    return total, panels[np.argsort(panels[:, 0])]


def _divergence_guard(F: _ArrayFunc, endpoint: float, inward: float) -> None:
    """Reject endpoint singularities stronger than an integrable 1/sqrt.

    Checks the substitution-transformed integrand g(u) = 2 u f(endpoint +/-
    u^2) just off the endpoint; the probe offset is widened only as far as
    floating-point representability of endpoint + u^2 requires, keeping the
    acceptance threshold scale-equivalent to |g(1e-12)| <= 1e12.
    """
    u = max(_SINGULAR_OFFSET, math.sqrt(100.0 * _EPS * max(abs(endpoint), 1.0)))
    g = 2.0 * u * F.probe(endpoint + inward * u * u)
    if not np.isfinite(g) or abs(g) > 1.0 / u:
        raise DivergentIntegral(
            f"endpoint singularity at {endpoint} is not integrable"
        )


def _integrate_singular(F: _ArrayFunc, endpoint: float, inward: float,
                        span: float, tol: float) -> float:
    """Integral over the span next to a singular endpoint, by y = endpoint
    +/- u^2 (inward = +1 for the left end, -1 for the right one)."""
    _divergence_guard(F, endpoint, inward)
    transformed = _ArrayFunc(lambda u: 2.0 * u * F(endpoint + inward * u * u))
    return _adaptive_core(transformed, 0.0, math.sqrt(span), tol)[0]


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    *,
    singular_left: bool | None = None,
    singular_right: bool | None = None,
) -> float:
    """Integrate f over [a, b] to absolute error tol.

    Endpoint singularities of integrable 1/sqrt type are detected
    automatically (or forced via the keyword flags) and removed by the
    substitution y = a + u^2 (resp. y = b - u^2).

    Raises NoConvergence when the panel budget is exhausted and
    DivergentIntegral when an endpoint blowup is too strong to integrate.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    F = _ArrayFunc(f)
    span = b - a

    if singular_left is None or singular_right is None:
        interior = max(
            1.0,
            abs(F.probe(a + 0.25 * span)),
            abs(F.probe(a + 0.5 * span)),
            abs(F.probe(b - 0.25 * span)),
        )

        def looks_singular(value: float) -> bool:
            return (
                not np.isfinite(value)
                or abs(value) > _SINGULAR_MAGNITUDE
                or abs(value) > _SINGULAR_GROWTH * interior
            )

        if singular_left is None:
            singular_left = looks_singular(F.probe(a + _SINGULAR_OFFSET))
        if singular_right is None:
            singular_right = looks_singular(F.probe(b - _SINGULAR_OFFSET))

    if singular_left and singular_right:
        mid = 0.5 * (a + b)
        return _integrate_singular(F, a, 1.0, mid - a, 0.5 * tol) + \
            _integrate_singular(F, b, -1.0, b - mid, 0.5 * tol)
    if singular_left:
        return _integrate_singular(F, a, 1.0, span, tol)
    if singular_right:
        return _integrate_singular(F, b, -1.0, span, tol)
    return _adaptive_core(F, a, b, tol)[0]


def find_root_bracketed(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Root of f in [lo, hi] given a sign change.

    Bisection accelerated by secant steps; a secant step is taken only when
    it lands strictly inside the current bracket, and a plain bisection is
    forced whenever two consecutive steps fail to halve the bracket.  Stops
    when |f(x)| <= tol or the bracket width drops to tol.  Never evaluates f
    outside [lo, hi].
    """
    if hi < lo:
        raise ValueError("need lo <= hi")
    flo = float(f(lo))
    fhi = float(f(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise NoBracket(f"f({lo})={flo} and f({hi})={fhi} have equal signs")

    stalls = 0
    while hi - lo > tol:
        width = hi - lo
        x = None
        if stalls < 2 and fhi != flo:
            secant = hi - fhi * (hi - lo) / (fhi - flo)
            inset = 0.01 * width
            if lo + inset < secant < hi - inset:
                x = secant
        if x is None:
            x = 0.5 * (lo + hi)
            stalls = 0
        fx = float(f(x))
        if abs(fx) <= tol or fx == 0.0:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, flo):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        stalls = stalls + 1 if (hi - lo) > 0.5 * width else 0
    return 0.5 * (lo + hi)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Golden-section minimum of f on [lo, hi] to bracket width tol."""
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1 = float(f(x1))
    f2 = float(f(x2))
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = float(f(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = float(f(x2))
    return (x1, f1) if f1 <= f2 else (x2, f2)


def minimize_scalar(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float]:
    """Global-scan minimization on [a, b]: 1024-point scan, then golden
    section around the scan winner.  Returns (argmin, min); endpoints are
    always among the candidates.
    """
    if b < a:
        raise ValueError("need a <= b")
    if b == a:
        return a, float(f(a))
    F = _ArrayFunc(f)
    xs = np.linspace(a, b, 1024)
    ys = F(xs)
    i = int(np.nanargmin(ys))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, len(xs) - 1)]
    gx, gy = _golden_section(lambda x: float(F(np.asarray([x]))[0]), lo, hi, tol)
    best_x, best_y = gx, gy
    for cx, cy in ((float(xs[i]), float(ys[i])), (a, float(ys[0])), (b, float(ys[-1]))):
        if cy < best_y:
            best_x, best_y = cx, cy
    return best_x, best_y
