"""Shared numerical kernels.

Adaptive quadrature with integrable-endpoint handling, bracketed root
finding and scalar minimization by scan + golden section.  Tolerances are
absolute-error targets; every routine either meets its target, stops at the
rounding floor of its integrand, or raises.
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


def _panels(F: _ArrayFunc, bounds) -> list[tuple[float, float, float]]:
    """(value, error estimate, rounding floor) of the paired Gauss rules on
    each (lo, hi).  F returns its values, or the pair (values, rounding
    uncertainty of the values); the floor is the fine rule applied to that
    uncertainty, or 0 without one."""
    x = np.concatenate([0.5 * (hi + lo) + 0.5 * (hi - lo) * _GAUSS_NODES
                        for lo, hi in bounds])
    vals = F(x)
    vals, unc = vals if isinstance(vals, tuple) else (vals, np.zeros_like(vals))
    out = []
    for i, (lo, hi) in enumerate(bounds):
        part = slice(i * _GAUSS_NODES.size, (i + 1) * _GAUSS_NODES.size)
        v, u = vals[part], unc[part]
        half = 0.5 * (hi - lo)
        coarse = half * float(np.dot(_GAUSS_LO[1], v[:_N_LO]))
        fine = half * float(np.dot(_GAUSS_HI[1], v[_N_LO:]))
        floor = half * float(np.dot(_GAUSS_HI[1], u[_N_LO:]))
        out.append((fine, abs(fine - coarse), floor))
    return out


def _adaptive_core(
    F: _ArrayFunc, a: float, b: float, tol: float
) -> tuple[float, np.ndarray]:
    """Globally adaptive bisection with a paired Gauss rule per panel.

    The panel with the worst error estimate is refined first, so sharp
    boundary layers cannot starve the error budget of the smooth remainder.
    A panel with a finite value is settled (no longer refined) at the
    rounding floor: when it is narrower than 1e-13 of the span, or, where F
    also returns the absolute rounding uncertainty of its values (see
    _panels), when its error estimate does not exceed the uncertainty of
    its own value, so that a split could only resolve noise.  Settled error
    cannot be refined away: refinement stops once the rest is within tol of
    it, or within half of tol.  Returns the integral and the accepted
    panels as rows (lo, hi, value) in increasing order.
    """
    span = b - a
    floor_width = 1e-13 * span
    (value, err, floor), = _panels(F, [(a, b)])
    heap = [(-err, a, b, value, floor)]
    # error still to refine: the sum of the finite estimates and the count of
    # the infinite ones, which a running sum would turn into inf - inf = nan
    pending_err, pending_inf = (err, 0) if math.isfinite(err) else (0.0, 1)
    settled = []
    settled_err = 0.0
    n_panels = 1
    while heap and (pending_inf or
                    pending_err > max(tol - settled_err, 0.5 * tol)):
        entry = heapq.heappop(heap)
        neg_err, lo, hi, val, floor = entry
        if math.isfinite(neg_err):
            pending_err += neg_err
        else:
            pending_inf -= 1
        if hi - lo < floor_width or (-neg_err <= floor and math.isfinite(val)):
            if not math.isfinite(val):
                raise DivergentIntegral(
                    f"integrand not resolvable near [{lo}, {hi}]"
                )
            settled.append(entry)
            settled_err -= neg_err
            continue
        mid = 0.5 * (lo + hi)
        halves = ((lo, mid), (mid, hi))
        for (sub_lo, sub_hi), (sub_val, sub_err, sub_floor) in zip(
                halves, _panels(F, halves)):
            if math.isfinite(sub_err):
                pending_err += sub_err
            else:
                sub_err = math.inf
                pending_inf += 1
            heapq.heappush(heap, (-sub_err, sub_lo, sub_hi, sub_val, sub_floor))
        n_panels += 2
        if n_panels > _MAX_PANELS:
            raise NoConvergence(
                f"quadrature on [{a}, {b}] exceeded {_MAX_PANELS} panels"
            )
    panels = np.array(settled + heap)[:, 1:4]
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


_Value = float | tuple[float, float]


def find_root_bracketed(
    f: Callable[[float], _Value], lo: float, hi: float, tol: float, *,
    xtol: float | None = None, f_lo: _Value | None = None,
    f_hi: _Value | None = None,
) -> float:
    """Root of f in [lo, hi] given a sign change.

    f may return the pair (f(x), f'(x)) instead of f(x).  Each step starts
    from the latest point: a Newton step where the slope is known, else the
    secant through the two latest points, each taken only when it lands
    strictly inside the current bracket; otherwise, and whenever two
    consecutive steps fail to halve |f|, the bracket is bisected.  Stops
    when |f(x)| <= tol or the bracket width drops to xtol (default tol).
    f_lo and f_hi are f at the ends when the caller has them already.
    Never evaluates f outside [lo, hi].
    """
    if hi < lo:
        raise ValueError("need lo <= hi")

    def at(x, known):
        value = f(x) if known is None else known
        if isinstance(value, tuple):
            return float(value[0]), float(value[1])
        return float(value), math.nan

    xtol = tol if xtol is None else xtol
    flo, dlo = at(lo, f_lo)
    fhi, dhi = at(hi, f_hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise NoBracket(f"f({lo})={flo} and f({hi})={fhi} have equal signs")

    # the two latest points (x1 the later, with its slope d1)
    x0, f0, x1, f1, d1 = lo, flo, hi, fhi, dhi
    if abs(flo) < abs(fhi):
        x0, f0, x1, f1, d1 = hi, fhi, lo, flo, dlo
    stalls = 0
    while hi - lo > xtol:
        x = math.nan
        if stalls < 2:
            if d1 != 0.0:
                x = x1 - f1 / d1
            if not lo < x < hi and f1 != f0:
                x = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            stalls = 0
        fx, dx = at(x, None)
        if abs(fx) <= tol or fx == 0.0:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, flo):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        stalls = stalls + 1 if abs(fx) > 0.5 * abs(f1) else 0
        x0, f0, x1, f1, d1 = x1, f1, x, fx, dx
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
