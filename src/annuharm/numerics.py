"""Shared numerical kernels.

Adaptive quadrature with integrable-endpoint handling, bracketed root
finding and scalar minimization by a scan and zoom scans.  Tolerances are
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


_GAUSS_LO = np.polynomial.legendre.leggauss(7)
_GAUSS_HI = np.polynomial.legendre.leggauss(15)

_MAX_PANELS = 1_000_000
_SINGULAR_OFFSET = 1e-12


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


def _divergence_guard(g: Callable, endpoint: float, inward: float) -> None:
    """Reject endpoint singularities stronger than an integrable 1/sqrt.

    g is the integrand after the substitution y = endpoint + inward u^2,
    such as g(u) = 2 u f(endpoint + inward u^2), and is checked at inward
    u for an offset u just off the endpoint.  The offset is widened only as
    far as floating-point representability of endpoint + u^2 requires,
    keeping the acceptance threshold scale-equivalent to |g(1e-12)| <= 1e12.
    """
    u = max(_SINGULAR_OFFSET, math.sqrt(100.0 * _EPS * max(abs(endpoint), 1.0)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = float(g(np.array([inward * u]))[0])
    if not abs(value) <= 1.0 / u:
        raise DivergentIntegral(
            f"endpoint singularity at {endpoint} is not integrable"
        )


def _integrate_singular(F: _ArrayFunc, endpoint: float, inward: float,
                        span: float, tol: float) -> float:
    """Integral over the span next to an endpoint, by y = endpoint +/- u^2
    (inward = +1 for the left end, -1 for the right one)."""
    transformed = _ArrayFunc(lambda u: 2.0 * u * F(endpoint + inward * u * u))
    _divergence_guard(transformed, endpoint, 1.0)
    return _adaptive_core(transformed, 0.0, math.sqrt(span), tol)[0]


def integrate_adaptive(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> float:
    """Integrate f over [a, b] to absolute error tol.

    Each half of [a, b] is integrated after the substitution y = a + u^2
    (resp. y = b - u^2), which is smooth for a smooth f and removes an
    integrable 1/sqrt singularity at either endpoint.

    Raises NoConvergence when the panel budget is exhausted and
    DivergentIntegral when an endpoint blowup is too strong to integrate.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    F = _ArrayFunc(f)
    mid = 0.5 * (a + b)
    return _integrate_singular(F, a, 1.0, mid - a, 0.5 * tol) + \
        _integrate_singular(F, b, -1.0, b - mid, 0.5 * tol)


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


def _winner(y: np.ndarray) -> int:
    """nanargmin y; argmin is several times faster and lands on a nan only
    when y has one."""
    k = int(np.argmin(y))
    return int(np.nanargmin(y)) if math.isnan(y[k]) else k


def minimize_scalar(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float]:
    """Global-scan minimization on [a, b]: a 1024-point scan, then 33-point
    zoom scans around the latest winner until their grid step is at most
    tol.  Returns (argmin, min) of the last scan; an endpoint stays on every
    scan that zooms in on it.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or b < a:
        raise ValueError(f"need finite a <= b, got [{a}, {b}]")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if b == a:
        return a, float(f(a))
    F = _ArrayFunc(f)
    xs = np.linspace(a, b, 1024)
    ys = F(xs)
    k = _winner(ys)
    while xs[1] - xs[0] > tol:
        # 33 points across the winner's neighbours: the step shrinks >= 16-fold
        xs = np.linspace(xs[max(k - 1, 0)], xs[min(k + 1, xs.size - 1)], 33)
        ys = F(xs)
        k = _winner(ys)
    return float(xs[k]), float(ys[k])
