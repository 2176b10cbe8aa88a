"""Shared numerical kernels.

Adaptive Gauss quadrature on a finite interval, bracketed root finding and
scalar minimization by a scan and zoom scans.  Integrands and scanned
functions are called on numpy arrays only.  Every routine either meets its
tolerance, stops at the rounding floor of its integrand, or raises.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np

from .errors import DivergentIntegral, NoBracket, NoConvergence

__all__ = [
    "find_root_bracketed",
    "minimize_scalar",
]

_EPS = np.finfo(float).eps

_GAUSS_LO = np.polynomial.legendre.leggauss(7)
_GAUSS_HI = np.polynomial.legendre.leggauss(15)

_MAX_PANELS = 1_000_000
# the points of minimize_scalar's scan and of each of its zoom scans
_SCAN_POINTS = 1024

# both rules' nodes: the integrand's call overhead dominates small panels,
# so all nodes of the panels being scored go through one call
_GAUSS_NODES = np.concatenate((_GAUSS_LO[0], _GAUSS_HI[0]))
_N_LO = _GAUSS_LO[0].size


def _panels(F: Callable, bounds) -> list[tuple[float, float, float]]:
    """(value, error estimate, rounding floor) of the paired Gauss rules on
    each (lo, hi).  F returns its values, or the pair (values, rounding
    uncertainty of the values); the floor is the fine rule applied to that
    uncertainty, or 0 without one."""
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, :1], bounds[:, 1:]
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo) + half * _GAUSS_NODES
    vals = F(x.ravel())
    vals, unc = vals if isinstance(vals, tuple) else (vals, None)
    vals = vals.reshape(x.shape)
    unc = [None] * len(x) if unc is None else unc.reshape(x.shape)
    out = []
    # a dot product per panel: a matrix product rounds a row by its place
    # in the batch
    for h, v, u in zip(half[:, 0].tolist(), vals, unc):
        coarse = h * float(np.dot(_GAUSS_LO[1], v[:_N_LO]))
        fine = h * float(np.dot(_GAUSS_HI[1], v[_N_LO:]))
        floor = 0.0 if u is None else h * float(np.dot(_GAUSS_HI[1], u[_N_LO:]))
        out.append((fine, abs(fine - coarse), floor))
    return out


def _adaptive_core(
    F: Callable, a: float, b: float, tol: float, edges=None, relative=False
) -> tuple[float, np.ndarray]:
    """Globally adaptive bisection with a paired Gauss rule per panel.

    Refinement starts from the panels between consecutive ``edges`` (an
    increasing sequence from a to b, by default just the two), all scored
    in one call of F: a caller that knows where F varies fast seeds them
    there.  The panel with the worst error estimate is refined first, so
    sharp boundary layers cannot starve the error budget of the smooth
    remainder.  A panel with a finite value is settled (no longer refined)
    at the rounding floor: when it is narrower than 1e-13 of the span, or,
    where F also returns the absolute rounding uncertainty of its values
    (see _panels), when its error estimate does not exceed the uncertainty
    of its own value, so that a split could only resolve noise.  Settled
    error cannot be refined away: refinement stops once the rest is within
    tol of it, or within half of tol.  With ``relative`` tol is relative to
    the magnitude of the first pass, the fine rule summed over the initial
    panels.  Returns the integral and the accepted panels as rows (lo, hi,
    value) in increasing order.
    """
    span = b - a
    floor_width = 1e-13 * span
    heap = []
    # error still to refine: the sum of the finite estimates and the count of
    # the infinite ones, which a running sum would turn into inf - inf = nan
    pending_err, pending_inf = 0.0, 0

    def push(bounds):
        nonlocal pending_err, pending_inf
        for (lo, hi), (val, err, floor) in zip(bounds, _panels(F, bounds)):
            if math.isfinite(err):
                pending_err += err
            else:
                err = math.inf
                pending_inf += 1
            heapq.heappush(heap, (-err, lo, hi, val, floor))

    edges = (a, b) if edges is None else edges
    push(list(zip(edges[:-1], edges[1:])))
    if relative:
        tol *= abs(math.fsum(entry[3] for entry in heap))
    settled = []
    settled_err = 0.0
    n_panels = len(heap)
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
        push(((lo, mid), (mid, hi)))
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


_STEPS = np.arange(_SCAN_POINTS, dtype=float)


def _grid(a: float, b: float) -> np.ndarray:
    """np.linspace(a, b, _SCAN_POINTS), by linspace's own arithmetic (a + k
    (b - a)/(n - 1), then b as the last point) without its per-call cost."""
    xs = _STEPS * ((b - a) / (_SCAN_POINTS - 1)) + a
    xs[-1] = b
    return xs


def _scan(f: Callable, xs: np.ndarray) -> np.ndarray:
    """f at the points xs, one value per point."""
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(f"f returned shape {ys.shape} on {xs.size} points; "
                         f"it must take an array and return one value per point")
    return ys


def minimize_scalar(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, tol: float
) -> tuple[float, float]:
    """Global-scan minimization on [a, b]: a 1024-point scan, then 1024-point
    zoom scans across the latest winner's neighbours until their grid step
    is at most tol (a 1e-13 step on a unit interval takes four zooms).  f
    is called on arrays and must return one value per point (else
    ValueError).  Returns (argmin, min) of the last scan; an endpoint stays
    on every scan that zooms in on it.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or b < a:
        raise ValueError(f"need finite a <= b, got [{a}, {b}]")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    xs = _grid(a, b)
    ys = _scan(f, xs)
    k = _winner(ys)
    while xs[1] - xs[0] > tol:
        # across the winner's neighbours: the step shrinks >= 511-fold
        xs = _grid(xs[max(k - 1, 0)], xs[min(k + 1, xs.size - 1)])
        ys = _scan(f, xs)
        k = _winner(ys)
    return float(xs[k]), float(ys[k])
