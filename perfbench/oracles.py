"""Reference values computed without annuharm.

Closed forms where the paper or calculus gives one, and scipy quadrature of
a cancellation-free integrand everywhere else.  Every metric the benchmark
draws has y^2 rho(y) monotone or unimodal with a maximum on [q, Q], so the
critical radius y* is one of the two endpoints.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

METRICS = ("euclidean", "inverse_r", "sphere", "hyperbolic", "power:-3",
           "power:-2", "power:-1.5", "power:1", "power:2", "power:4")


def _power_exponent(name: str) -> float | None:
    if name == "euclidean":
        return 0.0
    if name == "inverse_r":
        return -1.0
    if name.startswith("power:"):
        return float(name.split(":", 1)[1])
    return None


def rho(name: str, y: float) -> float:
    a = _power_exponent(name)
    if a is not None:
        return y ** a
    if name == "sphere":
        return 1.0 / (1.0 + y * y) ** 2
    if name == "hyperbolic":
        return 1.0 / (1.0 - y * y) ** 2
    raise ValueError(name)


def weight(name: str, y: float) -> float:
    """y^2 rho(y); the critical constant is minus its minimum on [q, Q]."""
    return y * y * rho(name, y)


def weight_slope(name: str, y: float, y0: float) -> float:
    """(w(y) - w(y0)) / (y - y0) without cancellation."""
    a = _power_exponent(name)
    if a is not None:
        k = 2.0 + a
        t = (y - y0) / y0
        return y0 ** (k - 1.0) * math.expm1(k * math.log1p(t)) / t
    # w = f^2 with f = y/(1 + y^2) (sphere) or y/(1 - y^2) (hyperbolic)
    sign = 1.0 if name == "sphere" else -1.0
    f = y / (1.0 + sign * y * y)
    f0 = y0 / (1.0 + sign * y0 * y0)
    df = (1.0 - sign * y * y0) / ((1.0 + sign * y * y) * (1.0 + sign * y0 * y0))
    return df * (f + f0)


def critical(name: str, q: float, Q: float) -> tuple[float, float]:
    """(y*, c_crit) with c_crit = -min_{[q, Q]} y^2 rho(y)."""
    y_star = q if weight(name, q) <= weight(name, Q) else Q
    return y_star, -weight(name, y_star)


def modulus(name: str, q: float, Q: float, c: float) -> float:
    """mu(c) = int_q^Q dy / sqrt(y^2 + c/rho(y)); inf where it diverges."""
    if name == "euclidean":
        return math.log((Q + math.sqrt(Q * Q + c))
                        / (q + math.sqrt(max(q * q + c, 0.0))))
    if name == "power:-2":
        return math.log(Q / q) / math.sqrt(1.0 + c) if c > -1.0 else math.inf
    if name == "inverse_r":
        # antiderivative of 1/sqrt(y (y + c)) is 2 log(sqrt(y) + sqrt(y + c))
        return 2.0 * (math.log(math.sqrt(Q) + math.sqrt(Q + c))
                      - math.log(math.sqrt(q) + math.sqrt(max(q + c, 0.0))))
    y_star, c_crit = critical(name, q, Q)
    gap = c - c_crit
    side = 1.0 if y_star == q else -1.0
    # y = y* + side u^2 turns the integrand 1/sqrt((w - w*)/rho + gap/rho)
    # into 2 u sqrt(rho) / sqrt(u^2 |w'| + gap), smooth through u = 0
    def integrand(u):
        y = y_star + side * u * u
        slope = abs(weight_slope(name, y, y_star))
        return 2.0 * u * math.sqrt(rho(name, y)) / math.sqrt(u * u * slope + gap)

    value, _ = quad(integrand, 0.0, math.sqrt(Q - q), epsabs=1e-13,
                    epsrel=1e-12, limit=400)
    return value


def critical_radius(name: str, q: float, Q: float) -> float:
    """exp(-mu(c_crit)); 0 where the critical modulus diverges."""
    if name == "power:-2":
        return 0.0
    _, c_crit = critical(name, q, Q)
    return math.exp(-modulus(name, q, Q, c_crit))


def area(name: str, q: float, Q: float) -> float:
    """Metric area 2 pi int_q^Q rho(y) y dy."""
    value, _ = quad(lambda y: rho(name, y) * y, q, Q, epsabs=0.0,
                    epsrel=1e-13, limit=200)
    return 2.0 * math.pi * value


def nitsche_energy(r: float) -> float:
    """Energy of the closed-form critical Euclidean map of A(r, 1) onto
    A(2r/(1 + r^2), 1)."""
    return 2.0 * math.pi * (1.0 - r * r) / (1.0 + r * r)


def nitsche_radius(q: float, Q: float) -> float:
    """Domain radius r with 2r/(1 + r^2) = q/Q (the Euclidean critical r)."""
    k = q / Q
    return k / (1.0 + math.sqrt(1.0 - k * k))
