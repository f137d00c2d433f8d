"""Special functions and quadrature primitives.

Everything here is pure and deterministic: log-gamma, and the log of
Gamma(x + 1/2) / Gamma(x), by a Stirling series with upward shift,
Gauss-Legendre rules by Newton iteration on the Legendre polynomial, and a
composite fixed-panel integrator built on those rules.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError

__all__ = [
    "QuadratureRule",
    "log_gamma",
    "gauss_legendre",
    "integrate",
]


class QuadratureRule(namedtuple("QuadratureRule", "nodes weights order")):
    """Gauss-Legendre nodes/weights on the reference interval (-1, 1).

    Nodes are strictly increasing and symmetric about 0; weights are
    positive and sum to 2 (the Legendre normalization).
    """

    __slots__ = ()

    def __new__(cls, nodes: tuple[float, ...], weights: tuple[float, ...], order: int):
        if order < 1 or len(nodes) != order:
            raise DomainError("quadrature order must be a positive integer")
        x = np.asarray(nodes)
        w = np.asarray(weights)
        if np.any(w <= 0):
            raise DomainError("quadrature weights must be positive")
        if abs(w.sum() - 2.0) > 1e-13:
            raise DomainError("quadrature weights must sum to 2")
        if np.any(np.diff(x) <= 0) or np.max(np.abs(x + x[::-1])) > 1e-13:
            raise DomainError("nodes must be increasing and symmetric about 0")
        return super().__new__(cls, nodes, weights, order)


# Stirling-series coefficients B_{2k} / (2k (2k-1)) for k = 1..8.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Arguments below this are shifted upward before applying the asymptotic series.
_STIRLING_CUTOFF = 12.0

_DEKKER_SPLIT = 134217729.0  # 2**27 + 1


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """Knuth two-sum: s + e == a + b exactly, s = fl(a + b)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """Dekker two-product: p + e == a * b exactly, p = fl(a * b)."""
    p = a * b
    a1 = a * _DEKKER_SPLIT
    ah = a1 - (a1 - a)
    al = a - ah
    b1 = b * _DEKKER_SPLIT
    bh = b1 - (b1 - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _stirling_series(x: float) -> float:
    """The Bernoulli terms sum B_{2k} / (2k (2k-1) x^(2k-1)) of ln Gamma(x), x >= 12."""
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = 1.0 / x
    for c in _STIRLING:
        series += c * power
        power *= inv2
    return series


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Stirling's asymptotic series with Bernoulli corrections for large
    arguments; smaller arguments are shifted up through the recurrence
    Gamma(x+1) = x Gamma(x).  The dominant (x - 1/2) ln x - x terms are
    evaluated with error-compensated arithmetic so the absolute error stays
    below 1e-13 over (0, 200] even where ln Gamma approaches 900.
    """
    if not x > 0.0:
        raise DomainError(f"log_gamma requires a positive argument, got {x}")
    shift = 0.0
    while x < _STIRLING_CUTOFF:
        shift += math.log(x)
        x += 1.0
    series = _stirling_series(x)
    log_x = math.log(x)
    # Residual of the rounded logarithm, to first order; the (x - 1/2) factor
    # amplifies it above 1e-13 for x ~ 200 if ignored.
    log_x_lo = (x - math.exp(log_x)) / x
    prod, prod_err = _two_prod(x - 0.5, log_x)
    s, s_err = _two_sum(prod, -x)
    s, c_err = _two_sum(s, _HALF_LOG_TWO_PI)
    tail = prod_err + s_err + c_err + (x - 0.5) * log_x_lo + series - shift
    return s + tail


def _log_half_gamma_ratio(x: float) -> float:
    """ln(Gamma(x + 1/2) / Gamma(x)) for x > 0, to a few ulp.

    Stirling's large terms cancel in closed form, to ln x / 2 + (x log1p(1 / 2x) - 1/2);
    the difference of two ``log_gamma`` values keeps their errors (2.6e-12 at x = 1000).
    """
    shift = 0.0
    while x < _STIRLING_CUTOFF:
        shift -= math.log1p(0.5 / x)
        x += 1.0
    return (0.5 * math.log(x) + (x * math.log1p(0.5 / x) - 0.5)
            + (_stirling_series(x + 0.5) - _stirling_series(x)) + shift)


def _legendre_and_derivative(order: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate P_order and P'_order at interior points |x| < 1."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, order + 1):
        p_prev, p = p, ((2.0 * k - 1.0) * x * p - (k - 1.0) * p_prev) / k
    dp = order * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule of the given order on (-1, 1).

    Nodes are found by Newton iteration from the Chebyshev-like initial
    guesses, polished until the update falls below 1e-15, then mirrored so
    the rule is exactly symmetric.  The rules of the last 32 orders asked
    for are kept, so each is solved once; a rule holds tuples, so a kept
    one cannot be changed.
    """
    if order < 1 or order != int(order):
        raise DomainError(f"quadrature order must be a positive integer, got {order}")
    return _newton_rule(int(order))


@functools.lru_cache(maxsize=32)
def _newton_rule(order: int) -> QuadratureRule:
    k = np.arange(1, order + 1)
    x = np.cos(math.pi * (k - 0.25) / (order + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(order, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    # Mirror halves: enforces exact symmetry and pins the odd-order center at 0.
    x = 0.5 * (x - x[::-1])
    p, dp = _legendre_and_derivative(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    w = 0.5 * (w + w[::-1])
    idx = np.argsort(x)
    return QuadratureRule(tuple(x[idx]), tuple(w[idx]), order)


def integrate(
    f: Callable[[np.ndarray], np.ndarray | tuple[np.ndarray, np.ndarray]],
    a: float,
    b: float,
    rule: QuadratureRule,
    panels: int = 1,
) -> float | np.ndarray:
    """Composite Gauss-Legendre estimate of the integral of f over [a, b].

    The interval is split into ``panels`` equal subintervals and the rule
    applied on each; node placement is fully deterministic, so results are
    bit-reproducible for a fixed configuration.  ``f`` is called once on the
    full array of abscissae.  If it returns one array, that array must
    evaluate elementwise and the result is a float.  If it returns a pair
    (bra, ket) whose last axes run over the abscissae, the result is the
    array of all integrals of bra[..., i] * ket[..., j], i.e.
    (bra * w) @ ket^T for two-dimensional factors; the product of the two
    factors is never formed.
    """
    if not a < b:
        raise DomainError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
    if panels < 1 or panels != int(panels):
        raise DomainError(f"panel count must be a positive integer, got {panels}")
    h = (b - a) / panels
    ref = np.asarray(rule.nodes)
    # Midpoints plus scaled nodes: rounding ref + 1 moved the nodes near b by an ulp.
    offsets = (a + h * (np.arange(panels)[:, None] + 0.5)) + 0.5 * h * ref[None, :]
    x = offsets.ravel()
    y = f(x)
    pair = isinstance(y, tuple)
    factors = [np.asarray(v, dtype=float) for v in (y if pair else (y,))]
    for v in factors:
        if (v.shape[-1:] if pair else v.shape) != x.shape:
            raise EvaluationError("integrand did not evaluate on the node array")
        bad = ~np.isfinite(v)
        if np.any(bad):
            where = float(x[np.nonzero(bad)[-1][0]])
            raise EvaluationError(f"integrand is non-finite at x = {where}", abscissa=where)
    w = np.tile(np.asarray(rule.weights) * (0.5 * h), panels)
    if not pair:
        return float(w @ factors[0])
    bra, ket = factors
    return np.tensordot(bra * w, ket, axes=(-1, -1))
