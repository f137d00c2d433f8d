"""Brute-force quadrature matrix elements between bound states.

This is the independent ground truth against which every closed form and
generator expansion in the package is checked: nothing here knows about
ladder coefficients, only about wavefunctions and Gauss-Legendre
quadrature.  One matrix is one quadrature: every bound state is evaluated
once on a shared grid of equal panels in s, where alpha x = sinh(s), over a
truncation window wide enough for every pair, and all pairs are integrated
in a single contraction.

Momentum convention: all matrices are real.  The derivative matrix R holds
<n'| d/dx |n>; the physical momentum matrix is -i hbar R and is never
stored in complex form.

Everything is a pure function of its inputs.  The result cache is a
bounded least-recently-used map guarded by a lock, and only ever receives
idempotent writes, so concurrent use from multiple threads is safe.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError
from .ladder import PHYSICAL_KIND, OperatorMatrix
from .specfun import gauss_legendre, integrate, log_gamma
from .states import (
    PotentialSpec,
    bound_state_labels,
    normalization_constant,
    wavefunction,
    wavefunction_derivative,
    well_numbers,
)

__all__ = [
    "Observable",
    "OracleConfig",
    "IDENTITY",
    "SINH_ALPHA_X",
    "COSH_DDX_OVER_ALPHA",
    "POSITION_X",
    "DDX",
    "POTENTIAL",
    "matrix_element",
    "observable_matrix",
    "derivative_matrix",
    "clear_cache",
]


@dataclass(frozen=True, eq=False)
class Observable:
    """A one-body observable: a weight function applied to psi or to d(psi)/dx.

    ``parity`` is +1/-1 for observables of definite parity (counting the
    derivative's parity flip), 0 if unknown; it drives the exact-zero
    pattern in :func:`observable_matrix`.  ``exp_growth`` counts
    exp(alpha |x|) factors in the weight's growth (1 for sinh and cosh,
    0 for anything at most cubic) and eats into the integrand's decay rate
    when the truncation window is sized.  Instances compare and hash by
    identity.  The result cache keys on the instance itself and so holds a
    reference to it until the entry is evicted: an entry stays with its
    observable and is never handed to a new one.
    """

    name: str
    weight: Callable[[np.ndarray, PotentialSpec], np.ndarray]
    acts_on_derivative: bool = False
    parity: int = 0
    exp_growth: int = 0

    @classmethod
    def custom(cls, f: Callable[[np.ndarray], np.ndarray], *,
               acts_on_derivative: bool = False, parity: int = 0,
               name: str = "custom") -> "Observable":
        """Wrap a plain weight f(x); growth stronger than cubic is unsupported."""
        return cls(name=name, weight=lambda x, spec: f(x),
                   acts_on_derivative=acts_on_derivative, parity=parity)


IDENTITY = Observable("identity", lambda x, spec: np.ones_like(x), parity=+1)
SINH_ALPHA_X = Observable("sinh_alpha_x",
                          lambda x, spec: np.sinh(spec.alpha * x), parity=-1,
                          exp_growth=1)
COSH_DDX_OVER_ALPHA = Observable("cosh_ddx_over_alpha",
                                 lambda x, spec: np.cosh(spec.alpha * x) / spec.alpha,
                                 acts_on_derivative=True, parity=-1, exp_growth=1)
POSITION_X = Observable("position_x", lambda x, spec: x, parity=-1)
DDX = Observable("ddx", lambda x, spec: np.ones_like(x),
                 acts_on_derivative=True, parity=-1)
POTENTIAL = Observable("potential",
                       lambda x, spec: -spec.D / np.cosh(spec.alpha * x) ** 2,
                       parity=+1)


@dataclass(frozen=True)
class OracleConfig:
    """Quadrature configuration: rule order, panel count, and tail control.

    The truncation half-width L satisfies
    exp(-(eps_n + eps_n') alpha L) (1 + (alpha L)^3) <= tail_tolerance
    (exponential state decay against at-most-cubic observable growth), with
    the target further tightened by the pair's tail amplitude (normalization
    constants and polynomial endpoint values) and by any exponential factor
    the observable itself contributes, so the abstract bound translates into
    an actual bound on the discarded integral.  L is capped at
    max_halfwidth.  ``panels`` equal panels of the ``rule_order`` rule
    cover [-L, L] in s, where alpha x = sinh(s).

    The defaults resolve every well up to q = 90: measured at q = 10, 20,
    ..., 90, the Gram matrix equals I to 2e-13 and the sinh and cosh-d/dx
    matrices match their closed forms to 1.5e-11.  At q = 95 and 99 the
    cosh-d/dx matrix is off by 6e-10 and 3e-9 and needs more panels.
    """

    rule_order: int = 24
    panels: int = 32
    tail_tolerance: float = 1e-14
    max_halfwidth: float = math.inf

    def __post_init__(self):
        if self.rule_order < 1 or self.panels < 1:
            raise DomainError("rule_order and panels must be positive")
        if not 0.0 < self.tail_tolerance < 1.0:
            raise DomainError("tail_tolerance must lie in (0, 1)")
        if not self.max_halfwidth > 0.0:
            raise DomainError("max_halfwidth must be positive")

    def halfwidth(self, spec: PotentialSpec, eps_sum: float, *,
                  exp_growth: int = 0, log_amplitude: float = 0.0) -> float:
        """Truncation half-width for a pair of states with decay-rate sum eps_sum."""
        decay = eps_sum - exp_growth
        if decay <= 0.0:
            raise DomainError(
                "integrand does not decay: observable growth cancels the state decay")
        log_tol = math.log(self.tail_tolerance) - max(log_amplitude, 0.0)

        def excess(t: float) -> float:
            return -decay * t + math.log1p(t ** 3) - log_tol

        hi = 1.0
        while excess(hi) > 0.0:
            hi *= 2.0
            if hi > 1e6:
                break
        lo = 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if excess(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return min(hi / spec.alpha, self.max_halfwidth)


# Far above the handful of (spec, obs, cfg) keys one verify run reuses;
# the bound keeps custom observables from piling up in a long-lived process.
_CACHE_SIZE = 64
_cache: OrderedDict = OrderedDict()
_cache_lock = threading.Lock()


def clear_cache() -> None:
    """Drop all cached oracle matrices (results are unaffected, only timing)."""
    with _cache_lock:
        _cache.clear()


def _log_tail_amplitude(spec: PotentialSpec, nu: float, q: float, n: int) -> float:
    """log of the prefactor bounding |psi_n| <= A exp(-eps alpha |x|).

    Uses sech(y) <= 2 exp(-|y|) and the Gegenbauer endpoint maximum
    C_n^lam(1) = Gamma(nu - n) / (Gamma(n + 1) Gamma(nu - 2n)).
    """
    eps = q - n
    log_c1 = log_gamma(nu - n) - log_gamma(n + 1.0) - log_gamma(nu - 2.0 * n)
    return math.log(normalization_constant(q, n, spec.alpha)) + eps * math.log(2.0) + log_c1


def _halfwidth(spec: PotentialSpec, obs: Observable, cfg: OracleConfig,
               pairs: list[tuple[int, int]]) -> float:
    """The widest of the per-pair truncation half-widths over ``pairs``.

    A pair's decay rate depends on n' + n alone and its half-width grows
    with its tail amplitude, so only the loudest pair of each sum is sized.
    """
    wn = well_numbers(spec)
    log_amp = {n: _log_tail_amplitude(spec, wn.nu, wn.q, n)
               for n in {m for pair in pairs for m in pair}}
    loudest: dict[int, float] = {}
    for n_prime, n in pairs:
        amp = log_amp[n_prime] + log_amp[n]
        loudest[n_prime + n] = max(loudest.get(n_prime + n, -math.inf), amp)
    # d/dx scales the tail by at most alpha * O(nu^2).
    extra = math.log(spec.alpha) + 2.0 * math.log(wn.nu) if obs.acts_on_derivative else 0.0
    return max(cfg.halfwidth(spec, 2.0 * wn.q - total, exp_growth=obs.exp_growth,
                             log_amplitude=amp + extra)
               for total, amp in loudest.items())


def _graded_quadrature(spec: PotentialSpec, bras: range, kets: range, obs: Observable,
                       cfg: OracleConfig, half: float) -> np.ndarray:
    """The block <n'| obs |n> for n' in ``bras``, n in ``kets``, on [-half, half].

    One grid serves every pair: ``cfg.panels`` equal panels of the
    ``cfg.rule_order`` Gauss-Legendre rule in s, with alpha x = sinh(s), are
    fine at the core, where the states oscillate, and wide in the smooth
    exponential tails.  Each level is evaluated once on the grid and the
    block is a single contraction.
    """
    rule = gauss_legendre(cfg.rule_order)
    edge = math.asinh(spec.alpha * half)

    def sample(evaluate, levels: range, x: np.ndarray) -> np.ndarray:
        out = np.empty((len(levels), x.size))
        for row, n in zip(out, levels):
            row[:] = evaluate(spec, n, x)
        return out

    def integrand(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.sinh(s) / spec.alpha
        psi = sample(wavefunction, bras, x)
        weight = obs.weight(x, spec) * np.cosh(s) / spec.alpha
        if not obs.acts_on_derivative and kets == bras:
            return psi * weight, psi
        ket = sample(wavefunction_derivative if obs.acts_on_derivative else wavefunction,
                     kets, x)
        psi *= weight
        return psi, ket

    try:
        return integrate(integrand, -edge, edge, rule, cfg.panels)
    except EvaluationError as err:
        if err.abscissa is None:
            raise
        where = math.sinh(err.abscissa) / spec.alpha
        raise EvaluationError(f"integrand is non-finite at x = {where}",
                              abscissa=where) from err


def matrix_element(spec: PotentialSpec, n_prime: int, n: int, obs: Observable,
                   cfg: OracleConfig = OracleConfig()) -> float:
    """<n'| obs |n> by graded composite Gauss-Legendre quadrature on [-L, L].

    L is the pair's own truncation half-width.  Derivative-type observables
    use the analytic wavefunction derivative; no finite differences enter
    anywhere.
    """
    wn = well_numbers(spec)
    for m in (n_prime, n):
        if m < 0 or m != int(m) or m > wn.n_max:
            raise DomainError(f"n = {m} is not a bound state (n_max = {wn.n_max})")
    n_prime, n = int(n_prime), int(n)
    half = _halfwidth(spec, obs, cfg, [(n_prime, n)])
    block = _graded_quadrature(spec, range(n_prime, n_prime + 1), range(n, n + 1),
                               obs, cfg, half)
    return float(block[0, 0])


def observable_matrix(spec: PotentialSpec, obs: Observable,
                      cfg: OracleConfig = OracleConfig()) -> OperatorMatrix:
    """All bound-pair matrix elements of an observable, as a physical-kind matrix.

    The whole matrix is one quadrature on one grid, whose half-width is the
    widest per-pair window over the parity-allowed pairs.  Pairs whose
    parity forbids a nonzero element are written as exact zeros, so the
    characteristic zero patterns are noise-free.  Results are cached per
    (spec, obs, cfg); the least recently used of more than 64 entries is
    dropped.
    """
    key = (spec, obs, cfg)
    with _cache_lock:
        hit = _cache.get(key)
        if hit is not None:
            _cache.move_to_end(key)
            return hit
    wn = well_numbers(spec)
    if not wn.q_is_integer or round(wn.q) < 2:
        raise DomainError("observable_matrix requires an integer well parameter q >= 2")
    levels = range(wn.n_max + 1)
    allowed = [(n_prime, n) for n_prime in levels for n in levels
               if obs.parity in (0, (-1) ** (n_prime + n))]
    m = _graded_quadrature(spec, levels, levels, obs, cfg,
                           _halfwidth(spec, obs, cfg, allowed))
    if obs.parity != 0:
        m[(-1) ** np.add.outer(levels, levels) != obs.parity] = 0.0
    result = OperatorMatrix(m, bound_state_labels(spec), PHYSICAL_KIND)
    with _cache_lock:
        _cache[key] = result
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_SIZE:
            _cache.popitem(last=False)
    return result


def derivative_matrix(spec: PotentialSpec,
                      cfg: OracleConfig = OracleConfig()) -> OperatorMatrix:
    """The real matrix R with R[n', n] = <n'| d/dx |n> (momentum = -i hbar R).

    Antisymmetric up to quadrature error, since d/dx is anti-self-adjoint
    between normalizable states.
    """
    return observable_matrix(spec, DDX, cfg)
