"""Bound states of the modified Poschl-Teller well V(x) = -D / cosh^2(alpha x).

Exposes the well parameters, the derived quantum numbers, the discrete
energies, normalized wavefunctions with their analytic derivatives, and
``OperatorMatrix``, the matrix over these levels (or their pairs) that every
matrix builder returns.
Energies and wavefunctions accept any well with at least one bound state;
the su(2) machinery needs an integer well-depth parameter q (odd nu = 2q + 1)
of at least its computation's ``MIN_Q`` entry, which :func:`integer_q` checks.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import DomainError, EvaluationError
from .specfun import _log_half_gamma_ratio, log_gamma

__all__ = [
    "PotentialSpec",
    "WellNumbers",
    "StateLabel",
    "OperatorMatrix",
    "well_numbers",
    "depth_for_integer_q",
    "energy",
    "normalization_constant",
    "wavefunction",
    "wavefunction_derivative",
    "bound_state_labels",
    "MIN_Q",
    "integer_q",
]

# q within this distance of an integer is treated as exactly integer when
# counting bound states (the zero-energy state is never normalizable).
INTEGER_Q_TOL = 1e-9
# From this q on (2^23 for 1e-9) adjacent floats lie more than INTEGER_Q_TOL
# apart, so "q is an integer" cannot be tested and n_max means nothing.
MAX_Q = 2.0 ** (math.floor(math.log2(INTEGER_Q_TOL)) + 53)

# The smallest integer q each computation accepts: the closed forms need
# nu = 2q + 1 >= 5, and the x and p series an interior level, nu >= 7.
MIN_Q = {"the quadrature oracle": 2, "the closed-form matrix": 2, "the series expansion": 3,
         "the algebra suite": 1, "the ladder action": 1, "the algebraic Hamiltonian": 1,
         "the physical boson pair": 3, "the su2 model": 1, "the crude model": 2,
         "the exact coupling": 2, "the exact model": 3, "the zA-zB model": 3,
         "the model comparison": 3}


def _check_finite_positive(**fields: float) -> None:
    for name, value in fields.items():
        if not math.isfinite(value):
            raise DomainError(f"PotentialSpec.{name} must be finite, got {value}")
        if not value > 0.0:
            raise DomainError(f"PotentialSpec.{name} must be strictly positive")


class PotentialSpec(namedtuple("PotentialSpec", "D alpha mu hbar", defaults=(1.0, 1.0))):
    """Physical parameters of one well: depth D, range alpha, mass mu, hbar.

    Each must be finite and strictly positive; D is checked last, so an
    error names the parameter given rather than a depth derived from it.
    """

    __slots__ = ()

    def __new__(cls, D: float, alpha: float, mu: float = 1.0, hbar: float = 1.0):
        _check_finite_positive(alpha=alpha, mu=mu, hbar=hbar, D=D)
        return super().__new__(cls, D, alpha, mu, hbar)

    @classmethod
    def for_integer_q(cls, q: int, alpha: float = 1.0, mu: float = 1.0,
                      hbar: float = 1.0) -> "PotentialSpec":
        """Dimensionless preset: the depth that makes the well parameter exactly q."""
        _check_finite_positive(alpha=alpha, mu=mu, hbar=hbar)  # before D divides by mu
        return cls(D=depth_for_integer_q(q, alpha, mu, hbar), alpha=alpha, mu=mu, hbar=hbar)


class WellNumbers(NamedTuple):
    """Derived quantum numbers of a well: k, q, nu = 2q + 1 and the top level n_max."""

    k: float
    q: float
    nu: float
    n_max: int

    @property
    def q_is_integer(self) -> bool:
        return abs(self.q - round(self.q)) <= INTEGER_Q_TOL


class StateLabel(NamedTuple):
    """Quantum numbers of one bound level.

    epsilon = q - n sets the decay rate exp(-epsilon * alpha * |x|); j and m
    are the angular-momentum-style labels of the su(2) classification, with
    2 epsilon = nu - 2n - 1 and m = n - j.
    """

    nu: float
    n: int
    epsilon: float
    j: float
    m: float

    @classmethod
    def from_nu_n(cls, nu: float, n: int) -> "StateLabel":
        j = (nu - 1.0) / 2.0
        return cls(nu=nu, n=n, epsilon=(nu - 2.0 * n - 1.0) / 2.0, j=j, m=n - j)


FULL_KIND = "full-spin-j"
PHYSICAL_KIND = "physical"
TWO_OSC_KIND = "two-oscillator"


class OperatorMatrix(namedtuple("OperatorMatrix", "entries basis kind")):
    """A real dense matrix over an ordered basis, immutable after construction.

    ``kind`` records the space: the full spin-j multiplet (dim nu), the
    physical bound-state branch (dim (nu - 1)/2), or a two-oscillator
    product space.  ``basis`` lists StateLabel values ascending in n for the
    single-well kinds, or (n1, n2) pairs for the product kind.

    ``entries`` is copied into a read-only float64 array, unless it already
    is a read-only float64 ndarray that owns its data: such an array is
    adopted as is, so a builder that freezes its new matrix hands it over
    without a second d x d copy.
    """

    __slots__ = ()

    def __new__(cls, entries: np.ndarray, basis: tuple, kind: str):
        m = entries
        if not (type(m) is np.ndarray and m.dtype == np.float64
                and m.flags.owndata and not m.flags.writeable):
            m = np.array(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("operator matrix must be square")
        if len(basis) != m.shape[0]:
            raise DomainError("basis length must match matrix dimension")
        if basis and isinstance(basis[0], StateLabel):
            nu = basis[0].nu
            if kind == FULL_KIND and m.shape[0] != int(round(nu)):
                raise DomainError("full spin-j matrices must have dimension nu")
            if kind == PHYSICAL_KIND and m.shape[0] != (int(round(nu)) - 1) // 2:
                raise DomainError(
                    "physical matrices must cover the (nu - 1)/2 bound states")
        m.setflags(write=False)
        return super().__new__(cls, m, basis, kind)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _too_deep(q: float) -> DomainError:
    return DomainError(f"the well is too deep: q = {q} is not below {MAX_Q:.0f}, past "
                       f"which q cannot be told from an integer within {INTEGER_Q_TOL:g}")


def well_numbers(spec: PotentialSpec) -> WellNumbers:
    """Solve the depth relation q(q + 1) = 2 mu D / (alpha hbar)^2 for the well numbers.

    For integer q (within INTEGER_Q_TOL) the zero-energy level is excluded and
    n_max = q - 1, so a well with q = 0 has no level (n_max = -1); otherwise
    every level with epsilon = q - n > 0 is bound, i.e. n_max = ceil(q) - 1.
    Wells with q >= MAX_Q, whose (alpha hbar)^2 is past the float range, or
    whose alpha^2 is not a normal float, are rejected.
    """
    try:
        scale = (spec.alpha * spec.hbar) ** 2
    except OverflowError:  # alpha hbar is finite, its square is not
        scale = math.inf
    if scale == math.inf:
        raise DomainError(f"(alpha hbar)^2 is past the float range for alpha = {spec.alpha} "
                          f"and hbar = {spec.hbar}")
    ratio = 2.0 * spec.mu * spec.D / scale if scale > 0.0 else math.inf
    if not math.isfinite(ratio):
        raise DomainError(f"the well is too deep: 2 mu D / (alpha hbar)^2 = {ratio} "
                          "is not finite")
    k = math.sqrt(0.25 + ratio)
    q = (-1.0 + 2.0 * k) / 2.0
    if q >= MAX_Q:
        raise _too_deep(q)
    if not sys.float_info.min <= spec.alpha * spec.alpha < math.inf:
        raise DomainError(f"alpha^2 is outside the normal float range for alpha = {spec.alpha}")
    q_round = round(q)
    if abs(q - q_round) <= INTEGER_Q_TOL:
        n_max = q_round - 1
    else:
        n_max = math.ceil(q) - 1
    return WellNumbers(k=k, q=q, nu=2.0 * k, n_max=n_max)


def integer_q(spec: PotentialSpec, subject: str) -> int:
    """The well's q, once it is an integer of at least ``MIN_Q[subject]``."""
    wn = well_numbers(spec)
    minimum = MIN_Q.get(subject)
    if minimum is None:
        raise DomainError(f"unknown computation {subject!r}")
    q = round(wn.q) if wn.q_is_integer else wn.q
    if not (wn.q_is_integer and q >= minimum):
        raise DomainError(f"{subject} requires q >= {minimum}, an integer; "
                          f"this well has q = {q}")
    return q


def depth_for_integer_q(q: int, alpha: float = 1.0, mu: float = 1.0,
                        hbar: float = 1.0) -> float:
    """Invert the depth relation: the D giving well parameter exactly q.

    DomainError if D is no positive finite float: q too deep, or a scale
    (alpha hbar)^2 / mu that underflows or overflows it.
    """
    if q < 1 or q != int(q):
        raise DomainError(f"integer well parameter q must be >= 1, got {q}")
    try:
        depth = q * (q + 1) * (alpha * hbar) ** 2 / (2.0 * mu)
    except OverflowError:  # q(q + 1) or (alpha hbar)^2 past the float range
        depth = math.inf
    if depth == math.inf and q >= MAX_Q:
        raise _too_deep(q)
    if not 0.0 < depth < math.inf:
        raise DomainError(f"the depth q(q + 1) (alpha hbar)^2 / (2 mu) = {depth} derived "
                          f"from q = {q}, alpha = {alpha}, mu = {mu} and hbar = {hbar} "
                          "is not a positive finite number")
    return depth


def _check_bound(spec: PotentialSpec, n) -> WellNumbers:
    """The well's numbers, once every level in ``n`` (an int or an array) is bound."""
    wn = well_numbers(spec)
    bad = [m for m in np.ravel(n).tolist() if not (0 <= m <= wn.n_max and m == math.floor(m))]
    if bad:
        raise DomainError(f"n = {n if np.ndim(n) == 0 else bad[0]} is not a bound state "
                          f"of this well (n_max = {wn.n_max})")
    return wn


def energy(spec: PotentialSpec, n: int) -> float:
    """Bound-state energy E_n = -(alpha hbar)^2 (q - n)^2 / (2 mu), negative and increasing in n."""
    wn = _check_bound(spec, n)
    eps = wn.q - n
    return -(spec.alpha * spec.hbar) ** 2 / (2.0 * spec.mu) * eps * eps


def normalization_constant(q: float, n: int, alpha: float) -> float:
    """Normalization factor of the n-th bound state of a q-well.

    The factorial ratio is evaluated in log space (x! = Gamma(x + 1)) so deep
    wells do not overflow.  Requires q - n > 0; at q = n the state sits on
    the dissociation edge and is not normalizable.  EvaluationError once the
    factor is below the normal float range (from n = 493 at q = 2000).
    """
    if n < 0 or n != int(n):
        raise DomainError(f"level index must be a non-negative integer, got {n}")
    if not q - n > 0.0:
        raise DomainError(
            f"state n = {n} lies at or beyond dissociation for q = {q}")
    log_n2 = (
        math.log(alpha)
        + log_gamma(n + 1.0)
        + log_gamma(q - n + 0.5)
        + log_gamma(2.0 * q - 2.0 * n + 1.0)
        - 0.5 * math.log(math.pi)
        - log_gamma(q - n)
        - log_gamma(2.0 * q - n + 1.0)
    )
    norm = math.exp(0.5 * log_n2)
    if norm < sys.float_info.min:
        raise EvaluationError(f"the norm of level n = {n} of a q = {q} well underflows")
    return norm


def _sinh_steps(q: float, top: int) -> np.ndarray:
    """S_(n,n+1) = <n + 1| sinh(alpha x) |n> for n < top and any real q.

    psi_n is N_n P_q^(n - q)(tanh(alpha x)), and the order recurrence of the Ferrers
    functions P_q^mu (DLMF 14.10.1) is the paper's ladder relation; S is symmetric.
    """
    n = np.arange(top, dtype=float)
    return 0.5 * np.sqrt((n + 1.0) * (2.0 * q - n) / ((q - n) * (q - n - 1.0)))


def _ladder(spec: PotentialSpec, x, top: int, derivative: bool = False):
    """Yield psi_n(x), or d(psi_n)/dx, for n = 0 .. top; no level depends on ``top``.

    With u = tanh(alpha x), psi_n = g_n sech^eps_n and the ladder relation reads
    S_(n,n+1) g_(n+1) = u g_n - S_(n,n-1) sech^2 g_(n-1), from g_0 = N_0.  g is held
    as a mantissa times 2^E, rescaled exactly at every 16th level once some g
    leaves [2^-400, 2^400] (a step grows g by at most 2 max(1, 1 / S_(0,1))
    < 2^13, and shrinks it by less), and leaves as g_n exp(eps_n log sech + E ln 2).
    """
    q, alpha = well_numbers(spec).q, spec.alpha
    u = np.tanh(alpha * np.asarray(x, dtype=float))
    log_sech = np.abs(alpha * np.asarray(x, dtype=float))
    log_sech = math.log(2.0) - log_sech - np.log1p(np.exp(-2.0 * log_sech))  # stable at any x
    sech2, steps, shift, exponent = np.exp(2.0 * log_sech), _sinh_steps(q, top), 0.0, 0
    # N_0^2 = alpha Gamma(q + 1/2) / (sqrt(pi) Gamma(q)), to a few ulp at any q.
    norm = math.sqrt(alpha) * math.exp(0.5 * _log_half_gamma_ratio(q) - 0.25 * math.log(math.pi))
    prev, cur = np.zeros_like(u), np.full_like(u, norm)
    for n in range(top + 1):
        lowered = prev * sech2
        lowered *= steps[n - 1] if n else 0.0
        step = u * cur
        value = log_sech * (q - n)  # then the envelope, in place
        np.exp(np.add(value, shift, out=value), out=value)
        value *= (2.0 * lowered - step) * (alpha * (q - n)) if derivative else cur
        if n < top:
            step -= lowered
            step /= steps[n]
            prev, cur = cur, step
            if n % 16 == 15:
                big = np.maximum(np.abs(prev), np.abs(cur))
                if not 2.0 ** -400 < big.min() <= big.max() < 2.0 ** 400:
                    e = np.frexp(big)[1]
                    prev, cur, exponent = np.ldexp(prev, -e), np.ldexp(cur, -e), exponent + e
                    shift = exponent * math.log(2.0)
        del lowered, step  # the caller holds one level, the recurrence two
        yield value


def _evaluate(spec: PotentialSpec, n, x, derivative: bool):
    _check_bound(spec, n)
    x = np.asarray(x, dtype=float)
    wanted = np.ravel(n).astype(int)
    out = np.empty((wanted.size, x.size))
    for m, row in enumerate(_ladder(spec, x.ravel(), wanted.max(), derivative)):
        out[wanted == m] = row
    out = out.reshape(np.broadcast_shapes(np.shape(n), x.shape))
    return out if out.ndim else float(out)


def wavefunction(spec: PotentialSpec, n, x):
    """Normalized bound-state wavefunction N_n sech^eps C_n^(eps + 1/2)(tanh) at x.

    Every level up to n comes from one O(n) recurrence a point, finite at any
    depth and any x.  ``n`` is a level, or levels of shape (k, 1) with a 1-d x:
    one row per level, each checked to be bound and its lone call bit for bit.
    """
    return _evaluate(spec, n, x, derivative=False)


def wavefunction_derivative(spec: PotentialSpec, n, x):
    """Analytic d(psi_n)/dx at x, taking ``n`` as :func:`wavefunction` does.

    By the Gegenbauer lowering identity, with (2 eps_n + 1) N_n / N_(n-1)
    = 2 eps_n S_(n,n-1): d(psi_n)/dx = alpha eps_n (2 S_(n,n-1) sech psi_(n-1)
    - tanh psi_n), both levels from the recurrence; no finite differences.
    """
    return _evaluate(spec, n, x, derivative=True)


def bound_state_labels(spec: PotentialSpec) -> tuple[StateLabel, ...]:
    """Labels of every bound state of the well, ascending in n."""
    wn = well_numbers(spec)
    return tuple(StateLabel.from_nu_n(wn.nu, n) for n in range(wn.n_max + 1))
