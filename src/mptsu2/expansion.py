"""Generator expansions of position and momentum, and approximate bosons.

The bound-state matrices of sinh(alpha x) and (cosh(alpha x)/alpha) d/dx are
linear in the renormalized ladder matrices with n-dependent channel weights;
inverting those relations and composing with the arcsinh/sech series gives
matrix expansions of x and of the derivative (momentum / (-i hbar)), plus
approximate harmonic-like boson operators.

Two boson maps are kept.  ``approx_boson_ops`` is the first-order map: it
keeps only the leading term T of the arcsinh series and M of the sech
series.  Near the well bottom (fixed n, large nu) the dropped terms -T^3/6
and -T^2 M/2 are of the same order, 1/nu, as the correction the map keeps,
so its elements are off at that order.  ``consistent_boson_ops`` carries
the one-step channels correctly to order 1/nu and is what the extended
("zA-zB") coupled model is built from.

Ordering convention: an n-dependent weight written to the right of a ladder
operator acts on the source (incoming) state, so each step n -> n +/- 1 is
weighted by its value at level n.  At first order this reproduces the
closed-form sinh and cosh-derivative matrices exactly, which is what pins
the convention down.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .ladder import _branch_ladder, _branch_operator, _require_odd_nu
from .oracle import OracleConfig, derivative_matrix, position_from_derivative
from .states import PHYSICAL_KIND, OperatorMatrix, PotentialSpec, integer_q, well_numbers

__all__ = [
    "ExpansionWeights",
    "BosonPair",
    "RENORMALIZED_SU2",
    "APPROX_BOSON",
    "PHYSICAL_BOSON",
    "channel_coefficient",
    "expansion_weights",
    "renormalized_generators",
    "position_matrix_expansion",
    "momentum_matrix_expansion",
    "boson_map_weights",
    "approx_boson_ops",
    "consistent_boson_ops",
    "physical_boson_ops",
    "interaction_frequency",
]

RENORMALIZED_SU2 = "renormalized-su2"
APPROX_BOSON = "approx-boson"
CONSISTENT_BOSON = "consistent-boson"
PHYSICAL_BOSON = "physical-boson"

X_RAISE = "x-raise"
X_LOWER = "x-lower"
P_RAISE = "p-raise"
P_LOWER = "p-lower"


def _epsilon(nu: int, n):
    """eps = q - n of level n: a range-checked int, or an array of the builders' levels."""
    n_max = (nu - 3) // 2
    if np.ndim(n) == 0 and (n < 0 or n > n_max):
        raise DomainError(f"n = {n} outside the physical range [0, {n_max}]")
    return (nu - 2.0 * n - 1.0) / 2.0


# Each channel's weight as a function of nu and the source level's eps = q - n.
_CHANNELS = {
    X_RAISE: lambda nu, eps: np.sqrt(nu / (eps * (eps - 1.0))),
    X_LOWER: lambda nu, eps: np.sqrt(nu / (eps * (eps + 1.0))),
    P_RAISE: lambda nu, eps: np.sqrt(nu * eps / (eps - 1.0)),
    P_LOWER: lambda nu, eps: np.sqrt(nu * eps / (eps + 1.0)),
}


def channel_coefficient(nu: int, n: int, channel: str) -> float:
    """Per-level weight of one ladder channel in the x / momentum expansions.

    Raising channels carry a 1/sqrt(eps - 1) factor and are closed at the
    last bound state (eps = 1), where a DomainError is raised; lowering
    channels are finite on every physical level.
    """
    nu = _require_odd_nu(nu, minimum=5)
    eps = _epsilon(nu, n)
    if channel in (X_RAISE, P_RAISE) and eps <= 1.0:
        raise DomainError("edge state: raising channel closed")
    if channel not in _CHANNELS:
        raise DomainError(f"unknown channel {channel!r}")
    return float(_CHANNELS[channel](nu, eps))


class ExpansionWeights(NamedTuple):
    """All four channel weights for every physical level of one multiplet.

    Raising-channel entries are +inf at the closed edge level, the one
    level without a raising step.
    """

    nu: int
    x_raise: tuple[float, ...]
    x_lower: tuple[float, ...]
    p_raise: tuple[float, ...]
    p_lower: tuple[float, ...]


def expansion_weights(nu: int) -> ExpansionWeights:
    nu = _require_odd_nu(nu, minimum=5)
    eps = _epsilon(nu, np.arange((nu - 1) // 2))
    with np.errstate(divide="ignore"):
        return ExpansionWeights(nu, *(tuple(w(nu, eps).tolist()) for w in _CHANNELS.values()))


class BosonPair(NamedTuple):
    """A creation/annihilation matrix pair over the physical basis."""

    create: OperatorMatrix
    annihilate: OperatorMatrix
    nu: int
    kind: str


def _pair(nu: int, kind: str, below, above=0.0) -> BosonPair:
    """Creation matrix with the given one-step channels; annihilation is its transpose."""
    create = _branch_operator(nu, below, above)
    annihilate = OperatorMatrix(create.entries.T, create.basis, PHYSICAL_KIND)
    return BosonPair(create, annihilate, nu, kind)


def renormalized_generators(nu: int) -> BosonPair:
    """Physical ladder matrices scaled by 1/sqrt(nu) (harmonic-normalized bosons)."""
    nu = _require_odd_nu(nu, minimum=5)
    return _pair(nu, RENORMALIZED_SU2, (1.0 / math.sqrt(nu)) * _branch_ladder(nu))


def _generator_forms(nu: int):
    """T = (b+ w_x-raise + b w_x-lower)/2, M = (b w_p-lower - b+ w_p-raise)/2 and their basis."""
    hop = (1.0 / math.sqrt(nu)) * _branch_ladder(nu)
    eps = _epsilon(nu, np.arange((nu - 1) // 2))
    up, down = eps[:-1], eps[1:]
    t = _branch_operator(nu, 0.5 * (hop * _CHANNELS[X_RAISE](nu, up)),
                         0.5 * (hop * _CHANNELS[X_LOWER](nu, down)))
    m = _branch_operator(nu, -0.5 * (hop * _CHANNELS[P_RAISE](nu, up)),
                         0.5 * (hop * _CHANNELS[P_LOWER](nu, down)))
    return t.entries, m.entries, t.basis


def position_matrix_expansion(nu: int, alpha: float, order: int = 1) -> OperatorMatrix:
    """Matrix of x through the arcsinh series of the sinh-matrix generator form.

    x = (1/alpha) [T - T^3/6 + 3 T^5/40] truncated at ``order`` (1, 3 or 5),
    where T is the order-1 generator combination that equals the closed-form
    sinh matrix.  Order 5 pushes the arcsinh series one term past the
    validated order-3 truncation; reports mark it as an extrapolation.
    """
    nu = _require_odd_nu(nu, minimum=7)
    if order not in (1, 3, 5):
        raise DomainError(f"position expansion order must be 1, 3 or 5, got {order}")
    t, _, basis = _generator_forms(nu)
    total = t.copy()
    if order >= 3:
        t3 = t @ t @ t
        total -= t3 / 6.0
        if order >= 5:
            total += 3.0 / 40.0 * (t3 @ t @ t)
    return OperatorMatrix(total / alpha, basis, PHYSICAL_KIND)


def momentum_matrix_expansion(nu: int, alpha: float, order: int = 1) -> OperatorMatrix:
    """Real matrix R whose momentum matrix is -i hbar R.

    Order 1 is alpha times the closed-form cosh-derivative matrix; order 3
    composes the sech series with the generator form of the derivative,
    R = alpha (M - T^2 M / 2), the sign the oracle comparison supports.
    R is the derivative representation and does not depend on hbar.
    """
    nu = _require_odd_nu(nu, minimum=7)
    if order not in (1, 3):
        raise DomainError(f"momentum expansion order must be 1 or 3, got {order}")
    t, m, basis = _generator_forms(nu)
    if order == 3:
        m = m - 0.5 * (t @ t @ m)
    return OperatorMatrix(alpha * m, basis, PHYSICAL_KIND)


def _first_order_map(nu: int, n):
    """First-order map on the step n -> n + 1: direct weight of n, cross weight of n + 1."""
    lo = 1.0 - (2.0 * n + 1.0) / nu
    hi = 1.0 - (2.0 * n + 3.0) / nu
    inverse = np.sqrt(1.0 / (lo * hi))
    return 0.5 * (inverse + np.sqrt(lo / hi)), 0.5 * (inverse - np.sqrt(hi / lo))


def boson_map_weights(nu: int, n: int) -> tuple[float, float]:
    """Weights (direct, cross) mapping su(2) bosons onto harmonic-like ones.

    The creation operator maps as create -> create * direct + annihilate *
    cross.  Both tend to their harmonic limits (1 and 0) as 1/nu at fixed n.
    The direct weight diverges at the last bound level, where only the cross
    channel survives; that edge is reported as its own error.

    This is the first-order map: it inverts only the leading terms of the
    arcsinh and sech series, so its 1/nu corrections are not those of the
    x/p bosons (see ``approx_boson_ops``).  The zA-zB coupled model uses
    ``consistent_boson_ops`` instead, which fixes the two one-step channels
    at order 1/nu; the order-1/nu three-step channel
    -sqrt((n+1)(n+2)(n+3))/(3 nu) lies outside the two-channel form and is
    left out of both maps.
    """
    nu = _require_odd_nu(nu, minimum=5)
    if _epsilon(nu, n) <= 1.0:
        raise DomainError(
            "direct boson weight diverges at the last bound level (edge state)")
    return float(_first_order_map(nu, n)[0]), float(_first_order_map(nu, n - 1)[1])


def approx_boson_ops(nu: int) -> BosonPair:
    """Harmonic-like bosons built from the su(2) pair and the mapping weights.

    The creation matrix takes the direct channel on every level but the
    edge, where the direct weight diverges and only the cross channel
    contributes (the matching ladder column is zero there anyway); the
    annihilation matrix is its transpose, which keeps the pair mutually
    adjoint.

    This is the paper's first-order map and equals sqrt(nu)/2 T - M/sqrt(nu)
    with T and M the closed-form sinh and cosh-derivative matrices.  At
    fixed n its elements are
    <n+1|create|n> = sqrt(n+1) (1 + (1 + n/2)/nu) and
    <n-1|create|n> = (n^(3/2) + n^(1/2)/2)/nu, whereas the x/p bosons of
    ``physical_boson_ops`` have sqrt(n+1) (1 + O(1/nu^2)) and n^(3/2)/nu:
    the series terms -T^3/6 and -T^2 M/2 that this map drops are of order
    1/nu too.  The zA-zB coupled model therefore uses
    ``consistent_boson_ops``.  Neither map carries the order-1/nu
    three-step channel <n+3|create|n> = -sqrt((n+1)(n+2)(n+3))/(3 nu),
    which lies outside the two-channel form.
    """
    nu = _require_odd_nu(nu, minimum=7)
    ladder = _branch_ladder(nu)
    direct, cross = _first_order_map(nu, np.arange((nu - 3) // 2))
    scale = 1.0 / math.sqrt(nu)
    return _pair(nu, APPROX_BOSON, scale * (ladder * direct), scale * (ladder * cross))


def consistent_boson_ops(nu: int) -> BosonPair:
    """Harmonic-like bosons whose one-step elements are right to order 1/nu.

    The creation matrix has the same form as ``approx_boson_ops``,
    plus/sqrt(nu) * diag(direct) + minus/sqrt(nu) * diag(cross), with the
    two-channel weights
    direct(n) = 1/sqrt(1 - (n+1)/nu) and cross(n) = n/(nu sqrt(1 - n/nu)).
    They give <n+1|create|n> = sqrt(n+1) and <n-1|create|n> = n^(3/2)/nu,
    which is what the x/p bosons of ``physical_boson_ops`` (the arcsinh and
    sech series carried to third order) give at fixed n up to O(1/nu^2).
    Both weights are finite on every bound level, so the edge needs no
    special case.

    The x/p bosons also have three-step channels at order 1/nu,
    <n+3|create|n> = -sqrt((n+1)(n+2)(n+3))/(3 nu) and
    <n-3|create|n> = sqrt(n(n-1)(n-2))/(6 nu); they lie outside the
    two-channel form and are left out.  The annihilation matrix is the
    transpose of the creation matrix.
    """
    nu = _require_odd_nu(nu, minimum=7)
    upper = np.arange(1, (nu - 1) // 2, dtype=float)  # the upper level of each step
    root = np.sqrt(1.0 - upper / nu)
    ladder = _branch_ladder(nu)
    return _pair(nu, CONSISTENT_BOSON, (ladder * (1.0 / root)) / math.sqrt(nu),
                 (ladder * (upper / (nu * root))) / math.sqrt(nu))


def interaction_frequency(spec: PotentialSpec) -> float:
    """Angular frequency omega-tilde = alpha^2 hbar nu / (2 mu) of the well."""
    wn = well_numbers(spec)
    return spec.alpha ** 2 * spec.hbar / spec.mu * wn.k


def physical_boson_ops(spec: PotentialSpec,
                       cfg: OracleConfig = OracleConfig()) -> BosonPair:
    """Boson pair assembled from the oracle position and derivative matrices.

    create = sqrt(mu w / 2 hbar) X - sqrt(hbar / 2 mu w) R with w the well's
    interaction frequency; the combinations are real because R is the real
    derivative-representation of momentum.
    """
    nu = 2 * integer_q(spec, "the physical boson pair") + 1
    omega = interaction_frequency(spec)
    r_mat = derivative_matrix(spec, cfg)
    x = position_from_derivative(spec, r_mat.entries)
    a = math.sqrt(spec.mu * omega / (2.0 * spec.hbar))
    b = math.sqrt(spec.hbar / (2.0 * spec.mu * omega))
    create = a * x - b * r_mat.entries
    annihilate = a * x + b * r_mat.entries
    return BosonPair(
        create=OperatorMatrix(create, r_mat.basis, PHYSICAL_KIND),
        annihilate=OperatorMatrix(annihilate, r_mat.basis, PHYSICAL_KIND),
        nu=nu,
        kind=PHYSICAL_BOSON,
    )
