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
operator acts on the source (incoming) state, realized as a diagonal matrix
multiplying from the right.  At first order this reproduces the closed-form
sinh and cosh-derivative matrices exactly, which is what pins the
convention down.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .ladder import (
    PHYSICAL_KIND,
    OperatorMatrix,
    _require_odd_nu,
    build_su2_matrices,
    project_physical,
)
from .oracle import OracleConfig, derivative_matrix, position_from_derivative
from .states import PotentialSpec, StateLabel, integer_q, well_numbers

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


def _epsilon(nu: int, n: int) -> float:
    n_max = (nu - 3) // 2
    if n < 0 or n > n_max:
        raise DomainError(f"n = {n} outside the physical range [0, {n_max}]")
    return (nu - 2.0 * n - 1.0) / 2.0


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
    if channel == X_RAISE:
        return math.sqrt(nu / (eps * (eps - 1.0)))
    if channel == X_LOWER:
        return math.sqrt(nu / (eps * (eps + 1.0)))
    if channel == P_RAISE:
        return math.sqrt(nu * eps / (eps - 1.0))
    if channel == P_LOWER:
        return math.sqrt(nu * eps / (eps + 1.0))
    raise DomainError(f"unknown channel {channel!r}")


class ExpansionWeights(NamedTuple):
    """All four channel weights for every physical level of one multiplet.

    Raising-channel entries are +inf at the closed edge level; the matrix
    builders below replace them by 0 because the corresponding ladder
    column is identically zero there.
    """

    nu: int
    x_raise: tuple[float, ...]
    x_lower: tuple[float, ...]
    p_raise: tuple[float, ...]
    p_lower: tuple[float, ...]


def expansion_weights(nu: int) -> ExpansionWeights:
    nu = _require_odd_nu(nu, minimum=5)
    d = (nu - 1) // 2

    def seq(channel: str) -> tuple[float, ...]:
        out = []
        for n in range(d):
            try:
                out.append(channel_coefficient(nu, n, channel))
            except DomainError:
                out.append(math.inf)
        return tuple(out)

    return ExpansionWeights(nu, seq(X_RAISE), seq(X_LOWER), seq(P_RAISE), seq(P_LOWER))


class BosonPair(NamedTuple):
    """A creation/annihilation matrix pair over the physical basis."""

    create: OperatorMatrix
    annihilate: OperatorMatrix
    nu: int
    kind: str


def _physical_ladders(nu: int) -> tuple[np.ndarray, np.ndarray, tuple[StateLabel, ...]]:
    triple = project_physical(build_su2_matrices(nu))
    return triple.plus.entries, triple.minus.entries, triple.plus.basis


def renormalized_generators(nu: int) -> BosonPair:
    """Physical ladder matrices scaled by 1/sqrt(nu) (harmonic-normalized bosons)."""
    nu = _require_odd_nu(nu, minimum=5)
    plus, minus, basis = _physical_ladders(nu)
    scale = 1.0 / math.sqrt(nu)
    return BosonPair(
        create=OperatorMatrix(scale * plus, basis, PHYSICAL_KIND),
        annihilate=OperatorMatrix(scale * minus, basis, PHYSICAL_KIND),
        nu=nu,
        kind=RENORMALIZED_SU2,
    )


def _channel_diagonal(weights: tuple[float, ...]) -> np.ndarray:
    # inf marks a closed raising channel; the matching ladder column is zero,
    # so writing 0 keeps the product finite without changing it.
    return np.diag([0.0 if math.isinf(w) else w for w in weights])


def _expansion_pieces(nu: int):
    w = expansion_weights(nu)
    plus, minus, basis = _physical_ladders(nu)
    scale = 1.0 / math.sqrt(nu)
    b_dag, b = scale * plus, scale * minus
    up_x = b_dag @ _channel_diagonal(w.x_raise)
    down_x = b @ _channel_diagonal(w.x_lower)
    up_p = b_dag @ _channel_diagonal(w.p_raise)
    down_p = b @ _channel_diagonal(w.p_lower)
    return up_x, down_x, up_p, down_p, basis


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
    up_x, down_x, _, _, basis = _expansion_pieces(nu)
    t = 0.5 * (up_x + down_x)
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
    up_x, down_x, up_p, down_p, basis = _expansion_pieces(nu)
    m = 0.5 * (down_p - up_p)
    if order == 3:
        t = 0.5 * (up_x + down_x)
        m = m - 0.5 * (t @ t @ m)
    return OperatorMatrix(alpha * m, basis, PHYSICAL_KIND)


def _cross_weight(nu: int, n: int) -> float:
    a = 1.0 - (2.0 * n + 1.0) / nu
    c = 1.0 - (2.0 * n - 1.0) / nu
    return 0.5 * (math.sqrt(1.0 / (a * c)) - math.sqrt(a / c))


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
    _epsilon(nu, n)  # range check
    a = 1.0 - (2.0 * n + 1.0) / nu
    b = 1.0 - (2.0 * n + 3.0) / nu
    if b <= 0.0:
        raise DomainError(
            "direct boson weight diverges at the last bound level (edge state)")
    direct = 0.5 * (math.sqrt(1.0 / (a * b)) + math.sqrt(a / b))
    return direct, _cross_weight(nu, n)


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
    plus, minus, basis = _physical_ladders(nu)
    d = plus.shape[0]
    scale = 1.0 / math.sqrt(nu)
    direct = np.zeros(d)
    cross = np.zeros(d)
    for n in range(d):
        cross[n] = _cross_weight(nu, n)
        if n < d - 1:
            direct[n] = boson_map_weights(nu, n)[0]
    create = scale * (plus @ np.diag(direct) + minus @ np.diag(cross))
    return BosonPair(
        create=OperatorMatrix(create, basis, PHYSICAL_KIND),
        annihilate=OperatorMatrix(create.T, basis, PHYSICAL_KIND),
        nu=nu,
        kind=APPROX_BOSON,
    )


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
    plus, minus, basis = _physical_ladders(nu)
    n = np.arange(plus.shape[0], dtype=float)
    direct = 1.0 / np.sqrt(1.0 - (n + 1.0) / nu)
    cross = n / (nu * np.sqrt(1.0 - n / nu))
    create = (plus @ np.diag(direct) + minus @ np.diag(cross)) / math.sqrt(nu)
    return BosonPair(
        create=OperatorMatrix(create, basis, PHYSICAL_KIND),
        annihilate=OperatorMatrix(create.T, basis, PHYSICAL_KIND),
        nu=nu,
        kind=CONSISTENT_BOSON,
    )


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
