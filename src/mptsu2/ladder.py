"""su(2) ladder operators of the modified Poschl-Teller well.

The raising/lowering coefficients close an su(2) algebra on a spin-j
multiplet of dimension nu = 2j + 1 (odd integer nu).  Bound states occupy
only the lower branch m <= -1, i.e. the leading (nu - 1)/2 levels; the
``physical`` matrices are the truncation to that branch.  Also provided:
the closed-form matrix elements of sinh(alpha x) and of
(cosh(alpha x)/alpha) d/dx between bound states, and the pointwise action
of the first-order differential ladder operators on sampled wavefunctions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .specfun import log_gamma
from .states import (
    FULL_KIND,
    PHYSICAL_KIND,
    OperatorMatrix,
    PotentialSpec,
    StateLabel,
    _check_bound,
    energy,
    integer_q,
    wavefunction,
    wavefunction_derivative,
)

__all__ = [
    "LadderTriple",
    "lowering_coefficient",
    "raising_coefficient",
    "build_su2_matrices",
    "project_physical",
    "casimir",
    "hamiltonian_diagonal",
    "normalization_chain",
    "sinh_matrix",
    "cosh_ddx_matrix",
    "apply_lowering",
    "apply_raising",
]

def _labels(nu: int, count: int) -> tuple[StateLabel, ...]:
    return tuple(StateLabel.from_nu_n(float(nu), n) for n in range(count))


def _require_odd_nu(nu: int, minimum: int = 3) -> int:
    if nu != int(nu) or int(nu) < minimum or int(nu) % 2 == 0:
        raise DomainError(f"nu must be an odd integer >= {minimum}, got {nu}")
    return int(nu)


class LadderTriple(NamedTuple):
    """Raising, lowering, and projection matrices of one su(2) multiplet."""

    plus: OperatorMatrix
    minus: OperatorMatrix
    zero: OperatorMatrix
    nu: int

    @property
    def j(self) -> float:
        return (self.nu - 1.0) / 2.0

    @property
    def kind(self) -> str:
        return self.plus.kind


def _raising_squares(nu: int, n):
    """(n + 1)(nu - n - 1), the squared raising coefficient, for an int or an array of levels."""
    return (n + 1) * (nu - n - 1)


def _branch_ladder(nu: int) -> np.ndarray:
    """Raising coefficients of the bound branch's steps n -> n + 1, n = 0 .. (nu - 5)/2."""
    return np.sqrt(_raising_squares(nu, np.arange((nu - 3) // 2, dtype=float)))


def _branch_operator(nu: int, below, above=0.0) -> OperatorMatrix:
    """Bound-branch matrix with ``below`` on the n -> n + 1 diagonal, ``above`` on n + 1 -> n."""
    d = (nu - 1) // 2
    n = np.arange(d - 1)
    m = np.zeros((d, d))
    m[n + 1, n] = below
    m[n, n + 1] = above
    return OperatorMatrix(m, _labels(nu, d), PHYSICAL_KIND)


def lowering_coefficient(nu: int, n: int) -> float:
    """Coefficient of the step n -> n - 1: sqrt(n (nu - n)); zero only at n = 0."""
    nu = _require_odd_nu(nu)
    if n < 0 or n > nu - 1:
        raise DomainError(f"n = {n} outside the spin-j ladder [0, {nu - 1}]")
    return math.sqrt(_raising_squares(nu, n - 1))


def raising_coefficient(nu: int, n: int) -> float:
    """Coefficient of the step n -> n + 1: sqrt((n+1)(nu-n-1)); zero only at the ladder top."""
    nu = _require_odd_nu(nu)
    if n < 0 or n > nu - 1:
        raise DomainError(f"n = {n} outside the spin-j ladder [0, {nu - 1}]")
    return math.sqrt(_raising_squares(nu, n))


def build_su2_matrices(nu: int) -> LadderTriple:
    """Full spin-j matrices (dim nu) of the raising/lowering/projection generators."""
    nu = _require_odd_nu(nu)
    plus = np.diag(np.sqrt(_raising_squares(nu, np.arange(nu - 1, dtype=float))), -1)
    zero = np.diag(np.arange(nu, dtype=float) - (nu - 1.0) / 2.0)
    basis = _labels(nu, nu)
    return LadderTriple(
        plus=OperatorMatrix(plus, basis, FULL_KIND),
        minus=OperatorMatrix(plus.T, basis, FULL_KIND),
        zero=OperatorMatrix(zero, basis, FULL_KIND),
        nu=nu,
    )


def project_physical(triple: LadderTriple) -> LadderTriple:
    """Truncate a full spin-j triple to the bound-state branch n <= (nu - 3)/2."""
    if triple.kind != FULL_KIND:
        raise DomainError("can only project a full spin-j triple")
    d = (triple.nu - 1) // 2
    basis = _labels(triple.nu, d)

    def cut(om: OperatorMatrix) -> OperatorMatrix:
        return OperatorMatrix(om.entries[:d, :d], basis, PHYSICAL_KIND)

    return LadderTriple(cut(triple.plus), cut(triple.minus), cut(triple.zero), triple.nu)


def casimir(triple: LadderTriple) -> OperatorMatrix:
    """Quadratic Casimir P0^2 + (P+ P- + P- P+)/2; equals j(j+1) I on the full multiplet."""
    if triple.kind != FULL_KIND:
        raise DomainError("the Casimir identity holds only on the full spin-j multiplet")
    p, m, z = triple.plus.entries, triple.minus.entries, triple.zero.entries
    c = z @ z + 0.5 * (p @ m + m @ p)
    return OperatorMatrix(c, triple.plus.basis, FULL_KIND)


def hamiltonian_diagonal(spec: PotentialSpec) -> OperatorMatrix:
    """Physical-space Hamiltonian: diagonal of the bound-state energies.

    The algebraic form -(hbar omega / nu) P0^2 with omega = hbar alpha^2 nu
    / (2 mu) simplifies to exactly the same expression as the energy
    formula, so the entries are produced by :func:`mptsu2.states.energy`.
    """
    q = integer_q(spec, "the algebraic Hamiltonian")
    diag = np.diag([energy(spec, n) for n in range(q)])
    return OperatorMatrix(diag, _labels(2 * q + 1, q), PHYSICAL_KIND)


def normalization_chain(nu: int, n: int) -> float:
    """Prefactor that normalizes n raisings of the ground state.

    Equals sqrt((nu - n - 1)! / (n! (nu - 1)!)), the reciprocal of the
    product of the first n raising coefficients.
    """
    nu = _require_odd_nu(nu)
    if n < 0 or n > (nu - 3) // 2:
        raise DomainError(f"n = {n} outside the physical range [0, {(nu - 3) // 2}]")
    return math.exp(0.5 * (log_gamma(nu - n) - log_gamma(n + 1.0) - log_gamma(float(nu))))


def sinh_matrix(nu: int) -> OperatorMatrix:
    """Closed-form bound-state matrix of sinh(alpha x): symmetric, zero diagonal.

    The would-be entry out of the ladder top has a vanishing denominator
    (nu - 2n - 3 = 0); it connects to the non-normalizable zero-energy state
    and is never materialized.
    """
    nu = _require_odd_nu(nu, minimum=5)
    n = np.arange((nu - 3) // 2, dtype=float)
    w = np.sqrt(_raising_squares(nu, n) / ((nu - 2 * n - 3.0) * (nu - 2 * n - 1.0)))
    return _branch_operator(nu, w, w)


def cosh_ddx_matrix(nu: int) -> OperatorMatrix:
    """Closed-form bound-state matrix of (cosh(alpha x)/alpha) d/dx.

    Tridiagonal with zero diagonal, positive below-transition and negative
    above-transition entries; satisfies M + M^T = -sinh_matrix(nu) (the
    integration-by-parts identity).
    """
    nu = _require_odd_nu(nu, minimum=5)
    n = np.arange((nu - 3) // 2, dtype=float)
    steps, two_eps = _raising_squares(nu, n), nu - 2 * n - 1.0
    return _branch_operator(nu, -0.5 * np.sqrt(steps * two_eps / (two_eps - 2.0)),
                            0.5 * np.sqrt(steps * (two_eps - 2.0) / two_eps))


def _ladder_action(spec: PotentialSpec, n: int, x, sign: int):
    """Shared body of apply_lowering/apply_raising.

    The first-order differential operators act as
    sqrt((eps +/- 1)/eps) [ +/- (cosh(alpha x)/alpha) d/dx + eps sinh(alpha x) ]
    on the n-th state, where eps = q - n is taken at the source state and the
    upper signs belong to lowering.
    """
    integer_q(spec, "the ladder action")
    eps = _check_bound(spec, n).q - n
    x = np.asarray(x, dtype=float)
    factor = math.sqrt((eps + sign) / eps)
    cosh_term = np.cosh(spec.alpha * x) / spec.alpha * wavefunction_derivative(spec, n, x)
    sinh_term = eps * np.sinh(spec.alpha * x) * wavefunction(spec, n, x)
    return factor * (sign * cosh_term + sinh_term)


def apply_lowering(spec: PotentialSpec, n: int, x) -> np.ndarray:
    """Pointwise action of the lowering differential operator on psi_n.

    Returns lowering_coefficient(nu, n) * psi_{n-1}(x); identically zero for
    the ground state.
    """
    return _ladder_action(spec, n, x, sign=+1)


def apply_raising(spec: PotentialSpec, n: int, x) -> np.ndarray:
    """Pointwise action of the raising differential operator on psi_n.

    Returns raising_coefficient(nu, n) * psi_{n+1}(x); the sqrt((eps-1)/eps)
    prefactor annihilates the last bound state (eps = 1) identically.
    """
    return _ladder_action(spec, n, x, sign=-1)
