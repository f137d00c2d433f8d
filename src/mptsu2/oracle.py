"""Exact quadrature matrix elements between bound states.

This is the ground truth against which every closed form and generator
expansion in the package is checked.  Nothing here knows about ladder
coefficients, only about wavefunctions and Gauss rules; but the levels come
from :mod:`~mptsu2.states`' sinh ladder recurrence, whose coefficients are
the closed-form sinh matrix derived a second way (from the Legendre-order
relation rather than the su(2) algebra).  So "sinh closed form vs oracle"
compares two derivations of the same coefficients, and the independent
check of the levels is their comparison with 60-digit values in the tests.

In u = tanh(alpha x) the n-th bound state is N_n (1 - u^2)^((q - n) / 2)
C_n(u), and dx = du / (alpha (1 - u^2)).  For an integer well parameter q
every built-in integrand over the whole line is a polynomial in u of degree
at most 2q, or sqrt(1 - u^2) times one (d/dx on its odd pairs).  The
polynomials are integrated by one Gauss-Legendre rule in u; d/dx, a cosine
polynomial in theta = arccos(u), by the composite midpoint rule.  With
q + 2 nodes both are exact, so no truncation window enters.  All levels
come from one call each of :func:`~mptsu2.states.wavefunction` and
:func:`~mptsu2.states.wavefunction_derivative` at x = artanh(u) / alpha,
each one O(q) recurrence a node, and a whole matrix is one contraction.
x is not algebraic in u; its matrix comes from d/dx by the commutator
identity [H, x] = -(hbar^2 / mu) d/dx.

All matrices are real: R holds <n'| d/dx |n>, and the physical momentum
matrix -i hbar R is never stored.  Everything is a pure function of its
inputs, and nothing is cached: a matrix costs milliseconds.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .specfun import QuadratureRule, gauss_legendre, integrate
from .states import (
    PHYSICAL_KIND,
    OperatorMatrix,
    PotentialSpec,
    bound_state_labels,
    integer_q,
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
    "observable_matrix",
    "derivative_matrix",
    "position_from_derivative",
]


class Observable(NamedTuple):
    """A one-body observable: a weight function applied to psi or to d(psi)/dx.

    ``parity`` is +1/-1 for observables of definite parity (counting the
    derivative's parity flip), 0 if unknown; it drives the exact-zero
    pattern in :func:`observable_matrix`.  The rules are exact for the
    built-in observables below; any other weight is integrated by the
    Gauss-Legendre rule in u and is exact only if its integrands are
    polynomials in u of degree below twice the node count.
    """

    name: str
    weight: Callable[[np.ndarray, PotentialSpec], np.ndarray]
    acts_on_derivative: bool = False
    parity: int = 0


IDENTITY = Observable("identity", lambda x, spec: np.ones_like(x), parity=+1)
SINH_ALPHA_X = Observable("sinh_alpha_x",
                          lambda x, spec: np.sinh(spec.alpha * x), parity=-1)
COSH_DDX_OVER_ALPHA = Observable("cosh_ddx_over_alpha",
                                 lambda x, spec: np.cosh(spec.alpha * x) / spec.alpha,
                                 acts_on_derivative=True, parity=-1)
POSITION_X = Observable("position_x", lambda x, spec: x, parity=-1)
DDX = Observable("ddx", lambda x, spec: np.ones_like(x),
                 acts_on_derivative=True, parity=-1)
POTENTIAL = Observable("potential",
                       lambda x, spec: -spec.D / np.cosh(spec.alpha * x) ** 2,
                       parity=+1)


class OracleConfig(namedtuple("OracleConfig", "rule_order", defaults=(None,))):
    """Quadrature configuration: the node count of the rule.

    ``rule_order`` None (the default) takes q + 2 nodes, exact for every
    built-in observable of every integer well.  Measured: Gram = I to
    4.5e-13 at every q up to 150 and 5.7e-12 at q = 800; sinh and cosh-d/dx
    match their closed forms to 1.1e-11 at q = 99, 2.1e-11 at q = 150 and
    2.1e-9 at q = 800 (rounding, mostly from the artanh round trip).  More
    nodes change only the rounding; fewer under-resolve deep wells on purpose.
    """

    __slots__ = ()

    def __new__(cls, rule_order: int | None = None):
        if rule_order is not None and not rule_order >= 1:
            raise DomainError("rule_order must be at least 1")
        return super().__new__(cls, rule_order)


def _contract(spec: PotentialSpec, obs: Observable, to_x: Callable, a: float, b: float,
              rule: QuadratureRule, panels: int = 1) -> np.ndarray:
    """Every <n'| obs |n> as one ``integrate`` call over t in [a, b].

    ``to_x`` maps the nodes t to the positions x and the Jacobian dx/dt.
    """
    levels = np.arange(well_numbers(spec).n_max + 1)[:, None]

    def integrand(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, jacobian = to_x(t)
        bra = wavefunction(spec, levels, x)
        ket = wavefunction_derivative(spec, levels, x) if obs.acts_on_derivative else bra
        return bra * (obs.weight(x, spec) * jacobian), ket

    return integrate(integrand, a, b, rule, panels)


def observable_matrix(spec: PotentialSpec, obs: Observable,
                      cfg: OracleConfig = OracleConfig()) -> OperatorMatrix:
    """All bound-pair matrix elements of an observable, as a physical-kind matrix.

    d/dx takes ``cfg.rule_order`` midpoint panels in theta = arccos(u), x
    follows from it by (E_n' - E_n) X_n'n = -(hbar^2 / mu) R_n'n, and the
    rest take a Gauss-Legendre rule in u of as many nodes.  Parity-forbidden
    entries are exact zeros, so the characteristic zero patterns are noise-free.
    """
    q = integer_q(spec, "the quadrature oracle")
    nodes = cfg.rule_order or q + 2
    alpha = spec.alpha
    levels = np.arange(q)
    if obs is POSITION_X:
        m = position_from_derivative(spec, observable_matrix(spec, DDX, cfg).entries)
    elif obs is DDX:
        m = _contract(spec, obs, lambda t: (-np.log(np.tan(0.5 * t)) / alpha,
                                            1.0 / (alpha * np.sin(t))),
                      0.0, math.pi, gauss_legendre(1), nodes)
    else:
        m = _contract(spec, obs, lambda u: (np.arctanh(u) / alpha,
                                            1.0 / (alpha * (1.0 - u) * (1.0 + u))),
                      -1.0, 1.0, gauss_legendre(nodes))
    if obs.parity != 0:
        m[(-1) ** np.add.outer(levels, levels) != obs.parity] = 0.0
    return OperatorMatrix(m, bound_state_labels(spec), PHYSICAL_KIND)


def position_from_derivative(spec: PotentialSpec, r: np.ndarray) -> np.ndarray:
    """The x matrix from a built R by (E_n' - E_n) X_n'n = -(hbar^2 / mu) R_n'n.

    With E_n' - E_n = (alpha hbar)^2 / (2 mu) (n' - n)(2q - n' - n), hbar and
    mu cancel.  Entries between levels of equal parity, the diagonal
    included, are exact zeros.  This is the x of ``observable_matrix``
    for the R of ``derivative_matrix``, bit for bit.
    """
    q = integer_q(spec, "the quadrature oracle")
    levels = np.arange(r.shape[0])
    gap = np.subtract.outer(levels, levels) * (2 * q - np.add.outer(levels, levels))
    np.fill_diagonal(gap, 1)
    x = -2.0 * r / (spec.alpha ** 2 * gap)
    x[np.add.outer(levels, levels) % 2 == 0] = 0.0
    return x


def derivative_matrix(spec: PotentialSpec,
                      cfg: OracleConfig = OracleConfig()) -> OperatorMatrix:
    """The real matrix R with R[n', n] = <n'| d/dx |n> (momentum = -i hbar R).

    Antisymmetric up to rounding, since d/dx is anti-self-adjoint between
    normalizable states.
    """
    return observable_matrix(spec, DDX, cfg)
