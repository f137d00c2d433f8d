"""Verification suites: each check yields a measured value against a tolerance.

These drive the ``verify`` CLI command and are reused by the test suite.
A check passes when measured <= tolerance; rows with an infinite tolerance
are informational (diagnostics such as the narrow-well series step).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .expansion import momentum_matrix_expansion, position_matrix_expansion
from .ladder import (
    build_su2_matrices,
    casimir,
    cosh_ddx_matrix,
    sinh_matrix,
)
from .oracle import (
    COSH_DDX_OVER_ALPHA,
    IDENTITY,
    POSITION_X,
    SINH_ALPHA_X,
    OracleConfig,
    derivative_matrix,
    observable_matrix,
)
from .pairs import PairModel, _magnitude, _max_abs, _polyad_bound
from .states import MIN_Q, PotentialSpec, _ladder, energy, integer_q, wavefunction, well_numbers
from .suites import SUITES
from .vibron import compare_models, coupling

__all__ = [
    "CheckResult",
    "algebra_checks",
    "states_checks",
    "matelem_checks",
    "expansion_checks",
    "vibron_checks",
    "suite_for",
    "SUITES",
]


class CheckResult(NamedTuple):
    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


# The computation each suite checks, whose ``MIN_Q`` entry is the suite's domain.
_DOMAIN = {"algebra": "the algebra suite", "states": "the quadrature oracle",
           "matelem": "the closed-form matrix", "expansion": "the series expansion",
           "vibron": "the model comparison"}


def _bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def algebra_checks(nu: int) -> list[CheckResult]:
    """Commutation relations, Casimir, and structural identities at one nu.

    The first four rows are in units of j(j+1), the size of the products they
    compare, whose rounding alone failed absolute rows from nu = 129.
    """
    triple = build_su2_matrices(nu)
    p, m, z = triple.plus.entries, triple.minus.entries, triple.zero.entries
    size = triple.j * (triple.j + 1)
    return [
        CheckResult("commutator [P+,P-] = 2 P0", _max_abs(_bracket(p, m) - 2 * z) / size, 1e-12),
        CheckResult("commutator [P0,P-] = -P-", _max_abs(_bracket(z, m) + m) / size, 1e-12),
        CheckResult("commutator [P0,P+] = +P+", _max_abs(_bracket(z, p) - p) / size, 1e-12),
        CheckResult("Casimir = j(j+1) I",
                    _max_abs(casimir(triple).entries - size * np.eye(nu)) / size, 1e-12),
        CheckResult("lowering = raising transposed", _max_abs(m - p.T), 1e-14),
        CheckResult("projection trace = 0", abs(float(np.trace(z))), 1e-12),
    ]


def states_checks(spec: PotentialSpec,
                  cfg: OracleConfig = OracleConfig()) -> list[CheckResult]:
    """Orthonormality, parity, node counts, and energy identities of one well."""
    wn = well_numbers(spec)
    gram = observable_matrix(spec, IDENTITY, cfg).entries
    results = [
        CheckResult("Gram matrix = identity",
                    _max_abs(gram - np.eye(gram.shape[0])), 1e-9),
    ]
    # Every level in one call per half grid; each row equals its lone call.
    levels = np.arange(wn.n_max + 1)[:, None]
    grid = np.linspace(-6.0 / spec.alpha, 6.0 / spec.alpha, 241)
    parity = _max_abs(wavefunction(spec, levels, -grid)
                      - (-1.0) ** levels * wavefunction(spec, levels, grid))
    results.append(CheckResult("wavefunction parity", parity, 1e-12))
    scale = (spec.alpha * spec.hbar) ** 2 / (2.0 * spec.mu)
    # Relative: the two sides round one product in different orders.
    energy_dev = max(abs(energy(spec, n) + scale * (wn.q - n) ** 2) / (scale * (wn.q - n) ** 2)
                     for n in range(wn.n_max + 1))
    results.append(CheckResult("energy equals -(alpha hbar)^2 eps^2 / 2 mu",
                               energy_dev, 1e-15))
    # 16 q + 1 points resolve the top levels' nodes on this window (read 0
    # to q = 2000); a fixed 4801 read 304 at q = 1000.  No fewer than 4801.
    points = max(4801, 16 * math.ceil(wn.q) + 1)
    dense = np.linspace(-12.0 / spec.alpha, 12.0 / spec.alpha, points)
    zero = 1e-12 * math.sqrt(spec.alpha)  # psi scales as sqrt(alpha)
    node_dev = 0
    # The levels one at a time from one recurrence: an (n_max + 1, 4801)
    # array would add about 6 MB to the peak RSS of a q = 30 verify.
    for n, values in enumerate(_ladder(spec, dense, wn.n_max)):
        signs = np.sign(values[np.abs(values) > zero])
        flips = int(np.sum(signs[1:] != signs[:-1]))
        node_dev = max(node_dev, abs(flips - n))
    results.append(CheckResult("node count equals n", float(node_dev), 0.0))
    if wn.q_is_integer:
        results.append(CheckResult(
            "last level sits one quantum below dissociation",
            abs(abs(energy(spec, wn.n_max)) - scale), 1e-12))
    return results


def matelem_checks(spec: PotentialSpec,
                   cfg: OracleConfig = OracleConfig()) -> list[CheckResult]:
    """Closed-form matrix elements against the quadrature oracle; R in units of alpha."""
    nu = 2 * integer_q(spec, _DOMAIN["matelem"]) + 1
    sinh_closed = sinh_matrix(nu).entries
    cosh_closed = cosh_ddx_matrix(nu).entries
    sinh_oracle = observable_matrix(spec, SINH_ALPHA_X, cfg).entries
    cosh_oracle = observable_matrix(spec, COSH_DDX_OVER_ALPHA, cfg).entries
    r = derivative_matrix(spec, cfg).entries
    return [
        CheckResult("sinh closed form vs oracle", _max_abs(sinh_closed - sinh_oracle), 1e-8),
        CheckResult("cosh-derivative closed form vs oracle",
                    _max_abs(cosh_closed - cosh_oracle), 1e-8),
        CheckResult("integration-by-parts identity M + M^T = -S",
                    _max_abs(cosh_closed + cosh_closed.T + sinh_closed), 1e-12),
        CheckResult("derivative matrix antisymmetry", _max_abs(r + r.T) / spec.alpha, 1e-8),
    ]


def expansion_checks(spec: PotentialSpec,
                     cfg: OracleConfig = OracleConfig()) -> list[CheckResult]:
    """Order-1 identities, series convergence and the parity of x; x in units of 1 / alpha."""
    nu = 2 * integer_q(spec, _DOMAIN["expansion"]) + 1
    alpha = spec.alpha
    results = [
        CheckResult("x expansion order 1 equals sinh matrix / alpha",
                    _max_abs(position_matrix_expansion(nu, alpha, 1).entries
                             - sinh_matrix(nu).entries / alpha) * alpha, 1e-12),
        CheckResult("momentum expansion order 1 equals alpha cosh-derivative matrix",
                    _max_abs(momentum_matrix_expansion(nu, alpha, 1).entries
                             - alpha * cosh_ddx_matrix(nu).entries) / alpha, 1e-12),
    ]
    x_oracle = observable_matrix(spec, POSITION_X, cfg).entries
    k = min(3, x_oracle.shape[0])
    sub = np.s_[:k, :k]
    series = [position_matrix_expansion(nu, alpha, order).entries for order in (1, 3, 5)]
    devs = [_max_abs(x[sub] - x_oracle[sub]) for x in series]
    worst_step = max(devs[1] - devs[0], devs[2] - devs[1]) * alpha
    if nu >= 15:
        results.append(CheckResult(
            "x expansion deviation non-increasing over orders 1,3,5", worst_step, 0.0))
    else:
        # Too few levels clear of the dissociation edge for the series to
        # converge on the compared block; report without gating.
        results.append(CheckResult(
            "[info] x expansion order-to-order step (narrow well)", worst_step, math.inf))
    x5 = series[-1]
    i = np.arange(x5.shape[0])
    even_mask = np.add.outer(i, i) % 2 == 0
    results.append(CheckResult("x expansion connects opposite parity only",
                               _max_abs(x5[even_mask]) * alpha, 0.0))
    return results


def _by_construction(*forms: PairModel) -> float:
    """0 when no entry of the couplings can overflow, inf otherwise.

    ``PairModel`` builds only couplings that are symmetric and invariant
    under oscillator exchange bit for bit, so these defects are 0 wherever
    every entry is finite; ``_magnitude`` finite proves that it is.
    """
    return 0.0 if all(math.isfinite(_magnitude(form)) for form in forms) else math.inf


def vibron_checks(spec: PotentialSpec, lam: float = 0.05,
                  cfg: OracleConfig = OracleConfig()) -> list[CheckResult]:
    """Coupled-model structure: coincidence at zero coupling, symmetries, polyad.

    The structure rows are read from each bare coupling's n x n factors
    (``pairs.PairModel``) in O(n^2); no d x d matrix is formed.  The polyad
    row is a bound, at least the elementwise defect of the matrix as
    computed and exactly 0 where the factors prove it.  The symmetry and
    exchange rows are construction invariants (``_by_construction``): 0, or
    inf where an entry can overflow.  Rows are in units of (alpha hbar)^2 / mu.
    """
    report0 = compare_models(spec, 0.0, cfg)
    coincide = max(max(d) for d in report0.deviations.values())
    exact, crude, za_zb = (coupling(spec, m, lam, cfg) for m in ("exact", "crude", "zA-zB"))
    unit = (spec.alpha * spec.hbar) ** 2 / spec.mu
    return [
        CheckResult("all model spectra coincide at lambda = 0", coincide / unit, 1e-9),
        CheckResult("crude interaction commutes with polyad", _polyad_bound(crude) / unit, 1e-12),
        CheckResult("exact interaction is symmetric", _by_construction(exact), 1e-10),
        CheckResult("models invariant under oscillator exchange",
                    _by_construction(exact, crude, za_zb), 1e-10),
    ]


def suite_for(name: str, spec: PotentialSpec | None, nu: int | None,
              lam: float = 0.05,
              cfg: OracleConfig = OracleConfig()) -> list[CheckResult]:
    """Run one named suite (or all of them) for a well and/or multiplet."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}")
    if nu is not None and name != "algebra":
        raise DomainError("--nu applies to the algebra suite only")
    if name == "algebra":
        if spec is not None:
            well_nu = 2 * integer_q(spec, _DOMAIN["algebra"]) + 1
            if nu is not None and nu != well_nu:
                raise DomainError(f"--nu {nu} does not match the well's nu = {well_nu}")
            nu = well_nu
        elif nu is None:
            raise DomainError("algebra suite needs --nu or a well")
        return algebra_checks(nu)
    if spec is None:
        raise DomainError(f"suite {name!r} needs a well specification")
    if name == "vibron":
        return vibron_checks(spec, lam, cfg)
    if name != "all":
        return {"states": states_checks, "matelem": matelem_checks,
                "expansion": expansion_checks}[name](spec, cfg)
    # Every suite the well is in, once it is in the states suite's domain.
    q = integer_q(spec, _DOMAIN["states"])
    return [row for suite in SUITES[:-1] if q >= MIN_Q[_DOMAIN[suite]]
            for row in suite_for(suite, spec, None, lam, cfg)]
