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
from .states import PotentialSpec, energy, wavefunction, well_numbers
from .vibron import PairModel, compare_models, coupling

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


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| through one temporary."""
    t = np.subtract(a, b)
    return float(np.abs(t, out=t).max())


def algebra_checks(nu: int) -> list[CheckResult]:
    """Commutation relations, Casimir, and structural identities at one nu."""
    triple = build_su2_matrices(nu)
    p, m, z = triple.plus.entries, triple.minus.entries, triple.zero.entries
    j = triple.j
    return [
        CheckResult("commutator [P+,P-] = 2 P0", _max_abs(p @ m - m @ p - 2 * z), 1e-12),
        CheckResult("commutator [P0,P-] = -P-", _max_abs(z @ m - m @ z + m), 1e-12),
        CheckResult("commutator [P0,P+] = +P+", _max_abs(z @ p - p @ z - p), 1e-12),
        CheckResult("Casimir = j(j+1) I",
                    _max_abs(casimir(triple).entries - j * (j + 1) * np.eye(nu)), 1e-12),
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
    grid = np.linspace(-6.0 / spec.alpha, 6.0 / spec.alpha, 241)
    parity = max(
        _max_abs(wavefunction(spec, n, -grid) - (-1) ** n * wavefunction(spec, n, grid))
        for n in range(wn.n_max + 1))
    results.append(CheckResult("wavefunction parity", parity, 1e-12))
    scale = (spec.alpha * spec.hbar) ** 2 / (2.0 * spec.mu)
    energy_dev = max(
        abs(energy(spec, n) + scale * (wn.q - n) ** 2) for n in range(wn.n_max + 1))
    results.append(CheckResult("energy equals -(alpha hbar)^2 eps^2 / 2 mu",
                               energy_dev, 1e-15))
    dense = np.linspace(-12.0 / spec.alpha, 12.0 / spec.alpha, 4801)
    node_dev = 0
    for n in range(wn.n_max + 1):
        values = wavefunction(spec, n, dense)
        signs = np.sign(values[np.abs(values) > 1e-12])
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
    """Closed-form matrix elements against the quadrature oracle."""
    wn = well_numbers(spec)
    if not wn.q_is_integer or round(wn.q) < 2:
        raise DomainError("matrix-element checks need an integer well parameter q >= 2")
    nu = int(round(wn.nu))
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
        CheckResult("derivative matrix antisymmetry", _max_abs(r + r.T), 1e-8),
    ]


def expansion_checks(spec: PotentialSpec,
                     cfg: OracleConfig = OracleConfig()) -> list[CheckResult]:
    """Order-1 identities, series convergence, and the parity pattern of x."""
    wn = well_numbers(spec)
    nu = int(round(wn.nu))
    if not wn.q_is_integer or nu < 7:
        raise DomainError("expansion checks need an integer well parameter q >= 3")
    alpha = spec.alpha
    results = [
        CheckResult("x expansion order 1 equals sinh matrix / alpha",
                    _max_abs(position_matrix_expansion(nu, alpha, 1).entries
                             - sinh_matrix(nu).entries / alpha), 1e-12),
        CheckResult("momentum expansion order 1 equals alpha cosh-derivative matrix",
                    _max_abs(momentum_matrix_expansion(nu, alpha, 1).entries
                             - alpha * cosh_ddx_matrix(nu).entries), 1e-12),
    ]
    x_oracle = observable_matrix(spec, POSITION_X, cfg).entries
    k = min(3, x_oracle.shape[0])
    sub = np.s_[:k, :k]
    series = [position_matrix_expansion(nu, alpha, order).entries for order in (1, 3, 5)]
    devs = [_max_abs(x[sub] - x_oracle[sub]) for x in series]
    worst_step = max(devs[1] - devs[0], devs[2] - devs[1])
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
                               _max_abs(x5[even_mask]), 0.0))
    return results


def _slab_defect(form: PairModel, other: PairModel, cut: str) -> float:
    """max |form - other| over the row slabs, each cut from its first i1 on (``cut``).

    With cut ``first`` the columns j1 >= the slab's first i1 are compared,
    with ``low`` the rows i2 >= it.
    """
    h, g = form.slab_buffer(), form.slab_buffer()
    return max(_max_abs_diff(form.rows(r, out=h, **{cut: r.start}),
                             other.rows(r, out=g, **{cut: r.start}))
               for r in form.slabs())


def _symmetry_defect(form: PairModel) -> float:
    """max |H - H^T| of a factor form.

    |H_ij - H_ji| is the same at (j, i), so each slab is compared from its
    first row's column on, which covers every pair once.
    """
    return _slab_defect(form, form.transposed(), "first")


def _exchange_defect(form: PairModel) -> float:
    """max |H - H swapped| of a factor form, H swapped mapping (i1, i2) to (i2, i1).

    The defect at (i, j) recurs at the swapped (i', j'), so the rows with
    i2 >= the slab's first i1 (every row with i2 >= i1, or its swap)
    cover every value.
    """
    return _slab_defect(form, form.swapped(), "low")


def _polyad_defect(form: PairModel) -> float:
    """max |[H, P]| = max |(P_i - P_j) H_ij| for the polyad operator P = n1 + n2."""
    n = form.n
    polyads = np.array(form.basis.polyads, dtype=float)
    h, t = form.slab_buffer(), form.slab_buffer()

    def slab(r: slice) -> float:
        p = polyads[r.start * n:r.stop * n]
        d = np.subtract.outer(p, polyads, out=t[:p.size * polyads.size].reshape(p.size, -1))
        d *= form.rows(r, out=h)
        return float(np.abs(d, out=d).max())

    return max(map(slab, form.slabs()))


def vibron_checks(spec: PotentialSpec, lam: float = 0.05,
                  cfg: OracleConfig = OracleConfig()) -> list[CheckResult]:
    """Coupled-model structure: coincidence at zero coupling, symmetries, polyad.

    Each coupling is read in factor form (``vibron.PairModel``) and compared
    slab by slab with its transposed or oscillator-swapped form, so no
    d x d matrix is formed; every defect is a max over row slabs.
    """
    wn = well_numbers(spec)
    if not wn.q_is_integer or round(wn.q) < 3:
        raise DomainError("vibron checks need an integer well parameter q >= 3")
    report0 = compare_models(spec, 0.0, cfg)
    coincide = max(max(d) for d in report0.deviations.values())
    exact = coupling(spec, "exact", lam, cfg)
    crude = coupling(spec, "crude", lam, cfg)
    return [
        CheckResult("all model spectra coincide at lambda = 0", coincide, 1e-9),
        CheckResult("crude interaction commutes with polyad", _polyad_defect(crude), 1e-12),
        CheckResult("exact interaction is symmetric", _symmetry_defect(exact), 1e-10),
        CheckResult("models invariant under oscillator exchange",
                    max(_exchange_defect(form) for form in
                        (exact, crude, coupling(spec, "zA-zB", lam, cfg))), 1e-10),
    ]


SUITES = ("algebra", "states", "matelem", "expansion", "vibron", "all")


def suite_for(name: str, spec: PotentialSpec | None, nu: int | None,
              lam: float = 0.05,
              cfg: OracleConfig = OracleConfig()) -> list[CheckResult]:
    """Run one named suite (or all of them) for a well and/or multiplet."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}")
    if name == "algebra":
        if nu is None:
            if spec is None:
                raise DomainError("algebra suite needs --nu or a well")
            wn = well_numbers(spec)
            if not wn.q_is_integer:
                raise DomainError("algebra suite needs an integer well parameter q")
            nu = int(round(wn.nu))
        return algebra_checks(nu)
    if spec is None:
        raise DomainError(f"suite {name!r} needs a well specification")
    if name == "states":
        return states_checks(spec, cfg)
    if name == "matelem":
        return matelem_checks(spec, cfg)
    if name == "expansion":
        return expansion_checks(spec, cfg)
    if name == "vibron":
        return vibron_checks(spec, lam, cfg)
    results = []
    wn = well_numbers(spec)
    if wn.q_is_integer:
        results.extend(algebra_checks(int(round(wn.nu))))
    results.extend(states_checks(spec, cfg))
    q = round(wn.q)
    if wn.q_is_integer and q >= 2:
        results.extend(matelem_checks(spec, cfg))
    if wn.q_is_integer and q >= 3:
        results.extend(expansion_checks(spec, cfg))
        results.extend(vibron_checks(spec, lam, cfg))
    return results
