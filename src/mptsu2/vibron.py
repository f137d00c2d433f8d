"""Two coupled oscillators: su(2) model, exact coupling, and approximations.

Four Hamiltonians over the same two-oscillator product basis are compared:

* the su(2) model with its 1/N-corrected exchange coupling,
* the exact bilinear momentum/position coupling evaluated with oracle
  matrices,
* the crude boson approximation (polyad-conserving exchange only),
* the extended ("zA-zB") approximation whose mixing weights add
  polyad-breaking pair-creation/annihilation blocks.

Every coupling but the exact one has the exchange form
s (c (x) c^T + c^T (x) c) for a single-oscillator creation matrix c, the
``PairModel`` exchange pair: su(2) takes <n+1|c|n> = sqrt(n+1) sqrt(1 - n/N)
and s = lam hbar omega0, the harmonic reference the same c without the 1/N
factor, crude and zA-zB the bosons of ``renormalized_generators`` /
``consistent_boson_ops`` and s = lam hbar omega-tilde.  As hbar omega0 / N
= hbar omega-tilde / nu, the su(2) coupling is the crude coupling, so
``compare_models`` reports the crude solve as its su2 column.  The exact
coupling stays apart: its oracle matrices of x and d/dx connect every
pair of opposite-parity levels, not one step, and it is built from the
self-products R (x) R and x (x) x.

The zA-zB bosons, and why the paper's first-order map is not used for
them, are described at ``approx_interaction``.

``coupled_model`` assembles any one model from a well as a ``pairs.PairModel``;
the public builders form it densely.  Identical oscillators only.  Inputs are
never modified, so callers may share matrices freely across threads.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .expansion import (
    consistent_boson_ops,
    interaction_frequency,
    renormalized_generators,
)
from .oracle import OracleConfig, derivative_matrix, position_from_derivative
from .pairs import PairModel, TwoOscBasis, _solve, pair_basis, spectrum  # re-exports the last two
from .states import OperatorMatrix, PotentialSpec, energy, integer_q, well_numbers

__all__ = [
    "SpectroParams",
    "VibronParams",
    "ComparisonReport",
    "spectro_from_potential",
    "vibron_params_from_spectro",
    "spectro_from_vibron",
    "su2_hamiltonian",
    "diagonal_energies",
    "exact_interaction",
    "approx_interaction",
    "harmonic_model",
    "polyad_operator",
    "coupling",
    "coupled_model",
    "compare_models",
    "INTERACTION_LEVELS",
]

INTERACTION_LEVELS = ("crude", "zA-zB")


class SpectroParams(namedtuple("SpectroParams", "omega_e xe_omega_e")):
    """Spectroscopic constants: harmonic frequency and anharmonicity product."""

    __slots__ = ()

    def __new__(cls, omega_e: float, xe_omega_e: float):
        for name, value in (("omega_e", omega_e), ("xe_omega_e", xe_omega_e)):
            if not 0.0 < value < math.inf:
                raise DomainError(f"spectroscopic constants must be positive and finite: {name}")
        return super().__new__(cls, omega_e, xe_omega_e)


class VibronParams(namedtuple("VibronParams", "N omega0 lam hbar", defaults=(0.0, 1.0))):
    """Algebraic model parameters: boson number N, frequency omega0, coupling."""

    __slots__ = ()

    def __new__(cls, N: int, omega0: float, lam: float = 0.0, hbar: float = 1.0):
        if N < 1 or N != int(N):
            raise DomainError("boson number N must be a positive integer")
        if not omega0 > 0.0:
            raise DomainError("omega0 must be positive")
        return super().__new__(cls, N, omega0, lam, hbar)

    @property
    def energy_quantum(self) -> float:
        return self.hbar * self.omega0


def spectro_from_potential(spec: PotentialSpec) -> SpectroParams:
    """Map well parameters to (omega_e, xe_omega_e)."""
    return SpectroParams(
        omega_e=spec.hbar * interaction_frequency(spec),
        xe_omega_e=(spec.alpha * spec.hbar) ** 2 / (2.0 * spec.mu),
    )


def vibron_params_from_spectro(sp: SpectroParams, lam: float = 0.0,
                               hbar: float = 1.0) -> VibronParams:
    """Invert the spectroscopic map: N = omega_e / xe_omega_e - 1, hbar omega0 = N xe_omega_e.

    The ratio must land on a positive integer (within 1e-9); anharmonic
    ladders that do not are not su(2)-compatible.
    """
    if not 0.0 < hbar < math.inf:
        raise DomainError(f"hbar must be positive and finite, got {hbar}")
    ratio = sp.omega_e / sp.xe_omega_e - 1.0
    if not math.isfinite(ratio):
        raise DomainError(f"omega_e / xe_omega_e overflows: boson number would be {ratio}")
    n_boson = round(ratio)
    if n_boson < 1 or abs(ratio - n_boson) > 1e-9:
        raise DomainError(
            f"well is not su(2)-compatible: boson number would be {ratio}")
    return VibronParams(N=n_boson, omega0=n_boson * sp.xe_omega_e / hbar,
                        lam=lam, hbar=hbar)


def spectro_from_vibron(vp: VibronParams) -> SpectroParams:
    """Forward spectroscopic map (exact inverse of vibron_params_from_spectro)."""
    return SpectroParams(
        omega_e=vp.energy_quantum * (vp.N + 1) / vp.N,
        xe_omega_e=vp.energy_quantum / vp.N,
    )


def _level_energies(spec: PotentialSpec, dim: int) -> np.ndarray:
    return np.array([energy(spec, n) for n in range(dim)])


def _creation(dim: int, n_boson: float = math.inf) -> np.ndarray:
    """Creation matrix <n+1|c|n> = sqrt(n+1) sqrt(1 - n/N); N = inf is harmonic."""
    n = np.arange(dim - 1, dtype=float)
    return np.diag(np.sqrt(n + 1.0) * np.sqrt(1.0 - n / n_boson), -1)


def _su2_model(vp: VibronParams, dim_single: int) -> PairModel:
    if dim_single > vp.N // 2:
        raise DomainError(
            f"basis dimension {dim_single} exceeds the bound count {vp.N // 2}")
    n = np.arange(dim_single, dtype=float)
    # (hbar omega0 / 2) <b+ b + b b+> with sqrt(N)-normalized su(2) bosons,
    # the normalization under which the spectroscopic map is exact.
    single = vp.energy_quantum * ((n + 0.5) - n * n / vp.N)
    return PairModel(_creation(dim_single, vp.N), scale=vp.lam * vp.energy_quantum,
                     single=single)


def su2_hamiltonian(vp: VibronParams, basis: TwoOscBasis) -> OperatorMatrix:
    """Two-oscillator su(2) model matrix: one-body diagonal plus exchange coupling.

    The coupling element between (n1, n2) and (n1+1, n2-1) is
    lam hbar omega0 sqrt(n2 (n1+1)) sqrt((1 - (n2-1)/N)(1 - n1/N)); energies
    on the diagonal are referenced to the well bottom.
    """
    return _su2_model(vp, basis.dim_single).operator()


def diagonal_energies(spec: PotentialSpec, basis: TwoOscBasis) -> OperatorMatrix:
    """Non-interacting two-well Hamiltonian: E_{n1} + E_{n2} on the diagonal."""
    return PairModel(single=_level_energies(spec, basis.dim_single)).operator()


def exact_interaction(spec: PotentialSpec, basis: TwoOscBasis, lam: float,
                      cfg: OracleConfig = OracleConfig()) -> OperatorMatrix:
    """Exact bilinear coupling lam (p1 p2 / mu + mu w^2 x1 x2) over bound states.

    Momentum matrices are -i hbar R with real antisymmetric R, so the product
    contributes -lam hbar^2/mu R (x) R; both tensor terms are real symmetric.
    """
    if basis.dim_single != integer_q(spec, "the exact coupling"):
        raise DomainError("basis dimension must equal the bound-state count")
    return _exact_coupling(spec, lam, cfg).operator()


def _exact_coupling(spec: PotentialSpec, lam: float, cfg: OracleConfig) -> PairModel:
    """lam (-hbar^2/mu (R (x) R) + mu w^2 (X (x) X)), x derived from R projected to (R - R^T) / 2.

    So R is exactly antisymmetric and x exactly symmetric, as ``PairModel``
    requires of its products.  mu w^2 X (x) X is ((alpha hbar k)^2 / mu)
    (alpha X) (x) (alpha X), in range wherever alpha^2 is.
    """
    r = derivative_matrix(spec, cfg).entries
    r = (r - r.T) * 0.5
    ax = spec.alpha * position_from_derivative(spec, r)
    weight = (spec.alpha * spec.hbar * well_numbers(spec).k) ** 2 / spec.mu
    return PairModel(products=((-spec.hbar ** 2 / spec.mu, r), (weight, ax)), scale=lam)


def approx_interaction(nu: int, lam: float, omega_tilde: float,
                       hbar: float = 1.0, level: str = "crude") -> OperatorMatrix:
    """Boson-approximated coupling lam hbar w (c1+ c2 + c1 c2+).

    Level ``crude`` replaces the harmonic-like bosons by the renormalized
    su(2) pair (polyad-conserving exchange only); level ``zA-zB`` keeps the
    mixing weights, adding pair-creation/annihilation blocks that break the
    polyad.

    The zA-zB bosons are ``consistent_boson_ops``: their direct and cross
    channels agree with the x/p bosons to order 1/nu.  The paper's
    first-order map (``approx_boson_ops``) is not used here because its
    own 1/nu corrections are wrong; it overshoots the direct element by
    (1 + n/2)/nu where crude undershoots by (n + 1)/(2 nu), and in deep
    wells it gives eigenvalues far below the exact ground state.  The
    order-1/nu three-step channel -sqrt((n+1)(n+2)(n+3))/(3 nu) (and its
    n -> n-3 partner) lies outside the two-channel form and is left out.
    """
    return PairModel(_boson_creation(nu, level), scale=lam * hbar * omega_tilde).operator()


def _boson_creation(nu: int, level: str) -> np.ndarray:
    if level not in INTERACTION_LEVELS:
        raise DomainError(f"interaction level must be one of {INTERACTION_LEVELS}")
    ops = renormalized_generators(nu) if level == "crude" else consistent_boson_ops(nu)
    return ops.create.entries


def harmonic_model(spec: PotentialSpec, basis: TwoOscBasis, lam: float) -> OperatorMatrix:
    """Fully harmonic description of the coupled pair, as a reference.

    Each well is replaced by its bottom-of-well harmonic ladder
    -D + hbar w (n + 1/2) and the coupling by the harmonic exchange
    lam hbar w sqrt(n2 (n1+1)), the N -> infinity limit of the su(2)
    coupling; this is the traditional description the algebraic models are
    measured against.
    """
    omega = interaction_frequency(spec)
    single = -spec.D + spec.hbar * omega * (np.arange(basis.dim_single) + 0.5)
    return PairModel(_creation(basis.dim_single), scale=lam * spec.hbar * omega,
                     single=single).operator()


def polyad_operator(basis: TwoOscBasis) -> OperatorMatrix:
    """Diagonal matrix of the polyad quantum number n1 + n2."""
    return PairModel(single=np.arange(basis.dim_single, dtype=float)).operator()


class ComparisonReport(NamedTuple):
    """Sorted spectra of the four coupled models and their deviations from exact.

    Eigenvalues are paired by sorted position; ``polyads`` carries the
    polyad of each exact eigenvector's dominant component (its largest
    |component| in the pair basis, found within the eigenvector's exchange
    sector; the first in basis order on ties), which also defines the
    low-polyad (n1 + n2 <= 2) deviation summary.
    """

    q: int
    lam: float
    polyads: tuple[int, ...]
    eigenvalues: dict[str, tuple[float, ...]]
    deviations: dict[str, tuple[float, ...]]
    max_low_polyad_deviation: dict[str, float]

    @property
    def dim(self) -> int:
        return len(self.polyads)


def coupling(spec: PotentialSpec, model: str, lam: float,
             cfg: OracleConfig = OracleConfig()) -> PairModel:
    """The bare coupling of a well's ``exact``, ``crude`` or ``zA-zB`` model, in factor form.

    ``exact`` is ``exact_interaction``'s matrix and the other two
    ``approx_interaction``'s at nu = 2q + 1 and omega-tilde of the well.
    """
    q = integer_q(spec, f"the {model} model")
    if model == "exact":
        return _exact_coupling(spec, lam, cfg)
    return PairModel(_boson_creation(2 * q + 1, model),
                     scale=lam * spec.hbar * interaction_frequency(spec))


def coupled_model(spec: PotentialSpec, model: str, lam: float,
                  cfg: OracleConfig = OracleConfig()) -> PairModel:
    """Two-oscillator Hamiltonian of one model for a well, over its bound pairs, factored.

    ``su2`` is ``su2_hamiltonian``'s model with its well-bottom diagonal;
    ``exact``, ``crude`` and ``zA-zB`` add their ``coupling`` to the
    bound-state diagonal of ``diagonal_energies``.  At lam = 0 those three
    are that diagonal alone, and no coupling (for ``exact``, no oracle
    matrix) is built: without a live term the diagonal is all the solver reads.
    """
    if model == "su2":
        q = integer_q(spec, "the su2 model")
        vp = vibron_params_from_spectro(spectro_from_potential(spec), lam=lam,
                                        hbar=spec.hbar)
        return _su2_model(vp, q)
    if lam == 0.0:
        return PairModel(single=_level_energies(spec, integer_q(spec, f"the {model} model")))
    form = coupling(spec, model, lam, cfg)
    return form.with_diagonal(_level_energies(spec, form.n))


def compare_models(spec: PotentialSpec, lam: float,
                   cfg: OracleConfig = OracleConfig()) -> ComparisonReport:
    """Spectra of the su(2), exact, crude, and zA-zB coupled models.

    All share the non-interacting bound-state diagonal, so at lam = 0 they
    coincide identically and at lam != 0 the comparison isolates the
    interaction treatment.  On that diagonal the su(2) exchange coupling is
    the crude one (lam hbar omega0 / N = lam hbar omega-tilde / nu), so the
    su2 column is the crude solve.  Each model is solved from its factor
    form (``coupled_model``), so no d x d array is formed, only the
    gathered exchange sectors.  Only the exact model's eigenvectors are
    computed; they stay in their sectors, where each one's dominant basis
    index is read off for the polyad labels.
    """
    q = integer_q(spec, "the model comparison")
    exact_vals, dominant = _solve(coupled_model(spec, "exact", lam, cfg))
    polyads = tuple(np.add(*np.divmod(dominant, q)).tolist())
    values = {name: _solve(coupled_model(spec, name, lam, cfg), vectors=False)[0]
              for name in INTERACTION_LEVELS}
    values = {"su2": values["crude"], "exact": exact_vals, **values}
    low = [i for i, p in enumerate(polyads) if p <= 2]
    deviations = {name: tuple(float(abs(v - e)) for v, e in zip(vals, exact_vals))
                  for name, vals in values.items()}
    return ComparisonReport(
        q=q, lam=lam, polyads=polyads,
        eigenvalues={name: tuple(float(v) for v in vals) for name, vals in values.items()},
        deviations=deviations,
        max_low_polyad_deviation={name: max((devs[i] for i in low), default=0.0)
                                  for name, devs in deviations.items()},
    )
