"""Two coupled oscillators: su(2) model, exact coupling, and approximations.

Four Hamiltonians over the same two-oscillator product basis are compared:

* the su(2) model with its 1/N-corrected exchange coupling,
* the exact bilinear momentum/position coupling evaluated with oracle
  matrices,
* the crude boson approximation (polyad-conserving exchange only),
* the extended ("zA-zB") approximation whose mixing weights add
  polyad-breaking pair-creation/annihilation blocks.

Every coupling but the exact one has the exchange form
s (c (x) c^T + c^T (x) c) for a single-oscillator creation matrix c, built
by one Kronecker helper: su(2) takes <n+1|c|n> = sqrt(n+1) sqrt(1 - n/N)
and s = lam hbar omega0, the harmonic reference the same c without the 1/N
factor, crude and zA-zB the bosons of ``renormalized_generators`` /
``consistent_boson_ops`` and s = lam hbar omega-tilde.  As hbar omega0 / N
= hbar omega-tilde / nu, the su(2) coupling is the crude coupling, so
``compare_models`` reports the crude solve as its su2 column.  The exact
coupling stays apart: its oracle matrices of x and d/dx connect every
pair of opposite-parity levels, not one step.

The zA-zB bosons, and why the paper's first-order map is not used for
them, are described at ``approx_interaction``.

``coupled_hamiltonian`` assembles any one model from a well.  Identical
oscillators only.  Spectra come from LAPACK ``eigh`` run on the blocks into
which each matrix decouples exactly (the connected components of its
nonzero pattern); inputs are never modified, so callers may share matrices
freely across threads.

Every dense temporary of the d = q^2 pair space costs q^4 doubles (48 MiB
at q = 50), so each model is built, symmetrized and checked in one d x d
array: the Kronecker products are written into its (n, n, n, n) view slab
by slab, the bound-state diagonal is added into it, and the exact
symmetrization works on it in row slabs.  Frozen, that array is adopted
by ``OperatorMatrix`` without a copy.  No d x d eigenvector matrix is
formed: ``spectrum`` keeps only eigenvalues, and ``compare_models`` takes
each exact eigenvector's dominant basis index inside its block.  Every
other temporary is one slab of about max(2^14, d^1.5) entries
(``_slabs``), so building a model, or comparing all four at zero
coupling, holds one dense d x d array at a time; at nonzero coupling
LAPACK's stacked blocks add about one more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError
from .expansion import (
    consistent_boson_ops,
    interaction_frequency,
    renormalized_generators,
)
from .ladder import OperatorMatrix, TWO_OSC_KIND
from .oracle import OracleConfig, derivative_matrix, position_from_derivative
from .states import PotentialSpec, energy, well_numbers

__all__ = [
    "SpectroParams",
    "VibronParams",
    "TwoOscBasis",
    "ComparisonReport",
    "spectro_from_potential",
    "vibron_params_from_spectro",
    "spectro_from_vibron",
    "pair_basis",
    "su2_hamiltonian",
    "diagonal_energies",
    "exact_interaction",
    "approx_interaction",
    "harmonic_model",
    "polyad_operator",
    "spectrum",
    "coupled_hamiltonian",
    "compare_models",
    "INTERACTION_LEVELS",
]

INTERACTION_LEVELS = ("crude", "zA-zB")


@dataclass(frozen=True)
class SpectroParams:
    """Spectroscopic constants: harmonic frequency and anharmonicity product."""

    omega_e: float
    xe_omega_e: float

    def __post_init__(self):
        if not (self.omega_e > 0.0 and self.xe_omega_e > 0.0):
            raise DomainError("spectroscopic constants must be positive")


@dataclass(frozen=True)
class VibronParams:
    """Algebraic model parameters: boson number N, frequency omega0, coupling."""

    N: int
    omega0: float
    lam: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.N < 1 or self.N != int(self.N):
            raise DomainError("boson number N must be a positive integer")
        if not self.omega0 > 0.0:
            raise DomainError("omega0 must be positive")

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
    ratio = sp.omega_e / sp.xe_omega_e - 1.0
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


@dataclass(frozen=True)
class TwoOscBasis:
    """Lexicographic product basis |n1, n2> of two identical oscillators."""

    dim_single: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return self.dim_single ** 2

    def polyad(self, index: int) -> int:
        n1, n2 = self.pairs[index]
        return n1 + n2

    @property
    def polyads(self) -> tuple[int, ...]:
        return tuple(n1 + n2 for n1, n2 in self.pairs)


def pair_basis(dim_single: int) -> TwoOscBasis:
    if dim_single < 1:
        raise DomainError("basis needs at least one single-oscillator state")
    pairs = tuple((n1, n2) for n1 in range(dim_single) for n2 in range(dim_single))
    return TwoOscBasis(dim_single=dim_single, pairs=pairs)


def _add_pair_diagonal(h: np.ndarray, single: np.ndarray) -> np.ndarray:
    """Add e[n1] + e[n2] to the diagonal of h in place, over the lexicographic pair basis.

    Adding +0.0 first turns each -0.0 of h into +0.0 (-0.0 + 0.0 = +0.0), as
    a sum with a dense diagonal matrix would: LAPACK's Householder steps take
    the sign of a zero entry, so the eigenvalues' last bits would otherwise
    depend on how the coupling's products rounded to zero.
    """
    h += 0.0
    i = np.arange(h.shape[0])
    h[i, i] += np.add.outer(single, single).ravel()
    return h


def _level_energies(spec: PotentialSpec, dim: int) -> np.ndarray:
    return np.array([energy(spec, n) for n in range(dim)])


def _creation(dim: int, n_boson: float = math.inf) -> np.ndarray:
    """Creation matrix <n+1|c|n> = sqrt(n+1) sqrt(1 - n/N); N = inf is harmonic."""
    n = np.arange(dim - 1, dtype=float)
    return np.diag(np.sqrt(n + 1.0) * np.sqrt(1.0 - n / n_boson), -1)


def _slabs(d: int, count: int) -> list[slice]:
    """Group the ``count`` equal row blocks of a d x d array into consecutive slabs.

    A slab spans about max(2^14, d^1.5) entries: d^1.5 keeps each
    temporary a 1/sqrt(d) share of one d x d array, and the 2^14 floor
    keeps numpy's per-call cost small next to the arithmetic when d is
    small.
    """
    step = max(1, max(2 ** 14, d * math.isqrt(d)) * count // (d * d or 1))
    return [slice(r, r + step) for r in range(0, count, step)]


def _kron_rows(a: np.ndarray, b: np.ndarray, rows: slice,
               out: np.ndarray | None = None) -> np.ndarray:
    """The i1 in ``rows`` of np.kron(a, b), in its (n, n, n, n) view.

    Each entry is the product a[i1, j1] * b[i2, j2] that ``np.kron`` forms.
    """
    return np.multiply(a[rows, None, :, None], b[None, :, None, :], out=out)


def _exchange(create: np.ndarray, scale: float) -> np.ndarray:
    """Exchange coupling scale (c1+ c2 + c1 c2+) = scale (c (x) c^T + c^T (x) c).

    c^T (x) c is (c (x) c^T)^T entry for entry (the same products), so the
    result is symmetric bit for bit.  Both products are formed slab by slab
    into the one d x d result.
    """
    n = create.shape[0]
    h = np.empty((n * n, n * n))
    h4 = h.reshape(n, n, n, n)
    for rows in _slabs(n * n, n):
        slab = _kron_rows(create, create.T, rows, out=h4[rows])
        slab += _kron_rows(create.T, create, rows)
        slab *= scale
    return h


def _pair_operator(h: np.ndarray, pairs: tuple) -> OperatorMatrix:
    """Freeze a newly built pair-space matrix, so ``OperatorMatrix`` adopts it uncopied."""
    h.setflags(write=False)
    return OperatorMatrix(h, pairs, TWO_OSC_KIND)


def su2_hamiltonian(vp: VibronParams, basis: TwoOscBasis) -> OperatorMatrix:
    """Two-oscillator su(2) model matrix: one-body diagonal plus exchange coupling.

    The coupling element between (n1, n2) and (n1+1, n2-1) is
    lam hbar omega0 sqrt(n2 (n1+1)) sqrt((1 - (n2-1)/N)(1 - n1/N)); energies
    on the diagonal are referenced to the well bottom.
    """
    if basis.dim_single > vp.N // 2:
        raise DomainError(
            f"basis dimension {basis.dim_single} exceeds the bound count {vp.N // 2}")
    n = np.arange(basis.dim_single, dtype=float)
    # (hbar omega0 / 2) <b+ b + b b+> with sqrt(N)-normalized su(2) bosons,
    # the normalization under which the spectroscopic map is exact.
    single = vp.energy_quantum * ((n + 0.5) - n * n / vp.N)
    h = _exchange(_creation(basis.dim_single, vp.N), vp.lam * vp.energy_quantum)
    return _pair_operator(_add_pair_diagonal(h, single), basis.pairs)


def diagonal_energies(spec: PotentialSpec, basis: TwoOscBasis) -> OperatorMatrix:
    """Non-interacting two-well Hamiltonian: E_{n1} + E_{n2} on the diagonal."""
    h = np.zeros((basis.dim, basis.dim))
    return _pair_operator(_add_pair_diagonal(h, _level_energies(spec, basis.dim_single)),
                          basis.pairs)


def exact_interaction(spec: PotentialSpec, basis: TwoOscBasis, lam: float,
                      cfg: OracleConfig = OracleConfig()) -> OperatorMatrix:
    """Exact bilinear coupling lam (p1 p2 / mu + mu w^2 x1 x2) over bound states.

    Momentum matrices are -i hbar R with real antisymmetric R, so the product
    contributes -lam hbar^2/mu R (x) R; both tensor terms are real symmetric.
    """
    wn = well_numbers(spec)
    if not wn.q_is_integer:
        raise DomainError("the exact coupled model requires an integer well parameter q")
    if basis.dim_single != wn.n_max + 1:
        raise DomainError("basis dimension must equal the bound-state count")
    return _pair_operator(_exact_coupling(spec, lam, cfg), basis.pairs)


def _exact_coupling(spec: PotentialSpec, lam: float, cfg: OracleConfig) -> np.ndarray:
    """The matrix of ``exact_interaction``, formed slab by slab from one R.

    Each entry is lam (-hbar^2/mu (R (x) R) + mu w^2 (X (x) X)), rounded as
    the whole-matrix Kronecker products would be.
    """
    r = derivative_matrix(spec, cfg).entries
    x = position_from_derivative(spec, r)
    rr_scale = -spec.hbar ** 2 / spec.mu
    xx_scale = spec.mu * interaction_frequency(spec) ** 2
    n = r.shape[0]
    h = np.empty((n * n, n * n))
    h4 = h.reshape(n, n, n, n)
    for rows in _slabs(n * n, n):
        slab = _kron_rows(r, r, rows, out=h4[rows])
        slab *= rr_scale
        xx = _kron_rows(x, x, rows)
        xx *= xx_scale
        slab += xx
        slab *= lam
    return h


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
    create = _boson_creation(nu, level)
    basis = pair_basis(create.shape[0])
    return _pair_operator(_exchange(create, lam * hbar * omega_tilde), basis.pairs)


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
    h = _exchange(_creation(basis.dim_single), lam * spec.hbar * omega)
    return _pair_operator(_add_pair_diagonal(h, single), basis.pairs)


def polyad_operator(basis: TwoOscBasis) -> OperatorMatrix:
    """Diagonal matrix of the polyad quantum number n1 + n2."""
    return _pair_operator(np.diag([float(p) for p in basis.polyads]), basis.pairs)


def _block_labels(a: np.ndarray) -> np.ndarray:
    """Label each index by the lowest index of its connected component.

    The components are those of the exact nonzero pattern off the diagonal;
    isolated levels keep their own label without a search, so a diagonal
    matrix costs no Python loop.
    """
    n = a.shape[0]
    linked = a != 0.0
    np.fill_diagonal(linked, False)
    label = np.arange(n)
    for seed in np.flatnonzero(linked.any(axis=1)):
        if label[seed] != seed:
            continue
        reach = np.zeros(n, dtype=bool)
        reach[seed] = True
        frontier = reach.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~reach
            reach |= frontier
        label[reach] = seed
    return label


def _eigh_blocks(a: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """LAPACK ``eigh`` of a symmetric matrix on the blocks into which it decouples exactly.

    The blocks are the connected components of the exact nonzero pattern
    (polyads for su2 and crude, polyad parity for exact and zA-zB, single
    levels at zero coupling).  Entries between blocks are exactly zero, so
    the eigenpairs of the blocks are those of the whole matrix.  Blocks of
    equal size s go to LAPACK as one stacked call, which yields
    ``(idx, w, v)``: row b of ``idx`` (k, s) lists one block's basis indices
    ascending, ``w[b]`` its eigenvalues ascending and the columns of
    ``v[b]`` (s, s) its eigenvectors.  No d x d eigenvector matrix is formed.
    """
    label = _block_labels(a)
    size = np.bincount(label, minlength=a.shape[0])[label]
    order = np.lexsort((label, size))
    start = 0
    for s, count in zip(*np.unique(size[order], return_counts=True)):
        idx = order[start:start + count].reshape(-1, s)
        start += count
        w, v = np.linalg.eigh(a[idx[:, :, None], idx[:, None, :]])
        yield idx, w, v


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """Overwrite a with (a + a^T) / 2, once a is finite and symmetric within 1e-9.

    Works on row slabs (``_slabs``), pairing each slab's rows with the
    matching columns; entries (i, j) and (j, i) of the result are equal bit
    for bit because IEEE addition commutes.  If the symmetry gate fails, a
    is left part-way.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("spectrum requires a square matrix")
    slabs = _slabs(a.shape[0], a.shape[0])
    if not all(np.isfinite(a[s]).all() for s in slabs):
        raise DomainError("matrix has a non-finite entry")
    for s in slabs:
        upper, lower = a[s, s.start:], a[s.start:, s].T
        t = np.subtract(upper, lower)
        if np.abs(t, out=t).max() > 1e-9:
            raise DomainError("matrix is not symmetric within 1e-9")
        np.add(upper, lower, out=t)
        t *= 0.5
        upper[...] = t
        lower[...] = t
    return a


def _solve(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues, each with its eigenvector's dominant basis index.

    The dominant index is the largest |component|, the first in basis order
    on ties; it is found per block, where the eigenvectors live.  The sort
    is stable.
    """
    values = np.empty(sym.shape[0])
    dominant = np.empty(sym.shape[0], dtype=int)
    for idx, w, v in _eigh_blocks(sym):
        values[idx] = w
        dominant[idx] = np.take_along_axis(idx, np.abs(v, out=v).argmax(axis=1), axis=1)
    order = np.argsort(values, kind="stable")
    return values[order], dominant[order]


def spectrum(matrix: OperatorMatrix | np.ndarray) -> list[float]:
    """Ascending eigenvalues of a (nearly) symmetric matrix.

    The input must be finite and symmetric within 1e-9 elementwise
    (``DomainError`` otherwise).  It is copied once and never modified; the
    copy is symmetrized exactly in place and solved by LAPACK on its exactly
    decoupled blocks.  Eigenvectors are not kept.
    """
    a = matrix.entries if isinstance(matrix, OperatorMatrix) else matrix
    return _solve(_symmetrize(np.array(a, dtype=float)))[0].tolist()


@dataclass(frozen=True)
class ComparisonReport:
    """Sorted spectra of the four coupled models and their deviations from exact.

    Eigenvalues are paired by sorted position; ``polyads`` carries the
    polyad of each exact eigenvector's dominant component (its largest
    |component|, found within the eigenvector's block; the first in basis
    order on ties), which also defines the low-polyad (n1 + n2 <= 2)
    deviation summary.
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


def coupled_hamiltonian(spec: PotentialSpec, model: str, lam: float,
                        cfg: OracleConfig = OracleConfig()) -> OperatorMatrix:
    """Two-oscillator Hamiltonian of one model for a well, over its bound pairs.

    ``su2`` is ``su2_hamiltonian`` with its well-bottom diagonal; ``exact``,
    ``crude`` and ``zA-zB`` add their coupling to the bound-state diagonal
    ``diagonal_energies``.
    """
    wn = well_numbers(spec)
    if not wn.q_is_integer:
        raise DomainError("coupled models need an integer well parameter q")
    basis = pair_basis(wn.n_max + 1)
    if model == "su2":
        vp = vibron_params_from_spectro(spectro_from_potential(spec), lam=lam,
                                        hbar=spec.hbar)
        return su2_hamiltonian(vp, basis)
    return _pair_operator(_coupled_matrix(spec, model, lam, cfg), basis.pairs)


def _coupled_matrix(spec: PotentialSpec, model: str, lam: float,
                    cfg: OracleConfig) -> np.ndarray:
    """The new, writeable matrix of ``coupled_hamiltonian`` for any model but su2."""
    wn = well_numbers(spec)
    if model == "exact":
        if round(wn.q) < 3:
            raise DomainError("the exact coupled model requires q >= 3")
        h = _exact_coupling(spec, lam, cfg)
    else:
        h = _exchange(_boson_creation(int(round(wn.nu)), model),
                      lam * spec.hbar * interaction_frequency(spec))
    return _add_pair_diagonal(h, _level_energies(spec, wn.n_max + 1))


def compare_models(spec: PotentialSpec, lam: float,
                   cfg: OracleConfig = OracleConfig()) -> ComparisonReport:
    """Spectra of the su(2), exact, crude, and zA-zB coupled models.

    All share the non-interacting bound-state diagonal, so at lam = 0 they
    coincide identically and at lam != 0 the comparison isolates the
    interaction treatment.  On that diagonal the su(2) exchange coupling is
    the crude one (lam hbar omega0 / N = lam hbar omega-tilde / nu), so the
    su2 column is the crude solve.  The exact eigenvectors are never
    gathered into one matrix: each one's dominant basis index is read off
    inside its block, which is all the polyad labels need.  Each
    Hamiltonian is built and symmetrized in its own one d x d array, which
    is dropped before the next is built.
    """
    wn = well_numbers(spec)
    if not wn.q_is_integer or round(wn.q) < 3:
        raise DomainError("model comparison requires an integer well parameter q >= 3")
    exact_vals, dominant = _solve(_symmetrize(_coupled_matrix(spec, "exact", lam, cfg)))
    pairs = pair_basis(wn.n_max + 1)
    polyads = tuple(pairs.polyad(int(i)) for i in dominant)
    values = {name: _solve(_symmetrize(_coupled_matrix(spec, name, lam, cfg)))[0]
              for name in INTERACTION_LEVELS}
    values = {"su2": values["crude"], "exact": exact_vals, **values}
    low = [i for i, p in enumerate(polyads) if p <= 2]
    deviations = {name: tuple(float(abs(v - e)) for v, e in zip(vals, exact_vals))
                  for name, vals in values.items()}
    return ComparisonReport(
        q=int(round(wn.q)), lam=lam, polyads=polyads,
        eigenvalues={name: tuple(float(v) for v in vals) for name, vals in values.items()},
        deviations=deviations,
        max_low_polyad_deviation={name: max((devs[i] for i in low), default=0.0)
                                  for name, devs in deviations.items()},
    )
