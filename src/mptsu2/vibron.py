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

``coupled_model`` assembles any one model from a well.  Identical
oscillators only.  Spectra come from LAPACK ``eigh`` run on the blocks into
which each matrix decouples exactly; inputs are never modified, so callers
may share matrices freely across threads.

A dense array of the d = q^2 pair space costs q^4 doubles (48 MiB at
q = 50), so every model is kept in factor form (``PairModel``): the pair
diagonal plus a short sum of Kronecker products of n x n factors.  The
solver reads a model's blocks off the factors (``PairModel.labels``:
polyads, polyad parities or single levels) and gathers each block from
them, and the checks bound their defects from the factors alone.  So the
compare, check and CLI paths form no d x d array of any dtype.  Only
``PairModel.operator``, behind the public builders (``su2_hamiltonian``,
``exact_interaction`` and the rest), materialises one, with the same
entries bit for bit, adopted by ``OperatorMatrix`` without a copy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import DomainError
from .expansion import (
    consistent_boson_ops,
    interaction_frequency,
    renormalized_generators,
)
from .ladder import OperatorMatrix, TWO_OSC_KIND
from .oracle import OracleConfig, derivative_matrix, position_from_derivative
from .states import PotentialSpec, energy, integer_q

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
    "PairModel",
    "spectrum",
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


class TwoOscBasis(NamedTuple):
    """Lexicographic product basis |n1, n2> of two identical oscillators."""

    dim_single: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return self.dim_single ** 2

    @property
    def polyads(self) -> tuple[int, ...]:
        return tuple(n1 + n2 for n1, n2 in self.pairs)


def pair_basis(dim_single: int) -> TwoOscBasis:
    if dim_single < 1:
        raise DomainError("basis needs at least one single-oscillator state")
    pairs = tuple((n1, n2) for n1 in range(dim_single) for n2 in range(dim_single))
    return TwoOscBasis(dim_single=dim_single, pairs=pairs)


def _level_energies(spec: PotentialSpec, dim: int) -> np.ndarray:
    return np.array([energy(spec, n) for n in range(dim)])


def _creation(dim: int, n_boson: float = math.inf) -> np.ndarray:
    """Creation matrix <n+1|c|n> = sqrt(n+1) sqrt(1 - n/N); N = inf is harmonic."""
    n = np.arange(dim - 1, dtype=float)
    return np.diag(np.sqrt(n + 1.0) * np.sqrt(1.0 - n / n_boson), -1)


def _slab_entries(d: int) -> int:
    """Entries in one gathered block chunk of a d x d matrix: max(2^13, d^1.5).

    d^1.5 keeps each temporary a 1/sqrt(d) share of one d x d array, and
    the 2^13 floor keeps numpy's per-call cost small next to the arithmetic
    when d is small.
    """
    return max(2 ** 13, d * math.isqrt(d))


def _offsets(m: np.ndarray) -> np.ndarray:
    """The offsets i - j of the nonzero entries m[i, j], ascending and once each."""
    # A set, as a flagless np.unique would import numpy.ma (~10 ms).
    return np.array(sorted(set(np.subtract(*np.nonzero(m)).tolist())), dtype=int)


class PairModel:
    """A two-oscillator matrix in factor form; no d x d array is stored.

    H = scale sum_k w_k A_k (x) B_k over the lexicographic pair basis
    |n1, n2>, summed in term order, plus the pair diagonal e[n1] + e[n2]
    when ``single`` (e) is set.  Consumers read H by gathered blocks
    (``block``), whose layout ``labels`` proves.  Each entry is the product
    A_k[i1, j1] B_k[i2, j2] that ``np.kron`` forms, combined in the same
    order everywhere, so blocks and the dense ``operator`` agree bit for bit.

    Before the diagonal is added, +0.0 turns each -0.0 into +0.0 (-0.0 +
    0.0 = +0.0), as a sum with a dense diagonal matrix would: LAPACK's
    Householder steps take the sign of a zero entry, so the eigenvalues'
    last bits would otherwise depend on how the coupling's products rounded
    to zero.
    """

    __slots__ = ("terms", "scale", "single")

    def __init__(self, terms: tuple[tuple[float, np.ndarray, np.ndarray], ...],
                 scale: float = 1.0, single: np.ndarray | None = None):
        self.terms, self.scale, self.single = terms, scale, single

    @property
    def n(self) -> int:
        """Single-oscillator dimension."""
        return len(self.single) if self.single is not None else self.terms[0][1].shape[0]

    @property
    def dim(self) -> int:
        return self.n ** 2

    @property
    def basis(self) -> TwoOscBasis:
        return pair_basis(self.n)

    def with_diagonal(self, single: np.ndarray) -> PairModel:
        return PairModel(self.terms, self.scale, single)

    def _combine(self, product: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 shape: tuple[int, ...]) -> np.ndarray:
        """scale sum_k w_k product(A_k, B_k), or zeros without terms."""
        if not self.terms:
            return np.zeros(shape)
        h = None
        for w, a, b in self.terms:
            t = product(a, b)
            if w != 1.0:
                t *= w
            h = t if h is None else np.add(h, t, out=h)
        h *= self.scale
        return h

    def labels(self) -> np.ndarray:
        """Each pair index's block label, the lowest index in its block, proven in O(n^2).

        A product A_k[i1, j1] B_k[i2, j2] moves the polyad n1 + n2 by
        (i1 - j1) + (i2 - j2).  With g the gcd of these steps over the
        nonzero products of live terms, H and H^T are zero between pairs
        whose polyads differ modulo g: the blocks are polyads (g = 0),
        polyad parities (g = 2), or single levels without a live term.
        Non-finite factors, weights, scale or diagonal are rejected
        (``DomainError``): inf * 0 would put NaN between the blocks.
        """
        parts = [] if self.single is None else [self.single]
        if self.terms:
            parts += [self.scale, *(x for term in self.terms for x in term)]
        if not all(np.isfinite(p).all() for p in parts):
            raise DomainError("matrix has a non-finite entry")
        live = [(a, b) for w, a, b in self.terms if w != 0.0 and self.scale != 0.0]
        if not live:
            return np.arange(self.dim)

        g = np.gcd.reduce(np.concatenate(
            [np.add.outer(_offsets(a), _offsets(b)).ravel() for a, b in live]))
        polyad = np.add.outer(np.arange(self.n), np.arange(self.n)).ravel()
        _, first, key = np.unique(polyad % g if g else polyad,
                                  return_index=True, return_inverse=True)
        return first[key]

    def block(self, idx: np.ndarray) -> np.ndarray:
        """H[idx[b], idx[b]] for each row b of idx (k, s), as a new (k, s, s) array."""
        i1, i2 = np.divmod(idx, self.n)
        stack = np.arange(len(idx))[:, None]

        def gather(m: np.ndarray, i: np.ndarray) -> np.ndarray:
            # m[i[b, :, None], i[b, None, :]] for each block b, copied row by
            # row from m[:, i], several times faster than the 2-d fancy index.
            return m[:, i].transpose(1, 0, 2)[stack, i]

        def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            t = gather(a, i1)
            t *= gather(b, i2)
            return t

        h = self._combine(product, idx.shape + idx.shape[-1:])
        if self.single is not None:
            h += 0.0
            k = np.arange(idx.shape[1])
            h[:, k, k] += self.single[i1] + self.single[i2]
        return h

    def operator(self) -> OperatorMatrix:
        """The dense, frozen matrix, adopted by ``OperatorMatrix`` uncopied.

        Formed n rows at a time, rows i n to (i + 1) n being ``_combine`` of
        np.kron(A_k[i:i + 1], B_k), so that one d x d array is held.
        """
        n, h = self.n, np.empty((self.dim, self.dim))
        for i in range(n):
            h[i * n:(i + 1) * n] = self._combine(lambda a, b, i=i: np.kron(a[i:i + 1], b),
                                                 (n, self.dim))
        if self.single is not None:
            h += 0.0
            h.reshape(-1)[::self.dim + 1] += np.add.outer(self.single, self.single).ravel()
        h.setflags(write=False)
        return OperatorMatrix(h, self.basis.pairs, TWO_OSC_KIND)


def _exchange(create: np.ndarray, scale: float) -> PairModel:
    """Exchange coupling scale (c1+ c2 + c1 c2+) = scale (c (x) c^T + c^T (x) c).

    The transpose swaps the two terms, whose products are the same, so the
    coupling is symmetric bit for bit.
    """
    t = np.ascontiguousarray(create.T)  # np.kron copies its product for a transposed view
    return PairModel(((1.0, create, t), (1.0, t, create)), scale)


def _su2_model(vp: VibronParams, dim_single: int) -> PairModel:
    if dim_single > vp.N // 2:
        raise DomainError(
            f"basis dimension {dim_single} exceeds the bound count {vp.N // 2}")
    n = np.arange(dim_single, dtype=float)
    # (hbar omega0 / 2) <b+ b + b b+> with sqrt(N)-normalized su(2) bosons,
    # the normalization under which the spectroscopic map is exact.
    single = vp.energy_quantum * ((n + 0.5) - n * n / vp.N)
    exchange = _exchange(_creation(dim_single, vp.N), vp.lam * vp.energy_quantum)
    return exchange.with_diagonal(single)


def su2_hamiltonian(vp: VibronParams, basis: TwoOscBasis) -> OperatorMatrix:
    """Two-oscillator su(2) model matrix: one-body diagonal plus exchange coupling.

    The coupling element between (n1, n2) and (n1+1, n2-1) is
    lam hbar omega0 sqrt(n2 (n1+1)) sqrt((1 - (n2-1)/N)(1 - n1/N)); energies
    on the diagonal are referenced to the well bottom.
    """
    return _su2_model(vp, basis.dim_single).operator()


def diagonal_energies(spec: PotentialSpec, basis: TwoOscBasis) -> OperatorMatrix:
    """Non-interacting two-well Hamiltonian: E_{n1} + E_{n2} on the diagonal."""
    return PairModel((), single=_level_energies(spec, basis.dim_single)).operator()


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
    """lam (-hbar^2/mu (R (x) R) + mu w^2 (X (x) X)) from one R; x is derived from it."""
    r = derivative_matrix(spec, cfg).entries
    x = position_from_derivative(spec, r)
    return PairModel(((-spec.hbar ** 2 / spec.mu, r, r),
                      (spec.mu * interaction_frequency(spec) ** 2, x, x)), lam)


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
    return _exchange(_boson_creation(nu, level), lam * hbar * omega_tilde).operator()


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
    exchange = _exchange(_creation(basis.dim_single), lam * spec.hbar * omega)
    return exchange.with_diagonal(single).operator()


def polyad_operator(basis: TwoOscBasis) -> OperatorMatrix:
    """Diagonal matrix of the polyad quantum number n1 + n2."""
    return PairModel((), single=np.arange(basis.dim_single, dtype=float)).operator()


def _symmetric_blocks(model: PairModel) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The blocks into which (H + H^T) / 2 decouples exactly, stacked by size.

    The blocks are the model's ``labels``, read off its factors.  H and H^T
    are exactly zero between them, so each gathered block is checked for a
    non-finite entry, then for an asymmetry |H - H^T| above 1e-9
    (``DomainError``).  Blocks of equal size s come as ``(idx, stack)``: row
    b of ``idx`` (k, s) lists one block's basis indices ascending, and
    ``stack[b]`` is that block, gathered about ``_slab_entries(d)`` entries
    (at least one block) at a time and symmetrized as (b + b^T) * 0.5, bit
    for bit the entries a whole-matrix symmetrization gives.
    """
    d = model.dim
    label = model.labels()
    size = np.bincount(label, minlength=d)[label]
    order = np.lexsort((label, size))
    start = 0
    for s, count in zip(*np.unique(size[order], return_counts=True)):
        idx = order[start:start + count].reshape(-1, s)
        start += count
        stack = np.empty((count // s, s, s))
        step = max(1, _slab_entries(d) // (s * s))
        for b in range(0, len(idx), step):
            g = model.block(idx[b:b + step])
            # NaN propagates through min and max, which need no temporary.
            if not (np.isfinite(g.min()) and np.isfinite(g.max())):
                raise DomainError("matrix has a non-finite entry")
            t = np.subtract(g, g.transpose(0, 2, 1), out=stack[b:b + step])
            if np.abs(t, out=t).max() > 1e-9:
                raise DomainError("matrix is not symmetric within 1e-9")
            np.add(g, g.transpose(0, 2, 1), out=t)
            del g
        stack *= 0.5
        yield idx, stack


def _solve(model: PairModel) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues, each with its eigenvector's dominant basis index.

    Each stack of ``_symmetric_blocks`` is one LAPACK ``eigh`` call.  The
    dominant index is the largest |component|, the first in basis order on
    ties, found per block, where the eigenvectors live.  The sort is stable.
    """
    values = np.empty(model.dim)
    dominant = np.empty(model.dim, dtype=int)
    for idx, stack in _symmetric_blocks(model):
        w, v = np.linalg.eigh(stack)
        values[idx] = w
        # argmax along axis 1 would copy v to make that axis contiguous; the
        # first entry equal to the column maximum is the same index.
        size = np.abs(v, out=v)
        top = (size == size.max(axis=1, keepdims=True)).argmax(axis=1)
        dominant[idx] = np.take_along_axis(idx, top, axis=1)
    order = np.argsort(values, kind="stable")
    return values[order], dominant[order]


def spectrum(model: PairModel) -> list[float]:
    """Ascending eigenvalues of a (nearly) symmetric two-oscillator matrix in factor form.

    The model must be finite and symmetric within 1e-9 elementwise
    (``DomainError`` otherwise, also for any input that is not a
    ``PairModel``).  It is neither copied nor modified: the solver reads
    the blocks off the factors and gathers each exactly decoupled block of
    (H + H^T) / 2 for LAPACK, with no d x d array.  Eigenvectors are not
    kept.
    """
    if not isinstance(model, PairModel):
        raise DomainError("spectrum solves a PairModel (see coupled_model); "
                          "use numpy.linalg.eigvalsh for a dense matrix")
    return _solve(model)[0].tolist()


class ComparisonReport(NamedTuple):
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


def coupling(spec: PotentialSpec, model: str, lam: float,
             cfg: OracleConfig = OracleConfig()) -> PairModel:
    """The bare coupling of a well's ``exact``, ``crude`` or ``zA-zB`` model, in factor form.

    ``exact`` is ``exact_interaction``'s matrix and the other two
    ``approx_interaction``'s at nu = 2q + 1 and omega-tilde of the well.
    """
    q = integer_q(spec, f"the {model} model")
    if model == "exact":
        return _exact_coupling(spec, lam, cfg)
    return _exchange(_boson_creation(2 * q + 1, model),
                     lam * spec.hbar * interaction_frequency(spec))


def coupled_model(spec: PotentialSpec, model: str, lam: float,
                  cfg: OracleConfig = OracleConfig()) -> PairModel:
    """Two-oscillator Hamiltonian of one model for a well, over its bound pairs, factored.

    ``su2`` is ``su2_hamiltonian``'s model with its well-bottom diagonal;
    ``exact``, ``crude`` and ``zA-zB`` add their ``coupling`` to the
    bound-state diagonal of ``diagonal_energies``.
    """
    if model == "su2":
        q = integer_q(spec, "the su2 model")
        vp = vibron_params_from_spectro(spectro_from_potential(spec), lam=lam,
                                        hbar=spec.hbar)
        return _su2_model(vp, q)
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
    gathered blocks.  The exact eigenvectors stay in their blocks, where
    each one's dominant basis index is read off for the polyad labels.
    """
    q = integer_q(spec, "the model comparison")
    exact_vals, dominant = _solve(coupled_model(spec, "exact", lam, cfg))
    polyads = tuple(np.add(*np.divmod(dominant, q)).tolist())
    values = {name: _solve(coupled_model(spec, name, lam, cfg))[0]
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
