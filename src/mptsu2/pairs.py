"""The two-oscillator pair space in factor form, its block solver and its bounds.

A d x d array of the d = q^2 pairs costs 48 MiB at q = 50, so blocks, spectra and
bounds come from a model's n x n factors; ``_symmetry_bound`` gates both solver and verify.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import DomainError
from .states import TWO_OSC_KIND, OperatorMatrix

__all__ = ["TwoOscBasis", "pair_basis", "PairModel", "spectrum"]


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


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def _slab_entries(d: int) -> int:
    """Entries in the largest temporary of one gathered chunk of d pairs: max(2^13, d).

    d keeps each temporary the size of the eigenvalue array the solve
    returns, and the 2^13 floor keeps numpy's per-call cost small next to
    the arithmetic when d is small.
    """
    return max(2 ** 13, d)


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

    A block adds +0.0, turning each -0.0 into +0.0, as ``operator`` does
    with a diagonal: LAPACK's Householder steps take the sign of a zero, so
    the eigenvalues' last bits would otherwise depend on how products
    rounded to zero, and blocks symmetric by value would not be bitwise.
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
        """
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
        h += 0.0
        if self.single is not None:
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


def _bound(form: PairModel, defect: Callable[..., float], roundings: int,
           image: Callable[..., tuple] | None = None) -> float:
    """A bound, from the n x n factors, on a defect of ``form``'s entries as computed.

    |scale| sum_k |w_k| defect(A_k, B_k) bounds the exact defect.  An entry
    of m terms rounds m + 2 times, so it lies within gamma M of its exact
    value, gamma = (m + 2) u / (1 - (m + 2) u), M = |scale| sum_k |w_k|
    max|A_k| max|B_k|; ``roundings`` counts the entries a defect subtracts.
    The factor 1 + 4 gamma covers the relative rounding of a scaled entry
    and of the bound itself.  inf when M, formed in the order of the
    entries' products, is not finite: an entry can overflow.

    For |H - H'|, H' summing each term's ``image`` (w, A', B'), a term adds
    exactly 0 when its products equal its image's by value (A = +-A', B =
    +-B'), as do the first two when each is the other's image (fl(a + b) =
    fl(b + a)); with every term so proven, the bound is 0.
    """
    def same(s: tuple, t: tuple) -> bool:
        return s[0] == t[0] and any(np.array_equal(s[1:], k * np.array(t[1:])) for k in (1, -1))

    s = abs(form.scale)
    big = s * sum(abs(w) * (_max_abs(a) * _max_abs(b)) for w, a, b in form.terms)
    if not math.isfinite(big):
        return math.inf
    proven = [image is not None and same(t, image(*t)) for t in form.terms]
    if image is not None and len(proven) > 1 and same(form.terms[1], image(*form.terms[0])):
        proven[:2] = True, True
    if all(proven):
        return 0.0
    ops = (len(form.terms) + 2) * 2.0 ** -53
    gamma = ops / (1.0 - ops)
    total = s * sum(abs(w) * defect(a, b)
                    for (w, a, b), p in zip(form.terms, proven) if not p)
    return (total + roundings * gamma * big) * (1.0 + 4.0 * gamma)


def _symmetry_bound(form: PairModel) -> float:
    """Bounds max |H - H^T| of a model's coupling.

    With A^T = sA + dA and B^T = sB + dB for a sign s = +-1, A^T (x) B^T
    - A (x) B = s A (x) dB + s dA (x) B + dA (x) dB; each term takes the s
    that gives the smaller bound.
    """
    def defect(a: np.ndarray, b: np.ndarray, sign: float) -> float:
        da, db = _max_abs(a.T - sign * a), _max_abs(b.T - sign * b)
        return _max_abs(a) * db + da * _max_abs(b) + da * db

    return _bound(form, lambda a, b: min(defect(a, b, 1.0), defect(a, b, -1.0)), 2,
                  lambda w, a, b: (w, a.T, b.T))


def _exchange_bound(form: PairModel) -> float:
    """Bounds max |H - H swapped| of a coupling, H swapped = scale sum_k w_k B_k (x) A_k.

    An unproven term is bounded by A (x) B - B (x) A = A (x) D - D (x) A, D = B - A.
    """
    return _bound(form, lambda a, b: 2.0 * min(_max_abs(a), _max_abs(b)) * _max_abs(b - a),
                  2, lambda w, a, b: (w, b, a))


def _polyad_bound(form: PairModel) -> float:
    """Bounds max |[H, P]| = max |(P_i - P_j) H_ij| of a coupling, P = n1 + n2.

    A product A_k[i1, j1] B_k[i2, j2] lies on the diagonals u = i1 - j1 and
    v = i2 - j2 of its factors and moves the polyad by u + v, so the
    defect is 0 when every nonzero product conserves the polyad.
    """
    def peaks(m: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        return np.array([_max_abs(np.diagonal(m, -k)) for k in offsets])

    def defect(a: np.ndarray, b: np.ndarray) -> float:
        u, v = _offsets(a), _offsets(b)
        step = np.abs(np.add.outer(u, v)) * np.outer(peaks(a, u), peaks(b, v))
        return float(step.max(initial=0.0))

    return _bound(form, defect, 0)


def _symmetric_blocks(model: PairModel) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The blocks into which (H + H^T) / 2 decouples exactly, stacked by size.

    A ``_symmetry_bound`` above 1e-9 or not finite (inf * 0 would put NaN
    between the blocks) is rejected (``DomainError``), as is a gathered
    block with a non-finite entry.  Blocks of equal size s come as ``(idx,
    stack)``: row b of ``idx`` (k, s) lists one block of ``labels``
    ascending, and ``stack[b]`` is that block.  Blocks are gathered as many
    at a time as keep ``PairModel.block``'s largest temporary, (n, k, s) or
    (k, s, s), within ``_slab_entries(d)`` entries (at least one block), and,
    unless the bound is 0, symmetrized as (b + b^T) * 0.5: bit for bit,
    either way, a whole-matrix symmetrization.
    """
    bound = _symmetry_bound(model)
    if not bound < math.inf:
        raise DomainError("matrix may have a non-finite entry: its factor bound is not finite")
    if bound > 1e-9:
        raise DomainError("matrix is not symmetric within 1e-9")
    d = model.dim
    label = model.labels()
    size = np.bincount(label, minlength=d)[label]
    order = np.lexsort((label, size))
    start = 0
    for s, count in zip(*np.unique(size[order], return_counts=True)):
        idx = order[start:start + count].reshape(-1, s)
        start += count
        stack = np.empty((count // s, s, s))
        step = max(1, _slab_entries(d) // (max(model.n, s) * s))
        for b in range(0, len(idx), step):
            chunk = stack[b:b + step]
            chunk[...] = model.block(idx[b:b + step])
            # NaN propagates through min and max, which need no temporary.
            if not (np.isfinite(chunk.min()) and np.isfinite(chunk.max())):
                raise DomainError("matrix has a non-finite entry")
            if bound:  # numpy buffers the overlapping transpose
                chunk += chunk.transpose(0, 2, 1)
                chunk *= 0.5
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

    LAPACK solves each exactly decoupled block of (H + H^T) / 2, gathered
    from the factors, with no d x d array, no change to the model and no
    eigenvectors kept.  ``DomainError`` for a non-finite entry, a
    ``_symmetry_bound`` above 1e-9 or an input that is not a ``PairModel``.
    """
    if not isinstance(model, PairModel):
        raise DomainError("spectrum solves a PairModel (see coupled_model); "
                          "use numpy.linalg.eigvalsh for a dense matrix")
    return _solve(model)[0].tolist()
