"""The two-oscillator pair space in factor form, its block solver and its bounds.

A d x d array of the d = q^2 pairs costs 48 MiB at q = 50, so blocks, spectra and
bounds come from a model's n x n factors; ``_symmetry_bound`` gates both solver and verify.
The solver gathers the blocks that the factors prove decoupled, polyads or polyad
parities, and splits each into its two exchange sectors (Iachello & Levine, *Algebraic
Theory of Molecules*, 1995) where ``_exchange_bound`` proves the model symmetric under
oscillator exchange, as every coupled model is; a parity block of d / 2 pairs becomes
two sectors of about d / 4.  Eigenvectors are computed only where they are read.
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
    the arithmetic when d is small.  A chunk holds at least one block's
    column gather, n s entries for a block of s pairs.
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

    def _live(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The factors (A_k, B_k) of the terms that contribute: w_k != 0 and scale != 0."""
        return [(a, b) for w, a, b in self.terms if w != 0.0 and self.scale != 0.0]

    def labels(self) -> np.ndarray:
        """Each pair index's block label, the lowest index in its block, proven in O(n^2).

        A product A_k[i1, j1] B_k[i2, j2] moves the polyad n1 + n2 by
        (i1 - j1) + (i2 - j2).  With g the gcd of these steps over the
        nonzero products of live terms, H and H^T are zero between pairs
        whose polyads differ modulo g: the blocks are polyads (g = 0),
        polyad parities (g = 2), or single levels without a live term.
        """
        live = self._live()
        if not live:
            return np.arange(self.dim)

        g = np.gcd.reduce(np.concatenate(
            [np.add.outer(_offsets(a), _offsets(b)).ravel() for a, b in live]))
        polyad = np.add.outer(np.arange(self.n), np.arange(self.n)).ravel()
        _, first, key = np.unique(polyad % g if g else polyad,
                                  return_index=True, return_inverse=True)
        return first[key]

    def block(self, rows: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """H[rows[b], cols[b]] for rows (k, s) and cols (k, t), as a new (k, s, t) array.

        ``cols`` defaults to ``rows``, which gathers square blocks.
        """
        cols = rows if cols is None else cols
        r1, r2 = np.divmod(rows, self.n)
        c1, c2 = np.divmod(cols, self.n)
        stack = np.arange(len(rows))[:, None]

        def gather(m: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
            # m[r[b, :, None], c[b, None, :]] for each block b, copied row by
            # row from m[:, c], several times faster than the 2-d fancy index.
            return m[:, c].transpose(1, 0, 2)[stack, r]

        def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            t = gather(a, r1, c1)
            t *= gather(b, r2, c2)
            return t

        h = self._combine(product, rows.shape + cols.shape[-1:])
        h += 0.0
        if self.single is not None:
            b, i, j = np.nonzero(rows[:, :, None] == cols[:, None, :])
            h[b, i, j] += self.single[r1[b, i]] + self.single[r2[b, i]]
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


def _stacked(key: np.ndarray) -> Iterator[np.ndarray]:
    """Positions in ``key`` grouped by equal key, and the groups stacked by size.

    Each stack is an array (k, s) whose rows list one group each, ascending;
    stacks come in ascending s.
    """
    size = np.bincount(key)[key]
    order = np.lexsort((key, size))
    start = 0
    for s, count in zip(*np.unique(size[order], return_counts=True)):
        yield order[start:start + count].reshape(-1, s)
        start += count


def _check_finite(entries: np.ndarray) -> None:
    # NaN propagates through min and max, which need no temporary.
    if not (np.isfinite(entries.min()) and np.isfinite(entries.max())):
        raise DomainError("matrix has a non-finite entry")


def _gathered(model: PairModel, rows: np.ndarray, sign: np.ndarray | None,
              symmetrize: bool) -> np.ndarray:
    """The stack (k, s, s) of the blocks of H over ``rows`` (k, s), or of their sectors.

    With ``sign`` (k, 1, 1), block b is the exchange sector ``sign[b]`` of
    ``_symmetric_blocks``, with H[ab, dc] gathered as H[ba, cd] and f_ab f_cd
    as sqrt(f_ab^2 f_cd^2).  Gathered in chunks of whole blocks, or of rows
    of one block, that keep ``PairModel.block``'s temporaries, (n, k, s) and
    (k, rows, s), within ``_slab_entries(d)`` entries or one block's n s
    columns; each chunk is checked finite, and with ``symmetrize`` each
    block becomes (b + b^T) * 0.5.
    """
    n = model.n
    k, s = rows.shape
    stack = np.empty((k, s, s))
    if sign is not None:
        a, b = np.divmod(rows, n)
        partner, half = b * n + a, np.where(a == b, 0.5, 1.0)
    lines = max(1, max(_slab_entries(model.dim), n * s)
                // (max(n, s) * (1 if sign is None else 2)))
    blocks, span = (lines // s, s) if lines >= s else (1, lines)
    for head in range(0, k, blocks):
        whole = np.s_[head:head + blocks]
        for line in range(0, s, span):
            part = np.s_[head:head + blocks, line:line + span]
            out = stack[part]
            if sign is None:
                out[...] = model.block(rows[part], rows[whole])
            else:
                both = model.block(np.concatenate((rows[part], partner[part]), axis=1),
                                   rows[whole])
                swapped = both[:, out.shape[1]:]
                swapped *= sign[whole]
                np.add(both[:, :out.shape[1]], swapped, out=out)
                out *= np.sqrt(half[part][:, :, None] * half[whole][:, None, :])
            _check_finite(out)
        if symmetrize:  # numpy buffers the overlapping transpose
            chunk = stack[whole]
            chunk += chunk.transpose(0, 2, 1)
            chunk *= 0.5
    return stack


def _symmetric_blocks(model: PairModel,
                      split: bool = False) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The blocks into which (H + H^T) / 2 decouples exactly, stacked by size.

    A ``_symmetry_bound`` above 1e-9 or not finite (inf * 0 would put NaN
    between the blocks) is rejected (``DomainError``), as is a block with a
    non-finite entry.  Blocks of equal size s come as ``(idx, stack)``: row
    b of ``idx`` (k, s) lists one block's basis ascending, and ``stack[b]``
    is that block, ``_gathered`` and, unless the bound is 0, symmetrized:
    bit for bit, either way, a whole-matrix symmetrization.

    Without a live term H is its pair diagonal, which comes as 1 x 1
    blocks, read without a gather.  Otherwise the blocks are those of
    ``labels``, or, with ``split``, each one's exchange sectors s = +-1,
    stacked together by size.  ``split`` needs ``_exchange_bound`` to be 0,
    so that H[ab, cd] = H[ba, dc] bit for bit.  A sector's basis is the
    pairs ab = (a, b) with a <= b (a < b for s = -1), for the states
    |a, a> and (|a, b> + s |b, a>) / sqrt(2), and its entries are
    (H[ab, cd] + s H[ab, dc]) f_ab f_cd, with f = 1/sqrt(2) when a = b and
    1 otherwise.  A sector entry that overflows is rejected as non-finite.
    """
    bound = _symmetry_bound(model)
    if not bound < math.inf:
        raise DomainError("matrix may have a non-finite entry: its factor bound is not finite")
    if bound > 1e-9:
        raise DomainError("matrix is not symmetric within 1e-9")
    n, d = model.n, model.dim
    every = np.arange(d)
    if not model._live():
        e = np.zeros(n) if model.single is None else model.single
        diagonal = np.add.outer(e, e).reshape(d, 1, 1)
        diagonal += 0.0  # as ``block`` forms it
        _check_finite(diagonal)
        yield every[:, None], diagonal
        return
    label = model.labels()
    if split:  # n (n + 1) / 2 members of sectors +1, then n (n - 1) / 2 of -1, keyed apart
        first, second = np.divmod(every, n)
        plus, minus = first <= second, first < second
        members = np.concatenate((every[plus], every[minus]))
        key = np.concatenate((label[plus], label[minus] + d))
        signs = np.where(every < plus.sum(), 1.0, -1.0)
    else:
        members, key = every, label
    for pos in _stacked(key):
        rows = members[pos]
        yield rows, _gathered(model, rows, signs[pos[:, :1, None]] if split else None,
                              bound != 0.0)


def _solve(model: PairModel, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending eigenvalues and, with ``vectors``, each eigenvector's dominant basis index.

    Blocks are split into their exchange sectors when ``_exchange_bound``
    is 0.  Each stack of ``_symmetric_blocks`` is one LAPACK call, ``eigh``
    with ``vectors`` and ``eigvalsh`` without, but for 1 x 1 blocks, whose
    eigenpair (entry, 1) LAPACK returns exactly, so it is read directly.
    The dominant index is the largest |component| in the pair basis, the
    first in basis order on ties, found per block, where the eigenvectors
    live: a sector component v on a < b stands for v / sqrt(2) on (a, b)
    and (b, a).  The sort is stable; without ``vectors`` the index is None.
    """
    split = _exchange_bound(model) == 0.0
    values, dominant = [], []
    for idx, stack in _symmetric_blocks(model, split):
        if stack.shape[1] == 1:
            w, v = stack[:, 0], np.ones_like(stack) if vectors else None
        elif vectors:
            w, v = np.linalg.eigh(stack)
        else:
            w, v = np.linalg.eigvalsh(stack), None
        values.append(w.ravel())
        if vectors:
            np.abs(v, out=v)
            if split:
                a, b = np.divmod(idx, model.n)
                v *= np.where(a == b, 1.0, math.sqrt(0.5))[:, :, None]
            # argmax along axis 1 would copy v to make that axis contiguous; the
            # first entry equal to the column maximum is the same index.
            top = (v == v.max(axis=1, keepdims=True)).argmax(axis=1)
            dominant.append(np.take_along_axis(idx, top, axis=1).ravel())
        del stack, v  # not held while the next stack is gathered
    values = np.concatenate(values)
    order = np.argsort(values, kind="stable")
    return values[order], np.concatenate(dominant)[order] if vectors else None


def spectrum(model: PairModel) -> list[float]:
    """Ascending eigenvalues of a (nearly) symmetric two-oscillator matrix in factor form.

    LAPACK ``eigvalsh`` solves each exactly decoupled block of (H + H^T) / 2,
    gathered from the factors: the exchange sectors of each polyad or
    parity block when the model is proven exchange-symmetric, and no block
    at all without a live term, whose eigenvalues are the sorted pair
    diagonal e[n1] + e[n2].  No d x d array is formed, the model is not
    changed and no eigenvector is computed.  ``DomainError`` for a
    non-finite entry, a ``_symmetry_bound`` above 1e-9 or an input that is
    not a ``PairModel``.
    """
    if not isinstance(model, PairModel):
        raise DomainError("spectrum solves a PairModel (see coupled_model); "
                          "use numpy.linalg.eigvalsh for a dense matrix")
    return _solve(model, vectors=False)[0].tolist()
