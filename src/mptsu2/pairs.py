"""The two-oscillator pair space in factor form, its block solver and its polyad bound.

A d x d array of the d = q^2 pairs costs 48 MiB at q = 50, so blocks, spectra and
bounds come from a model's n x n factors.  ``PairModel`` builds only an exchange pair
c (x) c^T + c^T (x) c and self-products A (x) A with A = +-A^T, so every model is
symmetric and symmetric under oscillator exchange bit for bit.  The solver gathers
the blocks that the factors prove decoupled, polyads or polyad parities, and splits
each into its two exchange sectors (Iachello & Levine, *Algebraic Theory of
Molecules*, 1995); a parity block of d / 2 pairs becomes two sectors of about d / 4.
Eigenvectors are computed only where they are read.
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
    """Entries in one gathered chunk of the blocks of d pairs: max(2^13, d).

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

    H = scale (c (x) c^T + c^T (x) c + sum_k w_k A_k (x) A_k) over the
    lexicographic pair basis |n1, n2>, plus the pair diagonal e[n1] + e[n2]
    when ``single`` (e) is set; the ``exchange`` pair (c) is optional, and
    each ``products`` factor A_k must equal +A_k^T or -A_k^T exactly
    (``DomainError`` otherwise).  ``terms`` lists the products as
    (w_k, A_k, B_k), the exchange pair first, summed in that order.

    So H is symmetric and invariant under oscillator exchange, H[ab, cd] =
    H[ba, dc], bit for bit: the transpose and the swap each map the
    exchange pair's two terms onto each other and every A (x) A onto
    itself, and a sum rounds the same in either order of its first two
    terms only, so the exchange pair comes first.

    The solver gathers H (``_products``) by the blocks that ``labels``
    proves.  Each entry is the product A_k[i1, j1] B_k[i2, j2] that
    ``np.kron`` forms, combined in the same order everywhere, so blocks and
    the dense ``operator`` agree bit for bit.  A gathered entry adds +0.0,
    turning each -0.0 into +0.0, as ``operator`` does with a diagonal:
    LAPACK's Householder steps take the sign of a zero, so the eigenvalues'
    last bits would otherwise depend on how products rounded to zero.
    """

    __slots__ = ("terms", "scale", "single")

    def __init__(self, exchange: np.ndarray | None = None,
                 products: tuple[tuple[float, np.ndarray], ...] = (),
                 scale: float = 1.0, single: np.ndarray | None = None):
        for _, a in products:
            if not any(np.array_equal(a, k * a.T, equal_nan=True) for k in (1, -1)):
                raise DomainError("a product factor must equal its transpose or its negative")
        terms = ()
        if exchange is not None:
            # np.kron copies its product for a transposed view
            t = np.ascontiguousarray(exchange.T)
            terms = ((1.0, exchange, t), (1.0, t, exchange))
        self.terms = terms + tuple((w, a, a) for w, a in products)
        self.scale, self.single = scale, single

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
        model = PairModel(scale=self.scale, single=single)
        model.terms = self.terms
        return model

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

    def _products(self, at1: np.ndarray, at2: np.ndarray) -> np.ndarray:
        """H[ab, cd] less the pair diagonal, at1 = a n + c and at2 = b n + d, plus 0.0."""
        def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            t = a.take(at1)
            return np.multiply(t, b.take(at2), out=t)
        h = self._combine(product, at1.shape)
        return np.add(h, 0.0, out=h)

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


def _magnitude(form: PairModel) -> float:
    """M = |scale| sum_k |w_k| max|A_k| max|B_k|, formed in the order of the entries' products.

    Each entry of the coupling is at most M up to rounding.  M is not finite
    when a factor holds inf or NaN or a product overflows, and inf * 0 can
    then put NaN between the blocks, where no gathered block sees it.
    """
    return abs(form.scale) * sum(abs(w) * (_max_abs(a) * _max_abs(b)) for w, a, b in form.terms)


def _polyad_bound(form: PairModel) -> float:
    """Bounds max |[H, P]| = max |(P_i - P_j) H_ij| of a coupling, P = n1 + n2, as computed.

    A product A_k[i1, j1] B_k[i2, j2] lies on the diagonals u = i1 - j1 and
    v = i2 - j2 of its factors and moves the polyad by u + v, so
    |scale| sum_k |w_k| max |u + v| |A_k[., u]| |B_k[., v]| bounds the exact
    defect, and is 0 when every nonzero product conserves the polyad.  An
    entry of m terms rounds m + 2 times; the factor 1 + 4 gamma, gamma =
    (m + 2) 2^-53 / (1 - (m + 2) 2^-53), covers that relative rounding and
    the bound's own.  inf when ``_magnitude`` is not finite.
    """
    def peaks(m: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        return np.array([_max_abs(np.diagonal(m, -k)) for k in offsets])

    def defect(a: np.ndarray, b: np.ndarray) -> float:
        u, v = _offsets(a), _offsets(b)
        step = np.abs(np.add.outer(u, v)) * np.outer(peaks(a, u), peaks(b, v))
        return float(step.max(initial=0.0))

    if not math.isfinite(_magnitude(form)):
        return math.inf
    ops = (len(form.terms) + 2) * 2.0 ** -53
    gamma = ops / (1.0 - ops)
    total = abs(form.scale) * sum(abs(w) * defect(a, b) for w, a, b in form.terms)
    return total * (1.0 + 4.0 * gamma)


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


def _gathered(model: PairModel, rows: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The stack (k, s, s) of the exchange sectors over ``rows`` (k, s), signs ``sign`` (k, 1).

    The stack's rows are formed in order, ``_slab_entries(d)`` entries at a
    time: row ab of sector b holds (H[ab, cd] + sign[b] H[ab, dc]) f_ab f_cd
    over the sector's pairs cd, H with e[a] + e[b] at its own column, and
    each chunk is checked finite.
    """
    n, (k, s) = model.n, rows.shape
    stack = np.empty((k, s, s))
    hi, lo = np.divmod(rows, n)
    a, b = hi.ravel(), lo.ravel()
    e = np.zeros(n) if model.single is None else model.single
    diagonal = e[a] + e[b]
    # H[ab, dc] meets the pair diagonal only where a = b
    partner_diagonal, half = np.where(a == b, diagonal, 0.0), np.where(hi == lo, 0.5, 1.0)
    lines = max(1, _slab_entries(model.dim) // s)
    for start in range(0, k * s, lines):
        line = np.arange(start, min(start + lines, k * s))
        (block, column), here = np.divmod(line, s), np.arange(len(line))
        c, d = hi[block], lo[block]
        ra, rb = a[line, None] * n, b[line, None] * n
        h = model._products(ra + c, rb + d)
        h[here, column] += diagonal[line]
        swapped = model._products(ra + d, rb + c)
        swapped[here, column] += partner_diagonal[line]
        swapped *= sign[block]
        with np.errstate(over="ignore"):  # an overflow is refused just below
            h += swapped
            h *= np.sqrt(half.ravel()[line, None] * half[block])
        _check_finite(h)
        stack.reshape(k * s, s)[start:start + lines] = h
    return stack


def _symmetric_blocks(model: PairModel) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The exchange sectors of the blocks into which H decouples exactly, stacked by size.

    A model whose ``_magnitude`` is not finite is rejected (``DomainError``):
    inf * 0 would put NaN between the blocks.  So is a block with a
    non-finite entry.  Blocks of equal size s come as ``(idx, stack)``: row
    b of ``idx`` (k, s) lists one block's basis ascending, and ``stack[b]``
    is that block.

    Without a live term H is its pair diagonal, which comes as 1 x 1
    blocks, read without a gather.  Otherwise each block of ``labels``
    splits into its exchange sectors s = +-1, which are stacked together by
    size.  A sector's basis is the pairs ab = (a, b) with a <= b (a < b for
    s = -1), for the states |a, a> and (|a, b> + s |b, a>) / sqrt(2), and
    its entries are (H[ab, cd] + s H[ab, dc]) f_ab f_cd, with f = 1/sqrt(2)
    when a = b and 1 otherwise: H[ab, cd] = H[ba, dc] bit for bit, as
    ``PairModel`` builds it.  A sector entry that overflows is rejected as
    non-finite.
    """
    if not math.isfinite(_magnitude(model)):
        raise DomainError("matrix may have a non-finite entry: its factor bound is not finite")
    n, d = model.n, model.dim
    every = np.arange(d)
    if not model._live():
        e = np.zeros(n) if model.single is None else model.single
        diagonal = np.add.outer(e, e).reshape(d, 1, 1)
        diagonal += 0.0  # as ``_products`` forms it
        _check_finite(diagonal)
        yield every[:, None], diagonal
        return
    label = model.labels()
    # n (n + 1) / 2 members of sectors +1, then n (n - 1) / 2 of -1, keyed apart
    first, second = np.divmod(every, n)
    plus, minus = first <= second, first < second
    members = np.concatenate((every[plus], every[minus]))
    key = np.concatenate((label[plus], label[minus] + d))
    signs = np.where(every < plus.sum(), 1.0, -1.0)
    for pos in _stacked(key):
        rows = members[pos]
        yield rows, _gathered(model, rows, signs[pos[:, :1]])


def _solve(model: PairModel, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending eigenvalues and, with ``vectors``, each eigenvector's dominant basis index.

    Each stack of ``_symmetric_blocks`` is one LAPACK call, ``eigh`` with
    ``vectors`` and ``eigvalsh`` without, but for 1 x 1 blocks, whose
    eigenpair (entry, 1) LAPACK returns exactly, so it is read directly.
    The dominant index is the largest |component| in the pair basis, the
    first in basis order on ties, found per block, where the eigenvectors
    live: a sector component v on a < b stands for v / sqrt(2) on (a, b)
    and (b, a).  The sort is stable; without ``vectors`` the index is None.
    """
    values, dominant = [], []
    for idx, stack in _symmetric_blocks(model):
        if stack.shape[1] == 1:
            w, v = stack[:, 0], np.ones_like(stack) if vectors else None
        elif vectors:
            w, v = np.linalg.eigh(stack)
        else:
            w, v = np.linalg.eigvalsh(stack), None
        values.append(w.ravel())
        if vectors:
            np.abs(v, out=v)
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
    """Ascending eigenvalues of a two-oscillator matrix in factor form.

    LAPACK ``eigvalsh`` solves the exchange sectors of each polyad or
    parity block, gathered from the factors, and no block at all without a
    live term, whose eigenvalues are the sorted pair diagonal e[n1] + e[n2].
    No d x d array is formed, the model is not changed and no eigenvector
    is computed.  ``DomainError`` for a non-finite entry, a factor
    magnitude that is not finite or an input that is not a ``PairModel``.
    """
    if not isinstance(model, PairModel):
        raise DomainError("spectrum solves a PairModel (see coupled_model); "
                          "use numpy.linalg.eigvalsh for a dense matrix")
    return _solve(model, vectors=False)[0].tolist()
