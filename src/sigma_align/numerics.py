"""Float, exact rational and prime-field dense matrices and rank predicates.

Matrices are plain numpy arrays.  dtype float64 means float mode; dtype
object means an exact mode, with ``fractions.Fraction`` entries (rational
mode) or ``Zp`` entries, residues modulo the prime P (modp mode).  The
channel draw picks the dtype, and the rest of the package computes with
numpy expressions that work on each; this module is the one place that
branches on it (``rank`` and ``columns_subset_of``).  A stack of
square blocks along a leading axis stands for the block-diagonal matrix
they form; ``rank`` and ``solve_blocks`` work on it block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, EmptyMatrix


@dataclass(frozen=True)
class Tolerance:
    """Thresholds used only in float mode; exact mode compares exactly.

    rel_rank_tol: singular values below rel_rank_tol * s_max * max(rows, cols)
    are treated as zero.  col_match_tol: relative max-norm threshold for
    column equality; column a_j matches column b_k when
    max|a_j - b_k| <= col_match_tol * max(1, max|b_k|).
    """

    rel_rank_tol: float = 1e-9
    col_match_tol: float = 1e-8

    def __post_init__(self):
        if self.rel_rank_tol <= 0 or self.col_match_tol <= 0:
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerance()

P = 2 ** 31 - 1   # a Mersenne prime; residues below 2**31 multiply in int64


class Zp:
    """An element of the prime field F_P, for object arrays in modp mode.

    Arithmetic mixes with Python and numpy integers, which are reduced
    first.  ``abs`` is 0 for zero and 1 otherwise, so a pivot search by
    largest magnitude (``solve_blocks``) picks a nonzero entry; equal
    residues hash equally, so columns can be looked up in a set.
    """

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = int(v) % P

    def __add__(self, other):
        o = _residue_of(other)
        return NotImplemented if o is None else _zp((self.v + o) % P)

    __radd__ = __add__

    def __sub__(self, other):
        o = _residue_of(other)
        return NotImplemented if o is None else _zp((self.v - o) % P)

    def __rsub__(self, other):
        o = _residue_of(other)
        return NotImplemented if o is None else _zp((o - self.v) % P)

    def __mul__(self, other):
        if type(other) is Zp:   # the hot path of apply and build_p
            return _zp(self.v * other.v % P)
        o = _residue_of(other)
        return NotImplemented if o is None else _zp(self.v * o % P)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _residue_of(other)
        return NotImplemented if o is None else _zp(self.v * _inverse(o) % P)

    def __rtruediv__(self, other):
        o = _residue_of(other)
        return NotImplemented if o is None else _zp(o * _inverse(self.v) % P)

    def __pow__(self, e):
        return _zp(pow(self.v, int(e), P))

    def __neg__(self):
        return _zp(-self.v % P)

    def __abs__(self):
        return 1 if self.v else 0

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        o = _residue_of(other)
        return NotImplemented if o is None else self.v == o

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return f"Zp({self.v})"


def _zp(v: int) -> Zp:
    """A Zp from a residue already in [0, P), skipping the reduction."""
    z = object.__new__(Zp)
    z.v = v
    return z


def _inverse(v: int) -> int:
    if v == 0:
        raise ZeroDivisionError("division by zero in F_P")
    return pow(v, -1, P)


def _residue_of(x):
    """x's residue mod P if x is a Zp or an integer, else None."""
    if isinstance(x, Zp):
        return x.v
    if isinstance(x, (int, np.integer)):
        return int(x) % P
    return None


def zp_array(values) -> np.ndarray:
    """Object array of ``Zp`` residues of an integer array-like, same shape."""
    ints = np.asarray(values)
    out = np.empty(ints.size, dtype=object)
    out[:] = [Zp(v) for v in ints.flat]
    return out.reshape(ints.shape)


def is_exact(m: np.ndarray) -> bool:
    return m.dtype == object


def exact_matrix(rows) -> np.ndarray:
    """Build an exact-mode matrix from nested sequences of rationals."""
    data = [[Fraction(x) for x in row] for row in rows]
    out = np.empty((len(data), len(data[0]) if data else 0), dtype=object)
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def rank(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of a dense matrix: exact elimination or SVD depending on mode.

    An array with more than two axes stands for the block-diagonal matrix
    whose blocks are its trailing two axes, and gets that matrix's rank:
    the sum of the block ranks, with the float cutoff taken from the
    largest singular value of any block and the full matrix's size.
    Rational matrices are eliminated block by block; prime-field ones in
    one batched elimination over all blocks.
    """
    if m.size == 0:
        raise EmptyMatrix(f"rank of empty {m.shape} matrix")
    rows, cols = m.shape[-2:]
    if is_exact(m):
        blocks = m.reshape(-1, rows, cols)
        if any(isinstance(x, Zp) for x in m.flat):
            return _rank_modp(blocks)
        return sum(_rank_exact(b) for b in blocks)
    s = np.linalg.svd(_equilibrated(m), compute_uv=False)
    s_max = s.max()
    if s_max == 0.0:
        return 0
    n_blocks = m.size // (rows * cols)
    cutoff = tol.rel_rank_tol * s_max * n_blocks * max(rows, cols)
    return int(np.sum(s > cutoff))


def _equilibrated(m: np.ndarray) -> np.ndarray:
    """Iterative max-norm row/column scaling; preserves rank.

    Monomial-structured columns differ in scale by many orders of
    magnitude, which would otherwise push genuine directions below the
    relative singular-value cutoff.  Rows and columns are those of the
    trailing two axes, so a stack of blocks is scaled exactly as the
    block-diagonal matrix it stands for.
    """
    out = np.array(m, dtype=float)
    for _ in range(5):
        rs = np.max(np.abs(out), axis=-1, keepdims=True)
        rs[rs == 0.0] = 1.0
        out /= rs
        cs = np.max(np.abs(out), axis=-2, keepdims=True)
        cs[cs == 0.0] = 1.0
        out /= cs
    return out


def subspace_contains(a: np.ndarray, b: np.ndarray,
                      tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the column span of ``a`` lies inside the column span of ``b``."""
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    if a.shape[1] == 0:
        return True
    return rank(np.hstack([a, b]), tol) == rank(b, tol)


def columns_subset_of(a: np.ndarray, b: np.ndarray,
                      tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every column of ``a`` equals some column of ``b``.

    Stronger than span containment: equality is exact in exact mode and,
    in float mode, within ``col_match_tol`` relative to the scale of the
    column of ``b`` (see ``Tolerance``).
    """
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    if is_exact(a):
        cols = set(map(tuple, b.T))
        return all(tuple(col) in cols for col in a.T)
    bound = tol.col_match_tol * np.maximum(
        1.0, np.max(np.abs(b), axis=0, initial=0.0))
    return all(np.any(np.max(np.abs(b - col[:, None]), axis=0, initial=0.0)
                      <= bound)
               for col in a.T)


def _integer_rows(m: np.ndarray) -> list[list[int]]:
    """Scale each row by the LCM of its denominators; rank is unchanged."""
    rows = []
    for i in range(m.shape[0]):
        dens = [m[i, j].denominator for j in range(m.shape[1])]
        scale = math.lcm(*dens) if dens else 1
        rows.append([int(m[i, j] * scale) for j in range(m.shape[1])])
    return rows


def _rank_exact(m: np.ndarray) -> int:
    """Fraction-free Gaussian elimination over the integers.

    Cross-multiplication row updates keep entries integral; each updated
    row is reduced by its gcd to bound coefficient growth.  Rows whose
    pivot-column entry is already zero are skipped, which keeps the cost
    low on the block-sparse matrices this package produces.
    """
    rows = _integer_rows(m)
    nrows, ncols = len(rows), len(rows[0])
    piv_r = 0
    for piv_c in range(ncols):
        pivot_row = None
        for r in range(piv_r, nrows):
            if rows[r][piv_c] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[piv_r], rows[pivot_row] = rows[pivot_row], rows[piv_r]
        piv = rows[piv_r][piv_c]
        for r in range(piv_r + 1, nrows):
            f = rows[r][piv_c]
            if f == 0:
                continue
            row = [piv * rows[r][c] - f * rows[piv_r][c]
                   for c in range(ncols)]
            g = math.gcd(*row)
            if g > 1:
                row = [x // g for x in row]
            rows[r] = row
        piv_r += 1
        if piv_r == nrows:
            break
    return piv_r


def _rank_modp(blocks: np.ndarray) -> int:
    """Sum of the ranks over F_P of a (blocks, rows, cols) ``Zp`` array.

    Entries may also be integers, such as the zeros ``np.diag`` fills in.

    Gaussian elimination on the int64 residues of every block at once, one
    column per step; each block keeps its own pivot count.  A row update
    row <- pivot * row - f * pivot_row is invertible because the pivot is
    a unit, so no inverses are needed.  Residues are below 2**31, so each
    product stays below 2**62 and is reduced before the next one.
    """
    a = np.array([z.v if type(z) is Zp else _residue_of(z)
                  for z in blocks.flat], dtype=np.int64).reshape(blocks.shape)
    if a.shape[2] > a.shape[1]:
        a = a.transpose(0, 2, 1).copy()   # fewer columns, fewer steps
    n_blocks, nrows, ncols = a.shape
    ranks = np.zeros(n_blocks, dtype=np.intp)
    row_ids = np.arange(nrows)
    for col in range(ncols):
        cand = (a[:, :, col] != 0) & (row_ids >= ranks[:, None])
        live = np.flatnonzero(cand.any(axis=1))
        if live.size == 0:
            continue
        src, dst = np.argmax(cand[live], axis=1), ranks[live]
        pivot_rows = a[live, src, col:]
        a[live, src, col:] = a[live, dst, col:]
        a[live, dst, col:] = pivot_rows
        f = np.where(row_ids > dst[:, None], a[live, :, col], 0)
        a[live, :, col:] = (a[live, :, col:] * pivot_rows[:, None, :1]
                            - f[:, :, None] * pivot_rows[:, None, :]) % P
        ranks[live] += 1
        if ranks.min() == nrows:
            break
    return int(ranks.sum())


def solve_blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a[t] @ x[t] = b[t] for every block t, in either mode.

    ``a`` is (blocks, n, n) and ``b`` is (blocks, n, k).  LU elimination
    with partial pivoting, then back substitution, runs on all blocks at
    once.  Every step is elementwise numpy, so float64 and Fraction arrays
    take the same path and exact mode stays exact.  As in LAPACK's
    getrf/getrs, each division multiplies by the pivot's reciprocal, which
    keeps float results on the rounding of numpy.linalg.solve.  Raises
    numpy.linalg.LinAlgError on a singular block, mirroring
    numpy.linalg.solve.
    """
    if a.ndim != 3 or a.shape[1] != a.shape[2] or b.shape[:2] != a.shape[:2]:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    a, b = a.copy(), b.copy()
    n = a.shape[1]
    blocks = np.arange(a.shape[0])
    inv_pivots = []
    for col in range(n):
        piv = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
        for m in (a, b):
            m[blocks, col], m[blocks, piv] = m[blocks, piv], m[blocks, col]
        p = a[:, col, col]
        if np.any(p == 0):
            raise np.linalg.LinAlgError("singular block")
        inv_pivots.append(1 / p)
        lower = a[:, col + 1:, col, None] * inv_pivots[col][:, None, None]
        a[:, col + 1:, col + 1:] -= lower * a[:, None, col, col + 1:]
        b[:, col + 1:] -= lower * b[:, None, col]
    for col in reversed(range(n)):
        b[:, col] *= inv_pivots[col][:, None]
        b[:, :col] -= a[:, :col, col, None] * b[:, None, col]
    return b


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product working in both modes (np.matmul rejects object dtype)."""
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    return a.dot(b)
