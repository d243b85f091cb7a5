"""Dual-mode (float / exact rational) dense matrices and rank predicates.

Matrices are plain numpy arrays.  dtype float64 means float mode; dtype
object means exact mode with ``fractions.Fraction`` entries.  The channel
draw picks the dtype, and the rest of the package computes with numpy
expressions that work on either; this module is the one place that
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
    """
    if m.size == 0:
        raise EmptyMatrix(f"rank of empty {m.shape} matrix")
    rows, cols = m.shape[-2:]
    if is_exact(m):
        return sum(_rank_exact(b) for b in m.reshape(-1, rows, cols))
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
