"""Float, exact rational and prime-field dense matrices and rank predicates.

Matrices are numpy arrays.  dtype float64 means float mode; dtype object
means rational mode, with ``fractions.Fraction`` entries; a ``ModP`` array
holds int64 residues modulo the prime P, and means modp mode.  The
channel draw picks the array type, and the rest of the package computes
with numpy expressions that work on each; this module is the one place
that branches on it (``rank``, ``columns_subset_of``, ``aligned_within``,
``_slotwise_rank`` and ``_finite``), and the only one that holds float
thresholds.  A float rank is an SVD after one max-norm row and column
pass, unless a Cholesky factorization of the shifted Gram matrix first
proves that the SVD would count every singular value
(``_certified_full``).  In exact
modes a literal column match is a span proof, so ``aligned_within``
ranks only what the match leaves open.  In float mode the match pairs
each moved column with a wide one, and ``_certified_span`` proves from
that pairing and a Cholesky of the wide block that the SVD would give
the joined alignment matrix, rank-deficient by design, the wide
matrix's full rank; what it does not prove goes to the SVD.  A large
float slot-wise product, the signal-plus-interference matrix, is proved
full from its factors (``_slotwise_rank``, ``_certified_slotwise``): its
Gram matrix is a sum over slots, formed without the matrix, which is
assembled only for the SVD when the proof fails.  A stack of
blocks along a leading axis stands for the block-diagonal matrix they
form.  ``solve_blocks`` eliminates all of its blocks at once, and is the
one place that decides whether such a stack is singular; ``rank`` ranks
exact blocks one at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, EmptyMatrix


# Float-mode thresholds; exact modes compare exactly.  They are fixed,
# not settable: a float pass is returned without an exact rerun, so the
# cutoff that makes it a pass is part of the certification rule.
# Singular values s <= REL_RANK_TOL * s_max * blocks * max(rows, cols)
# count as zero, after one max-norm row and column pass has brought every
# nonzero row and column maximum to exactly 1.0 (``_equilibrated``).  A
# full rank may be proved without the SVD, but only when every singular
# value clears twice this cutoff (``_certified_full``), so the SVD would
# have counted them all and the returned rank is the same.
REL_RANK_TOL = 1e-9
# Column a_j equals column b_k when
# max|a_j - b_k| <= COL_MATCH_TOL * max(1, max|b_k|).
COL_MATCH_TOL = 1e-8

P = 2 ** 31 - 1   # a Mersenne prime; residues below 2**31 multiply in int64


class ModP(np.ndarray):
    """int64 residues in [0, P): the arrays of modp mode, elements of F_P.

    numpy arithmetic on a ModP array is arithmetic in F_P.  Integer
    operands (Python ints of any size, integer arrays) are reduced mod P
    first, and every product is reduced before the next one, so both of
    its factors are below 2**31 and it stays below 2**62:
    - add, subtract, multiply, negative, square, matmul (each product
      reduced before the sum) and ``multiply.reduce`` (``np.prod``) give
      ModP residues, also in place (``out=``);
    - power takes nonnegative integer exponents, not residues;
    - true_divide multiplies by the modular inverse and raises
      ZeroDivisionError on a zero divisor;
    - absolute is the identity on residues, as a plain int64 array, so a
      largest-magnitude pivot search (``solve_blocks``) picks a nonzero
      entry;
    - the comparisons compare residues and give plain booleans.
    Any other ufunc, and a float or Fraction operand, raise TypeError.
    ``np.concatenate``, ``stack``, ``hstack`` and ``vstack`` keep the type
    (plain integer arrays joined in must already hold residues).  Indexing
    out one entry gives a plain ``np.int64``, which does not reduce.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.multiply and method == "reduce":
            if kwargs.get("dtype") is not None or kwargs.get("keepdims") \
                    or kwargs.get("where", True) is not True:
                return NotImplemented
            result = _prod(_residues(inputs[0]), kwargs.get("axis", 0))
        elif method != "__call__" or kwargs:
            return NotImplemented
        elif ufunc is np.power:
            e = np.asarray(inputs[1])
            if isinstance(inputs[1], ModP) or e.dtype.kind not in "iu":
                return NotImplemented
            if np.any(e < 0):
                raise ValueError("negative exponent in F_P")
            result = _power(_residues(inputs[0]), e)
        else:
            args = [_residues(x) for x in inputs]
            if any(a is None for a in args):
                return NotImplemented
            if ufunc in _ON_RESIDUES:
                return ufunc(*args)
            if ufunc not in _FIELD_OPS:
                return NotImplemented
            result = _FIELD_OPS[ufunc](*args)
        if out is not None:
            out[0][...] = result
            return out[0]
        return np.asarray(result).view(ModP)

    def __array_function__(self, func, types, args, kwargs):
        result = super().__array_function__(func, types, args, kwargs)
        if func in _JOINS and result.dtype == np.int64:
            return result.view(ModP)
        return result


def _residues(x):
    """Plain int64 residues in [0, P) of a ModP array or of integers, or
    None for any other operand."""
    if isinstance(x, ModP):
        return x.view(np.ndarray)
    if isinstance(x, int):
        x = x % P
    a = np.asarray(x)
    if a.dtype == object and all(isinstance(v, int) for v in a.flat):
        a = np.array([v % P for v in a.flat], dtype=np.int64).reshape(a.shape)
    if a.dtype.kind not in "iu":
        return None
    return (a % P).astype(np.int64, copy=False)


def _power(a, e):
    """a ** e mod P, elementwise, by repeated squaring."""
    out = np.ones(np.broadcast_shapes(a.shape, e.shape), dtype=np.int64)
    while np.any(e):
        out = np.where(e & 1, out * a % P, out)
        a = a * a % P
        e = e >> 1
    return out


def _inverse(b):
    """Modular inverses, elementwise (one Python ``pow`` per entry)."""
    if np.any(b == 0):
        raise ZeroDivisionError("division by zero in F_P")
    return np.array([pow(v, -1, P) for v in b.ravel().tolist()],
                    dtype=np.int64).reshape(b.shape)


def _prod(a, axis):
    """Product over one axis (or all, for None), reduced after each factor."""
    factors = a.reshape(-1) if axis is None else np.moveaxis(a, axis, 0)
    out = np.ones(factors.shape[1:], dtype=np.int64)
    for f in factors:
        out = out * f % P
    return out


_FIELD_OPS = {
    np.add: lambda a, b: (a + b) % P,
    np.subtract: lambda a, b: (a - b) % P,
    np.multiply: lambda a, b: a * b % P,
    np.negative: lambda a: -a % P,
    np.square: lambda a: a * a % P,   # numpy's fast path for x ** 2
    np.true_divide: lambda a, b: a * _inverse(b) % P,
    np.matmul: lambda a, b: (a[..., :, :, None] * b[..., None, :, :]
                             % P).sum(axis=-2) % P,
}
_ON_RESIDUES = (np.absolute, np.equal, np.not_equal, np.less,
                np.less_equal, np.greater, np.greater_equal)
_JOINS = (np.concatenate, np.stack, np.hstack, np.vstack)


def zp_array(values) -> ModP:
    """The residues mod P of an integer array-like, as a new ModP array."""
    r = _residues(values)
    if r is None:
        raise TypeError(f"not an integer array: {values!r}")
    return np.array(r).view(ModP)


def is_exact(m: np.ndarray) -> bool:
    return m.dtype == object or isinstance(m, ModP)


def _finite(m: np.ndarray) -> bool:
    """Whether every entry is finite; exact entries always are."""
    return is_exact(m) or bool(np.isfinite(m).all())


def exact_matrix(rows) -> np.ndarray:
    """Build an exact-mode matrix from nested sequences of rationals."""
    data = [[Fraction(x) for x in row] for row in rows]
    out = np.empty((len(data), len(data[0]) if data else 0), dtype=object)
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def rank(m: np.ndarray) -> int:
    """Rank of a dense matrix: exact elimination or SVD depending on mode.

    An array with more than two axes stands for the block-diagonal matrix
    whose blocks are its trailing two axes, and gets that matrix's rank:
    the sum of the block ranks, with the float cutoff taken from the
    largest singular value of any block and the full matrix's size.
    Exact matrices are eliminated block by block, over the integers
    (rational) or over F_P (modp).  A float matrix whose full rank
    ``_certified_full`` proves gets that rank without an SVD; any other
    gets the SVD count, and so do small matrices (below
    ``_CERTIFY_FROM``) and those tagged by ``_counted``, where the proof
    would not pay.
    """
    if m.size == 0:
        raise EmptyMatrix(f"rank of empty {m.shape} matrix")
    rows, cols = m.shape[-2:]
    if is_exact(m):
        rank_block = _rank_modp if isinstance(m, ModP) else _rank_exact
        blocks = np.array(m.view(np.ndarray)).reshape(-1, rows, cols)
        return sum(rank_block(b) for b in blocks)
    e = _equilibrated(m)
    n_blocks = m.size // (rows * cols)
    k = min(rows, cols)
    if (n_blocks * (rows * cols * k + 1024) >= _CERTIFY_FROM
            and not isinstance(m, _Counted) and _certified_full(e, n_blocks)):
        return n_blocks * k
    s = np.linalg.svd(e, compute_uv=False)
    s_max = s.max()
    if s_max == 0.0:
        return 0
    cutoff = REL_RANK_TOL * s_max * n_blocks * max(rows, cols)
    return int(np.sum(s > cutoff))


class _Counted(np.ndarray):
    """A float matrix whose rank ``rank`` counts with the SVD at once."""


def _counted(m: np.ndarray) -> np.ndarray:
    """``m``, tagged so that ``rank`` skips the full-rank certificate.

    For a matrix that is rank-deficient by design, where the certificate
    could only fail and its cost would come on top of the SVD.  Exact
    matrices are returned as they are.
    """
    return m if is_exact(m) else m.view(_Counted)


_U = 2.0 ** -53   # unit roundoff of float64
# ``rank`` and ``_certified_span`` try their certificates only on
# matrices whose SVD work,
# n_blocks * (rows * cols * min(rows, cols) + 1024), reaches this.  Below
# it the SVD costs no more than the certificate's dozen numpy calls: on a
# 2-core x86-64 machine (numpy 2.4, OpenBLAS 0.3.31, 2 threads), the two
# take about the same time, 40 to 80 us, on a 27x16 matrix and on 27
# stacked 1x1 blocks.
_CERTIFY_FROM = 2 ** 14


def _certified_full(e: np.ndarray, n_blocks: int) -> bool:
    """True only if ``rank``'s SVD would count every singular value of ``e``.

    ``e`` is an equilibrated (..., r, c) float array with n_blocks blocks;
    k = min(r, c), L = max(r, c), u = 2**-53, gamma_n = n*u / (1 - n*u).
    Cholesky of the shifted Gram matrix proves s_min(E) >= tau, for a tau
    at least twice any cutoff the SVD can compute.  False means "not
    proved", never "deficient": the caller then runs the SVD.

    1. G = E^T E (E E^T if E is wide) is k x k per block, and the BLAS
       product G^ obeys |G^ - G| <= gamma_L |E|^T |E| entrywise in any
       summation order, so |G^_ij - G_ij| <= gamma_L * T and
       ||G^ - G||_2 <= gamma_L * T, where T = 1.01 * max over blocks of
       fl(tr G^) bounds tr G, tr G^ and every diagonal entry.  Non-finite
       input makes T non-finite, and is left to the SVD.
    2. s_max(E)^2 = max ||G||_2 <= max ||G||_inf
       <= max ||G^||_inf + k * gamma_L * T =: N.  With
       c_hi = 1.01 * REL_RANK_TOL * n_blocks * L * sqrt(N) >= the exact
       cutoff, set tau = 2 * c_hi.
    3. Run Cholesky on B = fl(G^ - s*I), s = 1.01 * tau^2 + 2(L+k+2) u T.
       If it succeeds, R^T R = B + dB with ||dB||_2 <= gamma'_{k+1} * T,
       gamma' = gamma/(1 - gamma) (Higham, Accuracy and Stability, Thm
       10.3; Rump, "Verification of positive definiteness", BIT 46, 2006),
       so B >= -gamma'_{k+1} T I.  The rounded diagonal subtraction is off
       by at most u (T + s).  Hence
       lambda_min(G) >= s (1 - u) - (gamma_L + gamma'_{k+1} + u) T
       >= tau^2, as (L + k) u < 1e-3 for any matrix that fits in memory.
       The factors 1.01 cover the rounding of these scalar steps, and
       underflow terms (a few k*L*2**-1074) vanish against
       tau^2 >= 4e-18: a nonzero equilibrated E has an entry of 1, so
       N >= 1.
    4. The SVD computes the singular values of E + F, ||F||_2 <= p u s_max
       with p a low-degree polynomial (LAPACK Users' Guide, section 4.9).
       The test is tried only when r*c*k*u <= REL_RANK_TOL * L / 4, which
       allows p = r*c*k.  Then its s_min exceeds tau - p u s_max, and its
       cutoff is at most c_hi (1 + p u) (1 + 3u); the first is the larger,
       so every singular value clears the cutoff.
    """
    rows, cols = e.shape[-2:]
    if not _svd_gate(rows, cols):
        return False
    et = np.swapaxes(e, -1, -2)
    g = et @ e if rows >= cols else e @ et
    return _gram_clears(g, 0, max(rows, cols), n_blocks)


def _svd_gate(rows: int, cols: int) -> bool:
    """Whether an SVD of a rows x cols matrix is accurate enough for the
    certificates: r*c*k*u <= REL_RANK_TOL * L / 4 (``_certified_full``,
    step 4)."""
    k, big = min(rows, cols), max(rows, cols)
    return rows * cols * k * _U <= REL_RANK_TOL * big / 4


def _gram_clears(g: np.ndarray, first: int, big: int, n_blocks: int,
                 terms: int | None = None, spread: float = 0.0) -> bool:
    """Steps 1-3 of ``_certified_full`` on a computed Gram stack ``g``.

    The norm bound N, and so tau, come from all of ``g``; the shifted
    Cholesky runs on its trailing block from index ``first``, and
    succeeds only if that block's smallest eigenvalue is at least tau^2.
    ``big`` is the L of the matrix ``g`` came from.  ``terms`` is the n of
    the gamma_n that bounds the rounding of ``g`` (step 1; L by default).
    A nonzero ``spread`` certifies a matrix E' with
    ||E' - E||_2 <= spread * ||E||_F instead of E itself: by Weyl's
    inequality its singular values are those of E moved by at most
    w = spread * sqrt(T), so w is added to the bound on s_max in tau, and
    the Cholesky must prove s_min(E) >= tau + w
    (``_certified_slotwise``).  Shifts ``g`` in place.
    """
    c = g.shape[-1]
    k = c - first
    terms = big if terms is None else terms
    t = 1.01 * np.diagonal(g, 0, -2, -1).sum(axis=-1).max()
    if not np.isfinite(t):
        return False
    gamma = terms * _U / (1 - terms * _U)
    norm = np.abs(g).sum(axis=-1).max() + c * gamma * t
    weyl = spread * math.sqrt(t)
    tau = 2 * 1.01 * REL_RANK_TOL * n_blocks * big * (math.sqrt(norm) + weyl)
    diag = np.arange(first, c)
    g[..., diag, diag] -= (1.01 * (tau + weyl) ** 2
                           + 2 * (terms + k + 2) * _U * t)
    try:
        np.linalg.cholesky(g[..., first:, first:])
    except np.linalg.LinAlgError:
        return False
    return True


def _equilibrated(m: np.ndarray) -> np.ndarray:
    """Max-norm row/column scaling; preserves rank.

    Monomial-structured columns differ in scale by many orders of
    magnitude, which would otherwise push genuine directions below the
    relative singular-value cutoff.  Rows and columns are those of the
    trailing two axes, so a stack of blocks is scaled exactly as the
    block-diagonal matrix it stands for.

    One pass, rows then columns, reaches the fixed point of repeated
    passes on finite input.  Dividing a nonzero row by its maximum leaves
    an entry of magnitude exactly 1.0 in it (x/x rounds to 1) and none
    above 1.0 (division rounds monotonically).  A column holding such an
    entry has maximum 1.0 and is divided by 1.0, so the row keeps it; any
    other nonzero column is divided by its maximum and gains one.  Every
    nonzero row and column then has maximum exactly 1.0, and a further
    pass divides by 1.0, which changes no bit.  An inf or nan entry makes
    its row maximum non-finite; further passes spread the nan, so such
    input gets all five, and inf / inf turns nan without a warning.
    """
    out = np.array(m, dtype=float)
    with np.errstate(invalid="ignore"):
        for _ in range(5):
            rs = np.max(np.abs(out), axis=-1, keepdims=True)
            finite = np.isfinite(rs).all()
            rs[rs == 0.0] = 1.0
            out /= rs
            cs = np.max(np.abs(out), axis=-2, keepdims=True)
            cs[cs == 0.0] = 1.0
            out /= cs
            if finite:
                break
    return out


def aligned_within(sides) -> tuple[bool, bool]:
    """Span and column verdicts for every (wide, moved matrices) pair.

    Returns whether every moved matrix lies in the column span of its
    wide matrix, and whether every one of its columns equals a column of
    the wide matrix (``columns_subset_of``).  Once the span verdict is
    False no further rank runs, and once the column verdict is False
    columns are matched only where that can spare an exact-mode rank.  A
    wide matrix is ranked at most once, for all of its moved matrices.  In
    exact modes a literal column match is itself a proof of span
    containment, so a moved matrix whose columns all match is not ranked
    at all.  In float mode the match is within a tolerance and is no such
    proof, but when it pairs every moved column with a wide column and the
    wide matrix has full column rank, ``_certified_span`` may prove that
    the joined [moved, wide] matrix gets the wide matrix's rank.
    Otherwise the joined matrix, rank-deficient whenever the alignment
    holds, is ranked by the SVD alone (``_counted``).
    """
    span_ok = subset_ok = True
    for wide, moved_list in sides:
        exact = is_exact(wide)
        wide_rank = None
        for moved in moved_list:
            if moved.shape[0] != wide.shape[0]:
                raise DimensionMismatch(f"{moved.shape} vs {wide.shape}")
            col_map = (_column_map(moved, wide)
                       if subset_ok or (exact and span_ok) else None)
            subset_ok = subset_ok and col_map is not None
            if span_ok and moved.shape[1] and not (exact and
                                                   col_map is not None):
                if wide_rank is None:
                    wide_rank = rank(wide)
                joined = np.hstack([moved, wide])
                span_ok = ((col_map is not None
                            and wide_rank == wide.shape[1]
                            and _certified_span(joined, col_map))
                           or rank(_counted(joined)) == wide_rank)
    return span_ok, subset_ok


def columns_subset_of(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff every column of ``a`` equals some column of ``b``.

    Stronger than span containment: equality is exact in exact mode and,
    in float mode, within ``COL_MATCH_TOL`` relative to the scale of the
    column of ``b``.
    """
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    return _column_map(a, b) is not None


def _column_map(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """For each column of ``a``, the index of a column of ``b`` equal to
    it (``columns_subset_of``'s sense); None if some column has none.

    Exact columns are looked up in a dict.  Float columns a_j and b_k
    match when max|a_j - b_k| <= bound_k = COL_MATCH_TOL * max(1,
    max|b_k|), and the first such k is returned.  Columns that match have
    maxima within bound_k of each other, also as computed:
    |max|a_j| - max|b_k|| <= |a_rj - b_rk| for a row r that holds one of
    the maxima, and rounding is monotone, so fl of the left side is at
    most fl of the right.  So only the pairs whose maxima differ by more
    than bound_k are dropped, and the rest are compared in full; a nan
    difference of maxima (from inf - inf, or a nan entry) drops nothing.
    """
    if is_exact(a):
        index = {col: k for k, col in enumerate(map(tuple, b.T.tolist()))}
        cols = [index.get(col) for col in map(tuple, a.T.tolist())]
        return None if None in cols else np.array(cols, dtype=np.intp)
    b_max = np.abs(b).max(0, initial=0.0)
    bound = COL_MATCH_TOL * np.maximum(1.0, b_max)
    ok = ~(np.abs(np.abs(a).max(0, initial=0.0)[:, None] - b_max) > bound)
    j, k = np.nonzero(ok)
    ok[j, k] = np.abs(a[:, j] - b[:, k]).max(0, initial=0.0) <= bound[k]
    if not ok.any(1).all():
        return None
    return ok.argmax(1) if ok.size else np.zeros(0, dtype=np.intp)


def _certified_span(joined: np.ndarray, col_map: np.ndarray) -> bool:
    """True only if ``rank``'s SVD would count exactly k singular values of
    the equilibrated E = [E_M, E_W] of ``joined`` = [moved, wide].

    k is the wide part's column count, m the moved part's, and
    ``col_map`` pairs moved column j with wide column col_map[j].
    Notation and steps as in ``_certified_full``, with n_blocks = 1 and
    r, c, L the shape of ``joined``.  False means "not proved": the caller
    then runs the SVD.  Tried only from ``_CERTIFY_FROM`` up.

    1. Count <= k.  Equilibration divides every nonzero column by its
       maximum, so a moved column and the wide column it matches become
       equal up to rounding; take R = E_M - E_W[:, col_map].  The matrix
       [E_W[:, col_map], E_W] has rank <= k, so by Weyl's inequality
       s_{k+1}(E) <= ||R||_2 <= ||R||_F, whatever the map.  R is rounded
       once per entry and its squared norm summed by a dot product, so
       1.01 * sqrt(fl(sum R^2)) bounds ||R||_F (underflow adds below
       1e-150).  The test requires this to be at most
       REL_RANK_TOL * L / 4.  The SVD's s_{k+1} then exceeds the exact one
       by at most p u s_max <= (REL_RANK_TOL * L / 4) s_max (step 4), so
       it is at most (REL_RANK_TOL * L / 2) s_max, as s_max >= 1 (E has
       an entry of 1).  Its cutoff is at least
       REL_RANK_TOL * L * s_max (1 - p u)(1 - u)^2, which is larger for
       any L below 1e9.
    2. Count >= k.  ``_gram_clears`` on G = E^T E with its trailing k x k
       block G_W = E_W^T E_W: N bounds s_max(E)^2, so tau is at least
       twice any cutoff the SVD of E can compute, and the shifted
       Cholesky of G_W proves s_k(E_W) >= tau (step 3; T bounds tr G_W
       too).  E_W is a column subset of E, so by interlacing
       s_k(E) >= s_k(E_W) >= tau, and step 4 with the SVD gate on E's
       shape makes the SVD count all of the top k.
    """
    rows, cols = joined.shape
    if (rows * cols * min(rows, cols) + 1024 < _CERTIFY_FROM
            or not _svd_gate(rows, cols)):
        return False
    big, m = max(rows, cols), col_map.size
    e = _equilibrated(joined)
    r = e[:, :m] - e[:, m + col_map]
    if not 1.01 * math.sqrt(np.vdot(r, r)) <= REL_RANK_TOL * big / 4:
        return False
    return _gram_clears(e.T @ e, m, big, 1)


# ``_slotwise_rank`` certifies a float product from its factors from this
# size up, rows * cols * min(rows, cols); smaller ones are assembled and
# ranked.  On a 2-core x86-64 machine (numpy 2.4, OpenBLAS 0.3.31, 2
# threads, best of 5), assembling and ranking took 0.19 ms and the factor
# proof 0.29 ms for a 192x17 Lambda (size 5.5e4); 1.1 ms against 0.57 ms
# at 768x49 (1.8e6), and 3.8 ms against 1.3 ms at 972x160 (2.5e7).
_SLOTWISE_FROM = 2 ** 20


def _slotwise_rank(factors, assemble) -> int:
    """``rank(assemble())`` for a slot-wise product given by its factors.

    ``factors`` lists the column blocks (h, x) of the matrix in order: h
    is (n_ant, mu_n), x is (mu_n, k), and the block's entry in row
    t * n_ant + a, column j is h[a, t] * x[t, j] (``channel.apply``).
    ``assemble`` returns the matrix itself, and is called only when it is
    needed: for exact factors, below ``_SLOTWISE_FROM``, and when
    ``_certified_slotwise`` does not prove full column rank.  Then that
    proof has failed on a matrix that ``_certified_full`` would most
    likely not certify either, so the matrix goes to the SVD at once.
    """
    h0 = factors[0][0]
    rows = h0.shape[0] * h0.shape[1]
    cols = sum(x.shape[1] for _, x in factors)
    if is_exact(h0) or rows * cols * min(rows, cols) < _SLOTWISE_FROM:
        return rank(assemble())
    if _certified_slotwise(factors):
        return cols
    return rank(_counted(assemble()))


def _certified_slotwise(factors) -> bool:
    """True only if ``rank``'s SVD would count every column of the
    slot-wise product M of ``factors`` (``_slotwise_rank``), which is
    never formed.

    Notation as in ``_certified_full`` with n_blocks = 1: M is r x c,
    r = n_ant * mu_n, L = max(r, c), column block p of M is (h_p, x_p),
    and E is the equilibrated M that ``rank`` would form,
    E_ij = fl(fl(fl(M_ij) / rs_i) / cs_j).  False means "not proved".

    1. Row maxima.  |fl(h x)| = fl(|h| |x|) and rounding is monotone, so
       rs[a, t] = max_p fl(|h_p[a, t]| * max_j |x_p[t, j]|) is fl(M)'s row
       maximum bit for bit, and E's row scale (1 where 0).  Non-finite
       factors or rs: not proved.
    2. Column maxima.  With q_p = fl(h_p / rs) and g_p[t] = max_a
       |q_p[a, t]|, s_j = max_t fl(g_p[t] |x_p[t, j]|) (1 where 0) for
       column j of block p.  Both s_j and E's cs_j are the exact maximum
       c_j of |M_ij| / rs_i over i, times two factors (1 +- u) each.
    3. Weyl term.  Let F_ij = M_ij / (rs_i s_j) exactly.  E_ij carries
       three roundings of M_ij / (rs_i cs_j), so E_ij = F_ij (1 + e_ij),
       |e_ij| <= (1 + u)^5 / (1 - u)^2 - 1 < 8u, and
       ||E - F||_2 <= ||E - F||_F <= 8u ||F||_F <= 8u sqrt(T) =: w.  By
       Weyl's inequality each singular value of E is within w of the
       same one of F.
    4. Gram matrix.  G = F^T F has block (p, q) equal to
       x_p^T diag(v_pq) x_q / (s s^T), v_pq[t] = sum_a h_p h_q / rs^2,
       formed from q_p and q_q, one product per pair of blocks: half the
       products of E^T E.  Every term carries at most K = mu_n + n_ant + 5
       roundings (one in each q, one per product, n_ant - 1 sums in v, one
       product with x_q, the dot product over mu_n slots, two divisions),
       so |G^ - G| <= gamma_K |F|^T |F| entrywise, step 1 of
       ``_certified_full`` with K in place of L.  ``_gram_clears`` with
       spread 8u then bounds s_max(F)^2 by N, sets
       tau = 2 * 1.01 * REL_RANK_TOL * L * (sqrt(N) + w), at least twice
       any cutoff computed from s_max(E) <= s_max(F) + w, and its shifted
       Cholesky proves s_min(F) >= tau + w, so s_min(E) >= tau.
    5. Range.  Steps 2-4 take every rounding as relative.  The test
       requires l = |h|_min * min(1, |x|_min) * min(1, 1 / rs_max)
       >= 2**-1000 (nonzero minima), a lower bound on every nonzero
       fl(M_ij), fl(M_ij) / rs_i, E_ij (cs <= 1), q and g_p |x_p|, so
       these are normal and zeros stay exact zeros.  It requires
       g <= 2**500, so nothing overflows: |v_pq| <= n_ant g^2, and
       |q_q x_q| <= 1 and |q_p x_p| <= 1 bound |v_pq x_q| by n_ant g and
       each Gram product by n_ant.  And it requires
       min(1, g_min) * s_min >= 2**-450 (nonzero g).  A product in v or
       in the Gram sums may still underflow, by at most 2**-1074, and
       meets at most the factors |x_p| <= 1 / g_p and |x_q| <= 1 / g_q (at
       a slot where g_p = 0, v_pq = 0 exactly) and the division by
       s_j s_l.  That adds at most mu_n * (n_ant + 2) * 2**-1074 * 2**900
       to an entry, which vanishes against tau^2 >= 4e-18 (F has an entry
       of about 1, so N >= 1).
    6. Step 4 of ``_certified_full``, with the SVD gate on (r, c), makes
       the SVD of E count every singular value.
    """
    factors = [(h, x) for h, x in factors if x.shape[1]]
    h = np.stack([hp for hp, _ in factors])          # (P, n_ant, mu_n)
    _, n_ant, mu_n = h.shape
    rows, cols = n_ant * mu_n, sum(x.shape[1] for _, x in factors)
    if not _svd_gate(rows, cols):
        return False
    with np.errstate(all="ignore"):   # non-finite or extreme input: False
        gram = _slotwise_gram(factors, h, cols)
    return gram is not None and _gram_clears(
        gram, 0, max(rows, cols), 1, terms=mu_n + n_ant + 5, spread=8 * _U)


def _slotwise_gram(factors, h, cols) -> np.ndarray | None:
    """Steps 1, 2, 4 and 5 of ``_certified_slotwise``: the computed Gram
    matrix of F, or None where the range test fails.  Every temporary the
    size of a block goes through one scratch block."""
    widths = [x.shape[1] for _, x in factors]
    scratch = np.empty((h.shape[2], max(widths)), order="F")
    stats = {}   # row maxima and least nonzero |x| of each distinct matrix
    for _, x in factors:
        if id(x) not in stats:
            mag = np.abs(x, out=scratch[:, :x.shape[1]])
            stats[id(x)] = (mag.max(axis=1),
                            mag.min(initial=np.inf, where=mag > 0.0))
    mag_h = np.abs(h)
    rs = (mag_h * np.stack([stats[id(x)][0] for _, x in factors])
          [:, None, :]).max(axis=0)
    if not (np.isfinite(h).all() and np.isfinite(rs).all()):
        return None
    rs[rs == 0.0] = 1.0
    q = h / rs
    g = np.abs(q).max(axis=1)                        # (P, mu_n)
    bounds = np.cumsum([0] + widths)
    s = np.empty(cols)
    for p, (_, x) in enumerate(factors):
        gx = np.multiply(x, g[p][:, None], out=scratch[:, :x.shape[1]])
        s[bounds[p]:bounds[p + 1]] = np.abs(gx, out=gx).max(axis=0)
    s[s == 0.0] = 1.0
    x_lo = min(lo for _, lo in stats.values())
    if not (mag_h.min(initial=np.inf, where=mag_h > 0.0) * min(1.0, x_lo)
            * min(1.0, 1.0 / rs.max()) >= 2.0 ** -1000
            and g.max() <= 2.0 ** 500
            and min(1.0, g.min(initial=np.inf, where=g > 0.0)) * s.min()
            >= 2.0 ** -450):
        return None
    v = (q[:, None] * q[None, :]).sum(axis=2)        # (P, P, mu_n)
    gram = np.empty((cols, cols))
    for p, (_, x) in enumerate(factors):
        lo, hi = bounds[p], bounds[p + 1]
        for r in range(p, len(factors)):
            xv = np.multiply(factors[r][1], v[p, r, :, None],
                             out=scratch[:, :widths[r]])
            gram[lo:hi, bounds[r]:bounds[r + 1]] = x.T @ xv
        gram[hi:, lo:hi] = gram[lo:hi, hi:].T
    gram /= s
    gram /= s[:, None]
    return gram


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


def _rank_modp(a: np.ndarray) -> int:
    """Rank over F_P of a 2-D int64 array of residues; eliminates in place.

    Gaussian elimination, one column per step: swap a row with a nonzero
    entry into pivot row r, then update the rows below it in one sliced
    expression, row <- pivot * row + f * (P - pivot_row), with f the row's
    entry in the pivot column.  That update is invertible because the
    pivot is a unit, so no inverses are needed.  Each term is a product of
    two residues, below 2**62, so the sum is nonnegative and below 2**63,
    and ``fmod`` reduces it (faster than the sign-aware ``%``).
    """
    if a.shape[1] > a.shape[0]:
        a = a.T.copy()   # fewer columns, fewer steps
    nrows, ncols = a.shape
    r = 0
    for col in range(ncols):
        if not a[r, col]:
            nz = np.flatnonzero(a[r:, col])
            if nz.size == 0:
                continue
            a[[r, r + nz[0]], col:] = a[[r + nz[0], r], col:]
        below = a[r + 1:, col:]
        f = below[:, :1] * (P - a[r, col:])
        below *= a[r, col]
        below += f
        np.fmod(below, P, out=below)
        r += 1
        if r == nrows:
            break
    return r


def solve_blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a[t] @ x[t] = b[t] for every block t, in every mode.

    ``a`` is (blocks, n, n) and ``b`` is (blocks, n, k).  LU elimination
    with partial pivoting, then back substitution, runs on all blocks at
    once.  Every step is elementwise numpy, so float64, Fraction and ModP
    arrays take the same path and the exact modes stay exact.  As in LAPACK's
    getrf/getrs, each division multiplies by the pivot's reciprocal, which
    keeps float results on the rounding of numpy.linalg.solve.

    Raises numpy.linalg.LinAlgError on a singular stack, and this is the
    one place that decides it.  In exact modes a zero pivot is the test:
    partial pivoting meets one exactly when a block is singular.  A float
    stack is singular when ``rank`` of the block-diagonal matrix it stands
    for is below blocks * n, so the usual float cutoff applies; a zero
    pivot can then only come from rounding, and raises too.
    """
    if a.ndim != 3 or a.shape[1] != a.shape[2] or b.shape[:2] != a.shape[:2]:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    n_blocks, n = a.shape[:2]
    if not is_exact(a) and rank(a) < n_blocks * n:
        raise np.linalg.LinAlgError("singular block")
    a, b = a.copy(), b.copy()
    blocks = np.arange(n_blocks)
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
    """Matrix product in every mode (``ndarray.dot`` would overflow ModP)."""
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    return np.matmul(a, b)
