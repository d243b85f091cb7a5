from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_align import numerics
from sigma_align.errors import DimensionMismatch, EmptyMatrix
from sigma_align.numerics import (columns_subset_of, exact_matrix, rank,
                                  subspace_contains)


def test_rank_identity():
    assert rank(np.eye(3)) == 3
    assert rank(exact_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_proportional_rows():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert rank(m) == 1
    assert rank(exact_matrix([[1, 2], [2, 4]])) == 1


def test_rank_empty_matrix_rejected():
    with pytest.raises(EmptyMatrix):
        rank(np.zeros((0, 3)))


def test_rank_zero_matrix():
    assert rank(np.zeros((4, 4))) == 0
    assert rank(np.full((4, 4), Fraction(0), dtype=object)) == 0
    assert rank(numerics.zp_array(np.zeros((4, 4), dtype=int))) == 0


def test_modp_rank_with_integer_zeros():
    # np.diag and np.zeros(..., dtype=object) fill in Python int zeros
    z = numerics.zp_array([3, 5])
    assert rank(np.diag(z)) == 2
    m = np.zeros((2, 2), dtype=object)
    m[1, :] = z
    assert rank(m) == 1
    assert rank(np.stack([m, np.diag(z)])) == 3


def test_rank_monomial_tall_matrix():
    # 6x4 with entries x_i^e_j, exponents {1,2,3,4}: full column rank for
    # generic x (cross-checked exactly below).
    rng = np.random.default_rng(11)
    x = [Fraction(int(k), 64) for k in rng.integers(33, 128, size=6)]
    m = exact_matrix([[xi ** e for e in (1, 2, 3, 4)] for xi in x])
    assert rank(m) == 4
    assert rank(m.astype(float)) == 4


def test_subspace_contains_column_subset():
    b = np.array([[1.0, 3.0], [2.0, 5.0]])
    a = b[:, :1]
    assert subspace_contains(a, b)


def test_subspace_contains_orthogonal():
    b = np.array([[1.0], [0.0]])
    a = np.array([[0.0], [1.0]])
    assert not subspace_contains(a, b)


def test_subspace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        subspace_contains(np.eye(2), np.eye(3))


def test_columns_subset_permutation():
    b = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    a = b[:, [2, 0, 1]]
    assert columns_subset_of(a, b)


def test_columns_subset_scaling_breaks_equality():
    b = np.array([[1.0], [2.0]])
    assert subspace_contains(2 * b, b)
    assert not columns_subset_of(2 * b, b)


def test_columns_subset_implies_span():
    rng = np.random.default_rng(0)
    b = rng.normal(size=(5, 3))
    a = b[:, [1, 1, 2]]
    assert columns_subset_of(a, b)
    assert subspace_contains(a, b)


def test_columns_subset_exact_mode():
    b = exact_matrix([[1, 2], [3, 4]])
    a = b[:, [1]]
    assert columns_subset_of(a, b)
    a2 = a.copy()
    a2[0, 0] = a2[0, 0] + Fraction(1, 10 ** 12)
    assert not columns_subset_of(a2, b)


def test_columns_subset_exact_mode_repeated_columns():
    b = exact_matrix([[1, 2, 1, 2], [3, 4, 3, 4]])
    assert columns_subset_of(b[:, [3, 0, 0]], b)
    assert not columns_subset_of(exact_matrix([[1], [4]]), b)


def test_columns_subset_tolerance_is_relative_to_column_scale():
    b = np.array([[3.0e20, 1.0], [2.0, 5.0]])
    near = b[:, :1] + np.array([[np.spacing(3.0e20)], [0.0]])
    assert columns_subset_of(near, b)
    far = b[:, :1] * np.array([[1 + 1e-6], [1.0]])
    assert not columns_subset_of(far, b)
    assert not columns_subset_of(np.hstack([near, far]), b)
    # below unit scale the threshold stays absolute
    assert not columns_subset_of(np.array([[1.0 + 1e-6], [5.0]]), b)
    assert columns_subset_of(np.array([[1.0 + 1e-9], [5.0]]), b)


@st.composite
def small_rational_matrix(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]


@given(small_rational_matrix())
@settings(max_examples=150, deadline=None)
def test_rank_transpose_invariant(rows):
    m = exact_matrix(rows)
    assert rank(m) == rank(m.T)


# Small-integer matrices keep |det| >= 1 when nonsingular, so the float
# cutoff cannot disagree with the exact rank.
@given(st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_float_rank_matches_exact_rank(nrows, ncols, data):
    rows = [[data.draw(st.integers(-4, 4)) for _ in range(ncols)]
            for _ in range(nrows)]
    m = exact_matrix(rows)
    if np.all(m.astype(float) == 0.0):
        assert rank(m) == 0
        return
    assert rank(m.astype(float)) == rank(m)


# Hadamard: a 5x5 minor with entries in [-9, 9] is at most (9 * 5 ** 0.5) ** 5
# < 3.4e6 < P in absolute value, so it vanishes mod P only if it is zero,
# and the rank over F_P equals the rank over Q.
@st.composite
def small_integer_matrix(draw):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.integers(-9, 9)
    if draw(st.booleans()):
        return np.array([[draw(entries) for _ in range(ncols)]
                         for _ in range(nrows)])
    # a product of thin factors: rank at most k, so rank-deficient
    # whenever both sides exceed k; entries stay within [-6, 6]
    k = draw(st.integers(1, 2))
    f = np.array([[draw(st.integers(-3, 3)) for _ in range(k)]
                  for _ in range(nrows)])
    g = np.array([[draw(st.integers(-1, 1)) for _ in range(ncols)]
                  for _ in range(k)])
    return f @ g


@given(small_integer_matrix())
@settings(max_examples=300, deadline=None)
def test_modp_rank_matches_exact_rank(ints):
    assert np.abs(ints).max() <= 9
    exact = numerics._rank_exact(exact_matrix(ints))
    assert rank(numerics.zp_array(ints)) == exact
    assert rank(numerics.zp_array(ints.T)) == exact


@given(small_integer_matrix(), st.integers(1, 6), st.integers(0, 2 ** 16))
@settings(max_examples=100, deadline=None)
def test_modp_rank_of_stack_is_sum_of_block_ranks(b0, n_blocks, seed):
    # one shape; even blocks are b0 times -1, 0 or 1, odd blocks random,
    # so block ranks differ within the stack
    rng = np.random.default_rng(seed)
    blocks = [b0 * int(rng.integers(-1, 2)) if t % 2 == 0
              else rng.integers(-9, 10, size=b0.shape)
              for t in range(n_blocks)]
    stack = numerics.zp_array(np.stack(blocks))
    expected = sum(numerics._rank_exact(exact_matrix(b)) for b in blocks)
    assert rank(stack) == expected


_INT_OPS = {
    "add": lambda x, y: x + y, "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
}


@given(st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 70, 2 ** 70),
       st.integers(0, 200))
@settings(max_examples=300, deadline=None)
def test_zp_arithmetic_matches_int_mod_p(x, y, e):
    p = numerics.P
    zx, zy = numerics.Zp(x), numerics.Zp(y)
    assert zx.v == x % p and 0 <= zx.v < p
    for op in _INT_OPS.values():
        want = op(x, y) % p
        assert op(zx, zy).v == want
        assert op(zx, y).v == want          # integer on the right
        assert op(x, zy).v == want          # integer on the left
        assert op(zx, np.int64(y % 2 ** 62)).v == op(x, y % 2 ** 62) % p
    assert (-zx).v == -x % p
    assert (zx ** e).v == pow(x, e, p)
    assert abs(zx) == (0 if x % p == 0 else 1)
    assert bool(zx) == (x % p != 0)
    assert (zx == zy) == (x % p == y % p)
    assert (zx == y) == (x % p == y % p)
    assert hash(zx) == hash(numerics.Zp(x + 5 * p))
    if y % p:
        assert ((zx / zy) * zy).v == x % p
        assert ((x / zy) * zy).v == x % p
    else:
        with pytest.raises(ZeroDivisionError):
            zx / zy
    with pytest.raises(TypeError):
        zx + Fraction(1, 2)
    with pytest.raises(TypeError):
        zx * 0.5


def _block_diag(blocks):
    nb, r, c = blocks.shape
    zero = Fraction(0) if numerics.is_exact(blocks) else 0.0
    out = np.full((nb * r, nb * c), zero, dtype=blocks.dtype)
    for t in range(nb):
        out[t * r:(t + 1) * r, t * c:(t + 1) * c] = blocks[t]
    return out


def test_solve_exact_roundtrip():
    a = exact_matrix([[2, 1], [1, 3]])[None]
    b = exact_matrix([[1, 0], [0, 1]])[None]
    x = numerics.solve_blocks(a, b)
    prod = numerics.matmul(a[0], x[0])
    assert all(prod[i, j] == (1 if i == j else 0)
               for i in range(2) for j in range(2))


def test_solve_exact_singular():
    a = np.stack([exact_matrix([[1, 0], [0, 1]]),
                  exact_matrix([[1, 2], [2, 4]])])
    with pytest.raises(np.linalg.LinAlgError):
        numerics.solve_blocks(a, exact_matrix([[1], [1]])[None].repeat(2, 0))


@given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_solve_blocks_both_modes(n_blocks, n, k, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-5, 6, size=(n_blocks, n, n))
    a[:, range(n), range(n)] += 20     # diagonally dominant: nonsingular
    b = rng.integers(-5, 6, size=(n_blocks, n, k))
    x = numerics.solve_blocks(a.astype(float), b.astype(float))
    ref = np.linalg.solve(a, b)
    # |a| <= 25 and a's diagonal dominance keep cond(a) below 10, so a few
    # ulps of the largest solution entry bound the rounding difference.
    assert np.allclose(x, ref, rtol=0, atol=1e-14 * max(np.abs(ref).max(), 1))
    ea = exact_matrix(a.reshape(-1, n)).reshape(a.shape)
    eb = exact_matrix(b.reshape(-1, k)).reshape(b.shape)
    ex = numerics.solve_blocks(ea, eb)
    assert ex.dtype == object
    for t in range(n_blocks):
        assert np.array_equal(numerics.matmul(ea[t], ex[t]), eb[t])
    # |det a| <= (25 * 3 ** 0.5) ** 3 < P, so a is invertible mod P too
    za, zb = numerics.zp_array(a), numerics.zp_array(b)
    zx = numerics.solve_blocks(za, zb)
    assert all(type(x) is numerics.Zp for x in zx.flat)
    for t in range(n_blocks):
        assert np.array_equal(numerics.matmul(za[t], zx[t]), zb[t])


def test_solve_blocks_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        numerics.solve_blocks(np.ones((2, 2, 3)), np.ones((2, 2, 1)))


@given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_rank_of_blocks_is_rank_of_block_diagonal(n_blocks, r, c, data):
    # Singular values of a block-diagonal matrix are the union of its
    # blocks' values, and max-norm scaling acts block by block, so the
    # stacked blocks get the dense matrix's rank in both modes.
    ints = np.array([[[data.draw(st.integers(-3, 3)) for _ in range(c)]
                      for _ in range(r)] for _ in range(n_blocks)])
    blocks = exact_matrix(ints.reshape(-1, c)).reshape(ints.shape)
    assert rank(blocks) == rank(_block_diag(blocks))
    fblocks = ints.astype(float)
    assert rank(fblocks) == rank(_block_diag(fblocks)) == rank(blocks)
    scaled = numerics._equilibrated(_block_diag(fblocks))
    assert np.array_equal(_block_diag(numerics._equilibrated(fblocks)), scaled)


def test_rank_of_blocks_uses_the_full_matrix_cutoff():
    # Each block's smaller singular value, about 2e-8, clears a one-block
    # cutoff (1e-9 * 2 * 2) but not the 20x20 block-diagonal matrix's.
    blocks = np.array([[[1.0, 1.0], [1.0, 1.0 + 4e-8]]] * 10)
    assert rank(blocks[:1]) == 2
    assert rank(blocks) == rank(_block_diag(blocks)) == 10
