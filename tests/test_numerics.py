import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_align import numerics
from sigma_align.errors import DimensionMismatch, EmptyMatrix
from sigma_align.numerics import (aligned_within, columns_subset_of,
                                  exact_matrix, rank)


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
    # zeros from an integer diag and from np.zeros_like, which keeps ModP
    z = numerics.zp_array([3, 5])
    d = numerics.zp_array(np.diag([3, 5]))
    assert rank(d) == 2
    m = np.zeros_like(z, shape=(2, 2))
    m[1, :] = z
    assert isinstance(m, numerics.ModP)
    assert rank(m) == 1
    assert rank(np.stack([m, d])) == 3


def test_modp_joins_keep_the_type():
    # det = 2 * (P + 1) / 2 - 1 = P: singular over F_P, not over the reals,
    # so only a ModP join gets the F_P rank
    p = numerics.P
    a = numerics.zp_array([[2], [1]])
    b = numerics.zp_array([[1], [(p + 1) // 2]])
    for joined in (np.hstack([a, b]), np.concatenate([a, b], axis=1),
                   np.stack([a[:, 0], b[:, 0]], axis=-1),
                   np.vstack([a.T, b.T]).T):
        assert isinstance(joined, numerics.ModP)
        assert joined.dtype == np.int64
        assert rank(joined) == 1
    assert rank(np.asarray(np.hstack([a, b]), dtype=float)) == 2
    # an empty plain block joined in, as build_lambda does
    empty = np.empty((2, 0), dtype=np.int64)
    assert isinstance(np.hstack([empty, a, b]), numerics.ModP)
    assert numerics.is_exact(np.hstack([a, b]))


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
    assert aligned_within([(b, [a])])[0]


def test_subspace_contains_orthogonal():
    b = np.array([[1.0], [0.0]])
    a = np.array([[0.0], [1.0]])
    assert not aligned_within([(b, [a])])[0]


def test_subspace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        aligned_within([(np.eye(3), [np.eye(2)])])


def test_columns_subset_permutation():
    b = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    a = b[:, [2, 0, 1]]
    assert columns_subset_of(a, b)


def test_columns_subset_scaling_breaks_equality():
    b = np.array([[1.0], [2.0]])
    assert aligned_within([(b, [2 * b])]) == (True, False)
    assert not columns_subset_of(2 * b, b)


def test_columns_subset_implies_span():
    rng = np.random.default_rng(0)
    b = rng.normal(size=(5, 3))
    a = b[:, [1, 1, 2]]
    assert columns_subset_of(a, b)
    assert aligned_within([(b, [a])]) == (True, True)


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


def _ints(values):
    """Python ints of any size, which never overflow, in an object array."""
    return np.array(values, dtype=object)


def _is_residues(z, want):
    return (isinstance(z, numerics.ModP) and z.dtype == np.int64
            and z.tolist() == [w % numerics.P for w in want])


# A multiple of P, near it, or anything up to 2**70 in size: zero and
# nonzero residues both occur.
_operand = st.one_of(st.integers(-2 ** 70, 2 ** 70),
                     st.integers(-3, 3).map(lambda k: k * numerics.P),
                     st.integers(-3, 3).map(lambda k: k * numerics.P + 1))


@given(st.lists(st.tuples(_operand, _operand, st.integers(0, 200)),
                min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_zp_arithmetic_matches_int_mod_p(entries):
    p = numerics.P
    xs, ys, es = (list(t) for t in zip(*entries))
    zx, zy = numerics.zp_array(_ints(xs)), numerics.zp_array(_ints(ys))
    assert _is_residues(zx, xs)
    assert all(0 <= v < p for v in zx.tolist())
    y0 = ys[0]
    for op in _INT_OPS.values():
        want = [op(x, y) for x, y in zip(xs, ys)]
        assert _is_residues(op(zx, zy), want)
        assert _is_residues(op(zx, _ints(ys)), want)   # integers on the right
        assert _is_residues(op(_ints(xs), zy), want)   # integers on the left
        assert _is_residues(op(zx, y0), [op(x, y0) for x in xs])
        assert _is_residues(op(y0, zx), [op(y0, x) for x in xs])
        small = np.array([y % 2 ** 62 for y in ys], dtype=np.int64)
        assert _is_residues(op(zx, small),
                            [op(x, y % 2 ** 62) for x, y in zip(xs, ys)])
    in_place = zx.copy()
    in_place -= zy
    assert _is_residues(in_place, [x - y for x, y in zip(xs, ys)])
    in_place *= zy
    assert _is_residues(in_place, [(x - y) * y for x, y in zip(xs, ys)])
    assert _is_residues(-zx, [-x for x in xs])
    assert _is_residues(zx ** es[0], [pow(x, es[0], p) for x in xs])
    assert _is_residues(zx ** np.array(es), [pow(x, e, p)
                                             for x, e in zip(xs, es)])
    assert _is_residues(np.prod(np.stack([zx, zy, zx]), axis=0),
                        [x * y * x for x, y in zip(xs, ys)])
    # abs is the identity on residues, so a nonzero entry is never smallest
    assert np.abs(zx).tolist() == zx.tolist()
    assert (np.abs(zx) > 0).tolist() == [x % p != 0 for x in xs]
    assert (zx != 0).tolist() == [x % p != 0 for x in xs]
    assert (zx == zy).tolist() == [x % p == y % p for x, y in zip(xs, ys)]
    assert (zx == y0).tolist() == [x % p == y0 % p for x in xs]
    # a column is found by its residues, whatever integers built it
    shifted = numerics.zp_array(_ints([x + 5 * p for x in xs]))
    assert np.array_equal(shifted, zx)
    assert numerics.columns_subset_of(shifted[:, None], zx[:, None])
    if all(y % p for y in ys):
        assert _is_residues((zx / zy) * zy, xs)
        assert _is_residues((_ints(xs) / zy) * zy, xs)
        assert _is_residues((1 / zy) * zy, [1] * len(ys))
    else:
        with pytest.raises(ZeroDivisionError):
            zx / zy
        with pytest.raises(ZeroDivisionError):
            1 / zy
    with pytest.raises(TypeError):
        zx + Fraction(1, 2)
    with pytest.raises(TypeError):
        zx * 0.5
    with pytest.raises(TypeError):
        zx * np.full(len(xs), 0.5)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2 ** 16))
@settings(max_examples=50, deadline=None)
def test_modp_matmul_matches_int_mod_p(n, k, m, seed):
    # the dense reference product of the modp tests, against Python ints
    rng = np.random.default_rng(seed)
    a = rng.integers(0, numerics.P, size=(n, k))
    b = rng.integers(0, numerics.P, size=(k, m))
    want = _ints(a.tolist()).dot(_ints(b.tolist())) % numerics.P
    prod = numerics.matmul(numerics.zp_array(a), numerics.zp_array(b))
    assert isinstance(prod, numerics.ModP)
    assert prod.tolist() == want.tolist()


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
    assert isinstance(zx, numerics.ModP) and zx.dtype == np.int64
    for t in range(n_blocks):
        assert np.array_equal(numerics.matmul(za[t], zx[t]), zb[t])


@given(st.integers(1, 4), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_blocks_raises_iff_the_stack_is_singular(n_blocks, n, data):
    # entries in -2..2 make singular blocks common; |det| <= 48 < P, so a
    # block is singular over F_P exactly when it is over the rationals
    ints = np.array([[[data.draw(st.integers(-2, 2)) for _ in range(n)]
                      for _ in range(n)] for _ in range(n_blocks)])
    ones = np.ones((n_blocks, n, 1), dtype=int)
    singular = set()
    for a, b in ((exact_matrix(ints.reshape(-1, n)).reshape(ints.shape),
                  exact_matrix(ones.reshape(-1, 1)).reshape(ones.shape)),
                 (numerics.zp_array(ints), numerics.zp_array(ones))):
        try:
            numerics.solve_blocks(a, b)
            raised = False
        except np.linalg.LinAlgError:
            raised = True
        assert raised == (rank(a) < n_blocks * n)
        singular.add(raised)
    assert len(singular) == 1


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


def _equilibrated_5_passes(m):
    """The five-pass max-norm scaling that ``_equilibrated`` shortcuts."""
    out = np.array(m, dtype=float)
    with np.errstate(invalid="ignore"):   # inf / inf is nan, as intended
        for _ in range(5):
            rs = np.max(np.abs(out), axis=-1, keepdims=True)
            rs[rs == 0.0] = 1.0
            out /= rs
            cs = np.max(np.abs(out), axis=-2, keepdims=True)
            cs[cs == 0.0] = 1.0
            out /= cs
    return out


@st.composite
def scaling_inputs(draw, finite=False):
    """2-D and 3-D arrays with signs, zeros, zero rows and columns,
    magnitudes from subnormal up to 1e308 and, unless finite, inf/nan."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=3)))
    size = int(np.prod(shape))
    mant = draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
    expo = draw(st.lists(st.integers(-1070, 1023), min_size=size,
                         max_size=size))
    a = np.ldexp(np.array(mant), np.array(expo)).reshape(shape)
    zero = st.lists(st.booleans(), min_size=1)
    rows = np.resize(draw(zero), shape[-2])
    cols = np.resize(draw(zero), shape[-1])
    a[..., rows & draw(st.booleans()), :] = 0.0
    a[..., cols & draw(st.booleans())] = 0.0
    if not finite:
        for _ in range(draw(st.integers(0, 2))):
            idx = tuple(draw(st.integers(0, k - 1)) for k in shape)
            a[idx] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return a


@given(scaling_inputs())
@settings(max_examples=500, deadline=None)
def test_equilibrated_matches_five_passes(a):
    # byte for byte, so nan payloads and the sign of zero agree too
    got, want = numerics._equilibrated(a), _equilibrated_5_passes(a)
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


@given(scaling_inputs(finite=True))
@settings(max_examples=300, deadline=None)
def test_equilibrated_is_a_fixed_point(a):
    out = numerics._equilibrated(a)
    assert numerics._equilibrated(out).tobytes() == out.tobytes()
    mags = np.abs(out)
    for axis in (-1, -2):
        peak = mags.max(axis=axis)
        assert np.all((peak == 1.0) | (peak == 0.0))


def _svd_count(e):
    """``rank``'s SVD count on an equilibrated array, with no full-rank
    certificate: the reference of the tests below."""
    rows, cols = e.shape[-2:]
    s = np.linalg.svd(e, compute_uv=False)
    if s.max() == 0.0:
        return 0
    cutoff = (numerics.REL_RANK_TOL * s.max() * (e.size // (rows * cols))
              * max(rows, cols))
    return int(np.sum(s > cutoff))


def _outcome(f, m):
    try:
        return f(m)
    except np.linalg.LinAlgError as err:
        return type(err)


@st.composite
def known_spectrum(draw):
    """(e, ratio): blocks U diag(s) V^T with s_max = 1 in the first block
    and each block's s_min at a drawn multiple of the nominal cutoff
    REL_RANK_TOL * blocks * max(rows, cols), from 1e-3 to 1e3, with extra
    weight on (1, 2), where the certificate must decline; ratio is the
    smallest of them.  Tall, wide and square, with up to 400 rows or
    columns: from about 100 on, tau rather than the rounding allowance
    decides the certificate."""
    n_blocks = draw(st.integers(1, 3)) if draw(st.booleans()) else None
    k = draw(st.integers(1, 12))
    long = draw(st.one_of(st.integers(k, 12), st.integers(100, 400)))
    rows, cols = (long, k) if draw(st.booleans()) else (k, long)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nominal = numerics.REL_RANK_TOL * (n_blocks or 1) * max(rows, cols)
    ratio = st.one_of(st.floats(-3, 3).map(lambda x: 10.0 ** x),
                      st.floats(1.0, 2.0))
    blocks, ratios = [], []
    for b in range(n_blocks or 1):
        r = draw(ratio)
        s = np.sort((r * nominal) ** rng.uniform(0, 1, size=k))[::-1]
        s[-1] = r * nominal
        if b == 0:
            s[0] = 1.0
        u = np.linalg.qr(rng.normal(size=(rows, k)))[0]
        v = np.linalg.qr(rng.normal(size=(cols, k)))[0]
        blocks.append((u * s) @ v.T)
        ratios.append(r if k > 1 or b else np.inf)   # s_min = s_max: no cutoff
    e = np.stack(blocks) if n_blocks else blocks[0]
    return e, min(ratios)


@given(known_spectrum())
@settings(max_examples=400, deadline=None)
def test_certificate_claims_only_what_the_svd_counts(case):
    e, ratio = case
    rows, cols = e.shape[-2:]
    n_blocks = e.size // (rows * cols)
    full = n_blocks * min(rows, cols)
    certified = numerics._certified_full(e, n_blocks)
    if certified:
        assert _svd_count(e) == full
    if ratio < 2.0:
        assert not certified     # tau is at least twice the cutoff
    if ratio >= 500.0:
        assert certified         # far above every allowance at these sizes


@st.composite
def rank_inputs(draw):
    """Known-spectrum matrices with rows and columns rescaled by up to 1e3
    either way, zero rows or columns, and inf or nan entries."""
    e, _ = draw(known_spectrum())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = e * 10.0 ** rng.uniform(-3, 3, size=e.shape[-2:][:1] + (1,))
    m = m * 10.0 ** rng.uniform(-3, 3, size=e.shape[-1:])
    if draw(st.booleans()):
        m[..., rng.integers(m.shape[-2]), :] = 0.0
    if draw(st.booleans()):
        m[..., rng.integers(m.shape[-1])] = 0.0
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        idx = tuple(int(rng.integers(n)) for n in m.shape)
        m[idx] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return m


@given(rank_inputs())
@settings(max_examples=400, deadline=None)
def test_rank_matches_the_svd_count(m):
    want = _outcome(lambda a: _svd_count(numerics._equilibrated(a)), m)
    assert _outcome(rank, m) == want


@pytest.mark.parametrize("shape", [(2, 2), (60, 40), (3, 60, 40)])
@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
def test_rank_of_a_non_finite_matrix_warns_nothing(shape, entry):
    # equilibration turns the entry's rows nan (inf / inf on the way), so
    # the SVD does not converge, below and above the certificate's size;
    # the nan is intended and raises no RuntimeWarning
    m = np.random.default_rng(0).uniform(-1.0, 1.0, size=shape)
    m[(0,) * len(shape)] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(rank, m) is np.linalg.LinAlgError


def test_big_n2_float_counts_only_the_alignment_matrices(monkeypatch):
    # no SVD: the 2 channel stacks, 3 pairwise matrices, 2 Lambdas and the
    # 2 wide structured matrices are certified full by Cholesky, and the 4
    # alignment hstacks, deficient by design, get the wide rank from the
    # column match and a Cholesky of their wide block (_certified_span)
    from sigma_align import verify
    from sigma_align.region import DofPoint, SigmaConfig
    calls = {"svd": [], "cholesky": []}
    for name, calls_of in calls.items():
        def counting(a, *args, _f=getattr(np.linalg, name), _calls=calls_of,
                     **kwargs):
            _calls.append(a.shape)
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    r = verify.run_experiment(
        SigmaConfig(2, 2, 0, 3, 0),
        DofPoint.make(db1=["1/6"] * 3, db2=["1/6"] * 3), 2, 31, "float")
    assert r.passed
    assert r.lambda1 == r.lambda2 == {"rows": 972, "cols": 160, "rank": 160,
                                      "full": True}
    assert calls["svd"] == []
    assert calls["cholesky"].count((36, 36)) == 6   # 2 wide, 4 span blocks
    assert len(calls["cholesky"]) == 13


def _columns_subset_of_loop(a, b):
    """The float column match as one numpy pass per column of ``a``: the
    oracle of ``_column_map``."""
    bound = numerics.COL_MATCH_TOL * np.maximum(
        1.0, np.max(np.abs(b), axis=0, initial=0.0))
    return all(np.any(np.max(np.abs(b - col[:, None]), axis=0, initial=0.0)
                      <= bound)
               for col in a.T)


@st.composite
def column_pairs(draw):
    """(a, b): float columns of scales 1e-12 to 1e12, where columns of a
    are fresh or copies of columns of b moved by 0 to 1000 times the
    match bound, b may repeat a column, and entries may be inf or nan;
    empty shapes included."""
    rows, na, nb = (draw(st.integers(0, 5)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    b = rng.normal(size=(rows, nb)) * 10.0 ** rng.uniform(-12, 12, size=nb)
    if nb > 1 and draw(st.booleans()):
        b[:, 1] = b[:, 0]
    bound = numerics.COL_MATCH_TOL * np.maximum(
        1.0, np.max(np.abs(b), axis=0, initial=0.0))
    a = rng.normal(size=(rows, na)) * 10.0 ** rng.uniform(-12, 12, size=na)
    for j in range(na):
        if nb and draw(st.booleans()):
            k = rng.integers(nb)
            step = draw(st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0,
                                         1e3]))
            a[:, j] = b[:, k] + step * bound[k] * rng.choice([-1.0, 1.0],
                                                             size=rows)
    for m in (a, b):
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
            if m.size:
                m[rng.integers(rows), rng.integers(m.shape[1])] = \
                    draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return a, b


@given(column_pairs())
@settings(max_examples=600, deadline=None)
def test_column_map_agrees_with_the_per_column_loop(case):
    a, b = case
    with np.errstate(invalid="ignore", over="ignore"):
        col_map = numerics._column_map(a, b)
        assert (col_map is not None) == _columns_subset_of_loop(a, b)
        assert columns_subset_of(a, b) == (col_map is not None)
        if col_map is None:
            return
        assert col_map.shape == (a.shape[1],)
        bound = numerics.COL_MATCH_TOL * np.maximum(
            1.0, np.max(np.abs(b), axis=0, initial=0.0))
        for j, k in enumerate(col_map):
            hits = np.max(np.abs(b - a[:, j, None]), axis=0,
                          initial=0.0) <= bound
            assert hits[k] and not hits[:k].any()   # the first real match


def test_column_map_keeps_a_match_across_infinities():
    # max|a| = max|b| = inf, so the maxima differ by nan; the entries
    # differ by inf against an infinite bound, which is a match
    a = np.array([[np.inf], [0.0]])
    b = np.array([[0.0], [np.inf]])
    with np.errstate(invalid="ignore"):
        assert _columns_subset_of_loop(a, b)
        assert numerics._column_map(a, b).tolist() == [0]


@st.composite
def near_aligned(draw):
    """(joined, col_map): [M, W] with W = U diag(s) V^T, s falling from 1
    to an s_min of 1e-9 to 1, and M = W[:, col_map] plus a perturbation
    of norm 1e-3 to 1e3 times the nominal cutoff
    REL_RANK_TOL * max(rows, cols).  Columns are then scaled by 1e-6 to 1
    and, half the time, rows by up to 1e2 either way.  Most shapes reach
    ``_CERTIFY_FROM``."""
    k, m = draw(st.integers(10, 24)), draw(st.integers(1, 10))
    rows = draw(st.integers(k, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s_min = 10.0 ** rng.uniform(-9, 0)
    s = np.sort(s_min ** rng.uniform(0, 1, size=k))[::-1]
    s[0], s[-1] = 1.0, s_min
    u = np.linalg.qr(rng.normal(size=(rows, k)))[0]
    v = np.linalg.qr(rng.normal(size=(k, k)))[0]
    w = (u * s) @ v.T
    col_map = rng.integers(0, k, size=m)
    p = rng.normal(size=(rows, m))
    p *= (10.0 ** rng.uniform(-3, 3) * numerics.REL_RANK_TOL
          * max(rows, k + m) / np.linalg.norm(p))
    joined = np.hstack([w[:, col_map] + p, w])
    joined *= 10.0 ** rng.uniform(-6, 0, size=k + m)
    if draw(st.booleans()):
        joined *= 10.0 ** rng.uniform(-2, 2, size=(rows, 1))
    return joined, col_map


@given(near_aligned())
@settings(max_examples=600, deadline=None)
def test_span_certificate_claims_only_what_the_svd_counts(case):
    joined, col_map = case
    rows, cols = joined.shape
    m = col_map.size
    certified = numerics._certified_span(joined, col_map)
    e = numerics._equilibrated(joined)
    if certified:
        assert _svd_count(e) == cols - m
    # far inside both margins, measured on the equilibrated matrix: the
    # residual below a tenth of the nominal cutoff (the test allows a
    # quarter), and the wide block's s_min far above tau
    residual = np.linalg.norm(e[:, :m] - e[:, m + col_map])
    if (residual < 0.1 * numerics.REL_RANK_TOL * max(rows, cols)
            and np.linalg.svd(e[:, m:], compute_uv=False).min() > 1e-3
            and rows * cols * min(rows, cols) + 1024
            >= numerics._CERTIFY_FROM):
        assert certified


def _slotwise(factors):
    """The product that slot-wise factors stand for, formed as
    ``channel.apply`` forms it: row t * n_ant + a of block (h, x) is
    h[a, t] * x[t, :]."""
    with np.errstate(all="ignore"):
        return np.hstack([(h.T[:, :, None] * x[:, None, :]).reshape(
            -1, x.shape[1]) for h, x in factors])


@st.composite
def slotwise_products(draw, finite=False):
    """Column blocks (h, x) of a tall slot-wise product.

    Half are random: n_ant 1 to 3, signed h of magnitude 1e-2 to 1e2, x
    with column scales 1e-12 to 1e12, and at times a block repeated with
    its h scaled (rank-deficient), zero rows, zero columns and, unless
    finite, inf or nan entries.  The other half have n_ant = 1 and a
    drawn spectrum: the product is U diag(s) V^T with s_min 0.1 to 1e3
    times the nominal cutoff REL_RANK_TOL * rows (extra weight on 1 to
    2.5), its rows and columns then scaled by up to 1e3 either way, and
    1000 to 3000 rows but at most 12 columns, where tau rather than the
    rounding allowance decides the certificate."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spectrum = draw(st.booleans())
    widths = draw(st.lists(st.integers(1, 3 if spectrum else 8), min_size=1,
                           max_size=4))
    repeat = not spectrum and len(widths) > 1 and draw(st.booleans())
    if repeat:
        widths[1] = widths[0]
    cols = sum(widths)
    n_ant = 1 if spectrum else draw(st.integers(1, 3))
    mu_n = draw(st.integers(1000, 3000) if spectrum
                else st.integers(-(-cols // n_ant), 48))
    rows = n_ant * mu_n

    def signed(shape, decades):
        return (rng.choice([-1.0, 1.0], size=shape)
                * 10.0 ** rng.uniform(-decades, decades, size=shape))

    hs = [signed((n_ant, mu_n), 2) for _ in widths]
    if spectrum:
        ratio = draw(st.one_of(st.floats(-1, 3).map(lambda e: 10.0 ** e),
                               st.floats(1.0, 2.5)))
        s_min = ratio * numerics.REL_RANK_TOL * max(rows, cols)
        s = np.sort(s_min ** rng.uniform(0, 1, size=cols))[::-1]
        s[0], s[-1] = 1.0, min(s_min, 1.0)
        u = np.linalg.qr(rng.normal(size=(mu_n, cols)))[0]
        v = np.linalg.qr(rng.normal(size=(cols, cols)))[0]
        m = (u * s) @ v.T * signed((mu_n, 1), 3) * signed(cols, 3)
        xs = np.hsplit(m / hs[0].T, np.cumsum(widths)[:-1])
        hs = [hs[0]] * len(widths)
        return list(zip(hs, xs))
    xs = [rng.normal(size=(mu_n, k)) * 10.0 ** rng.uniform(-12, 12, size=k)
          for k in widths]
    if repeat:
        xs[1] = xs[0]                    # the same matrix on a scaled h
        hs[1] = hs[0] * signed((), 2)
    if draw(st.booleans()):
        for h in hs:
            h[rng.integers(n_ant), rng.integers(mu_n)] = 0.0
    if draw(st.booleans()):
        x = xs[rng.integers(len(xs))]
        x[:, rng.integers(x.shape[1])] = 0.0
    if not finite:
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            a = (hs if draw(st.booleans()) else xs)[rng.integers(len(hs))]
            a[tuple(int(rng.integers(n)) for n in a.shape)] = \
                draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return list(zip(hs, xs))


@given(slotwise_products())
@settings(max_examples=400, deadline=None)
def test_slotwise_certificate_claims_only_what_the_svd_counts(factors):
    m = _slotwise(factors)
    rows, cols = m.shape
    certified = numerics._certified_slotwise(factors)
    if not np.isfinite(m).all():
        assert not certified
        return
    e = numerics._equilibrated(m)
    s = np.linalg.svd(e, compute_uv=False)
    cutoff = numerics.REL_RANK_TOL * s.max() * max(rows, cols)
    if certified:
        assert _svd_count(e) == cols
        assert s.min() >= 1.99 * cutoff     # tau is twice the cutoff
    if s.max() > 0.0 and s.min() >= 500 * cutoff:
        assert certified     # far above every allowance at these sizes


@given(slotwise_products(finite=True))
@settings(max_examples=300, deadline=None)
def test_slotwise_gram_is_the_factor_form_within_its_rounding(factors):
    # the computed Gram matrix against F^T F, with F = M / (rs s^T) formed
    # in extended precision from the assembled M, its row maxima and the
    # column scales s of the docstring; and the spread passed to
    # _gram_clears against the entrywise distance of rank's E from F
    m = _slotwise(factors)
    rows, cols = m.shape
    h = np.stack([hp for hp, _ in factors])
    with mock.patch.object(numerics, "_gram_clears",
                           wraps=numerics._gram_clears) as clears:
        numerics._certified_slotwise(factors)
    gram = numerics._slotwise_gram(factors, h, cols)
    if gram is None:
        assert not clears.called
        return
    rs = np.abs(m).max(axis=1)
    rs[rs == 0.0] = 1.0
    n_ant, mu_n = h.shape[1:]
    g = np.abs(h / rs.reshape(mu_n, n_ant).T).max(axis=1)
    s = np.concatenate([np.abs(gp[:, None] * x).max(axis=0)
                        for gp, (_, x) in zip(g, factors)])
    s[s == 0.0] = 1.0
    exact = np.hstack([(hp.T.astype(np.longdouble)[:, :, None]
                        * x[:, None, :]).reshape(-1, x.shape[1])
                       for hp, x in factors])
    f = exact / rs[:, None] / s
    terms, spread = (clears.call_args.kwargs[k] for k in ("terms", "spread"))
    gamma = terms * 2.0 ** -53 / (1 - terms * 2.0 ** -53)
    mag = np.abs(f)
    slack = (gamma + rows * 2.0 ** -62) * (mag.T @ mag) + 1e-280
    assert np.all(np.abs(gram - f.T @ f) <= slack)
    e = numerics._equilibrated(m)
    assert np.array_equal(e == 0.0, f == 0.0)
    nonzero = f != 0.0
    assert np.all(np.abs(e[nonzero] / f[nonzero] - 1) <= spread)


@st.composite
def spread_cases(draw):
    """(f, sigma, e): a tall f = U diag(s) V^T with s falling from 1 to
    1e-3 .. 1, and e, f with its first column scaled by 1 - sigma, so
    ||e - f||_2 <= sigma ||f||_F."""
    k = draw(st.integers(1, 8))
    rows = draw(st.integers(k, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = np.sort(10.0 ** rng.uniform(-3, 0, size=k))[::-1]
    s[0] = 1.0
    u = np.linalg.qr(rng.normal(size=(rows, k)))[0]
    v = np.linalg.qr(rng.normal(size=(k, k)))[0]
    f = (u * s) @ v.T
    sigma = draw(st.one_of(st.sampled_from([1.0, 1.0 - 1e-12, 0.5]),
                           st.floats(1e-6, 1.0)))
    e = f.copy()
    e[:, 0] *= 1.0 - sigma
    return f, sigma, e


@given(spread_cases())
@settings(max_examples=300, deadline=None)
def test_gram_clears_covers_every_matrix_within_its_spread(case):
    # with spread sigma the proof holds for any matrix within
    # sigma ||f||_F of f (Weyl), here f with one column scaled down
    f, sigma, e = case
    rows, cols = f.shape
    if numerics._gram_clears(f.T @ f, 0, rows, 1, spread=sigma):
        assert _svd_count(e) == cols


def test_big_n2_float_never_holds_a_lambda_sized_array(monkeypatch):
    # each Λ is 972x160 float, 1.24 MB; it used to be assembled, copied
    # for equilibration and scanned through an |E| temporary, and is now
    # certified from its factors: no stage of it allocates one Λ
    from sigma_align import verify
    from sigma_align.region import DofPoint, SigmaConfig
    added = []
    for name in ("build_lambda", "check_lambda"):
        def tracked(*args, _f=getattr(verify, name)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = _f(*args)
            added.append(tracemalloc.get_traced_memory()[1] - before)
            return out
        monkeypatch.setattr(verify, name, tracked)
    tracemalloc.start()
    try:
        r = verify.run_experiment(
            SigmaConfig(2, 2, 0, 3, 0),
            DofPoint.make(db1=["1/6"] * 3, db2=["1/6"] * 3), 2, 31, "float")
    finally:
        tracemalloc.stop()
    assert r.passed and r.lambda1["rows"] * r.lambda1["cols"] == 972 * 160
    assert len(added) == 4
    assert max(added) < 972 * 160 * 8
