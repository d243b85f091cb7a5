from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_align import numerics
from sigma_align.channel import apply, compute_t, draw, stack
from sigma_align.errors import SingularStack, SlotCapExceeded, UnknownPath
from sigma_align.region import SigmaConfig


def in_mode(mode, ints):
    if mode == "rational":
        return numerics.exact_matrix(ints)
    if mode == "modp":
        return numerics.zp_array(ints)
    return np.asarray(ints, float)


def dense_expansion(d, path):
    """H_tilde as the dense (n_ant * mu_n) x mu_n block-diagonal matrix."""
    return apply(d, path, in_mode(d.mode, np.eye(d.mu_n, dtype=int)))


def test_draw_deterministic(s1_cfg):
    a = draw(s1_cfg, 12, seed=5)
    b = draw(s1_cfg, 12, seed=5)
    assert np.array_equal(a.h_b1, b.h_b1)
    assert np.array_equal(a.h_b2, b.h_b2)
    c = draw(s1_cfg, 12, seed=6)
    assert not np.array_equal(a.h_b1, c.h_b1)


def test_draw_shapes(s1_cfg):
    d = draw(s1_cfg, 12, seed=0)
    assert d.h_b1.shape == (2, 1, 12)
    assert d.h_b2.shape == (2, 1, 12)
    assert d.h_a.shape == (0, 1, 12)


def test_draw_bounded_support(s1_cfg):
    d = draw(s1_cfg, 500, seed=1)
    assert d.h_b1.min() >= 0.5
    assert d.h_b1.max() <= 2.0


def test_draw_rational_values(s1_cfg):
    d = draw(s1_cfg, 12, seed=1, mode="rational")
    vals = [d.h_b1[u, 0, t] for u in range(2) for t in range(12)]
    assert all(Fraction(1, 2) <= v <= 2 for v in vals)
    assert all(v.denominator in (1, 2, 4, 8, 16, 32, 64) for v in vals)
    # no repeats within one time series
    for u in range(2):
        series = [d.h_b1[u, 0, t] for t in range(12)]
        assert len(set(series)) == 12


def test_draw_modp_values(s1_cfg):
    d = draw(s1_cfg, 200, seed=1, mode="modp")
    vals = d.h_b1.tolist() + d.h_b2.tolist()
    for h in (d.h_a, d.h_b1, d.h_b2, d.h_c):
        assert isinstance(h, numerics.ModP) and h.dtype == np.int64
    assert all(0 < v < numerics.P for v in np.ravel(vals).tolist())
    assert draw(s1_cfg, 200, seed=1, mode="modp").h_b1.tolist() \
        == d.h_b1.tolist()


def test_draw_rational_slot_cap(s1_cfg):
    with pytest.raises(ValueError):
        draw(s1_cfg, 98, seed=0, mode="rational")
    with pytest.raises(SlotCapExceeded, match="97 slots.*mu_n = 98"):
        draw(s1_cfg, 98, seed=0, mode="rational")


# The expanded channel H_tilde is only ever applied, never built; the
# expand tests read it back as apply(d, path, I).
def test_expand_single_slot(s1_cfg):
    d = draw(s1_cfg, 1, seed=2)
    m = dense_expansion(d, ("b", 1, 1))
    assert m.shape == (1, 1)
    assert m[0, 0] == d.h_b1[0, 0, 0]


def test_expand_block_structure():
    cfg = SigmaConfig(2, 1, 1, 0, 0)
    d = draw(cfg, 3, seed=2)
    m = dense_expansion(d, ("a", 1))
    assert m.shape == (6, 3)
    assert np.count_nonzero(m) == 6
    for t in range(3):
        col = m[:, t]
        assert np.count_nonzero(col[: 2 * t]) == 0
        assert np.count_nonzero(col[2 * (t + 1):]) == 0
        assert np.array_equal(col[2 * t: 2 * (t + 1)], d.h_a[0, :, t])


def test_expand_unknown_path(s1_cfg):
    d = draw(s1_cfg, 2, seed=0)
    with pytest.raises(UnknownPath):
        apply(d, ("c", 1), np.eye(2))
    with pytest.raises(UnknownPath):
        apply(d, ("b", 3, 1), np.eye(2))


def _reference_apply(h, v):
    """Dense block-diagonal H_tilde built entry by entry, times v."""
    n_ant, mu_n = h.shape
    zero = h.flat[0] * 0
    dense = np.full((n_ant * mu_n, mu_n), zero, dtype=h.dtype)
    for t in range(mu_n):
        for a in range(n_ant):
            dense[t * n_ant + a, t] = h[a, t]
    return numerics.matmul(dense, v)


@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 4),
       st.sampled_from(["float", "rational", "modp"]), st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_apply_matches_dense_block_diagonal(n_ant, mu_n, ncols, mode, seed):
    cfg = SigmaConfig(n_ant, 1, 1, 0, 0)
    d = draw(cfg, mu_n, seed=seed, mode=mode)
    v = in_mode(d.mode, np.random.default_rng(seed).integers(
        -3, 4, size=(mu_n, ncols)))
    out = apply(d, ("a", 1), v)
    ref = _reference_apply(d.h_a[0], v)
    assert out.shape == (n_ant * mu_n, ncols)
    assert out.dtype == ref.dtype
    assert np.array_equal(out, ref)


def test_stack_rank(s1_cfg):
    d = draw(s1_cfg, 12, seed=3)
    blocks = stack(d, 1, (1,))
    assert blocks.shape == (12, 1, 1)
    assert numerics.rank(blocks) == 12


def test_stack_exact_invertible(s1_cfg):
    d = draw(s1_cfg, 12, seed=3, mode="rational")
    blocks = stack(d, 1, (1,))
    assert blocks.dtype == object
    assert numerics.rank(blocks) == 12


def test_stack_blocks_are_the_dense_stack(big_cfg):
    # Permuting the dense stack's columns to slot-major order leaves it
    # block-diagonal with exactly these blocks.
    d = draw(big_cfg, 5, seed=8)
    blocks = stack(d, 2, (3, 1))
    dense = np.hstack([dense_expansion(d, ("b", 2, j)) for j in (3, 1)])
    perm = [k * 5 + t for t in range(5) for k in range(2)]
    permuted = dense[:, perm]
    for t in range(5):
        rows = cols = slice(2 * t, 2 * t + 2)
        assert np.array_equal(permuted[rows, cols], blocks[t])
        permuted[rows, cols] = 0.0
    assert np.count_nonzero(permuted) == 0


@pytest.mark.parametrize("mode", ["float", "rational", "modp"])
def test_stack_identical_members_singular(big_cfg, mode):
    # Negative control: two set members with the same channel leave every
    # slot's block with two equal columns.  stack returns the blocks as
    # drawn; the solve for the T diagonals finds them singular.
    d = draw(big_cfg, 6, seed=4, mode=mode)
    d.h_b1[1] = d.h_b1[0]
    blocks = stack(d, 1, (1, 2))
    assert blocks.shape == (6, 2, 2)
    assert np.array_equal(blocks[:, :, 0], blocks[:, :, 1])
    with pytest.raises(SingularStack, match=r"BS 1, set \(1, 2\), seed 4"):
        compute_t(d, 1, (3,), (1, 2))
    # user 2 has user 1's channel: T = (1, 0) against the stack of (1, 3)
    t1, t3 = compute_t(d, 1, (2,), (1, 3))
    assert np.allclose(np.asarray(t1, float), 1, rtol=0, atol=1e-12)
    assert np.allclose(np.asarray(t3, float), 0, rtol=0, atol=1e-12)


def test_compute_t_scalar_ratio(s1_cfg):
    d = draw(s1_cfg, 1, seed=4)
    [t] = compute_t(d, 1, (2,), (1,))
    assert t.shape == (1,)
    assert np.isclose(t[0], d.h_b1[1, 0, 0] / d.h_b1[0, 0, 0])


def test_compute_t_exact_ratios(s1_cfg):
    d = draw(s1_cfg, 12, seed=4, mode="rational")
    [diag] = compute_t(d, 1, (2,), (1,))
    for slot in range(12):
        assert diag[slot] == d.h_b1[1, 0, slot] / d.h_b1[0, 0, slot]


@pytest.mark.parametrize("mode", ["float", "rational", "modp"])
def test_compute_t_diagonal_and_reconstructs(mode):
    # H_tilde_j = sum_k H_tilde_{s_k} diag(T_k), each T_k a diagonal
    cfg = SigmaConfig(2, 2, 0, 3, 0)
    d = draw(cfg, 8, seed=9, mode=mode)
    diags = compute_t(d, 1, (3,), (1, 2))
    assert len(diags) == 2
    assert all(t.shape == (8,) for t in diags)
    recon = sum(apply(d, ("b", 1, s), np.diag(t))
                for s, t in zip((1, 2), diags))
    target = dense_expansion(d, ("b", 1, 3))
    if mode != "float":
        assert all(recon[i, j] == target[i, j]
                   for i in range(16) for j in range(8))
    else:
        scale = np.max(np.abs(target))
        assert np.max(np.abs(recon - target)) < 1e-9 * scale


def test_compute_t_rejects_set_member(s1_cfg):
    d = draw(s1_cfg, 4, seed=0)
    for users in ((1,), (2, 1)):
        with pytest.raises(ValueError, match=r"users \[1\] are in"):
            compute_t(d, 1, users, (1,))


def _bits(m):
    body = m.tolist() if m.dtype == object else m.tobytes()
    return type(m), m.dtype, m.shape, body


@pytest.mark.parametrize("mode", ["float", "rational", "modp"])
def test_compute_t_batches_the_per_user_solves(mode):
    # N_i = 2 set members and U = 2 outside users: one solve with two
    # right-hand-side columns gives, bit for bit, the solves user by user,
    # and row l * U + u holds T_(l, j) for the u-th user j
    cfg = SigmaConfig(2, 2, 0, 4, 0)
    d = draw(cfg, 9, seed=5, mode=mode)
    for i, s_set, users in ((1, (1, 2), (3, 4)), (2, (4, 1), (3, 2))):
        batched = compute_t(d, i, users, s_set)
        assert batched.shape == (4, 9)
        assert type(batched) is type(d.h_b1)
        blocks = stack(d, i, s_set)
        for u, j in enumerate(users):
            target = (d.h_b1 if i == 1 else d.h_b2)[j - 1].T[:, :, None]
            x = numerics.solve_blocks(blocks, target)
            for col in range(2):
                assert _bits(batched[col * 2 + u]) == _bits(x[:, col, 0])
