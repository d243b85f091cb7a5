from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_align import channel, numerics
from sigma_align.errors import InconsistentPlan, InfeasiblePoint
from sigma_align.precoder import (ExponentTuple, assemble, build_p,
                                  compute_t_set, exponent_tuples, plan,
                                  select_sets, target_bar_dofs)
from sigma_align.region import DofPoint, SigmaConfig


def test_select_sets_tiebreak(s1_cfg, s1_point):
    s1, s2, d1, d2 = select_sets(s1_cfg, s1_point)
    assert s1 == (1,) and s2 == (1,)
    assert d1 == 1 and d2 == 1
    assert s2 and s1


def test_select_sets_unique_max():
    cfg = SigmaConfig(1, 1, 0, 2, 0)
    d = DofPoint.make(db1=["1/4", "1/4"], db2=["1/4", "1/2"])
    _, s2, _, delta2 = select_sets(cfg, d)
    assert s2 == (2,)
    assert delta2 == 2


def test_select_sets_skip_when_small():
    cfg = SigmaConfig(2, 2, 0, 1, 0)
    d = DofPoint.make(db1=["1/2"], db2=["1/2"])
    s1, s2, d1, d2 = select_sets(cfg, d)
    assert not s2 and not s1
    assert s1 == () and s2 == ()


def test_select_sets_infeasible(s1_cfg):
    bad = DofPoint.make(db1=["1", "1"], db2=["1", "1"])
    with pytest.raises(InfeasiblePoint):
        select_sets(s1_cfg, bad)


def test_plan_s1(s1_cfg, s1_point):
    pl = plan(s1_cfg, s1_point, 1)
    assert (pl.mu0, pl.gamma1, pl.gamma2) == (3, 1, 1)
    assert pl.mu_n == 12
    assert pl.b1 == 1 and pl.b2 == 1


def test_plan_no_alignment():
    cfg = SigmaConfig(2, 2, 0, 2, 0)
    d = DofPoint.make(db1=["1/2", "1/2"], db2=["1/2", "1/2"])
    pl = plan(cfg, d, 5)
    assert pl.gamma1 == pl.gamma2 == 0
    assert pl.mu_n == pl.mu0 == 2


def test_plan_big(big_cfg, big_point):
    pl = plan(big_cfg, big_point, 1)
    assert pl.gamma1 == pl.gamma2 == 2
    assert pl.mu_n == 6 * 2 ** 4


def test_target_bar_dofs_s1(s1_cfg, s1_point):
    pl = plan(s1_cfg, s1_point, 1)
    bars = target_bar_dofs(pl, s1_point)
    assert bars == {"b1_1": 2, "b1_2": 1, "b2_1": 2, "b2_2": 1}


def test_target_bar_dofs_group_a():
    cfg = SigmaConfig(2, 2, 1, 3, 0)
    d = DofPoint.make(da=["1/2"], db1=["1/6"] * 3, db2=["1/6"] * 3)
    pl = plan(cfg, d, 2)
    # group A: mu0 * n^(g1+g2) * d
    assert target_bar_dofs(pl, d)["a1"] == pl.mu0 * 2 ** 4 // 2


def test_target_ratio_tends_to_one(s1_cfg, s1_point):
    prev = Fraction(0)
    for n in (1, 2, 4, 8, 16):
        pl = plan(s1_cfg, s1_point, n)
        bars = target_bar_dofs(pl, s1_point)
        ratio = Fraction(bars["b1_2"], pl.mu_n) / Fraction(1, 3)
        assert prev < ratio < 1
        prev = ratio


def test_exponent_tuples_wide_narrow():
    wide = exponent_tuples(1, 1, 1, "wide")
    assert [(t.m, t.alphas) for t in wide] == [(0, (1,)), (0, (2,))]
    narrow = exponent_tuples(1, 1, 1, "narrow")
    assert [(t.m, t.alphas) for t in narrow] == [(0, (1,))]


def test_exponent_tuples_empty_product():
    tuples = exponent_tuples(3, 2, 0, "wide")
    assert len(tuples) == 3
    assert all(t.alphas == () for t in tuples)


def test_exponent_tuples_counts_and_disjoint_blocks():
    b, n, gamma = 3, 2, 2
    wide = exponent_tuples(b, n, gamma, "wide")
    narrow = exponent_tuples(b, n, gamma, "narrow")
    assert len(wide) == b * (n + 1) ** gamma
    assert len(narrow) == b * n ** gamma
    assert len({(t.m, t.alphas) for t in wide}) == len(wide)
    by_block = {}
    for t in wide:
        by_block.setdefault(t.m, set()).update(t.alphas)
    for m in range(b - 1):
        assert max(by_block[m]) < min(by_block[m + 1])


def test_build_p_identity_column():
    tuples = exponent_tuples(1, 1, 0, "wide")
    p = build_p([], tuples, 4)
    assert np.allclose(p, np.ones((4, 1)))


def test_build_p_monomial_columns(s1_cfg, s1_point):
    pl = plan(s1_cfg, s1_point, 1)
    dr = channel.draw(s1_cfg, pl.mu_n, 21, "rational")
    t_set = compute_t_set(dr, pl)
    [diag] = t_set[1]
    tuples = exponent_tuples(pl.b2, pl.n, pl.gamma1, "wide")
    p21 = build_p([diag], tuples, pl.mu_n)
    assert p21.shape == (12, 2)
    for r in range(12):
        assert p21[r, 0] == diag[r]
        assert p21[r, 1] == diag[r] ** 2
    # cross-check against dense matrix-power evaluation
    t = np.full((12, 12), Fraction(0), dtype=object)
    t[range(12), range(12)] = diag
    ones = numerics.exact_matrix([[1]] * 12)
    dense = numerics.matmul(numerics.matmul(t, t), ones)
    assert all(dense[r, 0] == p21[r, 1] for r in range(12))


def _reference_build_p(t_diags, tuples, mu_n, one):
    """Each entry as a running product of scalar powers, one at a time.

    Entries are floats, or Python objects (Fractions, unbounded ints).
    """
    out = np.full((mu_n, len(tuples)), one * 0,
                  dtype=float if isinstance(one, float) else object)
    for k, tup in enumerate(tuples):
        for r in range(mu_n):
            val = one
            for diag, alpha in zip(t_diags, tup.alphas):
                val = val * diag[r] ** alpha
            out[r, k] = val
    return out


@given(st.sampled_from(["float", "rational", "modp"]), st.integers(1, 3),
       st.integers(1, 2), st.integers(1, 3), st.integers(1, 8),
       st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_build_p_matches_per_entry_reference(mode, gamma, b, n, mu_n, seed):
    rng = np.random.default_rng(seed)
    if mode == "rational":
        t_diags = [np.array([Fraction(int(k), 64) for k in
                             rng.integers(-128, 129, size=mu_n)], dtype=object)
                   for _ in range(gamma)]
        one = Fraction(1)
    elif mode == "modp":
        t_diags = [numerics.zp_array(rng.integers(0, numerics.P, size=mu_n))
                   for _ in range(gamma)]
        one = 1   # the reference multiplies Python ints, reduced at the end
    else:
        t_diags = list(rng.uniform(-4.0, 4.0, size=(gamma, mu_n)))
        one = 1.0
    for form in ("wide", "narrow"):
        tuples = exponent_tuples(b, n, gamma, form)
        p = build_p(t_diags, tuples, mu_n)
        if mode == "modp":
            ref = _reference_build_p([np.array(t.tolist(), dtype=object)
                                      for t in t_diags], tuples, mu_n, one)
            ref %= numerics.P
        else:
            ref = _reference_build_p(t_diags, tuples, mu_n, one)
        assert p.shape == ref.shape == (mu_n, len(tuples))
        if mode == "modp":
            assert isinstance(p, numerics.ModP) and p.dtype == np.int64
            assert p.tolist() == ref.tolist()
        elif mode == "rational":
            assert p.dtype == object
            assert all(type(x) is type(one) for x in p.flat)
            assert np.array_equal(p, ref)
        else:
            # numpy's vectorised power may differ from the scalar one by an
            # ulp per factor, and the gamma - 1 products compound it: on 1M
            # random gamma = 3 entries the two differed by up to 7 ulp.
            assert p.dtype == np.float64
            np.testing.assert_array_max_ulp(p, ref, maxulp=4 * gamma)
    with pytest.raises(InconsistentPlan):
        build_p(t_diags, [ExponentTuple(m=0, alphas=(1,) * (gamma + 1))], mu_n)


def _bits(m):
    """A matrix's type, shape and entries, exactly: bytes for float and
    ModP, the Fractions themselves for rational."""
    body = m.tolist() if m.dtype == object else m.tobytes()
    return type(m), m.dtype, m.shape, body


@pytest.mark.parametrize("mode, n", [("float", 2), ("modp", 2),
                                     ("rational", 1)])
def test_narrow_is_the_gather_of_wide(big_cfg, big_point, mode, n):
    # narrow[o] is gathered from wide[o]; the gather must equal, bit for
    # bit, the narrow tuples' monomials built on their own, and both the
    # per-entry powers and np.prod over the pairs that build_p replaces
    pl = plan(big_cfg, big_point, n)
    dr = channel.draw(big_cfg, pl.mu_n, 31, mode)
    t_set = compute_t_set(dr, pl)
    ps = assemble(pl, big_point, dr, 31, t_set)
    for o in (1, 2):
        i, _, b, gamma = pl.side(o)
        wide = exponent_tuples(b, n, gamma, "wide")
        narrow = exponent_tuples(b, n, gamma, "narrow")
        gathered = ps.wide[o][:, [wide.index(t) for t in narrow]]
        alphas = np.array([t.alphas for t in narrow])
        x = np.stack(t_set[i]).T
        assert (_bits(ps.narrow[o]) == _bits(gathered)
                == _bits(build_p(t_set[i], narrow, pl.mu_n))
                == _bits(np.prod(x[:, None, :] ** alphas, axis=-1)))


@pytest.mark.parametrize("mode", ["float", "rational", "modp"])
def test_assemble_s1(s1_cfg, s1_point, mode):
    pl = plan(s1_cfg, s1_point, 1)
    dr = channel.draw(s1_cfg, pl.mu_n, 7, mode)
    ps = assemble(pl, s1_point, dr, 7, compute_t_set(dr, pl))
    assert ps.wide[1].shape == (12, 2)
    assert ps.narrow[1].shape == (12, 1)
    # the minimal set member reuses the shared structured block verbatim
    assert ps.v["b1_1"] is ps.wide[1]
    assert ps.v["b2_1"] is ps.wide[2]
    # out-of-set user draws its single column from the narrow pool
    assert numerics.columns_subset_of(ps.v["b1_2"], ps.narrow[1])
    bars = target_bar_dofs(pl, s1_point)
    for mid, bar in bars.items():
        assert ps.v[mid].shape == (12, bar)


def test_assemble_column_count_closed_forms(big_cfg, big_point):
    for n in (1, 2):
        pl = plan(big_cfg, big_point, n)
        dr = channel.draw(big_cfg, pl.mu_n, 13, "float")
        ps = assemble(pl, big_point, dr, 13, compute_t_set(dr, pl))
        d1 = big_point.db1[pl.delta1 - 1]
        d2 = big_point.db2[pl.delta2 - 1]
        assert ps.wide[1].shape[1] == pl.mu0 * n ** pl.gamma1 \
            * (n + 1) ** pl.gamma2 * d1
        assert ps.narrow[1].shape[1] == pl.mu0 \
            * n ** (pl.gamma1 + pl.gamma2) * d1
        assert ps.wide[2].shape[1] == pl.mu0 * (n + 1) ** pl.gamma1 \
            * n ** pl.gamma2 * d2
        assert ps.narrow[2].shape[1] == pl.mu0 \
            * n ** (pl.gamma1 + pl.gamma2) * d2


def test_assemble_random_branch():
    cfg = SigmaConfig(2, 2, 0, 2, 0)
    d = DofPoint.make(db1=["1/2", "1/2"], db2=["1/2", "1/2"])
    pl = plan(cfg, d, 3)
    dr = channel.draw(cfg, pl.mu_n, 1, "float")
    ps = assemble(pl, d, dr, 1, compute_t_set(dr, pl))
    assert ps.wide.get(1) is None and ps.wide.get(2) is None
    for mid, v in ps.v.items():
        assert v.shape == (2, 1)
        assert numerics.rank(v) == 1
