import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_align import channel, numerics
from sigma_align.errors import InfeasiblePoint
from sigma_align.precoder import (_narrow_columns, assemble, build_p,
                                  compute_t_set, plan, select_sets,
                                  target_bar_dofs)
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


def _tuples(b, n, gamma, form):
    """The (m, alphas) exponent tuples of the wide or narrow columns, in
    order: block m's exponents run over {m(n+1)+1, ..., (m+1)(n+1)}, minus
    the top value in narrow form, lexicographically over (m, alphas)."""
    top = n + 1 if form == "wide" else n
    return [(m, alphas) for m in range(b) for alphas in itertools.product(
        range(m * (n + 1) + 1, m * (n + 1) + top + 1), repeat=gamma)]


PRIMES = (2, 3, 5)


def _column_exponents(p, gamma):
    """Each column's exponent vector, read off by factoring: build_p over
    the constant diagonals 2, 3, 5 (Python ints) puts prod PRIMES^alpha in
    every entry."""
    out = []
    for value in p[0]:
        alphas = []
        for q in PRIMES[:gamma]:
            k = 0
            while value % q == 0:
                value, k = value // q, k + 1
            alphas.append(k)
        assert value == 1
        out.append(tuple(alphas))
    return out


def _prime_diags(gamma, mu_n=2):
    return np.array([[q] * mu_n for q in PRIMES[:gamma]], dtype=object)


def test_exponent_tuples_wide_narrow():
    p = build_p(_prime_diags(1), 1, 1)
    assert p.tolist() == [[2, 4], [2, 4]]
    assert _narrow_columns(1, 1, 1).tolist() == [True, False]


def test_exponent_tuples_counts_and_disjoint_blocks():
    b, n, gamma = 3, 2, 2
    wide = _column_exponents(build_p(_prime_diags(gamma), b, n), gamma)
    narrow = [a for a, keep in zip(wide, _narrow_columns(b, n, gamma))
              if keep]
    assert len(wide) == b * (n + 1) ** gamma
    assert len(narrow) == b * n ** gamma
    assert len(set(wide)) == len(wide)
    # lexicographic over (m, alphas), the first pair's exponent outermost
    assert wide == [a for _, a in _tuples(b, n, gamma, "wide")]
    assert narrow == [a for _, a in _tuples(b, n, gamma, "narrow")]
    per_block = len(wide) // b
    blocks = [set(itertools.chain(*wide[m * per_block:(m + 1) * per_block]))
              for m in range(b)]
    for m in range(b - 1):
        assert max(blocks[m]) < min(blocks[m + 1])


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_narrow_index_is_the_tuple_filter(b, n, gamma):
    # narrow keeps the wide columns whose every exponent is below the top
    # of its block's range, in wide order
    wide, narrow = (_tuples(b, n, gamma, form) for form in ("wide", "narrow"))
    keep = [all(a < (m + 1) * (n + 1) for a in alphas) for m, alphas in wide]
    mask = _narrow_columns(b, n, gamma)
    assert mask.dtype == bool and mask.tolist() == keep
    assert (np.flatnonzero(mask).tolist()
            == [wide.index(tup) for tup in narrow])


def test_build_p_monomial_columns(s1_cfg, s1_point):
    pl = plan(s1_cfg, s1_point, 1)
    dr = channel.draw(s1_cfg, pl.mu_n, 21, "rational")
    t_set = compute_t_set(dr, pl)
    [diag] = t_set[1]
    p21 = build_p(t_set[1], pl.b2, pl.n)
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
    for k, (_, alphas) in enumerate(tuples):
        for r in range(mu_n):
            val = one
            for diag, alpha in zip(t_diags, alphas):
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
        t_diags = np.array([[Fraction(int(k), 64) for k in row] for row in
                            rng.integers(-128, 129, size=(gamma, mu_n))],
                           dtype=object)
        one = Fraction(1)
    elif mode == "modp":
        t_diags = numerics.zp_array(rng.integers(0, numerics.P,
                                                 size=(gamma, mu_n)))
        one = 1   # the reference multiplies Python ints, reduced at the end
    else:
        t_diags = rng.uniform(-4.0, 4.0, size=(gamma, mu_n))
        one = 1.0
    wide = build_p(t_diags, b, n)
    for form in ("wide", "narrow"):
        tuples = _tuples(b, n, gamma, form)
        p = wide if form == "wide" else wide[:, _narrow_columns(b, n, gamma)]
        if mode == "modp":
            ref = _reference_build_p(np.array(t_diags.tolist(), dtype=object),
                                     tuples, mu_n, one)
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


def _bits(m):
    """A matrix's type, shape and entries, exactly: bytes for float and
    ModP, the Fractions themselves for rational."""
    body = m.tolist() if m.dtype == object else m.tobytes()
    return type(m), m.dtype, m.shape, body


@pytest.mark.parametrize("mode, n", [("float", 2), ("modp", 2),
                                     ("rational", 1)])
def test_narrow_is_the_gather_of_wide(big_cfg, big_point, mode, n):
    # narrow[o] is a column subset of wide[o]; it must equal, bit for bit,
    # the gather of the narrow tuples' columns, and both must equal each
    # wide and narrow monomial evaluated on its own as np.prod over the
    # pairs of per-entry powers
    pl = plan(big_cfg, big_point, n)
    dr = channel.draw(big_cfg, pl.mu_n, 31, mode)
    t_set = compute_t_set(dr, pl)
    ps = assemble(pl, big_point, dr, 31, t_set)
    for o in (1, 2):
        i, _, b, gamma = pl.side(o)
        wide, narrow = (_tuples(b, n, gamma, form)
                        for form in ("wide", "narrow"))
        gathered = ps.wide[o][:, [wide.index(t) for t in narrow]]
        x = t_set[i].T
        for p, tuples in ((ps.wide[o], wide), (ps.narrow[o], narrow)):
            alphas = np.array([a for _, a in tuples])
            assert (_bits(p)
                    == _bits(np.prod(x[:, None, :] ** alphas, axis=-1)))
        assert _bits(ps.narrow[o]) == _bits(gathered)


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
