import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_align import region
from sigma_align.errors import DimensionMismatch, SubsetExplosion
from sigma_align.region import (DofPoint, SigmaConfig, check_point,
                                check_point_bruteforce, enumerate_constraints,
                                max_sum_dof, mu0)


def random_point(cfg, rng):
    """Random rational point straddling the feasibility boundary."""
    def grp(k):
        return tuple(Fraction(int(rng.integers(0, 9)),
                              int(rng.integers(1, 8))) / 4 for _ in range(k))
    return DofPoint(grp(cfg.la), grp(cfg.lb), grp(cfg.lb), grp(cfg.lc))


def test_config_validation():
    with pytest.raises(ValueError):
        SigmaConfig(0, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        SigmaConfig(1, 1, 0, 0, 0)
    assert SigmaConfig(2, 2, 1, 3, 1).num_messages == 8


def test_count_x_network(s1_cfg):
    # 2 pair bounds + 3 subsets per BS family (empty, {1}, {2})
    cons = enumerate_constraints(s1_cfg)
    assert len(cons) == 8


def test_count_single_user_mac():
    cfg = SigmaConfig(1, 1, 1, 0, 0)
    cons = enumerate_constraints(cfg)
    labels = {c.label for c in cons}
    assert "single:a1<=1" in labels
    # family cut with the empty subset duplicates the same bound at N1=1
    assert any(l.startswith("mac:bs1") for l in labels)


def test_count_binomial_family(big_cfg):
    cons = enumerate_constraints(big_cfg)
    bs1 = [c for c in cons if c.label.startswith("mac:bs1")]
    assert len(bs1) == math.comb(3, 0) + math.comb(3, 1) + math.comb(3, 2)


def test_subset_explosion():
    # 7,119,516 subset cuts per BS, past the fixed cap of 2**20
    cfg = SigmaConfig(10, 10, 0, 25, 0)
    with pytest.raises(SubsetExplosion):
        enumerate_constraints(cfg)


def test_origin_feasible(big_cfg):
    zero = DofPoint.make(db1=[0, 0, 0], db2=[0, 0, 0])
    assert check_point(big_cfg, zero).feasible
    assert check_point_bruteforce(big_cfg, zero).feasible


def test_x_network_boundary(s1_cfg, s1_point):
    res = check_point(s1_cfg, s1_point)
    assert res.feasible
    # the family cut is tight: 1/3 + 1/3 + 1/3 = 1
    vec = s1_point.as_vector()
    tight = [c for c in enumerate_constraints(s1_cfg)
             if c.label.startswith("mac") and c.value(vec) == c.bound]
    assert tight


def test_violation_reported(big_cfg):
    d = DofPoint.make(db1=["1/2"] * 3, db2=["1/2"] * 3)
    res = check_point(big_cfg, d)
    assert not res.feasible
    assert any(c.label.startswith("mac:bs1") for c in res.violated)
    # 3/2 own + top-two cross 1 = 5/2 > 2
    mac = next(c for c in res.violated if c.label.startswith("mac:bs1"))
    assert mac.value(d.as_vector()) == Fraction(5, 2)


def test_dimension_mismatch(s1_cfg):
    with pytest.raises(DimensionMismatch):
        check_point(s1_cfg, DofPoint.make(db1=["1/3"], db2=["1/3"]))


@pytest.mark.parametrize("shape", [(1, 1, 0, 2, 0), (2, 2, 1, 3, 1),
                                   (2, 1, 2, 2, 0)])
def test_fast_agrees_with_bruteforce(shape):
    cfg = SigmaConfig(*shape)
    rng = np.random.default_rng(42)
    for _ in range(300):
        d = random_point(cfg, rng)
        fast = check_point(cfg, d)
        brute = check_point_bruteforce(cfg, d)
        assert fast.feasible == brute.feasible
        brute_labels = {c.label for c in brute.violated}
        assert {c.label for c in fast.violated} <= brute_labels


def test_downward_closure(big_cfg):
    rng = np.random.default_rng(7)
    found = 0
    while found < 50:
        d = random_point(big_cfg, rng)
        if not check_point(big_cfg, d).feasible:
            continue
        found += 1
        t = Fraction(int(rng.integers(0, 5)), 4)
        assert check_point(big_cfg, d.scaled(t)).feasible


def test_symmetry_under_bs_swap():
    cfg = SigmaConfig(2, 1, 2, 2, 1)
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = random_point(cfg, rng)
        assert (check_point(cfg, d).feasible
                == check_point(cfg.mirrored(), d.mirrored()).feasible)


def test_mu0():
    assert mu0(DofPoint.make(db1=["1/3", "1/3"], db2=["1/3", "1/3"])) == 3
    assert mu0(DofPoint.make(da=[1, 2])) == 1
    assert mu0(DofPoint.make(da=["1/2", "1/3"])) == 6


def test_max_sum_x_network(s1_cfg):
    value, point = max_sum_dof(s1_cfg, [1, 1, 1, 1])
    assert value == Fraction(4, 3)
    assert check_point(s1_cfg, point).feasible
    vec = point.as_vector()
    assert any(c.value(vec) == c.bound for c in enumerate_constraints(s1_cfg))


def test_max_sum_mac():
    cfg = SigmaConfig(2, 1, 3, 0, 0)
    value, point = max_sum_dof(cfg, [1, 1, 1])
    assert value == Fraction(2)
    assert check_point(cfg, point).feasible


def test_max_sum_zero_weights(big_cfg):
    value, _ = max_sum_dof(big_cfg, [0] * big_cfg.num_messages)
    assert value == 0


def test_max_sum_weighted(s1_cfg):
    # favoring one pair message saturates its pair bound
    value, _ = max_sum_dof(s1_cfg, [1, 0, 0, 0])
    assert value == 1


def enumerated_optimum(cfg, weights):
    """The same LP over the enumerated subset cuts: one row per cut."""
    cons = enumerate_constraints(cfg)
    value, _, _ = region._simplex_max([list(c.coeffs) for c in cons],
                                      [c.bound for c in cons], weights)
    return value


@st.composite
def lp_instances(draw):
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 3),
                           st.integers(0, 2), st.integers(0, 5),
                           st.integers(0, 2))
                 .filter(lambda s: s[2] + s[3] + s[4] > 0))
    cfg = SigmaConfig(*shape)
    weights = draw(st.lists(st.integers(0, 4), min_size=cfg.num_messages,
                            max_size=cfg.num_messages))
    return cfg, weights


@given(lp_instances())
@settings(max_examples=120, deadline=None)
def test_max_sum_matches_enumerated_lp(instance):
    cfg, weights = instance
    value, point = max_sum_dof(cfg, weights)
    assert value == enumerated_optimum(cfg, weights)
    assert check_point_bruteforce(cfg, point).feasible
    assert sum(w * x for w, x in zip(weights, point.as_vector())) == value


def certified_optimum(a, b, c):
    """_simplex_max's optimum, checked by its primal and dual solutions."""
    value, x, y = region._simplex_max(a, b, c)
    rows, cols = range(len(a)), range(len(c))
    # primal: x >= 0, a x <= b, c.x == value
    assert all(xj >= 0 for xj in x)
    assert all(sum(a[i][j] * x[j] for j in cols) <= b[i] for i in rows)
    assert sum(c[j] * x[j] for j in cols) == value
    # dual: y >= 0, y^T a >= c, y.b == value; with the primal, optimality
    assert len(y) == len(a)
    assert all(yi >= 0 for yi in y)
    assert all(sum(y[i] * a[i][j] for i in rows) >= c[j] for j in cols)
    assert sum(y[i] * b[i] for i in rows) == value
    return value


@given(lp_instances())
@settings(max_examples=120, deadline=None)
def test_max_sum_dual_certifies_optimum(instance):
    cfg, weights = instance
    value, _ = max_sum_dof(cfg, weights)
    assert certified_optimum(*region._top_k_lp(cfg, weights)) == value
    cons = enumerate_constraints(cfg)
    assert certified_optimum([list(c.coeffs) for c in cons],
                             [c.bound for c in cons], weights) == value


@pytest.mark.parametrize("lb", range(2, 11))
def test_max_sum_x_network_value(lb):
    # Cadambe & Jafar's 2 x lb single-antenna X network: 2*lb/(lb+1)
    cfg = SigmaConfig(1, 1, 0, lb, 0)
    value, point = max_sum_dof(cfg, [1] * cfg.num_messages)
    assert value == Fraction(2 * lb, lb + 1)
    assert check_point_bruteforce(cfg, point).feasible
