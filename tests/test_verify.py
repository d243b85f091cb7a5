from fractions import Fraction

import numpy as np
import pytest

from sigma_align import channel, numerics, precoder
from sigma_align.errors import InfeasiblePoint, InvalidGenerator
from sigma_align.region import DofPoint, SigmaConfig
from sigma_align.verify import (achieved_dof, build_lambda, check_alignment,
                                check_lambda, check_pairwise,
                                duplicate_column_exponents, expected_ratio,
                                lemma1_test, random_valid_exponents,
                                run_certified, run_experiment,
                                vandermonde_exponents)


def construction(cfg, d, n, seed, mode="float"):
    pl = precoder.plan(cfg, d, n)
    dr = channel.draw(cfg, pl.mu_n, seed, mode)
    t_set = precoder.compute_t_set(dr, pl)
    ps = precoder.assemble(pl, d, dr, seed, t_set)
    return pl, dr, t_set, ps


def test_alignment_s1(s1_cfg, s1_point):
    for seed in range(5):
        _, _, t_set, ps = construction(s1_cfg, s1_point, 1, seed)
        res = check_alignment(ps, t_set)
        assert res["alignment_ok"] and res["column_subset_ok"]
        assert res["checked"] == 2


def test_alignment_negative_perturbation(s1_cfg, s1_point):
    _, _, t_set, ps = construction(s1_cfg, s1_point, 1, 3)
    ps.p22 = ps.p22.copy()
    ps.p22[0, 0] += 1e-3
    res = check_alignment(ps, t_set)
    assert not res["column_subset_ok"]


def test_alignment_negative_perturbation_modp(s1_cfg, s1_point):
    _, _, t_set, ps = construction(s1_cfg, s1_point, 1, 3, "modp")
    assert check_alignment(ps, t_set)["column_subset_ok"]
    ps.p22 = ps.p22.copy()
    ps.p22[0, 0] += 1
    assert not check_alignment(ps, t_set)["column_subset_ok"]


BIG_POINT = DofPoint.make(db1=["1/6"] * 3, db2=["1/6"] * 3)
GROUPED = (SigmaConfig(2, 2, 1, 3, 1),
           DofPoint.make(da=["1/2"], db1=["1/6"] * 3, db2=["1/6"] * 3,
                         dc=["1/2"]))


@pytest.mark.parametrize("cfg, d", [(SigmaConfig(2, 2, 0, 3, 0), BIG_POINT),
                                    GROUPED], ids=["big", "grouped"])
def test_column_subset_large_entries(cfg, d):
    # structured entries reach 1e19..2e20 here, far above an absolute 1e-8
    report = run_experiment(cfg, d, 1, 1, "float")
    assert report.alignment_ok and report.passed
    assert report.column_subset_ok


def test_column_subset_large_entries_negative(big_cfg, big_point):
    _, _, t_set, ps = construction(big_cfg, big_point, 1, 1)
    assert check_alignment(ps, t_set)["column_subset_ok"]
    # the wide column that a moved BS-2 column lands on, largest first
    wide = ps.p11
    matched = []
    for t in t_set.bs2.values():
        col = (t[:, None] * ps.p12)[:, 0]
        rel = (np.max(np.abs(wide - col[:, None]), axis=0)
               / np.max(np.abs(wide), axis=0))
        matched.append(int(np.argmin(rel)))
    k = max(matched, key=lambda j: np.max(np.abs(wide[:, j])))
    assert np.max(np.abs(wide[:, k])) > 1e10
    i = int(np.argmax(np.abs(wide[:, k])))
    ps.p11 = wide.copy()
    ps.p11[i, k] *= 1 + 1e-6
    assert not check_alignment(ps, t_set)["column_subset_ok"]


def test_alignment_vacuous():
    cfg = SigmaConfig(2, 2, 0, 2, 0)
    d = DofPoint.make(db1=["1/2", "1/2"], db2=["1/2", "1/2"])
    _, _, t_set, ps = construction(cfg, d, 1, 0)
    res = check_alignment(ps, t_set)
    assert res["alignment_ok"] and res["checked"] == 0


def test_pairwise_s1(s1_cfg, s1_point):
    for seed in range(20):
        _, _, _, ps = construction(s1_cfg, s1_point, 1, seed)
        assert check_pairwise(ps)
        m = np.hstack([ps.v["b1_1"], ps.v["b2_1"]])
        assert numerics.rank(m) == 4


def test_pairwise_duplicate_fails(s1_cfg, s1_point):
    _, _, _, ps = construction(s1_cfg, s1_point, 1, 3)
    ps.v["b2_1"] = ps.v["b1_1"]
    assert not check_pairwise(ps)


def test_lambda_shape_s1(s1_cfg, s1_point):
    pl, dr, _, ps = construction(s1_cfg, s1_point, 1, 7)
    parts = build_lambda(1, dr, ps, pl)
    assert parts.assembled.shape == (12, 5)
    assert parts.a_block.shape[1] == 0
    assert parts.b_block.shape[1] == 3
    assert parts.c_block.shape[1] == 2
    res = check_lambda(parts)
    assert res["full"] and res["rank"] == 5


def test_lambda_negative_zero_block(s1_cfg, s1_point):
    pl, dr, _, ps = construction(s1_cfg, s1_point, 1, 7)
    parts = build_lambda(1, dr, ps, pl)
    parts.assembled = parts.assembled.copy()
    parts.assembled[:, 2] = 0.0
    assert not check_lambda(parts)["full"]


def test_lambda_modes_agree(s1_cfg, s1_point):
    pl, dr, _, ps = construction(s1_cfg, s1_point, 1, 5, "rational")
    parts = build_lambda(1, dr, ps, pl)
    exact_full = check_lambda(parts)["full"]
    float_parts = build_lambda(
        1, channel.ChannelDraw(dr.cfg, dr.mu_n, dr.seed, "float",
                               dr.h_a.astype(float),
                               dr.h_b1.astype(float),
                               dr.h_b2.astype(float),
                               dr.h_c.astype(float)),
        _floatify(ps), pl)
    assert check_lambda(float_parts)["full"] == exact_full


def _floatify(ps):
    out = precoder.PrecoderSet(
        plan=ps.plan,
        p11=None if ps.p11 is None else ps.p11.astype(float),
        p12=None if ps.p12 is None else ps.p12.astype(float),
        p21=None if ps.p21 is None else ps.p21.astype(float),
        p22=None if ps.p22 is None else ps.p22.astype(float))
    out.v = {k: v.astype(float) for k, v in ps.v.items()}
    out.q = {k: v.astype(float) for k, v in ps.q.items()}
    return out


def test_achieved_dof_s1(s1_cfg, s1_point):
    pl, _, _, ps = construction(s1_cfg, s1_point, 1, 7)
    acc = achieved_dof(pl, ps, s1_point)
    per_slot = {m: a["per_slot"] for m, a in acc["achieved"].items()}
    assert per_slot == {"b1_1": Fraction(2, 12), "b1_2": Fraction(1, 12),
                        "b2_1": Fraction(2, 12), "b2_2": Fraction(1, 12)}
    assert acc["sum_per_slot"] == Fraction(1, 2)
    ratios = {m: a["ratio"] for m, a in acc["achieved"].items()}
    assert ratios == {"b1_1": Fraction(1, 2), "b1_2": Fraction(1, 4),
                      "b2_1": Fraction(1, 2), "b2_2": Fraction(1, 4)}


def test_achieved_dof_closed_form(s1_cfg, s1_point):
    pl, _, _, ps = construction(s1_cfg, s1_point, 3, 2)
    acc = achieved_dof(pl, ps, s1_point)
    assert acc["sum_per_slot"] == Fraction(7, 8)
    for mid, a in acc["achieved"].items():
        assert a["ratio"] == expected_ratio(pl, mid)


def test_lemma1_m1():
    assert lemma1_test(1, 1, random_valid_exponents, seed=0)


def test_lemma1_vandermonde():
    for seed in range(100):
        assert lemma1_test(4, 1, vandermonde_exponents, seed=seed)
    assert lemma1_test(4, 1, vandermonde_exponents, seed=5, mode="rational")


def test_lemma1_duplicate_columns():
    for seed in range(50):
        for mode in ("float", "modp"):
            assert not lemma1_test(3, 2, duplicate_column_exponents,
                                   seed=seed, mode=mode, claim_valid=False)


def test_lemma1_modp_matches_rational():
    # 1008 seeded (m, k, seed) cases, each with a valid and a
    # duplicate-column generator, in both exact modes.
    disagree = []
    for m in range(2, 8):
        for k in (1, 2, 3):
            for seed in range(56):
                for gen, valid in ((random_valid_exponents, True),
                                   (duplicate_column_exponents, False)):
                    zp, q = (lemma1_test(m, k, gen, seed, mode,
                                         claim_valid=valid)
                             for mode in ("modp", "rational"))
                    assert zp == valid
                    if zp != q:
                        disagree.append((m, k, seed, gen.__name__))
    # Rational mode draws each variable from 97 values, so two rows of one
    # matrix can get the same variable and the same exponents.  That
    # happens once here: rows 1 and 3 of the m=3, k=1, seed=26 matrix are
    # both 2^3, 2^1, 2^2, so its determinant is exactly 0 at that point.
    assert disagree == [(3, 1, 26, "random_valid_exponents")]


def test_lemma1_invalid_generator_flagged():
    with pytest.raises(InvalidGenerator):
        lemma1_test(3, 2, duplicate_column_exponents, seed=0)


def test_run_experiment_s1(s1_cfg, s1_point):
    r = run_experiment(s1_cfg, s1_point, 1, 7, "float")
    assert r.passed
    assert r.alignment_checked == 2
    assert r.retries == 0
    assert r.lambda1 == {"rows": 12, "cols": 5, "rank": 5, "full": True}


def test_run_experiment_infeasible(big_cfg):
    bad = DofPoint.make(db1=["1/2"] * 3, db2=["1/2"] * 3)
    with pytest.raises(InfeasiblePoint):
        run_experiment(big_cfg, bad, 1, 0)


def test_run_experiment_mac_boundary():
    cfg = SigmaConfig(2, 1, 2, 0, 0)
    d = DofPoint.make(da=["1", "1"])
    r = run_experiment(cfg, d, 1, 3)
    assert r.passed
    assert r.sum_per_slot == 2


def test_run_certified_falls_back_to_exact(s1_cfg, s1_point):
    # n=3 exponents overwhelm float precision; exact mode must settle it
    r = run_certified(s1_cfg, s1_point, 3, 0)
    assert r.passed
    assert r.mode == "modp"


def test_run_certified_past_the_rational_slot_cap(s1_cfg, s1_point):
    # mu_n = 108 > 97: float reports 44/85, rational cannot draw it
    assert not run_experiment(s1_cfg, s1_point, 5, 31, "float").passed
    r = run_certified(s1_cfg, s1_point, 5, 31)
    assert r.passed and r.mode == "modp"
    assert r.lambda1 == r.lambda2 == {"rows": 108, "cols": 85, "rank": 85,
                                      "full": True}


def _verdicts(report):
    """Everything a report says except how the draw was made."""
    doc = report.to_dict()
    for key in ("mode", "seed", "retries"):
        del doc[key]
    return doc


@pytest.mark.parametrize("shape, n, seeds", [
    ("s1", 1, (0, 1, 2)), ("s1", 2, (0, 1, 2)), ("s1", 3, (0, 1, 2)),
    ("s1", 4, (31,)), ("big", 1, (0, 1, 2))])
def test_modp_verdicts_match_rational(shape, n, seeds, request):
    cfg = request.getfixturevalue(f"{shape}_cfg")
    d = request.getfixturevalue(f"{shape}_point")
    for seed in seeds:
        exact = run_experiment(cfg, d, n, seed, "rational")
        modp = run_experiment(cfg, d, n, seed, "modp")
        assert exact.passed and modp.mode == "modp"
        assert _verdicts(modp) == _verdicts(exact)


def test_report_roundtrip(s1_cfg, s1_point):
    r = run_experiment(s1_cfg, s1_point, 1, 7)
    doc = r.to_dict()
    assert doc["pass"] is True
    assert doc["sum_per_slot"] == "1/2"
    assert doc["achieved"]["b1_1"]["bar_dof"] == 2
