import dataclasses
import json
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sigma_align import channel, numerics, precoder, verify
from sigma_align.errors import (FloatOverflow, InfeasiblePoint,
                                 InvalidGenerator, SigmaAlignError)
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
    ps.narrow[2] = ps.narrow[2].copy()
    ps.narrow[2][0, 0] += 1e-3
    res = check_alignment(ps, t_set)
    assert not res["column_subset_ok"]


def test_alignment_negative_perturbation_modp(s1_cfg, s1_point):
    _, _, t_set, ps = construction(s1_cfg, s1_point, 1, 3, "modp")
    assert check_alignment(ps, t_set)["column_subset_ok"]
    ps.narrow[2] = ps.narrow[2].copy()
    ps.narrow[2][0, 0] += 1
    res = check_alignment(ps, t_set)
    assert not res["column_subset_ok"]
    assert not res["alignment_ok"]


def test_alignment_scaled_columns_modp(s1_cfg, s1_point):
    # 2 * narrow[2] spans the same space, but none of its columns is
    # literally in wide[2], so the span verdict must come from the ranks
    _, _, t_set, ps = construction(s1_cfg, s1_point, 1, 3, "modp")
    ps.narrow[2] = 2 * ps.narrow[2]
    res = check_alignment(ps, t_set)
    assert res["alignment_ok"]
    assert not res["column_subset_ok"]


def _count_ranks(monkeypatch):
    calls = []
    rank = numerics.rank

    def counting(m):
        calls.append(m.shape)
        return rank(m)
    monkeypatch.setattr(numerics, "rank", counting)
    return calls


def test_alignment_ranks_each_wide_matrix_once(big_cfg, big_point,
                                               monkeypatch):
    # four T diagonals, two per side: one wide rank per side, not per T
    _, _, t_set, ps = construction(big_cfg, big_point, 1, 0)
    calls = _count_ranks(monkeypatch)
    res = check_alignment(ps, t_set)
    assert res["alignment_ok"] and res["checked"] == 4
    assert len(calls) == 6


def test_alignment_column_match_needs_no_rank(s1_cfg, s1_point,
                                              monkeypatch):
    _, _, t_set, ps = construction(s1_cfg, s1_point, 3, 0, "modp")
    calls = _count_ranks(monkeypatch)
    res = check_alignment(ps, t_set)
    assert res["alignment_ok"] and res["column_subset_ok"]
    assert calls == []


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
    wide = ps.wide[1]
    matched = []
    for t in t_set[2]:
        col = (t[:, None] * ps.narrow[1])[:, 0]
        rel = (np.max(np.abs(wide - col[:, None]), axis=0)
               / np.max(np.abs(wide), axis=0))
        matched.append(int(np.argmin(rel)))
    k = max(matched, key=lambda j: np.max(np.abs(wide[:, j])))
    assert np.max(np.abs(wide[:, k])) > 1e10
    i = int(np.argmax(np.abs(wide[:, k])))
    ps.wide[1] = wide.copy()
    ps.wide[1][i, k] *= 1 + 1e-6
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
        wide={o: p.astype(float) for o, p in ps.wide.items()},
        narrow={o: p.astype(float) for o, p in ps.narrow.items()})
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


@pytest.mark.parametrize("m, k", [(2, 0), (5, 0), (1, 0), (3, -1)])
def test_random_exponents_reject_k_below_one(m, k):
    # with k = 0 every row draws from a pool of one tuple; m >= 2 looped
    with pytest.raises(SigmaAlignError, match=f"m = {m}, k = {k}"):
        random_valid_exponents(m, k, np.random.default_rng(0))


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


def test_float_singular_stack_is_retried(big_cfg, big_point):
    # seed 152 draws a stack whose float rank, at the block-diagonal
    # cutoff, falls short; the retry draws seed 153, which passes
    r = run_experiment(big_cfg, big_point, 2, 152, "float")
    assert (r.retries, r.seed, r.passed) == (1, 153, True)


@pytest.mark.parametrize("mode", ["float", "rational", "modp"])
def test_stacks_are_ranked_only_by_the_float_solve(big_cfg, big_point, mode,
                                                   monkeypatch):
    # exact modes leave singularity to the solve's zero pivot; float ranks
    # each stack once, inside numerics.solve_blocks
    solves = []
    compute_t = channel.compute_t

    def counting_t(*args):
        solves.append(args[1:])
        return compute_t(*args)
    monkeypatch.setattr(channel, "compute_t", counting_t)
    calls = _count_ranks(monkeypatch)
    assert run_experiment(big_cfg, big_point, 1, 0, mode).passed
    stacks = [shape for shape in calls if len(shape) == 3]
    assert len(solves) == 2
    assert stacks == ([(96, 2, 2)] * 2 if mode == "float" else [])


def test_run_certified_falls_back_to_exact(s1_cfg, s1_point):
    # n=3 exponents overwhelm float precision; exact mode must settle it
    r = run_certified(s1_cfg, s1_point, 3, 0)
    assert r.passed
    assert r.mode == "modp"


def test_run_certified_decides_a_raising_float_run_in_modp(
        s1_cfg, s1_point, monkeypatch):
    # at large n the float monomials overflow and the SVD does not converge
    real = verify.run_experiment

    def run(cfg, d, n, seed, mode="float"):
        if mode == "float":
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(cfg, d, n, seed, mode)

    monkeypatch.setattr(verify, "run_experiment", run)
    r = run_certified(s1_cfg, s1_point, 1, 0)
    assert r.passed and r.mode == "modp"


def test_run_certified_decides_an_overflowing_float_run_in_modp(
        s1_cfg, s1_point, monkeypatch):
    real = verify.run_experiment

    def run(cfg, d, n, seed, mode="float"):
        if mode == "float":
            raise FloatOverflow("float monomials overflow")
        return real(cfg, d, n, seed, mode)

    monkeypatch.setattr(verify, "run_experiment", run)
    r = run_certified(s1_cfg, s1_point, 1, 0)
    assert r.passed and r.mode == "modp"


def test_float_overflow_is_a_typed_error(s1_cfg, s1_point):
    # mu_n = 1728 at n = 23: the power table overflows, and the run stops
    # there, with no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatOverflow, match=r"n = 23, mu_n = 1728"):
            run_experiment(s1_cfg, s1_point, 23, 31, "float")


def test_run_certified_past_the_rational_slot_cap(s1_cfg, s1_point):
    # mu_n = 108 > 97: float reports 44/85, rational cannot draw it
    assert not run_experiment(s1_cfg, s1_point, 5, 31, "float").passed
    r = run_certified(s1_cfg, s1_point, 5, 31)
    assert r.passed and r.mode == "modp"
    assert r.lambda1 == r.lambda2 == {"rows": 108, "cols": 85, "rank": 85,
                                      "full": True}


def test_report_keeps_only_plain_counts(s1_cfg, s1_point):
    # a kept report stays small: no per-instance dict, no numpy objects
    for mode in ("float", "modp"):
        r = run_experiment(s1_cfg, s1_point, 3, 31, mode)
        assert not hasattr(r, "__dict__")
        for f in dataclasses.fields(r):
            value = getattr(r, f.name)
            for x in value if isinstance(value, tuple) else (value,):
                assert not isinstance(x, (np.generic, np.ndarray)), f.name
        assert r.lambda_counts == tuple(
            r.to_dict()[k][c] for k in ("lambda1", "lambda2")
            for c in ("rows", "cols", "rank"))
    # the two BSs differ here, so each dict is read from its own counts
    mac = SigmaConfig(2, 1, 2, 0, 0)
    r = run_experiment(mac, DofPoint.make(da=["1", "1"]), 1, 3)
    assert r.lambda1 == {"rows": 2, "cols": 2, "rank": 2, "full": True}
    assert r.lambda2 == {"rows": 1, "cols": 0, "rank": 0, "full": True}


def test_modp_certifies_big_n2(big_cfg, big_point):
    # mu_n = 486 slots, past rational mode's cap; no other test certifies it
    r = run_experiment(big_cfg, big_point, 2, 0, "modp")
    assert r.alignment_ok and r.column_subset_ok and r.pairwise_ok
    assert r.lambda1 == r.lambda2 == {"rows": 972, "cols": 160, "rank": 160,
                                      "full": True}
    assert r.passed and r.mu_n == 486


# db1 = (0, 1, 0), db2 = (1, 0, 0): the zero-DoF messages leave a
# structured matrix with no columns
EMPTY_P = (SigmaConfig(2, 2, 0, 3, 0),
           DofPoint.make(db1=["0", "1", "0"], db2=["1", "0", "0"]))


@pytest.mark.parametrize("mode", ["float", "rational", "modp"])
def test_empty_structured_matrix_every_mode(mode):
    pl, _, _, ps = construction(*EMPTY_P, 1, 3, mode)
    assert 0 in [p.shape[1] for p in (ps.wide.get(1), ps.narrow.get(1),
                                      ps.wide.get(2), ps.narrow.get(2))
                 if p is not None]
    r = run_experiment(*EMPTY_P, 1, 3, mode)
    assert r.passed and r.mode == mode
    assert r.lambda1 == {"rows": 32, "cols": 8, "rank": 8, "full": True}
    assert r.lambda2["full"]


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


# (2,1,1,2,0): lb = 2 fits BS 1's two antennas, so only BS 2 aligns,
# with s1 = (1,) and s2 = ()
ONE_SIDE_P = (SigmaConfig(2, 1, 1, 2, 0),
              DofPoint.make(da=["1/2"], db1=["1/2", "1/4"],
                            db2=["1/4", "1/4"]))
S1_P = (SigmaConfig(1, 1, 0, 2, 0),
        DofPoint.make(db1=["1/3", "1/3"], db2=["1/3", "1/3"]))
BIG_P = (SigmaConfig(2, 2, 0, 3, 0),
         DofPoint.make(db1=["1/6"] * 3, db2=["1/6"] * 3))
# two set members and two outside users per side: the only golden run whose
# T list interleaves (l, j) pairs, so only it pins that order
INTERLEAVED_P = (SigmaConfig(2, 2, 0, 4, 0),
                 DofPoint.make(db1=["1/3"] * 4, db2=["1/3"] * 4))

# (name, point, n, seed, mode); float only where float passes
GOLDEN_RUNS = (
    [("s1", S1_P, n, 31, "float") for n in (1, 2)]
    + [("s1", S1_P, 3, 31, mode) for mode in ("modp", "rational")]
    + [("big", BIG_P, 1, 31, mode) for mode in ("float", "modp", "rational")]
    + [("big", BIG_P, 2, 31, mode) for mode in ("float", "modp")]
    + [("empty", EMPTY_P, 1, 3, "modp")]
    + [("interleaved", INTERLEAVED_P, 1, 31, mode)
       for mode in ("float", "modp")]
    + [("one_side", ONE_SIDE_P, n, 31, mode)
       for n in (1, 2) for mode in ("float", "modp")])
GOLDEN_PATH = Path(__file__).parent / "data" / "reports.json"


def _golden_id(name, n, seed, mode):
    return f"{name}-n{n}-seed{seed}-{mode}"


def _report_text(doc):
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize(
    "name, point, n, seed, mode", GOLDEN_RUNS,
    ids=[_golden_id(nm, n, s, m) for nm, _, n, s, m in GOLDEN_RUNS])
def test_report_matches_golden(name, point, n, seed, mode):
    # every verdict, rank, achieved ratio and report byte is pinned
    golden = json.loads(GOLDEN_PATH.read_text())
    r = run_experiment(*point, n, seed, mode)
    assert (_report_text(r.to_dict())
            == _report_text(golden[_golden_id(name, n, seed, mode)]))


def test_golden_file_holds_exactly_the_runs():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(_golden_id(nm, n, s, m)
                                    for nm, _, n, s, m in GOLDEN_RUNS)


def _bits(m):
    body = m.tolist() if m.dtype == object else m.tobytes()
    return type(m), m.dtype, m.shape, body


def _joined_lambda(i, dr, ps, pl):
    """Λ_i as np.hstack of the products channel.apply returns."""
    cfg = pl.cfg
    group, count = ("a", cfg.la) if i == 1 else ("c", cfg.lc)
    terms = [((group, j), ps.v[f"{group}{j}"]) for j in range(1, count + 1)]
    terms += [(("b", i, j), ps.v[f"b{i}_{j}"]) for j in range(1, cfg.lb + 1)]
    o = next(o for o in (1, 2) if pl.side(o)[0] == i)
    if o in ps.wide:
        beta = pl.beta(o)
        terms += [(("b", i, j), ps.q[f"b{o}_{j}"]) for j in beta[:-1]]
        terms += [(("b", i, j), ps.wide[o]) for j in beta]
    else:
        terms += [(("b", i, j), ps.v[f"b{o}_{j}"])
                  for j in range(1, cfg.lb + 1)]
    return np.hstack([channel.apply(dr, path, m) for path, m in terms])


@pytest.mark.parametrize("mode", ["float", "modp", "rational"])
@pytest.mark.parametrize("point", [S1_P, BIG_P, GROUPED],
                         ids=["s1", "big", "grouped"])
def test_lambda_is_one_array_of_the_joined_products(point, mode):
    # entry for entry (float bit for bit) the joined products, in the
    # draw's array type, with the three blocks as views of it
    pl, dr, _, ps = construction(*point, 1, 31, mode)
    for i in (1, 2):
        parts = build_lambda(i, dr, ps, pl)
        assert _bits(parts.assembled) == _bits(_joined_lambda(i, dr, ps, pl))
        assert type(parts.assembled) is type(dr.h_b1)
        blocks = (parts.a_block, parts.b_block, parts.c_block)
        assert _bits(np.hstack(blocks)) == _bits(parts.assembled)
        for block in blocks:
            assert block.size == 0 or np.shares_memory(block,
                                                       parts.assembled)


def test_lambda_allocates_one_matrix(big_cfg, big_point):
    # BIG n=2 float, Λ 972x160: the products are written into Λ, so the
    # peak stays near one Λ; joining copies of them peaked at 2.55 Λ
    pl, dr, _, ps = construction(big_cfg, big_point, 2, 31)
    tracemalloc.start()
    try:
        parts = build_lambda(1, dr, ps, pl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parts.assembled.shape == (972, 160)
    assert peak < 1.5 * parts.assembled.nbytes


if __name__ == "__main__":
    # rewrites tests/data/reports.json; only for a change meant to alter
    # a report, and the diff of the file says which
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(
        {_golden_id(nm, n, s, m): run_experiment(*p, n, s, m).to_dict()
         for nm, p, n, s, m in GOLDEN_RUNS}, indent=1, sort_keys=True) + "\n")
