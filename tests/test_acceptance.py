"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
Float-mode rank failures are arbitrated by a prime-field rerun of the same
seed (run_certified); only an exact-mode failure counts.
"""

import time
from fractions import Fraction

import numpy as np

import conftest
from sigma_align import (DofPoint, SigmaConfig, channel, errors, precoder,
                         region, verify)


S1_CFG = SigmaConfig(1, 1, 0, 2, 0)
S1_D = DofPoint.make(db1=["1/3", "1/3"], db2=["1/3", "1/3"])
BIG_CFG = SigmaConfig(2, 2, 0, 3, 0)
BIG_D = DofPoint.make(db1=["1/6"] * 3, db2=["1/6"] * 3)


def verdict(num, ok, desc):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)
    assert ok, f"criterion {num} failed: {desc}"


def random_point(cfg, rng):
    def grp(k):
        return tuple(Fraction(int(rng.integers(0, 9)),
                              int(rng.integers(1, 8))) / 4 for _ in range(k))
    return DofPoint(grp(cfg.la), grp(cfg.lb), grp(cfg.lb), grp(cfg.lc))


def test_criterion_1_region_oracle_equivalence():
    configs = [SigmaConfig(1, 1, 0, 2, 0), SigmaConfig(2, 2, 1, 3, 1),
               SigmaConfig(2, 1, 2, 2, 0)]
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    disagreements = 0
    for cfg in configs:
        for _ in range(1000):
            d = random_point(cfg, rng)
            if (region.check_point(cfg, d).feasible
                    != region.check_point_bruteforce(cfg, d).feasible):
                disagreements += 1
    elapsed = time.monotonic() - t0
    verdict(1, disagreements == 0 and elapsed < 5.0,
            f"fast vs brute-force membership: {disagreements} disagreements "
            f"over 3000 points in {elapsed:.2f}s (< 5s)")


def test_criterion_2_x_network_specialization():
    value, _ = region.max_sum_dof(S1_CFG, [1, 1, 1, 1])
    res = region.check_point(S1_CFG, S1_D)
    vec = S1_D.as_vector()
    tight = [c.label for c in region.enumerate_constraints(S1_CFG)
             if c.label.startswith("mac") and c.value(vec) == c.bound]
    ok = (value == Fraction(4, 3) and res.feasible
          and any("bs1" in l for l in tight)
          and any("bs2" in l for l in tight))
    verdict(2, ok, f"max sum DoF = {value} (= 4/3), boundary point feasible "
            f"with both BS cuts tight: {tight}")


def _construction(cfg, d, n, seed, mode):
    pl = precoder.plan(cfg, d, n)
    for s in range(seed, seed + 3):   # rare rational draws are singular
        dr = channel.draw(cfg, pl.mu_n, s, mode)
        try:
            t_set = precoder.compute_t_set(dr, pl)
        except errors.SingularStack:
            continue
        ps = precoder.assemble(pl, d, dr, s, t_set)
        return pl, t_set, ps
    raise errors.RetriesExhausted(f"no invertible stack near seed {seed}")


def test_criterion_3_exact_alignment():
    scenarios = [(S1_CFG, S1_D, n) for n in (1, 2, 3)] + [(BIG_CFG, BIG_D, 1)]
    ok = True
    details = []
    for cfg, d, n in scenarios:
        for mode in ("rational", "float"):
            pl, t_set, ps = _construction(cfg, d, n, seed=17, mode=mode)
            res = verify.check_alignment(ps, t_set)
            good = (res["alignment_ok"] and res["column_subset_ok"]
                    and res["checked"] == pl.gamma1 + pl.gamma2)
            ok = ok and good
            details.append(f"n={n}/{mode}:{res['checked']}")
    # negative control: perturbing one structured entry breaks column match
    _, t_set, ps = _construction(S1_CFG, S1_D, 1, seed=17, mode="float")
    ps.p22 = ps.p22.copy()
    ps.p22[0, 0] += 1e-3
    negative_fails = not verify.check_alignment(ps, t_set)["column_subset_ok"]
    verdict(3, ok and negative_fails,
            f"all aligned columns matched exactly ({', '.join(details)}); "
            f"perturbation control fails: {negative_fails}")


def test_criterion_4_full_rank_certification():
    scenarios = [("S1 n=1", S1_CFG, S1_D, 1), ("S1 n=2", S1_CFG, S1_D, 2),
                 ("S1 n=3", S1_CFG, S1_D, 3), ("2x2 lb=3 n=1", BIG_CFG, BIG_D, 1)]
    ok = True
    lines = []
    for name, cfg, d, n in scenarios:
        t0 = time.monotonic()
        passes = sum(verify.run_certified(cfg, d, n, 1000 * s).passed
                     for s in range(20))
        elapsed = time.monotonic() - t0
        good = passes == 20 and elapsed < 60.0
        ok = ok and good
        lines.append(f"{name}: {passes}/20 in {elapsed:.1f}s")
    verdict(4, ok, "; ".join(lines))


def test_criterion_5_column_count_closed_forms():
    cases = [(S1_CFG, S1_D, 1), (S1_CFG, S1_D, 2), (S1_CFG, S1_D, 3),
             (BIG_CFG, BIG_D, 1), (BIG_CFG, BIG_D, 2)]
    ok = True
    for cfg, d, n in cases:
        pl, _, ps = _construction(cfg, d, n, seed=5, mode="float")
        d1 = d.db1[pl.delta1 - 1]
        d2 = d.db2[pl.delta2 - 1]
        ok = ok and ps.p11.shape[1] == pl.mu0 * n ** pl.gamma1 \
            * (n + 1) ** pl.gamma2 * d1
        ok = ok and ps.p12.shape[1] == pl.mu0 * n ** (pl.gamma1 + pl.gamma2) * d1
        ok = ok and ps.p21.shape[1] == pl.mu0 * (n + 1) ** pl.gamma1 \
            * n ** pl.gamma2 * d2
        ok = ok and ps.p22.shape[1] == pl.mu0 * n ** (pl.gamma1 + pl.gamma2) * d2
    verdict(5, ok, f"structured column counts match closed forms on "
            f"{len(cases)} plans")


def test_criterion_6_convergence():
    # The promised rate.  The paper expands over
    # mu_n = mu0 * (n+1)^(G1+G2) slots, with G_i = N_i * max(L_B - N_i, 0)
    # alignment pairs (l, j) at BS i.  Each message gets a closed-form
    # share of its target mu_n * d:
    #   - a member of S1 toward BS 1 keeps the (n+1) factor on the G2 side
    #     and pays (n/(n+1))^G1; a member of S2 toward BS 2 pays
    #     (n/(n+1))^G2;
    #   - every other message (groups A and C, and shared users outside the
    #     sets) gets mu0 * n^(G1+G2) * d columns, the size of the narrow
    #     structured matrix that out-of-set shared users draw from so their
    #     interference aligns, and so pays (n/(n+1))^(G1+G2).
    # Every ratio therefore lies in [(n/(n+1))^(G1+G2), 1], and the per-slot
    # sum lies in [(n/(n+1))^(G1+G2) * sum(d), sum(d)].  For S1 (G1 = G2 = 1,
    # sum(d) = 4/3, the max sum DoF of criterion 2) that is
    # 48/49 <= 52/49 <= 4/3 at n=6.  A single-factor rate,
    # (n/(n+1)) * sum(d) = 8/7 at n=6, would need an expansion shorter than
    # the paper's (ROADMAP item 4); the paper claims the region only in
    # the limit n -> infinity.
    gamma = sum(n_i * max(S1_CFG.lb - n_i, 0)
                for n_i in (S1_CFG.n1, S1_CFG.n2))
    total = sum(S1_D.as_vector())
    ratios_by_msg = {m: [] for m in precoder.message_ids(S1_CFG)}
    sum_at = {}
    closed_ok = certified_ok = True
    certified = []
    for n in range(1, 7):
        pl = precoder.plan(S1_CFG, S1_D, n)
        r = verify.run_certified(S1_CFG, S1_D, n, 31)
        certified_ok = certified_ok and r.passed
        certified.append(f"n={n} {r.mode} pass={r.passed} Lambda ranks "
                         f"{r.lambda1['rank']}/{r.lambda1['cols']}, "
                         f"{r.lambda2['rank']}/{r.lambda2['cols']}")
        for mid, a in r.achieved.items():
            ratios_by_msg[mid].append(a["ratio"])
            closed_ok = closed_ok and a["ratio"] == verify.expected_ratio(pl, mid)
        sum_at[n] = r.sum_per_slot
    monotone = all(a < b for seq in ratios_by_msg.values()
                   for a, b in zip(seq, seq[1:]))
    lower = {n: Fraction(n, n + 1) ** gamma * total for n in sum_at}
    rate_ok = (all(lower[n] <= s <= total for n, s in sum_at.items())
               and all(sum_at[n] < sum_at[n + 1] for n in range(1, 6)))
    verdict(6, closed_ok and monotone and rate_ok and certified_ok,
            f"ratios match (n/(n+1))^G exactly and increase strictly: "
            f"{closed_ok and monotone}; (n/(n+1))^{gamma}*{total} <= sum "
            f"<= {total}, increasing, n=1..6: {rate_ok} (sum at n=6 = "
            f"{sum_at[6]} >= {lower[6]}); certified: {'; '.join(certified)}")


def test_criterion_7_lemma1_property_suite():
    rng = np.random.default_rng(9)
    valid = total = 0
    for _ in range(1100):
        m = int(rng.integers(2, 13))
        k = int(rng.integers(1, 5))
        total += 1
        valid += verify.lemma1_test(m, k, verify.random_valid_exponents,
                                    int(rng.integers(0, 2 ** 31)), "float")
    exact_valid = sum(
        verify.lemma1_test(int(rng.integers(2, 9)), int(rng.integers(1, 5)),
                           verify.random_valid_exponents,
                           int(rng.integers(0, 2 ** 31)), "rational")
        for _ in range(100))
    negative_full = sum(
        verify.lemma1_test(int(rng.integers(2, 13)), int(rng.integers(1, 5)),
                           verify.duplicate_column_exponents,
                           int(rng.integers(0, 2 ** 31)), "float",
                           claim_valid=False)
        for _ in range(200))
    ok = valid == total and exact_valid == 100 and negative_full == 0
    verdict(7, ok, f"valid generators {valid}/{total} full rank "
            f"(exact {exact_valid}/100); duplicate-column negative "
            f"{negative_full}/200 full rank")


def test_criterion_8_degenerate_branches():
    # two-user MAC at its boundary, no shared group
    mac_cfg = SigmaConfig(2, 1, 2, 0, 0)
    mac_d = DofPoint.make(da=["1", "1"])
    pl = precoder.plan(mac_cfg, mac_d, 1)
    r = verify.run_certified(mac_cfg, mac_d, 1, 11)
    mac_ok = (pl.gamma1 == pl.gamma2 == 0 and pl.mu_n == pl.mu0
              and r.passed and r.alignment_checked == 0)
    # shared group that fits within both antenna arrays, boundary point
    fit_cfg = SigmaConfig(2, 2, 0, 2, 0)
    fit_d = DofPoint.make(db1=["1/2", "1/2"], db2=["1/2", "1/2"])
    pl2 = precoder.plan(fit_cfg, fit_d, 1)
    _, _, ps = _construction(fit_cfg, fit_d, 1, seed=11, mode="float")
    r2 = verify.run_certified(fit_cfg, fit_d, 1, 11)
    fit_ok = (pl2.gamma1 == pl2.gamma2 == 0 and pl2.mu_n == pl2.mu0
              and ps.p11 is None and ps.p21 is None and r2.passed)
    verdict(8, mac_ok and fit_ok,
            f"MAC boundary pass={r.passed} (mu_n={pl.mu_n}); "
            f"no-alignment shared group pass={r2.passed} (mu_n={pl2.mu_n})")
