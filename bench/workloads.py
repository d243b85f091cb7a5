"""The benchmark's workloads: seeded op inputs, the op, and its output check.

Each workload takes the benchmark seed; op k draws its inputs from
``default_rng([seed, k])``, so a seed fixes every op's inputs and a traced
run can replay exactly the ops an untraced run made.  The library only
sees the generated inputs (a channel seed or a weight vector).

Ops call the library through module attributes (``verify.run_certified``),
never through names bound at import time, so the tracer sees every call.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from sigma_align import DofPoint, SigmaConfig, precoder, region, verify

S1 = (SigmaConfig(1, 1, 0, 2, 0),
      DofPoint.make(db1=["1/3", "1/3"], db2=["1/3", "1/3"]))
BIG = (SigmaConfig(2, 2, 0, 3, 0),
       DofPoint.make(db1=["1/6"] * 3, db2=["1/6"] * 3))

LP_TOL = 1e-9
WEIGHT_MAX = 4      # region_lp weights are drawn from 1..WEIGHT_MAX


def op_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def channel_seed(seed: int, k: int) -> int:
    # headroom for run_experiment's seed+1..seed+3 retries
    return int(op_rng(seed, k).integers(0, 2 ** 31 - 4))


class Certify:
    """One op: run_certified over the criterion-4 scenarios at one seed.

    Float mode fails S1 n=3 on every seed, so each op includes one exact
    rerun; the fallback is part of the user-facing cost and is not avoided.
    """

    name = "certify"

    def __init__(self, size: str):
        ns = (1, 2, 3) if size == "full" else (1, 2)
        self.scenarios = [(*S1, n) for n in ns]
        if size == "full":
            self.scenarios.append((*BIG, 1))
        self.expected = []
        for cfg, d, n in self.scenarios:
            pl = precoder.plan(cfg, d, n)
            self.expected.append({mid: verify.expected_ratio(pl, mid)
                                  for mid in precoder.message_ids(cfg)})

    def op_input(self, seed, k):
        return channel_seed(seed, k)

    def run(self, chan_seed):
        return [verify.run_certified(cfg, d, n, chan_seed)
                for cfg, d, n in self.scenarios]

    def check(self, chan_seed, reports) -> bool:
        for report, expected in zip(reports, self.expected, strict=True):
            ratios = {mid: a["ratio"] for mid, a in report.achieved.items()}
            if not report.passed or ratios != expected:
                return False
        return True

    def warm_up(self):
        # the first exact-mode run in a process is about twice as slow
        verify.run_experiment(*S1, 2, 0, "rational")


class FloatScale:
    """One op: the largest certifiable float run, BIG at n=2 (972x972 stack)."""

    name = "float_scale"

    def __init__(self, size: str):
        self.cfg, self.d = BIG
        self.n = 2 if size == "full" else 1
        pl = precoder.plan(self.cfg, self.d, self.n)
        self.expected_checked = pl.gamma1 + pl.gamma2

    def op_input(self, seed, k):
        return channel_seed(seed, k)

    def run(self, chan_seed):
        return verify.run_experiment(self.cfg, self.d, self.n, chan_seed,
                                     "float")

    def check(self, chan_seed, report) -> bool:
        return (report.passed
                and report.alignment_checked == self.expected_checked
                and all(lam["rank"] == lam["cols"]
                        for lam in (report.lambda1, report.lambda2)))

    def warm_up(self):
        verify.run_experiment(*BIG, 1, 0, "float")


class RegionLP:
    """One op: max_sum_dof over three configurations with seeded weights.

    Only the region layer works here: subset enumeration plus the rational
    simplex.  The check solves the same LP with scipy's HiGHS in floats.
    """

    name = "region_lp"

    def __init__(self, size: str):
        shapes = ([(2, 2, 0, 6, 0), (3, 3, 0, 6, 0), (2, 3, 1, 7, 1)]
                  if size == "full" else [(1, 1, 0, 2, 0), (2, 2, 0, 3, 0)])
        self.configs = [SigmaConfig(*s) for s in shapes]
        self._lp = None

    def op_input(self, seed, k):
        rng = op_rng(seed, k)
        return [[int(w) for w in rng.integers(1, WEIGHT_MAX + 1,
                                              size=cfg.num_messages)]
                for cfg in self.configs]

    def run(self, weights):
        return [region.max_sum_dof(cfg, w)
                for cfg, w in zip(self.configs, weights)]

    def _float_lps(self):
        if self._lp is None:
            self._lp = []
            for cfg in self.configs:
                cons = region.enumerate_constraints(cfg)
                self._lp.append((
                    np.array([[float(c) for c in k.coeffs] for k in cons]),
                    np.array([float(k.bound) for k in cons])))
        return self._lp

    def check(self, weights, results) -> bool:
        from scipy.optimize import linprog

        for cfg, w, (value, point), (a_ub, b_ub) in zip(
                self.configs, weights, results, self._float_lps(),
                strict=True):
            if not region.check_point_bruteforce(cfg, point).feasible:
                return False
            if sum(Fraction(wi) * x for wi, x in
                   zip(w, point.as_vector())) != value:
                return False
            lp = linprog(-np.array(w, dtype=float), A_ub=a_ub, b_ub=b_ub,
                         bounds=(0, None), method="highs")
            if lp.status != 0 or abs(-lp.fun - float(value)) > LP_TOL:
                return False
        return True

    def warm_up(self):
        cfg = self.configs[0]
        region.max_sum_dof(cfg, [1] * cfg.num_messages)


WORKLOADS = {w.name: w for w in (Certify, FloatScale, RegionLP)}
