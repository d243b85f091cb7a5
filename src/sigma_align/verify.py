"""Certification of the alignment construction by rank checks.

Decodability at infinite SNR reduces to linear algebra: every aligned
column must literally reappear in the target structured matrix, each
shared user's two beamformers must be jointly full rank, and the stacked
signal-plus-interference matrix at each BS must have full column rank.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import channel as channel_mod
from . import numerics, precoder, region
from .errors import (InfeasiblePoint, InvalidGenerator, RetriesExhausted,
                     SingularStack, TallnessViolated)
from .precoder import AlignmentPlan, PrecoderSet, TSet
from .region import DofPoint, SigmaConfig


@dataclass
class LambdaParts:
    """Signal and interference column blocks at one BS, plus their stack."""

    i: int
    a_block: np.ndarray
    b_block: np.ndarray
    c_block: np.ndarray
    assembled: np.ndarray


@dataclass
class VerificationReport:
    """What one run checked, and the DoF its construction achieves.

    ``achieved`` and ``sum_per_slot`` are derived from the column counts
    ``bar_dofs`` (one per message, in ``precoder.message_ids`` order) when
    first read, so a report that is kept but not read holds no
    per-message dicts.
    """

    alignment_ok: bool
    column_subset_ok: bool
    pairwise_ok: bool
    alignment_checked: int
    lambda1: dict
    lambda2: dict
    cfg: SigmaConfig
    d: DofPoint
    mu_n: int
    bar_dofs: tuple[int, ...]
    passed: bool
    seed: int
    n: int
    mode: str
    retries: int

    @functools.cached_property
    def _dof(self) -> dict:
        return _achieved(self.cfg, self.d, self.mu_n, self.bar_dofs)

    @property
    def achieved(self) -> dict:
        return self._dof["achieved"]

    @property
    def sum_per_slot(self) -> Fraction:
        return self._dof["sum_per_slot"]

    def to_dict(self) -> dict:
        def frac(x):
            return f"{x.numerator}/{x.denominator}"
        achieved = {
            mid: {"bar_dof": a["bar_dof"],
                  "per_slot": frac(a["per_slot"]),
                  "per_slot_decimal": float(a["per_slot"]),
                  "target": frac(a["target"]),
                  "ratio": frac(a["ratio"])}
            for mid, a in self.achieved.items()}
        return {
            "alignment_ok": self.alignment_ok,
            "column_subset_ok": self.column_subset_ok,
            "pairwise_ok": self.pairwise_ok,
            "alignment_checked": self.alignment_checked,
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "achieved": achieved,
            "sum_per_slot": frac(self.sum_per_slot),
            "sum_per_slot_decimal": float(self.sum_per_slot),
            "pass": self.passed,
            "seed": self.seed,
            "n": self.n,
            "mode": self.mode,
            "retries": self.retries,
        }


def check_alignment(ps: PrecoderSet, t_set: TSet) -> dict:
    """Verify every alignment constraint, in both span and column form.

    For each T diagonal at BS 1, diag(T) times the narrow structured
    matrix must land inside (and, column by column, literally within) the
    wide one; mirrored at BS 2.  Vacuously true when no side aligns.
    """
    span_ok, subset_ok, checked = True, True, 0
    for t_side, narrow, wide in ((t_set.bs1, ps.p22, ps.p21),
                                 (t_set.bs2, ps.p12, ps.p11)):
        for t in t_side.values():
            moved = t[:, None] * narrow
            span_ok = span_ok and numerics.subspace_contains(moved, wide)
            subset_ok = subset_ok and numerics.columns_subset_of(moved, wide)
            checked += 1
    return {"alignment_ok": span_ok, "column_subset_ok": subset_ok,
            "checked": checked}


def check_pairwise(ps: PrecoderSet) -> bool:
    """Each shared user's two beamformers must be jointly full column rank."""
    for j in range(1, ps.plan.cfg.lb + 1):
        v1, v2 = ps.v[f"b1_{j}"], ps.v[f"b2_{j}"]
        total = v1.shape[1] + v2.shape[1]
        if total == 0:
            continue
        if numerics.rank(np.hstack([v1, v2])) != total:
            return False
    return True


def _hcat(parts, nrows, dtype):
    return np.hstack(parts) if parts else np.empty((nrows, 0), dtype=dtype)


def build_lambda(i: int, draw: channel_mod.ChannelDraw, ps: PrecoderSet,
                 pl: AlignmentPlan) -> LambdaParts:
    """Assemble the signal-plus-interference matrix at BS i.

    Signal blocks are each desired message's expanded channel times its
    beamformer.  With alignment on, the interference block is each set
    member's expanded channel applied to its random tail (all members but
    the anchor, which is last), then to the wide structured matrix; this
    is the square channel stack applied to the block-diagonal tails and to
    N_i copies of the wide matrix.  With alignment off it is the plain
    cross-message columns.
    """
    cfg = pl.cfg
    dtype = draw.h_a.dtype
    n_i = cfg.n1 if i == 1 else cfg.n2
    nrows = n_i * pl.mu_n
    if i == 1:
        own = [channel_mod.apply(draw, ("a", j), ps.v[f"a{j}"])
               for j in range(1, cfg.la + 1)]
        aligned, p_shared, cross_label = pl.need_align_bs1, ps.p21, "b2"
    else:
        own = [channel_mod.apply(draw, ("c", j), ps.v[f"c{j}"])
               for j in range(1, cfg.lc + 1)]
        aligned, p_shared, cross_label = pl.need_align_bs2, ps.p11, "b1"
    bsig = [channel_mod.apply(draw, ("b", i, j), ps.v[f"b{i}_{j}"])
            for j in range(1, cfg.lb + 1)]

    a_block = _hcat(own, nrows, dtype)
    b_block = _hcat(bsig, nrows, dtype)

    if aligned:
        beta = pl.beta(3 - i)
        tails = [channel_mod.apply(draw, ("b", i, j),
                                   ps.q[f"{cross_label}_{j}"])
                 for j in beta[:-1]]
        shared = [channel_mod.apply(draw, ("b", i, j), p_shared)
                  for j in beta]
        c_block = _hcat(tails + shared, nrows, dtype)
    else:
        cross = [channel_mod.apply(draw, ("b", i, j),
                                   ps.v[f"{cross_label}_{j}"])
                 for j in range(1, cfg.lb + 1)]
        c_block = _hcat(cross, nrows, dtype)

    assembled = _hcat([a_block, b_block, c_block], nrows, dtype)
    if assembled.shape[1] > nrows:
        raise TallnessViolated(
            f"BS {i}: {assembled.shape[1]} columns > {nrows} rows")
    return LambdaParts(i=i, a_block=a_block, b_block=b_block,
                       c_block=c_block, assembled=assembled)


def check_lambda(parts: LambdaParts) -> dict:
    rows, cols = parts.assembled.shape
    if cols == 0:
        return {"rows": rows, "cols": 0, "rank": 0, "full": True}
    r = numerics.rank(parts.assembled)
    return {"rows": rows, "cols": cols, "rank": r, "full": r == cols}


def expected_ratio(pl: AlignmentPlan, mid: str) -> Fraction:
    """Closed-form achieved/target ratio for one message at this n."""
    n = pl.n
    base = Fraction(n, n + 1)
    if mid.startswith("b1_") and int(mid[3:]) in pl.s1:
        return base ** pl.gamma1
    if mid.startswith("b2_") and int(mid[3:]) in pl.s2:
        return base ** pl.gamma2
    return base ** (pl.gamma1 + pl.gamma2)


def _bar_dofs(pl: AlignmentPlan, ps: PrecoderSet) -> tuple[int, ...]:
    return tuple(ps.v[mid].shape[1] for mid in precoder.message_ids(pl.cfg))


def achieved_dof(pl: AlignmentPlan, ps: PrecoderSet, d: DofPoint) -> dict:
    """Per-message achieved DoF over the expanded block, as exact rationals."""
    return _achieved(pl.cfg, d, pl.mu_n, _bar_dofs(pl, ps))


def _achieved(cfg: SigmaConfig, d: DofPoint, mu_n: int, bars) -> dict:
    out = {}
    total = Fraction(0)
    for mid, bar, target in zip(precoder.message_ids(cfg), bars,
                                d.as_vector(), strict=True):
        per_slot = Fraction(bar, mu_n)
        ratio = per_slot / target if target > 0 else Fraction(1)
        out[mid] = {"bar_dof": bar, "per_slot": per_slot,
                    "target": target, "ratio": ratio}
        total += per_slot
    return {"achieved": out, "sum_per_slot": total}


def lemma1_test(m: int, k: int, exponent_gen, seed: int, mode: str = "float",
                claim_valid: bool = True) -> bool:
    """Full-rank property of square monomial matrices with distinct row tuples.

    exponent_gen(m, k, rng) returns an integer (m, m, k) array: the
    exponent tuple of entry (i, j).  Row distinctness (no two columns in
    the same row sharing the full exponent tuple) is checked against
    claim_valid.  Returns whether the realized matrix has rank m.
    """
    rng = np.random.default_rng(seed)
    alphas = np.asarray(exponent_gen(m, k, rng), dtype=int)
    if alphas.shape != (m, m, k):
        raise InvalidGenerator(f"exponent array shape {alphas.shape}")
    rows_distinct = all(
        len({tuple(alphas[i, j]) for j in range(m)}) == m for i in range(m))
    if claim_valid and not rows_distinct:
        raise InvalidGenerator("duplicate exponent tuple within a row")
    x = channel_mod._draw_block(rng, 1, m, k, mode)[0]   # (m, k) variables
    a = np.prod(x[:, None, :] ** alphas, axis=-1)
    return numerics.rank(a) == m


def run_certified(cfg: SigmaConfig, d: DofPoint, n: int,
                  seed: int) -> VerificationReport:
    """Float run, with any float failure decided by a prime-field rerun.

    A float pass returns at once.  Large monomial exponents make the float
    rank checks pessimistic, so a float failure is rerun from the same
    seed in modp mode, over F_P with P = 2**31 - 1, and the modp report is
    returned; its ``mode`` says so.

    The modp verdict is a certificate.  After clearing the Cramer
    denominators of the T diagonals, every minor the checks test is a
    polynomial with integer coefficients in the channel and random
    beamformer entries.  A pass finds one such minor nonzero at a point of
    F_P, so the polynomial is not identically zero, and the matrices have
    full rank for almost every real channel, the paper's claim.  A fail of
    a generically full-rank construction is a bad draw, with probability
    at most deg/(P - 1) by Schwartz-Zippel (below 3e-5 for S1 up to n = 6
    and BIG up to n = 2; README, "Numeric modes"), or P divides every
    coefficient of those minors.  So a modp fail is evidence, not proof.
    """
    report = run_experiment(cfg, d, n, seed, "float")
    if report.passed:
        return report
    return run_experiment(cfg, d, n, seed, "modp")


def random_valid_exponents(m, k, rng):
    """Random exponents with distinct tuples in every row.

    Each row's m tuples are a random sample (without replacement) from
    {0..hi}^k with hi chosen so the pool comfortably exceeds m even at
    k = 1.
    """
    hi = max(4, m + 1)
    a = np.empty((m, m, k), dtype=int)
    for i in range(m):
        seen = set()
        for j in range(m):
            while True:
                t = tuple(int(v) for v in rng.integers(0, hi, size=k))
                if t not in seen:
                    seen.add(t)
                    a[i, j] = t
                    break
    return a


def vandermonde_exponents(m, k, rng):
    """Column j raises the first variable to the power j+1 (generalized
    Vandermonde after row scaling)."""
    a = np.zeros((m, m, k), dtype=int)
    for j in range(m):
        a[:, j, 0] = j + 1
    return a


def duplicate_column_exponents(m, k, rng):
    """Negative control: two identical exponent columns in every row."""
    a = random_valid_exponents(m, k, rng)
    if m >= 2:
        a[:, 1, :] = a[:, 0, :]
    return a


def run_experiment(cfg: SigmaConfig, d: DofPoint, n: int, seed: int,
                   mode: str = "float") -> VerificationReport:
    """Feasibility gate, plan, draw, construction, and every certification.

    A singular channel draw is retried with seed+1 up to three times; the
    retry count is reported.
    """
    result = region.check_point(cfg, d)
    if not result.feasible:
        labels = [c.label for c in result.violated]
        raise InfeasiblePoint(f"violated: {labels}")
    pl = precoder.plan(cfg, d, n)
    retries = 0
    last_err = None
    for attempt in range(4):
        use_seed = seed + attempt
        try:
            draw = channel_mod.draw(cfg, pl.mu_n, use_seed, mode)
            t_set = precoder.compute_t_set(draw, pl)
            ps = precoder.assemble(pl, d, draw, use_seed, t_set)
            break
        except SingularStack as e:
            last_err = e
            retries += 1
    else:
        raise RetriesExhausted(f"3 retries after seed {seed}: {last_err}")

    align = check_alignment(ps, t_set)
    pairwise_ok = check_pairwise(ps)
    l1 = check_lambda(build_lambda(1, draw, ps, pl))
    l2 = check_lambda(build_lambda(2, draw, ps, pl))
    passed = (align["alignment_ok"] and pairwise_ok
              and l1["full"] and l2["full"])
    return VerificationReport(
        alignment_ok=align["alignment_ok"],
        column_subset_ok=align["column_subset_ok"],
        pairwise_ok=pairwise_ok,
        alignment_checked=align["checked"],
        lambda1=l1, lambda2=l2,
        cfg=cfg, d=d, mu_n=pl.mu_n, bar_dofs=_bar_dofs(pl, ps),
        passed=passed, seed=use_seed, n=n, mode=mode, retries=retries)
