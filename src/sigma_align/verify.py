"""Certification of the alignment construction by rank checks.

Decodability at infinite SNR reduces to linear algebra: every aligned
column must literally reappear in the target structured matrix, each
shared user's two beamformers must be jointly full rank, and the stacked
signal-plus-interference matrix at each BS must have full column rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import channel as channel_mod
from . import numerics, precoder
from .errors import (FloatOverflow, InvalidGenerator, RetriesExhausted,
                     SigmaAlignError, SingularStack, TallnessViolated)
from .precoder import AlignmentPlan, PrecoderSet
from .region import DofPoint, SigmaConfig


@dataclass
class LambdaParts:
    """The stacked signal-plus-interference matrix at one BS, as its
    column blocks: ``terms`` lists (channel path, matrix) pairs, each the
    block ``channel.apply(draw, path, matrix)``, in column order, ``ka``
    and ``kb`` end the signal and shared-signal blocks, and ``shape`` is
    the matrix's.

    ``assembled``, the matrix, is built on first access and then kept;
    ``a_block``, ``b_block`` and ``c_block`` are views of it.
    """

    i: int
    draw: channel_mod.ChannelDraw
    terms: list
    ka: int
    kb: int
    shape: tuple[int, int]

    @cached_property
    def assembled(self) -> np.ndarray:
        out = np.empty_like(self.draw.h_a, shape=self.shape)
        start = 0
        for path, m in self.terms:
            stop = start + m.shape[1]
            channel_mod.apply(self.draw, path, m, out=out[:, start:stop])
            start = stop
        return out

    @property
    def a_block(self) -> np.ndarray:
        return self.assembled[:, :self.ka]

    @property
    def b_block(self) -> np.ndarray:
        return self.assembled[:, self.ka:self.kb]

    @property
    def c_block(self) -> np.ndarray:
        return self.assembled[:, self.kb:]


@dataclass(slots=True)
class VerificationReport:
    """What one run checked, and the DoF its construction achieves.

    A report keeps counts, not dicts: ``lambda_counts`` holds Λ1's rows,
    columns and rank, then Λ2's, and ``bar_dofs`` each message's column
    count, in ``precoder.message_ids`` order.  ``lambda1``, ``lambda2``,
    ``achieved`` and ``sum_per_slot`` are built from them on each read,
    so a report that is kept but not read holds no dicts.
    """

    alignment_ok: bool
    column_subset_ok: bool
    pairwise_ok: bool
    alignment_checked: int
    lambda_counts: tuple[int, ...]
    cfg: SigmaConfig
    d: DofPoint
    mu_n: int
    bar_dofs: tuple[int, ...]
    passed: bool
    seed: int
    n: int
    mode: str
    retries: int

    @property
    def lambda1(self) -> dict:
        return _lambda_dict(*self.lambda_counts[:3])

    @property
    def lambda2(self) -> dict:
        return _lambda_dict(*self.lambda_counts[3:])

    @property
    def achieved(self) -> dict:
        return self._dof()["achieved"]

    @property
    def sum_per_slot(self) -> Fraction:
        return self._dof()["sum_per_slot"]

    def _dof(self) -> dict:
        return _achieved(self.cfg, self.d, self.mu_n, self.bar_dofs)

    def to_dict(self) -> dict:
        def frac(x):
            return f"{x.numerator}/{x.denominator}"
        dof = self._dof()
        achieved = {
            mid: {"bar_dof": a["bar_dof"],
                  "per_slot": frac(a["per_slot"]),
                  "per_slot_decimal": float(a["per_slot"]),
                  "target": frac(a["target"]),
                  "ratio": frac(a["ratio"])}
            for mid, a in dof["achieved"].items()}
        return {
            "alignment_ok": self.alignment_ok,
            "column_subset_ok": self.column_subset_ok,
            "pairwise_ok": self.pairwise_ok,
            "alignment_checked": self.alignment_checked,
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "achieved": achieved,
            "sum_per_slot": frac(dof["sum_per_slot"]),
            "sum_per_slot_decimal": float(dof["sum_per_slot"]),
            "pass": self.passed,
            "seed": self.seed,
            "n": self.n,
            "mode": self.mode,
            "retries": self.retries,
        }


def check_alignment(ps: PrecoderSet, t_set: dict) -> dict:
    """Verify every alignment constraint, in both span and column form.

    For each side o that aligns, at BS i, and each T diagonal at BS i,
    diag(T) times ``narrow[o]`` must land inside (and, column by column,
    literally within) ``wide[o]``.  Vacuously true when no side aligns.
    ``numerics.aligned_within`` ranks each wide matrix once per side, and
    in exact modes skips the span ranks wherever the columns match.
    """
    sides = []
    for o, wide in ps.wide.items():
        i = ps.plan.side(o)[0]
        sides.append((wide, [t[:, None] * ps.narrow[o] for t in t_set[i]]))
    span_ok, subset_ok = numerics.aligned_within(sides)
    return {"alignment_ok": span_ok, "column_subset_ok": subset_ok,
            "checked": sum(len(moved) for _, moved in sides)}


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


def build_lambda(i: int, draw: channel_mod.ChannelDraw, ps: PrecoderSet,
                 pl: AlignmentPlan) -> LambdaParts:
    """Assemble the signal-plus-interference matrix at BS i.

    Signal blocks are each desired message's expanded channel times its
    beamformer.  With alignment on, the interference block is each set
    member's expanded channel applied to its random tail (all members but
    the anchor, which is last), then to the wide structured matrix; this
    is the square channel stack applied to the block-diagonal tails and to
    N_i copies of the wide matrix.  With alignment off it is the plain
    cross-message columns.  The cross messages are those of side o, the
    side that ``AlignmentPlan.side`` pairs with BS i.

    Nothing is multiplied here: the parts record each block's path and
    matrix, and the matrix is assembled only when ``assembled`` is first
    read.  It is then allocated once, in the draw's dtype, and each
    product is written straight into its column slice; the three blocks
    are views of it.
    """
    cfg = pl.cfg
    n_i, own_group, own_count = ((cfg.n1, "a", cfg.la) if i == 1
                                 else (cfg.n2, "c", cfg.lc))
    nrows = n_i * pl.mu_n
    own = [((own_group, j), ps.v[f"{own_group}{j}"])
           for j in range(1, own_count + 1)]
    bsig = [(("b", i, j), ps.v[f"b{i}_{j}"]) for j in range(1, cfg.lb + 1)]

    o = next(o for o in (1, 2) if pl.side(o)[0] == i)
    if o in ps.wide:
        beta = pl.beta(o)
        cross = ([(("b", i, j), ps.q[f"b{o}_{j}"]) for j in beta[:-1]]
                 + [(("b", i, j), ps.wide[o]) for j in beta])
    else:
        cross = [(("b", i, j), ps.v[f"b{o}_{j}"])
                 for j in range(1, cfg.lb + 1)]

    ka = sum(m.shape[1] for _, m in own)
    kb = ka + sum(m.shape[1] for _, m in bsig)
    cols = kb + sum(m.shape[1] for _, m in cross)
    if cols > nrows:
        raise TallnessViolated(f"BS {i}: {cols} columns > {nrows} rows")
    return LambdaParts(i=i, draw=draw, terms=own + bsig + cross, ka=ka,
                       kb=kb, shape=(nrows, cols))


def check_lambda(parts: LambdaParts) -> dict:
    """Rows, columns and rank of Λ, and whether the rank is full.

    The rank is ``numerics.rank`` of the assembled matrix.  A large float
    Λ is first certified from its blocks' channel series and matrices
    (``numerics._slotwise_rank``), and is assembled only if that proof
    fails, for the SVD.
    """
    rows, cols = parts.shape
    if not cols:
        return _lambda_dict(rows, cols, 0)
    factors = [(channel_mod._series(parts.draw, path), m)
               for path, m in parts.terms]
    return _lambda_dict(rows, cols, numerics._slotwise_rank(
        factors, lambda: parts.assembled))


def _lambda_dict(rows: int, cols: int, rank: int) -> dict:
    return {"rows": rows, "cols": cols, "rank": rank, "full": rank == cols}


def expected_ratio(pl: AlignmentPlan, mid: str) -> Fraction:
    """Closed-form achieved/target ratio for one message at this n."""
    gamma = pl.gamma1 + pl.gamma2
    for o in (1, 2):
        _, s, _, gamma_i = pl.side(o)
        if mid.startswith(f"b{o}_") and int(mid[3:]) in s:
            gamma -= gamma_i   # a set member keeps the (n+1) factor at BS i
    return Fraction(pl.n, pl.n + 1) ** gamma


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
    if m < 1 or k < 1:
        raise SigmaAlignError(f"lemma1 needs m >= 1 and k >= 1, got m = {m},"
                              f" k = {k}")
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

    A float run that raises ``FloatOverflow`` (at large n the float
    monomials leave float64's range) or ``numpy.linalg.LinAlgError``
    counts as a float fail, and the modp rerun decides.
    """
    try:
        report = run_experiment(cfg, d, n, seed, "float")
    except (FloatOverflow, np.linalg.LinAlgError):
        pass
    else:
        if report.passed:
            return report
    return run_experiment(cfg, d, n, seed, "modp")


def random_valid_exponents(m, k, rng):
    """Random exponents with distinct tuples in every row.

    Each row's m tuples are a random sample (without replacement) from
    {0..hi}^k with hi chosen so the pool comfortably exceeds m even at
    k = 1.  k < 1 is an error: the pool would hold one tuple.
    """
    if k < 1:
        raise SigmaAlignError(f"random exponents need k >= 1, got m = {m},"
                              f" k = {k}")
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
    """Plan, draw, construction, and every certification.

    ``precoder.plan`` raises InfeasiblePoint for a point outside the
    region.  A singular channel draw is retried with seed+1 up to three
    times; the retry count is reported.
    """
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
        lambda_counts=(l1["rows"], l1["cols"], l1["rank"],
                       l2["rows"], l2["cols"], l2["rank"]),
        cfg=cfg, d=d, mu_n=pl.mu_n, bar_dofs=_bar_dofs(pl, ps),
        passed=passed, seed=use_seed, n=n, mode=mode, retries=retries)
