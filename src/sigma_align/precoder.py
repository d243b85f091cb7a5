"""Alignment-set selection, time-expansion sizing, and monomial precoders.

The shared group's beamformers toward each BS are built from columns of
four structured matrices (two per BS).  Every structured column is a
product of powers of diagonal T matrices applied to the all-ones vector,
indexed by an exponent tuple; nesting of the exponent ranges is what makes
the alignment constraints hold by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import channel as channel_mod
from . import numerics, region
from .errors import (InconsistentPlan, InfeasiblePoint, RankDeficientRandom)
from .region import DofPoint, SigmaConfig


def message_ids(cfg: SigmaConfig) -> list[str]:
    """Message ids in DoF-vector order: a_j, b1_j, b2_j, c_j (1-based)."""
    return ([f"a{j}" for j in range(1, cfg.la + 1)]
            + [f"b1_{j}" for j in range(1, cfg.lb + 1)]
            + [f"b2_{j}" for j in range(1, cfg.lb + 1)]
            + [f"c{j}" for j in range(1, cfg.lc + 1)])


@dataclass(frozen=True)
class AlignmentPlan:
    """Everything sized before any channel is drawn.

    s1/s2 are the alignment sets (1-based user indices) whose cross
    messages are allowed to span the interference space at BS 2 / BS 1;
    they are empty tuples when the corresponding side needs no alignment.
    delta1/delta2 are the smallest-index minimal-DoF members of s1/s2.
    """

    cfg: SigmaConfig
    s1: tuple[int, ...]
    s2: tuple[int, ...]
    delta1: int | None
    delta2: int | None
    need_align_bs1: bool   # lb > n1: alignment performed at BS 1
    need_align_bs2: bool   # lb > n2: alignment performed at BS 2
    gamma1: int
    gamma2: int
    mu0: int
    n: int
    mu_n: int
    b1: int   # structured block count for BS-1 messages (0 if s1 unused)
    b2: int

    def beta(self, i: int) -> tuple[int, ...]:
        """s_i ordered with delta_i last (the order used for stacking)."""
        s = self.s1 if i == 1 else self.s2
        delta = self.delta1 if i == 1 else self.delta2
        return tuple(j for j in s if j != delta) + ((delta,) if s else ())


@dataclass(frozen=True)
class ExponentTuple:
    """One structured column: block index m plus one exponent per (l, j) pair."""

    m: int
    alphas: tuple[int, ...]


@dataclass
class PrecoderSet:
    """The four structured matrices plus every message's beamformer."""

    plan: AlignmentPlan
    p11: np.ndarray | None
    p12: np.ndarray | None
    p21: np.ndarray | None
    p22: np.ndarray | None
    tuples11: list[ExponentTuple] = field(default_factory=list)
    tuples12: list[ExponentTuple] = field(default_factory=list)
    tuples21: list[ExponentTuple] = field(default_factory=list)
    tuples22: list[ExponentTuple] = field(default_factory=list)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    q: dict[str, np.ndarray] = field(default_factory=dict)


def _delta(values, s_set) -> int:
    lo = min(values[j - 1] for j in s_set)
    return min(j for j in s_set if values[j - 1] == lo)


def select_sets(cfg: SigmaConfig, d: DofPoint):
    """Pick the alignment sets and their minimal-DoF anchors.

    s2 holds the n1 shared-group users with the largest DoF toward BS 2
    (their cross messages span the interference space at BS 1); mirrored
    for s1.  A side whose group fits within the antennas needs no set.
    """
    if not region.check_point(cfg, d).feasible:
        raise InfeasiblePoint("DoF point outside the region")
    need1 = cfg.lb > cfg.n1
    need2 = cfg.lb > cfg.n2
    s2 = tuple(j + 1 for j in region._top_k_subset(d.db2, cfg.n1)) \
        if need1 else ()
    s1 = tuple(j + 1 for j in region._top_k_subset(d.db1, cfg.n2)) \
        if need2 else ()
    delta2 = _delta(d.db2, s2) if s2 else None
    delta1 = _delta(d.db1, s1) if s1 else None
    return s1, s2, delta1, delta2, need1, need2


def plan(cfg: SigmaConfig, d: DofPoint, n: int) -> AlignmentPlan:
    """Size the time expansion and structured blocks for parameter n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    s1, s2, delta1, delta2, need1, need2 = select_sets(cfg, d)
    gamma1 = cfg.n1 * max(cfg.lb - cfg.n1, 0)
    gamma2 = cfg.n2 * max(cfg.lb - cfg.n2, 0)
    m0 = region.mu0(d)
    mu_n = m0 * (n + 1) ** (gamma1 + gamma2)
    b1 = int(m0 * n ** gamma1 * d.db1[delta1 - 1]) if delta1 else 0
    b2 = int(m0 * n ** gamma2 * d.db2[delta2 - 1]) if delta2 else 0
    return AlignmentPlan(cfg=cfg, s1=s1, s2=s2, delta1=delta1, delta2=delta2,
                         need_align_bs1=need1, need_align_bs2=need2,
                         gamma1=gamma1, gamma2=gamma2, mu0=m0, n=n,
                         mu_n=mu_n, b1=b1, b2=b2)


def target_bar_dofs(pl: AlignmentPlan, d: DofPoint) -> dict[str, int]:
    """Integer per-message DoF targets over the mu_n expanded slots.

    Set members keep the (n+1) factor on their own side's exponent; every
    other message is scaled by n on both, so all ratios to mu_n*d tend
    to 1 as n grows.
    """
    n, g1, g2, m0 = pl.n, pl.gamma1, pl.gamma2, pl.mu0
    full = m0 * n ** (g1 + g2)
    out = {}
    cfg = pl.cfg
    for j in range(1, cfg.la + 1):
        out[f"a{j}"] = int(full * d.da[j - 1])
    for j in range(1, cfg.lb + 1):
        if j in pl.s1:
            out[f"b1_{j}"] = int(m0 * n ** g1 * (n + 1) ** g2 * d.db1[j - 1])
        else:
            out[f"b1_{j}"] = int(full * d.db1[j - 1])
        if j in pl.s2:
            out[f"b2_{j}"] = int(m0 * (n + 1) ** g1 * n ** g2 * d.db2[j - 1])
        else:
            out[f"b2_{j}"] = int(full * d.db2[j - 1])
    for j in range(1, cfg.lc + 1):
        out[f"c{j}"] = int(full * d.dc[j - 1])
    return out


def exponent_tuples(b: int, n: int, gamma: int, form: str) -> list[ExponentTuple]:
    """All exponent tuples for b structured blocks over gamma (l, j) pairs.

    Per block m, each pair's exponent ranges over {mn+m+1, ..., (m+1)n+m+1}
    (wide form, n+1 values) or the same range minus its last element
    (narrow form, n values).  Consecutive blocks use disjoint ranges, so
    distinct tuples always give distinct monomials.  Ordering is
    lexicographic over (m, exponent vector).
    """
    if form not in ("wide", "narrow"):
        raise ValueError(f"unknown form {form!r}")
    hi_extra = 1 if form == "wide" else 0
    out = []
    for m in range(b):
        lo = m * n + m + 1
        hi = (m + 1) * n + m + hi_extra   # inclusive
        ranges = [range(lo, hi + 1)] * gamma
        for alphas in itertools.product(*ranges):
            out.append(ExponentTuple(m=m, alphas=alphas))
    return out


def build_p(t_diags, tuples, mu_n: int) -> np.ndarray:
    """Structured matrix: column k = prod over pairs diag(T)^alpha applied to 1.

    t_diags is the ordered list of T diagonals, one per (l, j) pair,
    matching the alpha ordering of the tuples.  With diagonal T the
    monomials are evaluated entrywise, in the dtype of the diagonals.
    """
    gamma = len(t_diags)
    if any(len(tup.alphas) != gamma for tup in tuples):
        raise InconsistentPlan("exponent tuple arity != number of T pairs")
    alphas = np.reshape([tup.alphas for tup in tuples], (len(tuples), gamma))
    x = np.reshape(t_diags, (gamma, mu_n)).T   # gamma = 0: columns of ones
    return np.prod(x[:, None, :] ** alphas, axis=-1)


def _random_full_rank(rng, mu_n, ncols, mode, what):
    """Random bounded matrix, full column rank checked with one retry."""
    for _ in range(2):
        m = channel_mod._draw_block(rng, 1, mu_n, max(ncols, 1),
                                    mode)[0][:, :ncols]
        if ncols == 0 or numerics.rank(m) == ncols:
            return m
    raise RankDeficientRandom(what)


@dataclass
class TSet:
    """T diagonals per side, keyed by (l, j): 1-based pair index and user."""

    # bs1[(l, j)]: T_l for user j not in s2, used for alignment at BS 1
    bs1: dict[tuple[int, int], np.ndarray]
    bs2: dict[tuple[int, int], np.ndarray]

    def pairs(self, i: int) -> list[tuple[int, int]]:
        d = self.bs1 if i == 1 else self.bs2
        return sorted(d.keys())


def compute_t_set(draw: channel_mod.ChannelDraw, pl: AlignmentPlan) -> TSet:
    """All T diagonals needed by the construction (may be empty per side)."""
    bs1, bs2 = {}, {}
    if pl.need_align_bs1:
        for j in range(1, pl.cfg.lb + 1):
            if j in pl.s2:
                continue
            blocks = channel_mod.compute_t(draw, 1, j, pl.beta(2))
            for l, blk in enumerate(blocks, start=1):
                bs1[(l, j)] = blk
    if pl.need_align_bs2:
        for j in range(1, pl.cfg.lb + 1):
            if j in pl.s1:
                continue
            blocks = channel_mod.compute_t(draw, 2, j, pl.beta(1))
            for l, blk in enumerate(blocks, start=1):
                bs2[(l, j)] = blk
    return TSet(bs1=bs1, bs2=bs2)


def assemble(pl: AlignmentPlan, d: DofPoint, draw: channel_mod.ChannelDraw,
             seed: int, t_set: TSet | None = None) -> PrecoderSet:
    """Build the structured matrices and every message's beamformer.

    Set members get [structured block | random tail]; out-of-set shared
    users get a random column subset of the narrow structured matrix;
    single-cell users get fully random beamformers.  The minimal-DoF set
    member's beamformer is the structured block itself, bit for bit.
    """
    if draw.mu_n != pl.mu_n:
        raise InconsistentPlan("channel draw length != planned expansion")
    mode = draw.mode
    rng = np.random.default_rng(seed)
    if t_set is None:
        t_set = compute_t_set(draw, pl)
    bars = target_bar_dofs(pl, d)
    ps = PrecoderSet(plan=pl, p11=None, p12=None, p21=None, p22=None)

    # Structured matrices.  p21/p22 are built from the BS-1 T matrices
    # (they shape the interference seen at BS 1), and vice versa.
    if pl.need_align_bs2:   # s1 exists; p11/p12 built from BS-2 pairs
        diags = [t_set.bs2[p] for p in t_set.pairs(2)]
        ps.tuples11 = exponent_tuples(pl.b1, pl.n, pl.gamma2, "wide")
        ps.tuples12 = exponent_tuples(pl.b1, pl.n, pl.gamma2, "narrow")
        ps.p11 = build_p(diags, ps.tuples11, pl.mu_n)
        ps.p12 = build_p(diags, ps.tuples12, pl.mu_n)
    if pl.need_align_bs1:   # s2 exists; p21/p22 built from BS-1 pairs
        diags = [t_set.bs1[p] for p in t_set.pairs(1)]
        ps.tuples21 = exponent_tuples(pl.b2, pl.n, pl.gamma1, "wide")
        ps.tuples22 = exponent_tuples(pl.b2, pl.n, pl.gamma1, "narrow")
        ps.p21 = build_p(diags, ps.tuples21, pl.mu_n)
        ps.p22 = build_p(diags, ps.tuples22, pl.mu_n)

    def structured_side(i, s, p_shared, p_pool):
        for j in range(1, pl.cfg.lb + 1):
            mid = f"b{i}_{j}"
            bar = bars[mid]
            if j in s:
                q_cols = bar - p_shared.shape[1]
                if q_cols < 0:
                    raise InconsistentPlan(f"{mid}: target below shared block")
                q = _random_full_rank(rng, pl.mu_n, q_cols, mode, mid)
                ps.q[mid] = q
                ps.v[mid] = p_shared if q_cols == 0 else np.hstack([p_shared, q])
            else:
                if bar > p_pool.shape[1]:
                    raise InconsistentPlan(f"{mid}: pool too small")
                pick = np.sort(rng.choice(p_pool.shape[1], size=bar,
                                          replace=False))
                ps.v[mid] = p_pool[:, pick]

    def random_side(i):
        for j in range(1, pl.cfg.lb + 1):
            mid = f"b{i}_{j}"
            ps.v[mid] = _random_full_rank(rng, pl.mu_n, bars[mid], mode, mid)

    if pl.need_align_bs2:
        structured_side(1, pl.s1, ps.p11, ps.p12)
    else:
        random_side(1)
    if pl.need_align_bs1:
        structured_side(2, pl.s2, ps.p21, ps.p22)
    else:
        random_side(2)

    for j in range(1, pl.cfg.la + 1):
        mid = f"a{j}"
        ps.v[mid] = _random_full_rank(rng, pl.mu_n, bars[mid], mode, mid)
    for j in range(1, pl.cfg.lc + 1):
        mid = f"c{j}"
        ps.v[mid] = _random_full_rank(rng, pl.mu_n, bars[mid], mode, mid)
    return ps
