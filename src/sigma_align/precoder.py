"""Alignment-set selection, time-expansion sizing, and monomial precoders.

The shared group's messages form two sides: side o holds the messages
b{o}_j meant for BS o, which interfere at the other BS, i = 3 - o
(``AlignmentPlan.side``).  A side that aligns there has a set s_o, and
its beamformers are built from columns of two structured matrices,
``wide[o]`` and ``narrow[o]``.  Every structured column is a product of
powers of the diagonal T matrices at BS i, taken in (l, j) order and
applied to the all-ones vector; nesting of the exponent ranges is what
makes the alignment constraints hold by construction.  Each block of
``wide[o]`` takes every exponent from its n+1 values, so it is the
row-wise Kronecker product of one power table per T diagonal
(``build_p``).  ``narrow[o]`` drops each exponent's top value, so it is a
column subset of ``wide[o]``, picked by index arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import channel as channel_mod
from . import numerics, region
from .errors import (FloatOverflow, InconsistentPlan, InfeasiblePoint,
                     RankDeficientRandom)
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
    gamma_i counts the T pairs at BS i, and b_o the structured blocks of
    side o.
    """

    cfg: SigmaConfig
    s1: tuple[int, ...]
    s2: tuple[int, ...]
    delta1: int | None
    delta2: int | None
    gamma1: int
    gamma2: int
    mu0: int
    n: int
    mu_n: int
    b1: int
    b2: int

    def side(self, o: int) -> tuple[int, tuple[int, ...], int, int]:
        """Side o's aligning BS i = 3 - o, its set s_o, b_o and gamma_i."""
        if o == 1:
            return 2, self.s1, self.b1, self.gamma2
        return 1, self.s2, self.b2, self.gamma1

    def beta(self, o: int) -> tuple[int, ...]:
        """s_o ordered with delta_o last (the order used for stacking)."""
        s = self.s1 if o == 1 else self.s2
        delta = self.delta1 if o == 1 else self.delta2
        return tuple(j for j in s if j != delta) + ((delta,) if s else ())


@dataclass
class PrecoderSet:
    """Each aligned side's structured matrices, and every beamformer."""

    plan: AlignmentPlan
    wide: dict[int, np.ndarray] = field(default_factory=dict)
    narrow: dict[int, np.ndarray] = field(default_factory=dict)
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
    Returns (s1, s2, delta1, delta2).
    """
    result = region.check_point(cfg, d)
    if not result.feasible:
        labels = [c.label for c in result.violated]
        raise InfeasiblePoint(f"violated: {labels}")
    sets, deltas = [], []
    for db, n_i in ((d.db1, cfg.n2), (d.db2, cfg.n1)):
        s = (tuple(j + 1 for j in region._top_k_subset(db, n_i))
             if cfg.lb > n_i else ())
        sets.append(s)
        deltas.append(_delta(db, s) if s else None)
    return (*sets, *deltas)


def plan(cfg: SigmaConfig, d: DofPoint, n: int) -> AlignmentPlan:
    """Size the time expansion and structured blocks for parameter n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    s1, s2, delta1, delta2 = select_sets(cfg, d)
    gamma1 = cfg.n1 * max(cfg.lb - cfg.n1, 0)
    gamma2 = cfg.n2 * max(cfg.lb - cfg.n2, 0)
    m0 = region.mu0(d)
    mu_n = m0 * (n + 1) ** (gamma1 + gamma2)
    b1 = int(m0 * n ** gamma1 * d.db1[delta1 - 1]) if delta1 else 0
    b2 = int(m0 * n ** gamma2 * d.db2[delta2 - 1]) if delta2 else 0
    return AlignmentPlan(cfg=cfg, s1=s1, s2=s2, delta1=delta1, delta2=delta2,
                         gamma1=gamma1, gamma2=gamma2, mu0=m0, n=n,
                         mu_n=mu_n, b1=b1, b2=b2)


def target_bar_dofs(pl: AlignmentPlan, d: DofPoint) -> dict[str, int]:
    """Integer per-message DoF targets over the mu_n expanded slots.

    Members of s_o keep the (n+1) factor on gamma_i, the exponent of the
    BS where side o aligns; every other message is scaled by n on both
    exponents, so all ratios to mu_n*d tend to 1 as n grows.
    """
    n, m0, g = pl.n, pl.mu0, pl.gamma1 + pl.gamma2
    full = m0 * n ** g
    out = {mid: int(full * x)
           for mid, x in zip(message_ids(pl.cfg), d.as_vector(), strict=True)}
    for o, db in ((1, d.db1), (2, d.db2)):
        _, s, _, gamma_i = pl.side(o)
        for j in s:
            out[f"b{o}_{j}"] = int(
                m0 * n ** (g - gamma_i) * (n + 1) ** gamma_i * db[j - 1])
    return out


def build_p(t_diags: np.ndarray, b: int, n: int) -> np.ndarray:
    """Structured matrix of b blocks over the T diagonals, the rows of t_diags.

    Column (m, alpha) is prod over pairs k of diag(T_k)^alpha_k applied to
    1, with every alpha_k in block m's range {m(n+1)+1, ..., (m+1)(n+1)}:
    n+1 values per pair, abutting the next block's, so distinct columns are
    distinct monomials.  With diagonal T the monomials are evaluated
    entrywise, in the array type of the diagonals.  Each diagonal is raised
    once to every exponent 1..b(n+1), its power table, split into b blocks
    of n+1 columns; block m is the row-wise Kronecker product of the
    tables' blocks m, multiplied in (l, j) order.  Columns run
    lexicographically over (m, alpha), the first pair's exponent outermost.
    The matrix is returned column-major, the layout on which the alignment
    check's column matching and stacking run fastest.  Float powers that
    leave float64's range raise FloatOverflow, which names n and mu_n.
    """
    mu_n = t_diags.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        tables = [(t[:, None] ** np.arange(1, b * (n + 1) + 1)).reshape(
            mu_n, b, n + 1) for t in t_diags]
        out = tables[0]
        for table in tables[1:]:
            out = (out[..., :, None] * table[..., None, :]).reshape(
                mu_n, b, out.shape[-1] * (n + 1))
    if not numerics._finite(out):
        raise FloatOverflow(
            f"float monomials overflow at n = {n}, mu_n = {mu_n}: the "
            f"structured matrix holds inf or nan")
    return out.reshape(mu_n, -1).copy(order="F")


def _narrow_columns(b: int, n: int, gamma: int) -> np.ndarray:
    """Mask of the wide columns whose every exponent is below its block's
    top value: the columns of the narrow matrix, in wide order."""
    below_top = np.indices((n + 1,) * gamma).reshape(gamma, -1) < n
    return np.tile(below_top.all(0), b)


def _random_full_rank(rng, mu_n, ncols, mode, what):
    """Random bounded matrix, full column rank checked with one retry."""
    for _ in range(2):
        m = channel_mod._draw_block(rng, 1, mu_n, max(ncols, 1),
                                    mode)[0][:, :ncols]
        if ncols == 0 or numerics.rank(m) == ncols:
            return m
    raise RankDeficientRandom(what)


def compute_t_set(draw: channel_mod.ChannelDraw,
                  pl: AlignmentPlan) -> dict[int, np.ndarray]:
    """T diagonals at each BS that aligns, keyed by BS, one row per pair.

    At BS i = 3 - o, T_(l, j) relates shared user j outside s_o to the
    l-th member of the stack of beta(o).  ``channel.compute_t`` solves for
    every such j at once; rows run over pairs (l, j) with l outer.
    """
    t_set = {}
    for o in (1, 2):
        i, s, _, _ = pl.side(o)
        if s:
            outside = [j for j in range(1, pl.cfg.lb + 1) if j not in s]
            t_set[i] = channel_mod.compute_t(draw, i, outside, pl.beta(o))
    return t_set


def assemble(pl: AlignmentPlan, d: DofPoint, draw: channel_mod.ChannelDraw,
             seed: int, t_set: dict[int, np.ndarray]) -> PrecoderSet:
    """Build the structured matrices and every message's beamformer.

    Set members get [structured block | random tail]; out-of-set shared
    users get a random column subset of the narrow structured matrix;
    the shared users of a side that does not align, and single-cell
    users, get fully random beamformers.  The minimal-DoF set member's
    beamformer is the structured block itself, bit for bit.
    """
    if draw.mu_n != pl.mu_n:
        raise InconsistentPlan("channel draw length != planned expansion")
    mode = draw.mode
    rng = np.random.default_rng(seed)
    bars = target_bar_dofs(pl, d)
    ps = PrecoderSet(plan=pl)

    def random_v(mid):
        ps.v[mid] = _random_full_rank(rng, pl.mu_n, bars[mid], mode, mid)

    for o in (1, 2):
        i, s, b, gamma = pl.side(o)
        if s:
            ps.wide[o] = build_p(t_set[i], b, pl.n)
            ps.narrow[o] = ps.wide[o][:, _narrow_columns(b, pl.n, gamma)]
        for j in range(1, pl.cfg.lb + 1):
            mid = f"b{o}_{j}"
            bar = bars[mid]
            if not s:
                random_v(mid)
            elif j in s:
                shared = ps.wide[o]
                q_cols = bar - shared.shape[1]
                if q_cols < 0:
                    raise InconsistentPlan(f"{mid}: target below shared block")
                q = _random_full_rank(rng, pl.mu_n, q_cols, mode, mid)
                ps.q[mid] = q
                ps.v[mid] = shared if q_cols == 0 else np.hstack([shared, q])
            else:
                pool = ps.narrow[o]
                if bar > pool.shape[1]:
                    raise InconsistentPlan(f"{mid}: pool too small")
                pick = np.sort(rng.choice(pool.shape[1], size=bar,
                                          replace=False))
                ps.v[mid] = pool[:, pick]
    for mid in message_ids(pl.cfg):
        if mid not in ps.v:
            random_v(mid)
    return ps
