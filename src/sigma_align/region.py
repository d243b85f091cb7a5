"""Exact representation of the two-base-station uplink DoF polytope.

The region over the L = la + 2*lb + lc per-message DoF variables is cut
out by per-message bounds, per-user pair bounds, and two families of
multiple-access cuts indexed by subsets of the shared group.  Everything
here is exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatch, SubsetExplosion

# subset cuts per BS past which enumerate_constraints raises SubsetExplosion
_SUBSET_CAP = 2 ** 20


@dataclass(frozen=True)
class SigmaConfig:
    """Network shape: BS antenna counts and the three group sizes."""

    n1: int
    n2: int
    la: int
    lb: int
    lc: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("each base station needs at least one antenna")
        if min(self.la, self.lb, self.lc) < 0:
            raise ValueError("group sizes must be nonnegative")
        if self.num_messages < 1:
            raise ValueError("at least one message is required")

    @property
    def num_messages(self) -> int:
        return self.la + 2 * self.lb + self.lc

    def mirrored(self) -> "SigmaConfig":
        """Swap the roles of the two base stations."""
        return SigmaConfig(self.n2, self.n1, self.lc, self.lb, self.la)


@dataclass(frozen=True)
class DofPoint:
    """Per-message DoF targets, exact rationals, ordered (A, B->1, B->2, C)."""

    da: tuple[Fraction, ...]
    db1: tuple[Fraction, ...]
    db2: tuple[Fraction, ...]
    dc: tuple[Fraction, ...]

    def __post_init__(self):
        for group in (self.da, self.db1, self.db2, self.dc):
            for x in group:
                if not isinstance(x, Fraction):
                    raise TypeError("DoF entries must be Fractions")
                if x < 0:
                    raise ValueError("DoF entries must be nonnegative")
        if len(self.db1) != len(self.db2):
            raise ValueError("db1 and db2 must have equal length")

    @classmethod
    def make(cls, da=(), db1=(), db2=(), dc=()) -> "DofPoint":
        conv = lambda xs: tuple(Fraction(x) for x in xs)
        return cls(conv(da), conv(db1), conv(db2), conv(dc))

    def as_vector(self) -> tuple[Fraction, ...]:
        return self.da + self.db1 + self.db2 + self.dc

    def matches(self, cfg: SigmaConfig) -> bool:
        return (len(self.da) == cfg.la and len(self.db1) == cfg.lb
                and len(self.dc) == cfg.lc)

    def scaled(self, t: Fraction) -> "DofPoint":
        t = Fraction(t)
        s = lambda xs: tuple(t * x for x in xs)
        return DofPoint(s(self.da), s(self.db1), s(self.db2), s(self.dc))

    def mirrored(self) -> "DofPoint":
        return DofPoint(self.dc, self.db2, self.db1, self.da)


@dataclass(frozen=True)
class Constraint:
    """One inequality coeffs . d <= bound with 0/1 coefficients."""

    coeffs: tuple[Fraction, ...]
    bound: Fraction
    label: str

    def value(self, vec: tuple[Fraction, ...]) -> Fraction:
        if len(vec) != len(self.coeffs):
            raise DimensionMismatch(
                f"point has {len(vec)} entries, constraint {len(self.coeffs)}")
        return sum((c * x for c, x in zip(self.coeffs, vec)), Fraction(0))

    def holds(self, vec: tuple[Fraction, ...]) -> bool:
        return self.value(vec) <= self.bound


@dataclass
class CheckResult:
    feasible: bool
    violated: list[Constraint] = field(default_factory=list)


def _unit_coeffs(cfg: SigmaConfig, idxs) -> tuple[Fraction, ...]:
    v = [Fraction(0)] * cfg.num_messages
    for i in idxs:
        v[i] = Fraction(1)
    return tuple(v)


def _offsets(cfg: SigmaConfig):
    # vector layout: da | db1 | db2 | dc
    return 0, cfg.la, cfg.la + cfg.lb, cfg.la + 2 * cfg.lb


def _unit_bounds(cfg: SigmaConfig) -> list[tuple[list[int], str]]:
    """(indices, label) of each bound "sum <= 1": single messages of
    groups A and C, and the message pair of each group-B user."""
    oa, ob1, ob2, oc = _offsets(cfg)
    return ([([oa + j], f"single:a{j + 1}<=1") for j in range(cfg.la)]
            + [([ob1 + j, ob2 + j], f"pair:b{j + 1}<=1")
               for j in range(cfg.lb)]
            + [([oc + j], f"single:c{j + 1}<=1") for j in range(cfg.lc)])


def _mac_families(cfg: SigmaConfig):
    """(bs, n_own, own_idxs, cross_offset) for each BS's MAC-cut family.

    BS 1 hears groups A and B->1 as its own messages and B->2 as cross
    messages; BS 2 mirrors it with C, B->2 and B->1.
    """
    oa, ob1, ob2, oc = _offsets(cfg)
    own1 = [oa + j for j in range(cfg.la)] + [ob1 + j for j in range(cfg.lb)]
    own2 = [oc + j for j in range(cfg.lc)] + [ob2 + j for j in range(cfg.lb)]
    return [(1, cfg.n1, own1, ob2), (2, cfg.n2, own2, ob1)]


def _mac_constraint(cfg: SigmaConfig, bs: int, n_own: int, own_idxs,
                    cross_offset: int, subset) -> Constraint:
    """The MAC cut at one BS: own messages plus the cross messages of the
    0-based shared-group subset J, bounded by the BS's antenna count."""
    idxs = own_idxs + [cross_offset + j for j in subset]
    label = "mac:bs%d:J={%s}" % (bs, ",".join(str(j + 1) for j in subset))
    return Constraint(_unit_coeffs(cfg, idxs), Fraction(n_own), label)


def enumerate_constraints(cfg: SigmaConfig) -> list[Constraint]:
    """The complete finite inequality list defining the region.

    Families: single-message bounds for groups A and C, pair bounds for
    group B, and for each BS i every subset J of the shared group with
    |J| <= min(N_i, lb) contributes one multiple-access cut (the empty
    subset included).
    """
    out = [Constraint(_unit_coeffs(cfg, idxs), Fraction(1), label)
           for idxs, label in _unit_bounds(cfg)]
    for bs, n_own, own_idxs, cross_offset in _mac_families(cfg):
        k_max = min(n_own, cfg.lb)
        n_subsets = sum(math.comb(cfg.lb, k) for k in range(k_max + 1))
        if n_subsets > _SUBSET_CAP:
            raise SubsetExplosion(
                f"{n_subsets} subsets for BS {bs} exceeds cap {_SUBSET_CAP}")
        for k in range(k_max + 1):
            for subset in itertools.combinations(range(cfg.lb), k):
                out.append(_mac_constraint(cfg, bs, n_own, own_idxs,
                                           cross_offset, subset))
    return out


def _top_k_sum(values, k) -> Fraction:
    return sum(sorted(values, reverse=True)[:k], Fraction(0))


def _top_k_subset(values, k):
    """Indices of the k largest values, smallest indices on ties."""
    order = sorted(range(len(values)), key=lambda j: (-values[j], j))
    return sorted(order[:k])


def check_point(cfg: SigmaConfig, d: DofPoint) -> CheckResult:
    """Exact membership test using the top-k shortcut for the subset cuts.

    Because all coefficients are nonnegative, each subset family is
    maximized by the subset of largest cross entries, so one comparison
    per BS suffices.  Violated constraints are reported with the
    maximizing subset's label.
    """
    if not d.matches(cfg):
        raise DimensionMismatch("DoF point does not match config shape")
    vec = d.as_vector()
    violated = [Constraint(_unit_coeffs(cfg, idxs), Fraction(1), label)
                for idxs, label in _unit_bounds(cfg)
                if sum(vec[j] for j in idxs) > 1]
    for bs, n_own, own_idxs, cross_offset in _mac_families(cfg):
        cross = vec[cross_offset:cross_offset + cfg.lb]
        k = min(n_own, cfg.lb)
        own_sum = sum((vec[j] for j in own_idxs), Fraction(0))
        if own_sum + _top_k_sum(cross, k) > n_own:
            violated.append(_mac_constraint(cfg, bs, n_own, own_idxs,
                                            cross_offset,
                                            _top_k_subset(cross, k)))
    return CheckResult(feasible=not violated, violated=violated)


def check_point_bruteforce(cfg: SigmaConfig, d: DofPoint) -> CheckResult:
    """Oracle: evaluate every enumerated constraint explicitly."""
    if not d.matches(cfg):
        raise DimensionMismatch("DoF point does not match config shape")
    vec = d.as_vector()
    violated = [c for c in enumerate_constraints(cfg) if not c.holds(vec)]
    return CheckResult(feasible=not violated, violated=violated)


def mu0(d: DofPoint) -> int:
    """Smallest positive integer whose multiple makes every entry integral."""
    dens = [x.denominator for x in d.as_vector()]
    return math.lcm(*dens) if dens else 1


def max_sum_dof(cfg: SigmaConfig, weights) -> tuple[Fraction, DofPoint]:
    """Exact maximum of a nonnegative weighted DoF sum over the region.

    Each MAC family own_sum + top_k(cross) <= N_i, k = min(N_i, lb),
    enters in the O(lb)-row LP form of the k largest sum (Ogryczak &
    Tamir, IPL 2003): auxiliary columns t, u_1..u_lb >= 0 with
    own_sum + k*t + sum_j u_j <= N_i and cross_j - t - u_j <= 0.  At any
    x the smallest feasible k*t + sum_j u_j is top_k(cross), so the
    projection onto the DoF variables is the region.  Solved by a rational
    simplex method; returns the optimum and one optimizing point.
    """
    weights = [Fraction(w) for w in weights]
    if len(weights) != cfg.num_messages:
        raise DimensionMismatch("weight vector length mismatch")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    value, x, _ = _simplex_max(*_top_k_lp(cfg, weights))
    oa, ob1, ob2, oc = _offsets(cfg)
    point = DofPoint(tuple(x[oa:oa + cfg.la]),
                     tuple(x[ob1:ob1 + cfg.lb]),
                     tuple(x[ob2:ob2 + cfg.lb]),
                     tuple(x[oc:oc + cfg.lc]))
    return value, point


def _top_k_lp(cfg: SigmaConfig, weights):
    """``max_sum_dof``'s LP as (a, b, c): maximize c.x, a x <= b, x >= 0.

    The DoF variables come first, then t, u_1..u_lb per MAC family.
    """
    n_x, lb = cfg.num_messages, cfg.lb
    families = _mac_families(cfg)
    n_cols = n_x + len(families) * (1 + lb)

    def row(idxs):
        r = [0] * n_cols
        for i in idxs:
            r[i] = 1
        return r

    a = [row(idxs) for idxs, _ in _unit_bounds(cfg)]
    b = [1] * len(a)
    for f, (_, n_own, own_idxs, cross_offset) in enumerate(families):
        t = n_x + f * (1 + lb)          # columns t, u_1..u_lb
        r = row(own_idxs + list(range(t + 1, t + 1 + lb)))
        r[t] = min(n_own, lb)
        a.append(r)
        b.append(n_own)
        for j in range(lb):
            r = row([cross_offset + j])
            r[t] = r[t + 1 + j] = -1
            a.append(r)
            b.append(0)
    return a, b, list(weights) + [0] * (n_cols - n_x)


def _simplex_max(a, b, c):
    """maximize c.x s.t. a x <= b, x >= 0, all rational, b >= 0.

    Dense tableau simplex with Bland's rule; exact Fractions throughout.
    The all-slack basis is feasible because every bound is nonnegative.
    Each pivot updates rows in place, only in the pivot row's nonzero
    columns.  Returns (value, x, y): y, read off the final objective row's
    slack columns, is an optimal dual, so y >= 0, y^T a >= c and
    y.b == value certify the optimum (LP duality).
    """
    m, n = len(a), len(c)
    # tableau rows: [a | I | b]; objective row: [-c | 0 | 0]
    tab = [[Fraction(a[i][j]) for j in range(n)]
           + [Fraction(1 if k == i else 0) for k in range(m)]
           + [Fraction(b[i])] for i in range(m)]
    obj = [-Fraction(cj) for cj in c] + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]
    total = n + m
    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        # Bland: smallest ratio, ties to smallest basis index
        leave, best = None, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise ValueError("objective unbounded (region should be bounded)")
        piv = tab[leave][enter]
        prow = tab[leave] = [x / piv for x in tab[leave]]
        # eliminate only where the pivot row is nonzero; elsewhere x - f*0
        # would leave the entry unchanged
        nz = [j for j, y in enumerate(prow) if y]
        for row in tab + [obj]:
            f = row[enter]
            if row is not prow and f:
                for j in nz:
                    row[j] -= f * prow[j]
        basis[leave] = enter
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][total]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return value, x, obj[n:total]
