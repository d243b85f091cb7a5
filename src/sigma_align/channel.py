"""Random time-varying channels, time expansion, and the diagonal T matrices.

A draw holds one bounded scalar per (user, antenna, slot).  Time expansion
turns each user's channel into a tall block-diagonal matrix H_tilde with
one channel vector per slot.  This module keeps that structure slot-wise
and never builds H_tilde: ``apply`` multiplies by it one slot at a time,
the stack of an alignment set's expanded channels is a (mu_n, N_i, N_i)
array of per-slot blocks, and each T matrix is its length-mu_n diagonal.
Whether that stack is invertible is decided once, by the solve for the T
diagonals (``numerics.solve_blocks``), in every mode.
Every product is elementwise numpy, so float64, Fraction and
``numerics.ModP`` arrays take the same code path.

This is where the arithmetic mode is chosen: ``_draw_block`` is the only
code that reads a mode, and the distribution it draws from fixes the dtype
of the draw and of everything computed from it.  Downstream code follows
the dtype; only ``numerics`` branches on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import numerics
from .errors import (DimensionMismatch, SingularStack, SlotCapExceeded,
                     UnknownPath)
from .region import SigmaConfig

RATIONAL_DEN = 64
RATIONAL_NUM_LO = 32
RATIONAL_NUM_HI = 128  # inclusive; support is [1/2, 2] in both modes


@dataclass
class ChannelDraw:
    """Per-slot channel vectors for every user, one array per group.

    Array shapes: h_a (la, n1, mu_n), h_b1 (lb, n1, mu_n),
    h_b2 (lb, n2, mu_n), h_c (lc, n2, mu_n).  Float mode stores float64,
    rational mode Fraction objects, and modp mode int64 residues mod
    ``numerics.P`` in ``numerics.ModP`` arrays.
    """

    cfg: SigmaConfig
    mu_n: int
    seed: int
    mode: str
    h_a: np.ndarray
    h_b1: np.ndarray
    h_b2: np.ndarray
    h_c: np.ndarray


MODES = ("float", "rational", "modp")   # every mode _draw_block can draw in


def _draw_block(rng, count, n_ant, mu_n, mode):
    if mode == "float":
        lo, hi = math.log(0.5), math.log(2.0)
        return np.exp(rng.uniform(lo, hi, size=(count, n_ant, mu_n)))
    if mode == "modp":
        # uniform on F_P without zero, so every channel gain is a unit
        return numerics.zp_array(
            rng.integers(1, numerics.P, size=(count, n_ant, mu_n)))
    # Rational mode: k/64 with k in {32..128}, sampled without replacement
    # along each (user, antenna) time series so T diagonals never repeat
    # a value within one series.
    n_values = RATIONAL_NUM_HI - RATIONAL_NUM_LO + 1
    if mu_n > n_values:
        raise SlotCapExceeded(
            f"rational mode supports at most {n_values} slots, "
            f"got mu_n = {mu_n}")
    out = np.empty((count, n_ant, mu_n), dtype=object)
    for u in range(count):
        for a in range(n_ant):
            ks = RATIONAL_NUM_LO + rng.permutation(n_values)[:mu_n]
            for t in range(mu_n):
                out[u, a, t] = Fraction(int(ks[t]), RATIONAL_DEN)
    return out


def draw(cfg: SigmaConfig, mu_n: int, seed: int, mode: str = "float") -> ChannelDraw:
    """Deterministic seeded channel draw.

    Float mode draws log-uniform coefficients on [1/2, 2]; rational mode
    draws rationals on [1/2, 2] with fixed denominator 64 (a deliberate,
    bounded, non-continuous stand-in for the continuous distribution the
    alignment argument assumes); modp mode draws uniformly from the nonzero
    residues mod ``numerics.P``, where a full-rank certificate at one
    point is a proof of generic full rank (see ``verify.run_certified``).
    """
    if mu_n < 1:
        raise ValueError("mu_n must be positive")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    return ChannelDraw(
        cfg=cfg, mu_n=mu_n, seed=seed, mode=mode,
        h_a=_draw_block(rng, cfg.la, cfg.n1, mu_n, mode),
        h_b1=_draw_block(rng, cfg.lb, cfg.n1, mu_n, mode),
        h_b2=_draw_block(rng, cfg.lb, cfg.n2, mu_n, mode),
        h_c=_draw_block(rng, cfg.lc, cfg.n2, mu_n, mode),
    )


def _series(draw: ChannelDraw, path):
    """(n_ant, mu_n) array for one user's channel toward one BS."""
    kind = path[0]
    if kind == "a" and len(path) == 2 and 1 <= path[1] <= draw.cfg.la:
        return draw.h_a[path[1] - 1]
    if kind == "b" and len(path) == 3 and path[1] in (1, 2) \
            and 1 <= path[2] <= draw.cfg.lb:
        return (draw.h_b1 if path[1] == 1 else draw.h_b2)[path[2] - 1]
    if kind == "c" and len(path) == 2 and 1 <= path[1] <= draw.cfg.lc:
        return draw.h_c[path[1] - 1]
    raise UnknownPath(f"no channel path {path!r}")


def apply(draw: ChannelDraw, path, v: np.ndarray) -> np.ndarray:
    """H_tilde @ v for one user's time-expanded channel, built slot by slot.

    H_tilde is (n_ant * mu_n) x mu_n and carries the slot-t channel vector
    in row block t of column t, so row t * n_ant + a of the product is
    h[a, t] * v[t, :].  Paths are ("a", j), ("b", i, j), ("c", j), 1-based.
    """
    h = _series(draw, path)
    n_ant, mu_n = h.shape
    if v.shape[0] != mu_n:
        raise DimensionMismatch(f"{mu_n} slots vs {v.shape[0]} rows")
    return (h.T[:, :, None] * v[:, None, :]).reshape(n_ant * mu_n, v.shape[1])


def stack(draw: ChannelDraw, i: int, s_set) -> np.ndarray:
    """Per-slot blocks of the stack [H_tilde(b, i, j) for j in s_set].

    Returns a (mu_n, N_i, N_i) array whose block t holds, in column k, the
    slot-t channel of the k-th set member at BS i.  Up to a column
    permutation the dense stack is block-diagonal with these blocks, so it
    is invertible exactly when every block is.  The blocks are returned
    as drawn, singular or not; ``compute_t`` decides.
    """
    n_i = draw.cfg.n1 if i == 1 else draw.cfg.n2
    if len(s_set) != n_i:
        raise ValueError(f"need exactly {n_i} set members, got {len(s_set)}")
    return np.stack([_series(draw, ("b", i, j)).T for j in s_set], axis=-1)


def compute_t(draw: ChannelDraw, i: int, users, s_set) -> np.ndarray:
    """The T diagonals relating each user in ``users`` to the stack at BS i.

    T_(l, j) is the length-mu_n diagonal with
    H_tilde(b, i, j) = sum_l H_tilde(b, i, s_l) @ diag(T_(l, j)).  Slot t
    solves stack(i, s_set)[t] @ X = [h_j[:, t] for j in users] once for
    every user and sets T_(l, j)[t] = X[l, j].  Returns the
    (N_i * len(users), mu_n) array of diagonals in (l, j) order, l outer.
    A singular stack (``numerics.solve_blocks``'s rule) raises
    SingularStack.
    """
    s_set, users = tuple(s_set), tuple(users)
    inside = sorted(set(users) & set(s_set))
    if inside:
        raise ValueError(f"users {inside} are in the alignment set {s_set}")
    blocks = stack(draw, i, s_set)
    target = np.stack([_series(draw, ("b", i, j)).T for j in users], axis=-1)
    try:
        x = numerics.solve_blocks(blocks, target)
    except np.linalg.LinAlgError as e:
        raise SingularStack(
            f"stacked channel at BS {i}, set {s_set}, seed {draw.seed}") from e
    return x.transpose(1, 2, 0).reshape(-1, draw.mu_n)
