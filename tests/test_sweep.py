"""Vertex sweep: certify the region's vertices and cross-check the converse.

The vertices are ``max_sum_dof`` argmaxes under seeded integer weights
1..5; the simplex returns basic solutions, so each is a vertex.  Each one
must certify in modp at n = 1, and the per-slot point its construction
achieves must pass ``region.check_point``: any decodable scheme lies in
the region.  Scaling a vertex by 101/100 must leave the region.
"""

from fractions import Fraction

import numpy as np
import pytest

from sigma_align import precoder, region
from sigma_align.region import DofPoint, SigmaConfig
from sigma_align.verify import run_experiment

SHAPES = [(1, 1, 0, 2, 0), (2, 2, 0, 3, 0), (2, 2, 1, 3, 1),
          (2, 1, 2, 2, 0), (1, 2, 1, 3, 0), (1, 1, 1, 3, 1)]
DRAWS_PER_SHAPE = 15


def _vertices():
    out = []
    for shape in SHAPES:
        cfg = SigmaConfig(*shape)
        rng = np.random.default_rng(0)
        seen = []
        for _ in range(DRAWS_PER_SHAPE):
            weights = rng.integers(1, 6, size=cfg.num_messages)
            _, point = region.max_sum_dof(cfg, [int(w) for w in weights])
            if point not in seen:
                seen.append(point)
        out += [(cfg, point) for point in seen]
    return out


VERTICES = _vertices()


def _point(cfg, vec):
    la, lb = cfg.la, cfg.lb
    return DofPoint(tuple(vec[:la]), tuple(vec[la:la + lb]),
                    tuple(vec[la + lb:la + 2 * lb]), tuple(vec[la + 2 * lb:]))


def test_sweep_covers_zero_dof_and_one_side_vertices():
    plans = [precoder.plan(cfg, d, 1) for cfg, d in VERTICES]
    assert any(0 in d.as_vector() for _, d in VERTICES)
    assert any(bool(pl.s1) != bool(pl.s2) for pl in plans)


@pytest.mark.parametrize("cfg, d", VERTICES,
                         ids=[f"{cfg.n1}{cfg.n2}{cfg.la}{cfg.lb}{cfg.lc}-{k}"
                              for k, (cfg, _) in enumerate(VERTICES)])
def test_vertex_certifies_and_achieves_a_point_in_the_region(cfg, d):
    r = run_experiment(cfg, d, 1, 5, "modp")
    assert r.passed
    achieved = r.achieved
    per_slot = [achieved[mid]["per_slot"]
                for mid in precoder.message_ids(cfg)]
    assert region.check_point(cfg, _point(cfg, per_slot)).feasible
    assert not region.check_point(cfg, d.scaled(Fraction(101, 100))).feasible
