"""Uplink DoF region of the two-base-station Sigma channel and its
interference-alignment achievability scheme, certified by exact and
floating-point rank checks."""

from .region import (SigmaConfig, DofPoint, Constraint, enumerate_constraints,
                     check_point, check_point_bruteforce, mu0, max_sum_dof)
from .channel import ChannelDraw, draw, apply, stack, compute_t
from .precoder import (AlignmentPlan, PrecoderSet, select_sets, plan,
                       target_bar_dofs, exponent_tuples, build_p, assemble,
                       compute_t_set, message_ids)
from .verify import (VerificationReport, check_alignment, check_pairwise,
                     build_lambda, check_lambda, achieved_dof, lemma1_test,
                     run_experiment, expected_ratio)

__version__ = "0.1.0"
