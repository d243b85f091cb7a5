"""Outside-in span recorder for the sigma_align library modules.

Every call between the library's modules goes through a module attribute
(``numerics.matmul``, ``verify.check_lambda``, ...), and a module's own
functions look each other up in the same namespace.  Replacing the public
functions of each module with timing wrappers therefore traces the whole
call tree without touching the library source.

One span is recorded per wrapped call: name, start, end, parent span and
the id of the benchmark op it belongs to.  Spans stay in memory until the
run ends.  Counts that a layer metric needs (products, ranks, plan sizes)
are taken from the call's arguments and result by an annotator; the
annotator's own time is recorded as a ``trace.annotate`` span so that it
is charged to tracing, not to the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from sigma_align import channel, numerics, precoder, region, verify

MODULES = (numerics, channel, precoder, verify, region)

# span fields
NAME, PARENT, OP, START, END, ATTRS = range(6)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _matmul_counts(args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    useful = np.count_nonzero(a, axis=0) @ np.count_nonzero(b, axis=1)
    return {"products": a.shape[0] * a.shape[1] * b.shape[1],
            "useful": int(useful)}


def _stack_key(args, kwargs, result):
    draw = _arg(args, kwargs, 0, "draw")
    key = (draw.cfg, draw.mu_n, draw.seed, draw.mode,
           _arg(args, kwargs, 1, "i"), tuple(_arg(args, kwargs, 2, "s_set")))
    return {"key": repr(key)}


def _lambda_deficit(args, kwargs, result):
    parts = _arg(args, kwargs, 0, "parts")
    exact = numerics.is_exact(parts.assembled)
    return {"float_deficit": 0 if exact else result["cols"] - result["rank"]}


ANNOTATORS = {
    "numerics.matmul": _matmul_counts,
    "numerics.rank": lambda args, kwargs, result: {
        "exact": bool(_arg(args, kwargs, 0, "m").dtype == object)},
    "channel.stack": _stack_key,
    "precoder.plan": lambda args, kwargs, result: {"mu_n": result.mu_n},
    "verify.run_certified": lambda args, kwargs, result: {
        "fallback": result.mode == "rational"},
    "verify.run_experiment": lambda args, kwargs, result: {
        "rational_calls": result.mode == "rational",
        "retries": result.retries},
    "verify.check_lambda": _lambda_deficit,
    "region.enumerate_constraints": lambda args, kwargs, result: {
        "rows": len(result)},
}


class Tracer:
    """Wraps the library's public functions and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._originals: list[tuple] = []

    def install(self):
        for module in MODULES:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._originals.append((module, name, fn))
                setattr(module, name, self._wrap(f"{short}.{name}", fn))

    def uninstall(self):
        for module, name, fn in self._originals:
            setattr(module, name, fn)
        self._originals.clear()

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self._op, 0.0, 0.0, None])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qualname, fn):
        annotate = ANNOTATORS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if annotate is not None:
                note = self._open("trace.annotate")
                self.spans[idx][ATTRS] = annotate(args, kwargs, result)
                self._close(note)
            return result

        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; library spans inside carry its id."""
        self._op = op_id
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)
            self._op = None

    def write(self, path):
        """Write every span as one JSON line, once, at the end of a run."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s[NAME],
                                    "parent": s[PARENT], "op": s[OP],
                                    "start": s[START], "end": s[END],
                                    "attrs": s[ATTRS]}) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for c in children[i]:    # opened, hence listed, in start order
            lo, hi = max(spans[c][START], reach), min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def partition_error(spans, selfs) -> float:
    """Largest gap, over ops, between an op's wall time and the sum of the
    self times of its spans.

    Each op's spans nest inside its root span, so their self times must add
    up to the root's duration; a gap means a span was lost or overlapped.
    """
    total = defaultdict(float)
    wall = {}
    for s, own in zip(spans, selfs):
        total[s[OP]] += own
        if s[NAME] == "op":
            wall[s[OP]] = s[END] - s[START]
    return max((abs(total[op] - w) for op, w in wall.items()), default=0.0)


# (metric, unit, better); per-op values are run totals over the op count
PER_LAYER = [
    ("numerics.matmul.calls", "count/op", "lower"),
    ("numerics.matmul.self_s", "s/op", "lower"),
    ("numerics.matmul.products", "count/op", "lower"),
    ("numerics.matmul.useful_ratio", "ratio", "higher"),
    ("numerics.rank.calls", "count/op", "lower"),
    ("numerics.rank.exact_self_s", "s/op", "lower"),
    ("numerics.rank.float_self_s", "s/op", "lower"),
    ("numerics.solve_exact.self_s", "s/op", "lower"),
    ("numerics.columns_subset_of.self_s", "s/op", "lower"),
    ("numerics.subspace_contains.total_s", "s/op", "lower"),
    ("channel.draw.total_s", "s/op", "lower"),
    ("channel.expand.calls", "count/op", "lower"),
    ("channel.expand.total_s", "s/op", "lower"),
    ("channel.stack.calls", "count/op", "lower"),
    ("channel.stack.total_s", "s/op", "lower"),
    ("channel.stack.distinct_ratio", "ratio", "higher"),
    ("channel.compute_t.calls", "count/op", "lower"),
    ("channel.compute_t.self_s", "s/op", "lower"),
    ("precoder.plan.mu_n", "count/op", "lower"),
    ("precoder.compute_t_set.total_s", "s/op", "lower"),
    ("precoder.assemble.self_s", "s/op", "lower"),
    ("precoder.build_p.total_s", "s/op", "lower"),
    ("verify.run_certified.calls", "count/op", "lower"),
    ("verify.run_certified.fallback_ratio", "ratio", "lower"),
    ("verify.run_experiment.calls", "count/op", "lower"),
    ("verify.run_experiment.rational_calls", "count/op", "lower"),
    ("verify.run_experiment.retries", "count/op", "lower"),
    ("verify.lambda.float_rank_deficit", "count/op", "lower"),
    ("verify.check_alignment.total_s", "s/op", "lower"),
    ("verify.check_pairwise.total_s", "s/op", "lower"),
    ("verify.build_lambda.self_s", "s/op", "lower"),
    ("verify.check_lambda.total_s", "s/op", "lower"),
    ("region.check_point.calls", "count/op", "lower"),
    ("region.check_point.total_s", "s/op", "lower"),
    ("region.enumerate_constraints.rows", "count/op", "lower"),
    ("region.enumerate_constraints.total_s", "s/op", "lower"),
    ("region.max_sum_dof.calls", "count/op", "lower"),
    ("region.max_sum_dof.self_s", "s/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _ratio(num, den) -> float:
    """num/den, or 0 when the layer was never called (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(spans, selfs, n_ops: int) -> dict[str, float]:
    """Per-layer values from one traced run, except trace.overhead_ratio.

    A metric "<module>.<function>.<stat>" is, per op, the span count
    (calls), summed durations (total_s), summed self times (self_s) or
    summed annotation <stat>; ratios and the rank split are special cases.
    """
    sums = {"calls": defaultdict(float), "total_s": defaultdict(float),
            "self_s": defaultdict(float)}
    attr = defaultdict(float)    # "<span>.<annotation>" summed over calls
    rank_self = {True: 0.0, False: 0.0}
    stack_keys = set()
    for s, self_s in zip(spans, selfs):
        name = s[NAME]
        sums["calls"][name] += 1
        sums["total_s"][name] += s[END] - s[START]
        sums["self_s"][name] += self_s
        for key, value in (s[ATTRS] or {}).items():
            if key == "key":
                stack_keys.add(value)
            elif key == "exact":
                rank_self[value] += self_s
            else:
                attr[f"{name}.{key}"] += value
    calls = sums["calls"]
    special = {
        "numerics.matmul.useful_ratio": _ratio(
            attr["numerics.matmul.useful"], attr["numerics.matmul.products"]),
        "numerics.rank.exact_self_s": rank_self[True] / n_ops,
        "numerics.rank.float_self_s": rank_self[False] / n_ops,
        "channel.stack.distinct_ratio": _ratio(len(stack_keys),
                                               calls["channel.stack"]),
        "verify.run_certified.fallback_ratio": _ratio(
            attr["verify.run_certified.fallback"],
            calls["verify.run_certified"]),
        "verify.lambda.float_rank_deficit":
            attr["verify.check_lambda.float_deficit"] / n_ops,
    }
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric in special:
            out[metric] = special[metric]
        elif metric != "trace.overhead_ratio":
            span, stat = metric.rsplit(".", 1)
            per_run = sums[stat][span] if stat in sums else attr[metric]
            out[metric] = per_run / n_ops
    return out
