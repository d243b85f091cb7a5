"""sigma-align benchmark: three closed-loop workloads, end to end or by layer.

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0

``--trace 0`` times ops with tracing off and prints the end-to-end metrics.
``--trace 1`` makes an untraced run and then a separate traced run of the
same ops, and prints the per-layer metrics and the tracing overhead.
Every phase runs in its own fresh interpreter (worker.py).  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.  See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

# one clock for both ends of setup_s
from worker import ROOT, SRC, clock

BENCH = Path(__file__).resolve().parent

WORKLOADS = ("certify", "float_scale", "region_lp")
WORKERS = 3             # fresh interpreters per end-to-end run
DEADLINE_S = 170        # the whole run, all workers included
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile
PARTITION_TOL_S = 1e-6


class WorkerFailed(RuntimeError):
    pass


@dataclass
class Outcome:
    """What one run measured, before it is printed."""

    metrics: dict[str, tuple[float, str]]     # name -> (value, unit)
    attempted: int
    failed: int
    provenance: dict
    trace_ok: bool = True                      # self times partition op walls
    notes: dict[str, str] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the library sources, which identifies non-git checkouts."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


class Runner:
    """Starts workers with fixed BLAS threads, all within one deadline."""

    def __init__(self, args, blas_threads: int):
        self.args = args
        self.deadline = clock() + DEADLINE_S
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
                        OMP_NUM_THREADS=str(blas_threads),
                        MKL_NUM_THREADS=str(blas_threads))

    def worker(self, phase: str, *extra: str) -> dict:
        a = self.args
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--size", a.size, "--phase", phase, *extra]
        timeout = self.deadline - clock()
        if timeout <= 0:
            raise WorkerFailed("deadline passed before the next phase")
        try:
            t0 = clock()
            proc = subprocess.run(cmd + ["--t0", repr(t0)], env=self.env,
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as e:
            raise WorkerFailed(f"{phase} worker timed out") from e
        if proc.returncode != 0:
            raise WorkerFailed(f"{phase} worker exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it.  With TAIL_BEYOND samples or fewer none qualifies,
    and the smallest sample (the one with the most beyond it) is used, which
    continues the rule without a jump as the sample count falls."""
    xs = sorted(walls)
    k = max(len(xs) - TAIL_BEYOND, 1)
    return xs[k - 1], 100.0 * k / len(xs)


def end_to_end(runner: Runner, seconds: float) -> Outcome:
    """Untraced ops, split over WORKERS fresh interpreters that share one
    time budget: worker i continues the op sequence where worker i-1
    stopped, and stops starting ops once the workers so far have measured
    (i+1)/WORKERS of the budget."""
    mains, spent, walls = [], 0.0, []
    for i in range(WORKERS):
        budget = seconds * (i + 1) / WORKERS - spent
        mains.append(runner.worker("untraced", "--first-op", str(len(walls)),
                                   "--seconds", repr(budget)))
        spent += mains[-1]["phase_s"]
        walls += mains[-1]["walls"]
    failed = sum(m["ok"].count(False) for m in mains)
    setups = [m["setup_s"] for m in mains]
    peaks = [m["peak_rss_mb"] for m in mains]
    tail_s, tail_pct = tail(walls)
    metrics = {
        "ops_per_s": ((len(walls) - failed) / spent, "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    notes = {
        "op_tail_s": f"p{tail_pct:.1f} of {len(walls)} ops",
        "setup_s": "median over workers: " + ", ".join(f"{x:.4f}"
                                                       for x in setups),
        "peak_rss_mb": "median over workers: " + ", ".join(f"{x:.1f}"
                                                           for x in peaks),
    }
    lines = [f"fail_ratio  {failed / len(walls):.4f} ratio  "
             f"({failed} of {len(walls)} ops failed)"]
    return Outcome(metrics, len(walls), failed, mains[-1]["provenance"],
                   notes=notes, lines=lines)


def per_layer(runner: Runner, seconds: float) -> Outcome:
    plain = runner.worker("untraced", "--seconds", repr(seconds / 2))
    n_ops = len(plain["walls"])
    a = runner.args
    spans = BENCH / "out" / f"spans-{a.workload}-{a.seed}.jsonl"
    traced = runner.worker("traced", "--ops", str(n_ops),
                           "--spans", str(spans))
    units = traced["units"]
    values = dict(traced["layers"])
    traced_wall = sum(traced["walls"])
    values["trace.overhead_ratio"] = traced_wall / sum(plain["walls"]) - 1
    metrics = {name: (values[name], units[name]) for name in units}
    partition_ok = traced["partition_error_s"] <= PARTITION_TOL_S
    ok = plain["ok"] + traced["ok"]
    lines = [
        f"traced {n_ops} ops, {traced['spans']} spans, written to "
        f"{spans.relative_to(ROOT)}",
        f"self-time partition: max |sum of self times - op wall| = "
        f"{traced['partition_error_s']:.3g} s over {n_ops} ops "
        f"({'ok' if partition_ok else 'BROKEN'})",
        f"library self time covers {traced['library_self_s'] / traced_wall:.4f}"
        f" of traced op wall time",
    ]
    return Outcome(metrics, len(ok), ok.count(False), traced["provenance"],
                   trace_ok=partition_ok, lines=lines)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny swaps in small scenarios (for the tests)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sigma_align" / "__init__.py").is_file():
        print(f"benchmark: no library source at {SRC}", file=sys.stderr)
        return 2
    threads = min(2, nproc())
    prov = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "seconds": args.seconds,
            "git_commit": git_commit(), "src_sha256": source_digest(),
            "nproc": nproc(), "blas_threads_requested": threads,
            "loadavg_at_start": loadavg()}
    runner = Runner(args, threads)
    measure = per_layer if args.trace else end_to_end
    try:
        out = measure(runner, args.seconds)
    except WorkerFailed as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1
    prov.update(out.provenance)
    print("provenance " + json.dumps(prov))
    for name, (value, unit) in out.metrics.items():
        note = f"  ({out.notes[name]})" if name in out.notes else ""
        print(f"{name:<40} {value:>14.6g} {unit}{note}")
    for line in out.lines:
        print(line)
    print(json.dumps({
        "correct": out.failed == 0 and out.trace_ok,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
