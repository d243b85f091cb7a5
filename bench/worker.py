"""One benchmark phase in a fresh interpreter; run.py starts it.

    worker.py --workload W --seed N --size full|tiny --t0 T
              --phase untraced|traced [--first-op K]
              [--seconds S | --ops N] [--spans PATH]

``--t0`` is the CLOCK_MONOTONIC reading taken just before the interpreter
was started, so ``setup_s`` covers interpreter start, imports, input
set-up and warm-up.  The worker then runs ops, checks every output after
the timed loop, and prints one JSON object as the last line of standard
output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def clock() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--phase", choices=("untraced", "traced"), required=True)
    p.add_argument("--first-op", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--ops", type=int)
    p.add_argument("--spans")
    return p.parse_args(argv)


def import_library():
    """Import sigma_align from this checkout's src/, and nowhere else."""
    if not (SRC / "sigma_align" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no library source at {SRC}")
    sys.path.insert(0, str(SRC))
    import sigma_align

    if not Path(sigma_align.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: imported {sigma_align.__file__}, "
                         f"not the checkout's src/")


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def measure(wl, seed, seconds=None, ops=None, tracer=None, first_op=0):
    """Closed loop, one client: run ops first_op, first_op+1, ... back to
    back, at least one, until the time or count is reached.  Returns
    (records, phase wall seconds); a record is (op input, output or None,
    error text or None, op seconds)."""
    records = []
    start = time.perf_counter()
    k = 0
    while k == 0 or ((ops is None or k < ops) and (
            seconds is None or time.perf_counter() - start < seconds)):
        inp = wl.op_input(seed, first_op + k)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(inp)
            else:
                with tracer.op(k):
                    out = wl.run(inp)
            err = None
        except Exception:
            out, err = None, traceback.format_exc()
        records.append((inp, out, err, time.perf_counter() - t0))
        k += 1
    return records, time.perf_counter() - start


def check_all(wl, records) -> list[bool]:
    """An op passes if it returned and its output check holds."""
    ok = []
    for inp, out, err, _ in records:
        if err is None:
            try:
                good = bool(wl.check(inp, out))
            except Exception:
                err = traceback.format_exc()
                good = False
        else:
            good = False
        if err is not None:
            print(err, file=sys.stderr)
        ok.append(good)
    return ok


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.size)
    wl.warm_up()
    result = {"setup_s": clock() - args.t0}

    tracer = None
    if args.phase == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        records, phase_s = measure(wl, args.seed, args.seconds, args.ops,
                                   tracer, args.first_op)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # taken before the checks, which import scipy; ru_maxrss is KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(phase_s=phase_s, walls=[r[3] for r in records],
                  ok=check_all(wl, records), peak_rss_mb=peak_rss_mb,
                  provenance=provenance())
    if tracer is not None:
        selfs = tracing.self_times(tracer.spans)
        result.update(
            layers=tracing.layer_metrics(tracer.spans, selfs, len(records)),
            units={name: unit for name, unit, _ in tracing.PER_LAYER},
            partition_error_s=tracing.partition_error(tracer.spans, selfs),
            library_self_s=sum(
                own for s, own in zip(tracer.spans, selfs)
                if s[tracing.NAME] not in ("op", "trace.annotate")),
            spans=len(tracer.spans))
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
