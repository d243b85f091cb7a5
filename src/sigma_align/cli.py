"""Command line front end.

Subcommands: ``region check``, ``region max-sum``, ``ia run``,
``ia sweep``, ``lemma1``.  Configuration is a JSON document (rationals as
"p/q" strings); command line flags override config fields, and
SIGMA_ALIGN_SEED is the seed fallback.  Exit codes: 0 pass/feasible,
2 domain-negative (infeasible point or failed certification), 1 error,
usage errors included.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import precoder, region, verify
from .channel import MODES
from .errors import InfeasiblePoint, ParseError, SigmaAlignError
from .region import DofPoint, SigmaConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


def _parse_fraction(s) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {s!r}: {e}") from e


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


CONFIG_FIELDS = ("cfg", "d", "n", "n_max", "seed", "trials", "mode")


def load_config(path: str, args) -> dict:
    """Read the JSON config and resolve it against flags and environment.

    A field outside ``CONFIG_FIELDS`` is an error: a misspelt or removed
    field would otherwise change the run without a word.  So is a
    non-integer value of an integer field, which ``int`` would truncate,
    and a JSON float DoF entry, which is not the rational it spells.
    """
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"cannot read config {path}: {e}") from e
    try:
        if "tol" in raw:
            raise ParseError('config field "tol" was removed: the float '
                             'thresholds are fixed in sigma_align.numerics')
        unknown = sorted(set(raw) - set(CONFIG_FIELDS))
        if unknown:
            raise ParseError(f"unknown config field "
                             f"{', '.join(map(repr, unknown))}; the fields "
                             f"are {', '.join(CONFIG_FIELDS)}")
        c = raw["cfg"]
        cfg = SigmaConfig(*(_json_int(f"cfg.{k}", c[k])
                            for k in ("n1", "n2", "la", "lb", "lc")))
        for key in ("n", "n_max", "seed", "trials"):
            if key in raw:
                _json_int(key, raw[key])
        dd = raw.get("d", {})
        d = DofPoint(*(tuple(_json_dof(f"d.{k}[{idx}]", x)
                             for idx, x in enumerate(dd.get(k, [])))
                       for k in ("da", "db1", "db2", "dc")))
        n = _flag_or(args, "n", raw.get("n", 1))
        rc = {
            "cfg": cfg,
            "d": d,
            "n": n,
            "n_max": _flag_or(args, "n_max", raw.get("n_max", n)),
            "seed": _resolve_seed(_flag_or(args, "seed", raw.get("seed"))),
            "trials": _flag_or(args, "trials", raw.get("trials", 1)),
            "mode": _flag_or(args, "mode", raw.get("mode")),
        }
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad config: {e}") from e
    if not d.matches(cfg):
        raise ParseError("DoF point shape does not match cfg")
    for key in ("n", "trials"):
        if rc[key] < 1:
            raise ParseError(f"{key} must be positive, got {rc[key]}")
    if rc["n_max"] < rc["n"]:
        raise ParseError(f"n_max = {rc['n_max']} is below n = {rc['n']}")
    if rc["mode"] is not None and rc["mode"] not in MODES:
        raise ParseError(f"unknown mode {rc['mode']!r}, not in {MODES}")
    return rc


def _json_int(name, value) -> int:
    """``value`` if it is a JSON integer; anything else would be truncated
    or coerced by ``int`` into a run that was not asked for."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"config field {name!r} must be an integer, "
                         f"got {value!r}")
    return value


def _json_dof(name, value) -> Fraction:
    """A DoF entry given as a "p/q" or decimal string or a JSON integer.
    A JSON float is refused: ``Fraction`` would take its binary value,
    so 0.1 would become 3602879701896397/36028797018963968."""
    if isinstance(value, (bool, float)):
        raise ParseError(f"config field {name!r} must be an integer or a "
                         f"rational string such as \"1/3\", got {value!r}")
    return _parse_fraction(value)


def _flag_or(args, name, fallback):
    """A command line flag's value if it was given, else the fallback."""
    value = getattr(args, name, None)
    return fallback if value is None else value


def _resolve_seed(seed) -> int:
    """The given seed, else SIGMA_ALIGN_SEED, else 0."""
    if seed is None:
        seed = os.environ.get("SIGMA_ALIGN_SEED", 0)
    try:
        return int(seed)
    except (TypeError, ValueError) as e:
        raise ParseError(f"bad seed {seed!r}") from e


def resolved_config_doc(rc: dict) -> dict:
    """Provenance block embedded in every report."""
    cfg, d = rc["cfg"], rc["d"]
    return {
        "cfg": {"n1": cfg.n1, "n2": cfg.n2, "la": cfg.la, "lb": cfg.lb,
                "lc": cfg.lc},
        "d": {"da": [_frac_str(x) for x in d.da],
              "db1": [_frac_str(x) for x in d.db1],
              "db2": [_frac_str(x) for x in d.db2],
              "dc": [_frac_str(x) for x in d.dc]},
        "n": rc["n"], "n_max": rc["n_max"], "seed": rc["seed"],
        "trials": rc["trials"], "mode": rc["mode"],
        "distributions": {
            "float": "log-uniform on [1/2, 2]",
            "rational": "k/64, k in {32..128}, no repeats per series",
            "modp": "uniform on the nonzero residues mod 2^31 - 1",
        },
    }


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_region_check(args) -> int:
    rc = load_config(args.config, args)
    result = region.check_point(rc["cfg"], rc["d"])
    doc = {
        "feasible": result.feasible,
        "violated": [{"label": c.label, "bound": _frac_str(c.bound),
                      "value": _frac_str(c.value(rc["d"].as_vector()))}
                     for c in result.violated],
        "mu0": region.mu0(rc["d"]),
        "config": resolved_config_doc(rc),
    }
    _emit(doc, args.out)
    return EXIT_OK if result.feasible else EXIT_NEGATIVE


def cmd_region_maxsum(args) -> int:
    rc = load_config(args.config, args)
    cfg = rc["cfg"]
    if args.weights:
        weights = [_parse_fraction(w) for w in args.weights.split(",")]
    else:
        weights = [Fraction(1)] * cfg.num_messages
    try:
        value, point = region.max_sum_dof(cfg, weights)
    except ValueError as e:   # a negative weight
        raise ParseError(f"bad --weights: {e}") from e
    doc = {
        "optimum": _frac_str(value),
        "optimum_decimal": float(value),
        "optimizer": {"da": [_frac_str(x) for x in point.da],
                      "db1": [_frac_str(x) for x in point.db1],
                      "db2": [_frac_str(x) for x in point.db2],
                      "dc": [_frac_str(x) for x in point.dc]},
        "config": resolved_config_doc(rc),
    }
    _emit(doc, args.out)
    return EXIT_OK


def _run_trials(rc, n):
    """Reports for all trials at one n.

    A named mode runs only that mode; with none named, each trial goes
    through ``run_certified``, and its report's mode says which decided.
    """
    def run(seed):
        if rc["mode"] is None:
            return verify.run_certified(rc["cfg"], rc["d"], n, seed)
        return verify.run_experiment(rc["cfg"], rc["d"], n, seed, rc["mode"])
    return [run(rc["seed"] + 1000 * t) for t in range(rc["trials"])]


def cmd_ia_run(args) -> int:
    rc = load_config(args.config, args)
    reports = _run_trials(rc, rc["n"])
    doc = {
        "trials": [r.to_dict() for r in reports],
        "all_pass": all(r.passed for r in reports),
        "config": resolved_config_doc(rc),
    }
    _emit(doc, args.out)
    return EXIT_OK if doc["all_pass"] else EXIT_NEGATIVE


def cmd_ia_sweep(args) -> int:
    rc = load_config(args.config, args)
    mids = precoder.message_ids(rc["cfg"])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "trial", "seed", "mu_n", "sum_per_slot",
                     "sum_per_slot_decimal"]
                    + [f"ratio_{m}" for m in mids]
                    + [f"ratio_{m}_decimal" for m in mids] + ["pass"])
    ratio_track = {m: [] for m in mids}
    all_pass = True
    for n in range(rc["n"], rc["n_max"] + 1):
        reports = _run_trials(rc, n)
        for t, r in enumerate(reports):
            achieved = r.achieved
            ratios = [achieved[m]["ratio"] for m in mids]
            writer.writerow([n, t, r.seed, r.mu_n, _frac_str(r.sum_per_slot),
                             float(r.sum_per_slot)]
                            + [_frac_str(x) for x in ratios]
                            + [float(x) for x in ratios] + [r.passed])
            all_pass = all_pass and r.passed
        first = reports[0].achieved
        for m in mids:
            ratio_track[m].append(first[m]["ratio"])
    for m, seq in ratio_track.items():
        strict = any(x != 1 for x in seq)
        for a, b in zip(seq, seq[1:]):
            if strict and not a < b:
                raise SigmaAlignError(
                    f"ratio for {m} not strictly increasing across n")
            if not a <= b:
                raise SigmaAlignError(f"ratio for {m} decreasing across n")
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if all_pass else EXIT_NEGATIVE


def cmd_lemma1(args) -> int:
    if args.trials < 1:
        raise ParseError(f"trials must be positive, got {args.trials}")
    seed = _resolve_seed(args.seed)
    mode = args.mode or "float"
    valid_ok = 0
    negative_full = 0
    for t in range(args.trials):
        if verify.lemma1_test(args.m, args.k, verify.random_valid_exponents,
                              seed + t, mode):
            valid_ok += 1
        if verify.lemma1_test(args.m, args.k,
                              verify.duplicate_column_exponents,
                              seed + t, mode, claim_valid=False):
            negative_full += 1
    doc = {
        "m": args.m, "k": args.k, "trials": args.trials, "seed": seed,
        "mode": mode,
        "valid_full_rank": valid_ok,
        "negative_full_rank": negative_full,
    }
    _emit(doc, args.out)
    ok = valid_ok == args.trials and negative_full == 0
    return EXIT_OK if ok else EXIT_NEGATIVE


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit code 1."""

    def error(self, message):
        self.exit(EXIT_ERROR, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sigma-align")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--trials", type=int)
        sp.add_argument("--mode", choices=MODES)
        sp.add_argument("--n", type=int)
        sp.add_argument("--n-max", type=int, dest="n_max")
        sp.add_argument("--out")

    reg = sub.add_parser("region").add_subparsers(dest="subcommand",
                                                  required=True)
    sp = reg.add_parser("check")
    common(sp)
    sp.set_defaults(func=cmd_region_check)
    sp = reg.add_parser("max-sum")
    common(sp)
    sp.add_argument("--weights", help="comma-separated rationals")
    sp.set_defaults(func=cmd_region_maxsum)

    ia = sub.add_parser("ia").add_subparsers(dest="subcommand", required=True)
    sp = ia.add_parser("run")
    common(sp)
    sp.set_defaults(func=cmd_ia_run)
    sp = ia.add_parser("sweep")
    common(sp)
    sp.set_defaults(func=cmd_ia_sweep)

    sp = sub.add_parser("lemma1")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--mode", choices=MODES)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_lemma1)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasiblePoint as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except SigmaAlignError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
