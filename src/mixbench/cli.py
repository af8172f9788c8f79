"""Command-line entry points.

Subcommands (every lambda is in units of sigma; none takes a sigma):
  simulate          run a configured sweep and write a CSV/JSON report
  rates             run a configured sweep and print its fitted slope
  packing           construct a lower-bound family and write it as JSON
                    (--s and --seed, default 0, for the sparse regime only)
  verify            run a verification suite; exit 0 iff every check holds
  bounds            evaluate a closed-form theorem bound at parameters
                    (--s for thm3_upper and thm4_lower only)

Outputs are deterministic for fixed inputs (reports carry no timings, and
their runtime_ms column reads 0.0) and serial/parallel runs agree; simulate
and rates run replicates on --threads threads (default 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds import THEOREM_KINDS, theorem_bound
from .errors import ConfigError, MixbenchError
from .harness import emit_report, json_chunks, load_config, read_json, run_experiment, write_atomic
from .packing import family_from_json_dict, family_to_json_dict, lower_bound_family
from .verify import SUITES, suite_fano


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="run a configured experiment sweep")
    p.add_argument("--config", required=True, help="path to a JSON experiment config")
    p.add_argument("--out", required=True, help="output path (.csv or .json)")
    p.add_argument("--threads", type=int, default=1, help="replicate-level parallelism")


def _add_rates(sub):
    p = sub.add_parser("rates", help="fit a log-log rate slope over the config's sweep axis")
    p.add_argument("--config", required=True, help="path to a JSON experiment config with a sweep block")
    p.add_argument("--out", default=None, help="optional CSV/JSON report path")
    p.add_argument("--threads", type=int, default=1)


def _add_packing(sub):
    p = sub.add_parser("packing", help="construct a lower-bound hypothesis family")
    p.add_argument("--regime", required=True, choices=["dense", "sparse"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--s", type=int, default=None, help="internal sparsity (sparse regime)")
    p.add_argument("--lambda", dest="lam", required=True, type=float)
    p.add_argument("--seed", type=int, default=None, help="code seed (sparse regime; default 0)")
    p.add_argument("--out", required=True, help="output JSON path")


def _add_verify(sub):
    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--family", default=None, help="packing family JSON (fano suite)")
    p.add_argument("--out", default=None, help="write the JSON array here instead of stdout")


def _add_bounds(sub):
    p = sub.add_parser("bounds", help="evaluate a theorem bound")
    p.add_argument("--kind", required=True, choices=list(THEOREM_KINDS))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--s", type=int, default=None, help="sparsity (thm3_upper and thm4_lower only)")
    p.add_argument("--lambda", dest="lam", required=True, type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixbench", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_rates(sub)
    _add_packing(sub)
    _add_verify(sub)
    _add_bounds(sub)
    return parser


def _fmt_from_path(path: str) -> str:
    fmt = path.rpartition(".")[2]
    if fmt in ("csv", "json"):
        return fmt
    raise MixbenchError(f"cannot infer format from {path!r}; use a .csv or .json extension")


def _cmd_simulate(args) -> int:
    fmt = _fmt_from_path(args.out)
    config = load_config(args.config)
    result = run_experiment(config, threads=args.threads)
    emit_report(result, fmt, args.out)
    return 0


def _cmd_rates(args) -> int:
    fmt = _fmt_from_path(args.out) if args.out else None
    config = load_config(args.config)
    if config.sweep_axis is None:
        raise MixbenchError("rates requires a config with a sweep block")
    result = run_experiment(config, threads=args.threads)
    report = {
        "axis": config.sweep_axis,
        "values": [s.axis_value for s in result.summary],
        "mean_losses": [s.mean_loss for s in result.summary],
        "std_errs": [s.std_err for s in result.summary],
        "fitted_slope": result.fitted_slope,
        "slope_ci95": list(result.slope_ci95) if result.slope_ci95 else None,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        emit_report(result, fmt, args.out)
    return 0


def _cmd_packing(args) -> int:
    family = lower_bound_family(args.regime, args.n, args.d, s=args.s, lam=args.lam, seed=args.seed)
    write_atomic(args.out, json_chunks(family_to_json_dict(family)))
    return 0


def _cmd_verify(args) -> int:
    if args.family and args.suite != "fano":
        raise ConfigError(f"--family applies to --suite fano only, not {args.suite}")
    if args.family:
        obj = read_json(args.family)
        try:
            family = family_from_json_dict(obj)
        except (ValueError, MixbenchError) as exc:  # ValueError: numpy on ragged codewords
            raise ConfigError(f"family file {args.family} is malformed: {exc!r}") from None
        entries = suite_fano([family])
    else:
        entries = SUITES[args.suite]()
    if args.out:
        write_atomic(args.out, json_chunks(entries))
    else:
        sys.stdout.writelines(json_chunks(entries))
    return 0 if all(e.get("holds", False) for e in entries) else 1


def _cmd_bounds(args) -> int:
    value = theorem_bound(args.kind, n=args.n, d=args.d, s=args.s, lam=args.lam)
    inputs = {"kind": args.kind, "n": args.n, "d": args.d, "s": args.s, "lambda": args.lam}
    print(json.dumps({**inputs, "bound_value": value, "vacuous": value > 0.5}, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "rates": _cmd_rates,
        "packing": _cmd_packing,
        "verify": _cmd_verify,
        "bounds": _cmd_bounds,
    }
    try:
        # Before any compute, so that no run ends in a write that cannot succeed.
        out = getattr(args, "out", None)
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise MixbenchError(f"cannot write {out}: its directory does not exist")
        if out and os.path.isdir(out):
            raise MixbenchError(f"cannot write {out}: it is a directory")
        return handlers[args.command](args)
    except MixbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
