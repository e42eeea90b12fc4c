"""Batch driver: single runs, fault-injection campaigns, scaling sweeps.

Exit codes: 0 the run passed every per-run verdict of `experiments.judge`,
1 some verdict failed (each printed to stderr as `criterion: message`),
2 step budget exhausted, 3 input error (a malformed command line included),
printed to stderr as one `error: message` line.  A sweep exits 2 when a
row exhausted its budget, else 1 when a row failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys

from .configs import ConfigError
from .experiments import (
    FAMILIES,
    DescriptorError,
    _field,
    _is_int,
    judge,
    load_descriptor,
    run_descriptor,
    run_with_corruption,
    summary_record,
    sweep_rows,
    trace_jsonl,
    write_sweep_csv,
)
from .graphs import GraphError
from .runtime import ScheduleError

log = logging.getLogger("stabsim")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3


def _emit(result, out_dir: str | None, name: str) -> int:
    summary = summary_record(result)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{name}.trace.jsonl"), "w", encoding="utf-8") as f:
            f.write(trace_jsonl(result))
        with open(os.path.join(out_dir, f"{name}.report.json"), "w", encoding="utf-8") as f:
            json.dump(result.report.to_json(), f, indent=2, sort_keys=True)
            f.write("\n")
    print(json.dumps(summary, sort_keys=True))
    failures = judge(result).failures
    for criterion, message in failures:
        print(f"{criterion}: {message}", file=sys.stderr)
    if not result.trace.terminated:
        return EXIT_BUDGET
    return EXIT_INVALID if failures else EXIT_OK


def cmd_run(args) -> int:
    desc = load_descriptor(args.descriptor)
    result = run_descriptor(desc)
    return _emit(result, args.out_dir, "run")


def cmd_inject(args) -> int:
    desc = load_descriptor(args.descriptor)
    # Text starting with { or [ is inline JSON (an array is refused below),
    # anything else a spec file's path.
    try:
        if args.corrupt.lstrip()[:1] in ("{", "["):
            spec = json.loads(args.corrupt)
        else:
            with open(args.corrupt, "r", encoding="utf-8") as f:
                spec = json.load(f)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"--corrupt: not valid JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise DescriptorError("a corruption spec must be a JSON object")
    variables = _field(
        spec, "variables", None,
        lambda x: isinstance(x, list) and all(isinstance(name, str) for name in x),
        "a list of variable names")
    def natural(x):
        return _is_int(x) and x >= 0

    count = _field(spec, "count", None, natural, "an integer >= 0")
    if count > 0 and not variables:
        raise DescriptorError(f"'variables' is empty, so 'count' {count} would corrupt nothing")
    seed = _field(spec, "seed", 0, natural, "an integer >= 0")
    at_step = _field(spec, "at_step", 0, natural, "an integer >= 0")
    result = run_with_corruption(desc, tuple(variables), count, seed, at_step)
    return _emit(result, args.out_dir, "inject")


def _parse_range(flag: str, text: str) -> list[int]:
    """The values of `flag`: a range lo:hi[:step] with hi included, or a
    list a,b,c."""
    try:
        if ":" not in text:
            return [int(x) for x in text.split(",")]
        parts = [int(x) for x in text.split(":")]
    except ValueError:
        raise ValueError(f"{flag} {text}: not a range lo:hi[:step] or a list a,b,c") from None
    if len(parts) not in (2, 3):
        raise ValueError(f"{flag} {text}: a range is lo:hi or lo:hi:step")
    lo, hi, step = parts if len(parts) == 3 else (*parts, 1)
    if step <= 0:
        raise ValueError(f"{flag} {text}: the step of a range must be positive")
    return list(range(lo, hi + 1, step))


def _log_level(text: str) -> int:
    """The logging level a name gives, in any case."""
    level = logging.getLevelName(text.upper())
    if not isinstance(level, int):
        raise ValueError(f"STABSIM_LOG={text}: not a log level (DEBUG, INFO, WARNING,"
                         " ERROR or CRITICAL)")
    return level


def cmd_sweep(args) -> int:
    ns = _parse_range("--n", args.n)
    ks = _parse_range("--k", args.k)
    seeds = list(range(args.seeds))
    for flag, text, values in (("--n", args.n, ns), ("--k", args.k, ks),
                               ("--seeds", args.seeds, seeds)):
        if not values:
            raise ValueError(f"{flag} {text} selects no value: the sweep would run nothing")
    if args.max_steps is not None and args.max_steps <= 0:
        raise ValueError(f"--max-steps {args.max_steps}: the step budget must be positive")
    # Open --out before the sweep, which may run for long, for appending: a
    # failed sweep leaves an existing file as it was and removes a new one.
    created = bool(args.out) and not os.path.exists(args.out)
    out = open(args.out, "a", encoding="utf-8", newline="") if args.out else None
    try:
        rows = sweep_rows(args.family, ns, ks, seeds, args.max_steps)
    except BaseException:
        if out is not None:
            out.close()
            if created:
                os.remove(args.out)
        raise
    with out or contextlib.nullcontext(sys.stdout) as stream:
        if out is not None and os.path.isfile(args.out):
            stream.truncate(0)
        write_sweep_csv(rows, stream)
    failed = [r for r in rows if r["verdict"] != "ok"]
    for r in failed:
        log.error("failed: %s", r)
    if any(r["verdict"] == "budget" for r in failed):
        return EXIT_BUDGET
    return EXIT_INVALID if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an input error, not with
    argparse's exit status 2, which here means an exhausted budget."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stabsim",
        description="Self-stabilizing grouping simulator and verdict suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one run descriptor")
    p_run.add_argument("descriptor")
    p_run.add_argument("--out-dir", default=None)
    p_run.set_defaults(func=cmd_run)

    p_inj = sub.add_parser("inject", help="run, corrupt mid-flight, re-verify")
    p_inj.add_argument("descriptor")
    p_inj.add_argument("--corrupt", required=True,
                       help="JSON spec or path: variables, count, seed, at_step")
    p_inj.add_argument("--out-dir", default=None)
    p_inj.set_defaults(func=cmd_inject)

    p_sw = sub.add_parser("sweep", help="instance sweep to CSV")
    p_sw.add_argument("--family", required=True, choices=list(FAMILIES))
    p_sw.add_argument("--n", required=True, help="range lo:hi[:step] or list a,b,c")
    p_sw.add_argument("--k", required=True, help="range or list")
    p_sw.add_argument("--seeds", type=int, default=5)
    p_sw.add_argument("--max-steps", type=int, default=None)
    p_sw.add_argument("--out", default=None)
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(level=_log_level(os.environ.get("STABSIM_LOG", "WARNING")))
        return args.func(args)
    except (DescriptorError, GraphError, ConfigError, ScheduleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
