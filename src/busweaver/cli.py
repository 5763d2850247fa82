"""Command line entry point.

Each input file is parsed, vectorized, and written next to the input
(or into ``--out``) as ``<stem>.vec.v``.  With ``--check`` every
rewrite is validated against the original by simulation.  Exit status
is 0 only when every design parsed, verified, and (when checked)
stayed equivalent.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from busweaver.reporting import (
    DEFAULT_SWEEP_THRESHOLDS,
    BatchOptions,
    run_batch,
    threshold_sweep,
    write_csv_report,
    write_json_report,
)


def _thresholds(text: str) -> tuple[int, ...]:
    """``--sweep``'s value: integers separated by commas, at least one;
    empty entries are skipped."""
    try:
        thresholds = tuple(int(t) for t in text.split(",") if t)
    except ValueError:
        thresholds = ()
    if not thresholds:
        raise argparse.ArgumentTypeError(
            f"expected integers separated by commas, found {text!r}")
    return thresholds


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, found {text!r}")
    return value


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    defaults = BatchOptions()
    parser = argparse.ArgumentParser(
        prog="busweaver",
        description="Vectorize replicated bit-level logic in "
                    "combinational Verilog.",
    )
    parser.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="Verilog source files (directories expand to *.v inside)",
    )
    parser.add_argument(
        "--out", metavar="DIR",
        help="directory for rewritten designs (default: next to input)",
    )
    parser.add_argument(
        "--inline-threshold", type=int, default=defaults.inline_threshold,
        metavar="N",
        help="max callee instruction count eligible for inlining "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--no-inline", action="store_true",
        help="disable selective inlining",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="verify each rewrite against the original by simulation",
    )
    parser.add_argument(
        "--max-exhaustive-bits", type=int,
        default=defaults.max_exhaustive_bits, metavar="N",
        help="exhaustive equivalence check up to this many input bits "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--samples", type=_non_negative, default=defaults.samples,
        metavar="N",
        help="random vectors for sampled equivalence "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=defaults.seed, metavar="N",
        help="seed for sampled equivalence vectors (default %(default)s)",
    )
    parser.add_argument(
        "--report", metavar="FILE",
        help="write a JSON report to FILE",
    )
    parser.add_argument(
        "--csv", metavar="FILE",
        help="write a per-design CSV table to FILE",
    )
    parser.add_argument(
        "--sweep", nargs="?", type=_thresholds,
        const=DEFAULT_SWEEP_THRESHOLDS, metavar="T1,T2,...",
        help="rerun at several inline thresholds and print a table "
             "(default %s)" % ",".join(
                 str(t) for t in DEFAULT_SWEEP_THRESHOLDS),
    )
    parser.add_argument(
        "--jobs", type=int, default=defaults.jobs, metavar="N",
        help="process designs in N parallel workers",
    )
    return parser.parse_args(argv)


def _expand_paths(raw: list[str]) -> list[str]:
    paths: list[str] = []
    for entry in raw:
        p = Path(entry)
        if p.is_dir():
            paths.extend(str(f) for f in sorted(p.glob("*.v")))
        else:
            paths.append(entry)
    return paths


def _print_result(result, check: bool) -> None:
    if result.error is not None:
        print(f"{result.path}: error", file=sys.stderr)
        for line in result.error.splitlines():
            print(f"  {line}", file=sys.stderr)
        return
    before, after = result.instructions_before, result.instructions_after
    if after < before:
        detail = (
            f"{before} -> {after} ops "
            f"(-{result.reduction_percent:.1f}%, {result.category}, "
            f"{result.rewrites} rewrites)"
        )
    elif result.rewrites:
        detail = f"{before} -> {after} ops ({result.rewrites} rewrites)"
    else:
        detail = f"{before} ops, unchanged"
    if check and result.equivalence:
        detail += f" [{result.equivalence}]"
    if result.output_path:
        detail += f" -> {result.output_path}"
    print(f"{result.path}: {detail}")


def _print_sweep(sweep) -> None:
    print(f"{'threshold':>9}  {'rewrites':>8}  {'reduced':>7}  "
          f"{'ops after':>9}  {'mean cut %':>10}")
    for row in sweep.rows:
        print(f"{row.threshold:>9}  {row.rewrites:>8}  "
              f"{row.designs_reduced:>7}  "
              f"{row.total_instructions_after:>9}  "
              f"{row.mean_reduction_percent:>10.1f}")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    paths = _expand_paths(args.paths)
    if not paths:
        print("no input files", file=sys.stderr)
        return 1

    options = BatchOptions(
        inline_threshold=args.inline_threshold,
        no_inline=args.no_inline,
        check=args.check,
        max_exhaustive_bits=args.max_exhaustive_bits,
        samples=args.samples,
        seed=args.seed,
        jobs=args.jobs,
        out_dir=args.out,
        write_output=True,
    )
    report = run_batch(paths, options)
    for result in report.results:
        _print_result(result, args.check)

    summary = report.summary
    if summary["parsed"] > 1:
        print(
            f"{summary['parsed']} designs: {summary['reduced']} reduced, "
            f"{summary['increased']} increased, "
            f"{summary['unchanged']} unchanged; "
            f"mean cut {summary['mean_reduction_percent']:.1f}%, "
            f"median {summary['median_reduction_percent']:.1f}%"
        )

    sweep = None
    if args.sweep is not None:
        sweep = threshold_sweep(paths, args.sweep, options)
        _print_sweep(sweep)

    if args.report:
        write_json_report(args.report, report, options, sweep)
    if args.csv:
        write_csv_report(args.csv, report)

    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
