"""Batch runs, threshold sweeps, scaling probes, and report formats.

A batch run processes each input file independently (optionally in
parallel worker processes): parse, vectorize, emit, and optionally
check equivalence.  Results aggregate into a JSON-friendly report with
stable field names (``schema_version`` 1) and an optional CSV table.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

from busweaver.emitter import emit_design
from busweaver.frontend import ParseError, parse_design
from busweaver.generators import scaling_design
from busweaver.inliner import InlinePolicy
from busweaver.oracle import check_design_equivalence
from busweaver.pipeline import PassCounters, VectorizationError, run_pipeline

SCHEMA_VERSION = 1

DEFAULT_SWEEP_THRESHOLDS = (30, 75, 150, 200, 300, 400)
DEFAULT_SCALING_TARGETS = (100, 1000, 10000, 100000)


@dataclass
class BatchOptions:
    inline_threshold: int = 150
    no_inline: bool = False
    check: bool = False
    max_exhaustive_bits: int = 16
    samples: int = 10000
    seed: int = 0
    jobs: int = 1
    out_dir: str | None = None
    write_output: bool = False


@dataclass
class DesignResult:
    path: str
    ok: bool
    error: str | None = None
    instructions_before: int = 0
    instructions_after: int = 0
    reduction_percent: float = 0.0
    rewrites: int = 0
    category: str | None = None
    sinks: list[dict] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    inlined_sites: int = 0
    equivalence: str | None = None
    output_path: str | None = None
    seconds: float = 0.0


def _design_category(sink_categories: list[str]) -> str | None:
    if not sink_categories:
        return None
    kinds = set(sink_categories)
    if kinds == {"bit-level"}:
        return "bit-level"
    if kinds == {"structural"}:
        return "structural"
    return "mixed"


def _worst_equivalence(statuses: list[str]) -> str | None:
    if not statuses:
        return None
    for bad in ("counterexample", "equivalent-sampled"):
        if bad in statuses:
            return bad
    return "equivalent-exhaustive"


def process_design(path: str, options: BatchOptions) -> DesignResult:
    """Run the pipeline on one file.  Never raises: failures come back
    as a result with ``ok`` False and the diagnostics in ``error``.  An
    exception nothing else anticipates reads ``internal error: <type>``;
    the type only, because a message such as a RecursionError's depends
    on which frame hit the limit.  The traceback goes to this module's
    logger at debug level."""
    started = time.perf_counter()
    try:
        result = _process(path, options)
    except Exception as exc:  # the last resort: the batch goes on
        logging.getLogger(__name__).debug("internal error in %s", path,
                                          exc_info=True)
        result = DesignResult(path=path, ok=False,
                              error=f"internal error: {type(exc).__name__}")
    result.seconds = time.perf_counter() - started
    return result


def _process(path: str, options: BatchOptions) -> DesignResult:
    result = DesignResult(path=path, ok=False)
    try:
        src = Path(path).read_text()
    except OSError as exc:
        result.error = str(exc)
        return result
    try:
        design = parse_design(src, filename=path)
    except ParseError as exc:
        result.error = "\n".join(str(d) for d in exc.diagnostics)
        return result

    counters = PassCounters()
    policy = InlinePolicy(
        enabled=not options.no_inline, threshold=options.inline_threshold
    )
    try:
        out, report = run_pipeline(design, policy, counters)
    except VectorizationError as exc:
        result.error = "\n".join(exc.violations)
        return result

    result.instructions_before = report.instructions_before
    result.instructions_after = report.instructions_after
    result.reduction_percent = round(report.reduction_percent, 4)
    result.rewrites = len(report.rewrites)
    result.category = _design_category(
        [s.category for s in report.rewrites if s.category]
    )
    result.sinks = [
        {
            "module": s.module,
            "sink": s.sink,
            "width": s.width,
            "changed": s.changed,
            "category": s.category,
            "chunks": [
                {"high": c.high, "low": c.low, "method": c.method}
                for c in s.chunks
            ],
        }
        for s in report.sinks
    ]
    result.counters = asdict(report.counters)
    result.inlined_sites = sum(1 for d in report.inline_log if d.inlined)

    if options.check:
        verdicts = check_design_equivalence(
            design, out,
            max_exhaustive_bits=options.max_exhaustive_bits,
            samples=options.samples, seed=options.seed,
        )
        result.equivalence = _worst_equivalence(
            [v.status for v in verdicts.values()]
        )

    if options.write_output:
        in_path = Path(path)
        out_name = in_path.stem + ".vec.v"
        out_dir = Path(options.out_dir) if options.out_dir \
            else in_path.parent
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / out_name
        out_path.write_text(emit_design(out))
        result.output_path = str(out_path)

    result.ok = result.equivalence != "counterexample"
    return result


def _process_star(args: tuple[str, BatchOptions]) -> DesignResult:
    return process_design(*args)


@dataclass
class BatchReport:
    results: list[DesignResult]
    summary: dict

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def summarize(results: list[DesignResult]) -> dict:
    parsed = [r for r in results if r.error is None]
    reduced = [
        r for r in parsed
        if r.instructions_after < r.instructions_before
    ]
    increased = [
        r for r in parsed
        if r.instructions_after > r.instructions_before
    ]
    unchanged = [
        r for r in parsed
        if r.instructions_after == r.instructions_before
    ]
    cuts = [r.reduction_percent for r in reduced]
    categories: dict[str, int] = {}
    for r in parsed:
        if r.category:
            categories[r.category] = categories.get(r.category, 0) + 1
    return {
        "designs": len(results),
        "parsed": len(parsed),
        "failed": len(results) - len(parsed),
        "reduced": len(reduced),
        "increased": len(increased),
        "unchanged": len(unchanged),
        "mean_reduction_percent": round(statistics.mean(cuts), 4)
        if cuts else 0.0,
        "median_reduction_percent": round(statistics.median(cuts), 4)
        if cuts else 0.0,
        "total_instructions_before": sum(
            r.instructions_before for r in parsed
        ),
        "total_instructions_after": sum(
            r.instructions_after for r in parsed
        ),
        "total_rewrites": sum(r.rewrites for r in parsed),
        "categories": categories,
        "equivalence_failures": sum(
            1 for r in results if r.equivalence == "counterexample"
        ),
    }


def run_batch(paths: list[str], options: BatchOptions | None = None) \
        -> BatchReport:
    """Process every path (in input order) and aggregate a summary."""
    options = options or BatchOptions()
    if options.jobs > 1 and len(paths) > 1:
        with ProcessPoolExecutor(max_workers=options.jobs) as pool:
            results = list(
                pool.map(_process_star, [(p, options) for p in paths])
            )
    else:
        results = [process_design(p, options) for p in paths]
    return BatchReport(results, summarize(results))


@dataclass
class SweepRow:
    threshold: int
    rewrites: int
    designs_reduced: int
    total_instructions_after: int
    mean_reduction_percent: float


@dataclass
class SweepResult:
    thresholds: list[int]
    rows: list[SweepRow]

    @property
    def rewrite_counts(self) -> list[int]:
        return [row.rewrites for row in self.rows]


def threshold_sweep(
    paths: list[str],
    thresholds: tuple[int, ...] = DEFAULT_SWEEP_THRESHOLDS,
    options: BatchOptions | None = None,
) -> SweepResult:
    """Re-run the batch at each inline threshold.  Raising the
    threshold can only expose more structure, so rewrite counts are
    nondecreasing in the threshold on a fixed corpus."""
    base = options or BatchOptions()
    rows = []
    for threshold in thresholds:
        opts = BatchOptions(
            inline_threshold=threshold,
            no_inline=False,
            check=base.check,
            max_exhaustive_bits=base.max_exhaustive_bits,
            samples=base.samples,
            seed=base.seed,
            jobs=base.jobs,
        )
        report = run_batch(paths, opts)
        rows.append(SweepRow(
            threshold,
            report.summary["total_rewrites"],
            report.summary["reduced"],
            report.summary["total_instructions_after"],
            report.summary["mean_reduction_percent"],
        ))
    return SweepResult(list(thresholds), rows)


@dataclass
class ScalingPoint:
    op_target: int
    instructions: int
    seconds: float


@dataclass
class ScalingResult:
    points: list[ScalingPoint]
    slope: float
    r_squared: float
    total_seconds: float


def scaling_probe(
    op_targets: tuple[int, ...] = DEFAULT_SCALING_TARGETS,
    min_seconds: float = 0.05,
) -> ScalingResult:
    """Measure pipeline runtime against design size and fit a log-log
    line.  Parsing and one warm-up run per size are excluded.  Each
    size is then run until the runs add up to ``min_seconds`` (at most
    1000 runs), each run timed on its own, and the fastest is kept: a
    slow run is the host's noise, not the program's cost."""
    points: list[ScalingPoint] = []
    total_started = time.perf_counter()
    for target in op_targets:
        design = parse_design(scaling_design(target))
        _, report = run_pipeline(design)
        best = math.inf
        spent = 0.0
        for _ in range(1000):
            started = time.perf_counter()
            run_pipeline(design)
            elapsed = time.perf_counter() - started
            best = min(best, elapsed)
            spent += elapsed
            if spent >= min_seconds:
                break
        points.append(ScalingPoint(
            target, report.instructions_before, best
        ))
    xs = [math.log10(p.instructions) for p in points]
    ys = [math.log10(max(p.seconds, 1e-9)) for p in points]
    slope, _ = statistics.linear_regression(xs, ys)
    r = statistics.correlation(xs, ys)
    # an exact fit (two points) can round r * r to just above 1
    return ScalingResult(
        points, slope, min(r * r, 1.0), time.perf_counter() - total_started
    )


def report_to_dict(
    report: BatchReport,
    options: BatchOptions,
    sweep: SweepResult | None = None,
) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "options": asdict(options),
        "summary": report.summary,
        "designs": [asdict(r) for r in report.results],
    }
    if sweep is not None:
        doc["sweep"] = {
            "thresholds": sweep.thresholds,
            "rows": [asdict(row) for row in sweep.rows],
        }
    return doc


def write_json_report(
    path: str,
    report: BatchReport,
    options: BatchOptions,
    sweep: SweepResult | None = None,
) -> None:
    doc = report_to_dict(report, options, sweep)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def write_csv_report(path: str, report: BatchReport) -> None:
    columns = [
        "path", "ok", "instructions_before", "instructions_after",
        "reduction_percent", "rewrites", "category", "equivalence",
        "seconds",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in report.results:
            writer.writerow([
                r.path, r.ok, r.instructions_before,
                r.instructions_after, r.reduction_percent, r.rewrites,
                r.category or "", r.equivalence or "",
                f"{r.seconds:.6f}",
            ])
