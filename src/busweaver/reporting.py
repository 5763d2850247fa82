"""Batch runs, threshold sweeps, and report formats.

A batch run processes each input file independently (optionally in
parallel worker processes): parse, vectorize, emit, and optionally
check equivalence.  Results aggregate into a JSON-friendly report with
stable field names (``schema_version`` 1) and an optional CSV table.

Start-up dominates a run on one design, so four imports wait for the
branch that needs them: ``concurrent.futures`` (with ``multiprocessing``
behind it) for ``jobs > 1``, ``logging`` for an internal error, ``json``
for ``--report`` and ``csv`` for ``--csv``.  Everything a default or a
``--check`` run executes stays at module level, ``statistics`` and the
oracle included: deferring those would only move their cost into the
first design.  No module on the CLI path uses the standard library's
data-class decorator: importing its module costs 11-15 ms (it pulls in
``inspect``) and each decorated class about 1 ms more, on every start.
Records are slotted classes, or NamedTuples where immutable, and the
report reads their fields from ``__slots__`` in declaration order.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from busweaver.emitter import emit_design
from busweaver.frontend import ParseError, parse_design
from busweaver.inliner import DEFAULT_INLINE_THRESHOLD, InlinePolicy
from busweaver.oracle import (
    DEFAULT_MAX_EXHAUSTIVE_BITS,
    DEFAULT_SAMPLES,
    check_design_equivalence,
)
from busweaver.pipeline import PassCounters, VectorizationError, run_pipeline

SCHEMA_VERSION = 1

DEFAULT_SWEEP_THRESHOLDS = (30, 75, 150, 200, 300, 400)


def _fields(record) -> dict:
    """A record's fields by name, in declaration order: the shape each
    record takes in the JSON report."""
    return {name: getattr(record, name) for name in record.__slots__}


class BatchOptions:
    __slots__ = ("inline_threshold", "no_inline", "check",
                 "max_exhaustive_bits", "samples", "seed", "jobs", "out_dir",
                 "write_output")

    def __init__(
        self,
        inline_threshold: int = DEFAULT_INLINE_THRESHOLD,
        no_inline: bool = False,
        check: bool = False,
        max_exhaustive_bits: int = DEFAULT_MAX_EXHAUSTIVE_BITS,
        samples: int = DEFAULT_SAMPLES,
        seed: int = 0,
        jobs: int = 1,
        out_dir: str | None = None,
        write_output: bool = False,
    ) -> None:
        self.inline_threshold = inline_threshold
        self.no_inline = no_inline
        self.check = check
        self.max_exhaustive_bits = max_exhaustive_bits
        self.samples = samples
        self.seed = seed
        self.jobs = jobs
        self.out_dir = out_dir
        self.write_output = write_output


class DesignResult:
    __slots__ = ("path", "ok", "error", "instructions_before",
                 "instructions_after", "reduction_percent", "rewrites",
                 "category", "sinks", "counters", "inlined_sites",
                 "equivalence", "output_path", "seconds")

    def __init__(
        self,
        path: str,
        ok: bool,
        error: str | None = None,
        instructions_before: int = 0,
        instructions_after: int = 0,
        reduction_percent: float = 0.0,
        rewrites: int = 0,
        category: str | None = None,
        sinks: list[dict] | None = None,
        counters: dict | None = None,
        inlined_sites: int = 0,
        equivalence: str | None = None,
        output_path: str | None = None,
        seconds: float = 0.0,
    ) -> None:
        self.path = path
        self.ok = ok
        self.error = error
        self.instructions_before = instructions_before
        self.instructions_after = instructions_after
        self.reduction_percent = reduction_percent
        self.rewrites = rewrites
        self.category = category
        self.sinks = [] if sinks is None else sinks
        self.counters = {} if counters is None else counters
        self.inlined_sites = inlined_sites
        self.equivalence = equivalence
        self.output_path = output_path
        self.seconds = seconds


def _design_category(sink_categories: list[str]) -> str | None:
    if not sink_categories:
        return None
    kinds = set(sink_categories)
    return kinds.pop() if len(kinds) == 1 else "mixed"


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
        import logging

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
    result.counters = _fields(report.counters)
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


class BatchReport:
    __slots__ = ("results", "summary")

    def __init__(self, results: list[DesignResult], summary: dict) -> None:
        self.results = results
        self.summary = summary

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
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=options.jobs) as pool:
            results = list(
                pool.map(_process_star, [(p, options) for p in paths])
            )
    else:
        results = [process_design(p, options) for p in paths]
    return BatchReport(results, summarize(results))


class SweepRow:
    __slots__ = ("threshold", "rewrites", "designs_reduced",
                 "total_instructions_after", "mean_reduction_percent")

    def __init__(self, threshold: int, rewrites: int, designs_reduced: int,
                 total_instructions_after: int,
                 mean_reduction_percent: float) -> None:
        self.threshold = threshold
        self.rewrites = rewrites
        self.designs_reduced = designs_reduced
        self.total_instructions_after = total_instructions_after
        self.mean_reduction_percent = mean_reduction_percent


class SweepResult:
    __slots__ = ("thresholds", "rows")

    def __init__(self, thresholds: list[int], rows: list[SweepRow]) -> None:
        self.thresholds = thresholds
        self.rows = rows


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
        opts = BatchOptions(**{
            **_fields(base), "inline_threshold": threshold,
            "no_inline": False, "out_dir": None, "write_output": False})
        report = run_batch(paths, opts)
        rows.append(SweepRow(
            threshold,
            report.summary["total_rewrites"],
            report.summary["reduced"],
            report.summary["total_instructions_after"],
            report.summary["mean_reduction_percent"],
        ))
    return SweepResult(list(thresholds), rows)


def report_to_dict(
    report: BatchReport,
    options: BatchOptions,
    sweep: SweepResult | None = None,
) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "options": _fields(options),
        "summary": report.summary,
        "designs": [_fields(r) for r in report.results],
    }
    if sweep is not None:
        doc["sweep"] = {
            "thresholds": sweep.thresholds,
            "rows": [_fields(row) for row in sweep.rows],
        }
    return doc


def write_json_report(
    path: str,
    report: BatchReport,
    options: BatchOptions,
    sweep: SweepResult | None = None,
) -> None:
    import json

    doc = report_to_dict(report, options, sweep)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def write_csv_report(path: str, report: BatchReport) -> None:
    import csv

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
