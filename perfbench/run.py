"""busweaver benchmark: seeded corpora through the CLI path.

Run from the root of a busweaver checkout::

    python3 perfbench/run.py --workload rejected-sinks --seed 1 \\
        --seconds 30 --trace 0

The workloads and why each exists are in ``corpus.py``.  Every design
of the corpus is written to a ``.v`` file and handed to
``busweaver.reporting.process_design`` with ``check=True`` and
``write_output=True``: the CLI path (read, parse, vectorize, emit,
write, check) with the CLI's defaults, ``jobs=1``, in this one process
and thread.  Each design is timed from outside with ``perf_counter``.
Passes over the corpus repeat until ``--seconds`` is used up, at least
two of them.  A shared host's speed can drift by tens of percent from
one second to the next and from one minute to the next, so every
timing is scaled to a reference host speed by a fixed probe timed
around it (see ``hostspeed.py``; the as-measured figures print beside
the scaled ones), and every timing is a median: per-pass throughput
over passes, and each design's time over passes before the percentiles
over designs.

Correctness: every emitted ``.vec.v`` is re-parsed and simulated with
``busweaver.ir.simulate`` on seeded vectors against the closed form the
generator knows; a mismatch or a ``counterexample`` verdict makes the
run incorrect.  So does any pass whose counters, verdicts, instruction
counts or emitted bytes differ from the first pass.  A design counts as
failed when it raises (caught here, per design), is rejected, gets a
``counterexample`` or fails the reference check; ``ok_share`` is the
share that did not fail (``1 - fail_share``, so that it never reads 0).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends
half of ``--seconds`` on untraced passes and half on traced ones (see
``layers.py``), prints the per-layer table with the tracing overhead,
writes the spans to ``.perfbench/`` and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is 1 when the run is incorrect and 2 when the checkout has no busweaver
sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Fresh interpreters timed for ``setup_s`` (after one untimed start
#: that also fills ``__pycache__``).
SETUP_RUNS = 9
#: Random vectors per design for the reference check, besides all-zeros
#: and all-ones.
REF_VECTORS = 16
#: Upper limits on passes, which bound memory (traced spans above all)
#: should a corpus pass ever take far less than ``--seconds``.
MAX_PASSES = 40
MAX_TRACED_PASSES = 5

SETUP_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import busweaver.cli
import busweaver.reporting
busweaver.reporting.BatchOptions(check=True, write_output=True)
print("ready", flush=True)
sys.path.insert(0, sys.argv[2])
import hostspeed
print(hostspeed.probe(), flush=True)
"""

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("design_s.p50", "s"),
    ("design_s.p90", "s"),
    ("peak_rss_mb", "MiB"),
    ("reduction_pct", "%"),
    ("exhaustive_share", "ratio"),
    ("ok_share", "ratio"),
)


@dataclass
class Outcome:
    """One ``process_design`` call as seen from outside."""

    case: corpus.Case
    result: object | None
    crash: str | None
    seconds: float
    verdicts: dict | None

    def failure(self) -> str | None:
        """Why the design counts as failed, or ``None``."""
        if self.crash is not None:
            return self.crash
        r = self.result
        if r.error is not None:
            return "error: " + r.error.splitlines()[0]
        if r.equivalence == "counterexample":
            return "counterexample"
        if not r.ok:
            return "not ok"
        return None

    def fingerprint(self) -> tuple:
        """Everything that must repeat exactly from pass to pass."""
        r = self.result
        if r is None:
            return (self.case.name, self.crash)
        digest = None
        if r.output_path is not None:
            digest = hashlib.sha256(
                Path(r.output_path).read_bytes()).hexdigest()
        statuses = tuple(sorted(
            (name, v.status) for name, v in (self.verdicts or {}).items()))
        return (self.case.name, r.ok, r.error, r.instructions_before,
                r.instructions_after, r.rewrites,
                tuple(sorted(r.counters.items())), statuses, digest)


@dataclass
class Pass:
    """What one pass over the corpus leaves behind.  Only the first
    pass keeps its ``outcomes``; later ones keep this summary, so that
    memory does not grow with the number of passes."""

    wall: float
    seconds: list[float]
    raw_seconds: list[float]
    probes: list[float]
    failures: list[str | None]
    befores: list[int]
    fingerprints: list[tuple]
    results: Counter
    outcomes: list[Outcome] | None = None
    traced: bool = False
    layer_times: dict = field(default_factory=dict)
    layer_counts: Counter = field(default_factory=Counter)

    @property
    def ops_rate(self) -> float:
        """Instructions of the designs that did not fail, per second of
        the whole corpus's scaled time."""
        return sum(n for n, why in zip(self.befores, self.failures)
                   if why is None) / sum(self.seconds)


class VerdictTap:
    """Keeps the per-module verdicts of the last checked design; the
    CLI result only carries the worst one."""

    def __init__(self, reporting) -> None:
        self.last = None
        original = reporting.check_design_equivalence

        def tapped(*args, **kwargs):
            self.last = original(*args, **kwargs)
            return self.last

        reporting.check_design_equivalence = tapped

    def take(self) -> dict | None:
        last, self.last = self.last, None
        return last


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small design per family (for tests)")
    return parser.parse_args(argv)


def measure_setup() -> tuple[float, float]:
    """Median time from spawning a fresh interpreter until it has
    imported ``busweaver.cli`` and ``busweaver.reporting`` and says it
    is ready for a design: scaled by a host probe that the fresh
    interpreter runs right after, and as measured."""
    scaled, raw = [], []
    for run in range(SETUP_RUNS + 1):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        probe_s = proc.stdout.readline()
        _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {err.strip()}")
        if run:
            scaled.append(hostspeed.scale(elapsed, float(probe_s)))
            raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


def run_pass(reporting, tap: VerdictTap, cases, paths, options,
             keep: bool, tracer: layers.Tracer | None = None) -> Pass:
    outcomes = []
    first_span = len(tracer.spans) if tracer else 0
    started = time.perf_counter()
    probes = [hostspeed.probe()]
    for case, path in zip(cases, paths):
        if tracer is not None:
            tracer.trace_id += 1
        t0 = time.perf_counter()
        try:
            result, crash = reporting.process_design(path, options), None
        except Exception as exc:  # one bad design must not end the run
            result, crash = None, type(exc).__name__
        elapsed = time.perf_counter() - t0
        probes.append(hostspeed.probe())
        outcomes.append(Outcome(case, result, crash, elapsed, tap.take()))
    wall = time.perf_counter() - started
    raw = [o.seconds for o in outcomes]
    done = Pass(
        wall, [hostspeed.scale(t, (before + after) / 2)
               for t, before, after in zip(raw, probes, probes[1:])],
        raw, probes, [o.failure() for o in outcomes],
        [o.result.instructions_before if o.result else 0 for o in outcomes],
        [o.fingerprint() for o in outcomes], result_counts(outcomes),
        outcomes if keep else None,
    )
    if tracer is not None:
        # Spans nest inside designs, so the pass's own scale applies.
        factor = sum(done.seconds) / sum(raw)
        done.traced = True
        done.layer_times = {
            name: [calls, total * factor, self_s * factor]
            for name, (calls, total, self_s)
            in tracer.layer_times(first_span).items()
        }
        done.layer_counts = tracer.counts
        tracer.counts = Counter()
    return done


def run_passes(passes: list[Pass], budget: float, min_passes: int,
               max_passes: int, one_pass) -> None:
    """Append whole passes until their wall time is within half a pass
    of ``budget``, from ``min_passes`` to ``max_passes`` of them.  Only
    the very first pass keeps its outcomes."""
    new: list[Pass] = []
    while len(new) < max_passes:
        spent = sum(p.wall for p in new)
        if len(new) >= min_passes and spent * (1 + 0.5 / len(new)) >= budget:
            break
        new.append(one_pass(keep=not passes and not new))
    passes.extend(new)


def reference_check(case: corpus.Case, out_path: str, seed: int,
                    parse_design, simulate) -> str | None:
    """Re-parse the emitted design and compare its top module with the
    generator's closed form; returns a mismatch message or ``None``."""
    try:
        design = parse_design(Path(out_path).read_text(), filename=out_path)
        top = design.top_module
        ports = {p.name: p.width for p in top.input_ports}
        if ports != case.inputs:
            return f"input ports {ports}, expected {case.inputs}"
        rng = random.Random(f"{seed}:{case.name}")
        vectors = [{k: 0 for k in ports}, {k: (1 << w) - 1 for k, w in
                                           ports.items()}]
        vectors += [{k: rng.getrandbits(w) for k, w in ports.items()}
                    for _ in range(REF_VECTORS)]
        for v in vectors:
            got, want = simulate(top, v, design), case.expect(v)
            if got != want:
                return f"inputs {v}: got {got}, expected {want}"
    except Exception as exc:  # the emitted text is outside input here
        return f"{type(exc).__name__}: {exc}"
    return None


def result_counts(outcomes: list[Outcome]) -> Counter:
    """Per-pass sums of the program's own work counters and the chunks
    of width >= 2 that partial chunking found."""
    counts: Counter = Counter()
    for o in outcomes:
        if o.result is None:
            continue
        counts.update(o.result.counters)
        for sink in o.result.sinks:
            chunks = sink["chunks"]
            whole = (len(chunks) == 1 and chunks[0]["method"] != "scalar"
                     and chunks[0]["high"] - chunks[0]["low"] + 1
                     == sink["width"])
            if not whole:
                counts["partial_chunks"] += sum(
                    1 for c in chunks if c["high"] > c["low"])
    return counts


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    first = passes[0].outcomes
    # Each design's median over the passes damps the host's slow
    # periods; the percentiles then range over designs.
    times = [statistics.median(p.seconds[i] for p in passes)
             for i in range(len(first))]
    parsed = [o.result for o in first
              if o.result is not None and o.result.error is None]
    before = sum(r.instructions_before for r in parsed)
    after = sum(r.instructions_after for r in parsed)
    statuses = [v.status for o in first for v in (o.verdicts or {}).values()]
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(p.ops_rate for p in passes),
        "design_s.p50": statistics.median(times),
        "design_s.p90": statistics.quantiles(times, n=10,
                                             method="inclusive")[8],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reduction_pct": 100.0 * (before - after) / before if before else 0.0,
        "exhaustive_share": sum(
            1 for s in statuses if s.startswith("equivalent-exhaustive")
        ) / max(len(statuses), 1),
        "ok_share": passes[0].failures.count(None) / len(first),
    }


def median_layers(passes: list[Pass]) -> tuple[dict, dict]:
    """Per-layer metrics and span times, median over traced passes."""
    per_pass = [layers.layer_metrics(p.layer_times, p.layer_counts,
                                     p.results)
                for p in passes]
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    names = sorted({n for p in passes for n in p.layer_times})
    times = {
        n: [statistics.median(p.layer_times.get(n, (0, 0.0, 0.0))[k]
                              for p in passes) for k in range(3)]
        for n in names
    }
    return metrics, times


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "busweaver" / "__init__.py").is_file():
        print(f"perfbench: no busweaver sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args: argparse.Namespace, work: Path) -> int:
    cases = corpus.build(args.workload, args.seed, smoke=args.smoke)
    paths = []
    for case in cases:
        path = work / f"{case.name}.v"
        path.write_text(case.source)
        paths.append(str(path))
    setup_s, raw_setup_s = (0.0, 0.0) if args.trace else measure_setup()

    from busweaver import reporting
    from busweaver.frontend import parse_design
    from busweaver.ir import simulate

    tap = VerdictTap(reporting)
    options = reporting.BatchOptions(check=True, write_output=True,
                                     out_dir=str(work / "out"))
    for path in paths[:3]:  # warm-up: lazy set-up and allocator
        try:
            reporting.process_design(path, options)
        except Exception:
            pass  # the timed passes record this design's failure
        tap.take()

    def one_pass(keep: bool, tracer: layers.Tracer | None = None) -> Pass:
        return run_pass(reporting, tap, cases, paths, options, keep, tracer)

    passes: list[Pass] = []
    tracer = None
    if args.trace:
        run_passes(passes, args.seconds / 2, 1, MAX_PASSES, one_pass)
        tracer = layers.Tracer()
        tracer.install()
        try:
            run_passes(passes, args.seconds / 2, 1, MAX_TRACED_PASSES,
                       lambda keep: one_pass(keep, tracer))
        finally:
            tracer.uninstall()
    else:
        run_passes(passes, args.seconds, 2, MAX_PASSES, one_pass)

    problems: list[str] = []
    baseline = passes[0].fingerprints
    for k, p in enumerate(passes[1:], start=2):
        for case, want, got in zip(cases, baseline, p.fingerprints):
            if got != want:
                problems.append(f"pass {k} differs from pass 1 on"
                                f" {case.name}: nondeterministic output")
                break
    for i, o in enumerate(passes[0].outcomes):
        why = passes[0].failures[i]
        if why == "counterexample":
            problems.append(f"{o.case.name}: counterexample")
        if why is not None:
            continue
        bad = reference_check(o.case, o.result.output_path, args.seed,
                              parse_design, simulate)
        if bad is not None:
            problems.append(f"{o.case.name}: reference mismatch: {bad}")
            for p in passes:  # every pass emitted the same bytes
                p.failures[i] = "reference mismatch"
    failures = Counter(why for why in passes[0].failures if why is not None)

    attempted = sum(len(p.failures) for p in passes)
    failed = sum(1 for p in passes for why in p.failures if why is not None)
    n_designs = len(cases)
    measured = sum(p.wall for p in passes)
    print(f"perfbench {args.workload} seed={args.seed}: {n_designs} designs"
          f" x {len(passes)} passes, {measured:.2f} s measured ("
          + ", ".join(f"{p.wall:.2f}" for p in passes) + ")")
    probe_s = statistics.median(x for p in passes for x in p.probes)
    print(f"  host probe median {probe_s * 1e6:.1f} us, reference"
          f" {hostspeed.REFERENCE_S * 1e6:.1f} us: timings below are"
          f" scaled by {hostspeed.REFERENCE_S / probe_s:.3f}")
    print(f"  fail_share {sum(failures.values()) / n_designs:.4f}"
          f" ({sum(failures.values())} of {n_designs} designs per pass)")
    for why, n in sorted(failures.items()):
        print(f"  failed: {n} x {why}")
    digest = hashlib.sha256(repr(baseline).encode()).hexdigest()[:16]
    print(f"  output digest {digest} (pass 1: emitted bytes, counters,"
          f" verdicts)")
    for line in problems:
        print(f"  INCORRECT: {line}")

    if args.trace:
        traced = [p for p in passes if p.traced]
        metrics, times = median_layers(traced)
        plain = statistics.median(p.ops_rate for p in passes
                                  if not p.traced)
        with_trace = statistics.median(p.ops_rate for p in traced)
        design_wall = statistics.median(sum(p.seconds) for p in traced)
        layers.print_table(args.workload, times, metrics, design_wall,
                          tracer.missing)
        print(f"  tracing overhead: ops_per_s {plain:.1f} untraced,"
              f" {with_trace:.1f} traced"
              f" ({100 * (plain / with_trace - 1):+.1f}%)")
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"  {len(tracer.spans)} spans written to {spans_path}")
        units = {name: unit for name, unit, *_ in layers.LAYER_METRICS}
    else:
        metrics = end_to_end(passes, setup_s)
        raw = end_to_end([replace(p, seconds=p.raw_seconds)
                          for p in passes], raw_setup_s)
        units = dict(END_TO_END)
        print(f"  {'':15s} {'metric':17s} {'scaled':>14s} {'unit':7s}"
              f" {'as measured':>14s}")
        for name, unit in END_TO_END:
            print(f"  {args.workload:15s} {name:17s} {metrics[name]:14.6g}"
                  f" {unit:7s} {raw[name]:14.6g}")

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
