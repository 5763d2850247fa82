"""Outside-in tracing of busweaver's layers for the benchmark.

The tracer wraps the public entry points of each module by assigning
to the module or class attributes that callers look up at call time
(``busweaver.pipeline.detect_permutation``,
``busweaver.oracle.simulate_packed``, ...).  Nothing under ``src/``
knows about it.  Every wrapped call records a span (name, start, end,
parent span, trace id: one per design) and bumps the counts that its
observer reads off the call's arguments or result.  Spans stay in
memory; the benchmark reduces them to per-layer totals and self time
after each pass and writes them out when it ends.

A layer's self time is its span's duration minus that of its direct
child spans.  Everything runs on one thread, so every span lies on the
blocking path of its design, and a layer's share of that path is its
time over the summed wall time of the designs.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path

#: (span name, module, attribute) of every wrapped entry point.  The
#: module is the one whose attribute the caller looks up, which is not
#: always the one that defines the function.
ENTRY_POINTS = (
    ("reporting.process_design", "busweaver.reporting", "process_design"),
    ("frontend.parse_design", "busweaver.reporting", "parse_design"),
    ("ir.verify", "busweaver.frontend", "ir_verify"),
    ("ir.verify", "busweaver.pipeline", "verify"),
    ("pipeline.run_pipeline", "busweaver.reporting", "run_pipeline"),
    ("pipeline.vectorize_output", "busweaver.pipeline", "vectorize_output"),
    ("inliner.selective_inline", "busweaver.pipeline", "selective_inline"),
    ("permutation.detect_permutation", "busweaver.pipeline",
     "detect_permutation"),
    ("cones.backward_cone", "busweaver.pipeline", "backward_cone"),
    ("cones.is_independent", "busweaver.pipeline", "is_independent"),
    ("cones.is_isomorphic", "busweaver.pipeline", "is_isomorphic"),
    ("rewrite.compact_module", "busweaver.rewrite", "compact_module"),
    ("rewrite.finish", "busweaver.rewrite", "ModuleRewriter.finish"),
    ("rewrite.replace_uses", "busweaver.rewrite",
     "ModuleRewriter.replace_uses"),
    ("emitter.emit_design", "busweaver.reporting", "emit_design"),
    ("oracle.check_design_equivalence", "busweaver.reporting",
     "check_design_equivalence"),
    ("oracle.check_equivalence", "busweaver.oracle", "check_equivalence"),
    ("ir.simulate_packed", "busweaver.oracle", "simulate_packed"),
)


def _observe_parse(counts: Counter, args: tuple, result) -> None:
    counts["src_bytes"] += len(args[0].encode())


def _observe_detect(counts: Counter, args: tuple, result) -> None:
    counts["detect_hits"] += result is not None


def _observe_inline(counts: Counter, args: tuple, result) -> None:
    if result is None:
        return
    for decision in result[1]:
        if decision.inlined:
            counts["sites_inlined"] += 1
        else:
            counts["sites_declined"] += 1


def _observe_emit(counts: Counter, args: tuple, result) -> None:
    if result is not None:
        counts["bytes_out"] += len(result.encode())


def _observe_check(counts: Counter, args: tuple, result) -> None:
    if result is not None:
        counts["vectors"] += sum(v.vectors_tested for v in result.values())


_OBSERVERS = {
    "frontend.parse_design": _observe_parse,
    "permutation.detect_permutation": _observe_detect,
    "inliner.selective_inline": _observe_inline,
    "emitter.emit_design": _observe_emit,
    "oracle.check_design_equivalence": _observe_check,
}


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, trace id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.trace_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module, attr in ENTRY_POINTS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                # A later refactor may move an entry point; its layer
                # then reads zero and the table names what is missing.
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(name, original))
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.trace_id]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if observe is not None:
                    observe(tracer.counts, args, result)

        traced.__wrapped__ = fn
        return traced

    def layer_times(self, first: int = 0) -> dict[str, list]:
        """``{span name: [calls, total s, self s]}`` over the spans
        recorded from index ``first`` on."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= first:
                child[span[3] - first] += span[2] - span[1]
        out: dict[str, list] = {}
        for span, inner in zip(spans, child):
            row = out.setdefault(span[0], [0, 0.0, 0.0])
            dur = span[2] - span[1]
            row[0] += 1
            row[1] += dur
            row[2] += dur - inner
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, trace in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "trace": trace,
                }) + "\n")


def _total(times: dict, *names: str) -> float:
    return sum(times.get(n, (0, 0.0, 0.0))[1] for n in names)


def _self(times: dict, name: str) -> float:
    return times.get(name, (0, 0.0, 0.0))[2]


def _calls(times: dict, name: str) -> int:
    return times.get(name, (0, 0.0, 0.0))[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: (metric, unit, better, what it should move, value from
#: (span times, observer counts, result counts)).  Times and counts are
#: per pass over the corpus.
LAYER_METRICS = (
    ("frontend.parse_s", "s", "lower",
     "design_s.p50, ops_per_s on wide-flat",
     lambda t, c, r: _total(t, "frontend.parse_design")),
    ("frontend.src_bytes_per_s", "B/s", "higher",
     "design_s.p50, ops_per_s on wide-flat",
     lambda t, c, r: _ratio(c["src_bytes"],
                            _total(t, "frontend.parse_design"))),
    ("ir.verify_s", "s", "lower", "ops_per_s on wide-flat",
     lambda t, c, r: _total(t, "ir.verify")),
    ("ir.simulate_packed_s", "s", "lower", "ops_per_s on wide-flat",
     lambda t, c, r: _total(t, "ir.simulate_packed")),
    ("rewrite.compact_s", "s", "lower",
     "ops_per_s, design_s.p90 on many-sinks",
     lambda t, c, r: _total(t, "rewrite.compact_module")),
    ("rewrite.finish_calls", "count", "lower",
     "ops_per_s, design_s.p90 on many-sinks",
     lambda t, c, r: _calls(t, "rewrite.finish")),
    ("rewrite.finish_s", "s", "lower",
     "ops_per_s, design_s.p90 on many-sinks",
     lambda t, c, r: _total(t, "rewrite.finish")),
    ("rewrite.replace_uses_calls", "count", "lower",
     "ops_per_s, design_s.p90 on many-sinks",
     lambda t, c, r: _calls(t, "rewrite.replace_uses")),
    ("inliner.inline_s", "s", "lower", "ops_per_s on many-sinks",
     lambda t, c, r: _total(t, "inliner.selective_inline")),
    ("inliner.sites_inlined", "count", "higher", "ops_per_s on many-sinks",
     lambda t, c, r: c["sites_inlined"]),
    ("inliner.sites_declined", "count", "lower", "ops_per_s on many-sinks",
     lambda t, c, r: c["sites_declined"]),
    ("permutation.detect_calls", "count", "lower",
     "design_s.p90 on rejected-sinks (misses), wide-flat (hits)",
     lambda t, c, r: _calls(t, "permutation.detect_permutation")),
    ("permutation.detect_s", "s", "lower",
     "design_s.p90 on rejected-sinks (misses), wide-flat (hits)",
     lambda t, c, r: _total(t, "permutation.detect_permutation")),
    ("permutation.hit_ratio", "ratio", "higher",
     "design_s.p90 on rejected-sinks, wide-flat",
     lambda t, c, r: _ratio(c["detect_hits"],
                            _calls(t, "permutation.detect_permutation"))),
    ("permutation.trace_visits", "count", "lower",
     "design_s.p90 on rejected-sinks, wide-flat",
     lambda t, c, r: r["trace_visits"]),
    ("cones.backward_cone_calls", "count", "lower",
     "ops_per_s, design_s.p90 on rejected-sinks",
     lambda t, c, r: _calls(t, "cones.backward_cone")),
    ("cones.backward_cone_s", "s", "lower",
     "ops_per_s, design_s.p90 on rejected-sinks",
     lambda t, c, r: _total(t, "cones.backward_cone")),
    ("cones.cone_visits", "count", "lower",
     "ops_per_s, design_s.p90 on rejected-sinks",
     lambda t, c, r: r["cone_visits"]),
    ("cones.family_check_s", "s", "lower",
     "ops_per_s, design_s.p90 on rejected-sinks",
     lambda t, c, r: _total(t, "cones.is_independent",
                            "cones.is_isomorphic")),
    ("pipeline.run_s", "s", "lower", "ops_per_s on rejected-sinks",
     lambda t, c, r: _total(t, "pipeline.run_pipeline")),
    ("pipeline.self_s", "s", "lower", "ops_per_s on rejected-sinks",
     lambda t, c, r: _self(t, "pipeline.run_pipeline")),
    ("pipeline.vectorize_output_s", "s", "lower",
     "ops_per_s on rejected-sinks",
     lambda t, c, r: _total(t, "pipeline.vectorize_output")),
    ("pipeline.partial_candidates", "count", "lower",
     "ops_per_s on rejected-sinks",
     lambda t, c, r: r["partial_candidates"]),
    ("pipeline.chunk_yield", "ratio", "higher", "ops_per_s on rejected-sinks",
     lambda t, c, r: _ratio(r["partial_chunks"], r["partial_candidates"])),
    ("emitter.emit_s", "s", "lower", "design_s.p50 on many-sinks",
     lambda t, c, r: _total(t, "emitter.emit_design")),
    ("emitter.bytes_out", "B", "lower", "design_s.p50 on many-sinks",
     lambda t, c, r: c["bytes_out"]),
    ("oracle.check_s", "s", "lower",
     "ops_per_s on wide-flat, many-sinks",
     lambda t, c, r: _total(t, "oracle.check_design_equivalence")),
    ("oracle.lane_build_s", "s", "lower",
     "ops_per_s on wide-flat, many-sinks; exhaustive_share on wide-flat",
     lambda t, c, r: _self(t, "oracle.check_equivalence")),
    ("oracle.vectors", "count", "lower",
     "ops_per_s on wide-flat, many-sinks",
     lambda t, c, r: c["vectors"]),
    ("reporting.process_self_s", "s", "lower",
     "design_s.p50 on every workload",
     lambda t, c, r: _self(t, "reporting.process_design")),
)


def layer_metrics(times: dict, counts: Counter, results: Counter) -> dict:
    return {name: fn(times, counts, results)
            for name, _, _, _, fn in LAYER_METRICS}


def print_table(workload: str, times: dict, metrics: dict,
                design_wall: float, missing: list[str]) -> None:
    """Per-span totals and self time with their share of the designs'
    summed wall time, then every per-layer metric with what it should
    move."""
    print(f"\nper-layer trace, {workload} (one pass, medians over traced"
          f" passes; blocking path = {design_wall:.4f} s of design wall)")
    print(f"  {'span':34s} {'calls':>9s} {'total s':>10s} {'self s':>10s}"
          f" {'total %':>8s} {'self %':>7s}")
    for name, (calls, total, self_s) in sorted(
            times.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:34s} {calls:9.0f} {total:10.4f} {self_s:10.4f}"
              f" {100 * _ratio(total, design_wall):8.1f}"
              f" {100 * _ratio(self_s, design_wall):7.1f}")
    print(f"  {'metric':34s} {'value':>14s} {'unit':7s} {'path %':>6s}"
          f"  should move")
    for name, unit, _, moves, _ in LAYER_METRICS:
        value = metrics[name]
        share = (f"{100 * _ratio(value, design_wall):6.1f}"
                 if unit == "s" else " " * 6)
        print(f"  {name:34s} {value:14.6g} {unit:7s} {share}  {moves}")
    for where in missing:
        print(f"  entry point not found, layer reads 0: {where}")
