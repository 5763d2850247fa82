"""Test support that is not part of the program.

``mutation_audit`` checks the oracle by injecting single faults and
counting how many it catches; ``scaling_probe`` times the pipeline
against design size for the near-linear scaling criterion; and
``rewrite_counts`` reads a threshold sweep's rewrites per threshold;
and ``metrics`` sizes a module's dataflow graph for the tests that
bound work by its depth.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from busweaver.frontend import parse_design
from busweaver.ir import (
    COUNTED_KINDS,
    HwDesign,
    HwModule,
    compile_module,
    compile_packed,
    with_operands,
)
from busweaver.oracle import (
    DEFAULT_MAX_EXHAUSTIVE_BITS,
    DEFAULT_SAMPLES,
    check_equivalence,
)
from busweaver.pipeline import run_pipeline
from busweaver.reporting import SweepResult
from generators import scaling_design

DEFAULT_SCALING_TARGETS = (100, 1000, 10000, 100000)


@dataclass
class MutationAuditResult:
    total: int
    caught: int
    seed: int
    details: list[str] = field(default_factory=list)

    @property
    def rate(self) -> float | None:
        if self.total == 0:
            return None
        return self.caught / self.total


def _mutation_candidates(module: HwModule) -> list[tuple[str, int, int]]:
    """(kind, op id, payload) edits that keep the module well-formed."""
    out: list[tuple[str, int, int]] = []
    extracts: dict[tuple[int, int], list[int]] = {}
    for op_id, op in enumerate(module.operations):
        if op.kind == "extract":
            extracts.setdefault(
                (op.operands[0].op, op.width), []
            ).append(op_id)
        elif op.kind in ("and", "or", "xor", "add", "sub"):
            out.append(("flip", op_id, 0))
        elif op.kind == "concat":
            n = len(op.operands)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    a, b = op.operands[i], op.operands[j]
                    if a.width == b.width and a != b:
                        out.append(("swapcat", op_id, i * n + j))
    for peers in extracts.values():
        for i, a in enumerate(peers):
            for b in peers[i + 1:]:
                if module.operations[a].low != module.operations[b].low:
                    out.append(("swapext", a, b))
    return out


_FLIP = {"and": "or", "or": "xor", "xor": "and", "add": "sub", "sub": "add"}


def mutation_audit(
    design: HwDesign,
    mutations: int = 20,
    seed: int = 0,
    *,
    max_exhaustive_bits: int = DEFAULT_MAX_EXHAUSTIVE_BITS,
    samples: int = DEFAULT_SAMPLES,
) -> MutationAuditResult:
    """Sanity-check the oracle by injecting single faults into the top
    module and counting how many it reports as non-equivalent.

    Each mutation swaps two extract offsets, flips a binary operator, or
    swaps two same-width concat operands.  Raises ``ValueError`` if the
    top module offers nothing to mutate.
    """
    top = design.top_module
    candidates = _mutation_candidates(top)
    if not candidates:
        raise ValueError(
            f"module {top.name!r} has no mutation candidates"
        )
    programs = compile_packed(design)
    rng = random.Random(seed)
    result = MutationAuditResult(0, 0, seed)
    for _ in range(mutations):
        kind, a, b = candidates[rng.randrange(len(candidates))]
        ops = [with_operands(op, list(op.operands)) for op in top.operations]
        if kind == "flip":
            ops[a].kind = _FLIP[ops[a].kind]
            label = f"flip %{a}"
        elif kind == "swapext":
            ops[a].low, ops[b].low = ops[b].low, ops[a].low
            label = f"swap extract offsets %{a} %{b}"
        else:
            n = len(ops[a].operands)
            i, j = b // n, b % n
            opnds = ops[a].operands
            opnds[i], opnds[j] = opnds[j], opnds[i]
            label = f"swap concat operands {i},{j} of %{a}"
        mutant = HwModule(top.name, list(top.ports), ops,
                          dict(top.outputs), dict(top.wires))
        verdict = check_equivalence(
            top, mutant,
            max_exhaustive_bits=max_exhaustive_bits,
            samples=samples, seed=seed,
            compiled=(programs[top.name], compile_module(mutant, programs)),
        )
        result.total += 1
        if verdict.status == "counterexample":
            result.caught += 1
            result.details.append(f"{label}: caught")
        else:
            result.details.append(f"{label}: missed ({verdict.status})")
    return result


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


def rewrite_counts(sweep: SweepResult) -> list[int]:
    return [row.rewrites for row in sweep.rows]


class IrMetrics(NamedTuple):
    op_count: int
    edge_count: int
    max_depth: int


def metrics(module: HwModule) -> IrMetrics:
    """Dataflow graph size: counted ops, operand edges from counted ops,
    and the longest dependence chain through counted ops."""
    ops = module.operations
    op_count = 0
    edge_count = 0
    depth = [0] * len(ops)
    max_depth = 0
    for i, op in enumerate(ops):
        if op.kind not in COUNTED_KINDS:
            continue
        op_count += 1
        edge_count += len(op.operands)
        d = 1
        for ref in op.operands:
            d = max(d, 1 + depth[ref.op])
        depth[i] = d
        max_depth = max(max_depth, d)
    return IrMetrics(op_count, edge_count, max_depth)
