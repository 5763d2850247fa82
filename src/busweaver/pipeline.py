"""Vectorization pipeline: one greedy chunk planner for every
multi-bit sink of every module.

The planner scans a sink from the MSB down; at bit ``i`` it takes the
widest chunk ``[i:j]`` (the smallest ``j < i``) that is a bit
permutation or a cone family, the permutation winning a tie, and
resumes below the chunk at ``j - 1``.  That is the order of trying
every window widest first, the permutation test before the structural
one: a sink vectorizes whole when its plan is one full-width chunk.
Remaining single bits stay scalar.  A window is a bit permutation when
its bits route to distinct bits of one input covering a contiguous
range.  Scalar bits and a permutation chunk are built alike, from
their bits' routes: a maximal run of bits that read ascending
consecutive bits of one value becomes one part select of it, so
``out[0]=in[1] ... out[2]=in[3], out[3]=in[0]`` becomes
``{in[0], in[3:1]}`` and a full identity collapses to the input.
Descending runs, a full reversal included, stay one-bit selects:
Verilog has no reversed part select, so that is both how they are
written and how they are counted.  A rewrite is applied only when some
chunk of width >= 2 vectorized.

Analysis is per sink, not per window: each bit is routed once to its
root and its cone built once from that root, and one downward scan per
``i`` finds the chunk.

Every sink of a module is planned and rewritten in one
:class:`~busweaver.rewrite.ModuleRewriter` session, so a later sink
sees the earlier sinks' redirections; the session's finish is the
module's one compaction.  The rewriter value-numbers routing
operations, so a plan that reconstructs exactly the existing operations
returns the sink's own value: the sink is unchanged, and re-running the
pipeline on its own output reports zero rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

from busweaver.cones import (
    ConeShape,
    LogicCone,
    backward_cone,
    family_shape,
    lane_steps,
    plan_vector_expr,
)
from busweaver.inliner import InlineDecision, InlinePolicy, selective_inline
from busweaver.ir import (
    HwDesign,
    HwModule,
    Operation,
    ValueRef,
    count_instructions,
    route_bit,
    verify,
)
from busweaver.rewrite import ModuleRewriter


class VectorizationError(Exception):
    """Raised when the input design fails verification."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass
class PassCounters:
    """Work counters shared by the analysis passes, for complexity
    assertions and reporting.

    ``trace_visits`` counts routing operations stepped through while
    routing each bit of a sink to its root.  A sink routes each bit
    once, so this is bounded by its bits times the graph depth.
    ``cone_visits`` counts, for each cone built, the computing
    operations collected plus the routing operations stepped through
    below its root (the root's own route counts in ``trace_visits``
    only); a sink builds each bit's cone at most once.
    ``partial_candidates`` counts the chunk windows that a plan of
    several chunks rules on, widest first: ``j + 1`` for a chunk
    ``[i:j]`` and ``i`` for a scalar bit ``i``, so at most N*(N-1)/2
    for an N-bit sink; a one-chunk plan counts none.
    """

    trace_visits: int = 0
    cone_visits: int = 0
    partial_candidates: int = 0


@dataclass(frozen=True)
class Chunk:
    """One tile of a sink: bits ``[high:low]`` handled by ``method``
    (``bit-permutation``, ``structural``, or ``scalar``)."""

    high: int
    low: int
    method: str

    @property
    def width(self) -> int:
        return self.high - self.low + 1


@dataclass
class SinkResult:
    module: str
    sink: str
    width: int
    chunks: list[Chunk]
    changed: bool
    #: "bit-level", "structural" or "mixed" for a changed sink
    category: str | None


@dataclass
class PipelineReport:
    sinks: list[SinkResult] = field(default_factory=list)
    inline_log: list[InlineDecision] = field(default_factory=list)
    counters: PassCounters = field(default_factory=PassCounters)
    instructions_before: int = 0
    instructions_after: int = 0
    #: Rewrites in modules that received at least one inlined body.
    inlining_assisted: list[SinkResult] = field(default_factory=list)

    @property
    def rewrites(self) -> list[SinkResult]:
        return [s for s in self.sinks if s.changed]

    @property
    def reduction_percent(self) -> float:
        if self.instructions_before == 0:
            return 0.0
        delta = self.instructions_before - self.instructions_after
        return 100.0 * delta / self.instructions_before


def permutation_low(
    ops: list[Operation], roots: list[tuple[ValueRef, int]], i: int
) -> int | None:
    """Smallest ``j < i`` whose window ``roots[j:i + 1]`` routes to
    distinct bits of one input covering a contiguous range, or ``None``.

    Such windows are not downward-closed (source bits ``[0,2,1]`` form
    one, ``[0,2]`` do not), so every ``j`` is checked, each in O(1); a
    foreign root or a repeated bit rules out every wider window.
    """
    source, top = roots[i]
    if ops[source.op].kind != "input":
        return None  # constant and computed bits form no permutation
    seen = {top}
    low = high = top
    best = None
    for j in range(i - 1, -1, -1):
        value, bit = roots[j]
        if value != source or bit in seen:
            break
        seen.add(bit)
        low = min(low, bit)
        high = max(high, bit)
        if high - low == i - j:
            best = j
    return best


@dataclass
class _SinkAnalysis:
    """Analysis state of one sink: every bit routed once, through one
    concat-offset index, to its root ``(value, low)``, the first value
    that is not routing and the bit of it; each bit's cone built at
    most once, from its root."""

    rw: ModuleRewriter
    target: ValueRef
    counters: PassCounters | None
    routes: dict = field(default_factory=dict)
    roots: list[tuple[ValueRef, int]] = field(init=False)
    cones: dict[int, LogicCone] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.roots = []
        hops = 0
        for bit in range(self.target.width):
            value, low, n = route_bit(
                self.rw.operations, self.target, bit, self.routes
            )
            self.roots.append((value, low))
            hops += n
        if self.counters is not None:
            self.counters.trace_visits += hops

    def cone(self, bit: int) -> LogicCone:
        if bit not in self.cones:
            cone = self.cones[bit] = backward_cone(
                self.rw, *self.roots[bit], routes=self.routes
            )
            if self.counters is not None:
                self.counters.cone_visits += cone.visits
        return self.cones[bit]

    def structural_low(self, i: int) -> tuple[int, ConeShape] | None:
        """Smallest ``j < i`` whose bits ``[i:j]`` form a vectorizable
        cone family, with the family's shape, or ``None``.

        Every sub-window of such a family is one too, so one downward
        scan adds a lane at a time and stops at the first that fails:
        it must be analyzable, share no operation with the lanes above,
        have their skeleton, and move every slot by the same step.
        """
        top = self.cone(i)
        if not top.analyzable:
            return None
        ops = set(top.ops)
        steps = best = None
        for j in range(i - 1, -1, -1):
            cone = self.cone(j)
            if not cone.analyzable or cone.skeleton != top.skeleton \
                    or not ops.isdisjoint(cone.ops):
                break
            lane = lane_steps(cone, self.cone(j + 1))
            if lane is None or (steps is not None and lane != steps):
                break
            steps = lane
            ops |= cone.ops
            best = j
        if best is None:
            return None
        return best, family_shape(self.cone(best), steps, i - best + 1)

    def runs(self, hi: int, lo: int) -> list[ValueRef]:
        """Bits ``[hi:lo]`` of the sink, MSB first, as values: a run of
        bits routed to consecutive bits of one value becomes one
        extract of it, which folds to the value when it covers all of
        it."""
        runs: list[list] = []  # [value, low bit, width]
        for bit in range(hi, lo - 1, -1):
            value, low = self.roots[bit]
            if runs and runs[-1][0] == value and runs[-1][1] == low + 1:
                runs[-1][1] = low
                runs[-1][2] += 1
            else:
                runs.append([value, low, 1])
        return [self.rw.extract(*run) for run in runs]


def _plan_chunks(
    sink: _SinkAnalysis,
) -> list[tuple[int, int, str, ConeShape | None]]:
    """Greedy MSB-to-LSB tiling of a sink, as ``(high, low, method,
    shape)`` tuples; ``shape`` is a structural chunk's cone shape."""
    plans: list[tuple[int, int, str, ConeShape | None]] = []
    i = sink.target.width - 1
    while i >= 0:
        # Widest window first, the permutation test first: a
        # permutation window makes bit i an input leaf, and leaf cones
        # stepping by +-1 through one input are a permutation too, so
        # no structural window from i is wider.
        shape = None
        j = permutation_low(sink.rw.operations, sink.roots, i)
        if j is not None:
            method = "bit-permutation"
        elif (found := sink.structural_low(i)) is not None:
            (j, shape), method = found, "structural"
        else:
            j, method = i, "scalar"
        plans.append((i, j, method, shape))
        i = j - 1
    if sink.counters is not None and len(plans) > 1:
        # a chunk [i:j] rules on j + 1 windows, a scalar bit i on i
        sink.counters.partial_candidates += sum(
            hi if method == "scalar" else lo + 1
            for hi, lo, method, _ in plans
        )
    return plans


def vectorize_output(
    rw: ModuleRewriter,
    target: ValueRef,
    counters: PassCounters | None = None,
) -> tuple[list[Chunk], bool]:
    """Vectorize one sink value inside the session ``rw``.  Returns the
    chunk tiling and whether the sink changed: it did not when the
    planned value is ``target`` itself."""
    assert target.width >= 2, "vectorization needs a multi-bit sink"

    sink = _SinkAnalysis(rw, target, counters)
    plans = _plan_chunks(sink)
    chunks = [Chunk(hi, lo, method) for hi, lo, method, _ in plans]
    if all(method == "scalar" for _, _, method, _ in plans):
        return chunks, False

    parts: list[ValueRef] = []  # MSB first, matching plan order
    for scalar, group in groupby(plans, key=lambda p: p[2] == "scalar"):
        group = list(group)
        if scalar:
            parts += sink.runs(group[0][0], group[-1][1])
            continue
        parts += [
            rw.concat(sink.runs(hi, lo)) if shape is None
            else plan_vector_expr(rw, sink.cone(lo), shape)
            for hi, lo, _, shape in group
        ]
    value = rw.concat(parts)
    if value == target:
        return chunks, False
    rw.replace_uses({target: value})
    return chunks, True


def _sink_refs(module: HwModule) -> list[str]:
    """Sinks in deterministic order: output ports first, then wires."""
    names = [p.name for p in module.ports if p.direction == "output"]
    names.extend(module.wires)
    return names


def _categorize(chunks: list[Chunk]) -> str:
    if len(chunks) == 1 and chunks[0].method == "bit-permutation":
        return "bit-level"
    if len(chunks) == 1 and chunks[0].method == "structural":
        return "structural"
    return "mixed"


def run_pipeline(
    design: HwDesign,
    policy: InlinePolicy | None = None,
    counters: PassCounters | None = None,
) -> tuple[HwDesign, PipelineReport]:
    """Verify, normalise, selectively inline, then vectorize every
    multi-bit sink of every module.

    Raises :class:`VectorizationError` when the input design does not
    verify; all other failures are per-sink analysis failures, which
    simply leave the sink scalar.
    """
    violations = verify(design)
    if violations:
        raise VectorizationError(violations)

    report = PipelineReport(
        counters=counters if counters is not None else PassCounters()
    )
    report.instructions_before = sum(
        count_instructions(m) for m in design.modules.values()
    )

    policy = policy or InlinePolicy()
    inlined, report.inline_log = selective_inline(design, policy)
    inlined_modules = {
        d.caller for d in report.inline_log if d.inlined
    }

    result: dict[str, HwModule] = {}
    for name, module in inlined.modules.items():
        rw = ModuleRewriter(module)
        for sink in _sink_refs(module):
            ref = rw.outputs.get(sink)
            if ref is None and rw.is_live(rw.wires[sink]):
                ref = rw.wires[sink]  # else orphaned by an earlier sink
            if ref is None or ref.width < 2:
                continue
            chunks, changed = vectorize_output(rw, ref, report.counters)
            category = _categorize(chunks) if changed else None
            report.sinks.append(
                SinkResult(name, sink, ref.width, chunks, changed, category)
            )
        result[name] = rw.finish()

    out = HwDesign(result, design.top)
    report.instructions_after = sum(
        count_instructions(m) for m in out.modules.values()
    )
    report.inlining_assisted = [
        s for s in report.rewrites if s.module in inlined_modules
    ]
    return out, report
