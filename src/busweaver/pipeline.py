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

:func:`run_pipeline` is one module loop, callees first, with one
:class:`~busweaver.rewrite.ModuleRewriter` session per module: the
inliner splices in the sites of finished callees; then every sink is
planned and rewritten (a later sink sees the inlined bodies and the
earlier sinks' redirections) and the reduction fold sweeps the module
once (:func:`~busweaver.reductions.fold_reductions`), in rounds until a
sweep folds nothing; and the session's finish compacts the module once,
before any caller sizes or copies it.
The rewriter value-numbers routing operations, so a plan that
reconstructs exactly the existing operations returns the sink's own
value: the sink is unchanged, and re-running the pipeline on its own
output reports zero rewrites.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from busweaver.cones import (
    LogicCone,
    backward_cone,
    lane_steps,
    plan_vector_expr,
    select_slots,
)
from busweaver.inliner import (
    InlineDecision,
    InlinePolicy,
    finished_module,
    selective_inline,
)
from busweaver.ir import (
    REDUCE_KINDS,
    HwDesign,
    Operation,
    ValueRef,
    count_instructions,
    route_bit,
    verify,
)
from busweaver.reductions import fold_reductions
from busweaver.rewrite import ModuleRewriter


class VectorizationError(Exception):
    """Raised when the input design fails verification."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


class PassCounters:
    """Work counters shared by the analysis passes, for complexity
    assertions and reporting.

    ``trace_visits`` counts routing operations stepped through while
    routing each bit of a sink to its root.  A sink routes each bit
    once a round, so this is bounded by its bits times the graph depth
    times the rounds of its module (:func:`run_pipeline`).
    ``cone_visits`` counts, for each cone built, the computing
    operations collected plus the routing operations stepped through
    below its root (the root's own route counts in ``trace_visits``
    only); a sink builds each bit's cone at most once a round.
    ``partial_candidates`` counts the chunk windows that a plan of
    several chunks rules on, widest first: ``j + 1`` for a chunk
    ``[i:j]`` and ``i`` for a scalar bit ``i``, so at most N*(N-1)/2
    for an N-bit sink; a one-chunk plan counts none.
    ``copies_folded`` counts the callee operations that splicing did
    not copy, because :meth:`~busweaver.rewrite.ModuleRewriter.copy`
    gave an existing value for them (the outer ``~`` of ``~~x``).
    """

    __slots__ = ("trace_visits", "cone_visits", "partial_candidates",
                 "copies_folded")

    def __init__(self) -> None:
        self.trace_visits = 0
        self.cone_visits = 0
        self.partial_candidates = 0
        self.copies_folded = 0


class Chunk(NamedTuple):
    """One tile of a sink: bits ``[high:low]`` handled by ``method``
    (``bit-permutation``, ``structural``, or ``scalar``; a folded
    reduction tree is one ``reduction`` chunk ``[0:0]``)."""

    high: int
    low: int
    method: str

    @property
    def width(self) -> int:
        return self.high - self.low + 1


class SinkResult:
    """How one sink was tiled.  ``category`` is "bit-level",
    "structural", "mixed" or "reduction" for a changed sink."""

    __slots__ = ("module", "sink", "width", "chunks", "changed", "category")

    def __init__(self, module: str, sink: str, width: int,
                 chunks: list[Chunk], changed: bool,
                 category: str | None) -> None:
        self.module = module
        self.sink = sink
        self.width = width
        self.chunks = chunks
        self.changed = changed
        self.category = category


class PipelineReport:
    """What one pipeline run did, and the work counters of its passes:
    a :class:`PassCounters` of its own, which every caller reads."""

    __slots__ = ("sinks", "inline_log", "counters", "instructions_before",
                 "instructions_after")

    def __init__(self) -> None:
        self.sinks: list[SinkResult] = []
        self.inline_log: list[InlineDecision] = []
        self.counters = PassCounters()
        self.instructions_before = 0
        self.instructions_after = 0

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


class _SinkAnalysis:
    """Analysis state of one sink: every bit routed once, through one
    concat-offset index, to its root ``(value, low)``, the first value
    that is not routing and the bit of it; each bit's cone built at
    most once, from its root."""

    __slots__ = ("rw", "target", "counters", "routes", "roots", "cones")

    def __init__(self, rw: ModuleRewriter, target: ValueRef,
                 counters: PassCounters) -> None:
        self.rw = rw
        self.target = target
        self.counters = counters
        self.routes: dict = {}
        self.roots: list[tuple[ValueRef, int]] = []
        self.cones: dict[int, LogicCone] = {}
        hops = 0
        for bit in range(self.target.width):
            value, low, n = route_bit(
                self.rw.operations, self.target, bit, self.routes
            )
            self.roots.append((value, low))
            hops += n
        self.counters.trace_visits += hops

    def cone(self, bit: int) -> LogicCone:
        if bit not in self.cones:
            cone = self.cones[bit] = backward_cone(
                self.rw, *self.roots[bit], routes=self.routes
            )
            self.counters.cone_visits += cone.visits
        return self.cones[bit]

    def structural_low(self, i: int) -> tuple[int, list[int]] | None:
        """Smallest ``j < i`` whose bits ``[i:j]`` form a vectorizable
        cone family, with the family's per-lane slot steps, or ``None``.

        Every sub-window of such a family is one too, so one downward
        scan adds a lane at a time and stops at the first that fails:
        it must share no operation with the lanes above, have their
        skeleton, and move every slot by the same step.  Every bit has
        a cone, since a cone ends at any value that is not 1-bit logic;
        a bit that routes straight to such a value is a one-slot leaf
        cone, so a run of bits of one word-level value or instance
        output is a family too.  The lanes share the top lane's
        skeleton, so its mux-select slots are found once.
        """
        top = self.cone(i)
        scalar = select_slots(top.skeleton)
        ops = set(top.ops)
        steps = best = None
        for j in range(i - 1, -1, -1):
            cone = self.cone(j)
            if cone.skeleton != top.skeleton or not ops.isdisjoint(cone.ops):
                break
            lane = lane_steps(cone, self.cone(j + 1), scalar)
            if lane is None or (steps is not None and lane != steps):
                break
            steps = lane
            ops.update(cone.ops)
            best = j
        if best is None:
            return None
        return best, steps

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
) -> list[tuple[int, int, str, list[int] | None]]:
    """Greedy MSB-to-LSB tiling of a sink, as ``(high, low, method,
    steps)`` tuples; ``steps`` are a structural chunk's slot steps."""
    plans: list[tuple[int, int, str, list[int] | None]] = []
    i = sink.target.width - 1
    while i >= 0:
        # Widest window first, the permutation test first: a
        # permutation window makes bit i an input leaf, and leaf cones
        # stepping by +-1 through one input are a permutation too, so
        # no structural window from i is wider.
        steps = None
        j = permutation_low(sink.rw.operations, sink.roots, i)
        if j is not None:
            method = "bit-permutation"
        elif (found := sink.structural_low(i)) is not None:
            (j, steps), method = found, "structural"
        else:
            j, method = i, "scalar"
        plans.append((i, j, method, steps))
        i = j - 1
    if len(plans) > 1:
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

    sink = _SinkAnalysis(rw, target, counters or PassCounters())
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
            rw.concat(sink.runs(hi, lo)) if steps is None
            else plan_vector_expr(rw, sink.cone(lo), steps, hi - lo + 1)
            for hi, lo, _, steps in group
        ]
    value = rw.concat(parts)
    if value == target:
        return chunks, False
    rw.replace_uses({target: value})
    return chunks, True


def _categorize(chunks: list[Chunk]) -> str:
    if len(chunks) == 1 and chunks[0].method == "bit-permutation":
        return "bit-level"
    if len(chunks) == 1 and chunks[0].method == "structural":
        return "structural"
    return "mixed"


def run_pipeline(
    design: HwDesign,
    policy: InlinePolicy | None = None,
) -> tuple[HwDesign, PipelineReport]:
    """Verify, then finish every module bottom-up, callees first, in
    one session: inline the sites of its finished callees, vectorize
    every multi-bit sink and sweep the reduction fold once, in rounds
    until a sweep folds nothing, and compact it.

    A fold changes what its leaves share, and so what the trees swept
    before it would gain, and one that cancels a repeated term
    (``^ w[k] ^ w[k]``) can leave lanes that plan as a family.  The
    rounds end: a vectorized sink re-plans to itself, so a later round
    can only turn scalar sink bits into chunks, and a round that turns
    none and still folds lowers the instruction count.  Each sink keeps
    the result of the last round that changed it, or of its first.

    Raises :class:`VectorizationError` when the input design does not
    verify.  Every bit has a cone, and a bit that forms no chunk simply
    stays scalar.  The report lists the sinks in design order and the
    inline decisions callees first.
    """
    order: list[str] = []  # callees first, from verify's walk
    violations = verify(design, order)
    if violations:
        raise VectorizationError(violations)

    report = PipelineReport()
    report.instructions_before = sum(
        count_instructions(m) for m in design.modules.values()
    )

    finished, sinks = {}, {}  # per module: its FinishedModule, its sinks
    for name in order:
        rw, decisions = selective_inline(design.modules[name], finished,
                                         policy)
        report.inline_log += decisions
        report.counters.copies_folded += rw.copies_folded
        # the sinks: output ports first, then wires
        names = [p.name for p in rw.ports if p.direction == "output"]
        names += rw.wires
        mark = len(rw.operations)  # the fold appends what it builds
        results: dict[str, SinkResult] = {}  # the last change per sink
        folds: list[str] = []
        while True:  # one round: plan every sink, sweep the fold once
            for sink in names:
                ref = rw.outputs.get(sink)
                if ref is None and rw.is_live(rw.wires[sink]):
                    ref = rw.wires[sink]  # else orphaned by an earlier sink
                if ref is None or ref.width < 2:
                    continue
                chunks, changed = vectorize_output(rw, ref, report.counters)
                if changed or sink not in results:
                    results[sink] = SinkResult(
                        name, sink, ref.width, chunks, changed,
                        _categorize(chunks) if changed else None)
            swept = fold_reductions(rw)
            if not swept:
                break
            folds += swept
        sinks[name] = [*results.values()] + [
            SinkResult(name, sink, 1, [Chunk(0, 0, "reduction")], True,
                       "reduction")
            for sink in folds
        ]
        # the reductions the fold built keep a module regular, the ones
        # the session held before it do not (the fold keeps their kind)
        folded = bool(folds) and not any(
            op.kind in REDUCE_KINDS for op in rw.operations[:mark])
        finished[name] = finished_module(rw.finish(), finished, folded)

    report.sinks = [s for name in design.modules for s in sinks[name]]
    out = HwDesign({name: finished[name].module for name in design.modules},
                   design.top)
    report.instructions_after = sum(
        count_instructions(m) for m in out.modules.values()
    )
    return out, report
