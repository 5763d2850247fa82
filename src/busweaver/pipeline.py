"""Vectorization pipeline: whole-sink strategies plus greedy partial
chunking, applied to every multi-bit sink of every module.

Per sink the order is fixed: try a whole-width bit permutation, then a
whole-width replicated cone family, then fall back to partial
vectorization.  Partial chunking scans from the MSB down; at bit ``i``
it takes the widest chunk ``[i:j]`` (the smallest ``j < i``) that is a
bit permutation or a cone family, the permutation winning a tie, and
resumes below the chunk at ``j - 1``.  That is the order of trying
every window widest first, the permutation test before the structural
one.  Remaining single bits are emitted scalar, adjacent ones that read
consecutive bits of one value as one slice of it.  A rewrite is
applied only when some chunk of width >= 2 vectorized; all-scalar
plans leave the module untouched.

Analysis is per sink, not per window: each bit's origin is traced and
its cone built once, and one downward scan per ``i`` finds the chunk.

Every sink of a module is planned and rewritten in one
:class:`~busweaver.rewrite.ModuleRewriter` session, so a later sink
sees the earlier sinks' redirections, and the module is compacted once
at the end.  The rewriter value-numbers routing operations, so a plan
that reconstructs exactly the existing operations returns the sink's
own value: the sink is unchanged, and re-running the pipeline on its
own output reports zero rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

from busweaver.cones import (
    ConeShape,
    LogicCone,
    backward_cone,
    is_isomorphic,
    lane_steps,
    plan_vector_expr,
)
from busweaver.inliner import InlineDecision, InlinePolicy, selective_inline
from busweaver.ir import (
    HwDesign,
    HwModule,
    ValueRef,
    count_instructions,
    route_bit,
    verify,
)
from busweaver.permutation import (
    BitOrigin,
    PassCounters,
    PermutationMap,
    detect_permutation,
    greedy_group,
    permutation_low,
    plan_segments,
    trace_bit_origin,
)
from busweaver.rewrite import ModuleRewriter, compact_design


class VectorizationError(Exception):
    """Raised when the input design fails verification."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


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


@dataclass
class _SinkAnalysis:
    """Analysis state of one sink: every bit's origin traced once, one
    concat-offset index shared by every route, and each bit's cone
    built at most once."""

    rw: ModuleRewriter
    target: ValueRef
    counters: PassCounters | None
    routes: dict = field(default_factory=dict)
    origins: list[BitOrigin | None] = field(init=False)
    cones: dict[int, LogicCone] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.origins = [
            trace_bit_origin(
                self.rw, self.target, bit, self.counters, self.routes
            )
            for bit in range(self.target.width)
        ]

    def cone(self, bit: int) -> LogicCone:
        if bit not in self.cones:
            self.cones[bit] = backward_cone(
                self.rw, self.target, bit, self.counters, self.routes
            )
        return self.cones[bit]

    def family(self, hi: int, lo: int) -> tuple[list[LogicCone], ConeShape]:
        """The cones of bits ``[hi:lo]``, a window
        :meth:`structural_low` accepted, and their common shape."""
        cones = [self.cone(bit) for bit in range(lo, hi + 1)]
        return cones, is_isomorphic(cones)

    def structural_low(self, i: int) -> int | None:
        """Smallest ``j < i`` whose bits ``[i:j]`` form a vectorizable
        cone family, or ``None``.

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
        return best


def _plan_chunks(sink: _SinkAnalysis) -> list[tuple[int, int, str, object]]:
    """Greedy MSB-to-LSB tiling of a sink that did not vectorize whole,
    as ``(high, low, method, payload)`` tuples."""
    origins, counters = sink.origins, sink.counters
    plans: list[tuple[int, int, str, object]] = []
    i = sink.target.width - 1
    while i >= 0:
        # Widest window first, the permutation test first: a
        # permutation window makes bit i an input leaf, and leaf cones
        # stepping by +-1 through one input are a permutation too, so
        # no structural window from i is wider.
        j = permutation_low(sink.rw, origins, i)
        if j is not None:
            pi = PermutationMap.from_origins(origins[j:i + 1])
            plans.append((i, j, "bit-permutation", pi))
        elif (j := sink.structural_low(i)) is not None:
            plans.append((i, j, "structural", sink.family(i, j)))
        else:
            if counters is not None:
                counters.partial_candidates += i
            plans.append((i, i, "scalar", None))
            i -= 1
            continue
        if counters is not None:
            counters.partial_candidates += j + 1
        i = j - 1
    return plans


def _scalar_parts(sink: _SinkAnalysis, bits: list[int]) -> list[ValueRef]:
    """Adjacent scalar bits ``bits`` of the sink, MSB first, as values:
    a run of bits routed to consecutive bits of one value becomes one
    extract of it, which folds to the value when it covers all of it."""
    runs: list[list] = []  # [value, low bit, width]
    for bit in bits:
        value, low, _ = route_bit(
            sink.rw.operations, sink.target, bit, sink.routes
        )
        if runs and runs[-1][0] == value and runs[-1][1] == low + 1:
            runs[-1][1] = low
            runs[-1][2] += 1
        else:
            runs.append([value, low, 1])
    return [sink.rw.extract(*run) for run in runs]


def vectorize_output(
    rw: ModuleRewriter,
    target: ValueRef,
    counters: PassCounters | None = None,
) -> tuple[list[Chunk], bool]:
    """Vectorize one sink value inside the session ``rw``.  Returns the
    chunk tiling and whether the sink changed: it did not when the
    planned value is ``target`` itself."""
    n = target.width
    assert n >= 2, "vectorization needs a multi-bit sink"

    sink = _SinkAnalysis(rw, target, counters)
    pi = detect_permutation(rw, target, origins=sink.origins)
    if pi is not None:
        plans = [(n - 1, 0, "bit-permutation", pi)]
    elif sink.structural_low(n - 1) == 0:
        plans = [(n - 1, 0, "structural", sink.family(n - 1, 0))]
    else:
        plans = _plan_chunks(sink)
    chunks = [Chunk(hi, lo, method) for hi, lo, method, _ in plans]
    if all(method == "scalar" for _, _, method, _ in plans):
        return chunks, False

    parts: list[ValueRef] = []  # MSB first, matching plan order
    for scalar, group in groupby(plans, key=lambda p: p[2] == "scalar"):
        if scalar:
            parts += _scalar_parts(sink, [hi for hi, *_ in group])
            continue
        for _, _, method, payload in group:
            if method == "structural":
                cones, shape = payload
                parts.append(plan_vector_expr(rw, cones[0], shape))
            else:
                parts.append(
                    plan_segments(rw, payload.source, greedy_group(payload))
                )
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
    design = compact_design(design)
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
        edited = False
        for sink in _sink_refs(module):
            ref = rw.outputs.get(sink)
            if ref is None and rw.is_live(rw.wires[sink]):
                ref = rw.wires[sink]  # else orphaned by an earlier sink
            if ref is None or ref.width < 2:
                continue
            chunks, changed = vectorize_output(rw, ref, report.counters)
            edited |= changed
            category = _categorize(chunks) if changed else None
            report.sinks.append(
                SinkResult(name, sink, ref.width, chunks, changed, category)
            )
        result[name] = rw.finish() if edited else module

    out = HwDesign(result, design.top)
    report.instructions_after = sum(
        count_instructions(m) for m in out.modules.values()
    )
    report.inlining_assisted = [
        s for s in report.rewrites if s.module in inlined_modules
    ]
    return out, report
