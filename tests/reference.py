"""From-scratch references for one window of a sink.

The pipeline plans a sink with one downward scan per bit
(``pipeline.permutation_low`` and ``_SinkAnalysis.structural_low``).
These functions decide a single window on their own, the permutation
test from the bits' routes and the structural test from the window's
cones, and are what the permutation-recovery criterion and the
planner's specification (``test_pipeline._reference_plan``) test
against.
"""

from __future__ import annotations

from dataclasses import dataclass

from busweaver.cones import ConeShape, LogicCone, family_shape, lane_steps
from busweaver.ir import HwModule, ValueRef, route_bit


@dataclass
class PermutationMap:
    """``bits[k]`` is the source bit feeding target bit ``k`` (both LSB
    first); the bits form a contiguous window starting at ``base``."""

    source: ValueRef
    bits: list[int]
    base: int


@dataclass(frozen=True)
class Segment:
    """A maximal ascending run: ``width`` source bits starting at
    ``low``.  Segments are listed target-LSB first."""

    low: int
    width: int


def detect_permutation(
    module: HwModule,
    target: ValueRef,
    lo: int = 0,
    width: int | None = None,
    anchored: bool = True,
) -> PermutationMap | None:
    """Detect a bit permutation on ``target[lo + width - 1 : lo]``.

    All bits must route to distinct bits of one input, covering a
    contiguous window.  With ``anchored`` the window must start at bit
    0; ``anchored=False`` accepts any window.
    """
    n = target.width if width is None else width
    if n < 2:
        return None
    ops = module.operations
    window = [route_bit(ops, target, lo + k)[:2] for k in range(n)]
    sources = {value for value, _ in window}
    bits = [bit for _, bit in window]
    source = window[0][0]
    if len(sources) != 1 or ops[source.op].kind != "input" \
            or len(set(bits)) != n or max(bits) - min(bits) != n - 1:
        return None
    if anchored and min(bits) != 0:
        return None
    return PermutationMap(source, bits, min(bits))


def greedy_group(pi: PermutationMap) -> list[Segment]:
    """Group the permutation into maximal ascending runs, scanning from
    the target LSB: a run extends while pi[j+1] == pi[j] + 1."""
    bits = pi.bits
    segments: list[Segment] = []
    k = 0
    while k < len(bits):
        start = k
        while k + 1 < len(bits) and bits[k + 1] == bits[k] + 1:
            k += 1
        segments.append(Segment(bits[start], k - start + 1))
        k += 1
    return segments


def is_independent(cones: list[LogicCone]) -> bool:
    """True when no computing operation belongs to two cones.  Shared
    leaves (an invariant select bit, say) do not break independence;
    shared logic (a ripple carry chain) does."""
    total = 0
    union: set[int] = set()
    for cone in cones:
        total += len(cone.ops)
        union |= cone.ops
    return len(union) == total


def is_isomorphic(cones: list[LogicCone]) -> ConeShape | None:
    """Check the family shares a skeleton and classify every slot.

    Fails (returns ``None``) on the first skeleton mismatch, and when
    some slot's bit does not move by the same :func:`lane_steps` step
    from every lane to the next.
    """
    assert cones
    rep = cones[0]
    if any(not c.analyzable or c.skeleton != rep.skeleton for c in cones):
        return None
    steps = [0] * len(rep.slots)
    for k in range(1, len(cones)):
        lane = lane_steps(cones[k - 1], cones[k])
        if lane is None or (k > 1 and lane != steps):
            return None
        steps = lane
    return family_shape(rep, steps, len(cones))
