"""Bit-permutation detection.

A sink is a pure bit permutation when every output bit traces back
through routing operations (extract, concat, replicate) to a distinct
bit of one input, and the traced bits form a contiguous window.  The
pipeline's rewrite packs maximal ascending runs of the permutation into
part selects, so ``out[0]=in[1] ... out[2]=in[3], out[3]=in[0]`` becomes
``{in[0], in[3:1]}``, and a full identity collapses to the input
itself.

Ascending runs are the only runs grouped.  Descending runs, a full
reversal included, stay as single-bit selects: Verilog has no reversed
part select, so that is both how they are written and how they are
counted.

The pipeline plans with :func:`permutation_low`; :func:`detect_permutation`
and :func:`greedy_group` remain as the references that the
permutation-recovery criterion and the planner's specification test.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from busweaver.ir import HwModule, ValueRef, route_bit
from busweaver.rewrite import ModuleRewriter


@dataclass
class PassCounters:
    """Work counters shared by the analysis passes, for complexity
    assertions and reporting.

    ``trace_visits`` counts routing operations stepped through while
    tracing bit origins.  A sink traces each bit once, so this is
    bounded by its bits times the graph depth.  ``cone_visits``
    counts routing operations stepped through plus computing operations
    collected while building cones; a sink builds each bit's cone at
    most once.  ``partial_candidates`` counts the chunk windows that
    a plan of several chunks rules on, widest first: ``j + 1`` for a
    chunk ``[i:j]`` and ``i`` for a scalar bit ``i``, so at most
    N*(N-1)/2 for an N-bit sink; a one-chunk plan counts none.
    """

    trace_visits: int = 0
    cone_visits: int = 0
    partial_candidates: int = 0


@dataclass(frozen=True)
class BitOrigin:
    """Where one traced bit comes from: ``bit`` of ``source``, which is
    an input or constant value."""

    source: ValueRef
    bit: int


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


def trace_bit_origin(
    module: HwModule | ModuleRewriter,
    value: ValueRef,
    bit: int,
    counters: PassCounters | None = None,
    routes: dict | None = None,
) -> BitOrigin | None:
    """Follow one bit backwards through routing operations.

    Returns the originating input/const bit, or ``None`` when the bit
    enters a computing operation or an instance.  ``routes`` is the
    concat-offset index of :func:`busweaver.ir.route_bit`.
    """
    value, bit, hops = route_bit(module.operations, value, bit, routes)
    if counters is not None:
        counters.trace_visits += hops
    if module.operations[value.op].kind in ("input", "const"):
        return BitOrigin(value, bit)
    return None


def permutation_low(
    module: HwModule | ModuleRewriter,
    origins: Sequence[BitOrigin | None],
    i: int,
) -> int | None:
    """Smallest ``j < i`` whose window ``origins[j:i + 1]`` traces to
    distinct bits of one input covering a contiguous range, or ``None``.

    Such windows are not downward-closed (source bits ``[0,2,1]`` form
    one, ``[0,2]`` do not), so every ``j`` is checked, each in O(1); a
    foreign source or a repeated bit rules out every wider window.
    """
    top = origins[i]
    if top is None or module.operations[top.source.op].kind != "input":
        return None  # constant bits cannot form a permutation
    seen = {top.bit}
    low = high = top.bit
    best = None
    for j in range(i - 1, -1, -1):
        origin = origins[j]
        if origin is None or origin.source != top.source \
                or origin.bit in seen:
            break
        seen.add(origin.bit)
        low = min(low, origin.bit)
        high = max(high, origin.bit)
        if high - low == i - j:
            best = j
    return best


def detect_permutation(
    module: HwModule | ModuleRewriter,
    target: ValueRef,
    lo: int = 0,
    width: int | None = None,
    counters: PassCounters | None = None,
    anchored: bool = True,
) -> PermutationMap | None:
    """Detect a bit permutation on ``target[lo + width - 1 : lo]``.

    All bits must trace to distinct bits of one input, covering a
    contiguous window.  With ``anchored`` the window must start at bit
    0; ``anchored=False`` accepts any window.
    """
    n = target.width if width is None else width
    if n < 2:
        return None
    routes: dict = {}
    window = [
        trace_bit_origin(module, target, lo + k, counters, routes)
        for k in range(n)
    ]
    if permutation_low(module, window, n - 1) != 0:
        return None
    bits = [o.bit for o in window]
    if anchored and min(bits) != 0:
        return None
    return PermutationMap(window[0].source, bits, min(bits))


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
