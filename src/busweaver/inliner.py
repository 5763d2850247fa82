"""Selective inlining of small, regular submodules.

Per-bit structure is routinely hidden behind module boundaries (a
one-bit cell instantiated N times).  Inlining exposes it to the
vectorizer, but inlining everything defeats the point of a hierarchy,
so a site is inlined only when the callee is *regular* (nothing but
bitwise/arithmetic/mux/routing ops and instances of regular modules)
and *small* (recursive instruction count strictly below the policy
threshold).  Regularity is a policy, not a limit of the vectorizer;
:func:`regularity_analysis` says why reductions break it.

Decisions are made bottom-up, in the callee-first order of
:func:`busweaver.ir.instantiation_order`, in one
:class:`~busweaver.rewrite.ModuleRewriter` session per module that the
inliner opens and hands on, still open, to the vectorizer: a module is
copied, indexed and compacted once.  A callee is itself inlined first,
so its body, the operations its session's finish would keep, is read
after its own inlining settled.  A callee is measured (size and
regularity, from its callees') once, at the first site that asks; a
module no one instantiates is never measured.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from busweaver.ir import (
    COUNTED_KINDS,
    REDUCE_KINDS,
    HwDesign,
    Operation,
    ValueRef,
    instantiation_order,
)
from busweaver.rewrite import ModuleRewriter


#: Callees at or above this recursive instruction count stay instances.
DEFAULT_INLINE_THRESHOLD = 150


class InlinePolicy:
    __slots__ = ("enabled", "threshold")

    def __init__(self, enabled: bool = True,
                 threshold: int = DEFAULT_INLINE_THRESHOLD) -> None:
        self.enabled = enabled
        self.threshold = threshold


class InlineDecision(NamedTuple):
    caller: str
    instance: str
    callee: str
    inlined: bool
    callee_size: int
    reason: str


def regularity_analysis(
    operations: Iterable[Operation], regular: dict[str, bool] | None = None
) -> bool:
    """A module body is regular when every operation is routing,
    bitwise logic, add/sub, mux, or an instance of a module that
    ``regular`` marks regular (callees are judged first; an unknown
    callee is not regular).  Reductions make it irregular: after
    inlining, each site's reduction is an operation of its own, so
    per-site lanes read different leaf sources and stay scalar, and
    inlining would only copy the body."""
    regular = regular or {}
    return all(
        op.kind not in REDUCE_KINDS
        and (op.kind != "instance" or regular.get(op.module, False))
        for op in operations
    )


def size_analysis(
    operations: Iterable[Operation], sizes: dict[str, int] | None = None
) -> int:
    """Recursive instruction count of a module body: its own computing
    ops plus the full size of every instantiated callee, read from
    ``sizes`` (callees are measured first; an unknown callee counts
    0)."""
    sizes = sizes or {}
    return sum(
        sizes.get(op.module, 0) if op.kind == "instance"
        else op.kind in COUNTED_KINDS
        for op in operations
    )


def _splice(rw: ModuleRewriter, op_id: int, callee: ModuleRewriter,
            body: Iterable[int], spliced: dict[ValueRef, ValueRef]) -> None:
    """Copy the operations ``body`` of the callee session into the
    caller for instance ``op_id``, dependency first, and record the
    value packing its outputs in ``spliced``, from which a site
    connected to an instance spliced before reads that value.

    A callee that passes the inline test holds only routing and logic:
    :func:`regularity_analysis` rejects reductions, and an instance
    left in a callee's body is of a module that is unresolved or
    irregular, which makes the callee irregular, or at or above the
    threshold, which puts the callee there too, because sizes add up.
    Routing goes through the folding builder calls, so constants and
    slices stay shared across sites; logic is copied with new
    operands."""
    inst, ops = rw.operations[op_id], callee.operations
    mapping: dict[int, ValueRef] = {}
    for cid in body:
        cop = ops[cid]
        kind = cop.kind
        args = [mapping[r.op] for r in cop.operands]
        if kind == "input":
            ref = inst.operands[inst.in_ports.index(cop.port)]
            mapping[cid] = spliced.get(ref, ref)
        elif kind == "const":
            mapping[cid] = rw.const(cop.value, cop.width)
        elif kind == "extract":
            mapping[cid] = rw.extract(args[0], cop.low, cop.width)
        elif kind == "concat":
            mapping[cid] = rw.concat(args)
        elif kind == "replicate":
            mapping[cid] = rw.replicate(args[0], cop.count)
        else:
            mapping[cid] = rw.copy(cop, args)
    outs = [
        mapping[callee.outputs[pname].op] for pname, _ in inst.out_ports
    ]
    spliced[ValueRef(op_id, inst.width)] = rw.concat(list(reversed(outs)))
    rw.drop_instance(op_id)


def selective_inline(
    design: HwDesign, policy: InlinePolicy | None = None
) -> tuple[list[ModuleRewriter], list[InlineDecision]]:
    """Inline every site whose callee is regular and strictly below the
    size threshold, in one :class:`ModuleRewriter` session per module.

    Returns the sessions, still open and in design order, and one
    decision per site, in processing order.  The caller finishes each
    session once: a module that received sites is compacted only then.
    """
    policy = policy or InlinePolicy()
    log: list[InlineDecision] = []
    if not policy.enabled:
        return [ModuleRewriter(m) for m in design.modules.values()], log

    sessions: dict[str, ModuleRewriter] = {}
    received: set[str] = set()  # the modules that received a site
    # Per callee, measured at the first site that asks: its body (the
    # ids its session's finish would keep, in that order), size and
    # regularity.
    bodies: dict[str, Iterable[int]] = {}
    sizes: dict[str, int] = {}
    regular: dict[str, bool] = {}

    def measure(name: str) -> tuple[Iterable[int], int, bool]:
        if name not in bodies:
            rw = sessions[name]
            # a callee that received no site is read as given
            body = bodies[name] = rw.live() if name in received \
                else range(len(rw.operations))
            ops = [rw.operations[i] for i in body]
            sizes[name] = size_analysis(ops, sizes)
            regular[name] = regularity_analysis(ops, regular)
        return bodies[name], sizes[name], regular[name]

    for name in instantiation_order(design)[0]:
        module = design.modules[name]
        rw = ModuleRewriter(module)
        spliced: dict[ValueRef, ValueRef] = {}
        for op_id, op in enumerate(module.operations):
            if op.kind != "instance":
                continue
            if op.module not in sessions:
                log.append(InlineDecision(name, op.name, op.module,
                                          False, -1, "unresolved callee"))
                continue
            body, size, is_regular = measure(op.module)
            if not is_regular:
                log.append(InlineDecision(name, op.name, op.module,
                                          False, size, "not regular"))
                continue
            if size >= policy.threshold:
                log.append(InlineDecision(
                    name, op.name, op.module, False, size,
                    f"size {size} >= threshold {policy.threshold}",
                ))
                continue
            _splice(rw, op_id, sessions[op.module], body, spliced)
            log.append(InlineDecision(
                name, op.name, op.module, True, size,
                f"size {size} < threshold {policy.threshold}",
            ))
        if spliced:
            rw.replace_uses(spliced)
            received.add(name)
        sessions[name] = rw

    return [sessions[name] for name in design.modules], log
