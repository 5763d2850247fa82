"""Selective inlining of small, regular submodules.

Per-bit structure is routinely hidden behind module boundaries (a
one-bit cell instantiated N times).  Inlining exposes it to the
vectorizer, but inlining everything defeats the point of a hierarchy,
so a site is inlined only when the callee is *regular* (nothing but
bitwise/arithmetic/mux/routing ops and instances of regular modules)
and *small* (recursive instruction count strictly below the policy
threshold).  Regularity is a policy, not a limit of the vectorizer;
:func:`finished_module` says why reductions break it.

The pipeline runs one bottom-up module loop, in the callee-first order
of :func:`busweaver.ir.instantiation_order`, and finishes each module
(inlined, vectorized, folded, compacted) before any caller looks at
it.  :func:`selective_inline` is that loop's first step for one
module: it opens the module's :class:`~busweaver.rewrite.ModuleRewriter`
session and splices into it the sites whose callees pass the inline
test, judged from each callee's :class:`FinishedModule`.  A site copies
its callee as finished, and the size it is judged by is the finished
size.  A reduction that the callee's own fold built out of a chain is
the one exception: it keeps the callee regular, and a site copies it
back as a chain of its bits, which the caller's lanes can vectorize.
"""

from __future__ import annotations

from typing import NamedTuple

from busweaver.ir import (
    COUNTED_KINDS,
    REDUCE_KINDS,
    VARIADIC_KINDS,
    HwModule,
    ValueRef,
    port_slices,
)
from busweaver.reductions import unfold
from busweaver.rewrite import ModuleRewriter


#: Callees at or above this recursive instruction count stay instances.
DEFAULT_INLINE_THRESHOLD = 150


class InlinePolicy(NamedTuple):
    enabled: bool = True
    threshold: int = DEFAULT_INLINE_THRESHOLD


class InlineDecision(NamedTuple):
    caller: str
    instance: str
    callee: str
    inlined: bool
    callee_size: int
    reason: str


class FinishedModule(NamedTuple):
    """A module as the pipeline finished it, and the recursive size and
    the regularity of that body, which its callers' inline tests read."""

    module: HwModule
    size: int
    regular: bool


def finished_module(
    module: HwModule, finished: dict[str, FinishedModule],
    folded: bool = False,
) -> FinishedModule:
    """``module`` with its recursive size and its regularity, from one
    walk over its operations; each callee's record is read from
    ``finished`` (callees are finished first).

    The size is the module's own instruction count
    (:func:`~busweaver.ir.count_instructions`) plus the size of every
    instantiated callee (an unknown callee counts 0).  The module is
    regular when every operation is routing, bitwise logic, add/sub,
    mux, or an instance of a module that ``finished`` marks regular (an
    unknown callee is not regular).  Reductions make it irregular:
    after inlining, each site's reduction is an operation of its own,
    so per-site lanes read different leaf sources and stay scalar, and
    inlining would only copy the body.  ``folded`` says that the
    module's own fold built every reduction in it; those keep it
    regular, because a site copies each back as a chain of its bits
    (:func:`~busweaver.reductions.unfold`)."""
    size, regular = 0, True
    for op in module.operations:
        kind = op.kind
        if kind == "instance":
            callee = finished.get(op.module)
            if callee is None:
                regular = False
            else:
                size += callee.size
                regular = regular and callee.regular
        elif kind in COUNTED_KINDS:
            size += len(op.operands) - 1 if kind in VARIADIC_KINDS else 1
            if kind in REDUCE_KINDS and not folded:
                regular = False
    return FinishedModule(module, size, regular)


def _splice(rw: ModuleRewriter, op_id: int, callee: HwModule,
            readers: list[int], spliced: dict[ValueRef, ValueRef]) -> None:
    """Copy the operations of the finished ``callee``, in order, into
    the caller for instance ``op_id``, and record in ``spliced`` what
    the instance's ``readers`` read instead: an extract that lies
    inside one output port reads that port's value, any other read the
    ports packed.  A site connected to an instance spliced before reads
    through ``spliced``.

    A callee that passes the inline test holds only routing, logic and
    the reductions its own fold built: :func:`finished_module`
    rejects any other reduction, and an instance left in a callee's
    body is of a module that is unresolved or irregular, which makes
    the callee irregular, or at or above the threshold, which puts the
    callee there too, because sizes add up.  Routing goes through the
    folding builder calls, so constants and slices stay shared across
    sites; logic is copied with new operands, or folded by the
    session's one-level rules (:meth:`ModuleRewriter.copy`), and a
    reduction as the chain it was folded from
    (:func:`~busweaver.reductions.unfold`), which the caller's lanes can
    vectorize and its own fold can fold again."""
    ops, inst = rw.operations, rw.operations[op_id]
    values: list[ValueRef] = []
    for cop in callee.operations:
        kind = cop.kind
        args = [values[r.op] for r in cop.operands]
        if kind == "input":
            ref = inst.operands[inst.in_ports.index(cop.port)]
            value = spliced.get(ref, ref)
        elif kind == "const":
            value = rw.const(cop.value, cop.width)
        elif kind == "extract":
            value = rw.extract(args[0], cop.low, cop.width)
        elif kind == "concat":
            value = rw.concat(args)
        elif kind == "replicate":
            value = rw.replicate(args[0], cop.count)
        elif kind in REDUCE_KINDS:
            value = unfold(rw, cop, callee.operations, values)
        else:
            # a fold can return a caller value that a site spliced
            # before replaces: ~~ does where the caller's ~ reads one
            value = rw.copy(cop, args)
            value = spliced.get(value, value)
        values.append(value)
    outs = {pname: values[callee.outputs[pname].op]
            for pname, _ in inst.out_ports}
    for uid in readers:
        use = ops[uid]
        if use.kind != "extract":
            continue
        pieces = port_slices(inst.out_ports, use.low, use.width)
        if len(pieces) == 1:
            pname, first, width, _, _ = pieces[0]
            spliced[ValueRef(uid, width)] = rw.extract(outs[pname], first,
                                                       width)
    spliced[ValueRef(op_id, inst.width)] = rw.concat(list(outs.values())[::-1])
    rw.drop_instance(op_id)


def selective_inline(
    module: HwModule, finished: dict[str, FinishedModule],
    policy: InlinePolicy | None = None,
) -> tuple[ModuleRewriter, list[InlineDecision]]:
    """Open ``module``'s rewrite session and inline every site whose
    callee is finished, regular and strictly below the size threshold.

    Returns the session, still open for the vectorizer, and one
    decision per site, in the module's operation order.  ``finished``
    holds the callees; a site whose callee it lacks is unresolved.
    """
    policy = policy or InlinePolicy()
    rw = ModuleRewriter(module)
    log: list[InlineDecision] = []
    if not policy.enabled:
        return rw, log

    limit, ops = policy.threshold, module.operations
    # the sites to splice: (op id, callee, the operations reading it)
    sites = []
    for op_id in rw.instances:
        op = ops[op_id]
        callee = finished.get(op.module)
        if callee is None:
            size, inlined, reason = -1, False, "unresolved callee"
        elif not callee.regular:
            size, inlined, reason = callee.size, False, "not regular"
        else:
            size, inlined = callee.size, callee.size < limit
            relation = "<" if inlined else ">="
            reason = f"size {size} {relation} threshold {limit}"
        log.append(InlineDecision(module.name, op.name, op.module,
                                  inlined, size, reason))
        if inlined:
            sites.append((op_id, callee.module, rw.readers(op_id)))

    spliced: dict[ValueRef, ValueRef] = {}
    for op_id, callee, readers in sites:
        _splice(rw, op_id, callee, readers, spliced)
    if spliced:
        rw.replace_uses(spliced)
    return rw, log
