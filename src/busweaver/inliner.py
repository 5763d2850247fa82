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
:func:`busweaver.ir.instantiation_order`: a callee is itself inlined
first, so its size is measured after its own inlining settled, and each
module's size and regularity are computed once, from its callees'.
"""

from __future__ import annotations

from typing import NamedTuple

from busweaver.ir import (
    REDUCE_KINDS,
    HwDesign,
    HwModule,
    ValueRef,
    count_instructions,
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
    module: HwModule, regular: dict[str, bool] | None = None
) -> bool:
    """A module is regular when every operation is routing, bitwise
    logic, add/sub, mux, or an instance of a module that ``regular``
    marks regular (callees are judged first; an unknown callee is not
    regular).  Reductions make it irregular: after inlining, each
    site's reduction is an operation of its own, so per-site lanes
    read different leaf sources and stay scalar, and inlining would
    only copy the body."""
    regular = regular or {}
    return all(
        op.kind not in REDUCE_KINDS
        and (op.kind != "instance" or regular.get(op.module, False))
        for op in module.operations
    )


def size_analysis(
    module: HwModule, sizes: dict[str, int] | None = None
) -> int:
    """Recursive instruction count: the module's own computing ops plus
    the full size of every instantiated callee, read from ``sizes``
    (callees are measured first; an unknown callee counts 0)."""
    sizes = sizes or {}
    return count_instructions(module) + sum(
        sizes.get(op.module, 0)
        for op in module.operations if op.kind == "instance"
    )


def _splice(rw: ModuleRewriter, op_id: int, callee: HwModule,
            taken_names: set[str], spliced: dict[ValueRef, ValueRef]) -> None:
    """Copy the callee body into the caller for instance ``op_id`` and
    record the value packing its outputs in ``spliced``, from which a
    site connected to an instance spliced before reads that value."""
    inst = rw.operations[op_id]
    mapping: dict[int, ValueRef] = {}
    for cid, cop in enumerate(callee.operations):
        kind = cop.kind
        if kind == "input":
            ref = inst.operands[inst.in_ports.index(cop.port)]
            mapping[cid] = spliced.get(ref, ref)
        elif kind == "const":
            mapping[cid] = rw.const(cop.value, cop.width)
        elif kind == "extract":
            mapping[cid] = rw.extract(
                mapping[cop.operands[0].op], cop.low, cop.width
            )
        elif kind == "concat":
            mapping[cid] = rw.concat(
                [mapping[r.op] for r in cop.operands]
            )
        elif kind == "replicate":
            mapping[cid] = rw.replicate(
                mapping[cop.operands[0].op], cop.count
            )
        elif kind == "not":
            mapping[cid] = rw.not_(mapping[cop.operands[0].op])
        elif kind == "mux":
            c, a, b = (mapping[r.op] for r in cop.operands)
            mapping[cid] = rw.mux(c, a, b)
        elif kind in REDUCE_KINDS:
            mapping[cid] = rw.reduce(kind, mapping[cop.operands[0].op])
        elif kind == "instance":
            name = f"{inst.name}_{cop.name}"
            while name in taken_names:
                name += "_"
            taken_names.add(name)
            mapping[cid] = rw.instance(
                cop.module, name,
                [mapping[r.op] for r in cop.operands],
                cop.in_ports, cop.out_ports,
            )
        else:
            mapping[cid] = rw.binary(
                kind, mapping[cop.operands[0].op],
                mapping[cop.operands[1].op],
            )
    outs = [
        mapping[callee.outputs[pname].op] for pname, _ in inst.out_ports
    ]
    spliced[ValueRef(op_id, inst.width)] = rw.concat(list(reversed(outs)))
    rw.drop_instance(op_id)


def selective_inline(
    design: HwDesign, policy: InlinePolicy | None = None
) -> tuple[HwDesign, list[InlineDecision]]:
    """Inline every site whose callee is regular and strictly below the
    size threshold.  Returns the rewritten design and one decision per
    site, in processing order."""
    policy = policy or InlinePolicy()
    log: list[InlineDecision] = []
    if not policy.enabled:
        return design, log

    new_modules: dict[str, HwModule] = {}
    # size and regularity of each module after its own inlining
    sizes: dict[str, int] = {}
    regular: dict[str, bool] = {}
    for name in instantiation_order(design)[0]:
        module = design.modules[name]
        instances = [
            op_id for op_id, op in enumerate(module.operations)
            if op.kind == "instance"
        ]
        rw = None  # made at the first site inlined
        taken = {module.operations[op_id].name for op_id in instances}
        spliced: dict[ValueRef, ValueRef] = {}
        for op_id in instances:
            op = module.operations[op_id]
            callee = new_modules.get(op.module)
            if callee is None:
                log.append(InlineDecision(name, op.name, op.module,
                                          False, -1, "unresolved callee"))
                continue
            size = sizes[op.module]
            if not regular[op.module]:
                log.append(InlineDecision(name, op.name, op.module,
                                          False, size, "not regular"))
                continue
            if size >= policy.threshold:
                log.append(InlineDecision(
                    name, op.name, op.module, False, size,
                    f"size {size} >= threshold {policy.threshold}",
                ))
                continue
            if rw is None:
                rw = ModuleRewriter(module)
            _splice(rw, op_id, callee, taken, spliced)
            log.append(InlineDecision(
                name, op.name, op.module, True, size,
                f"size {size} < threshold {policy.threshold}",
            ))
        if spliced:
            rw.replace_uses(spliced)
            module = rw.finish()
        new_modules[name] = module
        sizes[name] = size_analysis(module, sizes)
        regular[name] = regularity_analysis(module, regular)

    ordered = {name: new_modules[name] for name in design.modules}
    return HwDesign(ordered, design.top), log
