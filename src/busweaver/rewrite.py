"""In-place rewriting support: builder over an existing module, use
replacement, and dead-code compaction.

All vectorization passes follow the same shape: wrap the module in a
:class:`ModuleRewriter`, build the replacement expression (new
operations are appended and value-numbered against the existing ones),
redirect the rewritten sink with :meth:`ModuleRewriter.replace_uses`,
and call :meth:`ModuleRewriter.finish` to drop whatever became
unreachable.  Because the builder value-numbers routing operations, a
rewrite that reconstructs exactly what is already there produces a
module equal to the input, which is how the pipeline tells a real
rewrite from a no-op.
"""

from __future__ import annotations

from dataclasses import replace

from busweaver.ir import (
    HwDesign,
    HwModule,
    ModuleBuilder,
    Operation,
    ValueRef,
    route_bit,
)


def _cse_key(op_id: int, op: Operation) -> tuple | None:
    kind = op.kind
    if kind == "const":
        return ("const", op.value, op.width)
    if kind == "input":
        return ("input", op.port)
    if kind == "extract":
        return ("extract", op.operands[0].op, op.low, op.width)
    if kind == "concat":
        return ("concat",) + tuple(r.op for r in op.operands)
    if kind == "reverse":
        return ("reverse", op.operands[0].op)
    if kind == "replicate":
        return ("replicate", op.operands[0].op, op.count)
    return None


def _copy_op(op: Operation) -> Operation:
    return replace(op, operands=list(op.operands))


def compact_module(
    module: HwModule, drop_ops: frozenset[int] | set[int] = frozenset()
) -> HwModule:
    """Rebuild the module keeping only operations reachable from output
    bindings and instance statements, renumbered in a deterministic
    dependency-first order.

    Named wires are kept only while their value stays reachable; a wire
    orphaned by a rewrite disappears together with its cone.  Instance
    operations are roots (they are visible structure even when no one
    reads their outputs) unless listed in ``drop_ops``.
    """
    ops = module.operations
    seen = [False] * len(ops)
    order: list[int] = []

    def visit(root: int) -> None:
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            oid, expanded = stack.pop()
            if expanded:
                order.append(oid)
                continue
            if seen[oid]:
                continue
            seen[oid] = True
            stack.append((oid, True))
            for ref in reversed(ops[oid].operands):
                if not seen[ref.op]:
                    stack.append((ref.op, False))

    for port in module.ports:
        if port.direction == "output" and port.name in module.outputs:
            visit(module.outputs[port.name].op)
    for oid, op in enumerate(ops):
        if op.kind == "instance" and oid not in drop_ops:
            visit(oid)

    remap = {old: new for new, old in enumerate(order)}
    new_ops = []
    for old in order:
        op = _copy_op(ops[old])
        op.operands = [ValueRef(remap[r.op], r.width) for r in op.operands]
        new_ops.append(op)
    outputs = {
        name: ValueRef(remap[ref.op], ref.width)
        for name, ref in module.outputs.items()
    }
    wires = {
        name: ValueRef(remap[ref.op], ref.width)
        for name, ref in module.wires.items()
        if ref.op in remap
    }
    return HwModule(module.name, list(module.ports), new_ops, outputs, wires)


def compact_design(design: HwDesign) -> HwDesign:
    modules = {
        name: compact_module(m) for name, m in design.modules.items()
    }
    return HwDesign(modules, design.top)


class ModuleRewriter:
    """Mutable working copy of a module with builder-style emission.

    New operations share the value numbering of the existing ones, so
    re-emitting a slice or concatenation that already exists returns the
    existing value instead of growing the module.
    """

    def __init__(self, module: HwModule):
        self.source = module
        b = ModuleBuilder(module.name, module.ports)
        b.operations = [_copy_op(op) for op in module.operations]
        for oid, op in enumerate(b.operations):
            key = _cse_key(oid, op)
            if key is not None and key not in b._cse:
                b._cse[key] = ValueRef(oid, op.width)
        self.builder = b
        self.outputs = dict(module.outputs)
        self.wires = dict(module.wires)
        self._dropped: set[int] = set()
        self._routes: dict = {}  # route_bit's concat-offset index

    # -- emission (delegates to the builder) -----------------------------
    def const(self, value: int, width: int) -> ValueRef:
        return self.builder.const(value, width)

    def input_ref(self, port: str, width: int) -> ValueRef:
        return self.builder.input_ref(port, width)

    def extract(self, v: ValueRef, low: int, width: int) -> ValueRef:
        return self.builder.extract(v, low, width)

    def concat(self, parts: list[ValueRef]) -> ValueRef:
        return self.builder.concat(parts)

    def reverse(self, v: ValueRef) -> ValueRef:
        return self.builder.reverse(v)

    def replicate(self, v: ValueRef, count: int) -> ValueRef:
        return self.builder.replicate(v, count)

    def binary(self, kind: str, a: ValueRef, b: ValueRef) -> ValueRef:
        return self.builder.binary(kind, a, b)

    def not_(self, v: ValueRef) -> ValueRef:
        return self.builder.not_(v)

    def mux(self, cond: ValueRef, then: ValueRef, other: ValueRef) -> ValueRef:
        return self.builder.mux(cond, then, other)

    def reduce(self, kind: str, v: ValueRef) -> ValueRef:
        return self.builder.reduce(kind, v)

    def op(self, ref: ValueRef) -> Operation:
        return self.builder.operations[ref.op]

    # -- structural edits -------------------------------------------------
    def resolve_bit(self, v: ValueRef, bit: int) -> ValueRef:
        """A 1-bit value equal to bit ``bit`` of ``v``, reusing existing
        operations where the bit routes straight through them."""
        v, bit, _ = route_bit(self.builder.operations, v, bit, self._routes)
        return v if v.width == 1 else self.extract(v, bit, 1)

    def drop_instance(self, op_id: int) -> None:
        self._dropped.add(op_id)

    def replace_uses(self, old: ValueRef, new: ValueRef) -> None:
        """Redirect every use of ``old`` (operands, outputs, wires) to
        ``new``.  Invalidates the value-numbering cache, so emission
        after this point no longer shares pre-existing operations, and
        the concat-offset index, whose operands may now be stale."""
        if old == new:
            return
        self.builder._cse.clear()
        self._routes.clear()
        for op in self.builder.operations:
            if any(r == old for r in op.operands):
                op.operands = [new if r == old else r for r in op.operands]
        for name, ref in self.outputs.items():
            if ref == old:
                self.outputs[name] = new
        for name, ref in self.wires.items():
            if ref == old:
                self.wires[name] = new

    def finish(self) -> HwModule:
        m = self.builder.finish(self.outputs, self.wires)
        return compact_module(m, self._dropped)
