"""Rewrite sessions: a builder over an existing module, use replacement
through a use index, and dead-code compaction.

A pass opens one :class:`ModuleRewriter` per module and makes all of
its edits there: it builds replacement expressions (new operations are
appended and value-numbered against the existing ones), redirects old
values to new ones with :meth:`ModuleRewriter.replace_uses`, and calls
:meth:`ModuleRewriter.finish` once to drop whatever became
unreachable.  The session never mutates an input operation: an
operation whose operands are redirected is replaced, in its slot, by a
new one.  Because the builder value-numbers routing operations, a
rewrite that reconstructs exactly what is already there returns the old
value itself, which is how the pipeline tells a real rewrite from a
no-op.
"""

from __future__ import annotations

from dataclasses import replace

from busweaver.ir import (
    HwModule,
    ModuleBuilder,
    ValueRef,
    cse_key,
)


def live_order(
    module: HwModule, drop_ops: frozenset[int] | set[int] = frozenset()
) -> list[int]:
    """Ids of the operations reachable from output bindings and
    instance statements, dependency first, in a deterministic order.

    Instance operations are roots (they are visible structure even when
    no one reads their outputs) unless listed in ``drop_ops``.
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
    return order


def compact_module(
    module: HwModule, drop_ops: frozenset[int] | set[int] = frozenset()
) -> HwModule:
    """Rebuild the module keeping only the operations of
    :func:`live_order`, renumbered in that order.  An operation whose
    operands are not renumbered is kept as the same object.

    Named wires are kept only while their value stays reachable; a wire
    orphaned by a rewrite disappears together with its cone.
    """
    ops = module.operations
    order = live_order(module, drop_ops)
    remap = {old: new for new, old in enumerate(order)}
    new_ops = []
    for old in order:
        op = ops[old]
        # Operations are never mutated in place, so one whose operands
        # keep their ids is shared with the input module.
        if any(remap[r.op] != r.op for r in op.operands):
            op = replace(op, operands=[
                ValueRef(remap[r.op], r.width) for r in op.operands
            ])
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


class ModuleRewriter(ModuleBuilder):
    """One editing session over a module.

    It starts from a shallow copy of the module's operation list, so new
    operations share the value numbering of the existing ones:
    re-emitting a slice or concatenation that already exists returns
    the existing value instead of growing the module.
    """

    def __init__(self, module: HwModule):
        super().__init__(module.name, module.ports)
        self.operations = list(module.operations)
        for oid, op in enumerate(self.operations):
            key = cse_key(op)
            if key is not None and key not in self._cse:
                self._cse[key] = ValueRef(oid, op.width)
        self.outputs = dict(module.outputs)
        self.wires = dict(module.wires)
        self._dropped: set[int] = set()
        # The use index, brought up to date by _index: op id -> the
        # operations reading it (the first ``_indexed`` ones) and -> the
        # output and wire bindings naming it.
        self._users: dict[int, set[int]] = {}
        self._indexed = 0
        self._bound: dict[int, list[tuple[dict, str]]] | None = None

    def drop_instance(self, op_id: int) -> None:
        self._dropped.add(op_id)

    def _index(self) -> None:
        """Index the readers of the operations appended since the last
        call, and the bindings on the first call."""
        ops, users = self.operations, self._users
        for oid in range(self._indexed, len(ops)):
            for ref in ops[oid].operands:
                users.setdefault(ref.op, set()).add(oid)
        self._indexed = len(ops)
        if self._bound is None:
            self._bound = {}
            for binding in (self.outputs, self.wires):
                for name, ref in binding.items():
                    self._bound.setdefault(ref.op, []).append((binding, name))

    def is_live(self, ref: ValueRef) -> bool:
        """Whether :meth:`finish` would keep ``ref``'s operation: some
        chain of readers, walked upward through the use index, reaches
        an operation bound to an output or a kept instance."""
        self._index()
        ops, users, bound = self.operations, self._users, self._bound
        seen = {ref.op}
        stack = [ref.op]
        while stack:
            oid = stack.pop()
            if ops[oid].kind == "instance" and oid not in self._dropped:
                return True
            if any(b is self.outputs for b, _ in bound.get(oid, ())):
                return True
            for uid in users.get(oid, ()):
                if uid not in seen:
                    seen.add(uid)
                    stack.append(uid)
        return False

    def replace_uses(self, subst: dict[ValueRef, ValueRef]) -> None:
        """Redirect every use (operands, outputs, wires) of each key of
        ``subst`` to its value.

        Only the readers of the old values are touched, found through
        the use index.  Each is replaced by a new operation in its
        slot and re-keyed in the value-numbering table, so emission
        afterwards shares it like any other operation.
        """
        self._index()
        ops, users, cse = self.operations, self._users, self._cse
        readers = set()
        for old in subst:
            readers |= users.pop(old.op, set())
            for binding, name in self._bound.pop(old.op, ()):
                ref = binding[name] = subst[old]
                self._bound.setdefault(ref.op, []).append((binding, name))
        for uid in sorted(readers):
            op = ops[uid]
            key = cse_key(op)
            if key is not None and cse.get(key) == ValueRef(uid, op.width):
                del cse[key]
            op = ops[uid] = replace(
                op, operands=[subst.get(r, r) for r in op.operands]
            )
            key = cse_key(op)
            if key is not None:
                cse[key] = ValueRef(uid, op.width)
            for ref in op.operands:
                users.setdefault(ref.op, set()).add(uid)

    def finish(self) -> HwModule:
        module = super().finish(self.outputs, self.wires)
        return compact_module(module, self._dropped)
