"""Rewrite sessions: a builder over an existing module, use replacement
through a use index, live-read counts, and dead-code compaction.

The pipeline edits each module in one :class:`ModuleRewriter` session,
which the inliner opens and the sink planner and reduction fold carry
on: each builds replacement expressions (new operations are appended
and value-numbered against the existing ones) and redirects old values
with :meth:`ModuleRewriter.replace_uses`; one call of
:meth:`ModuleRewriter.finish` then drops whatever became unreachable,
inlined instances included, before any caller copies the module.  The
session never mutates an input operation: an operation whose operands
are redirected is replaced, in its slot, by a new one.  Because the
builder value-numbers routing operations, a rewrite that reconstructs
exactly what is already there returns the old value itself, which is
how the pipeline tells a real rewrite from a no-op.  The session, not
its callers, keeps the liveness record
(:meth:`ModuleRewriter.live_reads`) that the planner's test for
orphaned wire sinks and the reduction fold read.
"""

from __future__ import annotations

from itertools import compress

from busweaver.ir import (
    HwModule,
    ModuleBuilder,
    Operation,
    ValueRef,
    cse_key,
    with_operands,
)


def live_order(
    module: HwModule, drop_ops: frozenset[int] | set[int] = frozenset(),
    instances: list[int] | None = None,
) -> list[int]:
    """Ids of the operations reachable from output bindings and
    instance statements, dependency first, in a deterministic order.

    Instance operations are roots (they are visible structure even when
    no one reads their outputs) unless listed in ``drop_ops``.  A caller
    that knows the ids of the module's instance operations passes them,
    in ascending order, as ``instances``; otherwise every operation is
    scanned for them.
    """
    ops = module.operations
    roots = [module.outputs[port.name].op for port in module.ports
             if port.direction == "output" and port.name in module.outputs]
    if instances is None:
        instances = [oid for oid, op in enumerate(ops)
                     if op.kind == "instance"]
    roots += [oid for oid in instances if oid not in drop_ops]
    # One depth-first walk from all roots, the first on top: an id is
    # to expand, its complement (negative) to emit once its operands are.
    stack = roots[::-1]
    seen = [False] * len(ops)
    order: list[int] = []
    while stack:
        oid = stack.pop()
        if oid < 0:
            order.append(~oid)
        elif not seen[oid]:
            seen[oid] = True
            stack.append(~oid)
            for ref in reversed(ops[oid].operands):
                if not seen[ref.op]:
                    stack.append(ref.op)
    return order


def compact_module(
    module: HwModule, drop_ops: frozenset[int] | set[int] = frozenset(),
    instances: list[int] | None = None,
) -> HwModule:
    """Rebuild the module keeping only the operations of
    :func:`live_order` (which takes ``drop_ops`` and ``instances``),
    renumbered in that order.  An operation whose operands are not
    renumbered is kept as the same object.

    Named wires are kept only while their value stays reachable; a wire
    orphaned by a rewrite disappears together with its cone.
    """
    ops = module.operations
    order = live_order(module, drop_ops, instances)
    remap = [-1] * len(ops)  # old id -> new id, -1 for a dropped one
    for new, old in enumerate(order):
        remap[old] = new
    new_ops = []
    for old in order:
        op = ops[old]
        # Operations are never mutated in place, so one whose operands
        # keep their ids is shared with the input module.
        for r in op.operands:
            if remap[r.op] != r.op:
                op = with_operands(op, [ValueRef(remap[r.op], r.width)
                                        for r in op.operands])
                break
        new_ops.append(op)
    outputs = {
        name: ValueRef(remap[ref.op], ref.width)
        for name, ref in module.outputs.items()
    }
    wires = {
        name: ValueRef(remap[ref.op], ref.width)
        for name, ref in module.wires.items()
        if remap[ref.op] >= 0
    }
    return HwModule(module.name, list(module.ports), new_ops, outputs, wires)


class ModuleRewriter(ModuleBuilder):
    """One editing session over a module.

    It starts from a shallow copy of the module's operation list, so new
    operations share the value numbering of the existing ones:
    re-emitting a slice or concatenation that already exists returns
    the existing value instead of growing the module.  Its :meth:`copy`
    folds ``~~x`` as it builds.
    """

    def __init__(self, module: HwModule):
        super().__init__(module.name, module.ports)
        self.operations = list(module.operations)
        # The ids of the instance operations, ascending.  Only the
        # frontend builds instances, and a redirected reader keeps its
        # slot, so they hold for the whole session.
        self._instances: list[int] = []
        for oid, op in enumerate(self.operations):
            key = cse_key(op)
            if key is None:
                if op.kind == "instance":
                    self._instances.append(oid)
            elif key not in self._cse:
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
        # The live-read counts (see live_reads), set up with the use
        # index; whether replace_uses has run; and the work of keeping
        # the counts, a counter that tests bound: one step per read
        # counted at set-up, per count shifted directly, and per
        # operation whose operands a shift reached.
        self._uses: list[int] = []
        self._redirected = False
        self.reader_steps = 0
        # Operations :meth:`copy` returned an existing value for
        # instead of building them.
        self.copies_folded = 0

    def copy(self, op: Operation, operands: list[ValueRef]) -> ValueRef:
        """``op`` over ``operands``, except that ``~~x`` is ``x``.

        That is the one rule that fires on the benchmark corpus, where
        a per-bit ``~~a`` cell spliced as two inversions per lane would
        be rebuilt as two vector inversions.  Rules that compare two
        operands (``x & x``, a mux with equal arms) are left out: a
        splice copies operands that :meth:`replace_uses` may make equal
        only later, so lanes of one family would fold unevenly and a
        re-run would change the bytes.  Only this session simplifies;
        :class:`~busweaver.ir.ModuleBuilder` and the frontend build what
        they are given, so that an instruction count before the
        pipeline is what the user wrote.
        """
        if op.kind == "not":
            inner = self.operations[operands[0].op]
            if inner.kind == "not":
                self.copies_folded += 1
                return inner.operands[0]
        return super().copy(op, operands)

    def live(self) -> list[int]:
        """The ids :meth:`finish` would keep, operands first: in id order
        until the session's first redirection (until then every
        operation reads lower ids only), in :func:`live_order` after."""
        if not self._redirected:
            return list(compress(range(len(self.operations)),
                                 self.live_reads()))
        module = ModuleBuilder.finish(self, self.outputs, self.wires)
        return live_order(module, self._dropped, self._instances)

    def drop_instance(self, op_id: int) -> None:
        self._dropped.add(op_id)
        if self._bound is not None:
            self._shift(-1, [op_id], [])

    def _index(self) -> None:
        """Index the readers of the operations appended since the last
        call, and count those operations as unread.  The first call also
        indexes the bindings and sets the live-read counts up."""
        ops, users, uses = self.operations, self._users, self._uses
        uses.extend([0] * (len(ops) - len(uses)))
        if self._bound is None:
            self._bound = {}
            for binding in (self.outputs, self.wires):
                for name, ref in binding.items():
                    self._bound.setdefault(ref.op, []).append((binding, name))
            for ref in self.outputs.values():
                uses[ref.op] += 1
            for oid in self._instances:
                if oid not in self._dropped:
                    uses[oid] += 1
            # From the top down: nothing is redirected yet, so every
            # operation reads lower ids only, and its count is whole
            # when the pass reaches it.
            for oid in range(len(ops) - 1, -1, -1):
                if uses[oid]:
                    for ref in ops[oid].operands:
                        uses[ref.op] += 1
            self.reader_steps += sum(uses)
        for oid in range(self._indexed, len(ops)):
            for ref in ops[oid].operands:
                readers = users.get(ref.op)
                if readers is None:
                    users[ref.op] = {oid}
                else:
                    readers.add(oid)
        self._indexed = len(ops)

    def live_reads(self) -> list[int]:
        """The session's own list of live-read counts, one per operation:
        its reads by live operations, plus one per output bound to it
        and one for a kept instance; :meth:`finish` keeps the operations
        whose count is not 0.  Every redirection keeps the list current,
        and covers the operations appended since."""
        self._index()
        return self._uses

    def is_live(self, ref: ValueRef) -> bool:
        """Whether :meth:`finish` would keep ``ref``'s operation: its
        live-read count is not 0."""
        return self.live_reads()[ref.op] > 0

    def replace_uses(self, subst: dict[ValueRef, ValueRef]) -> None:
        """Redirect every use (operands, outputs, wires) of each key of
        ``subst`` to its value.

        Only the readers of the old values are touched, found through
        the use index.  Each is replaced by a new operation in its
        slot and re-keyed in the value-numbering table, so emission
        afterwards shares it like any other operation.  A reader that
        becomes equal to a value-numbered operation already there is
        merged into it, its own uses redirected in turn: the module
        never holds two equal routing operations, which its text would
        write alike and a re-parse would count once.
        """
        self._index()
        self._redirected = True
        ops, users, cse, uses = (self.operations, self._users, self._cse,
                                 self._uses)
        while subst:
            # the values outputs move to and from, and the operations of
            # the live readers after the edit and before it
            gained_ids, lost_ids, gained, lost = [], [], [], []
            readers = set()
            for old in subst:
                readers |= users.pop(old.op, set())
                for binding, name in self._bound.pop(old.op, ()):
                    ref = binding[name] = subst[old]
                    self._bound.setdefault(ref.op, []).append(
                        (binding, name))
                    if binding is self.outputs:
                        lost_ids.append(old.op)
                        gained_ids.append(ref.op)
            readers = sorted(readers)
            for uid in readers:
                op = ops[uid]
                key = cse_key(op)
                if key is not None and cse.get(key) == ValueRef(uid, op.width):
                    del cse[key]
                new = ops[uid] = with_operands(
                    op, [subst.get(r, r) for r in op.operands])
                for ref in new.operands:
                    users.setdefault(ref.op, set()).add(uid)
                if uses[uid]:
                    lost.append(op)
                    gained.append(new)
            self._shift(1, gained_ids, gained)
            self._shift(-1, lost_ids, lost)
            # A reader that became equal to another routing operation,
            # its twin, has its own uses redirected to the twin next.
            twins = {}
            for uid in readers:
                op = ops[uid]
                key = cse_key(op)
                if key is None:
                    continue
                twin = cse.get(key)
                if twin is None or twin in subst:
                    cse[key] = ValueRef(uid, op.width)
                else:
                    twins[ValueRef(uid, op.width)] = twin
            subst = twins

    def _shift(self, step: int, oids: list[int],
               readers: list[Operation]) -> None:
        """Add ``step`` (1 or -1) to the count of each of ``oids`` and of
        each operand of ``readers``; a count that comes up from 0, or
        falls to it, passes the step on to its operation's operands."""
        uses, ops = self._uses, self.operations
        edge = 0 if step > 0 else 1  # the count before a change of state
        passed = readers  # grows: the operations whose operands take it
        push = passed.append
        for oid in oids:
            n = uses[oid]
            uses[oid] = n + step
            if n == edge:
                push(ops[oid])
        for op in passed:
            for ref in op.operands:
                oid = ref.op
                n = uses[oid]
                uses[oid] = n + step
                if n == edge:
                    push(ops[oid])
        self.reader_steps += len(oids) + len(passed)

    def finish(self) -> HwModule:
        module = super().finish(self.outputs, self.wires)
        return compact_module(module, self._dropped, self._instances)
