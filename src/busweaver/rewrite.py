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
orphaned wire sinks and the reduction fold read, and the module facts
the inliner reads: the instance sites (:attr:`~ModuleRewriter.instances`)
and each site's readers (:meth:`~ModuleRewriter.readers`).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, compress
from operator import attrgetter

from busweaver.ir import (
    HwModule,
    ModuleBuilder,
    Operation,
    ValueRef,
    cse_key,
    with_operands,
)


_OP = attrgetter("op")


def live_order(
    module: HwModule, drop_ops: frozenset[int] | set[int] = frozenset(),
    instances: list[int] | None = None,
) -> list[int]:
    """Ids of the operations reachable from output bindings and
    instance statements, dependency first, in a deterministic order.

    ``module`` may be a :class:`ModuleRewriter` session.  Instance
    operations are roots (they are visible structure even when no one
    reads their outputs) unless listed in ``drop_ops``.  A caller that
    knows the ids of the module's instance operations passes them, in
    ascending order, as ``instances``; otherwise every operation is
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
    """Rebuild the module (or a session's) keeping only the operations
    of :func:`live_order` (which takes ``drop_ops`` and ``instances``),
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
    folds ``~~x`` as it builds.  The session holds the module's fields,
    so :meth:`live` and :meth:`finish` hand itself to
    :func:`live_order` and :func:`compact_module`.
    """

    def __init__(self, module: HwModule):
        super().__init__(module.name, module.ports)
        self.operations = list(module.operations)
        # The ids of the instance operations, ascending, dropped ones
        # included.  Only the frontend builds instances, and a redirected
        # reader keeps its slot, so they hold for the whole session.
        instances = []
        for oid, op in enumerate(self.operations):
            key = cse_key(op)
            if key is None:
                if op.kind == "instance":
                    instances.append(oid)
            elif key not in self._cse:
                self._cse[key] = ValueRef(oid, op.width)
        self.instances = tuple(instances)
        self.outputs = dict(module.outputs)
        self.wires = dict(module.wires)
        self._dropped: set[int] = set()
        # The use index, brought up to date by _index: op id -> the
        # operations reading it and -> the output and wire bindings
        # naming it.  It holds the readers with ids in ``[_low,
        # _indexed)`` and every redirected reader; an entry may repeat.
        # Until a redirection every operation reads lower ids only, so
        # the readers of a value are above it, and the index grows down
        # only as far as the lowest value replaced so far.
        self._users: defaultdict[int, list[int]] = defaultdict(list)
        self._low = self._indexed = len(self.operations)
        self._bound: dict[int, list[tuple[dict, str]]] | None = None
        # The live-read counts (see live_reads), None until something
        # reads them; whether replace_uses has run; and the work of
        # keeping the counts, a counter that tests bound: one step per
        # read counted at set-up, per count shifted directly, and per
        # operation whose operands a shift reached.
        self._uses: list[int] | None = None
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

    def readers(self, op_id: int) -> list[int]:
        """The ids, ascending, of the operations, live or not, that read
        ``op_id``'s value, from the use index."""
        if op_id + 1 < self._low or self._indexed != len(self.operations):
            self._index(op_id + 1)
        return sorted(set(self._users[op_id]))

    def live(self) -> list[int]:
        """The ids :meth:`finish` would keep, operands first: in id order
        until the session's first redirection (until then every
        operation reads lower ids only), in :func:`live_order` after."""
        if not self._redirected:
            return list(compress(range(len(self.operations)),
                                 self.live_reads()))
        return live_order(self, self._dropped, self.instances)

    def drop_instance(self, op_id: int) -> None:
        self._dropped.add(op_id)
        if self._uses is not None:
            self._shift(-1, [op_id], [])

    def _index(self, low: int) -> None:
        """Index the readers of the operations appended since the last
        call and of those from ``low`` up, so that the index holds every
        reader of every value from ``low - 1`` up.  The first call also
        indexes the bindings."""
        ops, users = self.operations, self._users
        if self._bound is None:
            self._bound = {}
            for binding in (self.outputs, self.wires):
                for name, ref in binding.items():
                    self._bound.setdefault(ref.op, []).append((binding, name))
        for oid in chain(range(self._indexed, len(ops)),
                         range(low, self._low)):
            for ref in ops[oid].operands:
                users[ref.op].append(oid)
        self._indexed = len(ops)
        self._low = min(low, self._low)

    def live_reads(self) -> list[int]:
        """The session's own list of live-read counts, one per operation:
        its reads by live operations, plus one per output bound to it
        and one for a kept instance; :meth:`finish` keeps the operations
        whose count is not 0.  The first call counts them; from then on
        every redirection keeps the list current, and each call covers
        the operations appended since."""
        uses = self._uses
        if uses is not None:
            uses.extend([0] * (len(self.operations) - len(uses)))
            return uses
        ops = self.operations
        uses = [0] * len(ops)
        for ref in self.outputs.values():
            uses[ref.op] += 1
        for oid in self.instances:
            if oid not in self._dropped:
                uses[oid] += 1
        if self._redirected:
            for oid in self.live():
                for ref in ops[oid].operands:
                    uses[ref.op] += 1
        else:
            # From the top down: nothing is redirected yet, so every
            # operation reads lower ids only, and its count is whole
            # when the pass reaches it.
            for oid in range(len(ops) - 1, -1, -1):
                if uses[oid]:
                    for ref in ops[oid].operands:
                        uses[ref.op] += 1
        self.reader_steps += sum(uses)
        self._uses = uses
        return uses

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
        # Later rounds replace redirected readers, which are indexed.
        self._index(min(map(_OP, subst)) + 1)
        self._redirected = True
        counting = self._uses is not None
        uses = self.live_reads() if counting else None
        ops, users, cse = self.operations, self._users, self._cse
        while subst:
            # the values outputs move to and from, and the operations of
            # the live readers after the edit and before it
            gained_ids, lost_ids, gained, lost = [], [], [], []
            readers = set()
            for old in subst:
                readers.update(users[old.op])
                users[old.op] = []
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
                    users[ref.op].append(uid)
                if counting and uses[uid]:
                    lost.append(op)
                    gained.append(new)
            if counting:
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

    def replace_tree(self, nodes: list[int], leaves: dict[int, int],
                     value: ValueRef) -> None:
        """:meth:`replace_uses` of the 1-bit value of ``nodes[0]`` by
        ``value``, where ``nodes`` form a tree that then dies: every node
        after the first has one live read, by a node, and ``leaves``
        maps each other operand of a node to its reads by nodes.  The
        counts are set without walking the tree again: the nodes' to 0,
        and only the leaves' shift."""
        uses = self.live_reads()
        root = nodes[0]
        uses[root] += 1  # stops the redirection's shift at the root
        self.replace_uses({ValueRef(root, 1): value})
        for oid in nodes:
            uses[oid] = 0
        ops, dead = self.operations, []
        for oid, reads in leaves.items():
            n = uses[oid] = uses[oid] - reads
            if n == 0:
                dead.append(ops[oid])
        self.reader_steps += len(nodes) + len(leaves)
        self._shift(-1, [], dead)

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
        return compact_module(self, self._dropped, self.instances)
