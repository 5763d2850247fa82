"""Replicated logic cone detection and vector reconstruction.

A logic cone is everything a single output bit depends on: the 1-bit
computing operations reached by walking backwards through routing, down
to input/constant bit leaves.  A sink vectorizes structurally when its
per-bit cones (a) are analyzable, (b) are pairwise independent (no
shared computing operations; shared leaves are fine), and (c) share one
canonical skeleton whose leaf slots are each either invariant (same bit
in every cone) or strided (advancing by exactly +1 or -1 per lane).

The skeleton is recorded by the worklist walk that collects the cone:
one tuple per operation popped, naming its kind and, per operand, the
index at which that operation was first pushed (-1 for a leaf, which
takes the next slot).  Push and pop order depend only on the cone's
shape and operand order, so equal skeletons mean isomorphic DAGs,
sharing included, and slot k of two such cones are corresponding
leaves.  A family is then described by its lowest lane, how far each
slot moves per lane (:func:`lane_steps`) and its lane count.

The vector form rebuilds the representative cone once at full width:
strided slots become part selects (for -1 strides, a concatenation of
one-bit selects, as Verilog writes a reversed run), invariant slots are
replicated across lanes, and a mux select stays scalar.
1-bit add/sub canonicalise to xor, in the skeleton and in the rebuilt
vector alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from busweaver.ir import HwModule, ValueRef, route_bit
from busweaver.rewrite import ModuleRewriter

#: Computing kinds a cone may contain (only at width 1).
_CONE_KINDS = frozenset({"and", "or", "xor", "not", "add", "sub", "mux"})

#: 1-bit add and sub are xor in disguise; fold them in the canonical
#: skeleton so trivially equivalent cones compare equal.
_CANON_KIND = {"add": "xor", "sub": "xor"}

# Terminals produced by routing resolution: ("leaf", op_id, bit) for an
# input/const bit, ("op", op_id) for a computing operation.
_LEAF = "leaf"
_OP = "op"


@dataclass
class LogicCone:
    """Backward cone of one bit of a sink value.

    ``ops`` are the computing operations in the cone.  ``skeleton`` is
    its canonical form in walk order: per operation popped, a tuple of
    its canonical kind and, per operand, the push index of the operand's
    operation or -1 for a leaf; identical skeletons are the definition
    of isomorphism.  ``slots`` lists the leaves, as (source op, bit)
    pairs, in the order the walk meets them; ``scalar_slots`` are the
    slot indices that sit in mux-select position and must stay scalar.
    ``visits`` counts the routing operations stepped through plus the
    computing operations collected while building the cone.
    """

    analyzable: bool
    reason: str = ""
    ops: frozenset[int] = frozenset()
    skeleton: list[tuple] = field(default_factory=list)
    slots: list[tuple[int, int]] = field(default_factory=list)
    scalar_slots: frozenset[int] = frozenset()
    visits: int = 0
    # Internal structure for the vector rebuild:
    root_term: tuple = ()
    children: dict[int, list[tuple]] = field(default_factory=dict)
    slot_at: dict[tuple, int] = field(default_factory=dict)

    @property
    def leaves(self) -> frozenset[tuple[int, int]]:
        """The (source op, bit) pairs feeding the cone."""
        return frozenset(self.slots)


def backward_cone(
    module: HwModule | ModuleRewriter,
    target: ValueRef,
    bit: int,
    routes: dict | None = None,
) -> LogicCone:
    """Collect the cone of ``target[bit]`` with a worklist that visits
    each computing operation once, recording its skeleton and slots on
    the way.

    Cones through anything that is not 1-bit combinational logic
    (instances, reductions, operations already at vector width) come
    back with ``analyzable`` False and a reason.  ``routes`` is the
    concat-offset index of :func:`busweaver.ir.route_bit`; share one
    across the bits of a sink.
    """
    ops = module.operations
    routes = {} if routes is None else routes
    cone = LogicCone(analyzable=True)

    def route(value: ValueRef, bit: int) -> tuple:
        value, bit, hops = route_bit(ops, value, bit, routes)
        cone.visits += hops
        if ops[value.op].kind in ("input", "const"):
            return (_LEAF, value.op, bit)
        return (_OP, value.op)

    root = route(target, bit)
    cone.root_term = root
    pushed: dict[int, int] = {}  # op id -> index at which it was pushed
    skeleton, slots, slot_at = cone.skeleton, cone.slots, cone.slot_at
    children = cone.children

    worklist: list[int] = []
    if root[0] == _LEAF:
        slot_at[("root",)] = 0
        slots.append((root[1], root[2]))
    else:
        worklist.append(root[1])
        pushed[root[1]] = 0

    while worklist:
        op_id = worklist.pop()
        op = ops[op_id]
        if op.kind not in _CONE_KINDS:
            cone.analyzable = False
            cone.reason = f"%{op_id} is {op.kind}, not 1-bit logic"
            return cone
        if op.width != 1:
            cone.analyzable = False
            cone.reason = f"%{op_id} computes {op.width} bits at once"
            return cone
        cone.visits += 1
        terms: list[tuple] = []
        entry: list = [_CANON_KIND.get(op.kind, op.kind)]
        for pos, ref in enumerate(op.operands):
            term = route(ref, 0)
            terms.append(term)
            if term[0] == _LEAF:
                slot_at[(_OP, op_id, pos)] = len(slots)
                slots.append((term[1], term[2]))
                entry.append(-1)
            else:
                k = pushed.get(term[1])
                if k is None:
                    k = pushed[term[1]] = len(pushed)
                    worklist.append(term[1])
                entry.append(k)
        skeleton.append(tuple(entry))
        children[op_id] = terms

    cone.ops = frozenset(pushed)
    if root[0] == _OP:
        cone.scalar_slots = _select_slots(module, cone)
    return cone


def _select_slots(
    module: HwModule | ModuleRewriter, cone: LogicCone
) -> frozenset[int]:
    """Slots reachable through a mux select, which must stay scalar.
    Walks the DAG once per (op, context) pair; context flips to scalar
    at the select operand and is inherited below it."""
    ops = module.operations
    scalar: set[int] = set()
    seen: set[tuple[int, bool]] = set()
    work = [(cone.root_term[1], False)]
    while work:
        op_id, ctx = work.pop()
        if (op_id, ctx) in seen:
            continue
        seen.add((op_id, ctx))
        is_mux = ops[op_id].kind == "mux"
        for pos, term in enumerate(cone.children[op_id]):
            child_ctx = ctx or (is_mux and pos == 0)
            if term[0] == _LEAF:
                if child_ctx:
                    scalar.add(cone.slot_at[(_OP, op_id, pos)])
            else:
                work.append((term[1], child_ctx))
    return frozenset(scalar)


def lane_steps(lower: LogicCone, upper: LogicCone) -> list[int] | None:
    """How far each slot's bit moves from one lane, ``lower``, to the
    next lane up, ``upper``, for cones of one skeleton: 0 or +-1 per
    slot.  ``None`` when a slot changes source, moves further, or
    moves in mux-select position (a select may not vary across lanes).
    """
    steps = []
    for k, (low, up) in enumerate(zip(lower.slots, upper.slots)):
        step = up[1] - low[1]
        if up[0] != low[0] or step not in (-1, 0, 1) \
                or (step and k in lower.scalar_slots):
            return None
        steps.append(step)
    return steps


def plan_vector_expr(
    rw: ModuleRewriter, rep: LogicCone, steps: list[int], lanes: int
) -> ValueRef:
    """Rebuild the ``lanes``-lane family whose lowest lane is ``rep``
    and whose slots move by ``steps`` per lane at vector width inside
    ``rw``: a slot that does not move is replicated, one that moves is
    a run of its source's bits from the one it takes in ``rep``.

    Shared operations are built once per (op, context); the scalar
    context covers mux selects, which are built 1-bit wide.
    """
    n = lanes
    ops = rw.operations

    def slot_value(idx: int, scalar: bool) -> ValueRef:
        source, base = rep.slots[idx]
        value = ValueRef(source, ops[source].width)
        if not steps[idx]:
            bitval = rw.extract(value, base, 1)
            return bitval if scalar or n == 1 else rw.replicate(bitval, n)
        assert not scalar
        if steps[idx] == 1:
            return rw.extract(value, base, n)
        low = base - n + 1  # a descending run, one select per bit
        return rw.concat([rw.extract(value, low + k, 1) for k in range(n)])

    if rep.root_term[0] == _LEAF:
        return slot_value(rep.slot_at[("root",)], scalar=False)

    root = rep.root_term[1]
    memo: dict[tuple[int, bool], ValueRef] = {}
    stack: list[tuple[int, bool, bool]] = [(root, False, False)]
    while stack:
        oid, ctx, expanded = stack.pop()
        if (oid, ctx) in memo:
            continue
        op = ops[oid]
        is_mux = op.kind == "mux"
        if not expanded:
            stack.append((oid, ctx, True))
            for pos, term in enumerate(rep.children[oid]):
                if term[0] == _OP:
                    child_ctx = ctx or (is_mux and pos == 0)
                    if (term[1], child_ctx) not in memo:
                        stack.append((term[1], child_ctx, False))
            continue
        args: list[ValueRef] = []
        for pos, term in enumerate(rep.children[oid]):
            child_ctx = ctx or (is_mux and pos == 0)
            if term[0] == _LEAF:
                args.append(
                    slot_value(rep.slot_at[(_OP, oid, pos)], child_ctx)
                )
            else:
                args.append(memo[(term[1], child_ctx)])
        kind = _CANON_KIND.get(op.kind, op.kind)
        if kind == "mux":
            value = rw.mux(args[0], args[1], args[2])
        elif kind == "not":
            value = rw.not_(args[0])
        else:
            value = rw.binary(kind, args[0], args[1])
        memo[(oid, ctx)] = value
    return memo[(root, False)]
