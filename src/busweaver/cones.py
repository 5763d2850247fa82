"""Replicated logic cone detection and vector reconstruction.

A logic cone is everything a single output bit depends on: the 1-bit
computing operations reached by walking backwards through routing, down
to input/constant bit leaves.  A sink vectorizes structurally when its
per-bit cones (a) are analyzable, (b) are pairwise independent (no
shared computing operations; shared leaves are fine), and (c) share one
canonical skeleton whose leaf slots are each either invariant (same bit
in every cone) or strided (advancing by exactly +1 or -1 per lane).

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
from busweaver.permutation import PassCounters
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

    ``ops`` are the computing operations in the cone; ``leaves`` the
    (source op, bit) pairs feeding it.  ``skeleton`` is a canonical
    preorder serialization with sharing backreferences, identical
    skeletons being the definition of isomorphism.  ``slots`` lists the
    leaves in serialization order; ``scalar_slots`` are the slot indices
    that sit in mux-select position and must stay scalar.
    """

    root_value: ValueRef
    root_bit: int
    analyzable: bool
    reason: str = ""
    ops: frozenset[int] = frozenset()
    leaves: frozenset[tuple[int, int]] = frozenset()
    skeleton: str = ""
    slots: list[tuple[int, int]] = field(default_factory=list)
    scalar_slots: frozenset[int] = frozenset()
    # Internal structure for the vector rebuild:
    root_term: tuple = ()
    children: dict[int, list[tuple]] = field(default_factory=dict)
    slot_at: dict[tuple, int] = field(default_factory=dict)


def backward_cone(
    module: HwModule | ModuleRewriter,
    target: ValueRef,
    bit: int,
    counters: PassCounters | None = None,
    routes: dict | None = None,
) -> LogicCone:
    """Collect the cone of ``target[bit]`` with a worklist that visits
    each computing operation once.

    Cones through anything that is not 1-bit combinational logic
    (instances, reductions, operations already at vector width) come
    back with ``analyzable`` False and a reason.  ``routes`` is the
    concat-offset index of :func:`busweaver.ir.route_bit`; share one
    across the bits of a sink.
    """
    ops = module.operations
    routes = {} if routes is None else routes

    def route(value: ValueRef, bit: int) -> tuple:
        value, bit, hops = route_bit(ops, value, bit, routes)
        if counters is not None:
            counters.cone_visits += hops
        if ops[value.op].kind in ("input", "const"):
            return (_LEAF, value.op, bit)
        return (_OP, value.op)

    cone = LogicCone(target, bit, analyzable=True)
    root = route(target, bit)
    cone.root_term = root
    ops_set: set[int] = set()
    leaves: set[tuple[int, int]] = set()
    children: dict[int, list[tuple]] = {}

    worklist: list[int] = []
    if root[0] == _LEAF:
        leaves.add((root[1], root[2]))
    else:
        worklist.append(root[1])
        ops_set.add(root[1])

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
        if counters is not None:
            counters.cone_visits += 1
        terms: list[tuple] = []
        for ref in op.operands:
            term = route(ref, 0)
            terms.append(term)
            if term[0] == _LEAF:
                leaves.add((term[1], term[2]))
            elif term[1] not in ops_set:
                ops_set.add(term[1])
                worklist.append(term[1])
        children[op_id] = terms

    cone.ops = frozenset(ops_set)
    cone.leaves = frozenset(leaves)
    cone.children = children
    _serialize(module, cone)
    return cone


def _serialize(module: HwModule | ModuleRewriter, cone: LogicCone) -> None:
    """Fill skeleton/slots/slot_at/scalar_slots from the resolved DAG.

    The skeleton is a preorder walk; shared operations are emitted once
    and appear as ``@k`` backreferences afterwards, so equal strings
    mean isomorphic DAGs, sharing included.  Leaf positions appear as
    ``s`` and are listed in ``slots`` in walk order.
    """
    tokens: list[str] = []
    slots: list[tuple[int, int]] = []
    slot_at: dict[tuple, int] = {}
    local: dict[int, int] = {}
    ops = module.operations

    def leaf_token(pos_key: tuple, op_id: int, bit: int) -> None:
        slot_at[pos_key] = len(slots)
        slots.append((op_id, bit))
        tokens.append("s")

    if cone.root_term[0] == _LEAF:
        leaf_token(("root",), cone.root_term[1], cone.root_term[2])
    else:
        stack: list[tuple] = [(_OP, cone.root_term[1])]
        while stack:
            item = stack.pop()
            if item is None:
                tokens.append(")")
                continue
            tag = item[0]
            if tag == _LEAF:
                _, op_id, bit, pos_key = item
                leaf_token(pos_key, op_id, bit)
                continue
            op_id = item[1]
            if op_id in local:
                tokens.append(f"@{local[op_id]}")
                continue
            local[op_id] = len(local)
            kind = ops[op_id].kind
            tokens.append(_CANON_KIND.get(kind, kind) + "(")
            stack.append(None)
            terms = cone.children[op_id]
            for pos in range(len(terms) - 1, -1, -1):
                term = terms[pos]
                if term[0] == _LEAF:
                    stack.append(
                        (_LEAF, term[1], term[2], (_OP, op_id, pos))
                    )
                else:
                    stack.append(term)

    cone.skeleton = " ".join(tokens)
    cone.slots = slots
    cone.slot_at = slot_at

    # Slots reachable through a mux select must stay scalar.  Walk the
    # DAG once per (op, context) pair; context flips to scalar at the
    # select operand and is inherited below it.
    scalar: set[int] = set()
    seen: set[tuple[int, bool]] = set()
    if cone.root_term[0] == _OP:
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
    cone.scalar_slots = frozenset(scalar)


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


@dataclass(frozen=True)
class Slot:
    """Cross-cone classification of one leaf slot."""

    kind: str  # "invariant" or "strided"
    source: int  # defining op id of the leaf value
    base: int  # bit in the first (LSB) cone
    step: int  # 0 for invariant, +1 or -1 for strided


@dataclass
class ConeShape:
    """Common shape of an isomorphic cone family."""

    skeleton: str
    slots: list[Slot]
    lanes: int


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


def family_shape(rep: LogicCone, steps: list[int], lanes: int) -> ConeShape:
    """The shape of a ``lanes``-lane family whose lane ``rep`` names
    each slot's base bit and whose slots move by ``steps`` per lane: a
    slot that does not move is invariant."""
    slots = [
        Slot("strided" if step else "invariant", source, base, step)
        for (source, base), step in zip(rep.slots, steps)
    ]
    return ConeShape(rep.skeleton, slots, lanes)


def plan_vector_expr(
    rw: ModuleRewriter, rep: LogicCone, shape: ConeShape
) -> ValueRef:
    """Rebuild the representative cone at vector width inside ``rw``.

    Shared operations are built once per (op, context); the scalar
    context covers mux selects, which are built 1-bit wide.
    """
    n = shape.lanes
    ops = rw.operations

    def slot_value(idx: int, scalar: bool) -> ValueRef:
        slot = shape.slots[idx]
        source = ValueRef(slot.source, ops[slot.source].width)
        if slot.kind == "invariant":
            bitval = rw.extract(source, slot.base, 1)
            return bitval if scalar or n == 1 else rw.replicate(bitval, n)
        assert not scalar
        if slot.step == 1:
            return rw.extract(source, slot.base, n)
        low = slot.base - n + 1  # a descending run, one select per bit
        return rw.concat([rw.extract(source, low + k, 1) for k in range(n)])

    if rep.root_term[0] == _LEAF:
        return slot_value(rep.slot_at[("root",)], scalar=False)

    memo: dict[tuple[int, bool], ValueRef] = {}

    def build(op_id: int, scalar: bool) -> ValueRef:
        stack: list[tuple[int, bool, bool]] = [(op_id, scalar, False)]
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
        return memo[(op_id, scalar)]

    return build(rep.root_term[1], False)

