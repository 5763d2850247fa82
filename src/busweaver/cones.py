"""Replicated logic cone detection and vector reconstruction.

A logic cone is everything a single output bit depends on: the 1-bit
computing operations reached by walking backwards through routing, down
to leaf bits.  A leaf is a bit of any value that is not 1-bit logic:
an input, a constant, a reduction, an instance output, or an operation
already at vector width, which the vector form reads as it is.  So
every bit has a cone, and per-bit logic around a word-level value
vectorizes like per-bit logic around an input.  A sink vectorizes
structurally when its per-bit cones (a) are pairwise independent (no
shared computing operations; shared leaves are fine), and (b) share
one canonical skeleton whose leaf slots are each either invariant
(same bit in every cone) or strided (advancing by exactly +1 or -1 per
lane).

The skeleton is the cone's one structural record, filled in by the
worklist walk that collects the cone.  Entry k belongs to the operation
the walk pushed k-th: its kind, then per operand the push index of the
operand's operation, or ``~s`` for a leaf that takes slot s.  Slots are
numbered in pop order, then operand order.  Push and pop order depend
only on the cone's shape and operand order, so equal skeletons mean
isomorphic DAGs, sharing included, and slot s of two such cones are
corresponding leaves.  A family is then described by its lowest lane,
how far each slot moves per lane (:func:`lane_steps`) and its lane
count.  Its mux-select slots (:func:`select_slots`) come from the
skeleton alone, so they are found once per family.

The vector form rebuilds the representative cone once at full width
from its skeleton: strided slots become part selects (for -1 strides,
a concatenation of one-bit selects, as Verilog writes a reversed run),
invariant slots are replicated across lanes, and a mux select stays
scalar.  1-bit add/sub canonicalise to xor, in the skeleton and in the
rebuilt vector alike.
"""

from __future__ import annotations

from busweaver.ir import HwModule, ValueRef, route_bit
from busweaver.rewrite import ModuleRewriter

#: Computing kinds a cone may contain (only at width 1); a bit of any
#: other value is a leaf.
_CONE_KINDS = frozenset({"and", "or", "xor", "not", "add", "sub", "mux"})

#: 1-bit add and sub are xor in disguise; fold them in the canonical
#: skeleton so trivially equivalent cones compare equal.
_CANON_KIND = {"add": "xor", "sub": "xor"}


class LogicCone:
    """Backward cone of one bit of a sink value.  Every bit has one:
    the walk ends at any value that is not 1-bit logic, so
    ``analyzable`` is always true.

    ``ops`` are the computing operations in the cone in push order, and
    ``skeleton[k]`` is the entry of ``ops[k]``: its canonical kind and,
    per operand, the operand's push index or ``~s`` for a leaf in slot
    s; identical skeletons are the definition of isomorphism.  A cone
    whose bit routes straight to a leaf has an empty skeleton and one
    slot.  ``slots`` lists the leaves, as (source op, bit) pairs, in the
    order the walk meets them.  ``visits`` counts the routing operations
    stepped through plus the computing operations collected while
    building the cone.
    """

    __slots__ = ("ops", "skeleton", "slots", "visits")

    analyzable = True

    def __init__(self) -> None:
        self.ops: tuple[int, ...] = ()
        self.skeleton: list[tuple] = []
        self.slots: list[tuple[int, int]] = []
        self.visits = 0


def backward_cone(
    module: HwModule | ModuleRewriter,
    target: ValueRef,
    bit: int,
    routes: dict | None = None,
) -> LogicCone:
    """Collect the cone of ``target[bit]`` with a worklist that visits
    each computing operation once, recording its skeleton and slots on
    the way.

    The walk never fails: a bit of anything that is not 1-bit
    combinational logic (an input, a constant, a reduction, an
    instance, an operation already at vector width) is a leaf that
    takes a slot.  ``routes`` is the concat-offset index of
    :func:`busweaver.ir.route_bit`; share one across the bits of a
    sink.
    """
    ops = module.operations
    routes = {} if routes is None else routes
    cone = LogicCone()
    skeleton, slots = cone.skeleton, cone.slots
    pushed: dict[int, int] = {}  # op id -> index at which it was pushed
    worklist: list[int] = []

    def code(value: ValueRef, bit: int) -> int:
        """The skeleton code of ``value[bit]``, pushing a new op."""
        value, bit, hops = route_bit(ops, value, bit, routes)
        cone.visits += hops
        op = ops[value.op]
        if op.kind not in _CONE_KINDS or op.width != 1:
            slots.append((value.op, bit))
            return ~(len(slots) - 1)
        k = pushed.get(value.op)
        if k is None:
            k = pushed[value.op] = len(skeleton)
            skeleton.append(None)  # set when the op is popped
            worklist.append(value.op)
        return k

    code(target, bit)
    while worklist:
        op_id = worklist.pop()
        op = ops[op_id]
        cone.visits += 1
        skeleton[pushed[op_id]] = (
            _CANON_KIND.get(op.kind, op.kind),
            *[code(ref, 0) for ref in op.operands],
        )

    cone.ops = tuple(pushed)
    return cone


def select_slots(skeleton: list[tuple]) -> frozenset[int]:
    """Slots of a skeleton reachable through a mux select, which must
    stay scalar.  Walks the skeleton once per (entry, context) pair;
    context flips to scalar at the select operand and is inherited
    below it."""
    if not any(entry[0] == "mux" for entry in skeleton):
        return frozenset()
    scalar: set[int] = set()
    seen: set[tuple[int, bool]] = set()
    work = [(0, False)]
    while work:
        k, ctx = work.pop()
        if (k, ctx) in seen:
            continue
        seen.add((k, ctx))
        kind, *codes = skeleton[k]
        for pos, c in enumerate(codes):
            child_ctx = ctx or (kind == "mux" and pos == 0)
            if c >= 0:
                work.append((c, child_ctx))
            elif child_ctx:
                scalar.add(~c)
    return frozenset(scalar)


def lane_steps(
    lower: LogicCone, upper: LogicCone, scalar: frozenset[int]
) -> list[int] | None:
    """How far each slot's bit moves from one lane, ``lower``, to the
    next lane up, ``upper``, for cones of one skeleton whose select
    slots are ``scalar``: 0 or +-1 per slot.  ``None`` when a slot
    changes source, moves further, or moves in mux-select position (a
    select may not vary across lanes).
    """
    steps = []
    for k, (low, up) in enumerate(zip(lower.slots, upper.slots)):
        step = up[1] - low[1]
        if up[0] != low[0] or step not in (-1, 0, 1) \
                or (step and k in scalar):
            return None
        steps.append(step)
    return steps


def plan_vector_expr(
    rw: ModuleRewriter, rep: LogicCone, steps: list[int], lanes: int
) -> ValueRef:
    """Rebuild the ``lanes``-lane family whose lowest lane is ``rep``
    and whose slots move by ``steps`` per lane at vector width inside
    ``rw``, from ``rep``'s skeleton and slots: a slot that does not
    move is replicated, one that moves is a run of its source's bits
    from the one it takes in ``rep``.

    Shared operations are built once per (entry, context); the scalar
    context covers mux selects, which are built 1-bit wide.
    """
    n = lanes
    ops = rw.operations
    skeleton = rep.skeleton

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

    if not skeleton:
        return slot_value(0, scalar=False)

    memo: dict[tuple[int, bool], ValueRef] = {}
    stack: list[tuple[int, bool, bool]] = [(0, False, False)]
    while stack:
        k, ctx, expanded = stack.pop()
        if (k, ctx) in memo:
            continue
        kind, *codes = skeleton[k]
        if not expanded:
            stack.append((k, ctx, True))
            for pos, c in enumerate(codes):
                child_ctx = ctx or (kind == "mux" and pos == 0)
                if c >= 0 and (c, child_ctx) not in memo:
                    stack.append((c, child_ctx, False))
            continue
        args: list[ValueRef] = []
        for pos, c in enumerate(codes):
            child_ctx = ctx or (kind == "mux" and pos == 0)
            args.append(
                memo[(c, child_ctx)] if c >= 0
                else slot_value(~c, child_ctx)
            )
        if kind == "mux":
            value = rw.mux(args[0], args[1], args[2])
        elif kind == "not":
            value = rw.not_(args[0])
        else:
            value = rw.binary(kind, args[0], args[1])
        memo[(k, ctx)] = value
    return memo[(0, False)]
