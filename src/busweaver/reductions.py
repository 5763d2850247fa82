"""Reduction folding: a hand-written chain such as ``a[0] ^ a[3] ^ a[0]``
becomes one reduction per source (here just ``a[3]``), and
``a[0] & a[1] & a[2]`` becomes ``&a[2:0]``.

This is the horizontal reduction of SLP vectorizers (LLVM's
``HorizontalReduction``) applied to Verilog.  A *tree* is a maximal set
of 1-bit ``xor``, ``and`` or ``or`` operations of one kind in which
every node but the root has exactly one reader, the node above it, and
no wire name.  Its *leaves* are the operands that are not nodes.  Each
leaf is routed (:func:`busweaver.ir.route_bit`) to a bit of its
*source*, the first value that is not routing.  Under ``xor`` a bit
read twice cancels, and a tree whose bits all cancel is the constant 0;
under ``and`` and ``or`` a bit counts once.  Constants are sources like
any other.  The bits left of one source form one term: the bit itself,
or a reduction over the cheapest of a part select (contiguous bits), a
concatenation of ascending runs, or the source masked (``v & mask``, or
``v | ~mask`` under ``and``).  The terms are joined by the tree's
operator in the order their sources first appear.

A tree is rewritten only where the module then counts strictly fewer
instructions.  One call makes one sweep, readers before operands; the
pipeline sweeps again, after planning its sinks again, until a sweep
folds nothing.  The sweep reads the session's live-read counts
(:meth:`~busweaver.rewrite.ModuleRewriter.live_reads`), which the
session keeps current through every rewrite, so it knows which
operations a rewrite kills and which of those it builds exist already
and stay live anyway.  :func:`unfold`, the inverse, turns a reduction
the fold built back into its chain, where the inliner splices a callee.
"""

from __future__ import annotations

from functools import reduce

from busweaver.ir import Operation, ValueRef, route_bit
from busweaver.rewrite import ModuleRewriter

_REDUCE = {"xor": "redxor", "and": "redand", "or": "redor"}
_MASKED = {"xor": "and", "and": "or", "or": "and"}  # v & mask, v | ~mask

#: Operations that die with their last reader as far as the cost
#: estimate looks; below any other leaf it assumes nothing dies.
_ROUTING = frozenset({"const", "extract", "concat", "replicate"})


def fold_reductions(rw: ModuleRewriter) -> list[str]:
    """Sweep ``rw``'s live operations once, readers before operands, and
    fold every tree whose rewrite shrinks the module.  Returns one name
    per fold: the output or wire its root drives, else the output port
    or instance whose logic holds it."""
    if not any(op.width == 1 and op.kind in _REDUCE
               for op in rw.operations):
        return []
    return _Folder(rw).sweep()


def _runs(bits: list[int]) -> list[tuple[int, int]]:
    """Ascending sorted ``bits`` as maximal ``(low, width)`` runs."""
    runs: list[list[int]] = []
    for bit in bits:
        if runs and runs[-1][0] + runs[-1][1] == bit:
            runs[-1][1] += 1
        else:
            runs.append([bit, 1])
    return [(low, width) for low, width in runs]


class _Folder:
    """One sweep over the live operations, readers before operands."""

    def __init__(self, rw: ModuleRewriter):
        self.rw = rw
        self.ops = rw.operations

    def sweep(self) -> list[str]:
        rw, ops = self.rw, self.ops
        self.uses = uses = rw.live_reads()
        self.order = rw.live()
        self.names: dict[int, str] = {}
        for binding in (rw.outputs, rw.wires):
            for name, ref in binding.items():
                self.names.setdefault(ref.op, name)
        self.wired = {ref.op for ref in rw.wires.values()}
        self.owners: dict[int, str] | None = None
        folded: list[str] = []
        seen: set[int] = set()  # the nodes of the trees seen so far
        for root in reversed(self.order):
            op = ops[root]
            if op.kind not in _REDUCE or op.width != 1 or root in seen \
                    or not uses[root]:
                continue
            nodes, leaves = self.tree(root, op.kind)
            seen.update(nodes)
            value = self.fold(op.kind, nodes, leaves)
            if value is not None:
                folded.append(self.name(root))
                rw.replace_tree(nodes, leaves, value)
                if root in self.wired:
                    self.wired.add(value.op)
        return folded

    def tree(self, root: int, kind: str) -> tuple[list[int], dict[int, int]]:
        """The nodes of the tree under ``root``, and how often it reads
        each leaf (a 1-bit value), leaves in order of first read from
        the left."""
        ops, uses, wired = self.ops, self.uses, self.wired
        nodes, leaves = [root], {}
        a, b = ops[root].operands
        stack = [b.op, a.op]
        while stack:
            oid = stack.pop()
            op = ops[oid]
            if op.kind == kind and uses[oid] == 1 and oid not in wired:
                nodes.append(oid)
                a, b = op.operands
                stack.append(b.op)
                stack.append(a.op)
            else:
                leaves[oid] = leaves.get(oid, 0) + 1
        return nodes, leaves

    def fold(self, kind: str, nodes: list[int],
             leaves: dict[int, int]) -> ValueRef | None:
        """Build the folded value of a tree, or None when it would not
        count fewer instructions than the operations it kills."""
        ops, rw = self.ops, self.rw
        routes: dict = {}
        bits: dict[ValueRef, dict[int, int]] = {}  # source -> bit -> reads
        for oid, reads in leaves.items():
            src, bit, _ = route_bit(ops, ValueRef(oid, 1), 0, routes)
            counts = bits.setdefault(src, {})
            counts[bit] = counts.get(bit, 0) + reads
        groups = [(src, sorted(b for b, n in counts.items()
                               if kind != "xor" or n % 2))
                  for src, counts in bits.items()]
        groups = [(src, group) for src, group in groups if group]
        if len(groups) == sum(leaves.values()):
            return None  # one bit per source, none read twice: as written

        dying = self.dying(nodes, leaves)
        uses = self.uses

        def free(key: tuple) -> bool:
            hit = rw.lookup(key)
            return hit is not None and uses[hit.op] > 0 \
                and hit.op not in dying

        def select(src: ValueRef, low: int, width: int) -> int:
            if low == 0 and width == src.width:
                return 0
            return 0 if free(("extract", src.op, low, width)) else 1

        # (cost, form, argument) of each term, as :meth:`term` takes them
        terms: list[tuple[int, str, object]] = []
        for src, group in groups:
            if len(group) == 1:
                terms.append((select(src, group[0], 1), "bit", group[0]))
                continue
            runs = _runs(group)
            mask = sum(1 << b for b in group)
            if kind == "and":
                mask ^= (1 << src.width) - 1  # the bits forced to 1
            options = [
                (select(src, *runs[0]), "slice", runs[0]) if len(runs) == 1
                else (sum(select(src, *r) for r in runs) + 1, "concat", runs),
                (2 - free(("const", mask, src.width)), "mask", mask),
            ]
            cost, form, arg = min(options, key=lambda o: o[0])
            terms.append((cost + 1, form, arg))
        # every pair cancelled: the tree is constant 0
        cost = sum(t[0] for t in terms) + len(terms) - 1 if terms \
            else 1 - free(("const", 0, 1))
        if cost >= len(dying):  # every operation in dying counts
            return None

        value = rw.const(0, 1) if not terms else None
        for (src, _), (_, form, arg) in zip(groups, terms):
            term = self.term(kind, src, form, arg)
            value = term if value is None else rw.binary(kind, value, term)
        return value

    def term(self, kind: str, src: ValueRef, form: str,
             arg) -> ValueRef:
        rw = self.rw
        if form == "bit":
            return rw.extract(src, arg, 1)
        if form == "slice":
            vector = rw.extract(src, *arg)
        elif form == "concat":
            vector = rw.concat([rw.extract(src, *r) for r in reversed(arg)])
        else:
            vector = rw.binary(_MASKED[kind], src, rw.const(arg, src.width))
        return rw.reduce(_REDUCE[kind], vector)

    def dying(self, nodes: list[int], leaves: dict[int, int]) -> set[int]:
        """The tree's nodes, and the constants and routing below its
        leaves that no operation outside the tree reads."""
        ops, uses = self.ops, self.uses
        dying = set(nodes)
        lost = dict(leaves)  # reads from operations in dying
        stack = list(leaves)
        while stack:
            oid = stack.pop()
            if lost[oid] == uses[oid] and oid not in dying \
                    and ops[oid].kind in _ROUTING:
                dying.add(oid)
                for ref in ops[oid].operands:
                    lost[ref.op] = lost.get(ref.op, 0) + 1
                    stack.append(ref.op)
        return dying

    def name(self, root: int) -> str:
        if root in self.names:
            return self.names[root]
        if self.owners is None:
            # first fold of the sweep: the operations are as it found them
            ops, owners = self.ops, {}
            starts = [(name, ref.op) for name, ref in self.rw.outputs.items()]
            starts += [(ops[oid].name, oid) for oid in self.order
                       if ops[oid].kind == "instance"]
            for name, start in starts:
                stack = [start]
                while stack:
                    oid = stack.pop()
                    if oid not in owners:
                        owners[oid] = name
                        stack += [ref.op for ref in ops[oid].operands]
            self.owners = owners
        return self.owners[root]


def unfold(rw: ModuleRewriter, op: Operation, ops: list[Operation],
           values: list[ValueRef]) -> ValueRef:
    """The inverse of :meth:`_Folder.term`, built in ``rw``: reduction
    ``op`` of the module of ``ops`` as a chain, LSB first, over the bits
    it reads, each routed back through ``ops`` to its source and read
    from that source's copy in ``values``.  A bit that a mask forces to
    the chain's identity is left out.  A chain whose every bit is a
    constant is the one constant it computes."""
    kind = op.kind[3:]  # redxor -> xor
    masked = _MASKED[kind]
    routes: dict = {}
    terms = []
    for b in range(op.operands[0].width):
        src, bit, _ = route_bit(ops, op.operands[0], b, routes)
        sop = ops[src.op]
        if sop.kind == masked and ops[sop.operands[1].op].kind == "const":
            v, mask = sop.operands
            if (ops[mask.op].value >> bit & 1) == (kind == "and"):
                continue  # forced to the identity: 0, or 1 under and
            src, bit, _ = route_bit(ops, v, bit, routes)
        terms.append(rw.extract(values[src.op], bit, 1))
    bits = [rw.operations[t.op] for t in terms]
    if all(b.kind == "const" for b in bits):  # the identity if none
        ones = sum(b.value for b in bits)
        return rw.const(ones % 2 if kind == "xor" else
                        ones == len(bits) if kind == "and" else ones > 0, 1)
    return reduce(lambda value, term: rw.binary(kind, value, term), terms)
