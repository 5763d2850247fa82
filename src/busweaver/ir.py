"""Word-level dataflow IR for flat combinational hardware.

A module is a list of operations in SSA form: each operation defines one
bit-vector value, identified by its index in the list, and may only
reference values defined earlier.  Output ports and named wires bind to
values; there is no other control flow or state.

Operation kinds:

    const       literal bit vector (``value`` attribute)
    input       reference to an input port (``port`` attribute)
    extract     contiguous slice ``[low + width - 1 : low]`` of one operand
    concat      operands most-significant first, width is the sum
    replicate   operand repeated ``count`` times
    and or xor  bitwise, two or more operands of equal width
    not         bitwise complement
    add         modular sum of two or more operands of equal width
    sub         modular difference of two operands of equal width
    mux         operands (cond, then, else); cond has width 1
    redand redor redxor
                reduction of one operand to a single bit
    instance    instantiation of another module; operands align with the
                callee's input ports in order, and the result packs the
                callee's output ports with the first port at the LSB end

``input`` and ``instance`` operations are pure references to values that
live outside the module body, so instruction counts skip them.  An
``and``, ``or``, ``xor`` or ``add`` of n operands stands for the chain
``x0 op x1 op ... op x(n-1)`` as the user wrote it, and counts n - 1:
what the binary operations of that chain would count.

Two evaluators run a module.  ``simulate`` is the scalar reference: one
input vector, word-level operations, each callee run in a frame of its
own on an explicit stack.
The equivalence oracle instead compiles each module once, callees
first, into a ``PackedProgram`` of one-bit ``and``/``or``/``xor``/
``not``/``mux`` gates (``compile_packed``) and evaluates that with
``simulate_packed``, all test vectors at once.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from functools import reduce
from itertools import accumulate, chain, compress
from operator import attrgetter
from typing import NamedTuple


class ValueRef:
    """Reference to the value defined by operation ``op`` of a module.
    Every operation builds one, so it is a slotted class with a
    positional ``__init__``: slot reads take the interpreter's fast
    path.  Compared and hashed on ``(op, width)``; never mutated."""

    __slots__ = ("op", "width")

    def __init__(self, op: int, width: int) -> None:
        self.op = op
        self.width = width

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ValueRef:
            return NotImplemented
        return self.op == other.op and self.width == other.width

    def __hash__(self) -> int:
        return hash((self.op, self.width))


class Port(NamedTuple):
    name: str
    direction: str  # "input" or "output"
    width: int


class Operation:
    """One SSA operation.  The payload attributes after ``operands``
    matter only to some kinds: ``value`` to a const, ``low`` to an
    extract, ``count`` to a replicate, ``port`` to an input, and the
    rest to an instance: its callee ``module``, its own ``name``, the
    callee's input port names ``in_ports`` and its ``(name, width)``
    output ports ``out_ports``."""

    __slots__ = ("kind", "width", "operands", "value", "low", "count",
                 "port", "module", "name", "in_ports", "out_ports")

    def __init__(
        self,
        kind: str,
        width: int,
        operands: list[ValueRef] | None = None,
        value: int = 0,
        low: int = 0,
        count: int = 0,
        port: str = "",
        module: str = "",
        name: str = "",
        in_ports: tuple[str, ...] = (),
        out_ports: tuple[tuple[str, int], ...] = (),
    ) -> None:
        self.kind = kind
        self.width = width
        self.operands = [] if operands is None else operands
        self.value = value
        self.low = low
        self.count = count
        self.port = port
        self.module = module
        self.name = name
        self.in_ports = in_ports
        self.out_ports = out_ports

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Operation:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in Operation.__slots__)


def with_operands(op: Operation, operands: list[ValueRef]) -> Operation:
    """A copy of ``op`` that reads ``operands``; operations are never
    mutated in place."""
    return Operation(op.kind, op.width, operands, op.value, op.low, op.count,
                     op.port, op.module, op.name, op.in_ports, op.out_ports)


def instance_ports(
    ports: list[Port],
) -> tuple[tuple[str, ...], tuple[tuple[str, int], ...]]:
    """The ``in_ports`` and ``out_ports`` of an instance of a module
    whose ports are ``ports``."""
    return (tuple(p.name for p in ports if p.direction == "input"),
            tuple((p.name, p.width) for p in ports if p.direction == "output"))


def port_slices(
    out_ports: tuple[tuple[str, int], ...], low: int, width: int
) -> list[tuple[str, int, int, int, int]]:
    """Bits ``[low, low + width)`` of an instance result, which packs
    ``out_ports`` with the first port at the LSB end, as one piece per
    port they cover, LSB first: ``(port name, first bit inside the port,
    width, port width, first bit in the result)``.  This is the only
    code that knows the layout; ``port_slices(out_ports, 0, w)`` over a
    result of width ``w`` lists every port whole."""
    pieces = []
    start = 0
    high = low + width
    for name, pwidth in out_ports:
        end = start + pwidth
        if low < end and start < high:
            first = low if low > start else start
            last = high if high < end else end
            pieces.append((name, first - start, last - first, pwidth, first))
        start = end
    return pieces


#: Bitwise/arithmetic kinds over operands of the result's width.
BINARY_KINDS = frozenset({"and", "or", "xor", "add", "sub"})

#: The binary kinds that take two or more operands (``sub`` takes two).
VARIADIC_KINDS = frozenset({"and", "or", "xor", "add"})

REDUCE_KINDS = frozenset({"redand", "redor", "redxor"})

#: Kinds that compute a value from their operands.  ``input`` and
#: ``instance`` are deliberately absent: they stand for values produced
#: outside the module body.
COUNTED_KINDS = frozenset({"const", "extract", "concat", "replicate", "not",
                           "mux"}) | BINARY_KINDS | REDUCE_KINDS

ALL_KINDS = COUNTED_KINDS | {"input", "instance"}


class HwModule:
    """One module: ports, an SSA operation list, and value bindings.

    ``outputs`` maps every output port name to the value driving it.
    ``wires`` maps user-visible internal net names to values; wires are
    kept purely so emitted Verilog can preserve the names.
    ``numbering``, which only the frontend sets, is what its builder
    knew of the operations it built (see :meth:`ModuleBuilder.numbering`),
    which a rewrite session takes instead of indexing them again; it is
    no part of the module's value, so equality ignores it.
    """

    __slots__ = ("name", "ports", "operations", "outputs", "wires",
                 "numbering")
    _FIELDS = __slots__[:-1]

    def __init__(
        self,
        name: str,
        ports: list[Port] | None = None,
        operations: list[Operation] | None = None,
        outputs: dict[str, ValueRef] | None = None,
        wires: dict[str, ValueRef] | None = None,
    ) -> None:
        self.name = name
        self.ports = [] if ports is None else ports
        self.operations = [] if operations is None else operations
        self.outputs = {} if outputs is None else outputs
        self.wires = {} if wires is None else wires

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not HwModule:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in HwModule._FIELDS)

    @property
    def input_ports(self) -> list[Port]:
        return [p for p in self.ports if p.direction == "input"]

    @property
    def output_ports(self) -> list[Port]:
        return [p for p in self.ports if p.direction == "output"]


class HwDesign:
    """A set of modules plus a designated top.  ``modules`` preserves
    source order, which the emitter relies on."""

    __slots__ = ("modules", "top")

    def __init__(self, modules: dict[str, HwModule] | None = None,
                 top: str = "") -> None:
        self.modules = {} if modules is None else modules
        self.top = top

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not HwDesign:
            return NotImplemented
        return self.modules == other.modules and self.top == other.top

    @property
    def top_module(self) -> HwModule:
        return self.modules[self.top]


def cse_key(op: Operation) -> tuple | None:
    """Value-numbering key of a leaf or routing operation; operations
    of any other kind are never shared."""
    kind = op.kind
    if kind == "const":
        return ("const", op.value, op.width)
    if kind == "input":
        return ("input", op.port)
    if kind == "extract":
        return ("extract", op.operands[0].op, op.low, op.width)
    if kind == "concat":
        return ("concat",) + tuple(r.op for r in op.operands)
    if kind == "replicate":
        return ("replicate", op.operands[0].op, op.count)
    return None


class ModuleBuilder:
    """Incremental construction of a module's operation list.

    The builder value-numbers ``const``, ``input``, ``extract``,
    ``concat`` and ``replicate`` operations, and folds the routing
    identities (full-width extract, extract of extract, extract of
    const, single-operand concat, count-1 replicate).  Keeping routing
    operations canonical this way is what lets a re-run of the
    vectorizer recognise its own output and leave it untouched: a bit
    reversal, say, is a concat of one-bit extracts, which is also what
    the frontend builds when it reads the emitted text back.  A chain
    is one operation, :meth:`nary`; :meth:`binary` builds one of two
    operands.
    """

    def __init__(self, name: str, ports: list[Port]):
        self.name = name
        self.ports = list(ports)
        self.operations: list[Operation] = []
        self._cse: dict[tuple, ValueRef] = {}

    def _emit(self, op: Operation) -> ValueRef:
        key = cse_key(op)
        if key is not None:
            hit = self._cse.get(key)
            if hit is not None:
                return hit
        return self._add(op, key)

    def lookup(self, key: tuple) -> ValueRef | None:
        """The value-numbered operation with :func:`cse_key` ``key``."""
        return self._cse.get(key)

    def _add(self, op: Operation, key: tuple | None) -> ValueRef:
        ref = ValueRef(len(self.operations), op.width)
        self.operations.append(op)
        if key is not None:
            self._cse[key] = ref
        return ref

    # The leaf kinds look their key up before building an Operation:
    # most requests for them are hits.

    def const(self, value: int, width: int) -> ValueRef:
        value &= (1 << width) - 1
        key = ("const", value, width)
        return self._cse.get(key) or self._add(
            Operation("const", width, value=value), key)

    def input_ref(self, port: str, width: int) -> ValueRef:
        key = ("input", port)
        return self._cse.get(key) or self._add(
            Operation("input", width, port=port), key)

    def extract(self, v: ValueRef, low: int, width: int) -> ValueRef:
        assert 0 <= low and low + width <= v.width
        if low == 0 and width == v.width:
            return v
        inner = self.operations[v.op]
        if inner.kind == "extract":
            return self.extract(inner.operands[0], inner.low + low, width)
        if inner.kind == "const":
            return self.const(inner.value >> low, width)
        key = ("extract", v.op, low, width)
        return self._cse.get(key) or self._add(
            Operation("extract", width, [v], low=low), key)

    def concat(self, parts: list[ValueRef]) -> ValueRef:
        assert parts
        if len(parts) == 1:
            return parts[0]
        width = sum(p.width for p in parts)
        return self._emit(Operation("concat", width, list(parts)))

    def replicate(self, v: ValueRef, count: int) -> ValueRef:
        assert count >= 1
        if count == 1:
            return v
        return self._emit(
            Operation("replicate", v.width * count, [v], count=count)
        )

    # Computing kinds are never shared.

    def binary(self, kind: str, a: ValueRef, b: ValueRef) -> ValueRef:
        assert kind in BINARY_KINDS and a.width == b.width
        return self._add(Operation(kind, a.width, [a, b]), None)

    def nary(self, kind: str, operands: list[ValueRef]) -> ValueRef:
        """One ``kind`` operation over ``operands``, all of one width:
        two or more for a :data:`VARIADIC_KINDS` kind, two for ``sub``.
        It stands for the left-deep chain of binary operations over
        them and counts as many instructions."""
        width = operands[0].width
        assert kind in VARIADIC_KINDS and len(operands) > 2 \
            or kind in BINARY_KINDS and len(operands) == 2
        assert all(map(width.__eq__, map(_WIDTH, operands)))
        return self._add(Operation(kind, width, list(operands)), None)

    def not_(self, v: ValueRef) -> ValueRef:
        return self._add(Operation("not", v.width, [v]), None)

    def mux(self, cond: ValueRef, then: ValueRef, other: ValueRef) -> ValueRef:
        assert cond.width == 1 and then.width == other.width
        return self._add(
            Operation("mux", then.width, [cond, then, other]), None)

    def copy(self, op: Operation, operands: list[ValueRef]) -> ValueRef:
        """A new, unshared copy of the computing operation ``op`` that
        reads ``operands``."""
        return self._add(with_operands(op, operands), None)

    def reduce(self, kind: str, v: ValueRef) -> ValueRef:
        assert kind in REDUCE_KINDS
        if v.width == 1:
            return v
        return self._add(Operation(kind, 1, [v]), None)

    def instance(
        self,
        module: str,
        name: str,
        operands: list[ValueRef],
        in_ports: tuple[str, ...],
        out_ports: tuple[tuple[str, int], ...],
    ) -> ValueRef:
        width = sum(w for _, w in out_ports)
        return self._add(
            Operation(
                "instance",
                width,
                list(operands),
                module=module,
                name=name,
                in_ports=in_ports,
                out_ports=out_ports,
            ),
            None,
        )

    def finish(
        self, outputs: dict[str, ValueRef], wires: dict[str, ValueRef]
    ) -> HwModule:
        return HwModule(
            self.name, self.ports, self.operations, dict(outputs), dict(wires)
        )

    def numbering(
        self, instances: list[ValueRef],
    ) -> tuple[dict[tuple, ValueRef], tuple[int, ...]]:
        """The value-numbering table of what the builder built, and the
        ids, ascending, of its instance operations, whose values are
        ``instances``: what a rewrite session over the finished module
        would index again, as long as the module keeps the builder's
        operations and ids."""
        return self._cse, tuple(sorted(map(_OP, instances)))


def route_bit(
    ops: list[Operation],
    value: ValueRef,
    bit: int,
    index: dict[int, tuple[list[int], list[ValueRef]]] | None = None,
) -> tuple[ValueRef, int, int]:
    """Follow bit ``bit`` of ``value`` backwards through routing
    operations (extract, concat, replicate).

    Returns the first value that is not routing, the bit of it, and the
    number of routing operations stepped through.  ``index`` memoizes
    concat offsets by op id; keep one per analysis, not on the module,
    because a rewriter redirects operands.
    """
    if index is None:
        index = {}
    hops = 0
    while True:
        op = ops[value.op]
        kind = op.kind
        if kind == "extract":
            bit += op.low
            value = op.operands[0]
        elif kind == "concat":
            entry = index.get(value.op)
            if entry is None:
                parts = op.operands[::-1]  # LSB first
                offsets = list(accumulate((p.width for p in parts), initial=0))
                entry = index[value.op] = (offsets, parts)
            offsets, parts = entry
            k = bisect_right(offsets, bit) - 1
            value = parts[k]
            bit -= offsets[k]
        elif kind == "replicate":
            bit %= op.operands[0].width
            value = op.operands[0]
        else:
            return value, bit, hops
        hops += 1


def count_instructions(module: HwModule) -> int:
    """Number of instructions ``module`` computes: one per computing
    operation, except that an ``and``, ``or``, ``xor`` or ``add`` of n
    operands counts n - 1, what the chain of binary operations it
    stands for counts.

    ``input`` references and ``instance`` operations are excluded: the
    former are free, the latter are accounted to the callee.
    """
    return sum(len(op.operands) - 1 if op.kind in VARIADIC_KINDS else 1
               for op in module.operations if op.kind in COUNTED_KINDS)


def verify_module(
    module: HwModule, design: HwDesign | None = None,
    sites: list[Operation] | None = None,
) -> list[str]:
    """Structural well-formedness check; returns violations, not raises.

    Each operation first meets an accept test: one kind test and a few
    comparisons against tables taken once per module (the operation
    widths, the input port widths, each callee's signature).  The test
    is sound: it may refuse a well-formed operation, never accept one
    that breaks a rule.  A refused operation is explained by
    :func:`_op_violations`, the rule-by-rule checks that write every
    message, so the violations and their order are those of the rules
    alone.  A given ``sites`` list receives the module's instance
    operations, in operation order, from the same pass.
    """
    errs: list[str] = []
    mod = module.name
    ports: dict[str, Port] = {}
    for p in module.ports:
        if p.name in ports:
            errs.append(f"{mod}: duplicate port {p.name}")
        ports.setdefault(p.name, p)
        if p.direction not in ("input", "output"):
            errs.append(f"{mod}: port {p.name}: bad direction {p.direction}")
        if p.width < 1:
            errs.append(f"{mod}: port {p.name}: width {p.width} < 1")

    in_widths = {name: p.width for name, p in ports.items()
                 if p.direction == "input"}
    ops = module.operations
    widths = [op.width for op in ops]
    # callee name -> (input names, input widths, out_ports, result width)
    sigs: dict[str, tuple] = {}
    binary = BINARY_KINDS
    if sites is None:
        sites = []
    for i, op in enumerate(ops):
        kind, w, refs = op.kind, op.width, op.operands
        ok = False
        if kind in binary:  # the commonest kinds
            if len(refs) == 2:  # no operand loop
                x, y = refs
                jx, jy = x.op, y.op
                if i > jx >= 0 and i > jy >= 0 and 0 < w == x.width \
                        == y.width == widths[jx] == widths[jy]:
                    continue
            elif len(refs) > 2 and kind != "sub" and w >= 1:
                for ref in refs:
                    j = ref.op
                    if not i > j >= 0 or not ref.width == w == widths[j]:
                        break
                else:
                    continue
        elif w >= 1:
            for ref in refs:
                j = ref.op
                if not 0 <= j < i or widths[j] != ref.width:
                    break
            else:
                if kind == "not":
                    ok = len(refs) == 1 and refs[0].width == w
                elif kind == "extract":
                    ok = len(refs) == 1 and 0 <= op.low \
                        and op.low + w <= refs[0].width
                elif kind == "instance":
                    sites.append(op)
                    sig = sigs.get(op.module)
                    if sig is None and design is not None \
                            and op.module in design.modules:
                        cports = design.modules[op.module].ports
                        names, outs = instance_ports(cports)
                        sig = sigs[op.module] = (
                            names,
                            [p.width for p in cports
                             if p.direction == "input"],
                            outs, sum(pw for _, pw in outs))
                    ok = sig is not None and op.in_ports == sig[0] \
                        and [ref.width for ref in refs] == sig[1] \
                        and op.out_ports == sig[2] and w == sig[3]
                elif kind == "mux":
                    ok = len(refs) == 3 and refs[0].width == 1 \
                        and refs[1].width == w and refs[2].width == w
                elif kind == "concat":
                    total = 0
                    for ref in refs:
                        total += ref.width
                    ok = total == w  # so there are operands, as w >= 1
                elif kind == "input":
                    ok = not refs and in_widths.get(op.port) == w
                elif kind == "const":
                    # a negative value shifts to -1, never to 0
                    ok = not refs and not op.value >> w
                elif kind == "replicate":
                    ok = len(refs) == 1 and op.count >= 1 \
                        and refs[0].width * op.count == w
                else:
                    ok = kind in REDUCE_KINDS and len(refs) == 1 and w == 1
        if not ok:
            if kind == "instance" and (not sites or sites[-1] is not op):
                sites.append(op)  # one the accept test did not reach
            errs += _op_violations(mod, i, op, ops, ports, design)

    for name, ref in module.outputs.items():
        p = ports.get(name)
        if p is None or p.direction != "output":
            errs.append(f"{mod}: binding for unknown output {name!r}")
            continue
        if not 0 <= ref.op < len(ops):
            errs.append(f"{mod}: output {name}: value %{ref.op} undefined")
        elif ref.width != p.width or ops[ref.op].width != p.width:
            errs.append(f"{mod}: output {name}: width mismatch")
    for p in module.ports:
        if p.direction == "output" and p.name not in module.outputs:
            errs.append(f"{mod}: output {p.name} is not driven")
    for name, ref in module.wires.items():
        if not 0 <= ref.op < len(ops):
            errs.append(f"{mod}: wire {name}: value %{ref.op} undefined")
        elif ops[ref.op].width != ref.width:
            errs.append(f"{mod}: wire {name}: width mismatch")
    return errs


def _op_violations(
    mod: str, i: int, op: Operation, ops: list[Operation],
    ports: dict[str, Port], design: HwDesign | None,
) -> list[str]:
    """Every rule operation ``i`` of module ``mod`` breaks, one message
    each, in rule order; ``ports`` maps each port name to its first
    declaration."""
    errs: list[str] = []
    kind = op.kind
    if kind not in ALL_KINDS:
        return [f"{mod}: %{i}: unknown kind {kind}"]
    if op.width < 1:
        errs.append(f"{mod}: %{i}: width {op.width} < 1")
    refs = op.operands
    defined = True
    for ref in refs:
        if not 0 <= ref.op < len(ops):
            errs.append(f"{mod}: %{i}: operand %{ref.op} out of range")
            defined = False
        elif ref.op >= i:
            errs.append(
                f"{mod}: %{i}: operand %{ref.op} not defined before use"
                " (cycle or forward reference)"
            )
            defined = False
    if not defined:
        return errs
    widths = [ref.width for ref in refs]
    for ref in refs:
        if ops[ref.op].width != ref.width:
            errs.append(
                f"{mod}: %{i}: operand %{ref.op} width annotation "
                f"{ref.width} != defined width {ops[ref.op].width}"
            )
    if kind in BINARY_KINDS:
        arity = len(widths) >= 2 if kind in VARIADIC_KINDS \
            else len(widths) == 2
        if not arity or widths.count(op.width) != len(widths):
            errs.append(f"{mod}: %{i}: {kind} operand width mismatch")
    elif kind == "const":
        if op.operands:
            errs.append(f"{mod}: %{i}: const takes no operands")
        if not 0 <= op.value < (1 << op.width):
            errs.append(f"{mod}: %{i}: const value {op.value} out of range")
    elif kind == "input":
        if op.operands:
            errs.append(f"{mod}: %{i}: input takes no operands")
        p = ports.get(op.port)
        if p is None or p.direction != "input":
            errs.append(f"{mod}: %{i}: no input port named {op.port!r}")
        elif p.width != op.width:
            errs.append(
                f"{mod}: %{i}: input {op.port} width {op.width} != {p.width}"
            )
    elif kind == "extract":
        if len(widths) != 1:
            errs.append(f"{mod}: %{i}: extract takes one operand")
        elif op.low < 0 or op.low + op.width > widths[0]:
            errs.append(
                f"{mod}: %{i}: extract [{op.low + op.width - 1}:{op.low}]"
                f" out of range for width {widths[0]}"
            )
    elif kind == "concat":
        if not widths:
            errs.append(f"{mod}: %{i}: concat needs operands")
        elif sum(widths) != op.width:
            errs.append(
                f"{mod}: %{i}: concat width {op.width} != sum {sum(widths)}"
            )
    elif kind == "replicate":
        if len(widths) != 1 or op.count < 1:
            errs.append(f"{mod}: %{i}: bad replicate")
        elif widths[0] * op.count != op.width:
            errs.append(
                f"{mod}: %{i}: replicate width {op.width} !="
                f" {op.count} * {widths[0]}"
            )
    elif kind == "not":
        if len(widths) != 1 or widths[0] != op.width:
            errs.append(f"{mod}: %{i}: not operand width mismatch")
    elif kind == "mux":
        if len(widths) != 3 or widths[0] != 1 or widths[1] != widths[2] \
                or widths[1] != op.width:
            errs.append(f"{mod}: %{i}: mux operand width mismatch")
    elif kind in REDUCE_KINDS:
        if len(widths) != 1 or op.width != 1:
            errs.append(f"{mod}: %{i}: {kind} must produce one bit")
    elif design is None or op.module not in design.modules:
        errs.append(f"{mod}: %{i}: unresolved module {op.module!r}")
    else:
        callee = design.modules[op.module]
        cins = callee.input_ports
        names, outs = instance_ports(callee.ports)
        if len(op.operands) != len(cins):
            errs.append(
                f"{mod}: %{i}: instance {op.name}: {len(op.operands)}"
                f" operands for {len(cins)} input ports"
            )
        else:
            for ref, p in zip(op.operands, cins):
                if ref.width != p.width:
                    errs.append(
                        f"{mod}: %{i}: instance {op.name}: port {p.name}"
                        f" width {p.width} gets {ref.width}"
                    )
        if op.in_ports != names:
            errs.append(
                f"{mod}: %{i}: instance {op.name}: in_ports {op.in_ports!r}"
                f" are not the callee's inputs {names!r}"
            )
        if op.width != sum(pw for _, pw in outs):
            errs.append(
                f"{mod}: %{i}: instance {op.name}: result width"
                f" {op.width} != callee output width"
            )
        if op.out_ports != outs:
            errs.append(
                f"{mod}: %{i}: instance {op.name}: out_ports"
                f" {op.out_ports!r} are not the callee's outputs {outs!r}"
            )
    return errs


def verify(design: HwDesign, order: list[str] | None = None) -> list[str]:
    """Verify every module plus design-level invariants.  Returns the
    full violation list; an empty list means the design is well formed.
    A given ``order`` receives the module names callees first, the
    first result of :func:`instantiation_order`, from the same walk,
    which takes each module's instance sites from its verification."""
    errs: list[str] = []
    if design.top and design.top not in design.modules:
        errs.append(f"top module {design.top!r} not defined")
    sites: dict[str, list[Operation]] = {}
    for name, module in design.modules.items():
        if module.name != name:
            errs.append(f"module key {name!r} != module name {module.name!r}")
        errs.extend(verify_module(module, design, sites.setdefault(name, [])))
    names, cycles = instantiation_order(design, sites)
    if order is not None:
        order += names
    return errs + cycles


def instantiation_order(
    design: HwDesign, sites: dict[str, list[Operation]] | None = None,
) -> tuple[list[str], list[str]]:
    """Walk the instantiation graph depth first, callees before
    callers, with an explicit stack (a hierarchy may be deeper than
    Python's recursion limit).  ``sites`` maps each module name to its
    instance operations in operation order, when the caller has them;
    otherwise each module's operations are scanned for them.

    Returns every module name in post-order, callees first, and one
    ``instantiation cycle: a -> b -> a`` message per cycle the walk
    closes; the messages are empty when the graph is acyclic.
    """
    modules = design.modules

    def callees(name: str):
        ops = modules[name].operations if sites is None else sites[name]
        return (op.module for op in ops
                if op.kind == "instance" and op.module in modules)

    order: list[str] = []
    errs: list[str] = []
    done: set[str] = set()
    for root in modules:
        if root in done:
            continue
        trail = {root: None}  # the modules being visited, root first
        stack = [callees(root)]
        while stack:
            name = next(stack[-1], None)
            if name is None:
                stack.pop()
                name, _ = trail.popitem()
                done.add(name)
                order.append(name)
            elif name in trail:
                path = list(trail)
                cyc = path[path.index(name):] + [name]
                errs.append("instantiation cycle: " + " -> ".join(cyc))
            elif name not in done:
                trail[name] = None
                stack.append(callees(name))
    return order, errs


def _mask(width: int) -> int:
    return (1 << width) - 1


def simulate(
    module: HwModule,
    inputs: dict[str, int],
    design: HwDesign | None = None,
) -> dict[str, int]:
    """Reference interpreter: evaluate one input vector.

    ``inputs`` maps every input port to a non-negative integer that fits
    the port width.  Returns the output port values.  Instances require
    ``design`` for the callee bodies; a callee runs in a frame of its
    own on an explicit stack, so hierarchies of any depth evaluate.
    """
    for p in module.input_ports:
        if p.name not in inputs:
            raise ValueError(f"{module.name}: input port {p.name!r} unbound")
        v = inputs[p.name]
        if not 0 <= v <= _mask(p.width):
            raise ValueError(
                f"{module.name}: input {p.name}={v} does not fit"
                f" width {p.width}"
            )

    # (module, inputs, values): a frame that waits on a callee waits at
    # operation len(values), and ``returned`` brings the outputs back.
    stack = [(module, inputs, [])]
    returned: dict[str, int] | None = None
    while stack:
        module, inputs, vals = stack[-1]
        ops = module.operations
        while len(vals) < len(ops):
            op = ops[len(vals)]
            if op.kind != "instance":
                vals.append(_evaluate(op, inputs, vals))
            elif returned is not None:
                vals.append(sum(
                    returned[name] << start for name, _, _, _, start
                    in port_slices(op.out_ports, 0, op.width)))
                returned = None
            elif design is None:
                raise ValueError(
                    f"{module.name}: instance {op.name} needs a design"
                    " context to simulate"
                )
            else:
                stack.append((design.modules[op.module], dict(
                    zip(op.in_ports, (vals[ref.op] for ref in op.operands))
                ), []))
                break
        else:
            stack.pop()
            returned = {name: vals[ref.op]
                        for name, ref in module.outputs.items()}
    return returned


def _evaluate(op: Operation, inputs: dict[str, int], vals: list[int]) -> int:
    """The value of an operation other than an instance."""
    kind = op.kind
    if kind == "const":
        return op.value
    if kind == "input":
        return inputs[op.port]
    if kind == "extract":
        return (vals[op.operands[0].op] >> op.low) & _mask(op.width)
    if kind == "concat":
        r = 0
        for ref in op.operands:
            r = (r << ref.width) | vals[ref.op]
        return r
    if kind == "replicate":
        a = vals[op.operands[0].op]
        w = op.operands[0].width
        r = 0
        for _ in range(op.count):
            r = (r << w) | a
        return r
    if kind in _FOLD:
        return reduce(_FOLD[kind], [vals[ref.op] for ref in op.operands]) \
            & _mask(op.width)
    if kind == "not":
        return vals[op.operands[0].op] ^ _mask(op.width)
    if kind == "sub":
        return (vals[op.operands[0].op] - vals[op.operands[1].op]) \
            & _mask(op.width)
    if kind == "mux":
        c, a, b = (vals[ref.op] for ref in op.operands)
        return a if c else b
    if kind == "redand":
        return int(vals[op.operands[0].op] == _mask(op.operands[0].width))
    if kind == "redor":
        return int(vals[op.operands[0].op] != 0)
    if kind == "redxor":
        return bin(vals[op.operands[0].op]).count("1") & 1
    raise ValueError(f"unknown op kind {kind!r}")


#: Variadic kind -> the function of two values it folds its operands by.
_FOLD = {"and": operator.and_, "or": operator.or_, "xor": operator.xor,
         "add": operator.add}
_BITWISE = frozenset({"and", "or", "xor"})
_KIND = attrgetter("kind")
_OP = attrgetter("op")
_WIDTH = attrgetter("width")
#: Reduction kind -> (gate, the value of an empty reduction).
_REDUCE = {"redand": ("and", 1), "redor": ("or", 0), "redxor": ("xor", 0)}


class PackedProgram:
    """A module compiled to a flat list of one-bit gates over slots.

    Slot 0 holds constant 0 and slot 1 constant 1.  The input bits
    follow, port by port in ``inputs`` order and LSB first, and each
    gate defines the next slot after them.  A gate is
    ``(op, a, b, c)`` with ``op`` one of ``and or xor not mux``; a
    ``mux`` reads ``(select, then, else)`` and unused operands are 0.
    Every operand names an earlier slot.  ``outputs`` maps each output
    port to its slots, LSB first.
    """

    __slots__ = ("inputs", "gates", "outputs")

    def __init__(
        self,
        inputs: list[tuple[str, int]],
        gates: list[tuple[str, int, int, int]],
        outputs: dict[str, list[int]],
    ) -> None:
        self.inputs = inputs
        self.gates = gates
        self.outputs = outputs


def compile_module(
    module: HwModule, programs: dict[str, PackedProgram]
) -> PackedProgram:
    """Compile ``module`` to one-bit gates.

    Routing operations (``const``, ``input``, ``extract``, ``concat``,
    ``replicate``) only rearrange slot lists, ``add``/``sub`` become
    ripple-carry gates and reductions gate chains.  An operation of n
    operands is the left-deep chain of binary operations it stands for:
    a 1-bit ``xor`` folds by parity (below), and a module with any other
    compiles as its :func:`~busweaver.rewrite.binary_form`, where each
    node's gates come where the chain's binary form put them.
    ``programs`` holds
    the finished program of every callee: an instance re-emits its
    callee's gates with the slots remapped and never walks the callee's
    operations.

    Gates are hash-consed on ``(op, operands)``, commutative operands
    sorted, after a fixed set of sound folds: constant operands,
    ``x op x``, ``x op ~x``, ``~~x``, and a mux whose select is
    constant, whose arms are equal or both constant, or whose else arm
    is 0 or then arm 1.

    A 1-bit ``xor`` folds by parity: a T-term chain, one operation of T
    operands, becomes one chain of gates, in slot order, over the slots
    it reads an odd number of times, so over L distinct bits it costs
    at most L - 1 gates instead of T - 1.  A tree of such operations
    (a parenthesized chain inside a chain; see :func:`_xor_inner`)
    folds by parity as a whole.
    """
    inputs = [(p.name, p.width) for p in module.input_ports]
    ports: dict[str, list[int]] = {}
    first = 2
    for name, width in inputs:
        ports.setdefault(name, list(range(first, first + width)))
        first += width
    gates: list[tuple[str, int, int, int]] = []
    table: dict[tuple[str, int, int, int], int] = {}
    inv: dict[int, int] = {}  # slot -> slot of its complement

    def emit(gate: tuple[str, int, int, int]) -> int:
        slot = table.get(gate)
        if slot is None:
            slot = table[gate] = first + len(gates)
            gates.append(gate)
        return slot

    def not_(a: int) -> int:
        if a < 2:
            return 1 - a
        slot = inv.get(a)
        if slot is None:
            slot = inv[a] = emit(("not", a, 0, 0))
            inv[slot] = a
        return slot

    def binary(op: str, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a < 2:
            if op == "and":
                return b if a else 0
            if op == "or":
                return 1 if a else b
            return not_(b) if a else b
        if a == b:
            return 0 if op == "xor" else a
        if inv.get(a) == b:
            return 0 if op == "and" else 1
        gate = (op, a, b, 0)  # emit(), inlined: most gates come here
        slot = table.get(gate)
        if slot is None:
            slot = table[gate] = first + len(gates)
            gates.append(gate)
        return slot

    def mux(c: int, x: int, y: int) -> int:
        if c < 2:
            return x if c else y
        if x == y:
            return x
        if x < 2 and y < 2:
            return c if x else not_(c)
        if y == 0:
            return binary("and", c, x)
        if x == 1:
            return binary("or", c, y)
        return emit(("mux", c, x, y))

    inner = _xor_inner(module)
    # an operation's slots, LSB first; an inner xor's odd slots instead
    vals: list = []
    for k, op in enumerate(module.operations):
        kind = op.kind
        refs = op.operands
        if kind == "extract":
            r = vals[refs[0].op][op.low:op.low + op.width]
        elif kind in _BITWISE:
            a, b = vals[refs[0].op], vals[refs[1].op]
            if len(refs) > 2:
                if kind != "xor" or op.width != 1:
                    return _compile_binary_form(module, programs)
                r = _parity(binary, vals, refs, k in inner)
            elif kind == "xor" and inner and (
                    k in inner or a.__class__ is set
                    or b.__class__ is set):
                r = _parity(binary, vals, refs, k in inner)
            elif op.width == 1:
                r = [binary(kind, a[0], b[0])]
            else:
                r = [binary(kind, x, y) for x, y in zip(a, b)]
        elif kind == "not":
            r = [not_(x) for x in vals[refs[0].op]]
        elif kind == "concat":
            r = []
            for ref in reversed(refs):  # operands are MSB first
                r.extend(vals[ref.op])
        elif kind == "mux":
            c = vals[refs[0].op][0]
            r = [mux(c, x, y)
                 for x, y in zip(vals[refs[1].op], vals[refs[2].op])]
        elif kind == "instance":
            callee = programs.get(op.module)
            if callee is None:
                raise ValueError(
                    f"{module.name}: instance {op.name} of {op.module!r}"
                    " has no compiled program"
                )
            args = {p: vals[ref.op] for p, ref in zip(op.in_ports, refs)}
            slots = [0, 1]
            for name, _ in callee.inputs:
                slots.extend(args[name])
            for gate, a, b, c in callee.gates:
                if gate == "not":
                    slots.append(not_(slots[a]))
                elif gate == "mux":
                    slots.append(mux(slots[a], slots[b], slots[c]))
                else:
                    slots.append(binary(gate, slots[a], slots[b]))
            r = []
            for name, _ in op.out_ports:
                r.extend([slots[s] for s in callee.outputs[name]])
        elif kind == "const":  # one string, not a shift per bit
            r = list(map(int, format(op.value, f"0{op.width}b")[::-1]))
        elif kind == "input":
            r = ports[op.port]
        elif kind == "replicate":
            r = vals[refs[0].op] * op.count
        elif kind in _REDUCE:
            gate, acc = _REDUCE[kind]
            for x in vals[refs[0].op]:
                acc = binary(gate, acc, x)
            r = [acc]
        elif kind in ("add", "sub"):
            if len(refs) > 2:
                return _compile_binary_form(module, programs)
            a, b = vals[refs[0].op], vals[refs[1].op]
            carry = 0
            if kind == "sub":  # a - b == a + ~b + 1
                b = [not_(y) for y in b]
                carry = 1
            r = []
            for x, y in zip(a, b):
                r.append(binary("xor", binary("xor", x, y), carry))
                if len(r) < op.width:
                    carry = binary(
                        "or",
                        binary("or", binary("and", x, y),
                               binary("and", x, carry)),
                        binary("and", y, carry),
                    )
        else:  # verify refuses it first
            raise ValueError(f"unknown op kind {kind!r}")
        vals.append(r)
    outputs = {name: vals[ref.op] for name, ref in module.outputs.items()}
    return _live(PackedProgram(inputs, gates, outputs), first)


def _compile_binary_form(
    module: HwModule, programs: dict[str, PackedProgram],
) -> PackedProgram:
    """:func:`compile_module` of ``module`` as binary operations, which
    puts the gates of each node of a chain where its binary form puts
    the node."""
    from busweaver.rewrite import binary_form  # rewrite imports this

    return compile_module(binary_form(module), programs)


def _parity(binary, vals: list, refs: list[ValueRef], inner: bool):
    """The 1-bit xor of ``refs``, whose values are in ``vals``: the set
    of slots read an odd number of times, if ``inner``, else one chain
    of gates over them in slot order.  The value of an inner xor below
    is such a set, the first of them is updated in place and handed on,
    so that a T-term tree stays linear."""
    values = list(map(vals.__getitem__, map(_OP, refs)))
    odd = set()
    if set in map(type, values):
        odd = values.pop([v.__class__ for v in values].index(set))
    any(map(odd.symmetric_difference_update, values))  # in C: each None
    if inner:
        return odd
    r = 0
    for x in sorted(odd):
        r = binary("xor", r, x)
    return [r]


def _xor_inner(module: HwModule) -> set[int]:
    """The inner operations of the 1-bit ``xor`` trees of ``module``:
    1-bit xors read once, by a 1-bit xor, and by no output."""
    ops = module.operations
    if list(map(_KIND, ops)).count("xor") < 2:  # in C
        return set()
    # One pass, readers after their operands.  A 1-bit xor starts at -2
    # when the pass reaches it, each read by a 1-bit xor adds 1, and any
    # other read sets 0, so that -1 is "read once, by a 1-bit xor".
    state = [0] * len(ops)
    for k, op in enumerate(ops):
        if op.kind == "xor" and op.width == 1:
            state[k] = -2
            for ref in op.operands:
                state[ref.op] += 1
        else:
            for ref in op.operands:
                state[ref.op] = 0
    for ref in module.outputs.values():
        state[ref.op] = 0
    return set(compress(range(len(ops)), map((-1).__eq__, state)))


def _live(program: PackedProgram, first: int) -> PackedProgram:
    """``program`` without the gates its outputs do not read (gate 0
    defines slot ``first``).  The last dead gate is read by nothing, so
    a program in which every gate is read has none; one C-level pass
    over the operands settles the usual case."""
    gates, outputs = program.gates, program.outputs
    read = set(chain.from_iterable(gates))
    read.update(chain.from_iterable(outputs.values()))
    if read.issuperset(range(first, first + len(gates))):
        return program
    live = [False] * len(gates)
    for s in chain.from_iterable(outputs.values()):
        if s >= first:
            live[s - first] = True
    for k in range(len(gates) - 1, -1, -1):
        if live[k]:
            for s in gates[k][1:]:
                if s >= first:
                    live[s - first] = True
    remap = list(range(first)) + [0] * len(gates)
    kept: list[tuple[str, int, int, int]] = []
    for k, (op, a, b, c) in enumerate(gates):
        if live[k]:
            remap[first + k] = first + len(kept)
            kept.append((op, remap[a], remap[b], remap[c]))
    return PackedProgram(
        program.inputs, kept,
        {name: [remap[s] for s in slots] for name, slots in outputs.items()},
    )


def compile_packed(design: HwDesign) -> dict[str, PackedProgram]:
    """Compile every module of an acyclic design, callees first (an
    iterative walk, so the hierarchy may be of any depth); each callee
    is compiled once however many sites it has."""
    programs: dict[str, PackedProgram] = {}
    for name in instantiation_order(design)[0]:
        programs[name] = compile_module(design.modules[name], programs)
    return programs


def simulate_packed(
    program: PackedProgram,
    inputs: dict[str, list[int]],
    n_vectors: int,
) -> dict[str, list[int]]:
    """Bit-parallel evaluation of a compiled program over a batch of
    input vectors, in one pass over its gates.

    Each bit is one integer whose bit ``k`` is its value in test vector
    ``k``; ``inputs`` maps each input port to a list of such lane masks,
    one per port bit, LSB first, and so does the result for each output
    port.  This is the workhorse behind the equivalence oracle.
    """
    full = _mask(n_vectors)
    vals = [0, full]
    for name, _ in program.inputs:
        vals.extend(inputs[name])
    push = vals.append
    for op, a, b, c in program.gates:
        if op == "xor":
            push(vals[a] ^ vals[b])
        elif op == "and":
            push(vals[a] & vals[b])
        elif op == "or":
            push(vals[a] | vals[b])
        elif op == "not":
            push(full ^ vals[a])
        else:
            y = vals[c]
            push(y ^ (vals[a] & (vals[b] ^ y)))
    return {name: [vals[s] for s in slots]
            for name, slots in program.outputs.items()}
