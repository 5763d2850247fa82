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
    reverse     bit reversal of one operand
    replicate   operand repeated ``count`` times
    and or xor  bitwise, two operands of equal width
    not         bitwise complement
    add sub     modular arithmetic, two operands of equal width
    mux         operands (cond, then, else); cond has width 1
    redand redor redxor
                reduction of one operand to a single bit
    instance    instantiation of another module; operands align with the
                callee's input ports in order, and the result packs the
                callee's output ports with the first port at the LSB end

``input`` and ``instance`` operations are pure references to values that
live outside the module body, so instruction counts and depth/size
metrics skip them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate


@dataclass(frozen=True)
class ValueRef:
    """Reference to the value defined by operation ``op`` of a module."""

    op: int
    width: int


@dataclass(frozen=True)
class Port:
    name: str
    direction: str  # "input" or "output"
    width: int


@dataclass
class Operation:
    kind: str
    width: int
    operands: list[ValueRef] = field(default_factory=list)
    # Payload attributes; which ones are meaningful depends on the kind.
    value: int = 0  # const
    low: int = 0  # extract
    count: int = 0  # replicate
    port: str = ""  # input
    module: str = ""  # instance: callee module name
    name: str = ""  # instance: instance name
    in_ports: tuple[str, ...] = ()  # instance: callee input port names
    out_ports: tuple[tuple[str, int], ...] = ()  # instance: (name, width)


#: Kinds that compute a value from their operands.  ``input`` and
#: ``instance`` are deliberately absent: they stand for values produced
#: outside the module body.
COUNTED_KINDS = frozenset(
    {
        "const",
        "extract",
        "concat",
        "reverse",
        "replicate",
        "and",
        "or",
        "xor",
        "not",
        "add",
        "sub",
        "mux",
        "redand",
        "redor",
        "redxor",
    }
)

#: Two-operand bitwise/arithmetic kinds.
BINARY_KINDS = frozenset({"and", "or", "xor", "add", "sub"})

REDUCE_KINDS = frozenset({"redand", "redor", "redxor"})

ALL_KINDS = COUNTED_KINDS | {"input", "instance"}


@dataclass
class HwModule:
    """One module: ports, an SSA operation list, and value bindings.

    ``outputs`` maps every output port name to the value driving it.
    ``wires`` maps user-visible internal net names to values; wires are
    kept purely so emitted Verilog can preserve the names.
    """

    name: str
    ports: list[Port] = field(default_factory=list)
    operations: list[Operation] = field(default_factory=list)
    outputs: dict[str, ValueRef] = field(default_factory=dict)
    wires: dict[str, ValueRef] = field(default_factory=dict)

    @property
    def input_ports(self) -> list[Port]:
        return [p for p in self.ports if p.direction == "input"]

    @property
    def output_ports(self) -> list[Port]:
        return [p for p in self.ports if p.direction == "output"]

    def op(self, ref: ValueRef) -> Operation:
        return self.operations[ref.op]

    def value_of(self, op_id: int) -> ValueRef:
        return ValueRef(op_id, self.operations[op_id].width)


@dataclass
class HwDesign:
    """A set of modules plus a designated top.  ``modules`` preserves
    source order, which the emitter relies on."""

    modules: dict[str, HwModule] = field(default_factory=dict)
    top: str = ""

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
    if kind == "reverse":
        return ("reverse", op.operands[0].op)
    if kind == "replicate":
        return ("replicate", op.operands[0].op, op.count)
    return None


class ModuleBuilder:
    """Incremental construction of a module's operation list.

    The builder value-numbers ``const``, ``input``, ``extract``,
    ``concat``, ``reverse`` and ``replicate`` operations, and folds the
    routing identities (full-width extract, extract of extract, extract
    of const, single-operand concat, width-1 reverse, reverse of
    reverse, count-1 replicate).  Keeping routing operations canonical
    this way is what lets a re-run of the vectorizer recognise its own
    output and leave it untouched.
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
        ref = ValueRef(len(self.operations), op.width)
        self.operations.append(op)
        if key is not None:
            self._cse[key] = ref
        return ref

    def const(self, value: int, width: int) -> ValueRef:
        value &= (1 << width) - 1
        return self._emit(Operation("const", width, value=value))

    def input_ref(self, port: str, width: int) -> ValueRef:
        return self._emit(Operation("input", width, port=port))

    def extract(self, v: ValueRef, low: int, width: int) -> ValueRef:
        assert 0 <= low and low + width <= v.width
        if low == 0 and width == v.width:
            return v
        inner = self.operations[v.op]
        if inner.kind == "extract":
            return self.extract(inner.operands[0], inner.low + low, width)
        if inner.kind == "const":
            return self.const(inner.value >> low, width)
        return self._emit(Operation("extract", width, [v], low=low))

    def concat(self, parts: list[ValueRef]) -> ValueRef:
        assert parts
        if len(parts) == 1:
            return parts[0]
        width = sum(p.width for p in parts)
        return self._emit(Operation("concat", width, list(parts)))

    def reverse(self, v: ValueRef) -> ValueRef:
        if v.width == 1:
            return v
        inner = self.operations[v.op]
        if inner.kind == "reverse":
            return inner.operands[0]
        return self._emit(Operation("reverse", v.width, [v]))

    def replicate(self, v: ValueRef, count: int) -> ValueRef:
        assert count >= 1
        if count == 1:
            return v
        return self._emit(
            Operation("replicate", v.width * count, [v], count=count)
        )

    def binary(self, kind: str, a: ValueRef, b: ValueRef) -> ValueRef:
        assert kind in BINARY_KINDS and a.width == b.width
        return self._emit(Operation(kind, a.width, [a, b]))

    def not_(self, v: ValueRef) -> ValueRef:
        return self._emit(Operation("not", v.width, [v]))

    def mux(self, cond: ValueRef, then: ValueRef, other: ValueRef) -> ValueRef:
        assert cond.width == 1 and then.width == other.width
        return self._emit(Operation("mux", then.width, [cond, then, other]))

    def reduce(self, kind: str, v: ValueRef) -> ValueRef:
        assert kind in REDUCE_KINDS
        if v.width == 1:
            return v
        return self._emit(Operation(kind, 1, [v]))

    def instance(
        self,
        module: str,
        name: str,
        operands: list[ValueRef],
        in_ports: tuple[str, ...],
        out_ports: tuple[tuple[str, int], ...],
    ) -> ValueRef:
        width = sum(w for _, w in out_ports)
        return self._emit(
            Operation(
                "instance",
                width,
                list(operands),
                module=module,
                name=name,
                in_ports=in_ports,
                out_ports=out_ports,
            )
        )

    def finish(
        self, outputs: dict[str, ValueRef], wires: dict[str, ValueRef]
    ) -> HwModule:
        return HwModule(
            self.name, self.ports, self.operations, dict(outputs), dict(wires)
        )


def route_bit(
    ops: list[Operation],
    value: ValueRef,
    bit: int,
    index: dict[int, tuple[list[int], list[ValueRef]]] | None = None,
) -> tuple[ValueRef, int, int]:
    """Follow bit ``bit`` of ``value`` backwards through routing
    operations (extract, concat, reverse, replicate).

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
        elif kind == "reverse":
            bit = op.width - 1 - bit
            value = op.operands[0]
        elif kind == "replicate":
            bit %= op.operands[0].width
            value = op.operands[0]
        else:
            return value, bit, hops
        hops += 1


def count_instructions(module: HwModule) -> int:
    """Number of computing operations in ``module``.

    ``input`` references and ``instance`` operations are excluded: the
    former are free, the latter are accounted to the callee.
    """
    return sum(1 for op in module.operations if op.kind in COUNTED_KINDS)


@dataclass(frozen=True)
class IrMetrics:
    op_count: int
    edge_count: int
    max_depth: int


def metrics(module: HwModule) -> IrMetrics:
    """Dataflow graph size: counted ops, operand edges from counted ops,
    and the longest dependence chain through counted ops."""
    ops = module.operations
    op_count = 0
    edge_count = 0
    depth = [0] * len(ops)
    max_depth = 0
    for i, op in enumerate(ops):
        if op.kind not in COUNTED_KINDS:
            continue
        op_count += 1
        edge_count += len(op.operands)
        d = 1
        for ref in op.operands:
            d = max(d, 1 + depth[ref.op])
        depth[i] = d
        max_depth = max(max_depth, d)
    return IrMetrics(op_count, edge_count, max_depth)


def _check_operand(
    op_id: int, op: Operation, n_ops: int, errs: list[str], mod: str
) -> bool:
    ok = True
    for ref in op.operands:
        if not 0 <= ref.op < n_ops:
            errs.append(f"{mod}: %{op_id}: operand %{ref.op} out of range")
            ok = False
        elif ref.op >= op_id:
            errs.append(
                f"{mod}: %{op_id}: operand %{ref.op} not defined before use"
                " (cycle or forward reference)"
            )
            ok = False
    return ok


def verify_module(
    module: HwModule, design: HwDesign | None = None
) -> list[str]:
    """Structural well-formedness check; returns violations, not raises."""
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

    ops = module.operations
    for i, op in enumerate(ops):
        loc = f"{mod}: %{i}"
        if op.kind not in ALL_KINDS:
            errs.append(f"{loc}: unknown kind {op.kind}")
            continue
        if op.width < 1:
            errs.append(f"{loc}: width {op.width} < 1")
        if not _check_operand(i, op, len(ops), errs, mod):
            continue
        widths = [ref.width for ref in op.operands]
        for ref in op.operands:
            if ops[ref.op].width != ref.width:
                errs.append(
                    f"{loc}: operand %{ref.op} width annotation "
                    f"{ref.width} != defined width {ops[ref.op].width}"
                )
        kind = op.kind
        if kind == "const":
            if op.operands:
                errs.append(f"{loc}: const takes no operands")
            if not 0 <= op.value < (1 << op.width):
                errs.append(f"{loc}: const value {op.value} out of range")
        elif kind == "input":
            p = ports.get(op.port)
            if p is None or p.direction != "input":
                errs.append(f"{loc}: no input port named {op.port!r}")
            elif p.width != op.width:
                errs.append(
                    f"{loc}: input {op.port} width {op.width} != {p.width}"
                )
        elif kind == "extract":
            if len(widths) != 1:
                errs.append(f"{loc}: extract takes one operand")
            elif op.low < 0 or op.low + op.width > widths[0]:
                errs.append(
                    f"{loc}: extract [{op.low + op.width - 1}:{op.low}]"
                    f" out of range for width {widths[0]}"
                )
        elif kind == "concat":
            if not widths:
                errs.append(f"{loc}: concat needs operands")
            elif sum(widths) != op.width:
                errs.append(
                    f"{loc}: concat width {op.width} != sum {sum(widths)}"
                )
        elif kind == "reverse":
            if len(widths) != 1 or widths[0] != op.width:
                errs.append(f"{loc}: reverse operand width mismatch")
        elif kind == "replicate":
            if len(widths) != 1 or op.count < 1:
                errs.append(f"{loc}: bad replicate")
            elif widths[0] * op.count != op.width:
                errs.append(
                    f"{loc}: replicate width {op.width} !="
                    f" {op.count} * {widths[0]}"
                )
        elif kind in BINARY_KINDS:
            if len(widths) != 2 or widths != [op.width, op.width]:
                errs.append(f"{loc}: {kind} operand width mismatch")
        elif kind == "not":
            if len(widths) != 1 or widths[0] != op.width:
                errs.append(f"{loc}: not operand width mismatch")
        elif kind == "mux":
            if len(widths) != 3 or widths[0] != 1 or widths[1] != widths[2] \
                    or widths[1] != op.width:
                errs.append(f"{loc}: mux operand width mismatch")
        elif kind in REDUCE_KINDS:
            if len(widths) != 1 or op.width != 1:
                errs.append(f"{loc}: {kind} must produce one bit")
        elif kind == "instance":
            if design is None or op.module not in design.modules:
                errs.append(f"{loc}: unresolved module {op.module!r}")
            else:
                callee = design.modules[op.module]
                cins = callee.input_ports
                couts = callee.output_ports
                if len(op.operands) != len(cins):
                    errs.append(
                        f"{loc}: instance {op.name}: {len(op.operands)}"
                        f" operands for {len(cins)} input ports"
                    )
                else:
                    for ref, p in zip(op.operands, cins):
                        if ref.width != p.width:
                            errs.append(
                                f"{loc}: instance {op.name}: port {p.name}"
                                f" width {p.width} gets {ref.width}"
                            )
                if op.width != sum(p.width for p in couts):
                    errs.append(
                        f"{loc}: instance {op.name}: result width"
                        f" {op.width} != callee output width"
                    )

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


def verify(design: HwDesign) -> list[str]:
    """Verify every module plus design-level invariants.  Returns the
    full violation list; an empty list means the design is well formed."""
    errs: list[str] = []
    if design.top and design.top not in design.modules:
        errs.append(f"top module {design.top!r} not defined")
    for name, module in design.modules.items():
        if module.name != name:
            errs.append(f"module key {name!r} != module name {module.name!r}")
        errs.extend(verify_module(module, design))
    errs.extend(instantiation_cycles(design))
    return errs


def instantiation_cycles(design: HwDesign) -> list[str]:
    """One ``instantiation cycle: a -> b -> a`` message per cycle the
    depth-first walk of the instantiation graph closes; empty when the
    graph is acyclic."""
    errs: list[str] = []
    state: dict[str, int] = {}  # 1 = visiting, 2 = done

    def visit(name: str, trail: list[str]) -> None:
        mark = state.get(name)
        if mark == 2:
            return
        if mark == 1:
            cyc = trail[trail.index(name):] + [name]
            errs.append("instantiation cycle: " + " -> ".join(cyc))
            return
        state[name] = 1
        trail.append(name)
        module = design.modules.get(name)
        if module is not None:
            for op in module.operations:
                if op.kind == "instance" and op.module in design.modules:
                    visit(op.module, trail)
        trail.pop()
        state[name] = 2

    for name in design.modules:
        visit(name, [])
    return errs


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
    ``design`` for the callee bodies.
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

    vals: list[int] = []
    for op in module.operations:
        kind = op.kind
        if kind == "const":
            r = op.value
        elif kind == "input":
            r = inputs[op.port]
        elif kind == "extract":
            r = (vals[op.operands[0].op] >> op.low) & _mask(op.width)
        elif kind == "concat":
            r = 0
            for ref in op.operands:
                r = (r << ref.width) | vals[ref.op]
        elif kind == "reverse":
            a = vals[op.operands[0].op]
            r = 0
            for i in range(op.width):
                r |= ((a >> i) & 1) << (op.width - 1 - i)
        elif kind == "replicate":
            a = vals[op.operands[0].op]
            w = op.operands[0].width
            r = 0
            for _ in range(op.count):
                r = (r << w) | a
        elif kind == "and":
            r = vals[op.operands[0].op] & vals[op.operands[1].op]
        elif kind == "or":
            r = vals[op.operands[0].op] | vals[op.operands[1].op]
        elif kind == "xor":
            r = vals[op.operands[0].op] ^ vals[op.operands[1].op]
        elif kind == "not":
            r = vals[op.operands[0].op] ^ _mask(op.width)
        elif kind == "add":
            r = (vals[op.operands[0].op] + vals[op.operands[1].op]) \
                & _mask(op.width)
        elif kind == "sub":
            r = (vals[op.operands[0].op] - vals[op.operands[1].op]) \
                & _mask(op.width)
        elif kind == "mux":
            c, a, b = (vals[ref.op] for ref in op.operands)
            r = a if c else b
        elif kind == "redand":
            r = int(vals[op.operands[0].op] == _mask(op.operands[0].width))
        elif kind == "redor":
            r = int(vals[op.operands[0].op] != 0)
        elif kind == "redxor":
            r = bin(vals[op.operands[0].op]).count("1") & 1
        elif kind == "instance":
            if design is None:
                raise ValueError(
                    f"{module.name}: instance {op.name} needs a design"
                    " context to simulate"
                )
            callee = design.modules[op.module]
            sub_in = {
                p: vals[ref.op]
                for p, ref in zip(op.in_ports, op.operands)
            }
            sub_out = simulate(callee, sub_in, design)
            r = 0
            shift = 0
            for pname, pwidth in op.out_ports:
                r |= sub_out[pname] << shift
                shift += pwidth
        else:  # pragma: no cover - guarded by verify
            raise ValueError(f"unknown op kind {kind!r}")
        vals.append(r)

    return {name: vals[ref.op] for name, ref in module.outputs.items()}


def simulate_packed(
    module: HwModule,
    inputs: dict[str, list[int]],
    n_vectors: int,
    design: HwDesign | None = None,
) -> dict[str, list[int]]:
    """Bit-parallel interpreter over a batch of input vectors.

    Each wire bit is represented as one integer whose bit ``k`` is the
    wire's value in test vector ``k``; ``inputs`` maps each input port
    to a list of such lane masks, one per port bit, LSB first.  This
    evaluates all ``n_vectors`` vectors in a single pass and is the
    workhorse behind the equivalence oracle.
    """
    full = _mask(n_vectors)
    vals: list[list[int]] = []
    for op in module.operations:
        kind = op.kind
        if kind == "const":
            r = [full if (op.value >> i) & 1 else 0 for i in range(op.width)]
        elif kind == "input":
            r = inputs[op.port]
        elif kind == "extract":
            r = vals[op.operands[0].op][op.low:op.low + op.width]
        elif kind == "concat":
            r = []
            for ref in reversed(op.operands):
                r.extend(vals[ref.op])
            # operands are MSB first, so build LSB up from the last one
        elif kind == "reverse":
            r = list(reversed(vals[op.operands[0].op]))
        elif kind == "replicate":
            r = vals[op.operands[0].op] * op.count
        elif kind == "and":
            a, b = vals[op.operands[0].op], vals[op.operands[1].op]
            r = [x & y for x, y in zip(a, b)]
        elif kind == "or":
            a, b = vals[op.operands[0].op], vals[op.operands[1].op]
            r = [x | y for x, y in zip(a, b)]
        elif kind == "xor":
            a, b = vals[op.operands[0].op], vals[op.operands[1].op]
            r = [x ^ y for x, y in zip(a, b)]
        elif kind == "not":
            r = [full ^ x for x in vals[op.operands[0].op]]
        elif kind in ("add", "sub"):
            a, b = vals[op.operands[0].op], vals[op.operands[1].op]
            if kind == "sub":  # a - b == a + ~b + 1
                b = [full ^ x for x in b]
                carry = full
            else:
                carry = 0
            r = []
            for x, y in zip(a, b):
                r.append(x ^ y ^ carry)
                carry = (x & y) | (x & carry) | (y & carry)
        elif kind == "mux":
            c = vals[op.operands[0].op][0]
            a, b = vals[op.operands[1].op], vals[op.operands[2].op]
            r = [(c & x) | (~c & full & y) for x, y in zip(a, b)]
        elif kind == "redand":
            acc = full
            for x in vals[op.operands[0].op]:
                acc &= x
            r = [acc]
        elif kind == "redor":
            acc = 0
            for x in vals[op.operands[0].op]:
                acc |= x
            r = [acc]
        elif kind == "redxor":
            acc = 0
            for x in vals[op.operands[0].op]:
                acc ^= x
            r = [acc]
        elif kind == "instance":
            if design is None:
                raise ValueError(
                    f"{module.name}: instance {op.name} needs a design"
                    " context to simulate"
                )
            callee = design.modules[op.module]
            sub_in = {
                p: vals[ref.op]
                for p, ref in zip(op.in_ports, op.operands)
            }
            sub_out = simulate_packed(callee, sub_in, n_vectors, design)
            r = []
            for pname, _ in op.out_ports:
                r.extend(sub_out[pname])
        else:  # pragma: no cover - guarded by verify
            raise ValueError(f"unknown op kind {kind!r}")
        vals.append(r)

    return {name: vals[ref.op] for name, ref in module.outputs.items()}
