"""Deterministic Verilog emission.

Every choice here (port layout, naming, operator parenthesisation,
statement order) is a function of the IR alone, and statements follow
the operation order, which the frontend builds back as
:func:`~busweaver.rewrite.live_order` sets it: parsing emitted text and
emitting it again gives the same bytes, and so does a re-run of the
pipeline (the idempotence guarantee).

Naming: user wire names win, instance outputs get ``<inst>_<port>``,
values that must be materialised but have no user name get ``t<k>``.
An ``and``/``or``/``xor``/``add`` of n operands is written as the chain
``x0 op x1 op ... op x(n-1)`` it stands for; a module where such a
chain would need a temporary, or a cut at the depth limit, is written
as its :func:`~busweaver.rewrite.binary_form`, so that ``k`` and the
cuts are what its binary chains give.
All generated names are uniquified against the module's namespace by
appending underscores.  A user wire that the output would assign but
never read (one on a literal, an input, a slice, a whole instance, or a
second name for a value) is left out, because the frontend drops a wire
that nothing reads and a re-run would lose it.
"""

from __future__ import annotations

from busweaver.frontend import _BINARY_KNOWN, _BINARY_PREC, _PREFIX_KIND
from busweaver.ir import HwDesign, HwModule, ValueRef, port_slices
from busweaver.rewrite import binary_form

# Verilog precedence levels, high binds tight: the conditional, the
# parser's binary levels and sigils above it, then prefix and primary.
_PREC_TERNARY = 1
_SIGIL = {kind: sigil for sigil, (_, _, (kind,)) in _BINARY_KNOWN.items()}
_PREC_BINARY = {kind: _PREC_TERNARY + _BINARY_PREC[sigil]
                for kind, sigil in _SIGIL.items()}
_PREC_UNARY = max(_PREC_BINARY.values()) + 1
_PREC_PRIMARY = _PREC_UNARY + 1

_PREFIX = {kind: sigil for sigil, kind in _PREFIX_KIND.items()}
#: The two-character operators a prefix sigil would form with the first
#: character of its operand: ``~(^x)`` is not ``~^x``, and ``^(~x)`` is
#: not the reduction XNOR ``^~x``.
_FUSED = frozenset({"~&", "~|", "~^", "^~", "&&", "||"})

#: Kinds that are always rendered inline, never given a generated name.
_INLINE_KINDS = frozenset({"const", "input", "extract"})

#: Maximum inline rendering depth before a temporary is introduced, to
#: keep both our renderer and downstream parsers away from recursion
#: limits on pathological op chains.
_MAX_INLINE_DEPTH = 120


def _literal(value: int, width: int) -> str:
    if width == 1:
        return f"1'b{value}"
    if value.bit_length() >= 10_000:  # str(int) stops at 4,300 digits
        return f"{width}'h{value:x}"
    return f"{width}'d{value}"


def _slice(name: str, low: int, width: int, base_width: int) -> str:
    if width == base_width and low == 0:
        return name
    if width == 1:
        return f"{name}[{low}]"
    return f"{name}[{low + width - 1}:{low}]"


class _Binary(Exception):
    """A module with chains needs a temporary or a cut, which its binary
    form numbers."""


class _ModuleEmitter:
    def __init__(self, module: HwModule):
        self.m = module
        self.ops = module.operations
        self.names: dict[int, str] = {}  # op id -> canonical name
        self.taken: set[str] = set()
        # instance op -> each port read, in port order -> its wire
        self.inst_wires: dict[int, dict[str, str]] = {}
        # (instance op, port) -> user wire that is exactly that port.
        self.preferred: dict[tuple[int, str], str] = {}
        self.uses = [0] * len(self.ops)
        self.chained = False  # whether some chain has three operands
        self._plan()

    # -- planning ----------------------------------------------------------

    def _unique(self, candidate: str) -> str:
        name = candidate
        while name in self.taken:
            name += "_"
        self.taken.add(name)
        return name

    def _temp(self, op_id: int) -> str:
        if self.chained:
            raise _Binary
        return self._unique(f"t{op_id}")

    def _instance_port_of(self, ref: ValueRef) -> tuple[int, str] | None:
        """(instance op, port name) when ``ref`` is exactly one output
        port of an instance, else None."""
        op = self.ops[ref.op]
        if op.kind == "instance":
            inst, low = ref.op, 0
        elif op.kind == "extract" \
                and self.ops[op.operands[0].op].kind == "instance":
            inst, low = op.operands[0].op, op.low
        else:
            return None
        pieces = port_slices(self.ops[inst].out_ports, low, op.width)
        if len(pieces) == 1 and pieces[0][2] == pieces[0][3]:  # port, whole
            return inst, pieces[0][0]
        return None

    def _plan(self) -> None:
        m = self.m
        self.taken.update(p.name for p in m.ports)
        # The output ports each instance's readers read: every port for
        # an output binding or a reader that is not an extract (a dict
        # of the out_ports holds their names), the ports its slice
        # covers for an extract.  A wire binding reads nothing: the text
        # reads a wire only where an operation or an output reads it.
        # One pass in id order: an instance precedes its readers.
        read: dict[int, set[str]] = {}
        ops, uses, names = self.ops, self.uses, self.names
        for op_id, op in enumerate(ops):
            refs = op.operands
            for ref in refs:
                uses[ref.op] += 1
                if ref.op not in read:
                    continue
                out_ports = ops[ref.op].out_ports
                if op.kind == "extract":
                    read[ref.op].update([piece[0] for piece in port_slices(
                        out_ports, op.low, op.width)])
                else:
                    read[ref.op].update(dict(out_ports))
            if op.kind == "instance":
                self.taken.add(op.name)
                read[op_id] = set()
            elif len(refs) > 2 and op.kind in _SIGIL:
                self.chained = True
        for ref in m.outputs.values():
            uses[ref.op] += 1
            if ref.op in read:
                read[ref.op].update(dict(ops[ref.op].out_ports))

        # User wire names: the first one on a nameable op names it, and
        # the first one that is exactly an instance output port becomes
        # that port's connection wire.  The others are left out.
        for wname, ref in m.wires.items():
            kind = self.ops[ref.op].kind
            port = self._instance_port_of(ref)
            if port is not None and port not in self.preferred:
                self.preferred[port] = wname
            elif kind not in _INLINE_KINDS and kind != "instance" \
                    and ref.op not in self.names:
                self.names[ref.op] = wname
            else:
                continue
            self.taken.add(wname)

        # Instance output wires, for the ports that are read.
        for op_id, ports in read.items():
            op = self.ops[op_id]
            self.inst_wires[op_id] = {
                pname: self.preferred.get((op_id, pname))
                or self._unique(f"{op.name}_{pname}")
                for pname, _ in op.out_ports if pname in ports
            }

        # Output port names double as names for their bound values.
        for p in m.ports:
            if p.direction != "output":
                continue
            ref = m.outputs[p.name]
            op = self.ops[ref.op]
            if op.kind not in _INLINE_KINDS and op.kind != "instance" \
                    and ref.op not in self.names:
                self.names[ref.op] = p.name

        # Forced temporaries: select bases must be identifiers, anything
        # non-trivial used twice is shared, and very deep inline chains
        # are cut.  A chain is as deep as its binary form.
        depth = [0] * len(ops)
        chained = self.chained
        for op_id, op in enumerate(ops):
            kind = op.kind
            if kind == "extract":
                base = op.operands[0].op
                if ops[base].kind not in ("input", "instance") \
                        and base not in names:
                    names[base] = self._temp(base)
                continue
            if chained and kind in _SIGIL and len(op.operands) > 2:
                self._chain_depth(op_id, depth)
                continue
            if kind in _INLINE_KINDS or kind == "instance" \
                    or op_id in names:
                continue
            if uses[op_id] >= 2:
                names[op_id] = self._temp(op_id)
                continue
            d = 1 + max(
                (depth[r.op] for r in op.operands), default=0
            )
            if d > _MAX_INLINE_DEPTH:
                names[op_id] = self._temp(op_id)
            else:
                depth[op_id] = d

    def _chain_depth(self, op_id: int, depth: list[int]) -> None:
        """The depth of chain ``op_id``, that of its binary form's last
        node; raises :class:`_Binary` where that form names a node."""
        refs = self.ops[op_id].operands
        last = len(refs) - 1
        d = depth[refs[0].op]
        for k in range(1, last + 1):
            d = 1 + max(d, depth[refs[k].op])
            if d > _MAX_INLINE_DEPTH and (k < last
                                          or op_id not in self.names):
                raise _Binary
        if op_id not in self.names:
            if self.uses[op_id] >= 2:
                raise _Binary
            depth[op_id] = d

    # -- rendering -----------------------------------------------------------

    def _inst_text(self, op_id: int, low: int, width: int) -> str:
        """A slice of an instance result as Verilog text: its one port
        piece, or a concatenation of its pieces, MSB first."""
        wires = self.inst_wires[op_id]
        parts = [
            _slice(wires[pname], first, w, pwidth)
            for pname, first, w, pwidth, _ in reversed(
                port_slices(self.ops[op_id].out_ports, low, width))
        ]
        if len(parts) == 1:
            return parts[0]
        return "{" + ", ".join(parts) + "}"

    def _slice_text(self, ref: ValueRef, low: int, width: int) -> str:
        """Slice of a named/input/instance value as Verilog text."""
        op = self.ops[ref.op]
        if op.kind == "input":
            return _slice(op.port, low, width, op.width)
        if op.kind == "instance":
            return self._inst_text(ref.op, low, width)
        name = self.names[ref.op]
        return _slice(name, low, width, op.width)

    def _render(self, ref: ValueRef, need: int) -> str:
        text, prec = self._expr(ref.op)
        if prec < need:
            return f"({text})"
        return text

    def _expr(self, op_id: int) -> tuple[str, int]:
        op = self.ops[op_id]
        name = self.names.get(op_id)
        if name is not None:
            return name, _PREC_PRIMARY
        kind = op.kind
        if kind == "const":
            return _literal(op.value, op.width), _PREC_PRIMARY
        if kind == "input":
            return op.port, _PREC_PRIMARY
        if kind == "instance":
            return self._inst_text(op_id, 0, op.width), _PREC_PRIMARY
        if kind == "extract":
            return (
                self._slice_text(op.operands[0], op.low, op.width),
                _PREC_PRIMARY,
            )
        if kind == "concat":
            items = [self._render(r, 0) for r in op.operands]
            return "{" + ", ".join(items) + "}", _PREC_PRIMARY
        if kind == "replicate":
            return (
                "{%d{%s}}" % (op.count, self._render(op.operands[0], 0)),
                _PREC_PRIMARY,
            )
        if kind in _PREFIX:
            sigil = _PREFIX[kind]
            text = self._render(op.operands[0], _PREC_UNARY)
            if sigil + text[0] in _FUSED:
                text = f"({text})"
            return sigil + text, _PREC_UNARY
        if kind in _PREC_BINARY:
            prec = _PREC_BINARY[kind]
            refs = op.operands
            a = self._render(refs[0], prec)
            if len(refs) > 2:
                return f" {_SIGIL[kind]} ".join(
                    [a] + [self._render(r, prec + 1) for r in refs[1:]]
                ), prec
            b = self._render(refs[1], prec + 1)
            return f"{a} {_SIGIL[kind]} {b}", prec
        if kind == "mux":
            cond = self._render(op.operands[0], _PREC_TERNARY + 1)
            then = self._render(op.operands[1], 0)
            other = self._render(op.operands[2], 0)
            return f"{cond} ? {then} : {other}", _PREC_TERNARY
        raise AssertionError(f"unhandled kind {kind!r}")

    # -- statements ------------------------------------------------------------

    def emit(self) -> str:
        m = self.m
        lines: list[str] = []
        ports = [
            f"{p.direction} {'' if p.width == 1 else f'[{p.width - 1}:0] '}"
            f"{p.name}"
            for p in m.ports
        ]
        if len(m.ports) >= 3:
            lines.append(f"module {m.name}(")
            for i, text in enumerate(ports):
                comma = "," if i < len(ports) - 1 else ""
                lines.append(f"  {text}{comma}")
            lines.append(");")
        else:
            lines.append(f"module {m.name}({', '.join(ports)});")

        port_names = {p.name for p in m.ports}
        decls: list[tuple[int, int, str, int]] = []  # sort key + name, width
        for op_id, name in self.names.items():
            if name in port_names:
                continue  # output-bound values are declared by the port
            decls.append((op_id, 0, name, self.ops[op_id].width))
        for op_id, wires in self.inst_wires.items():
            widths = dict(self.ops[op_id].out_ports)
            decls += [(op_id, k, name, widths[pname])
                      for k, (pname, name) in enumerate(wires.items())]
        for _, _, name, width in sorted(decls):
            rng = "" if width == 1 else f"[{width - 1}:0] "
            lines.append(f"  wire {rng}{name};")

        for op_id, op in enumerate(self.ops):
            if op.kind != "instance":
                continue
            conns = [
                f".{pname}({self._render(ref, 0)})"
                for pname, ref in zip(op.in_ports, op.operands)
            ]
            conns += [f".{pname}({wire})"
                      for pname, wire in self.inst_wires[op_id].items()]
            lines.append(f"  {op.module} {op.name}({', '.join(conns)});")

        for op_id in sorted(self.names):
            text = self._expr_for_named(op_id)
            lines.append(f"  assign {self.names[op_id]} = {text};")

        for p in m.ports:
            if p.direction != "output":
                continue
            ref = m.outputs[p.name]
            if self.names.get(ref.op) == p.name:
                continue  # already assigned above under its own name
            lines.append(f"  assign {p.name} = {self._render(ref, 0)};")

        lines.append("endmodule")
        return "\n".join(lines) + "\n"

    def _expr_for_named(self, op_id: int) -> str:
        """Right-hand side for a named op: its own expression, not the
        name (which _expr would return)."""
        name = self.names.pop(op_id)
        try:
            text, _ = self._expr(op_id)
        finally:
            self.names[op_id] = name
        return text


def emit_module(module: HwModule) -> str:
    try:
        return _ModuleEmitter(module).emit()
    except _Binary:
        return _ModuleEmitter(binary_form(module)).emit()


def emit_design(design: HwDesign) -> str:
    """Emit every module in definition order."""
    return "\n".join(emit_module(m) for m in design.modules.values())

