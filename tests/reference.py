"""From-scratch references that the program is tested against.

The token-at-a-time lexer (``Token``, ``_Lexer``) is the specification
of ``frontend._Lexer``: the same token texts, in order, and the same
lexical diagnostics, each with its ``line:col``.

The recursive elaborator (``_Elaborator``, with its ``_Net``) is the
specification of ``frontend._Elaborator``: on any module it can
elaborate without reaching the recursion limit, the same operation
list, the same bindings and the same diagnostics.  It walks each
expression three times, recursively: once for widths, once per demand
for the nets it reads, and once to build it.

The pipeline plans a sink with one downward scan per bit
(``pipeline.permutation_low`` and ``_SinkAnalysis.structural_low``).
These functions decide a single window on their own, the permutation
test from the bits' routes and the structural test from the window's
cones, and are what the permutation-recovery criterion and the
planner's specification (``test_pipeline._reference_plan``) test
against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from busweaver.cones import ConeShape, LogicCone, family_shape, lane_steps
from busweaver.frontend import (
    KEYWORDS,
    AstConn,
    AstInstance,
    AstLval,
    AstModule,
    EBinary,
    EConcat,
    ENum,
    ERef,
    ERepl,
    ESelect,
    ETernary,
    EUnary,
    Expr,
    ParseDiagnostic,
)
from busweaver.ir import HwModule, ModuleBuilder, Port, ValueRef, route_bit
from busweaver.rewrite import compact_module, live_order


_TOKEN_RE = re.compile(
    r"""
      (?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)
    | (?P<sized>[0-9][0-9_]*\s*'\s*[bodhBODH][0-9a-fA-F_xXzZ?]+)
    | (?P<number>[0-9][0-9_]*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
    | (?P<unsupported_op>&&|\|\||===|!==|==|!=|<<<|>>>|<<|>>|<=|>=|\*\*|~\^|\^~|~&|~\|)
    | (?P<punct>[()\[\]{},;:.?=~&|^+\-])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class Token:
    """``kind`` is "ident", "keyword", "number", "sized", the
    punctuation text itself, or "eof"."""

    __slots__ = ("kind", "text", "line", "col", "value", "width")

    def __init__(self, kind: str, text: str, line: int, col: int,
                 value: int = 0, width: int = 0):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.value = value
        self.width = width


class _Lexer:
    def __init__(self, src: str, filename: str, diags: list[ParseDiagnostic]):
        self.src = src
        self.filename = filename
        self.diags = diags

    def error(self, line: int, col: int, message: str) -> None:
        self.diags.append(
            ParseDiagnostic(self.filename, line, col, "error", message)
        )

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        append = out.append
        line, line_start = 1, 0  # line_start: offset of the line's start
        for m in _TOKEN_RE.finditer(self.src):
            kind, text, start = m.lastgroup, m.group(), m.start()
            if kind == "skip":
                if "\n" in text:
                    line += text.count("\n")
                    line_start = start + text.rfind("\n") + 1
                continue
            col = start - line_start + 1
            if kind == "ident":
                append(Token("keyword" if text in KEYWORDS else "ident",
                             text, line, col))
            elif kind == "punct":
                append(Token(text, text, line, col))
            elif kind == "number":
                append(Token("number", text, line, col,
                             int(text.replace("_", ""))))
            elif kind == "sized":
                tok = self._sized(text, line, col)
                if tok is not None:
                    append(tok)
                if "\n" in text:  # "4\n'b1" is one literal
                    line += text.count("\n")
                    line_start = start + text.rfind("\n") + 1
            elif kind == "unsupported_op":
                self.error(line, col, f"unsupported operator '{text}'")
            else:
                self.error(line, col, f"unexpected character {text!r}")
        append(Token("eof", "", line, len(self.src) - line_start + 1))
        return out

    def _sized(self, text: str, line: int, col: int) -> Token | None:
        width_str, rest = text.split("'", 1)
        width = int(width_str.replace("_", "").strip())
        rest = rest.strip()
        base, digits = rest[0].lower(), rest[1:].replace("_", "")
        if width < 1:
            self.error(line, col, f"literal width {width} < 1")
            return None
        if any(c in "xXzZ?" for c in digits):
            self.error(line, col,
                       "four-state literals (x/z) are not supported")
            return None
        try:
            value = int(digits, {"b": 2, "o": 8, "d": 10, "h": 16}[base])
        except ValueError:
            self.error(line, col, f"malformed literal '{text}'")
            return None
        if value >= 1 << width:
            self.error(line, col,
                       f"literal value {value} does not fit in"
                       f" {width} bit{'s' if width != 1 else ''}")
            return None
        return Token("sized", text, line, col, value=value, width=width)


_BINARY_KIND = {"&": "and", "|": "or", "^": "xor", "+": "add", "-": "sub"}
_REDUCE_KIND = {"&": "redand", "|": "redor", "^": "redxor"}


@dataclass
class _Net:
    name: str
    width: int
    is_wire: bool
    direction: str | None  # port direction, None for wires
    tok: int
    # (high, low, tag, payload); tag is "assign" or "inst"
    drivers: list[tuple[int, int, str, object]] = field(default_factory=list)
    driven_by: list[object | None] = None  # per-bit driver site

    def __post_init__(self):
        self.driven_by = [None] * self.width


class _Elaborator:
    """Builds one HwModule from an AstModule, given all module signatures."""

    def __init__(self, ast: AstModule, signatures: dict[str, list[Port]],
                 lexer: "busweaver.frontend._Lexer"):
        self.ast = ast
        self.signatures = signatures
        self.lexer = lexer
        self.nets: dict[str, _Net] = {}
        self.builder: ModuleBuilder | None = None
        self.net_values: dict[str, ValueRef] = {}
        self.net_state: dict[str, int] = {}  # 1 = in progress, 2 = done
        self.inst_values: dict[int, ValueRef] = {}
        self._conn_cache: dict[int, dict[str, AstConn]] = {}
        self.failed = False

    def error(self, tok: int, message: str) -> None:
        self.lexer.error(tok, message)
        self.failed = True

    # -- symbol table ------------------------------------------------------

    def build_symbols(self) -> list[Port]:
        ports: list[Port] = []
        for p in self.ast.ports:
            if p.direction is None:
                self.error(p.tok,
                           f"port '{p.name}' has no direction declaration")
                continue
            if p.name in self.nets:
                self.error(p.tok, f"duplicate port '{p.name}'")
                continue
            self.nets[p.name] = _Net(p.name, p.width, False, p.direction,
                                     p.tok)
            ports.append(Port(p.name, p.direction, p.width))
        for w in self.ast.wires:
            if w.name in self.nets:
                self.error(w.tok,
                           f"'{w.name}' is already declared")
                continue
            self.nets[w.name] = _Net(w.name, w.width, True, None, w.tok)
        return ports

    # -- width inference ----------------------------------------------------

    def infer_width(self, e: Expr) -> int | None:
        if isinstance(e, ENum):
            if not e.sized:
                self.error(e.tok,
                           "unsized literal in expression position"
                           " (only valid as an index or replication count)")
                return None
            return e.width
        if isinstance(e, ERef):
            net = self.nets.get(e.name)
            if net is None:
                self.error(e.tok, f"unknown identifier '{e.name}'")
                return None
            e.width = net.width
            return net.width
        if isinstance(e, ESelect):
            net = self.nets.get(e.name)
            if net is None:
                self.error(e.tok, f"unknown identifier '{e.name}'")
                return None
            if e.high >= net.width:
                self.error(e.tok,
                           f"bit {e.high} out of range for '{e.name}'"
                           f" of width {net.width}")
                return None
            e.width = e.high - e.low + 1
            return e.width
        if isinstance(e, EConcat):
            widths = [self.infer_width(item) for item in e.items]
            if any(w is None for w in widths):
                return None
            e.width = sum(widths)
            return e.width
        if isinstance(e, ERepl):
            w = self.infer_width(e.item)
            if w is None:
                return None
            e.width = w * e.count
            return e.width
        if isinstance(e, EUnary):
            w = self.infer_width(e.arg)
            if w is None:
                return None
            e.width = w if e.op == "~" else 1
            return e.width
        if isinstance(e, EBinary):
            wa = self.infer_width(e.a)
            wb = self.infer_width(e.b)
            if wa is None or wb is None:
                return None
            if wa != wb:
                self.error(e.tok,
                           f"operand width mismatch: {wa} vs {wb}")
                return None
            e.width = wa
            return wa
        if isinstance(e, ETernary):
            wc = self.infer_width(e.cond)
            wa = self.infer_width(e.then)
            wb = self.infer_width(e.other)
            if wc is None or wa is None or wb is None:
                return None
            if wc != 1:
                self.error(e.cond.tok,
                           f"condition must be 1 bit wide, got {wc}")
                return None
            if wa != wb:
                self.error(e.tok,
                           f"arm width mismatch: {wa} vs {wb}")
                return None
            e.width = wa
            return wa
        raise AssertionError(f"unhandled expression {e!r}")

    # -- driver collection ---------------------------------------------------

    def add_driver(self, name: str, high: int | None, low: int | None,
                   tag: str, payload: object, tok: int) -> None:
        net = self.nets.get(name)
        if net is None:
            self.error(tok, f"unknown identifier '{name}'")
            return
        if net.direction == "input":
            self.error(tok, f"assignment to input port '{name}'")
            return
        if high is None:
            high, low = net.width - 1, 0
        if high >= net.width:
            self.error(tok,
                       f"bit {high} out of range for '{name}' of width"
                       f" {net.width}")
            return
        for bit in range(low, high + 1):
            if net.driven_by[bit] is not None:
                self.error(tok,
                           f"multiple drivers for '{name}[{bit}]'")
                return
        for bit in range(low, high + 1):
            net.driven_by[bit] = tok
        net.drivers.append((high, low, tag, payload))

    def collect_drivers(self) -> None:
        for a in self.ast.assigns:
            w = self.infer_width(a.rhs)
            if w is None:
                continue
            net = self.nets.get(a.lhs.name)
            if net is None:
                self.error(a.lhs.tok,
                           f"unknown identifier '{a.lhs.name}'")
                continue
            lw = net.width if a.lhs.high is None \
                else a.lhs.high - a.lhs.low + 1
            if w != lw:
                self.error(a.tok,
                           f"assignment width mismatch: '{a.lhs.name}'"
                           f" expects {lw}, got {w}")
                continue
            self.add_driver(a.lhs.name, a.lhs.high, a.lhs.low,
                            "assign", a.rhs, a.lhs.tok)

        for idx, inst in enumerate(self.ast.instances):
            sig = self.signatures.get(inst.module)
            if sig is None:
                self.error(inst.tok,
                           f"unknown module '{inst.module}'")
                continue
            conns = self.resolve_conns(inst, sig)
            if conns is None:
                continue
            self._conn_cache[idx] = conns
            for port in sig:
                conn = conns.get(port.name)
                if conn is None or conn.expr is None:
                    if port.direction == "input":
                        self.error(inst.tok,
                                   f"input port '{port.name}' of"
                                   f" '{inst.module}' is not connected")
                    continue
                if port.direction == "input":
                    w = self.infer_width(conn.expr)
                    if w is not None and w != port.width:
                        self.error(conn.tok,
                                   f"connection width mismatch on"
                                   f" '{port.name}': port is {port.width},"
                                   f" expression is {w}")
                else:
                    lv = self.conn_lvalue(conn)
                    if lv is None:
                        continue
                    w = self.nets[lv.name].width if lv.high is None \
                        else lv.high - lv.low + 1
                    if w != port.width:
                        self.error(conn.tok,
                                   f"connection width mismatch on"
                                   f" '{port.name}': port is {port.width},"
                                   f" target is {w}")
                        continue
                    self.add_driver(lv.name, lv.high, lv.low, "inst",
                                    (idx, port.name), conn.tok)

    def resolve_conns(self, inst: AstInstance,
                      sig: list[Port]) -> dict[str, AstConn] | None:
        named = [c for c in inst.conns if c.port is not None]
        if named and len(named) != len(inst.conns):
            self.error(inst.tok,
                       "cannot mix named and positional connections")
            return None
        out: dict[str, AstConn] = {}
        if named:
            portnames = {p.name for p in sig}
            for c in inst.conns:
                if c.port not in portnames:
                    self.error(c.tok,
                               f"'{inst.module}' has no port '{c.port}'")
                    return None
                if c.port in out:
                    self.error(c.tok,
                               f"port '{c.port}' connected twice")
                    return None
                out[c.port] = c
        else:
            if len(inst.conns) > len(sig):
                self.error(inst.tok,
                           f"too many connections for '{inst.module}'"
                           f" ({len(inst.conns)} for {len(sig)} ports)")
                return None
            for port, c in zip(sig, inst.conns):
                out[port.name] = c
        return out

    def conn_lvalue(self, conn: AstConn) -> AstLval | None:
        e = conn.expr
        if isinstance(e, ERef):
            net = self.nets.get(e.name)
            if net is None:
                self.error(e.tok, f"unknown identifier '{e.name}'")
                return None
            return AstLval(e.name, None, None, e.tok)
        if isinstance(e, ESelect):
            net = self.nets.get(e.name)
            if net is None:
                self.error(e.tok, f"unknown identifier '{e.name}'")
                return None
            if e.high >= net.width:
                self.error(e.tok,
                           f"bit {e.high} out of range for '{e.name}'"
                           f" of width {net.width}")
                return None
            return AstLval(e.name, e.high, e.low, e.tok)
        self.error(conn.tok,
                   "output connection must be a net or a net slice")
        return None

    # -- demand-driven net elaboration ---------------------------------------

    def expr_net_deps(self, e: Expr, out: list[tuple[str, int]]) -> None:
        if isinstance(e, (ERef, ESelect)):
            out.append((e.name, e.tok))
        elif isinstance(e, EConcat):
            for item in e.items:
                self.expr_net_deps(item, out)
        elif isinstance(e, ERepl):
            self.expr_net_deps(e.item, out)
        elif isinstance(e, EUnary):
            self.expr_net_deps(e.arg, out)
        elif isinstance(e, EBinary):
            self.expr_net_deps(e.a, out)
            self.expr_net_deps(e.b, out)
        elif isinstance(e, ETernary):
            self.expr_net_deps(e.cond, out)
            self.expr_net_deps(e.then, out)
            self.expr_net_deps(e.other, out)

    def net_deps(self, net: _Net) -> list[tuple[str, int]]:
        """Nets whose values are needed before this one can be built.
        For an instance driver that means the nets feeding its input
        ports; nets wired to its outputs are produced, not consumed."""
        deps: list[tuple[str, int]] = []
        for _, _, tag, payload in net.drivers:
            if tag == "assign":
                self.expr_net_deps(payload, deps)
            else:
                idx, _ = payload
                inst = self.ast.instances[idx]
                conns = self._conn_cache[idx]
                for port in self.signatures[inst.module]:
                    if port.direction != "input":
                        continue
                    conn = conns.get(port.name)
                    if conn is not None and conn.expr is not None:
                        self.expr_net_deps(conn.expr, deps)
        return deps

    class _Abort(Exception):
        pass

    def demand_net(self, name: str, tok: int) -> ValueRef:
        """Iterative dependency-first elaboration, so arbitrarily long
        net chains do not recurse."""
        stack: list[tuple[str, int]] = [(name, tok)]
        while stack:
            n, ntok = stack[-1]
            state = self.net_state.get(n)
            if state == 2:
                stack.pop()
                continue
            net = self.nets.get(n)
            if net is None:
                self.error(ntok, f"unknown identifier '{n}'")
                raise self._Abort()
            if net.direction == "input":
                self.net_values[n] = self.builder.input_ref(n, net.width)
                self.net_state[n] = 2
                stack.pop()
                continue
            pending = []
            for dep, dtok in self.net_deps(net):
                dstate = self.net_state.get(dep)
                if dstate == 2:
                    continue
                if dstate == 1:
                    self.error(dtok,
                               f"combinational cycle through net '{dep}'")
                    raise self._Abort()
                pending.append((dep, dtok))
            if state != 1:
                self.net_state[n] = 1
            if pending:
                stack.extend(pending)
                continue
            self.net_values[n] = self.build_net(net)
            self.net_state[n] = 2
            stack.pop()
        return self.net_values[name]

    def build_net(self, net: _Net) -> ValueRef:
        for bit, site in enumerate(net.driven_by):
            if site is None:
                what = "output port" if not net.is_wire else "wire"
                self.error(net.tok,
                           f"{what} '{net.name}' bit {bit} is never driven")
                raise self._Abort()
        segments = sorted(net.drivers, key=lambda d: d[1])
        parts: list[ValueRef] = []
        for high, low, tag, payload in segments:
            if tag == "assign":
                parts.append(self.elab_expr(payload))
            else:
                idx, portname = payload
                value = self.materialize_instance(idx)
                inst_op = self.builder.operations[value.op]
                offset = 0
                for pname, pwidth in inst_op.out_ports:
                    if pname == portname:
                        break
                    offset += pwidth
                parts.append(
                    self.builder.extract(value, offset, high - low + 1)
                )
        return self.builder.concat(list(reversed(parts)))

    def materialize_instance(self, idx: int) -> ValueRef:
        if idx in self.inst_values:
            return self.inst_values[idx]
        inst = self.ast.instances[idx]
        sig = self.signatures[inst.module]
        conns = self._conn_cache[idx]
        operands = []
        in_ports = []
        for port in sig:
            if port.direction != "input":
                continue
            conn = conns[port.name]
            operands.append(self.elab_expr(conn.expr))
            in_ports.append(port.name)
        out_ports = tuple(
            (p.name, p.width) for p in sig if p.direction == "output"
        )
        value = self.builder.instance(
            inst.module, inst.name, operands, tuple(in_ports), out_ports
        )
        self.inst_values[idx] = value
        return value

    def elab_expr(self, e: Expr) -> ValueRef:
        b = self.builder
        if isinstance(e, ENum):
            return b.const(e.value, e.width)
        if isinstance(e, ERef):
            return self.net_value(e.name)
        if isinstance(e, ESelect):
            base = self.net_value(e.name)
            return b.extract(base, e.low, e.high - e.low + 1)
        if isinstance(e, EConcat):
            return b.concat([self.elab_expr(item) for item in e.items])
        if isinstance(e, ERepl):
            return b.replicate(self.elab_expr(e.item), e.count)
        if isinstance(e, EUnary):
            arg = self.elab_expr(e.arg)
            if e.op == "~":
                return b.not_(arg)
            return b.reduce(_REDUCE_KIND[e.op], arg)
        if isinstance(e, EBinary):
            return b.binary(_BINARY_KIND[e.op], self.elab_expr(e.a),
                            self.elab_expr(e.b))
        if isinstance(e, ETernary):
            return b.mux(self.elab_expr(e.cond), self.elab_expr(e.then),
                         self.elab_expr(e.other))
        raise AssertionError(f"unhandled expression {e!r}")

    def net_value(self, name: str) -> ValueRef:
        # demand_net has already elaborated every dependency
        net = self.nets[name]
        if net.direction == "input":
            return self.builder.input_ref(name, net.width)
        return self.net_values[name]

    # -- top level -----------------------------------------------------------

    def run(self) -> HwModule | None:
        ports = self.build_symbols()
        self.builder = ModuleBuilder(self.ast.name, ports)
        self.collect_drivers()
        if self.failed:
            return None
        outputs: dict[str, ValueRef] = {}
        try:
            for p in ports:
                if p.direction == "output":
                    outputs[p.name] = self.demand_net(
                        p.name, self.nets[p.name].tok
                    )
            for idx in range(len(self.ast.instances)):
                if idx in self.inst_values:
                    continue
                inst = self.ast.instances[idx]
                if inst.module not in self.signatures:
                    continue
                for conn in inst.conns:
                    if conn.expr is None:
                        continue
                    deps: list[tuple[str, int]] = []
                    self.expr_net_deps(conn.expr, deps)
                    for dep, dtok in deps:
                        self.demand_net(dep, dtok)
                self.materialize_instance(idx)
        except self._Abort:
            return None
        if self.failed:
            return None
        wires = {
            w.name: self.net_values[w.name]
            for w in self.ast.wires
            if self.net_state.get(w.name) == 2
        }
        module = self.builder.finish(outputs, wires)
        # a slice of a wire folds into a slice of its driver, which can
        # leave the wire's own extract or constant unread
        if len(live_order(module)) < len(module.operations):
            module = compact_module(module)
        return module


@dataclass
class PermutationMap:
    """``bits[k]`` is the source bit feeding target bit ``k`` (both LSB
    first); the bits form a contiguous window starting at ``base``."""

    source: ValueRef
    bits: list[int]
    base: int


@dataclass(frozen=True)
class Segment:
    """A maximal ascending run: ``width`` source bits starting at
    ``low``.  Segments are listed target-LSB first."""

    low: int
    width: int


def detect_permutation(
    module: HwModule,
    target: ValueRef,
    lo: int = 0,
    width: int | None = None,
    anchored: bool = True,
) -> PermutationMap | None:
    """Detect a bit permutation on ``target[lo + width - 1 : lo]``.

    All bits must route to distinct bits of one input, covering a
    contiguous window.  With ``anchored`` the window must start at bit
    0; ``anchored=False`` accepts any window.
    """
    n = target.width if width is None else width
    if n < 2:
        return None
    ops = module.operations
    window = [route_bit(ops, target, lo + k)[:2] for k in range(n)]
    sources = {value for value, _ in window}
    bits = [bit for _, bit in window]
    source = window[0][0]
    if len(sources) != 1 or ops[source.op].kind != "input" \
            or len(set(bits)) != n or max(bits) - min(bits) != n - 1:
        return None
    if anchored and min(bits) != 0:
        return None
    return PermutationMap(source, bits, min(bits))


def greedy_group(pi: PermutationMap) -> list[Segment]:
    """Group the permutation into maximal ascending runs, scanning from
    the target LSB: a run extends while pi[j+1] == pi[j] + 1."""
    bits = pi.bits
    segments: list[Segment] = []
    k = 0
    while k < len(bits):
        start = k
        while k + 1 < len(bits) and bits[k + 1] == bits[k] + 1:
            k += 1
        segments.append(Segment(bits[start], k - start + 1))
        k += 1
    return segments


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
