"""Frontend for a flat combinational subset of Verilog.

Supported: ``module``/``endmodule``, ANSI or non-ANSI port lists with
``[N:0]`` ranges, ``wire`` declarations, continuous ``assign`` to whole
nets, bit selects or part selects, module instantiation with named or
positional connections, and expressions over ``~ & | ^ + -``, reduction
``& | ^``, the conditional operator, concatenation ``{a, b}``,
replication ``{n{a}}``, sized literals, and bit/part selects.

Out of scope, rejected with a diagnostic: anything sequential or
behavioural (``always``, ``reg``, ``initial``, ...), parameters,
generate blocks, expressions with side effects, four-state literals
containing ``x`` or ``z``, and unsized literals outside index or
replication-count positions.

The lexer is one ``finditer`` pass: a run of blanks, newlines and
comments is one ``skip`` match, and ``line:col`` counts from the offset
of the last line start, which only ``skip`` matches and sized literals
split across lines can move.  The parser is recursive descent; binary
operators go by precedence climbing (``|`` < ``^`` < ``&`` < ``+ -``,
all left-associative), so its depth follows the nesting of parentheses,
unary operators and conditionals, not the length of an operator chain.
Diagnostics carry ``file:line:col: severity: message`` positions;
:func:`parse_design` raises :class:`ParseError` with the collected list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from busweaver.ir import HwDesign, HwModule, ModuleBuilder, Port, ValueRef
from busweaver.ir import instantiation_order
from busweaver.rewrite import compact_module, live_order
# Unused here; kept importable because perfbench/layers.py wraps it.
from busweaver.ir import verify as ir_verify  # noqa: F401


@dataclass(frozen=True)
class ParseDiagnostic:
    file: str
    line: int
    col: int
    severity: str
    message: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.severity}:" \
               f" {self.message}"


class ParseError(Exception):
    """Raised when the source cannot be fully elaborated."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = diagnostics
        super().__init__("\n".join(str(d) for d in diagnostics))


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = frozenset({"module", "endmodule", "input", "output", "wire",
                      "assign"})

#: Keywords of constructs we recognise but do not support, for better
#: diagnostics than a generic syntax error.
UNSUPPORTED_KEYWORDS = frozenset({
    "always", "reg", "initial", "if", "else", "case", "casex", "casez",
    "for", "while", "repeat", "forever", "function", "task", "generate",
    "endgenerate", "genvar", "parameter", "localparam", "defparam",
    "inout", "tri", "supply0", "supply1", "specify", "primitive", "table",
    "begin", "end", "posedge", "negedge", "integer", "real", "time",
    "signed",
})

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


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    line: int
    col: int
    width: int = 0  # filled by width inference


@dataclass
class ENum(Expr):
    value: int = 0
    sized: bool = False


@dataclass
class ERef(Expr):
    name: str = ""


@dataclass
class ESelect(Expr):
    # bit select: high == low; part select otherwise
    name: str = ""
    high: int = 0
    low: int = 0


@dataclass
class EConcat(Expr):
    items: list[Expr] = field(default_factory=list)


@dataclass
class ERepl(Expr):
    count: int = 0
    item: Expr | None = None


@dataclass
class EUnary(Expr):
    op: str = ""  # "~", "&", "|", "^"
    arg: Expr | None = None


@dataclass
class EBinary(Expr):
    op: str = ""  # "&", "|", "^", "+", "-"
    a: Expr | None = None
    b: Expr | None = None


@dataclass
class ETernary(Expr):
    cond: Expr | None = None
    then: Expr | None = None
    other: Expr | None = None


@dataclass
class AstLval:
    name: str
    high: int | None  # None means the whole net
    low: int | None
    line: int
    col: int


@dataclass
class AstAssign:
    lhs: AstLval
    rhs: Expr
    line: int
    col: int


@dataclass
class AstConn:
    port: str | None  # None for positional
    expr: Expr | None  # None for an explicitly unconnected port
    line: int
    col: int


@dataclass
class AstInstance:
    module: str
    name: str
    conns: list[AstConn]
    line: int
    col: int


@dataclass
class AstPortDecl:
    name: str
    direction: str | None  # None until a body declaration fills it in
    width: int | None
    line: int
    col: int


@dataclass
class AstWire:
    name: str
    width: int
    line: int
    col: int


@dataclass
class AstModule:
    name: str
    ports: list[AstPortDecl]
    wires: list[AstWire]
    assigns: list[AstAssign]
    instances: list[AstInstance]
    line: int
    col: int


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


#: Binary operator precedence, loosest first.
_BINARY_PREC = {"|": 1, "^": 2, "&": 3, "+": 4, "-": 4}


class _SyntaxAbort(Exception):
    pass


class _Parser:
    def __init__(self, tokens: list[Token], filename: str,
                 diags: list[ParseDiagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.diags = diags

    def peek(self, ahead: int = 0) -> Token:
        # The list ends in "eof" and next() never steps past it; the
        # only look ahead (ahead=1) is past a number, never past "eof".
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, tok: Token, message: str) -> _SyntaxAbort:
        self.diags.append(
            ParseDiagnostic(self.filename, tok.line, tok.col, "error",
                            message)
        )
        return _SyntaxAbort()

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is a ``kind``."""
        if self.tokens[self.pos].kind != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise self.error(
                tok, f"expected {what or kind!r}, found {tok.text or 'end of input'!r}"
            )
        return tok

    def check_supported(self, tok: Token) -> None:
        if tok.kind == "ident" and tok.text in UNSUPPORTED_KEYWORDS:
            raise self.error(
                tok,
                f"unsupported construct '{tok.text}' (only flat"
                " combinational modules are supported)",
            )

    # -- grammar ---------------------------------------------------------

    def design(self) -> list[AstModule]:
        modules = []
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return modules
            self.check_supported(tok)
            if tok.kind == "keyword" and tok.text == "module":
                modules.append(self.module())
            else:
                raise self.error(
                    tok, f"expected 'module', found {tok.text!r}"
                )

    def module(self) -> AstModule:
        head = self.expect("keyword")
        name = self.expect("ident", "module name")
        mod = AstModule(name.text, [], [], [], [], head.line, head.col)
        if self.accept("("):
            last: list[tuple[str, int] | None] = [None]
            if self.peek().kind != ")":
                while True:
                    self.port_decl(mod, last)
                    if not self.accept(","):
                        break
            self.expect(")")
        self.expect(";")
        # Body declarations look ports up here; the first name wins.
        decls = {p.name: p for p in reversed(mod.ports)}
        while True:
            tok = self.peek()
            if tok.kind == "keyword" and tok.text == "endmodule":
                self.next()
                break
            if tok.kind == "eof":
                raise self.error(tok, "missing 'endmodule'")
            self.statement(mod, decls)
        return mod

    def port_decl(self, mod: AstModule,
                  last: list[tuple[str, int] | None]) -> None:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in ("input", "output"):
            self.next()
            width = self.opt_range() or 1
            self.check_supported(self.peek())
            name = self.expect("ident", "port name")
            mod.ports.append(
                AstPortDecl(name.text, tok.text, width, name.line, name.col)
            )
            last[0] = (tok.text, width)
        elif tok.kind == "ident":
            self.check_supported(tok)
            self.next()
            if last[0] is not None:
                # ANSI style: later names inherit the previous direction
                direction, width = last[0]
                mod.ports.append(
                    AstPortDecl(tok.text, direction, width,
                                tok.line, tok.col)
                )
            else:
                mod.ports.append(
                    AstPortDecl(tok.text, None, None, tok.line, tok.col)
                )
        else:
            raise self.error(tok, f"expected port, found {tok.text!r}")

    def opt_range(self) -> int | None:
        """``[N:0]`` in a declaration; returns the width."""
        if not self.accept("["):
            return None
        high = self.expect("number", "bit index")
        self.expect(":")
        low = self.expect("number", "bit index")
        self.expect("]")
        if low.value != 0:
            raise self.error(
                low, f"declaration ranges must end at 0, found"
                     f" [{high.value}:{low.value}]"
            )
        return high.value + 1

    def statement(self, mod: AstModule,
                  decls: dict[str, AstPortDecl]) -> None:
        tok = self.peek()
        self.check_supported(tok)
        if tok.kind == "keyword" and tok.text in ("input", "output"):
            self.next()
            width = self.opt_range()
            while True:
                name = self.expect("ident", "port name")
                decl = decls.get(name.text)
                if decl is None:
                    raise self.error(
                        name, f"'{name.text}' is not in the port list"
                    )
                if decl.direction is not None:
                    raise self.error(
                        name, f"port '{name.text}' declared twice"
                    )
                decl.direction = tok.text
                decl.width = width or 1
                if not self.accept(","):
                    break
            self.expect(";")
        elif tok.kind == "keyword" and tok.text == "wire":
            self.next()
            width = self.opt_range() or 1
            while True:
                name = self.expect("ident", "wire name")
                mod.wires.append(
                    AstWire(name.text, width, name.line, name.col)
                )
                if not self.accept(","):
                    break
            self.expect(";")
        elif tok.kind == "keyword" and tok.text == "assign":
            self.next()
            lhs = self.lvalue()
            self.expect("=")
            rhs = self.expr()
            self.expect(";")
            mod.assigns.append(AstAssign(lhs, rhs, tok.line, tok.col))
        elif tok.kind == "ident":
            mod.instances.append(self.instance())
        else:
            raise self.error(
                tok, f"expected statement, found {tok.text or 'end of input'!r}"
            )

    def lvalue(self) -> AstLval:
        name = self.expect("ident", "net name")
        high = low = None
        if self.accept("["):
            first = self.expect("number", "bit index")
            if self.accept(":"):
                second = self.expect("number", "bit index")
                high, low = first.value, second.value
                if high < low:
                    raise self.error(
                        first, f"descending range [{high}:{low}] on"
                               " assignment target"
                    )
            else:
                high = low = first.value
            self.expect("]")
        return AstLval(name.text, high, low, name.line, name.col)

    def instance(self) -> AstInstance:
        mtok = self.expect("ident", "module name")
        itok = self.expect("ident", "instance name")
        self.expect("(")
        conns: list[AstConn] = []
        if self.peek().kind != ")":
            while True:
                tok = self.peek()
                if self.accept("."):
                    port = self.expect("ident", "port name")
                    self.expect("(")
                    expr = None
                    if self.peek().kind != ")":
                        expr = self.expr()
                    self.expect(")")
                    conns.append(
                        AstConn(port.text, expr, port.line, port.col)
                    )
                else:
                    expr = self.expr()
                    conns.append(
                        AstConn(None, expr, tok.line, tok.col)
                    )
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect(";")
        return AstInstance(mtok.text, itok.text, conns, mtok.line, mtok.col)

    # -- expressions ---------------------------------------------------------

    def expr(self) -> Expr:
        cond = self.binary(1)
        if self.peek().kind != "?":
            return cond
        tok = self.next()
        then = self.expr()
        self.expect(":")
        other = self.expr()
        return ETernary(tok.line, tok.col, cond=cond, then=then, other=other)

    def binary(self, min_prec: int) -> Expr:
        """Precedence climbing over :data:`_BINARY_PREC`: the operators
        of at least ``min_prec``, left-associative.  Recursion goes one
        level deeper per precedence level, not per operator."""
        left = self.unary()
        while True:
            tok = self.peek()
            prec = _BINARY_PREC.get(tok.kind, 0)
            if prec < min_prec:
                return left
            self.pos += 1
            right = self.binary(prec + 1)
            left = EBinary(tok.line, tok.col, op=tok.kind, a=left, b=right)

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind in ("~", "&", "|", "^"):
            self.next()
            arg = self.unary()
            return EUnary(tok.line, tok.col, op=tok.kind, arg=arg)
        return self.primary()

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.kind == "sized":
            self.next()
            return ENum(tok.line, tok.col, width=tok.width,
                        value=tok.value, sized=True)
        if tok.kind == "number":
            self.next()
            return ENum(tok.line, tok.col, value=tok.value, sized=False)
        if tok.kind == "ident":
            self.check_supported(tok)
            self.next()
            if self.accept("["):
                first = self.expect("number", "bit index")
                high = low = first.value
                if self.accept(":"):
                    second = self.expect("number", "bit index")
                    low = second.value
                    if high < low:
                        raise self.error(
                            first, f"descending part select"
                                   f" [{high}:{low}]"
                        )
                self.expect("]")
                return ESelect(tok.line, tok.col, name=tok.text,
                               high=high, low=low)
            return ERef(tok.line, tok.col, name=tok.text)
        if tok.kind == "{":
            self.next()
            # Replication looks like {N{expr}}.
            if self.peek().kind == "number" and self.peek(1).kind == "{":
                count = self.next()
                self.next()
                item = self.expr()
                self.expect("}")
                self.expect("}")
                if count.value < 1:
                    raise self.error(count, "replication count must be >= 1")
                return ERepl(tok.line, tok.col, count=count.value, item=item)
            items = [self.expr()]
            while self.accept(","):
                items.append(self.expr())
            self.expect("}")
            return EConcat(tok.line, tok.col, items=items)
        raise self.error(
            tok, f"expected expression, found {tok.text or 'end of input'!r}"
        )


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------

_BINARY_KIND = {"&": "and", "|": "or", "^": "xor", "+": "add", "-": "sub"}
_REDUCE_KIND = {"&": "redand", "|": "redor", "^": "redxor"}


@dataclass
class _Net:
    name: str
    width: int
    is_wire: bool
    direction: str | None  # port direction, None for wires
    line: int
    col: int
    # (high, low, tag, payload); tag is "assign" or "inst"
    drivers: list[tuple[int, int, str, object]] = field(default_factory=list)
    driven_by: list[object | None] = None  # per-bit driver site

    def __post_init__(self):
        self.driven_by = [None] * self.width


class _Elaborator:
    """Builds one HwModule from an AstModule, given all module signatures."""

    def __init__(self, ast: AstModule, signatures: dict[str, list[Port]],
                 filename: str, diags: list[ParseDiagnostic]):
        self.ast = ast
        self.signatures = signatures
        self.filename = filename
        self.diags = diags
        self.nets: dict[str, _Net] = {}
        self.builder: ModuleBuilder | None = None
        self.net_values: dict[str, ValueRef] = {}
        self.net_state: dict[str, int] = {}  # 1 = in progress, 2 = done
        self.inst_values: dict[int, ValueRef] = {}
        self._conn_cache: dict[int, dict[str, AstConn]] = {}
        self.failed = False

    def error(self, line: int, col: int, message: str) -> None:
        self.diags.append(
            ParseDiagnostic(self.filename, line, col, "error", message)
        )
        self.failed = True

    # -- symbol table ------------------------------------------------------

    def build_symbols(self) -> list[Port]:
        ports: list[Port] = []
        for p in self.ast.ports:
            if p.direction is None:
                self.error(p.line, p.col,
                           f"port '{p.name}' has no direction declaration")
                continue
            if p.name in self.nets:
                self.error(p.line, p.col, f"duplicate port '{p.name}'")
                continue
            self.nets[p.name] = _Net(p.name, p.width, False, p.direction,
                                     p.line, p.col)
            ports.append(Port(p.name, p.direction, p.width))
        for w in self.ast.wires:
            if w.name in self.nets:
                self.error(w.line, w.col,
                           f"'{w.name}' is already declared")
                continue
            self.nets[w.name] = _Net(w.name, w.width, True, None,
                                     w.line, w.col)
        return ports

    # -- width inference ----------------------------------------------------

    def infer_width(self, e: Expr) -> int | None:
        if isinstance(e, ENum):
            if not e.sized:
                self.error(e.line, e.col,
                           "unsized literal in expression position"
                           " (only valid as an index or replication count)")
                return None
            return e.width
        if isinstance(e, ERef):
            net = self.nets.get(e.name)
            if net is None:
                self.error(e.line, e.col, f"unknown identifier '{e.name}'")
                return None
            e.width = net.width
            return net.width
        if isinstance(e, ESelect):
            net = self.nets.get(e.name)
            if net is None:
                self.error(e.line, e.col, f"unknown identifier '{e.name}'")
                return None
            if e.high >= net.width:
                self.error(e.line, e.col,
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
                self.error(e.line, e.col,
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
                self.error(e.cond.line, e.cond.col,
                           f"condition must be 1 bit wide, got {wc}")
                return None
            if wa != wb:
                self.error(e.line, e.col,
                           f"arm width mismatch: {wa} vs {wb}")
                return None
            e.width = wa
            return wa
        raise AssertionError(f"unhandled expression {e!r}")

    # -- driver collection ---------------------------------------------------

    def add_driver(self, name: str, high: int | None, low: int | None,
                   tag: str, payload: object, line: int, col: int) -> None:
        net = self.nets.get(name)
        if net is None:
            self.error(line, col, f"unknown identifier '{name}'")
            return
        if net.direction == "input":
            self.error(line, col, f"assignment to input port '{name}'")
            return
        if high is None:
            high, low = net.width - 1, 0
        if high >= net.width:
            self.error(line, col,
                       f"bit {high} out of range for '{name}' of width"
                       f" {net.width}")
            return
        for bit in range(low, high + 1):
            if net.driven_by[bit] is not None:
                self.error(line, col,
                           f"multiple drivers for '{name}[{bit}]'")
                return
        for bit in range(low, high + 1):
            net.driven_by[bit] = (line, col)
        net.drivers.append((high, low, tag, payload))

    def collect_drivers(self) -> None:
        for a in self.ast.assigns:
            w = self.infer_width(a.rhs)
            if w is None:
                continue
            net = self.nets.get(a.lhs.name)
            if net is None:
                self.error(a.lhs.line, a.lhs.col,
                           f"unknown identifier '{a.lhs.name}'")
                continue
            lw = net.width if a.lhs.high is None \
                else a.lhs.high - a.lhs.low + 1
            if w != lw:
                self.error(a.line, a.col,
                           f"assignment width mismatch: '{a.lhs.name}'"
                           f" expects {lw}, got {w}")
                continue
            self.add_driver(a.lhs.name, a.lhs.high, a.lhs.low,
                            "assign", a.rhs, a.lhs.line, a.lhs.col)

        for idx, inst in enumerate(self.ast.instances):
            sig = self.signatures.get(inst.module)
            if sig is None:
                self.error(inst.line, inst.col,
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
                        self.error(inst.line, inst.col,
                                   f"input port '{port.name}' of"
                                   f" '{inst.module}' is not connected")
                    continue
                if port.direction == "input":
                    w = self.infer_width(conn.expr)
                    if w is not None and w != port.width:
                        self.error(conn.line, conn.col,
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
                        self.error(conn.line, conn.col,
                                   f"connection width mismatch on"
                                   f" '{port.name}': port is {port.width},"
                                   f" target is {w}")
                        continue
                    self.add_driver(lv.name, lv.high, lv.low, "inst",
                                    (idx, port.name), conn.line, conn.col)

    def resolve_conns(self, inst: AstInstance,
                      sig: list[Port]) -> dict[str, AstConn] | None:
        named = [c for c in inst.conns if c.port is not None]
        if named and len(named) != len(inst.conns):
            self.error(inst.line, inst.col,
                       "cannot mix named and positional connections")
            return None
        out: dict[str, AstConn] = {}
        if named:
            portnames = {p.name for p in sig}
            for c in inst.conns:
                if c.port not in portnames:
                    self.error(c.line, c.col,
                               f"'{inst.module}' has no port '{c.port}'")
                    return None
                if c.port in out:
                    self.error(c.line, c.col,
                               f"port '{c.port}' connected twice")
                    return None
                out[c.port] = c
        else:
            if len(inst.conns) > len(sig):
                self.error(inst.line, inst.col,
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
                self.error(e.line, e.col, f"unknown identifier '{e.name}'")
                return None
            return AstLval(e.name, None, None, e.line, e.col)
        if isinstance(e, ESelect):
            net = self.nets.get(e.name)
            if net is None:
                self.error(e.line, e.col, f"unknown identifier '{e.name}'")
                return None
            if e.high >= net.width:
                self.error(e.line, e.col,
                           f"bit {e.high} out of range for '{e.name}'"
                           f" of width {net.width}")
                return None
            return AstLval(e.name, e.high, e.low, e.line, e.col)
        self.error(conn.line, conn.col,
                   "output connection must be a net or a net slice")
        return None

    # -- demand-driven net elaboration ---------------------------------------

    def expr_net_deps(self, e: Expr, out: list[tuple[str, int, int]]) -> None:
        if isinstance(e, (ERef, ESelect)):
            out.append((e.name, e.line, e.col))
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

    def net_deps(self, net: _Net) -> list[tuple[str, int, int]]:
        """Nets whose values are needed before this one can be built.
        For an instance driver that means the nets feeding its input
        ports; nets wired to its outputs are produced, not consumed."""
        deps: list[tuple[str, int, int]] = []
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

    def demand_net(self, name: str, line: int, col: int) -> ValueRef:
        """Iterative dependency-first elaboration, so arbitrarily long
        net chains do not recurse."""
        stack: list[tuple[str, int, int]] = [(name, line, col)]
        while stack:
            n, nline, ncol = stack[-1]
            state = self.net_state.get(n)
            if state == 2:
                stack.pop()
                continue
            net = self.nets.get(n)
            if net is None:
                self.error(nline, ncol, f"unknown identifier '{n}'")
                raise self._Abort()
            if net.direction == "input":
                self.net_values[n] = self.builder.input_ref(n, net.width)
                self.net_state[n] = 2
                stack.pop()
                continue
            pending = []
            for dep, dline, dcol in self.net_deps(net):
                dstate = self.net_state.get(dep)
                if dstate == 2:
                    continue
                if dstate == 1:
                    self.error(dline, dcol,
                               f"combinational cycle through net '{dep}'")
                    raise self._Abort()
                pending.append((dep, dline, dcol))
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
                self.error(net.line, net.col,
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
                        p.name, self.nets[p.name].line, self.nets[p.name].col
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
                    deps: list[tuple[str, int, int]] = []
                    self.expr_net_deps(conn.expr, deps)
                    for dep, dline, dcol in deps:
                        self.demand_net(dep, dline, dcol)
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


def parse_design(src: str, filename: str = "<input>") -> HwDesign:
    """Parse and elaborate Verilog source into a design.

    The last module in the file becomes the top unless exactly one
    module is never instantiated, in which case that one does.  Raises
    :class:`ParseError` carrying all diagnostics on any lexical,
    syntactic, or elaboration failure.
    """
    diags: list[ParseDiagnostic] = []
    tokens = _Lexer(src, filename, diags).tokens()
    # Parse even after lexical errors: unsupported constructs read
    # better as "unsupported construct 'always'" than as a complaint
    # about the first strange character.
    parser = _Parser(tokens, filename, diags)
    try:
        ast_modules = parser.design()
    except _SyntaxAbort:
        raise ParseError(diags) from None
    if diags:
        raise ParseError(diags)

    signatures: dict[str, list[Port]] = {}
    order: list[AstModule] = []
    for mod in ast_modules:
        if mod.name in signatures:
            diags.append(
                ParseDiagnostic(filename, mod.line, mod.col, "error",
                                f"duplicate module '{mod.name}'")
            )
            continue
        ports = []
        for p in mod.ports:
            if p.direction is not None:
                ports.append(Port(p.name, p.direction, p.width))
        signatures[mod.name] = ports
        order.append(mod)
    if diags:
        raise ParseError(diags)

    modules: dict[str, HwModule] = {}
    for mod in order:
        built = _Elaborator(mod, signatures, filename, diags).run()
        if built is not None:
            modules[mod.name] = built
    if diags:
        raise ParseError(diags)
    if not modules:
        raise ParseError([
            ParseDiagnostic(filename, 1, 1, "error", "no modules found")
        ])

    instantiated = {
        op.module
        for m in modules.values()
        for op in m.operations
        if op.kind == "instance"
    }
    roots = [name for name in modules if name not in instantiated]
    top = roots[0] if len(roots) == 1 else list(modules)[-1]
    design = HwDesign(modules, top)
    _, cycles = instantiation_order(design)
    if cycles:
        raise ParseError([
            ParseDiagnostic(filename, 1, 1, "error", p) for p in cycles
        ])
    return design
