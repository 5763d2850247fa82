"""From-scratch references that the program is tested against.

The token-at-a-time lexer (``Token``, ``_Lexer``) is the specification
of ``frontend._Lexer``: the same token texts, in order, and the same
lexical diagnostics, each with its ``line:col``, once each select token
of ``frontend._Lexer`` is read as the tokens it is spelled with.

``_SELECT_FINDALL_RE`` is the frontend's token pattern with its
alternatives in their first order: the two must match the same texts
at the same places.

The reference front half is the frontend before expressions were parsed
without recursion: the findall lexer without select tokens
(``_FindallLexer``), the recursive-descent parser (``_Parser``) that
builds an expression tree (``Expr`` and its subclasses), and the
elaborator that walks that tree (``_Elaborator``).  Put in place of
``frontend._Lexer``, ``_Parser`` and ``_Elaborator``, it is the
specification of ``frontend.parse_design``: on any source it can parse
without reaching the recursion limit, the same operation list, the same
bindings and the same diagnostics.

The pipeline plans a sink with one downward scan per bit
(``pipeline.permutation_low`` and ``_SinkAnalysis.structural_low``).
These functions decide a single window on their own, the permutation
test from the bits' routes and the structural test from the window's
cones, and are what the permutation-recovery criterion and the
planner's specification (``test_pipeline._reference_plan``) test
against.  ``is_isomorphic`` classifies a family's slots as ``Slot``
and ``ConeShape`` values.

``serialize`` is the preorder string encoding of a cone that the
push-index skeleton of ``cones.backward_cone`` replaced: the two must
agree on which cones are isomorphic and on which leaves correspond.
It routes the root and every operand from the module itself with
``ir.route_bit``, so it reads nothing of the cone it checks.
``slot_positions`` names each slot of a cone by the leaf position it
fills, and ``select_positions`` is the module walk that finds the leaf
positions below a mux select, the rule ``cones.select_slots`` reads off
a skeleton.

``verify_module`` and ``verify`` check every rule of every operation,
one after another, with no accept test in front: they are the
specification of ``ir.verify``, the same violations in the same order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from busweaver.cones import _CANON_KIND, LogicCone, lane_steps, select_slots
from busweaver.frontend import (
    _DIGITS,
    _IDENT_START,
    _PUNCT,
    _SHOWN_BITS,
    _UNSUPPORTED_OPS,
    KEYWORDS,
    MAX_WIDTH,
    UNSUPPORTED_KEYWORDS,
    AstAssign,
    AstConn,
    AstInstance,
    AstLval,
    AstModule,
    AstPortDecl,
    AstWire,
    ParseDiagnostic,
    _decimal,
    _SyntaxAbort,
)
from busweaver.ir import (
    ALL_KINDS,
    BINARY_KINDS,
    REDUCE_KINDS,
    HwDesign,
    HwModule,
    ModuleBuilder,
    Operation,
    Port,
    ValueRef,
    instantiation_order,
    route_bit,
)
from busweaver.rewrite import compact_module


#: One match per token: blanks and comments, then the token as group 1.
#: Group 1 is a sized literal, a number, an identifier, an unsupported
#: operator, punctuation, a stray character, or "" at the end of input.
_FINDALL_RE = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"
    r"([0-9][0-9_]*\s*'\s*[bodhBODH][0-9a-fA-F_xXzZ?]+"
    r"|[0-9][0-9_]*"
    r"|[A-Za-z_][A-Za-z0-9_$]*"
    r"|" + "|".join(map(re.escape, _UNSUPPORTED_OPS)) +
    r"|[()\[\]{},;:.?=~&|^+\-]"
    r"|."
    r"|\Z)",
    re.DOTALL,
)


#: ``frontend._TOKEN_RE`` in its first order: the findall pattern with
#: select tokens, its alternatives in the order of the lexer's
#: specification.  The frontend orders them by how often they match.
_SELECT_FINDALL_RE = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"
    r"([0-9][0-9_]*\s*'\s*[bodhBODH][0-9a-fA-F_xXzZ?]+"
    r"|[0-9][0-9_]*"
    r"|(?:input|output|wire)(?=\[)"
    r"|[A-Za-z_][A-Za-z0-9_$]*(?:\[[0-9]{1,9}(?::[0-9]{1,9})?\])?"
    r"|" + "|".join(map(re.escape, _UNSUPPORTED_OPS)) +
    r"|[()\[\]{},;:.?=~&|^+\-]"
    r"|."
    r"|\Z)",
    re.DOTALL,
)


class _FindallLexer:
    """Token texts of one source, and where they are.

    A token is its text; the list from :meth:`tokens` ends in "" for
    end of input.  Nodes and nets refer to a token by its index, which
    :meth:`position` turns into ``(line, col)`` only when a diagnostic
    needs one.
    """

    def __init__(self, src: str, filename: str, diags: list[ParseDiagnostic]):
        self.src = src
        self.filename = filename
        self.diags = diags
        #: sized literal text -> (value, width)
        self.literals: dict[str, tuple[int, int]] = {}
        self._positions: list[tuple[int, int]] | None = None

    def error(self, index: int, message: str) -> None:
        self.diags.append(ParseDiagnostic(
            self.filename, *self.position(index), "error", message))

    def position(self, index: int) -> tuple[int, int]:
        """``(line, col)`` of token ``index``: lines count newlines,
        columns count characters from the line's start.  The first call
        scans the whole source once."""
        if self._positions is None:
            src = self.src
            self._positions = []
            line, line_start, prev = 1, 0, 0
            for m in _FINDALL_RE.finditer(src):
                start = m.start(1)
                newlines = src.count("\n", prev, start)
                if newlines:
                    line += newlines
                    line_start = src.rfind("\n", prev, start) + 1
                self._positions.append((line, start - line_start + 1))
                prev = start
        return self._positions[index]

    def tokens(self) -> list[str]:
        texts = _FINDALL_RE.findall(self.src)
        if len(texts) > 1 and not texts[-2]:
            texts.pop()  # trailing blanks: the end matches twice
        bad = {text: message for text in set(texts)
               if (message := self._check(text)) is not None}
        if not bad:
            return texts
        keep = []
        for i, text in enumerate(texts):
            if text in bad:
                self.error(i, bad[text])
            else:
                keep.append(i)
        self._positions = [self._positions[i] for i in keep]
        return [texts[i] for i in keep]

    def _check(self, text: str) -> str | None:
        """The diagnostic for a text the parser must not see, or None.
        Decodes a sized literal into :attr:`literals`."""
        if text in _UNSUPPORTED_OPS:
            return f"unsupported operator '{text}'"
        if text[:1] in _DIGITS:
            return self._sized(text) if "'" in text else None
        if not text or text[0] in _IDENT_START or text in _PUNCT:
            return None
        return f"unexpected character {text!r}"

    def _sized(self, text: str) -> str | None:
        width_str, rest = text.split("'", 1)
        width = int(width_str.replace("_", "").strip())
        rest = rest.strip()
        base, digits = rest[0].lower(), rest[1:].replace("_", "")
        if width < 1:
            return f"literal width {width} < 1"
        if any(c in "xXzZ?" for c in digits):
            return "four-state literals (x/z) are not supported"
        try:
            value = _decimal(digits) if base == "d" \
                else int(digits, {"b": 2, "o": 8, "h": 16}[base])
        except ValueError:
            return f"malformed literal '{text}'"
        if value.bit_length() > width:
            shown = value if value.bit_length() < _SHOWN_BITS \
                else f"of {value.bit_length()} bits"
            return (f"literal value {shown} does not fit in"
                    f" {width} bit{'s' if width != 1 else ''}")
        self.literals[text] = (value, width)
        return None


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


@dataclass
class Expr:
    tok: int


@dataclass
class ENum(Expr):
    value: int = 0
    sized: bool = False
    width: int = 0  # of a sized literal


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




#: Binary operator precedence, loosest first.
_BINARY_PREC = {"|": 1, "^": 2, "&": 3, "+": 4, "-": 4}
_UNARY_OPS = frozenset({"~", "&", "|", "^"})


def _is_ident(text: str) -> bool:
    return text[:1] in _IDENT_START and text not in KEYWORDS


def _is_number(text: str) -> bool:
    """An unsized number; sized literals hold a "'"."""
    return text[:1] in _DIGITS and "'" not in text


class _Parser:
    def __init__(self, tokens: list[str], lexer: _FindallLexer):
        # The list ends in "" and nothing steps past it; the only look
        # ahead is past a number, never past "".
        self.toks = tokens
        self.pos = 0
        self.lexer = lexer

    def peek(self) -> str:
        return self.toks[self.pos]

    def error(self, index: int, message: str) -> _SyntaxAbort:
        self.lexer.error(index, message)
        return _SyntaxAbort()

    def found(self, index: int) -> str:
        return repr(self.toks[index] or "end of input")

    def accept(self, text: str) -> bool:
        """Consume the next token if it is ``text``."""
        if self.toks[self.pos] != text:
            return False
        self.pos += 1
        return True

    def expect(self, text: str) -> None:
        i = self.pos
        if self.toks[i] != text:
            raise self.error(i, f"expected {text!r}, found {self.found(i)}")
        self.pos = i + 1

    def ident(self, what: str) -> str:
        """Consume an identifier that is not a keyword."""
        i = self.pos
        text = self.toks[i]
        if not _is_ident(text):
            raise self.error(i, f"expected {what!r}, found {self.found(i)}")
        self.pos = i + 1
        return text

    def bit_index(self) -> int:
        """Consume an unsized number and return its value."""
        i = self.pos
        text = self.toks[i]
        if not _is_number(text):
            raise self.error(i, f"expected 'bit index', found {self.found(i)}")
        self.pos = i + 1
        return _decimal(text.replace("_", ""))

    def check_supported(self, index: int) -> None:
        text = self.toks[index]
        if text in UNSUPPORTED_KEYWORDS:
            raise self.error(
                index,
                f"unsupported construct '{text}' (only flat"
                " combinational modules are supported)",
            )

    # -- grammar ---------------------------------------------------------

    def design(self) -> list[AstModule]:
        modules = []
        while True:
            i = self.pos
            text = self.toks[i]
            if not text:
                return modules
            self.check_supported(i)
            if text == "module":
                modules.append(self.module())
            else:
                raise self.error(i, f"expected 'module', found {text!r}")

    def module(self) -> AstModule:
        head = self.pos
        self.pos += 1  # "module"
        mod = AstModule(self.ident("module name"), [], [], [], [], head)
        if self.accept("("):
            last: list[tuple[str, int] | None] = [None]
            if self.peek() != ")":
                while True:
                    self.port_decl(mod, last)
                    if not self.accept(","):
                        break
            self.expect(")")
        self.expect(";")
        # Body declarations look ports up here; the first name wins.
        decls = {p.name: p for p in reversed(mod.ports)}
        while True:
            text = self.peek()
            if text == "endmodule":
                self.pos += 1
                break
            if not text:
                raise self.error(self.pos, "missing 'endmodule'")
            self.statement(mod, decls)
        return mod

    def port_decl(self, mod: AstModule,
                  last: list[tuple[str, int] | None]) -> None:
        i = self.pos
        text = self.toks[i]
        if text in ("input", "output"):
            self.pos = i + 1
            width = self.opt_range() or 1
            self.check_supported(self.pos)
            at = self.pos
            mod.ports.append(
                AstPortDecl(self.ident("port name"), text, width, at)
            )
            last[0] = (text, width)
        elif _is_ident(text):
            self.check_supported(i)
            self.pos = i + 1
            # ANSI style: later names inherit the previous direction
            direction, width = last[0] or (None, None)
            mod.ports.append(AstPortDecl(text, direction, width, i))
        else:
            raise self.error(i, f"expected port, found {text!r}")

    def opt_range(self) -> int | None:
        """``[N:0]`` in a declaration; returns the width."""
        if not self.accept("["):
            return None
        top = self.pos
        high = self.bit_index()
        self.expect(":")
        at = self.pos
        low = self.bit_index()
        self.expect("]")
        if low != 0:
            raise self.error(
                at, f"declaration ranges must end at 0, found"
                    f" [{high}:{low}]"
            )
        if high >= MAX_WIDTH:
            raise self.error(
                top, f"declared width {high + 1} exceeds the limit of"
                        f" {MAX_WIDTH} bits"
            )
        return high + 1

    def statement(self, mod: AstModule,
                  decls: dict[str, AstPortDecl]) -> None:
        i = self.pos
        text = self.toks[i]
        self.check_supported(i)
        if text in ("input", "output"):
            self.pos = i + 1
            width = self.opt_range()
            while True:
                at = self.pos
                name = self.ident("port name")
                decl = decls.get(name)
                if decl is None:
                    raise self.error(at, f"'{name}' is not in the port list")
                if decl.direction is not None:
                    raise self.error(at, f"port '{name}' declared twice")
                decl.direction = text
                decl.width = width or 1
                if not self.accept(","):
                    break
            self.expect(";")
        elif text == "wire":
            self.pos = i + 1
            width = self.opt_range() or 1
            while True:
                at = self.pos
                mod.wires.append(AstWire(self.ident("wire name"), width, at))
                if not self.accept(","):
                    break
            self.expect(";")
        elif text == "assign":
            self.pos = i + 1
            lhs = self.lvalue()
            self.expect("=")
            rhs = self.expr()
            self.expect(";")
            mod.assigns.append(AstAssign(lhs, rhs, i))
        elif _is_ident(text):
            mod.instances.append(self.instance())
        else:
            raise self.error(i, f"expected statement, found {self.found(i)}")

    def lvalue(self) -> AstLval:
        i = self.pos
        name = self.ident("net name")
        high = low = None
        if self.accept("["):
            at = self.pos
            high = low = self.bit_index()
            if self.accept(":"):
                low = self.bit_index()
                if high < low:
                    raise self.error(
                        at, f"descending range [{high}:{low}] on"
                            " assignment target"
                    )
            self.expect("]")
        return AstLval(name, high, low, i)

    def instance(self) -> AstInstance:
        i = self.pos
        module = self.ident("module name")
        name = self.ident("instance name")
        self.expect("(")
        conns: list[AstConn] = []
        if self.peek() != ")":
            while True:
                at = self.pos
                if self.accept("."):
                    at = self.pos
                    port = self.ident("port name")
                    self.expect("(")
                    expr = None
                    if self.peek() != ")":
                        expr = self.expr()
                    self.expect(")")
                    conns.append(AstConn(port, expr, at))
                else:
                    conns.append(AstConn(None, self.expr(), at))
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect(";")
        return AstInstance(module, name, conns, i)

    # -- expressions ---------------------------------------------------------

    def expr(self) -> Expr:
        cond = self.binary(1)
        i = self.pos
        if self.toks[i] != "?":
            return cond
        self.pos = i + 1
        then = self.expr()
        self.expect(":")
        other = self.expr()
        return ETernary(i, cond, then, other)

    def binary(self, min_prec: int, left: Expr | None = None) -> Expr:
        """Precedence climbing over :data:`_BINARY_PREC`: the operators
        of at least ``min_prec``, left-associative, after ``left`` if it
        is given.  Recursion goes one level deeper per precedence level
        that the next operator climbs, not per operator."""
        if left is None:
            left = self.unary()
        toks = self.toks
        while True:
            i = self.pos
            op = toks[i]
            prec = _BINARY_PREC.get(op, 0)
            if prec < min_prec:
                return left
            self.pos = i + 1
            right = self.unary() if toks[i + 1] in _UNARY_OPS \
                else self.primary()
            if _BINARY_PREC.get(toks[self.pos], 0) > prec:
                right = self.binary(prec + 1, right)
            left = EBinary(i, op, left, right)

    def unary(self) -> Expr:
        i = self.pos
        op = self.toks[i]
        if op in _UNARY_OPS:
            self.pos = i + 1
            arg = self.unary()
            return EUnary(i, op, arg)
        return self.primary()

    def primary(self) -> Expr:
        i = self.pos
        text = self.toks[i]
        # _is_ident and check_supported, inline: most operands are here
        if text[:1] in _IDENT_START and text not in KEYWORDS:
            if text in UNSUPPORTED_KEYWORDS:
                self.check_supported(i)
            toks = self.toks
            if toks[i + 1] != "[":
                self.pos = i + 1
                return ERef(i, text)
            self.pos = at = i + 2
            high = low = self.bit_index()
            if toks[self.pos] == ":":
                self.pos += 1
                low = self.bit_index()
                if high < low:
                    raise self.error(
                        at, f"descending part select [{high}:{low}]"
                    )
            self.expect("]")
            return ESelect(i, text, high, low)
        if text[:1] in _DIGITS:
            self.pos = i + 1
            literal = self.lexer.literals.get(text)
            if literal is None:
                return ENum(i, sized=False)
            value, width = literal
            return ENum(i, width=width, value=value, sized=True)
        if text == "(":
            self.pos = i + 1
            inner = self.expr()
            self.expect(")")
            return inner
        if text == "{":
            self.pos = at = i + 1
            # Replication looks like {N{expr}}.
            if _is_number(self.toks[at]) and self.toks[at + 1] == "{":
                self.pos = at + 2
                item = self.expr()
                self.expect("}")
                self.expect("}")
                count = _decimal(self.toks[at].replace("_", ""))
                if count < 1:
                    raise self.error(at, "replication count must be >= 1")
                return ERepl(i, count, item)
            items = [self.expr()]
            while self.accept(","):
                items.append(self.expr())
            self.expect("}")
            return EConcat(i, items)
        raise self.error(i, f"expected expression, found {self.found(i)}")


_BINARY_KIND = {"&": "and", "|": "or", "^": "xor", "+": "add", "-": "sub"}
_REDUCE_KIND = {"&": "redand", "|": "redor", "^": "redxor"}
_BINARY_NODE = {op: (kind,) for op, kind in _BINARY_KIND.items()}


class _Code(NamedTuple):
    """An expression after its one walk: its width, each net read with
    the token of the read, in order, and its nodes in post-order, which
    are the frontend's."""

    width: int
    deps: list[tuple[str, int]]
    nodes: list[tuple]


class _Net:
    """A port or wire being elaborated.  ``direction`` is None for a
    wire.  A driver is ``(high, low, tag, payload)``; tag is "assign"
    (payload: its _Code) or "inst" (payload: (instance index, port
    name)).  ``driven_by`` holds each bit's driver site, and ``deps``
    the net's dependency lists once :meth:`_Elaborator.net_deps` has
    computed them."""

    __slots__ = ("name", "width", "is_wire", "direction", "tok", "drivers",
                 "driven_by", "deps")

    def __init__(self, name: str, width: int, is_wire: bool,
                 direction: str | None, tok: int) -> None:
        self.name = name
        self.width = width
        self.is_wire = is_wire
        self.direction = direction
        self.tok = tok
        self.drivers = []
        self.driven_by = [None] * width
        self.deps = None


class _Elaborator:
    """Builds one HwModule from an AstModule, given all module signatures.

    Each expression is walked once, iteratively, when drivers are
    collected (:meth:`walk`); building a net replays the walk's nodes
    (:meth:`build`), so no expression depth reaches the stack.  A run
    of one binary operator other than ``-`` down a left spine, whether
    the source wrote it with parentheses or not, is one node of all its
    operands, as in the frontend.
    """

    def __init__(self, ast: AstModule, signatures: dict[str, list[Port]],
                 lexer: _FindallLexer):
        self.ast = ast
        self.signatures = signatures
        self.lexer = lexer
        self.nets: dict[str, _Net] = {}
        self.builder: ModuleBuilder | None = None
        self.net_values: dict[str, ValueRef] = {}
        self.net_state: dict[str, int] = {}  # 1 = in progress, 2 = done
        self.inst_values: dict[int, ValueRef] = {}
        # instance index -> input port name -> the connection's _Code
        self._inputs: dict[int, dict[str, _Code | None]] = {}
        # an extract node -> its value, once built; a net's value never
        # changes, and a chain reads the same bits over and over
        self._extracts: dict[tuple, ValueRef] = {}
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

    # -- expressions -------------------------------------------------------

    def walk(self, root: Expr) -> _Code | None:
        """Check the widths of ``root`` in one iterative post-order
        walk, operands left to right, and record its nets and nodes.

        Every operand is walked even after an error, and an operator
        whose operand failed adds no error of its own, so the
        diagnostics come in source order.  Returns None after an error.
        """
        nets = self.nets
        nodes: list[tuple] = []
        deps: list[tuple[str, int]] = []
        widths: list[int | None] = []  # of the finished operands
        todo: list = [root]
        while todo:
            e = todo.pop()
            cls = type(e)
            if cls is ESelect or cls is ERef:
                deps.append((e.name, e.tok))
                net = nets.get(e.name)
                if net is None:
                    self.error(e.tok, f"unknown identifier '{e.name}'")
                    widths.append(None)
                elif cls is ERef:
                    widths.append(net.width)
                    nodes.append(("net", e.name))
                elif e.high >= net.width:
                    self.error(e.tok,
                               f"bit {e.high} out of range for '{e.name}'"
                               f" of width {net.width}")
                    widths.append(None)
                else:
                    w = e.high - e.low + 1
                    widths.append(w)
                    nodes.append(("extract", e.name, e.low, w))
            elif cls is list:  # [binary operator, n]: operands done
                e, n = e
                wb = widths.pop()
                wa = widths[-1]
                if wa is None or wb is None:
                    widths[-1] = None
                elif wa != wb:
                    self.error(e.tok,
                               f"operand width mismatch: {wa} vs {wb}")
                    widths[-1] = None
                elif wa > MAX_WIDTH and self.too_wide(e.tok, wa):
                    widths[-1] = None
                elif n == 2:
                    nodes.append(_BINARY_NODE[e.op])
                elif n:  # 0 for one that the operator above extends
                    nodes.append(("nary", _BINARY_KIND[e.op], n))
            elif cls is tuple:  # (operator,): its operands are done
                e = e[0]
                cls = type(e)
                if cls is EUnary:
                    w = widths[-1]
                    if w is None:
                        pass
                    elif self.too_wide(e.tok, w):
                        widths[-1] = None
                    elif e.op == "~":
                        nodes.append(("not",))
                    else:
                        nodes.append((_REDUCE_KIND[e.op],))
                        widths[-1] = 1
                elif cls is ETernary:
                    wb = widths.pop()
                    wa = widths.pop()
                    wc = widths[-1]
                    widths[-1] = None
                    if wc is None or wa is None or wb is None:
                        pass
                    elif wc != 1:
                        self.error(e.cond.tok,
                                   f"condition must be 1 bit wide, got {wc}")
                    elif wa != wb:
                        self.error(e.tok,
                                   f"arm width mismatch: {wa} vs {wb}")
                    elif not self.too_wide(e.tok, wa):
                        widths[-1] = wa
                        nodes.append(("mux",))
                elif cls is EConcat:
                    n = len(e.items)
                    items = widths[-n:]
                    del widths[-n:]
                    w = None if None in items else sum(items)
                    if w is not None and self.too_wide(e.tok, w):
                        w = None
                    widths.append(w)
                    if w is not None:
                        nodes.append(("concat", n))
                else:  # ERepl
                    w = widths[-1]
                    if w is not None:
                        w *= e.count
                        if self.too_wide(e.tok, w):
                            w = None
                        else:
                            nodes.append(("replicate", e.count))
                        widths[-1] = w
            elif cls is ENum:
                if e.sized:
                    widths.append(e.width)
                    nodes.append(("const", e.value, e.width))
                else:
                    self.error(e.tok,
                               "unsized literal in expression position"
                               " (only valid as an index or replication"
                               " count)")
                    widths.append(None)
            elif cls is EBinary:
                # down the left spine at once: a chain parses left-deep;
                # each operator's mark holds the operands of its run, 0
                # when the one above extends it
                head = above = None
                while type(e) is EBinary:
                    mark = [e, 2]
                    if above is not None and e.op == above.op != "-":
                        mark[1] = 0
                        head[1] += 1
                    else:
                        head = mark
                    todo.append(mark)
                    todo.append(e.b)
                    above, e = e, e.a
                todo.append(e)
            else:
                todo.append((e,))
                if cls is EUnary:
                    todo.append(e.arg)
                elif cls is ETernary:
                    todo += (e.other, e.then, e.cond)
                elif cls is EConcat:
                    todo += reversed(e.items)
                else:
                    todo.append(e.item)
        width = widths.pop()
        return None if width is None else _Code(width, deps, nodes)

    def too_wide(self, tok: int, width: int) -> bool:
        """Report an operator whose operands or result exceed
        :data:`MAX_WIDTH`.  A literal wider than that reaches no value
        without one, or fails as a width mismatch."""
        if width <= MAX_WIDTH:
            return False
        self.error(tok, f"expression width {width} exceeds the limit of"
                        f" {MAX_WIDTH} bits")
        return True

    def build(self, code: _Code) -> ValueRef:
        """Replay ``code``'s nodes on a value stack.  Every net it reads
        has been built."""
        b = self.builder
        values, extracts = self.net_values, self._extracts
        stack: list[ValueRef] = []
        push, pop = stack.append, stack.pop
        for node in code.nodes:
            kind = node[0]
            if kind == "extract":
                value = extracts.get(node)
                if value is None:
                    value = extracts[node] = b.extract(
                        values[node[1]], node[2], node[3])
                push(value)
            elif kind in BINARY_KINDS:
                y = pop()
                stack[-1] = b.binary(kind, stack[-1], y)
            elif kind == "nary":
                args = stack[-node[2]:]
                del stack[-node[2]:]
                push(b.nary(node[1], args))
            elif kind == "net":
                push(values[node[1]])
            elif kind == "const":
                push(b.const(node[1], node[2]))
            elif kind == "not":
                stack[-1] = b.not_(stack[-1])
            elif kind == "mux":
                other, then = pop(), pop()
                stack[-1] = b.mux(stack[-1], then, other)
            elif kind == "concat":
                parts = stack[-node[1]:]
                del stack[-node[1]:]
                push(b.concat(parts))
            elif kind == "replicate":
                stack[-1] = b.replicate(stack[-1], node[1])
            else:
                stack[-1] = b.reduce(kind, stack[-1])
        return stack[0]

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
            code = self.walk(a.rhs)
            if code is None:
                continue
            net = self.nets.get(a.lhs.name)
            if net is None:
                self.error(a.lhs.tok,
                           f"unknown identifier '{a.lhs.name}'")
                continue
            lw = net.width if a.lhs.high is None \
                else a.lhs.high - a.lhs.low + 1
            if code.width != lw:
                self.error(a.tok,
                           f"assignment width mismatch: '{a.lhs.name}'"
                           f" expects {lw}, got {code.width}")
                continue
            self.add_driver(a.lhs.name, a.lhs.high, a.lhs.low,
                            "assign", code, a.lhs.tok)

        for idx, inst in enumerate(self.ast.instances):
            sig = self.signatures.get(inst.module)
            if sig is None:
                self.error(inst.tok,
                           f"unknown module '{inst.module}'")
                continue
            conns = self.resolve_conns(inst, sig)
            if conns is None:
                continue
            inputs = self._inputs[idx] = {}
            for port in sig:
                conn = conns.get(port.name)
                if conn is None or conn.expr is None:
                    if port.direction == "input":
                        self.error(inst.tok,
                                   f"input port '{port.name}' of"
                                   f" '{inst.module}' is not connected")
                    continue
                if port.direction == "input":
                    code = inputs[port.name] = self.walk(conn.expr)
                    if code is not None and code.width != port.width:
                        self.error(conn.tok,
                                   f"connection width mismatch on"
                                   f" '{port.name}': port is {port.width},"
                                   f" expression is {code.width}")
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

    def net_deps(self, net: _Net) -> tuple[dict[str, int], list[str]]:
        """Nets whose values are needed before this one can be built.
        For an instance driver that means the nets feeding its input
        ports; nets wired to its outputs are produced, not consumed.

        Each net comes once, in two orders: with the token of its first
        read, in the order of first reads (a cycle is reported at the
        first read of a net in progress), and in the order of last
        reads, which is the order in which a stack holding every read
        would have them built."""
        if net.deps is None:
            reads: list[tuple[str, int]] = []
            for _, _, tag, payload in net.drivers:
                if tag == "assign":
                    reads += payload.deps
                else:
                    for code in self._inputs[payload[0]].values():
                        reads += code.deps
            first: dict[str, int] = {}
            for name, tok in reads:
                first.setdefault(name, tok)
            last = list(dict.fromkeys(name for name, _ in reversed(reads)))
            net.deps = first, last[::-1]
        return net.deps

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
            first, last = self.net_deps(net)
            for dep, dtok in first.items():
                if self.net_state.get(dep) == 1:
                    self.error(dtok,
                               f"combinational cycle through net '{dep}'")
                    raise self._Abort()
            pending = [(dep, first[dep]) for dep in last
                       if self.net_state.get(dep) != 2]
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
                parts.append(self.build(payload))
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
        inputs = self._inputs[idx]
        operands = [self.build(code) for code in inputs.values()]
        out_ports = tuple(
            (p.name, p.width) for p in self.signatures[inst.module]
            if p.direction == "output"
        )
        value = self.builder.instance(
            inst.module, inst.name, operands, tuple(inputs), out_ports
        )
        self.inst_values[idx] = value
        return value

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
            for idx, inst in enumerate(self.ast.instances):
                if idx in self.inst_values:
                    continue
                sig = self.signatures[inst.module]
                inputs = self._inputs[idx]
                for k, conn in enumerate(inst.conns):
                    e = conn.expr
                    if e is None:
                        continue
                    port = sig[k].name if conn.port is None else conn.port
                    code = inputs.get(port)
                    # an output connection is a net or a slice of one
                    deps = [(e.name, e.tok)] if code is None else code.deps
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
        # A slice of a wire folds into a slice of its driver, which can
        # leave the wire's own extract or constant unread; nothing else
        # leaves an operation dead.  Some operation is dead exactly when
        # one that is not an instance is read by nothing: the last dead
        # one has no reader.
        ops = module.operations
        if wires:
            read = {ref.op for op in ops for ref in op.operands}
            read.update(ref.op for ref in outputs.values())
            if any(k not in read and op.kind != "instance"
                   for k, op in enumerate(ops)):
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
        union.update(cone.ops)
    return len(union) == total


# Leaf terms: ("leaf", op_id, bit) for a bit of any value that is not
# 1-bit logic, ("op", op_id) for a 1-bit logic operation; a leaf
# position is ("op", op_id, operand position), or ("root",) for a cone
# whose bit routes to a leaf.
_LEAF = "leaf"
_OP = "op"
_LOGIC_KINDS = ("and", "or", "xor", "not", "add", "sub", "mux")


def _term(ops: list[Operation], value: ValueRef, bit: int) -> tuple:
    value, bit, _ = route_bit(ops, value, bit)
    op = ops[value.op]
    if op.width == 1 and op.kind in _LOGIC_KINDS:
        return (_OP, value.op)
    return (_LEAF, value.op, bit)


def serialize(
    module: HwModule, target: ValueRef, bit: int
) -> tuple[str, list[tuple[int, int]], dict[tuple, int]]:
    """The reference skeleton of the cone of ``target[bit]``, with its
    slots and their leaf positions: a preorder walk of the DAG, each
    operand routed from ``module``.

    Shared operations are emitted once and appear as ``@k``
    backreferences afterwards, so equal strings mean isomorphic DAGs,
    sharing included.  Leaf positions appear as ``s`` and are listed in
    the slots in walk order; ``slot_at`` maps each position to its slot.
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

    root = _term(ops, target, bit)
    if root[0] == _LEAF:
        leaf_token(("root",), root[1], root[2])
    else:
        stack: list[tuple] = [root]
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
            op = ops[op_id]
            tokens.append(_CANON_KIND.get(op.kind, op.kind) + "(")
            stack.append(None)
            for pos in range(len(op.operands) - 1, -1, -1):
                term = _term(ops, op.operands[pos], 0)
                if term[0] == _LEAF:
                    stack.append((*term, (_OP, op_id, pos)))
                else:
                    stack.append(term)

    return " ".join(tokens), slots, slot_at


def slot_positions(cone: LogicCone) -> dict[tuple, int]:
    """Each slot of a cone keyed by the leaf position it fills, read
    from the cone's skeleton and ops."""
    if not cone.skeleton:
        return {("root",): 0}
    return {
        (_OP, cone.ops[k], pos): ~c
        for k, (_, *codes) in enumerate(cone.skeleton)
        for pos, c in enumerate(codes)
        if c < 0
    }


def select_positions(
    module: HwModule, target: ValueRef, bit: int
) -> set[tuple]:
    """The leaf positions of the cone of ``target[bit]`` reachable
    through a mux select: a walk once per (op, context) pair over
    operands routed from ``module``, where context flips to scalar at a
    mux's select operand and is inherited below it."""
    ops = module.operations
    root = _term(ops, target, bit)
    if root[0] == _LEAF:
        return set()
    scalar: set[tuple] = set()
    seen: set[tuple[int, bool]] = set()
    work = [(root[1], False)]
    while work:
        op_id, ctx = work.pop()
        if (op_id, ctx) in seen:
            continue
        seen.add((op_id, ctx))
        op = ops[op_id]
        for pos, ref in enumerate(op.operands):
            child_ctx = ctx or (op.kind == "mux" and pos == 0)
            term = _term(ops, ref, 0)
            if term[0] == _OP:
                work.append((term[1], child_ctx))
            elif child_ctx:
                scalar.add((_OP, op_id, pos))
    return scalar


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

    skeleton: list[tuple]
    slots: list[Slot]
    lanes: int


def family_shape(rep: LogicCone, steps: list[int], lanes: int) -> ConeShape:
    """The shape of a ``lanes``-lane family whose lane ``rep`` names
    each slot's base bit and whose slots move by ``steps`` per lane: a
    slot that does not move is invariant."""
    slots = [
        Slot("strided" if step else "invariant", source, base, step)
        for (source, base), step in zip(rep.slots, steps)
    ]
    return ConeShape(rep.skeleton, slots, lanes)


def is_isomorphic(cones: list[LogicCone]) -> ConeShape | None:
    """Check the family shares a skeleton and classify every slot.

    Fails (returns ``None``) on the first skeleton mismatch, and when
    some slot's bit does not move by the same :func:`lane_steps` step
    from every lane to the next.
    """
    assert cones
    rep = cones[0]
    if any(c.skeleton != rep.skeleton for c in cones):
        return None
    steps = [0] * len(rep.slots)
    scalar = select_slots(rep.skeleton)
    for k in range(1, len(cones)):
        lane = lane_steps(cones[k - 1], cones[k], scalar)
        if lane is None or (k > 1 and lane != steps):
            return None
        steps = lane
    return family_shape(rep, steps, len(cones))


def verify_module(
    module: HwModule, design: HwDesign | None = None
) -> list[str]:
    """Rule-by-rule well-formedness check of one module."""
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
    n_ops = len(ops)
    for i, op in enumerate(ops):
        kind = op.kind
        if kind not in ALL_KINDS:
            errs.append(f"{mod}: %{i}: unknown kind {kind}")
            continue
        if op.width < 1:
            errs.append(f"{mod}: %{i}: width {op.width} < 1")
        refs = op.operands
        defined = True
        for ref in refs:
            if not 0 <= ref.op < n_ops:
                errs.append(f"{mod}: %{i}: operand %{ref.op} out of range")
                defined = False
            elif ref.op >= i:
                errs.append(
                    f"{mod}: %{i}: operand %{ref.op} not defined before use"
                    " (cycle or forward reference)"
                )
                defined = False
        if not defined:
            continue
        widths = [ref.width for ref in refs]
        for ref in refs:
            if ops[ref.op].width != ref.width:
                errs.append(
                    f"{mod}: %{i}: operand %{ref.op} width annotation "
                    f"{ref.width} != defined width {ops[ref.op].width}"
                )
        if kind in BINARY_KINDS:
            # and, or, xor and add take two or more operands, sub two
            arity = len(widths) == 2 or kind != "sub" and len(widths) > 2
            if not arity or any(w != op.width for w in widths):
                errs.append(f"{mod}: %{i}: {kind} operand width mismatch")
        elif kind == "const":
            if op.operands:
                errs.append(f"{mod}: %{i}: const takes no operands")
            if not 0 <= op.value < (1 << op.width):
                errs.append(
                    f"{mod}: %{i}: const value {op.value} out of range")
        elif kind == "input":
            if op.operands:
                errs.append(f"{mod}: %{i}: input takes no operands")
            p = ports.get(op.port)
            if p is None or p.direction != "input":
                errs.append(f"{mod}: %{i}: no input port named {op.port!r}")
            elif p.width != op.width:
                errs.append(
                    f"{mod}: %{i}: input {op.port} width {op.width}"
                    f" != {p.width}"
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
                    f"{mod}: %{i}: concat width {op.width}"
                    f" != sum {sum(widths)}"
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
        elif kind == "instance":
            if design is None or op.module not in design.modules:
                errs.append(f"{mod}: %{i}: unresolved module {op.module!r}")
            else:
                callee = design.modules[op.module]
                cins = callee.input_ports
                couts = callee.output_ports
                if len(op.operands) != len(cins):
                    errs.append(
                        f"{mod}: %{i}: instance {op.name}: {len(op.operands)}"
                        f" operands for {len(cins)} input ports"
                    )
                else:
                    for ref, p in zip(op.operands, cins):
                        if ref.width != p.width:
                            errs.append(
                                f"{mod}: %{i}: instance {op.name}:"
                                f" port {p.name}"
                                f" width {p.width} gets {ref.width}"
                            )
                names = tuple(p.name for p in cins)
                if op.in_ports != names:
                    errs.append(
                        f"{mod}: %{i}: instance {op.name}: in_ports"
                        f" {op.in_ports!r} are not the callee's inputs"
                        f" {names!r}"
                    )
                if op.width != sum(p.width for p in couts):
                    errs.append(
                        f"{mod}: %{i}: instance {op.name}: result width"
                        f" {op.width} != callee output width"
                    )
                outs = tuple((p.name, p.width) for p in couts)
                if op.out_ports != outs:
                    errs.append(
                        f"{mod}: %{i}: instance {op.name}: out_ports"
                        f" {op.out_ports!r} are not the callee's outputs"
                        f" {outs!r}"
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
    """``verify_module`` of every module plus the design-level rules."""
    errs: list[str] = []
    if design.top and design.top not in design.modules:
        errs.append(f"top module {design.top!r} not defined")
    for name, module in design.modules.items():
        if module.name != name:
            errs.append(f"module key {name!r} != module name {module.name!r}")
        errs.extend(verify_module(module, design))
    errs.extend(instantiation_order(design)[1])
    return errs
