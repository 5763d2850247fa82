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

The lexer is one ``findall``: each match swallows the blanks and
comments before a token, and a token is just its text, "" at the end;
a select written without blanks, ``a[3]`` or ``a[7:0]``, is one token.
Lexical errors are looked for among the distinct texts, which is also
where sized literals and selects are decoded.  Items keep their token's
index; only a diagnostic turns it into ``line:col``, through a table
built by one more pass over the source on first use.  Statements are
parsed by recursive descent, one level per construct, and expressions
into a flat post-order list: a chain of one precedence level at once,
any other by shunting-yard (``|`` < ``^`` < ``&`` < ``+ -``, all
left-associative, then the right-associative ``?:``).
Elaboration checks that list in one pass and builds it by replaying
the pass, so no expression of any length or nesting depth reaches the
recursion limit.  :data:`MAX_WIDTH` bounds nets and operator widths.
Diagnostics carry ``file:line:col: severity: message`` positions;
:func:`parse_design` raises :class:`ParseError` with the collected list.
"""

from __future__ import annotations

import re
import string
from itertools import accumulate, chain, islice
from typing import NamedTuple

from busweaver.ir import (
    BINARY_KINDS,
    HwDesign,
    HwModule,
    ModuleBuilder,
    Port,
    ValueRef,
    instance_ports,
    instantiation_order,
    port_slices,
)
from busweaver.rewrite import compact_module
# Unused here; kept importable because perfbench/layers.py wraps it.
from busweaver.ir import verify as ir_verify  # noqa: F401


class ParseDiagnostic(NamedTuple):
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

_UNSUPPORTED_OPS = ("&&", "||", "===", "!==", "==", "!=", "<<<", ">>>", "<<",
                    ">>", "<=", ">=", "**", "~^", "^~", "~&", "~|")
_DIGITS = frozenset("0123456789")
#: Widest net, and widest operand or result of an operator, that the
#: elaborator accepts: a net keeps one driver slot per declared bit.
MAX_WIDTH = 1 << 20
#: A value this long or longer is described by its bit length in a
#: diagnostic; ``str(int)`` refuses values past 4,300 decimal digits.
_SHOWN_BITS = 10_000
_IDENT_START = frozenset(string.ascii_letters + "_")
_PUNCT = frozenset("()[]{},;:.?=~&|^+-")

#: One match per token: blanks and comments, then the token as group 1.
#: Group 1 is a ranged keyword right before its "[", an identifier (with
#: a select right after it, if any), punctuation that starts no
#: unsupported operator, a sized literal, a number, an unsupported
#: operator, the rest of the punctuation, a stray character, or "" at the
#: end.  The first alternative that matches wins, and the common ones
#: come first; two orders must hold: a ranged keyword ahead of the
#: identifiers, and each unsupported operator ahead of the one-character
#: punctuation it starts with (``= ~ & | ^``).
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:(?://[^\n]*|/\*.*?\*/)[ \t\r\n]*)*"
    r"((?:input|output|wire)(?=\[)"
    r"|[A-Za-z_][A-Za-z0-9_$]*(?:\[[0-9]{1,9}(?::[0-9]{1,9})?\])?"
    r"|[()\[\]{},;:.?+\-]"
    r"|[0-9][0-9_]*\s*'\s*[bodhBODH][0-9a-fA-F_xXzZ?]+"
    r"|[0-9][0-9_]*"
    r"|" + "|".join(map(re.escape, _UNSUPPORTED_OPS)) +
    r"|[=~&|^]"
    r"|."
    r"|\Z)",
    re.DOTALL,
)
#: The tokens a select token is spelled with: name, "[", digits, "]",
#: and ":" and digits between for a part select.
_PIECE_RE = re.compile(r"[^\[:\]]+|.")


def _pieces(text: str, line: int, col: int) -> tuple[list, list]:
    """The tokens the select token ``text`` at ``line:col`` is spelled
    with, and their positions."""
    pieces = _PIECE_RE.findall(text)
    starts = accumulate(map(len, pieces), initial=col)
    return pieces, [(line, start) for start in islice(starts, len(pieces))]


class _Lexer:
    """Token texts of one source, and where they are.

    A token is its text; :attr:`toks`, which :meth:`tokens` returns,
    ends in "" for end of input.  A select written without blanks,
    ``name[h]`` or ``name[h:l]`` with at most 9 plain digits per index,
    is one token, decoded into :attr:`selects`.  Nodes and nets refer to
    a token by its index, which :meth:`position` turns into
    ``(line, col)`` only when a diagnostic needs one.
    """

    def __init__(self, src: str, filename: str, diags: list[ParseDiagnostic]):
        self.src = src
        self.filename = filename
        self.diags = diags
        #: sized literal text -> (value, width)
        self.literals: dict[str, tuple[int, int]] = {}
        #: select token, or a select's tokens joined -> (name, high, low)
        self.selects: dict[str, tuple[str, int, int]] = {}
        self.toks: list[str] = []
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
            for m in _TOKEN_RE.finditer(src):
                start = m.start(1)
                newlines = src.count("\n", prev, start)
                if newlines:
                    line += newlines
                    line_start = src.rfind("\n", prev, start) + 1
                self._positions.append((line, start - line_start + 1))
                prev = start
        return self._positions[index]

    def tokens(self) -> list[str]:
        texts = self.toks = _TOKEN_RE.findall(self.src)
        if len(texts) > 1 and not texts[-2]:
            texts.pop()  # trailing blanks: the end matches twice
        bad = {text: message for text in set(texts)
               if (message := self._check(text)) is not None}
        if not bad:
            return texts
        self.position(0)
        positions, self._positions = self._positions, []
        keep = self.toks = []
        for text, (line, col) in zip(texts, positions):
            message = bad.get(text)
            if message is None:
                keep.append(text)
                self._positions.append((line, col))
            elif message:
                self.diags.append(ParseDiagnostic(
                    self.filename, line, col, "error", message))
            else:
                pieces, places = _pieces(text, line, col)
                keep += pieces
                self._positions += places
        return keep

    def split(self, index: int) -> None:
        """Replace the select token at ``index`` by the tokens it is
        spelled with, for a diagnostic about what follows its name."""
        line, col = self.position(index)
        self.toks[index:index + 1], self._positions[index:index + 1] = \
            _pieces(self.toks[index], line, col)

    def _check(self, text: str) -> str | None:
        """The diagnostic for a text the parser must not see, "" for a
        select token that must lex as its pieces, or None.  Decodes a
        sized literal into :attr:`literals` and a select into
        :attr:`selects`."""
        if text[:1] in _IDENT_START:
            if text[-1] != "]":
                return None
            name, _, index = text[:-1].partition("[")
            high, _, low = index.partition(":")
            high, low = int(high), int(low or high)
            if high < low or name in KEYWORDS or name in UNSUPPORTED_KEYWORDS:
                # "reg[3:0]" and a descending range lex as they are
                # spelled, for the parser to report
                return ""
            self.selects[text] = (name, high, low)
            return None
        if text[:1] in _DIGITS:
            return self._sized(text) if "'" in text else None
        if text in _UNSUPPORTED_OPS:
            return f"unsupported operator '{text}'"
        if not text or text in _PUNCT:
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


def _decimal(digits: str) -> int:
    """``int(digits)`` for a string of decimal digits of any length:
    halves are decoded apart, so that no piece reaches the interpreter's
    4,300-digit limit on ``int(str)``, which is left as it is."""
    if len(digits) <= 4000:
        return int(digits)
    half = len(digits) // 2
    return _decimal(digits[:-half]) * 10 ** half + _decimal(digits[-half:])


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

# ``tok`` is the index of the token a node's diagnostics point at.  An
# expression is no tree but its post-order items; see :meth:`_Parser.expr`.


class AstLval(NamedTuple):
    name: str
    high: int | None  # None means the whole net
    low: int | None
    tok: int


class AstAssign(NamedTuple):
    lhs: AstLval
    rhs: list  # post-order items
    tok: int


class AstConn(NamedTuple):
    port: str | None  # None for positional
    expr: list | None  # post-order items; None for an unconnected port
    tok: int


class AstInstance(NamedTuple):
    module: str
    name: str
    conns: list[AstConn]
    tok: int


class AstPortDecl:
    """A port of the header; a body declaration fills in ``direction``
    and ``width`` when the header names the port only."""

    __slots__ = ("name", "direction", "width", "tok")

    def __init__(self, name: str, direction: str | None, width: int | None,
                 tok: int) -> None:
        self.name = name
        self.direction = direction
        self.width = width
        self.tok = tok


class AstWire(NamedTuple):
    name: str
    width: int
    tok: int


class AstModule(NamedTuple):
    name: str
    ports: list[AstPortDecl]
    wires: list[AstWire]
    assigns: list[AstAssign]
    instances: list[AstInstance]
    tok: int


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


#: Binary operator precedence, loosest first.
_BINARY_PREC = {"|": 1, "^": 2, "&": 3, "+": 4, "-": 4}
#: Prefix operator -> the kind of its operation.
_PREFIX_KIND = {"~": "not", "&": "redand", "|": "redor", "^": "redxor"}
#: What may close each kind of open bracket or conditional.
_CLOSER = {"(": ")", "{": "}", "{{": "}", "?": ":"}
#: The first characters of a name or number, the words that are neither,
#: and the tokens that end an expression that is one leaf.
_LEAF_START = _IDENT_START | _DIGITS
_RESERVED = KEYWORDS | UNSUPPORTED_KEYWORDS
_LEAF_END = frozenset(";),")


class _SyntaxAbort(Exception):
    pass


def _is_ident(text: str) -> bool:
    return text[:1] in _IDENT_START and text not in KEYWORDS


def _is_number(text: str) -> bool:
    """An unsized number; sized literals hold a "'"."""
    return text[:1] in _DIGITS and "'" not in text


class _Parser:
    def __init__(self, tokens: list[str], lexer: _Lexer):
        # The list ends in "", and no index reaches past it.
        self.toks = tokens
        self.pos = 0
        self.lexer = lexer

    def error(self, index: int, message: str) -> _SyntaxAbort:
        self.lexer.error(index, message)
        return _SyntaxAbort()

    def found(self, index: int) -> str:
        """The token at ``index`` as a diagnostic shows it; a select
        token shows its name, the first token it is spelled with."""
        text = self.toks[index]
        select = self.lexer.selects.get(text)
        return repr(select[0] if select else text or "end of input")

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
        """Consume an identifier that is not a keyword.  A select token
        is split, and its name consumed: where an identifier is wanted,
        a "[" after it is always a syntax error."""
        i = self.pos
        text = self.toks[i]
        if text in self.lexer.selects:
            self.lexer.split(i)
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
                raise self.error(i, f"expected 'module', found"
                                    f" {self.found(i)}")

    def module(self) -> AstModule:
        head = self.pos
        self.pos += 1  # "module"
        mod = AstModule(self.ident("module name"), [], [], [], [], head)
        if self.accept("("):
            last: list[tuple[str, int] | None] = [None]
            if self.toks[self.pos] != ")":
                while True:
                    self.port_decl(mod, last)
                    if not self.accept(","):
                        break
            self.expect(")")
        self.expect(";")
        # Body declarations look ports up here; the first name wins.
        decls = {p.name: p for p in reversed(mod.ports)}
        while True:
            text = self.toks[self.pos]
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
            # ANSI style: later names inherit the previous direction
            direction, width = last[0] or (None, None)
            mod.ports.append(AstPortDecl(self.ident("port name"), direction,
                                         width, i))
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
        if self.toks[i] not in self.lexer.selects:
            name = self.ident("net name")
            if self.toks[i + 1] != "[":
                return AstLval(name, None, None, i)
        return AstLval(*self.select(i, "range [{}:{}] on assignment target"),
                       i)

    def instance(self) -> AstInstance:
        i = self.pos
        module = self.ident("module name")
        name = self.ident("instance name")
        self.expect("(")
        conns: list[AstConn] = []
        if self.toks[self.pos] != ")":
            while True:
                at = self.pos
                if self.accept("."):
                    at = self.pos
                    port = self.ident("port name")
                    self.expect("(")
                    expr = None
                    if self.toks[self.pos] != ")":
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

    def expr(self) -> list:
        """Parse one expression into its items in post-order, operands
        left to right: a chain of one precedence level at once, any
        other by shunting-yard (Dijkstra, 1961).  An item is a
        token index for a leaf (a name, select or number) or a binary
        operator, or a tuple with the token index second: ``(kind,
        tok)`` for a prefix operator, ``("mux", tok, cond_tok)``,
        ``("concat", tok, n)`` or ``("replicate", tok, count)``.  Each
        syntax error is the first one recursive descent would report.
        """
        toks, selects = self.toks, self.lexer.selects
        i = self.pos
        text = toks[i]
        # A chain ``leaf (op leaf)*`` of one precedence level up to ";",
        # ")" or ",": a lone leaf, the usual expression of a per-bit
        # design, or a hand-written reduction.  Its post-order is the
        # leaves in order, each operator after its right operand.  Any
        # other token hands the expression to the loop below, from its
        # start.  Each leaf is tested first: only then is there a token
        # after it.
        if text in selects or text[:1] in _LEAF_START \
                and text not in _RESERVED:
            j = i + 1  # the token after the last leaf
            op = toks[j]
            if op in _LEAF_END:
                self.pos = j
                return [i]
            level = _BINARY_PREC.get(op)
            while level is not None:
                text = toks[j + 1]
                if not (text in selects or text[:1] in _LEAF_START
                        and text not in _RESERVED):
                    break
                j += 2
                text = toks[j]
                if text != op:  # "+" after "-" is one level
                    if _BINARY_PREC.get(text) != level:
                        break
                    op = text
            if toks[j] in _LEAF_END:
                self.pos = j
                return [i, *chain.from_iterable(
                    zip(range(i + 2, j, 2), range(i + 1, j, 2)))]
        out: list = []
        emit = out.append
        # Waiting: a binary operator's token index, a prefix operator's
        # item, or [kind, token index, n / count token / cond_tok] for an
        # open "(", "{", "{{" (replication), "?" or ":" (an else arm).
        stack: list = []
        push, pop = stack.append, stack.pop
        while True:
            # An operand: prefix operators and open brackets, then a leaf.
            while True:
                text = toks[i]
                if text in selects or text[:1] in _DIGITS:
                    emit(i)
                    i += 1
                    break
                if text[:1] in _IDENT_START and text not in KEYWORDS:
                    if text in UNSUPPORTED_KEYWORDS:
                        self.check_supported(i)
                    emit(i)
                    if toks[i + 1] == "[":
                        self.select(i, "part select [{}:{}]")
                        i = self.pos
                    else:
                        i += 1
                    break
                kind = _PREFIX_KIND.get(text)
                if kind is not None:
                    push((kind, i))
                elif text == "(":
                    push(["(", i, 0])
                elif text == "{":
                    if _is_number(toks[i + 1]) and toks[i + 2] == "{":
                        push(["{{", i, i + 1])
                        i += 2
                    else:
                        push(["{", i, 1])
                else:
                    raise self.error(
                        i, f"expected expression, found {self.found(i)}")
                i += 1
            # After an operand: apply its prefix operators, then close
            # brackets until a binary operator, "?", ":" or "," leads to
            # the next operand, or the expression ends.
            while True:
                while stack and stack[-1].__class__ is tuple:
                    emit(pop())
                text = toks[i]
                prec = _BINARY_PREC.get(text)
                if prec is not None:
                    while stack:
                        top = stack[-1]
                        if top.__class__ is not int \
                                or _BINARY_PREC[toks[top]] < prec:
                            break
                        emit(pop())
                    push(i)
                    break
                while stack and stack[-1].__class__ is int:
                    emit(pop())
                if text == "?":
                    cond = out[-1]
                    push(["?", i, cond if cond.__class__ is int
                          else cond[1]])
                    break
                while stack and stack[-1][0] == ":":
                    _, q, cond = pop()
                    emit(("mux", q, cond))
                if not stack:
                    self.pos = i
                    return out
                top = stack[-1]
                kind = top[0]
                if kind == "?" and text == ":":
                    top[0] = ":"
                    break
                if kind == "{" and text == ",":
                    top[2] += 1
                    break
                if text != _CLOSER[kind]:
                    raise self.error(i, f"expected {_CLOSER[kind]!r},"
                                        f" found {self.found(i)}")
                pop()
                if kind == "{":
                    emit(("concat", top[1], top[2]))
                elif kind == "{{":
                    i += 1
                    if toks[i] != "}":
                        raise self.error(
                            i, f"expected '}}', found {self.found(i)}")
                    at = top[2]
                    count = _decimal(toks[at].replace("_", ""))
                    if count < 1:
                        raise self.error(at,
                                         "replication count must be >= 1")
                    emit(("replicate", top[1], count))
                i += 1
            i += 1

    def select(self, i: int, what: str) -> tuple[str, int, int]:
        """The select from the name at ``i`` on, and :attr:`pos` past
        it.  One spelled over several tokens is rewritten, at ``i``, to
        their texts joined, which is decoded once.  A descending range
        is an error, ``what`` with the range filled in."""
        toks, selects = self.toks, self.lexer.selects
        select = selects.get(toks[i])
        if select is not None:
            self.pos = i + 1
            return select
        end = i + 6 if toks[i + 3:i + 4] == [":"] else i + 4
        text = "".join(toks[i:end])
        select = selects.get(text)
        if select is None:
            self.pos = i + 2
            high = low = self.bit_index()
            if self.accept(":"):
                low = self.bit_index()
                if high < low:
                    raise self.error(i + 2,
                                     "descending " + what.format(high, low))
            self.expect("]")
            select = selects[text] = (toks[i], high, low)
        toks[i] = text
        self.pos = end
        return select


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------

#: A binary operator's entry in :attr:`_Elaborator._known`.
_BINARY_KNOWN = {op: (None, None, (kind,)) for op, kind in (
    ("&", "and"), ("|", "or"), ("^", "xor"), ("+", "add"), ("-", "sub"))}


class _Code(NamedTuple):
    """An expression after its one walk: its width, each net it reads
    once, with the token of its first read, in the order of the last
    reads (the tokens of one expression ascend, so sorting by token
    gives the order of the first reads), and its nodes in post-order
    for :meth:`_Elaborator.build`.  A node is ``("net", name)``,
    ``("extract", name, low, width)``, ``("const", value, width)``,
    ``("concat", n)``, ``("replicate", count)``, or an operation kind
    (``not``, a binary, reduction or ``mux`` kind) that takes its
    operands off the value stack."""

    width: int
    deps: dict[str, int]
    nodes: list[tuple]


class _Callee(NamedTuple):
    """What each instance of one module needs of it: its port names,
    the ``in_ports`` and ``out_ports`` of an instance operation, and
    the first bit of each output port in the instance's result."""

    names: frozenset[str]
    in_ports: tuple[str, ...]
    out_ports: tuple[tuple[str, int], ...]
    offsets: dict[str, int]


class _Net:
    """A port or wire being elaborated.  ``direction`` is None for a
    wire.  A driver is ``(high, low, tag, payload)``; tag is "assign"
    (payload: its _Code) or "inst" (payload: (instance index, port
    name)).  ``driven_by`` holds each bit's driver site, and ``deps``
    caches :meth:`_Elaborator.net_deps`."""

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

    Each expression is checked in one pass over its post-order items
    when drivers are collected (:meth:`walk`); building a net replays
    the pass's nodes (:meth:`build`), so no expression depth reaches
    the stack.
    """

    def __init__(self, ast: AstModule, signatures: dict[str, list[Port]],
                 lexer: _Lexer):
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
        # token text -> (net name, width, node) of a checked leaf, or
        # (None, None, node) of a binary operator; see walk
        self._known: dict[str, tuple] = dict(_BINARY_KNOWN)
        # module name -> its _Callee, once one of its instances needs it
        self._callees: dict[str, _Callee] = {}
        self.failed = False

    def error(self, tok: int, message: str) -> None:
        self.lexer.error(tok, message)
        self.failed = True

    def callee(self, module: str) -> _Callee:
        """The facts of ``module`` that its instances need, computed on
        first use."""
        facts = self._callees.get(module)
        if facts is None:
            sig = self.signatures[module]
            in_ports, out_ports = instance_ports(sig)
            offsets: dict[str, int] = {}
            width = sum(w for _, w in out_ports)
            for name, _, _, _, start in port_slices(out_ports, 0, width):
                offsets.setdefault(name, start)
            facts = self._callees[module] = _Callee(
                frozenset(p.name for p in sig), in_ports, out_ports, offsets)
        return facts

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

    def walk(self, code: list) -> _Code | None:
        """Check the widths of an expression in one pass over its
        post-order items (see :meth:`_Parser.expr`), and record its nets
        and nodes.

        Every operand is checked even after an error, and an operator
        whose operand failed adds no error of its own, so the
        diagnostics come in source order.  Returns None after an error.
        """
        toks, known = self.lexer.toks, self._known
        nodes: list[tuple] = []
        deps: dict[str, int] = {}
        widths: list[int | None] = []  # of the finished operands
        for item in code:
            if item.__class__ is int:
                name, w, node = known.get(toks[item]) or self.operand(item)
                if w is not None or node is None:  # a leaf
                    if name is not None:  # to the end, first token kept
                        deps[name] = deps.pop(name, item)
                    widths.append(w)
                    if node is not None:
                        nodes.append(node)
                else:  # a binary operator
                    wb = widths.pop()
                    wa = widths[-1]
                    if wa is None or wb is None:
                        widths[-1] = None
                    elif wa != wb:
                        self.error(item,
                                   f"operand width mismatch: {wa} vs {wb}")
                        widths[-1] = None
                    elif wa > MAX_WIDTH and self.too_wide(item, wa):
                        widths[-1] = None
                    else:
                        nodes.append(node)
                continue
            kind, tok = item[0], item[1]
            if kind == "mux":
                wc, wa, wb = widths[-3:]
                del widths[-2:]
                widths[-1] = None
                if None in (wc, wa, wb):
                    pass
                elif wc != 1:
                    self.error(item[2],
                               f"condition must be 1 bit wide, got {wc}")
                elif wa != wb:
                    self.error(tok, f"arm width mismatch: {wa} vs {wb}")
                elif not self.too_wide(tok, wa):
                    widths[-1] = wa
                    nodes.append(("mux",))
            elif kind == "concat":
                n = item[2]
                items = widths[-n:]
                del widths[-n:]
                w = None if None in items else sum(items)
                if w is not None and self.too_wide(tok, w):
                    w = None
                widths.append(w)
                if w is not None:
                    nodes.append(("concat", n))
            elif widths[-1] is None:
                pass
            elif kind == "replicate":
                w = widths[-1] * item[2]
                widths[-1] = None if self.too_wide(tok, w) else w
                if widths[-1] is not None:
                    nodes.append(("replicate", item[2]))
            elif self.too_wide(tok, widths[-1]):  # a prefix operator
                widths[-1] = None
            else:
                nodes.append((kind,))
                if kind != "not":
                    widths[-1] = 1
        width = widths.pop()
        return None if width is None else _Code(width, deps, nodes)

    def operand(self, tok: int) -> tuple:
        """``(net name, width, node)`` of the leaf at ``tok``: the name
        is None for a literal, and the node None after an error, which
        is reported.  Leaves without an error are kept in :attr:`_known`,
        so each text is looked into once per module."""
        text = self.lexer.toks[tok]
        name, high, low = self.lexer.selects.get(text, (text, None, None))
        if text[0] in _DIGITS:
            literal = self.lexer.literals.get(text)
            if literal is None:
                self.error(tok, "unsized literal in expression position"
                                " (only valid as an index or replication"
                                " count)")
                return None, None, None
            known = (None, literal[1], ("const", *literal))
        elif (net := self.nets.get(name)) is None:
            self.error(tok, f"unknown identifier '{name}'")
            return name, None, None
        elif high is None:
            known = (name, net.width, ("net", name))
        elif high >= net.width:
            self.error(tok, f"bit {high} out of range for '{name}' of"
                            f" width {net.width}")
            return name, None, None
        else:
            known = (name, high - low + 1,
                     ("extract", name, low, high - low + 1))
        self._known[text] = known
        return known

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
        net = self.nets[name]
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
            portnames = self.callee(inst.module).names
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
        tok = conn.expr[0]  # a leaf comes first
        text = self.lexer.toks[tok]
        if len(conn.expr) != 1 or text[0] in _DIGITS:
            self.error(conn.tok,
                       "output connection must be a net or a net slice")
            return None
        name, _, node = self.operand(tok)
        if node is None:
            return None
        _, high, low = self.lexer.selects.get(text, (name, None, None))
        return AstLval(name, high, low, tok)

    # -- demand-driven net elaboration ---------------------------------------

    def codes(self, net: _Net) -> list[_Code]:
        """The expressions built into ``net``: its assigns, and the input
        connections of the instances driving it.  Nets wired to an
        instance's outputs are produced, not consumed."""
        codes: list[_Code] = []
        for _, _, tag, payload in net.drivers:
            if tag == "assign":
                codes.append(payload)
            else:
                codes += self._inputs[payload[0]].values()
        return codes

    def net_deps(self, net: _Net) -> list[str]:
        """Nets whose values are needed before this one can be built,
        each once, in the order of their last reads: the order in which
        a stack holding every read would have them built."""
        if net.deps is None:
            names: list[str] = []
            for code in self.codes(net):
                names += code.deps
            net.deps = list(dict.fromkeys(reversed(names)))[::-1]
        return net.deps

    class _Abort(Exception):
        pass

    def demand_net(self, name: str) -> ValueRef:
        """Iterative dependency-first elaboration, so arbitrarily long
        net chains do not recurse.  Every name demanded is known: an
        output port, a dep of an expression that walked without error,
        or an output connection that :meth:`operand` resolved."""
        stack = [name]
        while stack:
            n = stack[-1]
            state = self.net_state.get(n)
            if state == 2:
                stack.pop()
                continue
            net = self.nets[n]
            if net.direction == "input":
                self.net_values[n] = self.builder.input_ref(n, net.width)
                self.net_state[n] = 2
                stack.pop()
                continue
            state_of = self.net_state.get
            pending = [dep for dep in self.net_deps(net)
                       if state_of(dep) != 2]
            if 1 in map(state_of, pending):
                # a cycle, reported at the first read of a net in progress
                for code in self.codes(net):
                    deps = code.deps
                    for dep in sorted(deps, key=deps.__getitem__):
                        if state_of(dep) == 1:
                            self.error(deps[dep], "combinational cycle"
                                                  f" through net '{dep}'")
                            raise self._Abort()
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
                offset = self.callee(
                    self.ast.instances[idx].module).offsets[portname]
                parts.append(self.builder.extract(
                    self.materialize_instance(idx), offset, high - low + 1))
        return self.builder.concat(list(reversed(parts)))

    def materialize_instance(self, idx: int) -> ValueRef:
        if idx in self.inst_values:
            return self.inst_values[idx]
        inst = self.ast.instances[idx]
        operands = [self.build(code) for code in self._inputs[idx].values()]
        facts = self.callee(inst.module)
        value = self.builder.instance(inst.module, inst.name, operands,
                                      facts.in_ports, facts.out_ports)
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
                    outputs[p.name] = self.demand_net(p.name)
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
                    # an output connection is a net or a slice of one,
                    # known since conn_lvalue
                    deps = sorted(code.deps, key=code.deps.__getitem__) \
                        if code is not None else \
                        [self._known[self.lexer.toks[e[0]]][0]]
                    for dep in deps:
                        self.demand_net(dep)
                self.materialize_instance(idx)
        except self._Abort:
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


def parse_design(src: str, filename: str = "<input>") -> HwDesign:
    """Parse and elaborate Verilog source into a design.

    The last module in the file becomes the top unless exactly one
    module is never instantiated, in which case that one does.  Raises
    :class:`ParseError` carrying all diagnostics on any lexical,
    syntactic, or elaboration failure.
    """
    diags: list[ParseDiagnostic] = []
    lexer = _Lexer(src, filename, diags)
    # Parse even after lexical errors: unsupported constructs read
    # better as "unsupported construct 'always'" than as a complaint
    # about the first strange character.
    parser = _Parser(lexer.tokens(), lexer)
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
            lexer.error(mod.tok, f"duplicate module '{mod.name}'")
            continue
        signatures[mod.name] = [Port(p.name, p.direction, p.width)
                                for p in mod.ports if p.direction is not None]
        order.append(mod)
    if diags:
        raise ParseError(diags)

    modules: dict[str, HwModule] = {}
    for mod in order:
        built = _Elaborator(mod, signatures, lexer).run()
        if built is not None:
            modules[mod.name] = built
    if diags:
        raise ParseError(diags)
    if not modules:
        raise ParseError([
            ParseDiagnostic(filename, 1, 1, "error", "no modules found")
        ])

    instantiated = {inst.module for mod in order for inst in mod.instances}
    roots = [name for name in modules if name not in instantiated]
    top = roots[0] if len(roots) == 1 else list(modules)[-1]
    design = HwDesign(modules, top)
    _, cycles = instantiation_order(design)
    if cycles:
        raise ParseError([
            ParseDiagnostic(filename, 1, 1, "error", p) for p in cycles
        ])
    return design
