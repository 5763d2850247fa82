"""From-scratch references that the program is tested against.

The token-at-a-time lexer (``Token``, ``_Lexer``) is the specification
of ``frontend._Lexer``: the same token texts, in order, and the same
lexical diagnostics, each with its ``line:col``.

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
from dataclasses import dataclass

from busweaver.cones import ConeShape, LogicCone, family_shape, lane_steps
from busweaver.frontend import KEYWORDS, ParseDiagnostic
from busweaver.ir import HwModule, ValueRef, route_bit


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
