"""The ``findall`` lexer against the token-at-a-time reference lexer.

Once each select token is read as the tokens it is spelled with, both
must give the same token texts in order, the same ``line:col`` for
every token, the same sized-literal values and widths, and the same
lexical diagnostics.
"""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import corpus_digest
import generators
import reference
from busweaver.frontend import (
    KEYWORDS,
    UNSUPPORTED_KEYWORDS,
    _TOKEN_RE,
    _UNSUPPORTED_OPS,
    _Lexer,
    parse_design,
)


def _reference_lex(src):
    diags = []
    tokens = reference._Lexer(src, "f.v", diags).tokens()
    texts = [t.text for t in tokens]
    positions = [(t.line, t.col) for t in tokens]
    literals = {t.text: (t.value, t.width)
                for t in tokens if t.kind == "sized"}
    return texts, positions, literals, [str(d) for d in diags]


def _lex(src):
    """The token texts, each select token read as the 4 or 6 tokens it
    is spelled with, their positions, the literals and the messages."""
    diags = []
    lexer = _Lexer(src, "f.v", diags)
    texts, positions = [], []
    for i, text in enumerate(lexer.tokens()):
        line, col = lexer.position(i)
        pieces = [text]
        if text in lexer.selects:
            pieces = re.split(r"([\[:\]])", text)[:-1]
            name, high, low = lexer.selects[text]
            assert pieces[:3] == [name, "[", pieces[2]]
            assert (int(pieces[2]), int(pieces[-2])) == (high, low)
        for piece in pieces:
            texts.append(piece)
            positions.append((line, col))
            col += len(piece)
    messages = [str(d) for d in diags]
    literals = {t: lexer.literals[t] for t in texts if t in lexer.literals}
    return texts, positions, literals, messages


def _assert_same(src):
    assert _lex(src) == _reference_lex(src), repr(src)


def test_golden_sources(golden_dir):
    paths = sorted(golden_dir.glob("*.v"))
    assert paths
    for path in paths:
        _assert_same(path.read_text())


_FAMILIES = [
    generators.permutation_design(24, 3),
    generators.replicated_cone_design(8, 3, 5),
    generators.replicated_cone_design(6, 4, 9, invariant_slots=False),
    generators.ripple_carry_design(12),
    generators.nested_instance_design(6, 3),
    generators.scaling_design(300),
]


@pytest.mark.parametrize("src", _FAMILIES)
def test_generator_families(src):
    _assert_same(src)


@pytest.mark.parametrize("src", _FAMILIES)
def test_generator_families_lex_to_no_more_tokens(src):
    tokens = _Lexer(src, "f.v", []).tokens()
    assert len(tokens) <= len(reference._Lexer(src, "f.v", []).tokens())


def test_a_chain_lexes_to_two_tokens_per_term():
    """Each ``a[k]`` of a chain is one token: T terms lex to 2T tokens
    and a fixed few for the rest of the module."""
    rest = set()
    for terms in (10, 1000):
        chain = " ^ ".join(f"a[{k % 16}]" for k in range(terms))
        tokens = _Lexer(f"module red(input [15:0] a, output y);\n"
                        f"  assign y = {chain};\nendmodule\n", "f.v",
                        []).tokens()
        rest.add(len(tokens) - 2 * terms)
    assert len(rest) == 1 and rest.pop() < 25


_PUNCT = list("()[]{},;:.?=~&|^+-")
_STRAY = ["@", "$", "#", "!", "<", ">", "*", "/", "\\", "`", '"', "%",
          "\x00", "\f", "\v", "\u00a0", "é", "λ", "٣", "\u2028"]
_BLANKS = [" ", "  ", "\t", "\n", "\r\n", "\n\n", " \t\r\n "]
_IDENTS = sorted(KEYWORDS | UNSUPPORTED_KEYWORDS) + [
    "a", "b_2", "_x", "net$1", "A9", "Zz_$"]


def _sized(rng):
    width = rng.choice(["0", "1", "4", "8", "1_6", "33", "00", "3"])
    base = rng.choice("bodhBODH")
    alphabet = {"b": "01", "o": "01234567", "d": "0123456789",
                "h": "0123456789abcdefABCDEF"}[base.lower()]
    digits = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
    roll = rng.random()
    if roll < 0.15:
        digits = digits[:-1] + rng.choice("xXzZ?")
    elif roll < 0.25:
        digits = "_" + digits + "_"
    elif roll < 0.3:
        digits = "_"
    elif roll < 0.35:
        digits += rng.choice("abcdef")  # malformed below base 16
    before = rng.choice(["", "", " ", "\n", "\t", "\r\n "])
    after = rng.choice(["", "", " ", "\n"])
    return f"{width}{before}'{after}{base}{digits}"


def _piece(rng):
    roll = rng.random()
    if roll < 0.25:
        return rng.choice(_IDENTS)
    if roll < 0.35:
        return str(rng.randrange(1000)) + rng.choice(["", "_", "_0"])
    if roll < 0.5:
        return _sized(rng)
    if roll < 0.65:
        return rng.choice(_PUNCT)
    if roll < 0.72:
        return rng.choice(_UNSUPPORTED_OPS)
    if roll < 0.8:
        return rng.choice(_STRAY)
    if roll < 0.87:
        return "//" + rng.choice(["", " note */", " a\tb", " é"]) + \
            rng.choice(["\n", "\r\n", ""])
    if roll < 0.95:
        return "/*" + rng.choice(["", " x ", "\n", " a\r\n b ", "*", "/*"]) \
            + "*/"
    if roll < 0.97:
        return "/* never closed " + rng.choice(["", "\n", "* /"])
    return rng.choice(_BLANKS)


def _select(rng):
    """A select, now and then spelled with blanks, a comment, an
    underscore, ten digits, a keyword name or a descending range."""
    def index():
        return rng.choice(["0", "3", "12", "007", "123456789", "1234567890",
                           "1_0", "x", ""])

    name = rng.choice(["a", "b_2", "net$1", "wire", "input", "reg", "Zz_$"])
    inner = index() if rng.random() < 0.5 else f"{index()}:{index()}"
    parts = [name, "[", inner, "]"]
    if rng.random() < 0.3:
        k = rng.randrange(1, 4)
        parts.insert(k, rng.choice([" ", "/*c*/", "\n", "// x\n"]))
    return "".join(parts)


def test_random_select_soup():
    rng = random.Random(12)
    for _ in range(400):
        parts = []
        for _ in range(rng.randint(0, 20)):
            parts.append(_select(rng) if rng.random() < 0.6 else _piece(rng))
            parts.append(rng.choice(_BLANKS + ["", "", ""]))
        _assert_same("".join(parts))


def test_random_token_soup():
    rng = random.Random(10)
    for _ in range(400):
        parts = []
        for _ in range(rng.randint(0, 40)):
            parts.append(_piece(rng))
            parts.append(rng.choice(_BLANKS + ["", "", ""]))
        _assert_same("".join(parts))


#: Where the alternatives of the token pattern can compete or run on.
_CONTESTED = [" ", "\t", "\n", "\r\n", "//", "/*", "*/", "*", "/", "'",
              " '", "' ", " ' ", "$", "_", "input[", "output[", "wire[", "[",
              "]", ":", "8", "1_0", *_UNSUPPORTED_OPS, *_PUNCT, *_STRAY[:8]]


def _matches(pattern, src):
    return [(m.span(), m.group(1)) for m in pattern.finditer(src)]


def test_the_token_pattern_matches_its_first_order(golden_dir):
    """The frontend's pattern puts the common alternatives first; it
    must match what its first order matches, text and place, on the
    goldens, the benchmark's smoke corpora and random soups."""
    sources = [path.read_text() for path in sorted(golden_dir.glob("*.v"))]
    sources += [case.source for workload in corpus_digest.corpus.WORKLOADS
                for case in corpus_digest.corpus.build(workload, 5,
                                                        smoke=True)]
    rng = random.Random(27)
    for _ in range(20_000):
        parts = []
        for _ in range(rng.randint(0, 12)):
            roll = rng.random()
            parts.append(rng.choice(_CONTESTED) if roll < 0.4
                         else _sized(rng) if roll < 0.55
                         else _select(rng) if roll < 0.7 else _piece(rng))
        sources.append("".join(parts))
    for src in sources:
        assert _matches(_TOKEN_RE, src) == \
            _matches(reference._SELECT_FINDALL_RE, src), repr(src)


@pytest.mark.parametrize("src", [
    "",
    "   \n\t ",
    "// only a comment",
    "/* only a comment */\n",
    "/*",
    "4\n'b1 0'b1 2'd9 1'bx 8'hFF 8'h1FF 3'o7 16'd65536 4'b1_0_1_0 2'b__",
    "a\r\n\tb\r\n\t\tc",
    "input[7:0] a[7:0] a[3] a[0:1] reg[3:0] wire[3] endmodule[0]\n\ta[12]",
    "@ $ é\n\u00a0λ",
])
def test_edge_cases(src):
    _assert_same(src)


def test_a_clean_parse_never_looks_up_a_position(golden_dir, monkeypatch):
    def fail(self, index):
        raise AssertionError("position looked up without a diagnostic")

    monkeypatch.setattr(_Lexer, "position", fail)
    parse_design((golden_dir / "partial_mix.v").read_text())
    parse_design(generators.nested_instance_design(4, 2))
    parse_design("module m(input[3:0] a, output[1:0] y);\n"
                 "  wire[1:0] w;\n  assign w = a[3:2];\n"
                 "  assign y = w;\nendmodule\n")


def test_huge_literal_width_is_a_width_mismatch():
    """A sized literal's range check must not build ``1 << width``.  The
    child caps its own address space, so a regression fails quickly."""
    pytest.importorskip("resource")
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from busweaver.frontend import ParseError, parse_design\n"
        "try:\n"
        "    parse_design('module m(input a, output y);\\n'\n"
        "                 \"  assign y = 40000000000'b1;\\nendmodule\")\n"
        "except ParseError as e:\n"
        "    print(e)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == (
        "<input>:2:3: error: assignment width mismatch: 'y' expects 1,"
        " got 40000000000"
    )


def _literal_diagnostics(text):
    diags = []
    lexer = _Lexer(text, "f.v", diags)
    lexer.tokens()
    return lexer.literals, [str(d) for d in diags]


def test_a_value_past_the_int_str_limit_is_described_by_its_length():
    """``str(int)`` refuses values past 4,300 decimal digits; 4,000 hex
    digits make about 4,800."""
    literals, messages = _literal_diagnostics("x = 1'h" + "F" * 4000)
    assert literals == {}
    assert messages == [
        "f.v:1:5: error: literal value of 16000 bits does not fit in 1 bit"]


def test_decimal_literals_past_the_int_str_limit_decode():
    """``int(str)`` refuses more than 4,300 decimal digits; a longer
    literal is decoded, or does not fit."""
    ones = "1" + "0" * 4999
    nines = "9" * 5000
    literals, messages = _literal_diagnostics(
        f"16607'd{ones} 16610'd{nines} 16'd{nines}")
    # compared as booleans: pytest would print the values with str()
    assert set(literals) == {f"16607'd{ones}", f"16610'd{nines}"}
    assert literals[f"16607'd{ones}"] == (10 ** 4999, 16607)
    assert literals[f"16610'd{nines}"] == (10 ** 5000 - 1, 16610)
    assert messages == [
        "f.v:1:10017: error: literal value of 16610 bits does not fit in"
        " 16 bits"]
    _, messages = _literal_diagnostics(f"9'd{nines}a")
    assert messages == [f"f.v:1:1: error: malformed literal '9'd{nines}a'"]
