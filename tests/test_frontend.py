import random

import pytest

from busweaver.frontend import (
    ParseError,
    _Lexer,
    _Parser,
    parse_design,
)
from busweaver.ir import count_instructions, simulate, verify


def _errors(src):
    with pytest.raises(ParseError) as info:
        parse_design(src)
    return [str(d) for d in info.value.diagnostics]


def test_diagnostic_format_is_file_line_col():
    msgs = _errors("module m(input a, output y);\n  assign y = ;\nendmodule")
    assert msgs[0].startswith("<input>:2:14: error: ")


def test_a_source_without_modules_is_a_diagnostic():
    assert _errors("") == ["<input>:1:1: error: no modules found"]


@pytest.mark.parametrize("read", [True, False])
def test_an_unconnected_output_port_is_left_out(read):
    # an instance whose outputs nothing reads is built after the
    # module's outputs, and skips its unconnected port there too
    d = parse_design(
        "module pair(input a, output y, output z);\n"
        "  assign y = a;\n"
        "  assign z = ~a;\n"
        "endmodule\n"
        "module top(input a, output o);\n"
        "  wire w;\n"
        "  pair u(.a(a), .y(), .z(w));\n"
        f"  assign o = {'w' if read else 'a'};\n"
        "endmodule\n"
    )
    (inst,) = [op for op in d.top_module.operations
               if op.kind == "instance"]
    assert inst.in_ports == ("a",)
    assert simulate(d.top_module, {"a": 1}, d) == {"o": 0 if read else 1}


def test_ansi_ports_inherit_direction():
    d = parse_design(
        "module m(input [2:0] a, b, output y);"
        " assign y = a[0] & b[1]; endmodule"
    )
    ports = [(p.name, p.direction, p.width) for p in d.top_module.ports]
    assert ports == [
        ("a", "input", 3), ("b", "input", 3), ("y", "output", 1)
    ]


def test_non_ansi_port_directions():
    d = parse_design(
        "module m(a, y);\n"
        "  input [1:0] a;\n"
        "  output y;\n"
        "  assign y = a[0] ^ a[1];\n"
        "endmodule"
    )
    assert [p.direction for p in d.top_module.ports] == ["input", "output"]
    assert simulate(d.top_module, {"a": 0b10}) == {"y": 1}


def test_per_bit_assigns_merge_into_one_driver():
    d = parse_design(
        "module m(input [1:0] a, output [1:0] y);\n"
        "  assign y[0] = a[1];\n"
        "  assign y[1] = a[0];\n"
        "endmodule"
    )
    m = d.top_module
    assert verify(d) == []
    assert simulate(m, {"a": 0b01}) == {"y": 0b10}
    assert simulate(m, {"a": 0b10}) == {"y": 0b01}


def test_part_select_lvalue_and_wire_range():
    d = parse_design(
        "module m(input [3:0] a, output [3:0] y);\n"
        "  wire [1:0] t;\n"
        "  assign t = a[3:2];\n"
        "  assign y[1:0] = t;\n"
        "  assign y[3:2] = a[1:0];\n"
        "endmodule"
    )
    assert simulate(d.top_module, {"a": 0b0111}) == {"y": 0b1101}


def test_operators_and_precedence():
    d = parse_design(
        "module m(input [3:0] a, input [3:0] b, output [3:0] y,"
        " output r);\n"
        "  assign y = ~a & b | a ^ b;\n"
        "  assign r = &a | ^b;\n"
        "endmodule"
    )
    m = d.top_module
    for a in range(16):
        for b in range(16):
            got = simulate(m, {"a": a, "b": b})
            assert got["y"] == ((~a & 15) & b) | (a ^ b)
            want_r = int(a == 15 or bin(b).count("1") % 2 == 1)
            assert got["r"] == want_r


def test_literals_and_replication():
    d = parse_design(
        "module m(input a, output [5:0] y);\n"
        "  assign y = {2'b10, {3{a}}, 1'b1};\n"
        "endmodule"
    )
    assert simulate(d.top_module, {"a": 1}) == {"y": 0b101111}
    assert simulate(d.top_module, {"a": 0}) == {"y": 0b100001}


def test_ternary_requires_one_bit_condition():
    msgs = _errors(
        "module m(input [1:0] c, input a, input b, output y);\n"
        "  assign y = c ? a : b;\n"
        "endmodule"
    )
    assert any("condition" in m for m in msgs)


def test_named_and_positional_instances_agree():
    shared = (
        "module inv2(input [1:0] p, output [1:0] q);\n"
        "  assign q = ~p;\n"
        "endmodule\n"
    )
    named = parse_design(
        shared
        + "module m(input [1:0] a, output [1:0] y);\n"
          "  inv2 u0(.p(a), .q(y));\n"
          "endmodule"
    )
    positional = parse_design(
        shared
        + "module m(input [1:0] a, output [1:0] y);\n"
          "  inv2 u0(a, y);\n"
          "endmodule"
    )
    for d in (named, positional):
        assert d.top == "m"
        assert simulate(d.modules["m"], {"a": 0b01}, d) == {"y": 0b10}


def test_top_is_the_uninstantiated_module():
    d = parse_design(
        "module leaf(input a, output y);\n"
        "  assign y = ~a;\n"
        "endmodule\n"
        "module root(input a, output y);\n"
        "  leaf u(.a(a), .y(y));\n"
        "endmodule"
    )
    assert d.top == "root"


def test_instance_output_feeding_logic():
    d = parse_design(
        "module half(input x, input y, output s, output c);\n"
        "  assign s = x ^ y;\n"
        "  assign c = x & y;\n"
        "endmodule\n"
        "module m(input p, input q, output [1:0] r);\n"
        "  wire s;\n"
        "  wire c;\n"
        "  half u(.x(p), .y(q), .s(s), .c(c));\n"
        "  assign r = {c, s};\n"
        "endmodule"
    )
    for p in (0, 1):
        for q in (0, 1):
            assert simulate(d.modules["m"], {"p": p, "q": q}, d) == {
                "r": (p + q)
            }


def test_unused_wire_cone_is_dropped():
    d = parse_design(
        "module m(input [1:0] a, output y);\n"
        "  wire dead;\n"
        "  assign dead = a[0] & a[1];\n"
        "  assign y = a[0];\n"
        "endmodule"
    )
    assert count_instructions(d.top_module) == 1  # just the bit select


@pytest.mark.parametrize(
    "src, fragment",
    [
        ("module m(input a, output y); assign y = b; endmodule",
         "unknown identifier 'b'"),
        ("module m(input a, output y); assign y = a; assign y = a;"
         " endmodule",
         "multiple drivers for 'y[0]'"),
        ("module m(input a, output [1:0] y); assign y[0] = a; endmodule",
         "bit 1 is never driven"),
        ("module m(input a, output y); assign a = 1'b0;"
         " assign y = a; endmodule",
         "assignment to input port 'a'"),
        ("module m(input a, output y); wire w; assign w = ~w;"
         " assign y = w; endmodule",
         "combinational cycle through net 'w'"),
        ("module m(input [1:0] a, output y); assign y = a; endmodule",
         "width mismatch"),
        ("module m(input a, output y); assign y = 1'b1 & 2'd3;"
         " endmodule",
         "operand width mismatch: 1 vs 2"),
        ("module m(input a, output y); assign y = 2; endmodule",
         "unsized literal"),
        ("module m(input a, output y); assign y = 1'bx; endmodule",
         "four-state literals"),
        ("module m(input a, output y); assign y = 1'd5; endmodule",
         "does not fit in 1 bit"),
        ("module m(input a, input a, output y); assign y = a;"
         " endmodule",
         "duplicate port 'a'"),
        ("module m(input a, output y); foo u(.x(a), .z(y)); endmodule",
         "unknown module 'foo'"),
        ("module m(input a, output y); always @(posedge a) y = a;"
         " endmodule",
         "unsupported construct 'always'"),
        ("module m(input a, output reg y); assign y = a; endmodule",
         "unsupported construct 'reg'"),
        ("module m(input a, output y); assign y = a == a; endmodule",
         "unsupported operator '=='"),
        ("module m(input [3:0] a, output y); assign y = a[0:3];"
         " endmodule",
         "descending"),
    ],
)
def test_rejections(src, fragment):
    msgs = _errors(src)
    assert any(fragment in m for m in msgs), msgs


def test_instance_cycle_is_reported():
    msgs = _errors(
        "module p(input a, output y);\n"
        "  q u(.a(a), .y(y));\n"
        "endmodule\n"
        "module q(input a, output y);\n"
        "  p u(.a(a), .y(y));\n"
        "endmodule"
    )
    assert any("cycle" in m for m in msgs)


def test_instance_cycle_diagnostic_is_exact():
    assert _errors(
        "module p(input a, output y);\n"
        "  q u(.a(a), .y(y));\n"
        "endmodule\n"
        "module q(input a, output y);\n"
        "  p u(.a(a), .y(y));\n"
        "endmodule"
    ) == ["<input>:1:1: error: instantiation cycle: p -> q -> p"]


@pytest.mark.parametrize(
    "body, expected",
    [
        ("module m(a, a, y);\n  input a;\n  output y;\n",
         "<input>:1:13: error: port 'a' has no direction declaration"),
        ("module m(a, y);\n  input a, a;\n  output y;\n",
         "<input>:2:12: error: port 'a' declared twice"),
        ("module m(a, y);\n  input a;\n  output y, z;\n",
         "<input>:3:13: error: 'z' is not in the port list"),
    ],
)
def test_non_ansi_declaration_diagnostics(body, expected):
    assert _errors(body + "  assign y = a;\nendmodule") == [expected]


def test_comments_are_ignored():
    d = parse_design(
        "// leading\n"
        "module m(input a, output y); /* inline */\n"
        "  assign y = ~a; // trailing\n"
        "endmodule\n"
    )
    assert simulate(d.top_module, {"a": 0}) == {"y": 1}


# -- lexer positions and parser shape -------------------------------------


@pytest.mark.parametrize(
    "src, expected",
    [
        # a block comment spanning lines
        ("module m(input a, output y);\n/* a\n  b */ assign y = ;\n"
         "endmodule",
         ["<input>:3:19: error: expected expression, found ';'"]),
        # a line comment at end of file with no newline
        ("module m(input a, output y); assign y = a;\n// end",
         ["<input>:2:7: error: missing 'endmodule'"]),
        # CRLF line ends and tabs: one column per character
        ("module m(input a,\r\n\toutput y);\r\n\t\tassign y = 1'd5 == a;"
         "\r\nendmodule\r\n",
         ["<input>:3:14: error: literal value 5 does not fit in 1 bit",
          "<input>:3:19: error: unsupported operator '=='"]),
        # a sized literal split across a newline
        ("module m(input a, output [3:0] y);\n  assign y = 4\n'd99 & @;\n"
         "endmodule",
         ["<input>:2:14: error: literal value 99 does not fit in 4 bits",
          "<input>:3:8: error: unexpected character '@'",
          "<input>:3:9: error: expected expression, found ';'"]),
        ("module m(input [3:0] a, output [3:0] y);\n  assign y = 4\n"
         "  'b1 & a; assign z = a;\nendmodule",
         ["<input>:3:19: error: unknown identifier 'z'"]),
        # an unterminated block comment
        ("module m(input a, output y);\n  assign y = a; /* never\n closed\n"
         "endmodule",
         ["<input>:2:17: error: unexpected character '/'",
          "<input>:2:18: error: unexpected character '*'",
          "<input>:4:1: error: expected '(', found 'endmodule'"]),
        ("module m(input a, output y);\n  assign y = a && a;\nendmodule",
         ["<input>:2:16: error: unsupported operator '&&'",
          "<input>:2:19: error: expected ';', found 'a'"]),
        ("module m(input [1:0] a, output y);\n  assign y = ~&a;\nendmodule",
         ["<input>:2:14: error: unsupported operator '~&'"]),
        # end of input after trailing blanks
        ("module m(input a, output y);\n  assign y = a;\n  \n\t  ",
         ["<input>:4:4: error: missing 'endmodule'"]),
        # elaboration: each message looks its position up by token index
        ("module m(input a, output y);\n"
         "  assign y = a &\n"
         "    b;\n"
         "endmodule",
         ["<input>:3:5: error: unknown identifier 'b'"]),
        ("module m(input a, output y);\n"
         "  assign y = a;\n"
         "  assign y = ~a;\n"
         "endmodule",
         ["<input>:3:10: error: multiple drivers for 'y[0]'"]),
        ("module m(input a, output [1:0] y);\n"
         "  assign y[0] = a;\n"
         "endmodule",
         ["<input>:1:32: error: output port 'y' bit 1 is never driven"]),
        ("module m(input a, output y);\n"
         "  assign a = 1'b0;\n"
         "  assign y = a;\n"
         "endmodule",
         ["<input>:2:10: error: assignment to input port 'a'"]),
        ("module m(input a, output y);\n"
         "  wire w;\n"
         "  assign w = ~w;\n"
         "  assign y = w;\n"
         "endmodule",
         ["<input>:3:15: error: combinational cycle through net 'w'"]),
        ("module m(input [1:0] a, output y);\n"
         "  assign y = a;\n"
         "endmodule",
         ["<input>:2:3: error: assignment width mismatch: 'y' expects 1,"
          " got 2"]),
        ("module m(input a, output y);\n"
         "  assign y = 1'b1 &\n"
         " 2'd3;\n"
         "endmodule",
         ["<input>:2:19: error: operand width mismatch: 1 vs 2"]),
        ("module m(input a, output y);\n"
         "  assign y = 2;\n"
         "endmodule",
         ["<input>:2:14: error: unsized literal in expression position"
          " (only valid as an index or replication count)"]),
        ("module m(input a,\n"
         "  input a, output y);\n"
         "  assign y = a;\n"
         "endmodule",
         ["<input>:2:9: error: duplicate port 'a'"]),
        ("module m(input a, output y);\n"
         "  foo u(.x(a), .z(y));\n"
         "endmodule",
         ["<input>:2:3: error: unknown module 'foo'"]),
        ("module n(input a, output y);\n"
         "  assign y = a;\n"
         "endmodule\n"
         "module m(input a, output y);\n"
         "  n u(.a(a), y);\n"
         "endmodule",
         ["<input>:5:3: error: cannot mix named and positional connections"]),
        ("module n(input a, output y);\n"
         "  assign y = a;\n"
         "endmodule\n"
         "module m(input a, output y);\n"
         "  n u(a, y, a);\n"
         "endmodule",
         ["<input>:5:3: error: too many connections for 'n' (3 for 2 ports)"]),
        ("module n(input a, output y);\n"
         "  assign y = a;\n"
         "endmodule\n"
         "module m(input a, output y);\n"
         "  n u(.a(a),\n"
         "    .q(y));\n"
         "endmodule",
         ["<input>:6:6: error: 'n' has no port 'q'"]),
        ("module n(input a, output y);\n"
         "  assign y = a;\n"
         "endmodule\n"
         "module m(input a, output y);\n"
         "  n u(.a(a), .y(y),\n"
         "     .a(a));\n"
         "endmodule",
         ["<input>:6:7: error: port 'a' connected twice"]),
        ("module n(input a, output y);\n"
         "  assign y = a;\n"
         "endmodule\n"
         "module m(input a, output y);\n"
         "  wire w;\n"
         "  assign y = w;\n"
         "  n u(.a(a), .y(~w));\n"
         "endmodule",
         ["<input>:7:15: error: output connection must be a net or a net"
          " slice"]),
        ("module n(input a, output y);\n"
         "  assign y = a;\n"
         "endmodule\n"
         "  module n(input a, output y);\n"
         "  assign y = ~a;\n"
         "endmodule",
         ["<input>:4:3: error: duplicate module 'n'"]),
        ("module m(input [1:0] c, input a, output y);\n"
         "  assign y = c\n"
         "    ? a : a;\n"
         "endmodule",
         ["<input>:2:14: error: condition must be 1 bit wide, got 2"]),
        ("module m(input c, input a, input [1:0] b, output y);\n"
         "  assign y = c ?\n"
         " a : b;\n"
         "endmodule",
         ["<input>:2:16: error: arm width mismatch: 1 vs 2"]),
        ("module n(input [1:0] a, output y);\n"
         "  assign y = a[0];\n"
         "endmodule\n"
         "module m(input a, output y);\n"
         "  n u(.a(a),\n"
         "    .y(y));\n"
         "endmodule",
         ["<input>:5:8: error: connection width mismatch on 'a': port is 2,"
          " expression is 1"]),
        ("module n(input [1:0] a, output y);\n"
         "  assign y = a[0];\n"
         "endmodule\n"
         "module m(input [1:0] a, output [1:0] y);\n"
         "  assign y[1] = a[0];\n"
         "  n u(.a(a), .y(y));\n"
         "endmodule",
         ["<input>:6:15: error: connection width mismatch on 'y': port is"
          " 1, target is 2"]),
        ("module m(input [1:0] a, output y);\n"
         "  assign y = a[2];\n"
         "endmodule",
         ["<input>:2:14: error: bit 2 out of range for 'a' of width 2"]),
        ("module m(input [1:0] a, output y);\n"
         "  assign y[1] = a[0];\n"
         "endmodule",
         ["<input>:2:10: error: bit 1 out of range for 'y' of width 1"]),
        ("module n(input [1:0] a, output y);\n"
         "  assign y = a[0];\n"
         "endmodule\n"
         "module m(input a, output y);\n"
         "  n u(.y(y));\n"
         "endmodule",
         ["<input>:5:3: error: input port 'a' of 'n' is not connected"]),
        ("module m(input a, output y);\n"
         "  wire a;\n"
         "  assign y = a;\n"
         "endmodule",
         ["<input>:2:8: error: 'a' is already declared"]),
        ("module m(input [1:0] a, output y);\n"
         "  assign y = {0{a}};\n"
         "endmodule",
         ["<input>:2:15: error: replication count must be >= 1"]),
        ("module m(input [3:1] a, output y);\n"
         "  assign y = a;\n"
         "endmodule",
         ["<input>:1:19: error: declaration ranges must end at 0, found"
          " [3:1]"]),
        # what may follow an operand depends on the innermost bracket
        ("module m(input [1:0] a, input [3:0] b, output [3:0] y);\n"
         "  assign y = {2{a} ^ b};\n"
         "endmodule",
         ["<input>:2:20: error: expected '}', found '^'"]),
        ("module m(input a, input b, output y);\n"
         "  assign y = (a : b);\n"
         "endmodule",
         ["<input>:2:17: error: expected ')', found ':'"]),
        ("module m(input a, input b, output y);\n"
         "  assign y = a ? b , a;\n"
         "endmodule",
         ["<input>:2:20: error: expected ':', found ','"]),
        ("module m(input a, input b, output [1:0] y);\n"
         "  assign y = {2{a, b}};\n"
         "endmodule",
         ["<input>:2:18: error: expected '}', found ','"]),
        ("module m(input a, 5);\nendmodule",
         ["<input>:1:19: error: expected port, found '5'"]),
        ("module m(input a, output y);\n  5;\nendmodule",
         ["<input>:2:3: error: expected statement, found '5'"]),
        ("module m(input a, output y);\n"
         "  assign y = a & reg;\n"
         "endmodule",
         ["<input>:2:18: error: unsupported construct 'reg' (only flat"
          " combinational modules are supported)"]),
        # the operands fit the width limit, so the `&` reports it
        ("module m(output y);\n"
         "  assign y = ^(2000000'd0 & 2000000'd1);\n"
         "endmodule",
         ["<input>:2:27: error: expression width 2000000 exceeds the limit"
          " of 1048576 bits"]),
        ("module m(input s, input a, output y);\n"
         "  assign y = s ? zz : a;\n"
         "endmodule",
         ["<input>:2:18: error: unknown identifier 'zz'"]),
        ("module m(input [1048575:0] w, output y);\n"
         "  assign y = ^{w, w};\n"
         "endmodule",
         ["<input>:2:15: error: expression width 2097152 exceeds the limit"
          " of 1048576 bits"]),
        ("module n(input a, output y);\n"
         "  assign y = a;\n"
         "endmodule\n"
         "module m(input a, output y);\n"
         "  n u(.a(a), .y(nope));\n"
         "  assign y = a;\n"
         "endmodule",
         ["<input>:5:17: error: unknown identifier 'nope'"]),
    ],
)
def test_exact_diagnostic_positions(src, expected):
    assert _errors(src) == expected


def _expr_ast(text):
    diags = []
    lexer = _Lexer(text, "<input>", diags)
    parser = _Parser(lexer.tokens(), lexer)
    code = parser.expr()
    assert diags == [] and parser.toks[parser.pos] == ""
    return code, lexer


def _shape(code, lexer):
    """An s-expression with each operator's column, rebuilt from the
    post-order items of an expression over names."""
    toks = lexer.toks
    stack = []
    for item in code:
        tok = item if isinstance(item, int) else item[1]
        text = toks[tok]
        col = lexer.position(tok)[1]
        if isinstance(item, int) and text not in ("&", "|", "^", "+", "-"):
            stack.append(text)
        elif isinstance(item, int):
            b = stack.pop()
            stack.append(f"({text}@{col} {stack.pop()} {b})")
        elif item[0] == "mux":
            other, then = stack.pop(), stack.pop()
            stack.append(f"(?@{col} {stack.pop()} {then} {other})")
        else:
            stack.append(f"({text}@{col} {stack.pop()})")
    assert len(stack) == 1
    return stack[0]


@pytest.mark.parametrize(
    "text, shape",
    [
        ("a - b - c", "(-@7 (-@3 a b) c)"),
        ("a + b - c + d", "(+@11 (-@7 (+@3 a b) c) d)"),
        ("a | b ^ c & d + e",
         "(|@3 a (^@7 b (&@11 c (+@15 d e))))"),
        ("a + b & c ^ d | e",
         "(|@15 (^@11 (&@7 (+@3 a b) c) d) e)"),
        ("a & b | c & d ^ e", "(|@7 (&@3 a b) (^@15 (&@11 c d) e))"),
        ("~ &a", "(~@1 (&@3 a))"),
        ("~a + b", "(+@4 (~@1 a) b)"),
        ("a ? b : c ? d : e", "(?@3 a b (?@11 c d e))"),
        ("a ? b ? c : d : e", "(?@3 a (?@7 b c d) e)"),
        ("a | b ? c ^ d : e", "(?@7 (|@3 a b) (^@11 c d) e)"),
        ("(a | b) & c", "(&@9 (|@4 a b) c)"),
        ("a - (b - c)", "(-@3 a (-@8 b c))"),
        ("~(a ^ b) & (c ? d : e)", "(&@10 (~@1 (^@5 a b)) (?@15 c d e))"),
    ],
)
def test_expression_shape(text, shape):
    assert _shape(*_expr_ast(text)) == shape


_PREC = {"|": 1, "^": 2, "&": 3, "+": 4, "-": 4}


def _random_expr(rng, depth):
    """A random 3-bit expression tree over inputs a, b and c and the
    1-bit input s."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        leaf = rng.randrange(3)
        if leaf == 0:
            return ("ref", rng.choice("abc"))
        if leaf == 1:
            return ("lit", rng.randrange(8))
        return ("red", rng.choice("&|^"), rng.choice("abc"))
    if roll < 0.3:
        return ("not", _random_expr(rng, depth - 1))
    if roll < 0.4:
        return ("mux", _random_expr(rng, depth - 1),
                _random_expr(rng, depth - 1))
    return ("bin", rng.choice("|^&+-"), _random_expr(rng, depth - 1),
            _random_expr(rng, depth - 1))


def _render(e, rng):
    """Verilog text with only the parentheses the precedence table needs,
    plus a few redundant ones."""
    kind = e[0]
    if kind == "ref":
        text = e[1]
    elif kind == "lit":
        text = f"3'd{e[1]}"
    elif kind == "red":
        text = f"{{3{{{e[1]}{e[2]}}}}}"
    elif kind == "not":
        arg = _render(e[1], rng)
        text = f"~{arg}" if e[1][0] in ("ref", "lit", "red", "not") \
            else f"~({arg})"
    elif kind == "mux":
        return f"s ? {_render(e[1], rng)} : {_render(e[2], rng)}"
    else:
        prec = _PREC[e[1]]
        parts = []
        for side, sub in (("a", e[2]), ("b", e[3])):
            part = _render(sub, rng)
            if sub[0] == "mux" or sub[0] == "bin" and (
                    _PREC[sub[1]] < prec
                    or _PREC[sub[1]] == prec and side == "b"):
                part = f"({part})"
            parts.append(part)
        text = f"{parts[0]} {e[1]} {parts[1]}"
    return f"({text})" if rng.random() < 0.05 else text


def _evaluate(e, env):
    kind = e[0]
    if kind == "ref":
        return env[e[1]]
    if kind == "lit":
        return e[1]
    if kind == "red":
        v = env[e[2]]
        bit = {"&": v == 7, "|": v != 0, "^": bin(v).count("1") % 2}[e[1]]
        return 7 if bit else 0
    if kind == "not":
        return ~_evaluate(e[1], env) & 7
    if kind == "mux":
        return _evaluate(e[1] if env["s"] else e[2], env)
    a, b = _evaluate(e[2], env), _evaluate(e[3], env)
    return {"|": a | b, "^": a ^ b, "&": a & b,
            "+": (a + b) & 7, "-": (a - b) & 7}[e[1]]


def test_random_expressions_follow_the_precedence_table():
    rng = random.Random(2026)
    for _ in range(150):
        tree = _random_expr(rng, 4)
        text = _render(tree, rng)
        d = parse_design(
            "module m(input [2:0] a, input [2:0] b, input [2:0] c,"
            f" input s, output [2:0] y);\n  assign y = {text};\nendmodule"
        )
        for _ in range(12):
            env = {"a": rng.randrange(8), "b": rng.randrange(8),
                   "c": rng.randrange(8), "s": rng.randrange(2)}
            want = {"y": _evaluate(tree, env)}
            assert simulate(d.top_module, env) == want, text
