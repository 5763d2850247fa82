import pytest

from busweaver.emitter import emit_design, emit_module
from busweaver.frontend import parse_design
from busweaver.inliner import InlinePolicy
from busweaver.ir import HwDesign, ModuleBuilder, Operation, Port
from busweaver.oracle import check_design_equivalence
from busweaver.pipeline import run_pipeline
from generators import nested_instance_design


def _roundtrip_stable(src: str) -> str:
    d = parse_design(src)
    first = emit_design(d)
    second = emit_design(parse_design(first))
    assert second == first
    return first


def test_two_port_header_is_single_line():
    text = _roundtrip_stable(
        "module m(input [3:0] a, output [3:0] y);\n"
        "  assign y = ~a;\n"
        "endmodule"
    )
    assert text == (
        "module m(input [3:0] a, output [3:0] y);\n"
        "  assign y = ~a;\n"
        "endmodule\n"
    )


def test_wide_header_is_one_port_per_line():
    text = _roundtrip_stable(
        "module m(input a, input b, input c, output y);\n"
        "  assign y = a & b & c;\n"
        "endmodule"
    )
    assert text == (
        "module m(\n"
        "  input a,\n"
        "  input b,\n"
        "  input c,\n"
        "  output y\n"
        ");\n"
        "  assign y = a & b & c;\n"
        "endmodule\n"
    )


def test_user_wire_names_survive():
    text = _roundtrip_stable(
        "module m(input a, input b, input c, output y, output z);\n"
        "  wire shared;\n"
        "  assign shared = a & b;\n"
        "  assign y = shared | ~c;\n"
        "  assign z = shared ^ (a | c) & b;\n"
        "endmodule"
    )
    assert "wire shared;" in text
    assert "assign shared = a & b;" in text
    # parenthesisation that precedence would lose must be preserved
    assert "assign z = shared ^ (a | c) & b;" in text


def test_shared_anonymous_value_gets_a_temp():
    b = ModuleBuilder(
        "m",
        [
            Port("a", "input", 1),
            Port("b", "input", 1),
            Port("c", "input", 1),
            Port("y", "output", 1),
            Port("z", "output", 1),
        ],
    )
    va, vb, vc = (b.input_ref(n, 1) for n in "abc")
    shared = b.binary("and", va, vb)
    m = b.finish(
        {"y": b.binary("xor", shared, vc), "z": b.binary("or", shared, vc)},
        {},
    )
    text = emit_module(m)
    assert text.count("wire t") == 1
    assert "assign t3 = a & b;" in text
    assert emit_design(parse_design(text)) == text


def test_reverse_prints_as_bit_concat():
    # a lane-reversed slot is a concat of one-bit selects, inline, and
    # that is the text a re-run reads back
    out, report = run_pipeline(parse_design(
        "module m(input [3:0] a, input [2:0] b, output [2:0] out);\n"
        "  assign out[0] = a[3] ^ b[0];\n"
        "  assign out[1] = a[2] ^ b[1];\n"
        "  assign out[2] = a[1] ^ b[2];\n"
        "endmodule"
    ))
    text = emit_design(out)
    assert "  assign out = {a[1], a[2], a[3]} ^ b;\n" in text
    assert "wire" not in text
    assert (report.instructions_before, report.instructions_after) == (10, 5)
    assert _roundtrip_stable(text) == text


def test_constant_literals():
    b = ModuleBuilder(
        "m",
        [Port("y", "output", 3), Port("f", "output", 1)],
    )
    m = b.finish({"y": b.const(5, 3), "f": b.const(0, 1)}, {})
    text = emit_module(m)
    assert "assign y = 3'd5;" in text
    assert "assign f = 1'b0;" in text
    # past 4,300 decimal digits str(int) refuses a value: hex instead
    src = ("module m(input a, output [19999:0] y);\n"
           f"  assign y = 20000'h{'F' * 5000} ^ {{20000{{a}}}};\nendmodule\n")
    text = _roundtrip_stable(src)
    assert f"20000'h{'f' * 5000} ^ {{20000{{a}}}}" in text


_PREFIX_KINDS = ("not", "redand", "redor", "redxor")


@pytest.mark.parametrize("inner", _PREFIX_KINDS)
@pytest.mark.parametrize("outer", _PREFIX_KINDS)
def test_adjacent_prefix_operators_stay_apart(outer, inner):
    # ~^x, ~&x, ~|x and ^~x are each one operator in Verilog (and
    # &&, || are binary), so a prefix op over another is parenthesised
    # where the two sigils would fuse; the text parses and computes
    # the same
    b = ModuleBuilder("m", [Port("x", "input", 2)])

    def prefix(kind, v):
        return b.copy(Operation(kind, v.width if kind == "not" else 1), [v])

    y = prefix(outer, prefix(inner, b.input_ref("x", 2)))
    b.ports.append(Port("y", "output", y.width))
    design = HwDesign({"m": b.finish({"y": y}, {})}, "m")
    text = emit_design(design)
    verdict = check_design_equivalence(design, parse_design(text))["m"]
    assert verdict.status == "equivalent-exhaustive", text


def test_a_folded_reduction_under_a_not_keeps_its_parentheses():
    # the fold puts a reduction under the user's ~
    src = (
        "module leaf(input a0, input a1, output y0);\n"
        "  assign y0 = ~(a0 ^ a1);\n"
        "endmodule\n"
        "module top(input [3:0] p, output [1:0] y);\n"
        "  leaf u0(.a0(p[0]), .a1(p[1]), .y0(y[0]));\n"
        "  leaf u1(.a0(p[2]), .a1(p[3]), .y0(y[1]));\n"
        "endmodule\n"
    )
    design = parse_design(src)
    out, _ = run_pipeline(design)
    text = emit_design(out)
    assert "  assign y = {~(^p[3:2]), ~(^p[1:0])};\n" in text
    verdict = check_design_equivalence(design, parse_design(text))["top"]
    assert verdict.status == "equivalent-exhaustive"
    assert _roundtrip_stable("module m(input [1:0] x, output y);\n"
                             "  assign y = ^(~x);\nendmodule\n") \
        .endswith("  assign y = ^(~x);\nendmodule\n")


def test_instance_wires_and_output_packing():
    text = _roundtrip_stable(
        "module pair(input x, output p, output q);\n"
        "  assign p = ~x;\n"
        "  assign q = x;\n"
        "endmodule\n"
        "module m(input a, output [1:0] y);\n"
        "  pair u(.x(a), .p(y[1]), .q(y[0]));\n"
        "endmodule"
    )
    assert "  wire u_p;\n  wire u_q;\n" in text
    assert "pair u(.x(a), .p(u_p), .q(u_q));" in text
    assert "assign y = {u_p, u_q};" in text


def test_an_instance_declares_and_connects_exactly_the_ports_read():
    # p0 is read whole through the user wire x, p1 only through a
    # slice, p2 by a slice that crosses into p3, and p4 never: the
    # reduction keeps cell an instance
    src = (
        "module cell(input [3:0] a, output [1:0] p0, output [1:0] p1,\n"
        "            output [1:0] p2, output [1:0] p3, output [1:0] p4);\n"
        "  assign p0 = a[1:0] ^ a[3:2];\n"
        "  assign p1 = a[1:0] & a[3:2];\n"
        "  assign p2 = a[1:0] | a[3:2];\n"
        "  assign p3 = ~a[1:0];\n"
        "  assign p4 = {^a, &a};\n"
        "endmodule\n"
        "module m(input [3:0] a, input [1:0] c, output [1:0] y0,\n"
        "         output y1, output [1:0] y2);\n"
        "  wire [1:0] x, v, n;\n"
        "  wire [3:0] s;\n"
        "  cell u(.a(a), .p0(x), .p1(v), .p2(s[1:0]), .p3(s[3:2]),"
        " .p4(n));\n"
        "  assign y0 = x ^ c;\n"
        "  assign y1 = v[1];\n"
        "  assign y2 = s[2:1] ^ c;\n"
        "endmodule\n"
    )
    design = parse_design(src)
    out, report = run_pipeline(design)
    assert [e.inlined for e in report.inline_log] == [False]
    text = emit_design(out)
    lines = text.split("endmodule")[1].splitlines()
    assert "  cell u(.a(a), .p0(x), .p1(u_p1), .p2(u_p2), .p3(u_p3));" \
        in lines
    assert [line for line in lines if line.startswith("  wire [1:0]")] \
        == ["  wire [1:0] x;", "  wire [1:0] u_p1;", "  wire [1:0] u_p2;",
            "  wire [1:0] u_p3;"]
    assert "p4" not in text.split("endmodule")[1]
    assert "  assign y1 = u_p1[1];" in lines
    for verdict in check_design_equivalence(design, out).values():
        assert verdict.status == "equivalent-exhaustive"
    # the bytes are a fixpoint; the report is not yet: a re-run plans
    # the temporary on {u_p3, u_p2} again and reports it rewritten
    assert emit_design(run_pipeline(parse_design(text))[0]) == text


def test_named_instance_output_wire_is_reused():
    # A user wire carrying exactly one instance output port keeps its
    # name on the connection instead of aliasing a generated wire.
    text = _roundtrip_stable(
        "module inv(input x, output z);\n"
        "  assign z = ~x;\n"
        "endmodule\n"
        "module m(input a, output y);\n"
        "  wire mid;\n"
        "  inv u(.x(a), .z(mid));\n"
        "  assign y = mid;\n"
        "endmodule"
    )
    assert "inv u(.x(a), .z(mid));" in text
    assert "mid_" not in text


def test_deep_chains_are_split_with_temps():
    body = "~" * 300 + "a"
    text = _roundtrip_stable(
        f"module m(input a, output y);\n  assign y = {body};\nendmodule"
    )
    assert "wire t" in text
    longest = max(len(line) for line in text.splitlines())
    assert longest < 200


def test_mux_and_slice_rendering():
    text = _roundtrip_stable(
        "module m(input [7:0] a, input s, output [3:0] y);\n"
        "  assign y = s ? a[7:4] : a[3:0];\n"
        "endmodule"
    )
    assert "assign y = s ? a[7:4] : a[3:0];" in text


def test_many_uninlined_instance_sites_round_trip():
    # 2,000 sites left as instances: the emitter finds each site's read
    # ports from one pass over the operands
    design = parse_design(nested_instance_design(2000, 200))
    text = emit_design(design)
    assert text.count("  wire u") == text.count("  chain u") == 2000
    assert emit_design(parse_design(text)) == text
    policy = InlinePolicy(enabled=False)
    out, _ = run_pipeline(design, policy)
    text = emit_design(out)
    assert text.count("  wire u") == text.count("  chain u") == 2000
    again, _ = run_pipeline(parse_design(text), policy)
    assert emit_design(again) == text


_CELL2 = (
    "module cell(input [3:0] p, output [1:0] o1, output [1:0] o2);\n"
    "  assign o1 = p[1:0] ^ p[3:2];\n"
    "  assign o2 = {^p, &p};\n"
    "endmodule\n"
)

# Naming cases: the source, a line the output holds, and the user names
# it must not declare.  A user wire that the output would assign but
# never read is left out, since a re-run would drop it.
_NAMING_CASES = {
    "wire-on-an-input": (
        "module m(input [3:0] a, input [3:0] c, output [3:0] y);\n"
        "  wire [3:0] w;\n  assign w = a;\n  assign y = w ^ c;\n"
        "endmodule\n",
        "  assign y = a ^ c;", ["w"],
    ),
    "wire-on-a-slice": (
        "module m(input [7:0] a, input [3:0] c, output [3:0] y);\n"
        "  wire [3:0] w;\n  assign w = a[7:4];\n  assign y = w ^ c;\n"
        "endmodule\n",
        "  assign y = a[7:4] ^ c;", ["w"],
    ),
    "wire-on-a-constant": (
        "module m(input [3:0] a, output [3:0] y);\n"
        "  wire [3:0] k;\n  assign k = 4'd9;\n  assign y = a ^ k;\n"
        "endmodule\n",
        "  assign y = a ^ 4'd9;", ["k"],
    ),
    "second-name-of-a-value": (
        "module m(input [3:0] a, input [3:0] b, input [3:0] c,\n"
        "         output [3:0] y);\n"
        "  wire [3:0] v;\n  wire [3:0] w;\n"
        "  assign v = a ^ c;\n  assign w = v;\n  assign y = w & b;\n"
        "endmodule\n",
        "  assign y = v & b;", ["w"],
    ),
    # the instance's port wire u_o would take the output port's name
    "generated-name-collides": (
        "module cell(input [1:0] p, output [1:0] o, output z);\n"
        "  assign o = ~p;\n  assign z = ^p;\n"
        "endmodule\n"
        "module m(input [1:0] a, input [1:0] c, output [1:0] u_o,\n"
        "         output z);\n"
        "  wire [1:0] x;\n  cell u(.p(a), .o(x), .z(z));\n"
        "  assign u_o[0] = x[0] ^ c[0];\n  assign u_o[1] = x[1] ^ c[1];\n"
        "endmodule\n",
        "  cell u(.p(a), .o(u_o_), .z(u_z));", [],
    ),
    "wire-on-part-of-a-port": (
        "module cell(input [3:0] p, output [3:0] o, output z);\n"
        "  assign o = ~p;\n  assign z = ^p;\n"
        "endmodule\n"
        "module m(input [3:0] a, input [1:0] c, output [1:0] y,\n"
        "         output z);\n"
        "  wire [3:0] o;\n  wire [1:0] w;\n"
        "  cell u(.p(a), .o(o), .z(z));\n"
        "  assign w = o[2:1];\n  assign y = w ^ c;\n"
        "endmodule\n",
        "  assign y = u_o[2:1] ^ c;", ["w"],
    ),
    "second-wire-on-a-port": (
        "module cell(input [1:0] p, output [1:0] o, output z);\n"
        "  assign o = ~p;\n  assign z = ^p;\n"
        "endmodule\n"
        "module m(input [1:0] a, input [1:0] c, output [1:0] y,\n"
        "         output z);\n"
        "  wire [1:0] x;\n  wire [1:0] x2;\n"
        "  cell u(.p(a), .o(x), .z(z));\n"
        "  assign x2 = x;\n  assign y = x2 ^ c;\n"
        "endmodule\n",
        "  cell u(.p(a), .o(x), .z(u_z));", ["x2"],
    ),
    "wire-on-a-whole-instance": (
        _CELL2 + "module m(input [3:0] a, input [3:0] c, output [3:0] y);\n"
        "  wire [3:0] w;\n  cell u(.p(a), .o1(w[1:0]), .o2(w[3:2]));\n"
        "  assign y = w ^ c;\n"
        "endmodule\n",
        "  assign y = {u_o2, u_o1} ^ c;", ["w"],
    ),
    # the dropped wire reads no port: o2, which nothing else reads, is
    # left unconnected
    "wire-on-a-whole-instance-read-in-part": (
        _CELL2 + "module m(input [3:0] a, input [1:0] c, output [1:0] y);\n"
        "  wire [3:0] w;\n  cell u(.p(a), .o1(w[1:0]), .o2(w[3:2]));\n"
        "  assign y = w[1:0] ^ c;\n"
        "endmodule\n",
        "  cell u(.p(a), .o1(u_o1));", ["w", "u_o2"],
    ),
    "read-spans-two-ports": (
        _CELL2 + "module m(input [3:0] a, input [1:0] c, output [1:0] y);\n"
        "  wire [3:0] w;\n  cell u(.p(a), .o1(w[1:0]), .o2(w[3:2]));\n"
        "  assign y[0] = w[1] ^ c[0];\n  assign y[1] = w[2] ^ c[1];\n"
        "endmodule\n",
        "  assign y = {u_o2[0], u_o1[1]} ^ c;", ["w"],
    ),
}


@pytest.mark.parametrize("name", list(_NAMING_CASES))
def test_naming_cases_are_fixpoints(name):
    src, line, absent = _NAMING_CASES[name]
    design = parse_design(src)
    out, _ = run_pipeline(design)
    text = emit_design(out)
    assert line in text.splitlines()
    for wire in absent:
        assert f" {wire};" not in text and f" {wire} =" not in text
    for verdict in check_design_equivalence(design, out).values():
        assert verdict.status == "equivalent-exhaustive"
    again, report = run_pipeline(parse_design(text))
    assert emit_design(again) == text
    assert report.rewrites == []
