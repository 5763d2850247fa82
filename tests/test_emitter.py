from busweaver.emitter import dump_module, emit_design, emit_module
from busweaver.frontend import parse_design
from busweaver.generators import nested_instance_design
from busweaver.inliner import InlinePolicy
from busweaver.ir import ModuleBuilder, Port
from busweaver.pipeline import run_pipeline


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


def test_dump_format():
    b = ModuleBuilder(
        "m", [Port("a", "input", 4), Port("y", "output", 4)]
    )
    v = b.input_ref("a", 4)
    m = b.finish({"y": b.not_(v)}, {})
    assert dump_module(m) == (
        "module m(input a:4, output y:4)\n"
        "  %0 = input(a) : i4\n"
        "  %1 = not(%0) : i4\n"
        "  output y = %1\n"
        "endmodule\n"
    )


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
