from busweaver.emitter import emit_design
from busweaver.frontend import parse_design
from busweaver.inliner import (
    InlinePolicy,
    regularity_analysis,
    selective_inline,
    size_analysis,
)
from busweaver.oracle import check_equivalence

BUF_TOP = (
    "module my_buf(input a, output b);\n"
    "  assign b = a;\n"
    "endmodule\n"
    "module top4(input [3:0] in, output [3:0] out);\n"
    "  my_buf b0(.a(in[0]), .b(out[0]));\n"
    "  my_buf b1(.a(in[1]), .b(out[1]));\n"
    "  my_buf b2(.a(in[2]), .b(out[2]));\n"
    "  my_buf b3(.a(in[3]), .b(out[3]));\n"
    "endmodule"
)


def test_regularity_accepts_logic_and_arithmetic():
    d = parse_design(
        "module m(input [3:0] a, input [3:0] b, output [3:0] y);\n"
        "  assign y = (a + b) - (a & b);\n"
        "endmodule"
    )
    assert regularity_analysis(d.top_module)


def test_regularity_rejects_reductions():
    d = parse_design(
        "module m(input [3:0] a, output y);\n"
        "  assign y = ^a;\n"
        "endmodule"
    )
    assert not regularity_analysis(d.top_module)


def test_regularity_descends_into_callees():
    d = parse_design(
        "module bad(input [1:0] x, output z);\n"
        "  assign z = |x;\n"
        "endmodule\n"
        "module m(input [1:0] a, output y);\n"
        "  bad u(.x(a), .z(y));\n"
        "endmodule"
    )
    regular = {"bad": regularity_analysis(d.modules["bad"])}
    assert regular == {"bad": False}
    assert not regularity_analysis(d.modules["m"], regular)
    _, log = selective_inline(d)
    assert [(dec.callee, dec.reason) for dec in log] == [
        ("bad", "not regular")
    ]


def test_size_includes_instantiated_bodies():
    d = parse_design(BUF_TOP)
    assert size_analysis(d.modules["my_buf"]) == 0
    # top4 itself: four selects and one repack
    assert size_analysis(d.modules["top4"], {"my_buf": 0}) == 5
    _, log = selective_inline(d)
    assert [dec.callee_size for dec in log] == [0, 0, 0, 0]


def test_size_counts_nested_chains():
    d = parse_design(
        "module chain(input a, output y);\n"
        "  assign y = ~~~a;\n"
        "endmodule\n"
        "module m(input [1:0] in, output [1:0] out);\n"
        "  chain u0(.a(in[0]), .y(out[0]));\n"
        "  chain u1(.a(in[1]), .y(out[1]));\n"
        "endmodule"
    )
    assert size_analysis(d.modules["chain"]) == 3
    # two chain bodies plus m's own two selects and repack
    assert size_analysis(d.modules["m"], {"chain": 3}) == 2 * 3 + 3
    _, log = selective_inline(d)
    assert [dec.callee_size for dec in log] == [3, 3]


def test_inlining_is_applied_bottom_up():
    d = parse_design(
        "module leaf(input a, output y);\n"
        "  assign y = ~a;\n"
        "endmodule\n"
        "module mid(input a, output y);\n"
        "  wire t;\n"
        "  leaf u(.a(a), .y(t));\n"
        "  assign y = ~t;\n"
        "endmodule\n"
        "module top(input [1:0] in, output [1:0] out);\n"
        "  mid m0(.a(in[0]), .y(out[0]));\n"
        "  mid m1(.a(in[1]), .y(out[1]));\n"
        "endmodule"
    )
    out, log = selective_inline(d)
    assert all(dec.inlined for dec in log)
    # mid is measured after leaf's body replaced its instance
    assert [(dec.callee, dec.callee_size) for dec in log] == [
        ("leaf", 1), ("mid", 2), ("mid", 2)
    ]
    assert all(
        op.kind != "instance"
        for op in out.modules["top"].operations
    )
    v = check_equivalence(
        d.modules["top"], out.modules["top"],
        original_design=d, transformed_design=out,
    )
    assert v.status == "equivalent-exhaustive"


def test_threshold_is_strict():
    src = (
        "module chain(input a, output y);\n"
        "  assign y = ~~~~a;\n"
        "endmodule\n"
        "module top(input [1:0] in, output [1:0] out);\n"
        "  chain u0(.a(in[0]), .y(out[0]));\n"
        "  chain u1(.a(in[1]), .y(out[1]));\n"
        "endmodule"
    )
    d = parse_design(src)
    assert size_analysis(d.modules["chain"]) == 4

    _, log = selective_inline(d, InlinePolicy(threshold=4))
    assert all(not dec.inlined for dec in log)
    assert all("4 >= threshold 4" in dec.reason for dec in log)

    _, log = selective_inline(d, InlinePolicy(threshold=5))
    assert all(dec.inlined for dec in log)
    assert all("4 < threshold 5" in dec.reason for dec in log)


def test_irregular_callee_is_kept():
    d = parse_design(
        "module red(input [1:0] x, output z);\n"
        "  assign z = &x;\n"
        "endmodule\n"
        "module top(input [3:0] in, output [1:0] out);\n"
        "  red u0(.x(in[1:0]), .z(out[0]));\n"
        "  red u1(.x(in[3:2]), .z(out[1]));\n"
        "endmodule"
    )
    out, log = selective_inline(d)
    assert all(not dec.inlined for dec in log)
    assert all(dec.reason == "not regular" for dec in log)
    assert any(
        op.kind == "instance" for op in out.modules["top"].operations
    )


def test_disabled_policy_changes_nothing():
    d = parse_design(BUF_TOP)
    out, log = selective_inline(d, InlinePolicy(enabled=False))
    assert log == []
    assert emit_design(out) == emit_design(d)


def test_inlined_buffers_preserve_behavior():
    d = parse_design(BUF_TOP)
    out, log = selective_inline(d)
    assert sum(dec.inlined for dec in log) == 4
    assert all(
        op.kind != "instance"
        for op in out.modules["top4"].operations
    )
    v = check_equivalence(
        d.modules["top4"], out.modules["top4"],
        original_design=d, transformed_design=out,
    )
    assert v.status == "equivalent-exhaustive"


def test_site_fed_by_an_inlined_site_reads_its_body():
    # u1 reads u0's output; every site is spliced before any use is
    # redirected, so u1's body must already see u0's constant and fold
    # its selects of it
    d = parse_design(
        "module k(input [1:0] x, output [1:0] y);\n"
        "  assign y = 2'b10;\n"
        "endmodule\n"
        "module j(input [1:0] x, output z);\n"
        "  assign z = x[0] ^ x[1];\n"
        "endmodule\n"
        "module top(input [1:0] a, output z);\n"
        "  wire [1:0] n;\n"
        "  k u0(.x(a), .y(n));\n"
        "  j u1(.x(n), .z(z));\n"
        "endmodule"
    )
    out, log = selective_inline(d)
    assert [e.inlined for e in log] == [True, True]
    assert emit_design(out).endswith(
        "module top(input [1:0] a, output z);\n"
        "  assign z = 1'b0 ^ 1'b1;\n"
        "endmodule\n"
    )
    result = check_equivalence(
        d.top_module, out.top_module,
        original_design=d, transformed_design=out,
    )
    assert result.status == "equivalent-exhaustive"
