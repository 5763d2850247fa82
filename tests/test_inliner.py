import pytest

from busweaver import inliner
from busweaver.emitter import emit_design
from busweaver.frontend import parse_design
from busweaver.inliner import (
    InlineDecision,
    InlinePolicy,
    regularity_analysis,
    selective_inline,
    size_analysis,
)
from busweaver.ir import REDUCE_KINDS, HwDesign, HwModule, ModuleBuilder, Port
from busweaver.oracle import check_design_equivalence
from busweaver.pipeline import run_pipeline
from hierarchies import inline

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
    assert regularity_analysis(d.top_module.operations)


def test_regularity_rejects_reductions():
    d = parse_design(
        "module m(input [3:0] a, output y);\n"
        "  assign y = ^a;\n"
        "endmodule"
    )
    assert not regularity_analysis(d.top_module.operations)


def test_regularity_descends_into_callees():
    d = parse_design(
        "module bad(input [1:0] x, output z);\n"
        "  assign z = |x;\n"
        "endmodule\n"
        "module m(input [1:0] a, output y);\n"
        "  bad u(.x(a), .z(y));\n"
        "endmodule"
    )
    regular = {"bad": regularity_analysis(d.modules["bad"].operations)}
    assert regular == {"bad": False}
    assert not regularity_analysis(d.modules["m"].operations, regular)
    _, log = selective_inline(d)
    assert [(dec.callee, dec.reason) for dec in log] == [
        ("bad", "not regular")
    ]


def test_size_includes_instantiated_bodies():
    d = parse_design(BUF_TOP)
    assert size_analysis(d.modules["my_buf"].operations) == 0
    # top4 itself: four selects and one repack
    assert size_analysis(d.modules["top4"].operations, {"my_buf": 0}) == 5
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
    assert size_analysis(d.modules["chain"].operations) == 3
    # two chain bodies plus m's own two selects and repack
    assert size_analysis(d.modules["m"].operations, {"chain": 3}) == 2 * 3 + 3
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
    out, log = inline(d)
    assert all(dec.inlined for dec in log)
    # mid is measured after leaf's body replaced its instance
    assert [(dec.callee, dec.callee_size) for dec in log] == [
        ("leaf", 1), ("mid", 2), ("mid", 2)
    ]
    assert all(
        op.kind != "instance"
        for op in out.modules["top"].operations
    )
    v = check_design_equivalence(d, out)["top"]
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
    assert size_analysis(d.modules["chain"].operations) == 4

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
    out, log = inline(d)
    assert all(not dec.inlined for dec in log)
    assert all(dec.reason == "not regular" for dec in log)
    assert any(
        op.kind == "instance" for op in out.modules["top"].operations
    )


def test_disabled_policy_changes_nothing():
    d = parse_design(BUF_TOP)
    sessions, log = selective_inline(d, InlinePolicy(enabled=False))
    assert log == []
    # one session per module, in design order, holding it as given
    assert [
        HwModule(rw.name, rw.ports, rw.operations, rw.outputs, rw.wires)
        for rw in sessions
    ] == list(d.modules.values())


def test_inlined_buffers_preserve_behavior():
    d = parse_design(BUF_TOP)
    out, log = inline(d)
    assert sum(dec.inlined for dec in log) == 4
    assert all(
        op.kind != "instance"
        for op in out.modules["top4"].operations
    )
    v = check_design_equivalence(d, out)["top4"]
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
    out, log = inline(d)
    assert [e.inlined for e in log] == [True, True]
    assert emit_design(out).endswith(
        "module top(input [1:0] a, output z);\n"
        "  assign z = 1'b0 ^ 1'b1;\n"
        "endmodule\n"
    )
    result = check_design_equivalence(d, out)["top"]
    assert result.status == "equivalent-exhaustive"


# A callee body per routing kind the splice rebuilds, each around logic
# that every site copies.
_SPLICED_BODIES = {
    "concat": "{x[0] & s, 1'b1, x[2]}",
    "replicate": "{3{x[1] & s}} ^ 3'd5",
    "mux": "s ? ~x : {x[0], 2'd2}",
}


@pytest.mark.parametrize("name", list(_SPLICED_BODIES))
def test_spliced_sites_copy_logic_and_share_routing(name):
    d = parse_design(
        "module cell(input [2:0] x, input s, output [2:0] y);\n"
        f"  assign y = {_SPLICED_BODIES[name]};\n"
        "endmodule\n"
        "module top(input [2:0] a, input [3:0] b, output [11:0] y);\n"
        + "".join(f"  cell u{k}(.x(a), .s(b[{k}]),"
                  f" .y(y[{3 * k + 2}:{3 * k}]));\n" for k in range(4))
        + "endmodule\n"
    )
    out, log = inline(d)
    assert [e.inlined for e in log] == [True] * 4
    cell, top = d.modules["cell"].operations, out.modules["top"].operations
    # each site has logic of its own; constants and the slices of a,
    # which every site reads, are built once
    for kind in ("and", "xor", "not", "mux", "const"):
        per_site = 1 if kind == "const" else 4
        assert sum(op.kind == kind for op in top) \
            == per_site * sum(op.kind == kind for op in cell), kind
    (a,) = [k for k, op in enumerate(top) if op.port == "a"]
    assert sum(op.kind == "extract" and op.operands[0].op == a
               for op in top) == sum(op.kind == "extract" for op in cell)
    assert all(op.kind != "instance" for op in top)
    # equivalent through the pipeline, and a fixpoint
    vec, _ = run_pipeline(d)
    for verdict in check_design_equivalence(d, vec).values():
        assert verdict.status == "equivalent-exhaustive"
    text = emit_design(vec)
    again, report = run_pipeline(parse_design(text))
    assert emit_design(again) == text
    assert report.rewrites == []


def test_a_callee_keeping_an_instance_is_never_spliced(monkeypatch):
    # a callee keeps an instance only of an irregular callee or of one
    # at the threshold, and inherits the refusal: the splice meets only
    # routing and logic
    spliced = []
    splice = inliner._splice

    def checked(rw, op_id, callee, body, done):
        assert all(callee.operations[i].kind != "instance"
                   and callee.operations[i].kind not in REDUCE_KINDS
                   for i in body)
        spliced.append(callee.name)
        splice(rw, op_id, callee, body, done)

    monkeypatch.setattr(inliner, "_splice", checked)
    wrap = (
        "module wrap(input a, output y);\n"
        "  wire t;\n"
        "  inner u(.a(a), .y(t));\n"
        "  assign y = ~t;\n"
        "endmodule\n"
        "module top(input [1:0] in, output [1:0] out);\n"
        "  wrap w0(.a(in[0]), .y(out[0]));\n"
        "  wrap w1(.a(in[1]), .y(out[1]));\n"
        "endmodule\n"
    )
    irregular = parse_design(
        "module inner(input a, output y);\n"
        "  assign y = ^{a, a};\n"
        "endmodule\n" + wrap
    )
    _, log = selective_inline(irregular)
    assert [(e.callee, e.inlined, e.reason) for e in log] == [
        ("inner", False, "not regular"),
        ("wrap", False, "not regular"),
        ("wrap", False, "not regular"),
    ]
    at_threshold = parse_design(
        "module inner(input a, output y);\n"
        "  assign y = ~~~~a;\n"
        "endmodule\n" + wrap
    )
    _, log = selective_inline(at_threshold, InlinePolicy(threshold=4))
    assert [(e.callee, e.inlined, e.reason) for e in log] == [
        ("inner", False, "size 4 >= threshold 4"),
        ("wrap", False, "size 5 >= threshold 4"),
        ("wrap", False, "size 5 >= threshold 4"),
    ]
    # one size up, both levels splice
    _, log = selective_inline(at_threshold, InlinePolicy(threshold=6))
    assert all(e.inlined for e in log)
    assert spliced == ["inner", "wrap", "wrap"]


def test_an_unresolved_callee_stays_an_instance():
    # only a design built through the API can name a module it lacks
    b = ModuleBuilder("top", [Port("a", "input", 1), Port("y", "output", 1)])
    y = b.instance("ghost", "u", [b.input_ref("a", 1)], ("x",), (("z", 1),))
    design = HwDesign({"top": b.finish({"y": y}, {})}, "top")
    (rw,), log = selective_inline(design)
    assert log == [InlineDecision("top", "u", "ghost", False, -1,
                                  "unresolved callee")]
    assert rw.finish() == design.top_module
