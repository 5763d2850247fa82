import pytest

from busweaver import inliner
from busweaver.emitter import emit_design
from busweaver.frontend import parse_design
from busweaver.inliner import (
    InlineDecision,
    InlinePolicy,
    finished_module,
    selective_inline,
)
from busweaver.ir import REDUCE_KINDS, HwDesign, HwModule, ModuleBuilder, Port
from busweaver.oracle import check_design_equivalence
from busweaver.pipeline import run_pipeline


def _log(design, policy=None):
    return run_pipeline(design, policy)[1].inline_log


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
    assert finished_module(d.top_module, {}).regular


def test_regularity_rejects_reductions():
    d = parse_design(
        "module m(input [3:0] a, output y);\n"
        "  assign y = ^a;\n"
        "endmodule"
    )
    assert not finished_module(d.top_module, {}).regular


def test_regularity_descends_into_callees():
    d = parse_design(
        "module bad(input [1:0] x, output z);\n"
        "  assign z = |x;\n"
        "endmodule\n"
        "module m(input [1:0] a, output y);\n"
        "  bad u(.x(a), .z(y));\n"
        "endmodule"
    )
    assert not finished_module(d.modules["bad"], {}).regular
    finished = {"bad": finished_module(d.modules["bad"], {})}
    assert not finished["bad"].regular
    assert not finished_module(d.modules["m"], finished).regular
    assert [(dec.callee, dec.reason) for dec in _log(d)] == [
        ("bad", "not regular")
    ]


def test_size_includes_instantiated_bodies():
    d = parse_design(BUF_TOP)
    assert finished_module(d.modules["my_buf"], {}).size == 0
    finished = {"my_buf": finished_module(d.modules["my_buf"], {})}
    assert finished["my_buf"].size == 0
    # top4 itself: four selects and one repack
    assert finished_module(d.modules["top4"], finished).size == 5
    assert [dec.callee_size for dec in _log(d)] == [0, 0, 0, 0]


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
    assert finished_module(d.modules["chain"], {}).size == 3
    finished = {"chain": finished_module(d.modules["chain"], {})}
    assert finished["chain"].size == 3
    # two chain bodies plus m's own two selects and repack
    assert finished_module(d.modules["m"], finished).size == 2 * 3 + 3
    assert [dec.callee_size for dec in _log(d)] == [3, 3]


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
    out, report = run_pipeline(d)
    log = report.inline_log
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
    assert finished_module(d.modules["chain"], {}).size == 4

    log = _log(d, InlinePolicy(threshold=4))
    assert all(not dec.inlined for dec in log)
    assert all("4 >= threshold 4" in dec.reason for dec in log)

    log = _log(d, InlinePolicy(threshold=5))
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
    out, report = run_pipeline(d)
    log = report.inline_log
    assert all(not dec.inlined for dec in log)
    assert all(dec.reason == "not regular" for dec in log)
    assert any(
        op.kind == "instance" for op in out.modules["top"].operations
    )


def test_disabled_policy_changes_nothing():
    d = parse_design(BUF_TOP)
    # each module's session holds it as given
    for module in d.modules.values():
        rw, log = selective_inline(module, {}, InlinePolicy(enabled=False))
        assert log == []
        assert HwModule(rw.name, rw.ports, rw.operations, rw.outputs,
                        rw.wires) == module
    assert _log(d, InlinePolicy(enabled=False)) == []


def test_inlined_buffers_preserve_behavior():
    d = parse_design(BUF_TOP)
    out, report = run_pipeline(d)
    assert sum(dec.inlined for dec in report.inline_log) == 4
    assert all(
        op.kind != "instance"
        for op in out.modules["top4"].operations
    )
    v = check_design_equivalence(d, out)["top4"]
    assert v.status == "equivalent-exhaustive"


def _fed_site(j_body):
    return parse_design(
        "module k(input [1:0] x, output [1:0] y);\n"
        "  assign y = 2'b10;\n"
        "endmodule\n"
        "module j(input [1:0] x, output z);\n"
        f"  assign z = {j_body};\n"
        "endmodule\n"
        "module top(input [1:0] a, output z);\n"
        "  wire [1:0] n;\n"
        "  k u0(.x(a), .y(n));\n"
        "  j u1(.x(n), .z(z));\n"
        "endmodule"
    )


def test_site_fed_by_an_inlined_site_reads_its_body():
    # u1 reads u0's output; every site is spliced before any use is
    # redirected, so u1's body must already see u0's constant and fold
    # its selects of it, and its chain over two constant bits to one
    d = _fed_site("x[0] ^ x[1]")
    out, report = run_pipeline(d)
    assert [e.inlined for e in report.inline_log] == [True, True]
    assert emit_design(out).endswith(
        "module top(input [1:0] a, output z);\n"
        "  assign z = 1'b1;\n"
        "endmodule\n"
    )
    result = check_design_equivalence(d, out)["top"]
    assert result.status == "equivalent-exhaustive"


def _lanes(j_body, width=2, lanes=4):
    # one site of j per lane; site k reads bit k of b as x[0] and bits
    # k, k + lanes, ... of a above it
    sites = "".join(
        f"  j u{k}(.x({{"
        + "".join(f"a[{lanes * w + k}], "
                  for w in reversed(range(width - 1)))
        + f"b[{k}]}}), .z(y[{k}]));\n"
        for k in range(lanes)
    )
    return parse_design(
        f"module j(input [{width - 1}:0] x, output z);\n"
        f"  assign z = {j_body};\n"
        "endmodule\n"
        f"module top(input [{lanes * (width - 1) - 1}:0] a,"
        f" input [{lanes - 1}:0] b, output [{lanes - 1}:0] y);\n"
        + sites + "endmodule\n"
    )


def test_a_callee_folded_to_a_reduction_is_inlined_as_its_chain():
    # j's chain folds to ^x when j is finished; that reduction keeps j
    # regular, and each site copies it back as x[0] ^ x[1], so the four
    # lanes vectorize as they do when j is copied as written
    d = _lanes("x[0] ^ x[1]")
    out, report = run_pipeline(d)
    assert [(e.inlined, e.callee_size) for e in report.inline_log] \
        == [(True, 1)] * 4
    text = emit_design(out)
    assert "  assign z = ^x;\n" in text
    assert "  assign y = b ^ a;\n" in text
    assert (report.instructions_before, report.instructions_after) == (16, 2)
    assert emit_design(run_pipeline(parse_design(text))[0]) == text
    for verdict in check_design_equivalence(d, out).values():
        assert verdict.status == "equivalent-exhaustive"


# Chains that j's fold turns into a reduction of a slice (^x[2:1]) or
# of a masked x (|(x & 4'd13), ^(x & 5'd21), &(x | 5'd8)).
_FOLDED_CHAINS = {
    "slice": ("x[1] ^ x[2]", 3),
    "or mask": ("x[0] | x[2] | x[3]", 4),
    "xor mask": ("x[0] ^ x[2] ^ x[4]", 5),
    "and mask": ("x[0] & x[2] & x[4] & x[1]", 5),
}


@pytest.mark.parametrize("name", list(_FOLDED_CHAINS))
def test_each_folded_reduction_is_spliced_as_its_chain(name, monkeypatch):
    body, width = _FOLDED_CHAINS[name]
    d = _lanes(body, width, lanes=2)
    copied = []
    unfold = inliner.unfold

    def spy(rw, op, ops, values):
        copied.append(op.kind)
        return unfold(rw, op, ops, values)

    monkeypatch.setattr(inliner, "unfold", spy)
    out, report = run_pipeline(d)
    assert all(e.inlined for e in report.inline_log)
    assert copied and all(kind in REDUCE_KINDS for kind in copied)
    # the lanes vectorize: no instance, and one op per term of the chain
    top = out.modules["top"].operations
    assert not any(op.kind == "instance" for op in top)
    assert sum(op.kind in ("and", "or", "xor") for op in top) \
        == body.count("x[") - 1
    text = emit_design(out)
    assert emit_design(run_pipeline(parse_design(text))[0]) == text
    for verdict in check_design_equivalence(d, out).values():
        assert verdict.status == "equivalent-exhaustive"


def test_a_written_reduction_keeps_a_callee_irregular():
    # j folds its chain, but it also holds a reduction written as one,
    # so j stays irregular and its sites stay instances
    d = _lanes("(x[0] ^ x[1]) & (|x)")
    out, report = run_pipeline(d)
    assert [(e.inlined, e.reason) for e in report.inline_log] \
        == [(False, "not regular")] * 4
    text = emit_design(out)
    assert emit_design(run_pipeline(parse_design(text))[0]) == text


def test_a_reduction_left_dead_by_inlining_keeps_a_callee_regular():
    # m's ^a feeds a port that ign never reads, so once ign is inlined
    # the finished m holds no reduction and its sites are inlined too
    d = parse_design(
        "module ign(input x, input c, output z);\n"
        "  assign z = ~c;\n"
        "endmodule\n"
        "module m(input [1:0] a, input c, output z);\n"
        "  ign u(.x(^a), .c(c), .z(z));\n"
        "endmodule\n"
        "module top(input [1:0] a, input [1:0] c, output [1:0] y);\n"
        "  m u0(.a(a), .c(c[0]), .z(y[0]));\n"
        "  m u1(.a(a), .c(c[1]), .z(y[1]));\n"
        "endmodule\n"
    )
    out, report = run_pipeline(d)
    assert [(e.callee, e.inlined) for e in report.inline_log] == [
        ("ign", True), ("m", True), ("m", True)
    ]
    text = emit_design(out)
    assert "  assign y = ~c;\n" in text
    assert emit_design(run_pipeline(parse_design(text))[0]) == text
    for verdict in check_design_equivalence(d, out).values():
        assert verdict.status == "equivalent-exhaustive"


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
    # the per-module step alone, with cell finished as parsed
    finished = {"cell": finished_module(d.modules["cell"], {})}
    rw, log = selective_inline(d.modules["top"], finished)
    assert [e.inlined for e in log] == [True] * 4
    cell, top = d.modules["cell"].operations, rw.finish().operations
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

    def checked(rw, op_id, callee, readers, done):
        assert all(op.kind != "instance" and op.kind not in REDUCE_KINDS
                   for op in callee.operations)
        spliced.append(callee.name)
        splice(rw, op_id, callee, readers, done)

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
    log = _log(irregular)
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
    log = _log(at_threshold, InlinePolicy(threshold=4))
    assert [(e.callee, e.inlined, e.reason) for e in log] == [
        ("inner", False, "size 4 >= threshold 4"),
        ("wrap", False, "size 5 >= threshold 4"),
        ("wrap", False, "size 5 >= threshold 4"),
    ]
    # one size up, both levels splice
    log = _log(at_threshold, InlinePolicy(threshold=6))
    assert all(e.inlined for e in log)
    assert spliced == ["inner", "wrap", "wrap"]


def test_an_unresolved_callee_stays_an_instance():
    # only a design built through the API can name a module it lacks
    b = ModuleBuilder("top", [Port("a", "input", 1), Port("y", "output", 1)])
    y = b.instance("ghost", "u", [b.input_ref("a", 1)], ("x",), (("z", 1),))
    design = HwDesign({"top": b.finish({"y": y}, {})}, "top")
    rw, log = selective_inline(design.top_module, {})
    assert log == [InlineDecision("top", "u", "ghost", False, -1,
                                  "unresolved callee")]
    assert rw.finish() == design.top_module
    # an unknown callee counts 0 and is not regular
    assert finished_module(design.top_module, {})[1:] == (0, False)


def test_a_read_of_one_output_port_reads_the_port_value():
    # dup's two outputs are both a; u0's y is read alone, so the read
    # is of the spliced value of y, not of a slice of the two outputs
    # packed, which a re-run would rewrite into {2{p[0]}}
    d = parse_design(
        "module dup(input a, output y, output z);\n"
        "  assign y = a & a;\n"
        "  assign z = a;\n"
        "endmodule\n"
        "module top(input [1:0] p, input q, output o);\n"
        "  wire t, unread;\n"
        "  dup u0(.a(p[0]), .y(t), .z(unread));\n"
        "  assign o = t ^ q;\n"
        "endmodule\n"
    )
    out, report = run_pipeline(d)
    assert [e.inlined for e in report.inline_log] == [True]
    text = emit_design(out)
    assert text.split("endmodule")[1].strip().endswith(
        ");\n  assign o = p[0] ^ q;")
    assert emit_design(run_pipeline(parse_design(text))[0]) == text
    for verdict in check_design_equivalence(d, out).values():
        assert verdict.status == "equivalent-exhaustive"


def test_a_read_across_output_ports_reads_them_packed():
    # only a design built through the API reads bits of two ports in
    # one slice: o keeps reading y and z packed, q reads v itself
    cell = parse_design(
        "module cell(input a, input b, output y, output z, output v);\n"
        "  assign y = a & b;\n"
        "  assign z = a | b;\n"
        "  assign v = ~a;\n"
        "endmodule\n"
    ).top_module
    top = ModuleBuilder("top", [Port("p", "input", 2), Port("o", "output", 2),
                                Port("q", "output", 1)])
    p = top.input_ref("p", 2)
    site = top.instance("cell", "u", [top.extract(p, 0, 1),
                                      top.extract(p, 1, 1)],
                        ("a", "b"), (("y", 1), ("z", 1), ("v", 1)))
    design = HwDesign({"cell": cell, "top": top.finish(
        {"o": top.extract(site, 0, 2), "q": top.extract(site, 2, 1)}, {})},
        "top")
    out, report = run_pipeline(design)
    assert [e.inlined for e in report.inline_log] == [True]
    ops = out.modules["top"].operations
    assert all(op.kind != "instance" for op in ops)
    q = out.modules["top"].outputs["q"]
    assert ops[q.op].kind == "not"
    for verdict in check_design_equivalence(design, out).values():
        assert verdict.status == "equivalent-exhaustive"


def _cell_lanes(body, conns):
    """A 1-bit ``cell`` computing ``body`` over the ports that
    ``conns`` connects, one site per lane of a 4-lane ``top``; a
    connection reads a bit of ``x`` or ``z`` in the lane (``{k}``)."""
    ins = ", ".join(f"input {port}" for port, _ in conns)
    sites = "".join(
        f"  cell u{k}("
        + ", ".join(f".{port}({src.format(k=k)})" for port, src in conns)
        + f", .y(y[{k}]));\n"
        for k in range(4)
    )
    return parse_design(
        f"module cell({ins}, output y);\n"
        f"  assign y = {body};\n"
        "endmodule\n"
        "module top(input [3:0] x, input [3:0] z, output [3:0] y);\n"
        + sites + "endmodule\n"
    )


def _assert_sound(d, out, text):
    for verdict in check_design_equivalence(d, out).values():
        assert verdict.status == "equivalent-exhaustive"
    assert emit_design(run_pipeline(parse_design(text))[0]) == text


def test_splicing_folds_a_double_negation():
    # copied as two nots per site, the lanes vectorized back to ~~x
    d = _cell_lanes("~~a", [("a", "x[{k}]")])
    out, report = run_pipeline(d)
    assert all(e.inlined for e in report.inline_log)
    assert report.counters.copies_folded == 4  # one per site
    text = emit_design(out)
    assert "  assign y = x;\n" in text
    assert "  assign y = ~~a;\n" in text  # the cell stays as written
    assert report.instructions_after == 2
    _assert_sound(d, out, text)


@pytest.mark.parametrize("body, conns, assign", [
    ("a ^ a", [("a", "x[{k}]")], "x ^ x"),
    ("s ? a : b", [("s", "z[{k}]"), ("a", "x[{k}]"), ("b", "x[{k}]")],
     "{" + ", ".join(f"z[{k}] ? x[{k}] : x[{k}]" for k in (3, 2, 1, 0))
     + "}"),
])
def test_splicing_keeps_equal_operands(body, conns, assign):
    # x op x and a mux with equal arms are not rules: a splice copies
    # operands that replace_uses may make equal only later, so some
    # lanes of a family would fold and others not.  With x & x, x | x
    # and x ^ x folded, seed 98 of tests/hierarchies.py changed its
    # bytes on a re-run (default policy and threshold 400); with the
    # equal-arm mux folded, seed 1906 did.
    d = _cell_lanes(body, conns)
    out, report = run_pipeline(d)
    assert report.counters.copies_folded == 0
    text = emit_design(out)
    assert f"  assign y = {assign};\n" in text
    _assert_sound(d, out, text)


def test_a_not_of_not_through_the_caller_reads_the_spliced_site():
    # v_k's ~ folds with the caller's ~ into t_k, which u_k drives: the
    # site reads u_k's spliced body, not the instance it replaced
    d = parse_design(
        "module inv(input a, output y);\n"
        "  assign y = ~a;\n"
        "endmodule\n"
        "module top(input [1:0] x, output [1:0] y);\n"
        "  wire t0, t1, n0, n1;\n"
        "  inv u0(.a(x[0]), .y(t0));\n"
        "  inv u1(.a(x[1]), .y(t1));\n"
        "  assign n0 = ~t0;\n"
        "  assign n1 = ~t1;\n"
        "  inv v0(.a(n0), .y(y[0]));\n"
        "  inv v1(.a(n1), .y(y[1]));\n"
        "endmodule\n"
    )
    out, report = run_pipeline(d)
    assert report.counters.copies_folded == 2
    text = emit_design(out)
    assert "  assign y = ~x;\n" in text
    assert all(op.kind != "instance" for op in out.modules["top"].operations)
    _assert_sound(d, out, text)
