from busweaver.emitter import emit_module
from busweaver.frontend import parse_design
from busweaver.ir import route_bit
from busweaver.pipeline import PassCounters, run_pipeline, vectorize_output
from busweaver.rewrite import ModuleRewriter
from probes import metrics
from reference import Segment, detect_permutation, greedy_group


def _module(src):
    return parse_design(src).top_module


def _roots(m, target):
    """Each bit of ``target`` routed to (its root's kind, the bit)."""
    ops = m.operations
    return [
        (ops[value.op].kind, bit)
        for value, bit, _ in (
            route_bit(ops, target, k) for k in range(target.width)
        )
    ]


def test_trace_through_extract_concat_reverse():
    m = _module(
        "module m(input [3:0] a, output [3:0] y);\n"
        "  assign y = {a[0], a[1], a[3], a[2]};\n"
        "endmodule"
    )
    assert _roots(m, m.outputs["y"]) == [
        ("input", 2), ("input", 3), ("input", 1), ("input", 0)
    ]


def test_trace_through_replicate():
    m = _module(
        "module m(input [1:0] a, output [3:0] y);\n"
        "  assign y = {2{a}};\n"
        "endmodule"
    )
    assert _roots(m, m.outputs["y"]) == [
        ("input", 0), ("input", 1), ("input", 0), ("input", 1)
    ]


def test_trace_stops_at_computing_op():
    m = _module(
        "module m(input [1:0] a, output y);\n"
        "  assign y = a[0] & a[1];\n"
        "endmodule"
    )
    assert _roots(m, m.outputs["y"]) == [("and", 0)]


def test_detect_permutation_recovers_bijection():
    m = _module(
        "module m(input [3:0] in, output [3:0] out);\n"
        "  assign out[3] = in[0];\n"
        "  assign out[2] = in[3];\n"
        "  assign out[1] = in[2];\n"
        "  assign out[0] = in[1];\n"
        "endmodule"
    )
    pm = detect_permutation(m, m.outputs["out"])
    assert pm is not None
    assert pm.bits == [1, 2, 3, 0]
    assert pm.base == 0


def test_detect_rejects_duplicate_bits():
    m = _module(
        "module m(input [1:0] in, output [1:0] out);\n"
        "  assign out[0] = in[1];\n"
        "  assign out[1] = in[1];\n"
        "endmodule"
    )
    assert detect_permutation(m, m.outputs["out"]) is None
    # the repeated bit leaves a gap that the span alone does not show
    m = _module(
        "module m(input [2:0] in, output [2:0] out);\n"
        "  assign out = {in[2], in[0], in[0]};\n"
        "endmodule"
    )
    assert detect_permutation(m, m.outputs["out"]) is None


def test_detect_rejects_two_sources():
    m = _module(
        "module m(input a, input b, output [1:0] out);\n"
        "  assign out = {a, b};\n"
        "endmodule"
    )
    assert detect_permutation(m, m.outputs["out"]) is None


def test_detect_rejects_constant_bits():
    m = _module(
        "module m(input a, output [1:0] out);\n"
        "  assign out = {a, 1'b0};\n"
        "endmodule"
    )
    assert detect_permutation(m, m.outputs["out"]) is None


def test_anchoring_controls_window_base():
    m = _module(
        "module m(input [3:0] in, output [1:0] out);\n"
        "  assign out[0] = in[3];\n"
        "  assign out[1] = in[2];\n"
        "endmodule"
    )
    assert detect_permutation(m, m.outputs["out"]) is None
    pm = detect_permutation(m, m.outputs["out"], anchored=False)
    assert pm is not None
    assert pm.base == 2
    assert pm.bits == [3, 2]


def test_greedy_grouping_merges_ascending_runs():
    m = _module(
        "module m(input [3:0] in, output [3:0] out);\n"
        "  assign out[3] = in[0];\n"
        "  assign out[2] = in[2];\n"
        "  assign out[1] = in[1];\n"
        "  assign out[0] = in[3];\n"
        "endmodule"
    )
    pm = detect_permutation(m, m.outputs["out"])
    assert pm.bits == [3, 1, 2, 0]
    assert greedy_group(pm) == [
        Segment(3, 1), Segment(1, 2), Segment(0, 1)
    ]


def test_greedy_grouping_identity_is_one_segment():
    m = _module(
        "module m(input [3:0] in, output [3:0] out);\n"
        "  assign out[0] = in[0];\n"
        "  assign out[1] = in[1];\n"
        "  assign out[2] = in[2];\n"
        "  assign out[3] = in[3];\n"
        "endmodule"
    )
    pm = detect_permutation(m, m.outputs["out"])
    assert pm.bits == [0, 1, 2, 3]
    assert greedy_group(pm) == [Segment(0, 4)]


def test_rewrite_identity_collapses_to_source():
    m = _module(
        "module m(input [1:0] in, output [1:0] out);\n"
        "  assign out[0] = in[0];\n"
        "  assign out[1] = in[1];\n"
        "endmodule"
    )
    assert detect_permutation(m, m.outputs["out"]).bits == [0, 1]
    rw = ModuleRewriter(m)
    vectorize_output(rw, m.outputs["out"])
    out = rw.finish()
    assert emit_module(out) == (
        "module m(input [1:0] in, output [1:0] out);\n"
        "  assign out = in;\n"
        "endmodule\n"
    )


def test_rewrite_whole_sink_reversal_stays_as_written():
    # Verilog has no reversed part select: the planned concat of
    # one-bit selects is the sink's own value, so nothing is rewritten
    src = (
        "module m(input [2:0] in, output [2:0] out);\n"
        "  assign out = {in[0], in[1], in[2]};\n"
        "endmodule\n"
    )
    m = _module(src)
    pm = detect_permutation(m, m.outputs["out"])
    assert pm.bits == [2, 1, 0]
    rw = ModuleRewriter(m)
    chunks, changed = vectorize_output(rw, m.outputs["out"])
    assert [c.method for c in chunks] == ["bit-permutation"]
    assert not changed
    out, report = run_pipeline(parse_design(src))
    assert report.rewrites == []
    assert emit_module(out.top_module) == src


def test_trace_visit_counter_within_depth_bound():
    m = _module(
        "module m(input [7:0] in, output [7:0] out);\n"
        "  assign out[0] = in[7];\n"
        "  assign out[1] = in[6];\n"
        "  assign out[2] = in[5];\n"
        "  assign out[3] = in[4];\n"
        "  assign out[4] = in[3];\n"
        "  assign out[5] = in[2];\n"
        "  assign out[6] = in[1];\n"
        "  assign out[7] = in[0];\n"
        "endmodule"
    )
    counters = PassCounters()
    chunks, _ = vectorize_output(ModuleRewriter(m), m.outputs["out"],
                                 counters)
    assert [c.method for c in chunks] == ["bit-permutation"]
    depth = max(metrics(m).max_depth, 2)  # routing ops count as steps
    assert counters.trace_visits <= 8 * depth
