"""End-to-end pipeline behaviour: chunk tiling, categories, report
fields, counter bounds, and byte-level idempotence."""

import random

import pytest

from busweaver import (
    check_equivalence,
    emit_design,
    parse_design,
    rewrite,
    run_pipeline,
)
from busweaver.cones import backward_cone
from busweaver.inliner import InlinePolicy
from busweaver.oracle import check_design_equivalence
from busweaver.ir import (
    HwDesign,
    HwModule,
    ModuleBuilder,
    Operation,
    Port,
    ValueRef,
    count_instructions,
    metrics,
    simulate,
    verify,
)
from busweaver.pipeline import (
    PassCounters,
    VectorizationError,
    vectorize_output,
)
from busweaver.reporting import BatchOptions, process_design
from busweaver.rewrite import ModuleRewriter, live_order
from generators import (
    nested_instance_design,
    permutation_design,
    replicated_cone_design,
    ripple_carry_design,
)
import corpus_digest
import hierarchies
import opcount
from reference import detect_permutation, is_independent, is_isomorphic


def _pipeline(src, **kwargs):
    design = parse_design(src)
    out, report = run_pipeline(design, **kwargs)
    return design, out, report


def _vectorize(module, target, counters=None):
    """One sink through a fresh session: the chunks and the flag."""
    return vectorize_output(ModuleRewriter(module), target, counters)


def test_partial_chunking_tiles_mixed_sink(golden_dir):
    design = parse_design((golden_dir / "partial_mix.v").read_text())
    module = design.top_module
    counters = PassCounters()
    chunks, changed = _vectorize(module, module.outputs["out"], counters)
    assert changed
    assert [(c.high, c.low, c.method) for c in chunks] == [
        (3, 1, "bit-permutation"),
        (0, 0, "scalar"),
    ]
    # chunks tile the sink exactly, MSB first
    assert chunks[0].width + chunks[1].width == 4
    assert counters.partial_candidates == 2


def test_partial_takes_widest_window_first():
    # [3:1] is a valid permutation window, so the narrower [3:2] must
    # never be chosen even though it would also match.
    src = """
    module w(input [3:0] a, input s, output [3:0] out);
      assign out[3] = a[1];
      assign out[2] = a[3];
      assign out[1] = a[2];
      assign out[0] = s & a[0];
    endmodule
    """
    design = parse_design(src)
    module = design.top_module
    counters = PassCounters()
    chunks, _ = _vectorize(module, module.outputs["out"], counters)
    assert [(c.high, c.low) for c in chunks] == [(3, 1), (0, 0)]
    assert counters.partial_candidates == 2


def test_disjoint_windows_get_separate_methods():
    src = """
    module two_windows(input [1:0] a, input [1:0] b, input [1:0] c,
                       output [3:0] out);
      assign out[3] = b[0];
      assign out[2] = b[1];
      assign out[1] = a[1] & c[1];
      assign out[0] = a[0] & c[0];
    endmodule
    """
    design, out, report = _pipeline(src)
    (sink,) = report.sinks
    assert [(c.high, c.low, c.method) for c in sink.chunks] == [
        (3, 2, "bit-permutation"),
        (1, 0, "structural"),
    ]
    assert sink.category == "mixed"
    assert "assign out = {{b[0], b[1]}, a & c};" in emit_design(out)
    result = check_equivalence(design.top_module, out.top_module)
    assert result.status == "equivalent-exhaustive"


def test_category_labels():
    src = """
    module mix(input [3:0] a, input [3:0] b, output [3:0] p,
               output [3:0] q);
      assign p[0] = a[1];
      assign p[1] = a[2];
      assign p[2] = a[3];
      assign p[3] = a[0];
      assign q[0] = a[0] ^ b[0];
      assign q[1] = a[1] ^ b[1];
      assign q[2] = a[2] ^ b[2];
      assign q[3] = a[3] ^ b[3];
    endmodule
    """
    _, out, report = _pipeline(src)
    assert [(s.sink, s.category) for s in report.sinks] == [
        ("p", "bit-level"),
        ("q", "structural"),
    ]
    emitted = emit_design(out)
    assert "assign p = {a[0], a[3:1]};" in emitted
    assert "assign q = a ^ b;" in emitted


# A full window of distinct, contiguous bits of one input that does not
# start at source bit 0, written as a nested concat so that the rewrite
# changes the sink: (the expression read, the expression emitted).
_OFF_ZERO_WINDOWS = {
    "ascending": ("{{a[5], a[4]}, {a[3], a[2]}}", "a[5:2]"),
    "descending": ("{{a[2], a[3]}, {a[4], a[5]}}", "{a[2], a[3], a[4], a[5]}"),
    "shuffled": ("{{a[3], a[5]}, {a[2], a[4]}}", "{a[3], a[5], a[2], a[4]}"),
}


@pytest.mark.parametrize("case", sorted(_OFF_ZERO_WINDOWS))
def test_off_zero_window_is_one_permutation_chunk(case):
    # stepping by +-1 or shuffled, the window gets one label
    expr, want = _OFF_ZERO_WINDOWS[case]
    src = (f"module m(input [7:0] a, output [3:0] out);\n"
           f"  assign out = {expr};\nendmodule\n")
    counters = PassCounters()
    _, out, report = _pipeline(src, counters=counters)
    (sink,) = report.sinks
    assert [(c.high, c.low, c.method) for c in sink.chunks] == [
        (3, 0, "bit-permutation")
    ]
    assert sink.changed and sink.category == "bit-level"
    assert counters.partial_candidates == 0
    text = emit_design(out)
    assert text == (f"module m(input [7:0] a, output [3:0] out);\n"
                    f"  assign out = {want};\nendmodule\n")
    out2, report2 = run_pipeline(parse_design(text))
    assert report2.rewrites == []
    assert emit_design(out2) == text


def test_dead_operations_count_as_written():
    # parse_design leaves no dead operations, but a design built through
    # the API may: they count before, and the callee's one compaction
    # drops them before any site sizes or copies it
    cell = ModuleBuilder("cell", [Port("x", "input", 1),
                                  Port("z", "output", 1)])
    x = cell.input_ref("x", 1)
    cell.binary("and", x, x)  # read by nothing
    cell_module = cell.finish({"z": cell.not_(x)}, {})
    top = ModuleBuilder("top", [Port("a", "input", 2),
                                Port("y", "output", 2)])
    a = top.input_ref("a", 2)
    bits = [
        top.instance("cell", f"u{k}", [top.extract(a, k, 1)], ("x",),
                     (("z", 1),))
        for k in range(2)
    ]
    top_module = top.finish({"y": top.concat(bits[::-1])}, {})
    design = HwDesign({"cell": cell_module, "top": top_module}, "top")
    out, report = run_pipeline(design)
    assert count_instructions(cell_module) == 2
    assert report.instructions_before == sum(
        count_instructions(m) for m in design.modules.values())
    assert [d.callee_size for d in report.inline_log] == [1, 1]
    assert count_instructions(out.modules["cell"]) == 1
    assert emit_design(out).split("endmodule")[1].strip() == (
        "module top(input [1:0] a, output [1:0] y);\n  assign y = ~a;"
    )


def test_a_callee_that_received_sites_is_copied_as_it_compacts():
    # every callee is sized and copied as it compacts: cell's dead
    # operation is gone from the body that mid's site sizes and copies,
    # and mid's own and the cell site it inlined from the body that
    # top's sites do
    cell = ModuleBuilder("cell", [Port("x", "input", 1),
                                  Port("z", "output", 1)])
    x = cell.input_ref("x", 1)
    cell.binary("and", x, x)  # read by nothing
    mid = ModuleBuilder("mid", cell.ports)
    x = mid.input_ref("x", 1)
    mid.binary("or", x, x)  # read by nothing
    inst = mid.instance("cell", "u", [x], ("x",), (("z", 1),))
    top = ModuleBuilder("top", [Port("a", "input", 2),
                                Port("y", "output", 2)])
    a = top.input_ref("a", 2)
    bits = [
        top.instance("mid", f"m{k}", [top.extract(a, k, 1)], ("x",),
                     (("z", 1),))
        for k in range(2)
    ]
    design = HwDesign({
        "cell": cell.finish({"z": cell.not_(cell.input_ref("x", 1))}, {}),
        "mid": mid.finish({"z": mid.not_(inst)}, {}),
        "top": top.finish({"y": top.concat(bits[::-1])}, {}),
    }, "top")
    out, report = run_pipeline(design)
    assert [(d.callee, d.inlined, d.callee_size)
            for d in report.inline_log] == [
        ("cell", True, 1), ("mid", True, 2), ("mid", True, 2)
    ]
    for name in ("mid", "top"):
        assert sum(op.kind in ("and", "or") for op in
                   out.modules[name].operations) == 0
    for verdict in check_design_equivalence(design, out).values():
        assert verdict.status == "equivalent-exhaustive"


_SLICED_WIRES = {
    # each slice of w folds into a slice of w's driver, leaving w's own
    # operation unread
    "extract": "wire [3:0] w;\n  assign w = x[5:2];\n  assign y = w[1:0];",
    "const": "wire [3:0] w;\n  assign w = 4'b1001;\n"
             "  assign y = w[1:0] ^ x[1:0];",
    "chained": "wire [5:0] v;\n  wire [3:0] w;\n  assign v = x[7:2];\n"
               "  assign w = v[4:1];\n  assign y = w[1:0];",
}


@pytest.mark.parametrize("shape", sorted(_SLICED_WIRES))
def test_parsed_sliced_wire_leaves_no_dead_operation(shape):
    body = _SLICED_WIRES[shape]
    design = parse_design(f"module m(input [7:0] x, output [1:0] y);\n"
                          f"  {body}\nendmodule\n")
    module = design.top_module
    assert len(live_order(module)) == len(module.operations)
    for policy in (InlinePolicy(), InlinePolicy(enabled=False)):
        _, report = run_pipeline(design, policy)
        assert report.rewrites == []
        assert report.instructions_before == count_instructions(module)
        assert report.instructions_before == report.instructions_after
        assert report.reduction_percent == 0.0


def test_parsed_sliced_wire_callee_is_sized_live():
    # the callee's one live operation is the slice x[3:2]; counting the
    # wire's unread x[5:2] as well would put it at the threshold
    design = parse_design(
        "module cell(input [7:0] x, output [1:0] y);\n"
        f"  {_SLICED_WIRES['extract']}\nendmodule\n"
        "module top(input [7:0] a, output [1:0] b);\n"
        "  cell u(.x(a), .y(b));\nendmodule\n"
    )
    out, report = run_pipeline(design, InlinePolicy(threshold=2))
    assert [(d.callee_size, d.inlined) for d in report.inline_log] == [
        (1, True)]
    assert "  assign b = a[3:2];\n" in emit_design(out)


def test_carry_chain_stays_scalar():
    design, out, report = _pipeline(ripple_carry_design(4))
    assert report.rewrites == []
    for sink in report.sinks:
        assert all(c.method == "scalar" for c in sink.chunks)
        assert sink.category is None
    assert report.instructions_after == report.instructions_before


def test_internal_wire_sinks_are_vectorized():
    src = """
    module m(input [3:0] a, input [3:0] b, output [3:0] y);
      wire [3:0] t;
      assign t[0] = a[0] & b[0];
      assign t[1] = a[1] & b[1];
      assign t[2] = a[2] & b[2];
      assign t[3] = a[3] & b[3];
      assign y = ~t;
    endmodule
    """
    design, out, report = _pipeline(src)
    # outputs are visited before wires
    assert [s.sink for s in report.sinks] == ["y", "t"]
    assert [s.changed for s in report.sinks] == [False, True]
    assert report.sinks[1].category == "structural"
    assert "assign t = a & b;" in emit_design(out)
    assert report.instructions_after == 2
    result = check_equivalence(design.top_module, out.top_module)
    assert result.status == "equivalent-exhaustive"


def test_single_bit_sinks_are_skipped():
    src = """
    module m(input a, input b, output y);
      assign y = a & b;
    endmodule
    """
    _, _, report = _pipeline(src)
    assert report.sinks == []


def test_report_reduction_fields(golden_dir):
    _, _, report = _pipeline((golden_dir / "partial_mix.v").read_text())
    assert report.instructions_before == 5
    assert report.instructions_after == 3
    assert report.reduction_percent == pytest.approx(40.0)
    assert len(report.rewrites) == 1


def test_inlining_assisted_rewrites(golden_dir):
    _, out, report = _pipeline((golden_dir / "intermodule_buf.v").read_text())
    assert [d.callee for d in report.inline_log if d.inlined] == ["my_buf"] * 4
    assert [s.module for s in report.inlining_assisted] == ["top4"]
    assert "assign out = in;" in emit_design(out)


def test_partial_candidates_hit_quadratic_bound_exactly():
    # the all-scalar 4-bit sum sink explores every window once:
    # 3 + 2 + 1 = n*(n-1)/2 candidates
    counters = PassCounters()
    run_pipeline(parse_design(ripple_carry_design(4)), counters=counters)
    assert counters.partial_candidates == 6


def _reference_plan(module, target):
    """The planner's specification: every ``(i, j)`` window analysed
    from scratch, widest first, the permutation test before the
    structural one.  Returns the tiling and the partial candidates
    charged; a one-chunk plan charges none."""

    def structural(lo, hi):
        cones = [backward_cone(module, target, b) for b in range(lo, hi + 1)]
        return is_independent(cones) and is_isomorphic(cones) is not None

    n = target.width
    plans, candidates = [], 0
    i = n - 1
    while i >= 0:
        for j in range(i):
            candidates += 1
            if detect_permutation(
                module, target, lo=j, width=i - j + 1, anchored=False
            ) is not None:
                plans.append((i, j, "bit-permutation"))
                break
            if structural(j, i):
                plans.append((i, j, "structural"))
                break
        else:
            plans.append((i, i, "scalar"))
            i -= 1
            continue
        i = j - 1
    return plans, candidates if len(plans) > 1 else 0


def _random_sink(rng, width):
    """A module whose ``out`` is built from runs of permuted input bits,
    repeated input bits, per-bit muxes, ripple-carry bits, lanes sharing
    one gate, constant bits and per-bit xors, each run up to four bits
    wide."""
    wires, exprs = [], []
    while len(exprs) < width:
        run = min(width - len(exprs), rng.randint(1, 4))
        base = rng.randint(0, 8 - run)  # runs overlap in their sources
        lanes = list(range(base, base + run))
        if rng.random() < 0.5:
            lanes.reverse()
        kind = rng.choice(
            ["perm", "repeat", "mux", "carry", "shared", "const", "xor"]
        )
        tag = f"w{len(wires)}"
        if kind == "perm":
            rng.shuffle(lanes)
            exprs += [f"a[{k}]" for k in lanes]
        elif kind == "repeat":
            exprs += [f"a[{base}]"] * run
        elif kind == "mux":
            # a select that varies across lanes rules the family out
            varied = rng.random() < 0.3
            for k in lanes:
                sel = f"a[{k}]" if varied else "s[0]"
                exprs.append(f"{sel} ? b[{k}] : c[{k}]")
        elif kind == "carry":
            carry = "s[1]"
            for m, k in enumerate(lanes):
                wires.append(f"wire {tag}_{m}; assign {tag}_{m} = {carry};")
                exprs.append(f"a[{k}] ^ b[{k}] ^ {tag}_{m}")
                carry = f"(a[{k}] & {tag}_{m})"
        elif kind == "shared":
            wires.append(f"wire {tag}; assign {tag} = s[1] ^ s[2];")
            exprs += [f"{tag} & b[{k}]" for k in lanes]
        elif kind == "const" and rng.random() < 0.5:
            exprs += [f"1'b{rng.randint(0, 1)}"] * run
        elif kind == "const":  # bits of a constant bus
            wires.append(
                f"wire [7:0] {tag}; assign {tag} = 8'd{rng.randint(0, 255)};"
            )
            exprs += [f"{tag}[{k}]" for k in lanes]
        else:
            exprs += [f"a[{k}] ^ c[{k}]" for k in lanes]
    body = [f"  assign out[{k}] = {e};" for k, e in enumerate(exprs)]
    return "\n".join(
        [
            "module r(input [15:0] a, input [15:0] b, input [15:0] c,",
            f"         input [3:0] s, output [{width - 1}:0] out);",
            *("  " + w for w in wires),
            *body,
            "endmodule",
        ]
    )


_PLANNER_CASES = [
    # out[3:1] takes source bits [0,2,1]: a window although [3:2],
    # source bits [0,2], is not, so the scan must look past it
    """
    module gap(input [3:0] a, input s, output [3:0] out);
      assign out[3] = a[1];
      assign out[2] = a[2];
      assign out[1] = a[0];
      assign out[0] = s & a[3];
    endmodule
    """,
    # out[2:0] = a[2:0] is both a permutation and a (leaf) cone family;
    # the permutation wins the tie
    """
    module tie(input [3:0] a, input s, output [3:0] out);
      assign out[3] = s & a[3];
      assign out[2] = a[2];
      assign out[1] = a[1];
      assign out[0] = a[0];
    endmodule
    """,
    # constant bits trace like input bits but never form a permutation
    """
    module cbits(input [3:0] a, input s, output [3:0] out);
      assign out[3:1] = 3'b101;
      assign out[0] = s & a[0];
    endmodule
    """,
]


@pytest.mark.parametrize("case", range(len(_PLANNER_CASES)))
def test_planner_matches_window_loop_on_edge_cases(case):
    module = parse_design(_PLANNER_CASES[case]).top_module
    target = module.outputs["out"]
    counters = PassCounters()
    chunks, _ = _vectorize(module, target, counters)
    plans, candidates = _reference_plan(module, target)
    assert [(c.high, c.low, c.method) for c in chunks] == plans
    assert counters.partial_candidates == candidates
    assert plans == [
        [(3, 1, "bit-permutation"), (0, 0, "scalar")],
        [(3, 3, "scalar"), (2, 0, "bit-permutation")],
        [(3, 1, "structural"), (0, 0, "scalar")],
    ][case]


def test_planner_matches_window_loop_on_random_sinks():
    rng = random.Random(2603)
    methods = set()
    for _ in range(150):
        module = parse_design(_random_sink(rng, rng.randint(2, 12))).top_module
        target = module.outputs["out"]
        counters = PassCounters()
        chunks, _ = _vectorize(module, target, counters)
        plans, candidates = _reference_plan(module, target)
        assert [(c.high, c.low, c.method) for c in chunks] == plans
        assert counters.partial_candidates == candidates
        methods.update(method for _, _, method in plans)
    assert methods == {"bit-permutation", "structural", "scalar"}


def test_partial_cone_visits_grow_quadratically():
    # each bit's cone is built once per sink; a window-by-window
    # planner grows ~16x from 32 to 64 bits
    visits = {}
    for n in (32, 64):
        counters = PassCounters()
        run_pipeline(parse_design(ripple_carry_design(n)), counters=counters)
        assert counters.partial_candidates == n * (n - 1) // 2
        visits[n] = counters.cone_visits
    assert visits[64] <= 5 * visits[32]


def test_trace_visits_bounded_by_bits_times_depth(golden_dir):
    design = parse_design((golden_dir / "permute_general.v").read_text())
    depth = max(metrics(design.top_module).max_depth, 2)
    counters = PassCounters()
    run_pipeline(design, counters=counters)
    assert counters.trace_visits <= 4 * depth


def test_cone_visits_start_below_the_routed_root():
    # each bit routes through out's concat once, to its and (a trace
    # visit); its cone collects the and and routes the and's two
    # operand selects (three cone visits), not the concat again
    counters = PassCounters()
    run_pipeline(parse_design(
        "module m(input [1:0] a, input [1:0] b, output [1:0] out);\n"
        "  assign out[0] = a[0] & b[0];\n"
        "  assign out[1] = a[1] & b[1];\n"
        "endmodule\n"
    ), counters=counters)
    assert (counters.trace_visits, counters.cone_visits) == (2, 6)


def test_invalid_design_is_rejected():
    ops = [
        Operation("input", 1, port="a"),
        Operation("and", 1, [ValueRef(0, 1), ValueRef(1, 1)]),
    ]
    module = HwModule(
        "bad",
        [Port("a", "input", 1), Port("y", "output", 1)],
        ops,
        {"y": ValueRef(1, 1)},
        {},
    )
    with pytest.raises(VectorizationError, match="cycle"):
        run_pipeline(HwDesign({"bad": module}, "bad"))


def test_every_golden_output_verifies_clean(golden_dir):
    for path in sorted(golden_dir.glob("*.v")):
        design = parse_design(path.read_text())
        for policy in (None, InlinePolicy(enabled=False)):
            out, _ = run_pipeline(design, policy)
            assert verify(out) == [], path.name


def test_second_run_is_byte_identical(golden_dir):
    for path in sorted(golden_dir.glob("*.v")):
        if path.name.endswith(".vec.v"):
            continue
        out1, _ = run_pipeline(parse_design(path.read_text()))
        first = emit_design(out1)
        out2, _ = run_pipeline(parse_design(first))
        assert emit_design(out2) == first, path.name


def test_structural_rewrite_reaches_fixpoint(golden_dir):
    # vector code produced by the structural path no longer looks
    # replicated, so a second pass reports nothing at all
    out1, _ = run_pipeline(parse_design((golden_dir / "perbit_mux.v").read_text()))
    out2, report = run_pipeline(parse_design(emit_design(out1)))
    assert report.rewrites == []
    assert emit_design(out2) == emit_design(out1)


_PARTIAL_MIX = """
module pmix(input [3:0] x, input [3:0] a, input [3:0] b, input sel,
            input [2:0] c, output [9:0] out);
  wire t;
  assign t = c[0] & c[2];
  assign out[7] = x[3];
  assign out[6] = x[2];
  assign out[9] = x[0];
  assign out[5] = sel ? a[3] : b[3];
  assign out[0] = c[0] ^ t;
  assign out[2] = sel ? a[0] : b[0];
  assign out[1] = c[1] ^ t;
  assign out[8] = x[1];
  assign out[3] = sel ? a[1] : b[1];
  assign out[4] = sel ? a[2] : b[2];
endmodule
"""


def test_mixed_sink_reaches_fixpoint():
    # on the second run the structural chunk sel ? a : b is one 4-bit
    # value read as scalar bits; they must stay one slice of it
    out1, report1 = run_pipeline(parse_design(_PARTIAL_MIX))
    first = emit_design(out1)
    assert "assign out = {{x[0], x[1], x[3:2]}, sel ? a : b," in first
    assert [(c.high, c.low, c.method) for c in report1.sinks[0].chunks] == [
        (9, 6, "bit-permutation"),
        (5, 2, "structural"),
        (1, 1, "scalar"),
        (0, 0, "scalar"),
    ]
    out2, report2 = run_pipeline(parse_design(first))
    assert emit_design(out2) == first
    assert report2.rewrites == []


_REVERSED_SLOT = """
module m(input [3:0] a, input [2:0] b, output [2:0] out);
  assign out[0] = a[3] ^ b[0];
  assign out[1] = a[2] ^ b[1];
  assign out[2] = a[1] ^ b[2];
endmodule
"""


def _generator_corpus(golden_dir):
    corpus = [
        (path.name, path.read_text())
        for path in sorted(golden_dir.glob("*.v"))
        if not path.name.endswith(".vec.v")
    ]
    # seeds 15, 31 and 46, and width 2 at seeds 1-4 and 6, are full
    # reversals
    corpus += [
        (f"perm{case}", permutation_design(2 + case % 15, seed=case))
        for case in range(64)
    ]
    corpus += [(f"perm2-{s}", permutation_design(2, seed=s)) for s in range(8)]
    corpus += [
        (f"cone{s}", replicated_cone_design(
            2 + s % 6, 1 + s % 4, seed=s, invariant_slots=s % 2 == 0))
        for s in range(8)
    ]
    corpus += [(f"rca{w}", ripple_carry_design(w)) for w in (2, 4, 8)]
    corpus += [
        (f"nested{w}-{k}", nested_instance_design(w, k))
        for w, k in ((2, 1), (4, 20), (4, 200))
    ]
    corpus.append(("reversed-slot", _REVERSED_SLOT))
    return corpus


def _per_bit(width, expr):
    return "\n".join(f"  assign y[{k}] = {expr(k)};" for k in range(width))


# Per-bit logic around values that are not 1-bit logic: each such value
# is a leaf of the cones, as an input is.  Per case: the source, the
# inline policy, the instruction counts before and after, a line of the
# output (or None), and y's tiling and category.
_LEAF_VALUE_CASES = {
    "word-level-op": (
        "module m(input [7:0] a, input [7:0] b, input [7:0] c,\n"
        "         output [7:0] y);\n"
        "  wire [7:0] t;\n"
        "  assign t = a + b;\n"
        f"{_per_bit(8, lambda k: f't[{k}] & c[{k}]')}\n"
        "endmodule\n",
        None, (26, 2), "  assign y = t & c;",
        [(7, 0, "structural")], "structural",
    ),
    # the reduction keeps s6 from being inlined
    "instance-port": (
        "module s6(input [5:0] p, input [5:0] q, output [5:0] s,\n"
        "          output z);\n"
        "  assign s = p + q;\n"
        "  assign z = ^(p & q);\n"
        "endmodule\n"
        "module m(input [5:0] a, input [5:0] b, input [5:0] c,\n"
        "         output [5:0] y);\n"
        "  wire [5:0] o;\n"
        "  s6 u(.p(a), .q(b), .s(o));\n"
        f"{_per_bit(6, lambda k: f'o[{k}] ^ c[{k}]')}\n"
        "endmodule\n",
        None, (22, 5), "  assign y = u_s ^ c;",
        [(5, 0, "structural")], "structural",
    ),
    # t[3] is one leaf in every lane, an invariant select
    "invariant-select-bit": (
        "module m(input [5:0] a, input [5:0] b, input [5:0] c,\n"
        "         input [5:0] d, output [5:0] y);\n"
        "  wire [5:0] t;\n"
        "  assign t = a - b;\n"
        f"{_per_bit(6, lambda k: f't[3] ? c[{k}] : d[{k}] & t[{k}]')}\n"
        "endmodule\n",
        None, (32, 4), "  assign y = t[3] ? c : d & t;",
        [(5, 0, "structural")], "structural",
    ),
    # each lane reads its own instance, so the lanes' leaves differ
    "instance-per-lane": (
        "module cell(input x, input w, output z);\n"
        "  assign z = ~x & w;\n"
        "endmodule\n"
        "module m(input [7:0] a, input [7:0] c, output [7:0] y);\n"
        "  wire [7:0] o;\n"
        + "".join(
            f"  cell u{k}(.x(a[{k}]), .w(c[{k}]), .z(o[{k}]));\n"
            for k in range(8)
        )
        + f"{_per_bit(8, lambda k: f'o[{k}] ^ c[{k}]')}\n"
        "endmodule\n",
        InlinePolicy(enabled=False), (36, 36), None,
        [(k, k, "scalar") for k in range(7, -1, -1)], None,
    ),
    # each lane reads its own reduction, so the lanes' leaves differ
    "reduction-per-lane": (
        "module m(input [31:0] a, input [7:0] c, output [7:0] y);\n"
        f"{_per_bit(8, lambda k: f'(^a[{4 * k + 3}:{4 * k}]) & c[{k}]')}\n"
        "endmodule\n",
        None, (33, 33), None,
        [(k, k, "scalar") for k in range(7, -1, -1)], None,
    ),
    # a rotation of a computed value: its bits are leaf cones, so the
    # structural test takes [6:0] as slices of t; only an input's bits
    # form a bit permutation, so bit 7 stays scalar and the sink is
    # mixed, with the same slices a permutation would give
    "rotated-word": (
        "module m(input [7:0] a, input [7:0] b, output [7:0] y);\n"
        "  wire [7:0] t;\n"
        "  assign t = a + b;\n"
        f"{_per_bit(8, lambda k: f't[{(k + 1) % 8}]')}\n"
        "endmodule\n",
        None, (10, 4), "  assign y = {t[0], t[7:1]};",
        [(7, 7, "scalar"), (6, 0, "structural")], "mixed",
    ),
}


@pytest.mark.parametrize("name", list(_LEAF_VALUE_CASES))
def test_logic_around_leaf_values(name):
    src, policy, counts, line, tiling, category = _LEAF_VALUE_CASES[name]
    design = parse_design(src)
    out, report = run_pipeline(design, policy)
    (sink,) = [s for s in report.sinks if s.sink == "y"]
    assert [(c.high, c.low, c.method) for c in sink.chunks] == tiling
    assert sink.category == category
    assert (report.instructions_before, report.instructions_after) == counts
    text = emit_design(out)
    assert line is None or line in text.splitlines()
    for verdict in check_design_equivalence(design, out).values():
        assert verdict.status.startswith("equivalent"), verdict.status
    # counted as emitted, and a fixpoint
    reparsed = parse_design(text)
    assert sum(
        count_instructions(m) for m in reparsed.modules.values()
    ) == report.instructions_after
    out2, report2 = run_pipeline(reparsed, policy)
    assert emit_design(out2) == text
    assert report2.rewrites == []


def test_counts_match_the_emitted_text(golden_dir):
    # the reported count is what a tool reading the output elaborates,
    # and the output is a fixpoint: a re-run changes no byte and
    # rewrites nothing
    for name, src in _generator_corpus(golden_dir):
        out, report = run_pipeline(parse_design(src))
        text = emit_design(out)
        reparsed = parse_design(text)
        assert sum(
            count_instructions(m) for m in reparsed.modules.values()
        ) == report.instructions_after, name
        out2, report2 = run_pipeline(reparsed)
        assert emit_design(out2) == text, name
        assert report2.rewrites == [], name


_TWO_LEVEL = (
    "module leaf(input a, output y);\n"
    "  assign y = ~a;\n"
    "endmodule\n"
    "module mid(input a, input b, output y);\n"
    "  wire t;\n"
    "  leaf u(.a(a), .y(t));\n"
    "  assign y = t ^ b;\n"
    "endmodule\n"
    "module top(input [3:0] p, input [3:0] q, output [3:0] y);\n"
    + "".join(f"  mid m{k}(.a(p[{k}]), .b(q[{k}]), .y(y[{k}]));\n"
              for k in range(4))
    + "endmodule\n"
)


@pytest.mark.parametrize("no_inline", [False, True])
def test_each_module_is_compacted_once(golden_dir, monkeypatch, no_inline):
    # one session per module, opened by the inliner and finished once by
    # the pipeline: a caller that received inlined sites, even one that
    # is itself inlined (mid in _TWO_LEVEL), is copied and compacted once
    opened, compacted = [], []
    init, compact = ModuleRewriter.__init__, rewrite.compact_module

    def counting_init(self, module):
        opened.append(module.name)
        init(self, module)

    def counting(module, *args):
        compacted.append(module.name)
        return compact(module, *args)

    monkeypatch.setattr(ModuleRewriter, "__init__", counting_init)
    monkeypatch.setattr(rewrite, "compact_module", counting)
    policy = InlinePolicy(enabled=not no_inline)
    corpus = [*_generator_corpus(golden_dir),
              ("nested8-2", nested_instance_design(8, 2)),
              ("two-level", _TWO_LEVEL)]
    for name, src in corpus:
        design = parse_design(src)
        opened.clear()
        compacted.clear()
        _, report = run_pipeline(design, policy)
        assert sorted(opened) == sorted(compacted) \
            == sorted(design.modules), name
    inlined = {(d.caller, d.callee) for d in report.inline_log if d.inlined}
    assert inlined == (set() if no_inline
                       else {("mid", "leaf"), ("top", "mid")})


#: Seeds past the first 100 whose output a re-run changed while the
#: reduction fold ran once after the planner, per policy.
_FOLD_THEN_PLAN = {
    "default": [266, 572, 756],
    "threshold 3": [340, 756, 935, 1938],
    "threshold 400": [266, 572, 756],
    "off": [],
}


@pytest.mark.parametrize("policy", list(hierarchies.POLICIES))
def test_random_hierarchies_are_fixpoints(policy):
    # verified clean, equivalent, counted as the text parses, and a
    # re-run on the text gives the same bytes
    failures = [message for seed in [*range(100), *_FOLD_THEN_PLAN[policy]]
                for message in hierarchies.check(seed, policy)]
    assert failures == []


def test_lanes_that_a_fold_makes_regular_vectorize_in_one_run():
    # each w[k] is a per-lane mux select, so the lanes of y stay scalar
    # until the fold cancels ^ w[k] ^ w[k]; the next round plans them
    src = "module m(input [3:0] a, input [3:0] b, input [3:0] c,"
    src += " output [3:0] y);\n  wire [3:0] w;\n" + "".join(
        f"  assign w[{k}] = a[{k}] ? b[{k}] : c[{k}];\n"
        f"  assign y[{k}] = b[{k}] & (c[{k}] ^ w[{k}] ^ w[{k}]);\n"
        for k in range(4)) + "endmodule\n"
    d, out, report = _pipeline(src)
    text = emit_design(out)
    assert "  assign y = b & c;\n" in text
    assert report.instructions_after == 1
    assert [(s.sink, s.category) for s in report.rewrites] == [
        ("y", "structural"), *[("y", "reduction")] * 4]
    assert emit_design(run_pipeline(parse_design(text))[0]) == text
    for verdict in check_design_equivalence(d, out).values():
        assert verdict.status == "equivalent-exhaustive"


@pytest.mark.parametrize(
    "workload", [*corpus_digest.corpus.WORKLOADS, "hierarchies"])
def test_the_corpus_digest_is_stable(workload):
    # tests/corpus_digest.py compares two source trees by these lines,
    # the workload's and one per policy, so two runs of one tree agree
    if workload == "hierarchies":
        cases = corpus_digest.hierarchy_cases(range(6))
        record = corpus_digest.hierarchy_record
    else:
        cases = [(c.name, c.source) for c in
                 corpus_digest.corpus.build(workload, 5, smoke=True)]
        record = corpus_digest.run_record
    value, lines = corpus_digest.workload_lines(workload, cases, record)
    assert (value, lines) == corpus_digest.workload_lines(workload, cases,
                                                          record)
    assert [line.split(": ")[0] for line in lines[1:]] == [
        f"  {workload} | {name}" for name in corpus_digest.POLICIES]
    assert lines[0].endswith(value)


def test_the_bytecode_meter_counts_alike_twice(golden_dir):
    # tests/opcount.py compares two source trees by these counts, each
    # taken in a child process of its own
    cases = {"goldens": [(golden_dir / name).read_text()
                         for name in ("intermodule_buf.v", "partial_mix.v")]}
    counts = opcount.measure(cases)
    assert counts == opcount.measure(cases)
    assert list(counts["goldens"]) == list(opcount.STAGES)
    assert all(count > 0 for count in counts["goldens"].values())


def _bus_chains(widths):
    """The bus-chains shape: one bus per width, every bit driven by its
    own site of a 1-bit ``chain`` cell, ``~~a``, reading that bit of
    ``i``."""
    ports = ["input [7:0] i"] + [f"output [{w - 1}:0] o{k}"
                                 for k, w in enumerate(widths)]
    sites = [f"  chain u{k}_{j}(.a(i[{j}]), .y(o{k}[{j}]));"
             for k, w in enumerate(widths) for j in range(w)]
    return ("module chain(input a, output y);\n  assign y = ~~a;\n"
            f"endmodule\nmodule top({', '.join(ports)});\n"
            + "\n".join(sites) + "\nendmodule\n")


def test_inlining_a_double_negation_costs_no_instructions():
    # spliced, ~~a is a, so every bus is a slice of i; kept as
    # instances, the sites cost a concat per bus and an extract per bit
    # of i.  Copied as two nots per bit, the buses vectorized to two
    # vector nots each: 17 instructions against 14.
    src = _bus_chains((6, 5, 4, 4, 5, 6))
    d, out, on = _pipeline(src)
    _, _, off = _pipeline(src, policy=InlinePolicy(enabled=False))
    assert on.instructions_after <= off.instructions_after
    assert (on.instructions_after, off.instructions_after) == (5, 14)
    assert on.counters.copies_folded == 30  # one per site
    for verdict in check_design_equivalence(d, out).values():
        assert verdict.status == "equivalent-exhaustive"


@pytest.mark.parametrize("length", [150, 151])
def test_a_spliced_not_chain_leaves_at_most_one_not_per_lane(length):
    d, out, report = _pipeline(nested_instance_design(8, length),
                               policy=InlinePolicy(threshold=400))
    assert all(e.inlined for e in report.inline_log)
    nots = sum(op.kind == "not" for op in out.modules["wrapped"].operations)
    assert nots == length % 2  # one vector not, or none
    for verdict in check_design_equivalence(d, out).values():
        assert verdict.status == "equivalent-exhaustive"


@pytest.mark.parametrize("policy", list(hierarchies.POLICIES))
def test_instructions_before_count_what_was_written(policy):
    # the rules apply only where splicing builds: the frontend keeps
    # every ~ of a chain, so the count before is the written one
    for src, nots in ((_bus_chains((4, 4)), 2),
                      (nested_instance_design(4, 150), 150)):
        design = parse_design(src)
        assert count_instructions(design.modules["chain"]) == nots
        written = sum(count_instructions(m) for m in design.modules.values())
        _, report = run_pipeline(design, hierarchies.POLICIES[policy])
        assert report.instructions_before == written


def _instance_chain(depth):
    """``depth`` one-port modules, the top first: each instantiates the
    next, and the last inverts."""
    mods = [
        f"module m{k}(input a, output y);\n"
        f"  m{k + 1} u(.a(a), .y(y));\nendmodule\n"
        for k in range(depth - 1)
    ]
    mods.append(
        f"module m{depth - 1}(input a, output y);\n"
        "  assign y = ~a;\nendmodule\n"
    )
    return "".join(mods)


def test_deep_instance_chain_runs_without_recursion():
    design = parse_design(_instance_chain(2000))
    assert design.top == "m0"
    out, report = run_pipeline(design)
    assert sum(d.inlined for d in report.inline_log) == 1999
    assert "  assign y = ~a;\n" in emit_design(out).split("endmodule")[0]
    out, report = run_pipeline(design, InlinePolicy(enabled=False))
    assert report.inline_log == []
    text = emit_design(out)
    assert text == emit_design(design)
    assert emit_design(parse_design(text)) == text


def test_reference_simulator_runs_a_deep_instance_chain():
    design = parse_design(_instance_chain(1200))
    for a in (0, 1):
        assert simulate(design.top_module, {"a": a}, design) == {"y": 1 - a}


@pytest.mark.parametrize("no_inline", [False, True])
def test_deep_instance_chain_checks_without_recursion(tmp_path, no_inline):
    # the original design keeps its 1,200-deep hierarchy under either
    # policy, and the oracle compiles it callee first
    path = tmp_path / "chain.v"
    path.write_text(_instance_chain(1200))
    result = process_design(
        str(path), BatchOptions(check=True, no_inline=no_inline))
    assert result.error is None
    assert result.ok
    assert result.equivalence == "equivalent-exhaustive"
