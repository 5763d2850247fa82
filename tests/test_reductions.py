"""The reduction fold: hand-written xor/and/or chains become one
reduction per source, only where the module then counts fewer
instructions, and the result is checked, counted as emitted and a
fixpoint."""

import random

import pytest

from busweaver import emit_design, parse_design, run_pipeline
from busweaver.ir import count_instructions
from busweaver.oracle import check_design_equivalence
from busweaver.reporting import BatchOptions, process_design


def _fold(src):
    """Pipeline, emit and re-run: the design, the report, the emitted
    text; the re-run must reproduce the text with no rewrite."""
    design = parse_design(src)
    out, report = run_pipeline(design)
    text = emit_design(out)
    again = parse_design(text)
    assert count_instructions(again.top_module) == report.instructions_after
    rerun, rereport = run_pipeline(again)
    assert emit_design(rerun) == text and not rereport.rewrites
    for verdict in check_design_equivalence(design, out).values():
        assert verdict.status == "equivalent-exhaustive"
    return design, report, text


def _module(body, ports="input [7:0] a, input [7:0] b, output y"):
    return f"module m({ports});\n{body}endmodule\n"


def test_pairs_cancel_and_the_bits_left_become_one_reduction():
    _, report, text = _fold(_module(
        "  assign y = a[0] ^ a[3] ^ a[0] ^ a[5] ^ a[4] ^ a[3] ^ a[6];\n"))
    assert "assign y = ^a[6:4];" in text
    assert report.instructions_before == 11  # 5 extracts, 6 xors
    assert report.instructions_after == 2
    [sink] = report.rewrites
    assert (sink.sink, sink.width, sink.category) == ("y", 1, "reduction")
    assert [(c.high, c.low, c.method) for c in sink.chunks] \
        == [(0, 0, "reduction")]


def test_a_chain_whose_pairs_all_cancel_is_constant():
    _, report, text = _fold(_module(
        "  assign y = a[1] ^ a[2] ^ a[2] ^ a[7] ^ a[1] ^ a[7];\n"))
    assert "assign y = 1'b0;" in text
    assert report.instructions_after == 1


def test_and_and_or_collapse_duplicates():
    _, _, text = _fold(_module(
        "  assign y = a[2] & a[0] & a[1] & a[2] & a[3];\n"
        "  assign z = a[7] | a[6] | a[7] | a[5] | a[6] | a[4];\n",
        "input [7:0] a, output y, output z"))
    assert "assign y = &a[3:0];" in text
    assert "assign z = |a[7:4];" in text


def test_scattered_bits_take_the_cheapest_form():
    # a mask is three operations, the concatenation of two runs four
    _, _, text = _fold(_module(
        "  assign y = a[0] ^ a[1] ^ a[5] ^ a[6] ^ a[2];\n"
        "  assign z = b[0] & b[2] & b[4] & b[6];\n",
        "input [7:0] a, input [7:0] b, output y, output z"))
    assert "assign y = ^(a & 8'd103);" in text
    assert "assign z = &(b | 8'd170);" in text
    # with the run slices already there, the concatenation is cheapest
    _, _, text = _fold(_module(
        "  assign y = a[0] ^ a[1] ^ a[5] ^ a[6];\n"
        "  assign z = {a[1:0], a[6:5]};\n",
        "input [7:0] a, output y, output [3:0] z"))
    assert "assign y = ^{a[6:5], a[1:0]};" in text


def test_sources_fold_apart_and_other_leaves_stay():
    _, report, text = _fold(_module(
        "  assign y = a[0] ^ b[1] ^ (a[2] & b[2]) ^ a[1] ^ b[2] ^ a[0]"
        " ^ b[3];\n"))
    assert "assign y = a[1] ^ ^b[3:1] ^ a[2] & b[2];" in text
    assert report.instructions_after < report.instructions_before


@pytest.mark.parametrize("body", [
    "  assign y = a[0] ^ b[0];\n",
    "  assign y = a[0] & b[1] & a[7];\n",
    "  assign y = (a[0] ^ b[0]) | (a[1] ^ b[1]);\n",
])
def test_no_fold_where_nothing_shrinks(body):
    _, report = run_pipeline(parse_design(_module(body)))
    assert not report.rewrites
    assert report.instructions_after == report.instructions_before


def test_two_bits_of_one_source_fold():
    # one xor and two selects become one select and one reduction
    _, report, text = _fold(_module("  assign y = (a[0] ^ a[1]) & b[3];\n"))
    assert "assign y = ^a[1:0] & b[3];" in text
    assert (report.instructions_before, report.instructions_after) == (5, 4)


def test_a_named_wire_bounds_a_tree():
    _, report, text = _fold(_module(
        "  wire w;\n  assign w = a[0] ^ a[1] ^ a[3];\n"
        "  assign y = w ^ a[1] ^ a[2];\n  assign z = w;\n",
        "input [7:0] a, output y, output z"))
    assert "assign w = ^(a & 8'd11);" in text
    assert "assign y = w ^ ^a[2:1];" in text
    # a tree is named after the output it drives, else after its wire
    assert [s.sink for s in report.rewrites] == ["z", "y"]


def test_a_tree_in_a_wider_sink_is_named_after_it():
    _, report, text = _fold(_module(
        "  assign y = {a[0] ^ a[1] ^ a[2], b[4] ^ b[7]};\n",
        "input [7:0] a, input [7:0] b, output [1:0] y"))
    assert [(s.sink, s.category) for s in report.rewrites] \
        == [("y", "reduction")]
    assert "^a[2:0]" in text


def test_random_chains_check_out():
    rng = random.Random(11)
    folded = 0
    for _ in range(60):
        op = rng.choice("^&|")
        terms = [f"{rng.choice('ab')}[{rng.randrange(6)}]"
                 for _ in range(rng.randint(2, 24))]
        if rng.random() < 0.3:
            terms.append(f"(a[{rng.randrange(8)}] + b[{rng.randrange(8)}])")
        body = f"  assign y = {f' {op} '.join(terms)};\n"
        _, report, _ = _fold(_module(body))
        assert report.instructions_after <= report.instructions_before
        if report.rewrites:
            folded += 1
            assert report.instructions_after < report.instructions_before
    assert folded >= 40


def test_a_folded_design_reports_the_reduction_category(tmp_path):
    path = tmp_path / "chain.v"
    path.write_text(_module(
        "  assign y = " + " ^ ".join(f"a[{k % 8}]" for k in range(40))
        + ";\n", "input [7:0] a, output y"))
    result = process_design(str(path), BatchOptions(check=True))
    assert result.ok and result.category == "reduction"
    assert result.equivalence == "equivalent-exhaustive"
    assert result.instructions_after == 1  # every bit read 5 times: ^a
    assert result.sinks[0]["chunks"] == [
        {"high": 0, "low": 0, "method": "reduction"}]


@pytest.mark.parametrize("op", ["^", "&", "|"])
def test_folding_is_idempotent_on_its_own_output(op):
    terms = f" {op} ".join(f"a[{k}]" for k in (0, 2, 3, 2, 6, 0, 7))
    _, _, text = _fold(_module(f"  assign y = {terms};\n",
                               "input [7:0] a, output y"))
    _, report, again = _fold(text)
    assert again == text and not report.rewrites


def test_folding_a_chain_grows_linearly_and_indexes_no_reader():
    """The fold of a T-term chain sets its counts up once, zeroes the
    tree it walked and shifts only its leaves; its one replacement, at
    the top of the module, indexes no operation below it."""
    from busweaver.reductions import fold_reductions
    from busweaver.rewrite import ModuleRewriter

    steps = {}
    for terms in (1000, 2000):
        rng = random.Random(terms)
        bits = [k % 16 for k in range(terms)]
        rng.shuffle(bits)
        design = parse_design(
            "module red(input [15:0] a, output y);\n  assign y = "
            + " ^ ".join(f"a[{k}]" for k in bits) + ";\nendmodule\n")
        rw = ModuleRewriter(design.top_module)
        set_up = sum(rw.live_reads())
        assert fold_reductions(rw) == ["y"]
        steps[terms] = rw.reader_steps
        # the set-up, then one step per node, leaf and dead operation
        assert rw.reader_steps - set_up <= terms + 40
        assert sum(map(len, rw._users.values())) <= 2
        assert rw.live_reads() == _recount(rw)
    assert steps[2000] <= 2.1 * steps[1000]


def _recount(rw):
    """The live-read counts of ``rw``, counted afresh over what
    ``finish`` would keep."""
    uses = [0] * len(rw.operations)
    for ref in rw.outputs.values():
        uses[ref.op] += 1
    for oid in rw.live():
        for ref in rw.operations[oid].operands:
            uses[ref.op] += 1
    return uses
