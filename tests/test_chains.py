"""Variadic ``and``/``or``/``xor``/``add``: a hand-written chain is one
operation from parse to check, and every layer reads it as the chain of
binary operations it stands for, so that counts, emitted bytes and
compiled gates are those of that binary chain."""

import random

import pytest

import corpus_digest
import wordlevel
from busweaver import emit_design, parse_design, run_pipeline
from busweaver.cones import backward_cone
from busweaver.emitter import emit_module
from busweaver.ir import (
    compile_module,
    compile_packed,
    count_instructions,
    simulate,
)
from busweaver.pipeline import vectorize_output
from busweaver.rewrite import ModuleRewriter, binary_form, live_order


def _inputs_chain(n: int, op: str = "^") -> str:
    """``y = i0 op i1 op .. op i(n-1)`` over ``n`` one-bit inputs."""
    ports = ", ".join(f"input i{k}" for k in range(n))
    terms = f" {op} ".join(f"i{k}" for k in range(n))
    return f"module m({ports}, output y);\n  assign y = {terms};\nendmodule\n"


@pytest.mark.parametrize("terms", [3, 2000])
def test_a_flat_chain_is_one_operation_that_counts_its_nodes(terms):
    design = parse_design(_inputs_chain(terms))
    ops = design.top_module.operations
    assert [op.kind for op in ops] == ["input"] * terms + ["xor"]
    assert [ref.op for ref in ops[-1].operands] == list(range(terms))
    assert count_instructions(design.top_module) == terms - 1
    _, report = run_pipeline(design)
    assert report.instructions_before == terms - 1


_M = ("module m(input [3:0] a, input [3:0] b, input [3:0] c,"
      " input [3:0] d, output [3:0] y);\n")

#: right-hand side -> what the binary chains emitted, and the arities
_SPELLINGS = {
    "a ^ b ^ c": ("a ^ b ^ c", [3]),
    "(a ^ b) ^ c": ("a ^ b ^ c", [3]),
    "a ^ (b ^ c)": ("a ^ (b ^ c)", [2, 2]),
    "a + b - c": ("a + b - c", [2, 2]),
    "a - b + c + d": ("a - b + c + d", [2, 3]),
    "(a & b) | c | d": ("a & b | c | d", [2, 3]),
}


@pytest.mark.parametrize("rhs", list(_SPELLINGS))
def test_chains_emit_as_their_binary_form(rhs):
    text, arities = _SPELLINGS[rhs]
    design = parse_design(f"{_M}  assign y = {rhs};\nendmodule\n")
    ops = design.top_module.operations
    assert [len(op.operands) for op in ops if op.kind != "input"] == arities
    emitted = emit_design(design)
    assert f"  assign y = {text};\n" in emitted
    assert emit_design(parse_design(emitted)) == emitted


def test_a_chain_past_the_depth_limit_is_cut_where_its_binary_form_was():
    design = parse_design(_inputs_chain(200))
    # the binary chain numbered its node of i0 .. i121 242, after the
    # inputs and nodes before it
    want = "\n".join(
        ["module m("] + [f"  input i{k}," for k in range(200)]
        + ["  output y", ");", "  wire t242;",
           "  assign t242 = " + " ^ ".join(f"i{k}" for k in range(122))
           + ";",
           "  assign y = t242 ^ " + " ^ ".join(
               f"i{k}" for k in range(122, 200)) + ";",
           "endmodule", ""])
    assert emit_design(design) == want
    assert emit_design(run_pipeline(design)[0]) == want
    assert emit_design(parse_design(want)) == want


def test_a_chain_whose_last_node_passes_the_depth_limit_is_named():
    # 122 terms: the chain's value is its 121st node, which the binary
    # chain cut and numbered 242
    terms = " ^ ".join(f"i{k}" for k in range(122))
    ports = ", ".join(f"input i{k}" for k in range(122))
    text = emit_design(parse_design(
        f"module m({ports}, output y);\n  assign y = ~({terms});\n"
        "endmodule\n"))
    assert text.endswith(f"  wire t242;\n  assign t242 = {terms};\n"
                         "  assign y = ~t242;\nendmodule\n")


def test_lanes_of_different_arity_form_no_family():
    # bits 3 and 2 are 3-term chains, bits 1 and 0 two-term ones
    design = parse_design(
        _M + "".join(f"  assign y[{k}] = a[{k}] ^ b[{k}]"
                     f"{f' ^ c[{k}]' if k > 1 else ''};\n" for k in range(4))
        + "endmodule\n")
    module = design.top_module
    rw = ModuleRewriter(module)
    y = module.outputs["y"]
    cones = [backward_cone(rw, y, k) for k in range(4)]
    assert cones[0].skeleton == cones[1].skeleton
    assert cones[2].skeleton == cones[3].skeleton
    assert cones[1].skeleton != cones[2].skeleton
    chunks, changed = vectorize_output(rw, y)
    assert changed
    assert [(c.high, c.low, c.method) for c in chunks] \
        == [(3, 2, "structural"), (1, 0, "structural")]


#: a chain with parenthesized chains inside -> what the fold made of
#: the binary trees: the text, and the instructions before and after
_NESTED_FOLDS = {
    "a[0] ^ (b[0] ^ a[1]) ^ b[1] ^ (a[2] ^ (b[2] ^ c))":
        ("^a[2:0] ^ ^b[2:0] ^ c", 12, 6),
    "a[3] & (b[0] & a[1] & a[2]) & c & (b[1] & a[0])":
        ("&a & &b[1:0] & c", 12, 5),
    "(a[0] | b[3]) | (a[1] | (b[2] | c)) | a[3] | a[2]":
        ("|a | |b[3:2] | c", 12, 5),
    "a[0] ^ (a[0] ^ b[1]) ^ (b[1] ^ (c ^ c)) ^ b[2]": ("b[2]", 9, 1),
}


@pytest.mark.parametrize("rhs", list(_NESTED_FOLDS))
def test_the_fold_of_a_nested_tree_builds_what_the_binary_tree_folded_to(
        rhs):
    text, before, after = _NESTED_FOLDS[rhs]
    design = parse_design("module m(input [3:0] a, input [3:0] b, input c,"
                          f" output y);\n  assign y = {rhs};\nendmodule\n")
    out, report = run_pipeline(design)
    assert f"  assign y = {text};\n" in emit_design(out)
    assert (report.instructions_before, report.instructions_after) \
        == (before, after)
    assert [s.sink for s in report.sinks] == ["y"]


def test_the_binary_form_writes_each_chain_as_its_binary_operations():
    design = parse_design(
        "module m(input [3:0] a, input [3:0] b, input [3:0] c,"
        " output [3:0] y, output [3:0] z);\n"
        "  assign y = a & (b | c | a) & c & b;\n"
        "  assign z = (a ^ b) + c + a;\nendmodule\n")
    module = design.top_module
    binary = binary_form(module)
    assert all(len(op.operands) <= 2 for op in binary.operations)
    assert count_instructions(binary) == count_instructions(module) == 8
    assert live_order(binary) == list(range(len(binary.operations)))
    for a, b, c in [(3, 5, 9), (15, 0, 7), (6, 6, 1)]:
        values = {"a": a, "b": b, "c": c}
        assert simulate(binary, values) == simulate(module, values) == {
            "y": a & (b | c | a) & c & b, "z": ((a ^ b) + c + a) % 16}


def _chained_designs():
    """Word-level designs and cone families, parsed and as the pipeline
    left them, whose modules hold chains nested in chains."""
    sources = [source for _, source in wordlevel.cases(range(60))]
    sources += [corpus_digest.corpus.cones(random.Random(seed), 5)[0]
                for seed in range(20)]
    for source in sources:
        design = parse_design(source)
        yield design
        yield run_pipeline(design)[0]


def test_chains_emit_and_compile_as_their_binary_form():
    # the binary form is the module the program built before a chain was
    # one operation: the emitter and the compiler give its text and
    # gates, whether they read the chains as they are or through it
    chained = 0
    for design in _chained_designs():
        programs = compile_packed(design)
        for name, module in design.modules.items():
            binary = binary_form(module)
            if len(binary.operations) == len(module.operations):
                continue  # no chain
            chained += 1
            assert emit_module(module) == emit_module(binary)
            callees = {callee: programs[callee] for callee in programs
                       if callee != name}
            want = compile_module(binary, callees)
            got = compile_module(module, callees)
            assert (got.gates, got.outputs) == (want.gates, want.outputs)
    assert chained > 50
