import random

import pytest

from busweaver.cones import backward_cone, select_slots
from busweaver.emitter import emit_module
from busweaver.frontend import parse_design
from busweaver.inliner import finished_module, selective_inline
from busweaver.ir import instantiation_order
from busweaver.oracle import check_equivalence
from busweaver.pipeline import vectorize_output
from busweaver.rewrite import ModuleRewriter
from generators import ripple_carry_design
from reference import (
    is_independent,
    is_isomorphic,
    select_positions,
    serialize,
    slot_positions,
)
from test_pipeline import _LEAF_VALUE_CASES, _generator_corpus, _random_sink


def _module(src):
    return parse_design(src).top_module


def _vectorize(m):
    rw = ModuleRewriter(m)
    chunks, _ = vectorize_output(rw, m.outputs["out"])
    return rw.finish(), chunks


def test_cone_collects_ops_and_leaves():
    m = _module(
        "module m(input a, input b, input c, output out);\n"
        "  assign out = ((~a) & b) | c;\n"
        "endmodule"
    )
    cone = backward_cone(m, m.outputs["out"], 0)
    assert len(cone.ops) == 3  # not, and, or
    leaf_ports = {
        m.operations[op_id].port for op_id, _ in cone.slots
    }
    assert leaf_ports == {"a", "b", "c"}


def _leaf_cone(m, bit=0):
    """The cone of ``out[bit]``, asserted to be one leaf slot."""
    cone = backward_cone(m, m.outputs["out"], bit)
    assert cone.skeleton == [] and cone.ops == ()
    return cone.slots


def _op_id(m, kind):
    (op_id,) = [k for k, op in enumerate(m.operations) if op.kind == kind]
    return op_id


def test_cone_ends_at_reductions():
    m = _module(
        "module m(input [3:0] a, output out);\n"
        "  assign out = &a;\n"
        "endmodule"
    )
    assert _leaf_cone(m) == [(_op_id(m, "redand"), 0)]


def test_cone_ends_at_vector_ops():
    m = _module(
        "module m(input [3:0] a, input [3:0] b, output [3:0] out);\n"
        "  assign out = a + b;\n"
        "endmodule"
    )
    assert _leaf_cone(m, 2) == [(_op_id(m, "add"), 2)]


def test_cone_ends_at_instances():
    m = parse_design(
        "module inv(input x, output z);\n"
        "  assign z = ~x;\n"
        "endmodule\n"
        "module m(input a, output out);\n"
        "  inv u(.x(a), .z(out));\n"
        "endmodule"
    ).modules["m"]
    assert _leaf_cone(m) == [(_op_id(m, "instance"), 0)]


def test_shared_ops_are_not_independent():
    m = _module(ripple_carry_design(4))
    cones = [backward_cone(m, m.outputs["sum"], b) for b in range(4)]
    assert not is_independent(cones)


def test_disjoint_cones_are_independent():
    m = _module(
        "module m(input [1:0] a, input [1:0] b, output [1:0] out);\n"
        "  assign out[0] = a[0] & b[0];\n"
        "  assign out[1] = a[1] & b[1];\n"
        "endmodule"
    )
    cones = [backward_cone(m, m.outputs["out"], b) for b in range(2)]
    assert is_independent(cones)


def test_skeleton_mismatch_is_not_isomorphic():
    m = _module(
        "module m(input [1:0] a, input [1:0] b, output [1:0] out);\n"
        "  assign out[0] = a[0] & b[0];\n"
        "  assign out[1] = a[1] | b[1];\n"
        "endmodule"
    )
    cones = [backward_cone(m, m.outputs["out"], b) for b in range(2)]
    assert is_isomorphic(cones) is None


def test_shape_classifies_slots():
    m = _module(
        "module m(input [2:0] a, input s, output [2:0] out);\n"
        "  assign out[0] = a[0] & s;\n"
        "  assign out[1] = a[1] & s;\n"
        "  assign out[2] = a[2] & s;\n"
        "endmodule"
    )
    cones = [backward_cone(m, m.outputs["out"], b) for b in range(3)]
    shape = is_isomorphic(cones)
    assert shape is not None
    kinds = sorted(slot.kind for slot in shape.slots)
    assert kinds == ["invariant", "strided"]
    strided = next(s for s in shape.slots if s.kind == "strided")
    assert (strided.base, strided.step) == (0, 1)


def test_descending_stride_is_recognized():
    m = _module(
        "module m(input [2:0] a, input [2:0] b, output [2:0] out);\n"
        "  assign out[0] = a[2] ^ b[0];\n"
        "  assign out[1] = a[1] ^ b[1];\n"
        "  assign out[2] = a[0] ^ b[2];\n"
        "endmodule"
    )
    cones = [backward_cone(m, m.outputs["out"], b) for b in range(3)]
    shape = is_isomorphic(cones)
    assert shape is not None
    steps = sorted(s.step for s in shape.slots)
    assert steps == [-1, 1]


def test_irregular_stride_is_rejected():
    m = _module(
        "module m(input [3:0] a, input [2:0] b, output [2:0] out);\n"
        "  assign out[0] = a[0] ^ b[0];\n"
        "  assign out[1] = a[2] ^ b[1];\n"
        "  assign out[2] = a[3] ^ b[2];\n"
        "endmodule"
    )
    cones = [backward_cone(m, m.outputs["out"], b) for b in range(3)]
    assert is_isomorphic(cones) is None


def test_varying_mux_select_is_rejected():
    m = _module(
        "module m(input [1:0] s, input [1:0] a, input [1:0] b,"
        " output [1:0] out);\n"
        "  assign out[0] = s[0] ? a[0] : b[0];\n"
        "  assign out[1] = s[1] ? a[1] : b[1];\n"
        "endmodule"
    )
    cones = [backward_cone(m, m.outputs["out"], b) for b in range(2)]
    assert is_isomorphic(cones) is None


def test_invariant_mux_select_stays_scalar():
    m = _module(
        "module m(input s, input [1:0] a, input [1:0] b,"
        " output [1:0] out);\n"
        "  assign out[0] = s ? a[0] : b[0];\n"
        "  assign out[1] = s ? a[1] : b[1];\n"
        "endmodule"
    )
    cones = [backward_cone(m, m.outputs["out"], b) for b in range(2)]
    assert is_isomorphic(cones) is not None
    out, chunks = _vectorize(m)
    assert [c.method for c in chunks] == ["structural"]
    assert emit_module(out) == (
        "module m(\n"
        "  input s,\n"
        "  input [1:0] a,\n"
        "  input [1:0] b,\n"
        "  output [1:0] out\n"
        ");\n"
        "  assign out = s ? a : b;\n"
        "endmodule\n"
    )
    assert check_equivalence(m, out).status == "equivalent-exhaustive"


def test_vector_rebuild_replicates_invariant_leaf():
    m = _module(
        "module m(input [2:0] a, input s, output [2:0] out);\n"
        "  assign out[0] = a[0] ^ s;\n"
        "  assign out[1] = a[1] ^ s;\n"
        "  assign out[2] = a[2] ^ s;\n"
        "endmodule"
    )
    out, chunks = _vectorize(m)
    assert [c.method for c in chunks] == ["structural"]
    assert "{3{s}}" in emit_module(out)
    assert check_equivalence(m, out).status == "equivalent-exhaustive"


def test_one_bit_add_canonicalises_to_xor():
    m = _module(
        "module m(input [1:0] a, input [1:0] b, output [1:0] out);\n"
        "  assign out[0] = a[0] + b[0];\n"
        "  assign out[1] = a[1] ^ b[1];\n"
        "endmodule"
    )
    cones = [backward_cone(m, m.outputs["out"], b) for b in range(2)]
    shape = is_isomorphic(cones)
    assert shape is not None  # + and ^ agree at width 1
    out, chunks = _vectorize(m)
    assert [c.method for c in chunks] == ["structural"]
    assert check_equivalence(m, out).status == "equivalent-exhaustive"


def test_reversed_family_maps_descending():
    m = _module(
        "module m(input [2:0] a, output [2:0] out);\n"
        "  assign out[0] = ~a[2];\n"
        "  assign out[1] = ~a[1];\n"
        "  assign out[2] = ~a[0];\n"
        "endmodule"
    )
    cones = [backward_cone(m, m.outputs["out"], b) for b in range(3)]
    (slot,) = is_isomorphic(cones).slots
    assert (slot.kind, slot.base, slot.step) == ("strided", 2, -1)
    out, chunks = _vectorize(m)
    assert [c.method for c in chunks] == ["structural"]
    assert check_equivalence(m, out).status == "equivalent-exhaustive"


def _slot_steps(slot_at, lower, upper):
    """Per slot position (op, operand), whether the corresponding leaf
    of ``upper`` reads the source of the one of ``lower``, and how far
    its bit moved."""
    return {
        key: (upper[k][0] == lower[k][0], upper[k][1] - lower[k][1])
        for key, k in slot_at.items()
    }


def _random_dag_sink(rng, width, gates):
    """A module whose ``out[k]`` is the last of ``gates`` and gates,
    each reading two of the three latest of lane k's input bits and
    gates, so that lanes of one shape often differ in what they
    share."""
    lines = []
    for k in range(width):
        names = [f"a[{k}]", f"b[{k}]"]
        for g in range(gates):
            name = f"g{k}_{g}"
            x, y = rng.choice(names[-3:]), rng.choice(names[-3:])
            lines.append(f"  wire {name};")
            lines.append(f"  assign {name} = {x} & {y};")
            names.append(name)
        lines.append(f"  assign out[{k}] = {names[-1]};")
    return "\n".join([
        f"module d(input [{width - 1}:0] a, input [{width - 1}:0] b,",
        f"         output [{width - 1}:0] out);",
        *lines,
        "endmodule",
    ])


def _random_mux_sink(rng, width, depth):
    """A module whose lanes instantiate one random expression over
    and/or/xor/not and muxes whose selects are themselves expressions,
    with muxes nested inside selects and arms.  A leaf reads lane k's
    bit of ``a``, the mirrored bit of ``b`` or a bit of ``s`` shared by
    every lane, and a lane may also read its wire ``t``, which repeats
    a subexpression; some lanes get an expression of their own."""

    def expr(d, leaves):
        r = rng.random()
        if d == 0 or r < 0.15:
            return rng.choice(leaves)
        args = [expr(d - 1, leaves) for _ in range(3)]
        if r < 0.55:
            return "({} ? {} : {})".format(*args)
        if r < 0.65:
            return f"~{args[0]}"
        return f"({args[0]} {rng.choice('&|^')} {args[1]})"

    leaves = ["a[{k}]", "b[{r}]", "s[0]", "s[1]"]
    shared = expr(depth - 1, leaves), expr(depth, [*leaves, "t{k}"])
    lines = []
    for k in range(width):
        wire, out = (
            shared if rng.random() < 0.8
            else (expr(depth - 1, leaves), expr(depth, [*leaves, "t{k}"]))
        )
        bits = {"k": k, "r": width - 1 - k}
        lines.append(f"  wire t{k};")
        lines.append(f"  assign t{k} = {wire.format(**bits)};")
        lines.append(f"  assign out[{k}] = {out.format(**bits)};")
    return "\n".join([
        f"module x(input [{width - 1}:0] a, input [{width - 1}:0] b,",
        f"         input [1:0] s, output [{width - 1}:0] out);",
        *lines,
        "endmodule",
    ])


def _inlined(design):
    """The modules of ``design`` with every site inlined bottom-up, each
    callee copied as inlined, not vectorized."""
    finished = {}
    for name in instantiation_order(design)[0]:
        rw, _ = selective_inline(design.modules[name], finished)
        finished[name] = finished_module(rw.finish(), finished)
    return [finished[name].module for name in design.modules]


def _differential_cones(golden_dir):
    """Every cone of every multi-bit sink of a corpus of generator
    designs, goldens, designs of logic around reductions, instances and
    word-level ops, and seeded random sinks, before and after inlining,
    as ``(module, sink value, [(bit, cone), ...])`` per sink."""
    rng = random.Random(1307)
    sources = [src for _, src in _generator_corpus(golden_dir)]
    sources += [case[0] for case in _LEAF_VALUE_CASES.values()]
    sources += [_random_sink(rng, rng.randint(2, 12)) for _ in range(100)]
    sources += [_random_dag_sink(rng, 12, 4) for _ in range(50)]
    sources += [
        _random_mux_sink(rng, rng.randint(2, 8), 3) for _ in range(100)
    ]
    for src in sources:
        design = parse_design(src)
        for module in [*design.modules.values(), *_inlined(design)]:
            for ref in [*module.outputs.values(), *module.wires.values()]:
                if ref.width < 2:
                    continue
                yield module, ref, [
                    (b, backward_cone(module, ref, b))
                    for b in range(ref.width)
                ]


def test_walk_skeleton_agrees_with_the_preorder_reference(golden_dir):
    # every pair of bits of every multi-bit sink, before and after
    # inlining: the push-index skeletons are equal exactly when the
    # preorder strings are, and slot k of two cones of one skeleton
    # are the leaves the preorder encoding pairs up
    equal = unequal = 0
    for module, ref, bit_cones in _differential_cones(golden_dir):
        cones = [
            (cone, slot_positions(cone), serialize(module, ref, b))
            for b, cone in bit_cones
        ]
        for a, (cone_a, at_a, ref_a) in enumerate(cones):
            assert {key: cone_a.slots[k] for key, k in at_a.items()} \
                == {key: ref_a[1][k] for key, k in ref_a[2].items()}
            for cone_b, _, ref_b in cones[a + 1:]:
                same = cone_a.skeleton == cone_b.skeleton
                assert same == (ref_a[0] == ref_b[0])
                if not same:
                    unequal += 1
                    continue
                equal += 1
                assert _slot_steps(at_a, cone_a.slots, cone_b.slots) \
                    == _slot_steps(ref_a[2], ref_a[1], ref_b[1])
    assert equal and unequal


def test_select_slots_agree_with_the_module_walk_reference(golden_dir):
    # the select slots read off a skeleton sit at the leaf positions
    # that the (op, context) walk over the module finds below a select
    checked = with_selects = 0
    for module, ref, bit_cones in _differential_cones(golden_dir):
        for b, cone in bit_cones:
            scalar = select_slots(cone.skeleton)
            named = {
                key for key, k in slot_positions(cone).items()
                if k in scalar
            }
            assert named == select_positions(module, ref, b)
            checked += 1
            with_selects += bool(scalar)
    assert checked > 4000 and with_selects > 1000


@pytest.mark.parametrize("wired, plan", [
    (False, [(1, 1, "scalar"), (0, 0, "scalar")]),
    (True, [(1, 0, "structural")]),
])
def test_lanes_differing_only_in_sharing_are_no_family(wired, plan):
    # lane 0 reads one and twice; lane 1 reads two equal ands unless
    # it too reads its and through a wire
    lane1 = "t1 ^ t1" if wired else "(a[1] & b[1]) ^ (a[1] & b[1])"
    m = _module(
        "module m(input [1:0] a, input [1:0] b, output [1:0] out);\n"
        "  wire t0, t1;\n"
        "  assign t0 = a[0] & b[0];\n"
        "  assign t1 = a[1] & b[1];\n"
        "  assign out[0] = t0 ^ t0;\n"
        f"  assign out[1] = {lane1};\n"
        "endmodule"
    )
    out, chunks = _vectorize(m)
    assert [(c.high, c.low, c.method) for c in chunks] == plan
    assert check_equivalence(m, out).status == "equivalent-exhaustive"
