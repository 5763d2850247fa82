from busweaver.cones import backward_cone
from busweaver.emitter import emit_module
from busweaver.frontend import parse_design
from busweaver.generators import ripple_carry_design
from busweaver.oracle import check_equivalence
from busweaver.pipeline import vectorize_output
from busweaver.rewrite import ModuleRewriter
from reference import is_independent, is_isomorphic


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
    assert cone.analyzable
    assert len(cone.ops) == 3  # not, and, or
    leaf_ports = {
        m.operations[op_id].port for op_id, _ in cone.leaves
    }
    assert leaf_ports == {"a", "b", "c"}


def test_cone_stops_at_reductions():
    m = _module(
        "module m(input [3:0] a, output out);\n"
        "  assign out = &a;\n"
        "endmodule"
    )
    cone = backward_cone(m, m.outputs["out"], 0)
    assert not cone.analyzable
    assert "not 1-bit logic" in cone.reason


def test_cone_stops_at_vector_ops():
    m = _module(
        "module m(input [3:0] a, input [3:0] b, output [3:0] out);\n"
        "  assign out = a + b;\n"
        "endmodule"
    )
    cone = backward_cone(m, m.outputs["out"], 0)
    assert not cone.analyzable
    assert "4 bits at once" in cone.reason


def test_cone_stops_at_instances():
    m = parse_design(
        "module inv(input x, output z);\n"
        "  assign z = ~x;\n"
        "endmodule\n"
        "module m(input a, output out);\n"
        "  inv u(.x(a), .z(out));\n"
        "endmodule"
    ).modules["m"]
    cone = backward_cone(m, m.outputs["out"], 0)
    assert not cone.analyzable


def test_shared_ops_are_not_independent():
    m = _module(ripple_carry_design(4))
    cones = [backward_cone(m, m.outputs["sum"], b) for b in range(4)]
    assert all(c.analyzable for c in cones)
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
