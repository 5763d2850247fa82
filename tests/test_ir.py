import pytest

from busweaver.ir import (
    HwDesign,
    HwModule,
    ModuleBuilder,
    Operation,
    Port,
    ValueRef,
    count_instructions,
    instantiation_cycles,
    metrics,
    simulate,
    simulate_packed,
    verify,
    verify_module,
)


def _ports(*specs):
    return [Port(n, d, w) for n, d, w in specs]


def test_identity_module_has_zero_instructions():
    b = ModuleBuilder("idt", _ports(("in", "input", 4), ("out", "output", 4)))
    v = b.input_ref("in", 4)
    m = b.finish({"out": v}, {})
    assert count_instructions(m) == 0
    assert verify_module(m) == []


def test_scalarized_permutation_counts_five_instructions():
    # Four 1-bit selects repacked by one concat.
    b = ModuleBuilder("p", _ports(("in", "input", 4), ("out", "output", 4)))
    v = b.input_ref("in", 4)
    bits = [b.extract(v, i, 1) for i in (1, 2, 3, 0)]
    m = b.finish({"out": b.concat(list(reversed(bits)))}, {})
    assert count_instructions(m) == 5
    assert verify_module(m) == []


def test_builder_value_numbers_repeated_extracts():
    b = ModuleBuilder("m", _ports(("a", "input", 4), ("y", "output", 1)))
    v = b.input_ref("a", 4)
    assert b.extract(v, 2, 1) == b.extract(v, 2, 1)
    assert b.input_ref("a", 4) == v


def test_builder_routing_folds():
    b = ModuleBuilder("m", _ports(("a", "input", 8), ("y", "output", 8)))
    v = b.input_ref("a", 8)
    assert b.extract(v, 0, 8) == v
    inner = b.extract(v, 2, 4)
    assert b.extract(inner, 1, 2) == b.extract(v, 3, 2)
    assert b.concat([v]) == v
    assert b.reverse(b.reverse(v)) == v
    assert b.reverse(b.extract(v, 3, 1)) == b.extract(v, 3, 1)
    assert b.replicate(v, 1) == v
    c = b.const(0b1010, 4)
    assert b.extract(c, 1, 2) == b.const(0b01, 2)


def test_metrics_counts_and_depth():
    b = ModuleBuilder("m", _ports(("a", "input", 1), ("y", "output", 1)))
    v = b.input_ref("a", 1)
    n1 = b.not_(v)
    m = b.finish({"y": n1}, {})
    got = metrics(m)
    assert got.op_count == 1
    assert got.edge_count == 1
    assert got.max_depth == 1

    b = ModuleBuilder("m", _ports(("a", "input", 1), ("y", "output", 1)))
    v = b.input_ref("a", 1)
    chain = b.not_(b.not_(b.not_(v)))
    m = b.finish({"y": chain}, {})
    assert metrics(m).max_depth == 3


def test_verify_rejects_operand_cycle():
    ops = [
        Operation("input", 1, port="a"),
        Operation("and", 1, [ValueRef(0, 1), ValueRef(1, 1)]),
    ]
    m = HwModule(
        "m",
        _ports(("a", "input", 1), ("y", "output", 1)),
        ops,
        {"y": ValueRef(1, 1)},
        {},
    )
    problems = verify_module(m)
    assert any("cycle or forward reference" in p for p in problems)


def test_verify_rejects_concat_width_mismatch():
    ops = [
        Operation("input", 3, port="a"),
        Operation("input", 1, port="b"),
        Operation("concat", 5, [ValueRef(0, 3), ValueRef(1, 1)]),
    ]
    m = HwModule(
        "m",
        _ports(("a", "input", 3), ("b", "input", 1), ("y", "output", 5)),
        ops,
        {"y": ValueRef(2, 5)},
        {},
    )
    problems = verify_module(m)
    assert any("width" in p for p in problems)


def test_verify_rejects_undriven_output():
    m = HwModule("m", _ports(("y", "output", 1)), [], {}, {})
    problems = verify_module(m)
    assert any("y" in p for p in problems)


def _calls(name, callee):
    """A module whose one output is an instance of ``callee``."""
    b = ModuleBuilder(name, _ports(("a", "input", 1), ("y", "output", 1)))
    v = b.input_ref("a", 1)
    inst = b.instance(callee, "u0", [v], ("a",), (("y", 1),))
    return b.finish({"y": inst}, {})


def test_verify_design_rejects_instantiation_cycle():
    d = HwDesign({"p": _calls("p", "q"), "q": _calls("q", "p")}, top="p")
    problems = verify(d)
    assert any("instantiation cycle" in p for p in problems)


def test_instantiation_cycles_are_the_cycle_messages_of_verify():
    d = HwDesign({"r": _calls("r", "p"), "p": _calls("p", "q"),
                  "q": _calls("q", "p")}, top="r")
    assert instantiation_cycles(d) == ["instantiation cycle: p -> q -> p"]
    assert [p for p in verify(d) if "cycle" in p] == instantiation_cycles(d)
    leaf = ModuleBuilder("q", _ports(("a", "input", 1), ("y", "output", 1)))
    d.modules["q"] = leaf.finish({"y": leaf.input_ref("a", 1)}, {})
    assert instantiation_cycles(d) == []


def test_simulate_routing_and_logic():
    b = ModuleBuilder(
        "m",
        _ports(
            ("a", "input", 4),
            ("b", "input", 4),
            ("rev", "output", 4),
            ("mid", "output", 2),
            ("sum", "output", 4),
        ),
    )
    va = b.input_ref("a", 4)
    vb = b.input_ref("b", 4)
    m = b.finish(
        {
            "rev": b.reverse(va),
            "mid": b.extract(va, 1, 2),
            "sum": b.binary("add", va, vb),
        },
        {},
    )
    got = simulate(m, {"a": 0b1000, "b": 0b1001})
    assert got["rev"] == 0b0001
    assert got["mid"] == 0b00
    assert got["sum"] == (0b1000 + 0b1001) % 16


def test_simulate_mux_and_reduce():
    b = ModuleBuilder(
        "m",
        _ports(
            ("c", "input", 1),
            ("x", "input", 3),
            ("y", "input", 3),
            ("o", "output", 3),
            ("r", "output", 1),
        ),
    )
    vc = b.input_ref("c", 1)
    vx = b.input_ref("x", 3)
    vy = b.input_ref("y", 3)
    m = b.finish(
        {"o": b.mux(vc, vx, vy), "r": b.reduce("redxor", vx)}, {}
    )
    assert simulate(m, {"c": 1, "x": 5, "y": 2})["o"] == 5
    assert simulate(m, {"c": 0, "x": 5, "y": 2})["o"] == 2
    assert simulate(m, {"c": 0, "x": 0b111, "y": 0})["r"] == 1
    assert simulate(m, {"c": 0, "x": 0b101, "y": 0})["r"] == 0


def test_simulate_rejects_missing_input():
    b = ModuleBuilder("m", _ports(("a", "input", 2), ("y", "output", 2)))
    m = b.finish({"y": b.input_ref("a", 2)}, {})
    with pytest.raises(ValueError, match="a"):
        simulate(m, {})


def test_simulate_rejects_overwide_value():
    b = ModuleBuilder("m", _ports(("a", "input", 2), ("y", "output", 2)))
    m = b.finish({"y": b.input_ref("a", 2)}, {})
    with pytest.raises(ValueError, match="width"):
        simulate(m, {"a": 9})


def test_packed_simulation_matches_reference():
    b = ModuleBuilder(
        "m",
        _ports(
            ("a", "input", 3),
            ("b", "input", 3),
            ("y", "output", 3),
            ("z", "output", 3),
        ),
    )
    va = b.input_ref("a", 3)
    vb = b.input_ref("b", 3)
    m = b.finish(
        {
            "y": b.binary("sub", va, vb),
            "z": b.binary("xor", b.not_(va), vb),
        },
        {},
    )
    vectors = [(a, bb) for a in range(8) for bb in range(8)]
    lanes_a = [
        sum(((a >> i) & 1) << k for k, (a, _) in enumerate(vectors))
        for i in range(3)
    ]
    lanes_b = [
        sum(((bb >> i) & 1) << k for k, (_, bb) in enumerate(vectors))
        for i in range(3)
    ]
    packed = simulate_packed(
        m, {"a": lanes_a, "b": lanes_b}, len(vectors)
    )
    for k, (a, bb) in enumerate(vectors):
        plain = simulate(m, {"a": a, "b": bb})
        for port in ("y", "z"):
            got = sum(
                ((packed[port][i] >> k) & 1) << i for i in range(3)
            )
            assert got == plain[port]


def test_verify_duplicate_port_name_checks_against_the_first():
    # the later "a" (an input of width 2) and "y" (an output of width 2)
    # are shadowed: reads and bindings are checked against the first
    ops = [
        Operation("input", 2, port="a"),
        Operation("input", 1, port="b"),
    ]
    m = HwModule(
        "m",
        _ports(("a", "output", 1), ("b", "input", 1), ("a", "input", 2),
               ("y", "output", 1), ("y", "output", 2)),
        ops,
        {"a": ValueRef(1, 1), "y": ValueRef(0, 2)},
        {},
    )
    assert verify_module(m) == [
        "m: duplicate port a",
        "m: duplicate port y",
        "m: %0: no input port named 'a'",
        "m: output y: width mismatch",
    ]
