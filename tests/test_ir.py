import random
from itertools import accumulate

import pytest

import reference
from busweaver.emitter import emit_design
from busweaver.frontend import parse_design
from busweaver.generators import (
    nested_instance_design,
    permutation_design,
    replicated_cone_design,
    ripple_carry_design,
    scaling_design,
)
from busweaver.inliner import InlinePolicy
from busweaver.ir import (
    ALL_KINDS,
    HwDesign,
    HwModule,
    ModuleBuilder,
    Operation,
    Port,
    ValueRef,
    compile_module,
    compile_packed,
    count_instructions,
    instantiation_order,
    metrics,
    simulate,
    simulate_packed,
    verify,
    verify_module,
    with_operands,
)
from busweaver.oracle import check_equivalence
from busweaver.pipeline import VectorizationError, run_pipeline


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
    _, cycles = instantiation_order(d)
    assert cycles == ["instantiation cycle: p -> q -> p"]
    assert [p for p in verify(d) if "cycle" in p] == cycles
    order = []
    assert verify(d, order) == verify(d)
    assert order == instantiation_order(d)[0]
    leaf = ModuleBuilder("q", _ports(("a", "input", 1), ("y", "output", 1)))
    d.modules["q"] = leaf.finish({"y": leaf.input_ref("a", 1)}, {})
    assert instantiation_order(d) == (["q", "p", "r"], [])
    order = []
    assert verify(d, order) == [] and order == ["q", "p", "r"]


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
            "rev": b.concat([b.extract(va, k, 1) for k in range(4)]),
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
        compile_module(m, {}), {"a": lanes_a, "b": lanes_b}, len(vectors)
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


_R = ValueRef


def _verify_parts():
    """The parts of a well-formed design for the violation table below:
    module ``m`` holds one operation of each kind, ids 0 to 11, so an
    appended operation is ``%12``; its callee ``c`` inverts."""
    ops = [
        Operation("input", 4, port="a"),
        Operation("input", 1, port="s"),
        Operation("const", 4, value=5),
        Operation("extract", 2, [_R(0, 4)], low=0),
        Operation("concat", 4, [_R(3, 2), _R(3, 2)]),
        Operation("replicate", 4, [_R(3, 2)], count=2),
        Operation("not", 4, [_R(5, 4)]),
        Operation("and", 4, [_R(4, 4), _R(6, 4)]),
        Operation("mux", 4, [_R(1, 1), _R(7, 4), _R(2, 4)]),
        Operation("redxor", 1, [_R(8, 4)]),
        Operation("instance", 2, [_R(3, 2)], module="c", name="u",
                  in_ports=("p",), out_ports=(("q", 2),)),
        Operation("concat", 4, [_R(10, 2), _R(10, 2)]),
    ]
    callee = HwModule("c", _ports(("p", "input", 2), ("q", "output", 2)),
                      [Operation("input", 2, port="p"),
                       Operation("not", 2, [_R(0, 2)])],
                      {"q": _R(1, 2)}, {})
    return {
        "ports": _ports(("a", "input", 4), ("s", "input", 1),
                        ("y", "output", 4), ("b", "output", 1)),
        "ops": ops,
        "outputs": {"y": _R(8, 4), "b": _R(9, 1)},
        "wires": {"t": _R(11, 4)},
        "modules": {"c": callee},
        "top": "m",
    }


def _verify_design(parts):
    m = HwModule("m", parts["ports"], parts["ops"], parts["outputs"],
                 parts["wires"])
    return HwDesign({**parts["modules"], "m": m}, parts["top"])


def _append(op):
    return lambda parts: parts["ops"].append(op)


def _inst(width, operands):
    return Operation("instance", width, operands, module="c", name="v",
                     in_ports=("p",), out_ports=(("q", 2),))


# one corruption of _verify_parts per message of verify
_VIOLATIONS = {
    "duplicate-port": (lambda p: p["ports"].append(Port("a", "input", 4)),
                       "m: duplicate port a"),
    "port-direction": (lambda p: p["ports"].append(Port("z", "inout", 1)),
                       "m: port z: bad direction inout"),
    "port-width": (lambda p: p["ports"].append(Port("z", "input", 0)),
                   "m: port z: width 0 < 1"),
    "unknown-kind": (_append(Operation("redfoo", 1, [_R(8, 4)])),
                     "m: %12: unknown kind redfoo"),
    "op-width": (_append(Operation("const", 0)), "m: %12: width 0 < 1"),
    "operand-range": (_append(Operation("not", 4, [_R(40, 4)])),
                      "m: %12: operand %40 out of range"),
    "forward-reference": (
        _append(Operation("not", 4, [_R(12, 4)])),
        "m: %12: operand %12 not defined before use"
        " (cycle or forward reference)"),
    "annotation": (_append(Operation("not", 4, [_R(9, 4)])),
                   "m: %12: operand %9 width annotation 4"
                   " != defined width 1"),
    "binary": (_append(Operation("and", 4, [_R(0, 4), _R(3, 2)])),
               "m: %12: and operand width mismatch"),
    "const-operands": (_append(Operation("const", 4, [_R(0, 4)], value=1)),
                       "m: %12: const takes no operands"),
    "const-value": (_append(Operation("const", 2, value=4)),
                    "m: %12: const value 4 out of range"),
    "input-operands": (_append(Operation("input", 4, [_R(0, 4)], port="a")),
                       "m: %12: input takes no operands"),
    "input-port": (_append(Operation("input", 1, port="zz")),
                   "m: %12: no input port named 'zz'"),
    "input-width": (_append(Operation("input", 2, port="a")),
                    "m: %12: input a width 2 != 4"),
    "extract-operands": (
        _append(Operation("extract", 1, [_R(0, 4), _R(0, 4)])),
        "m: %12: extract takes one operand"),
    "extract-range": (_append(Operation("extract", 2, [_R(0, 4)], low=3)),
                      "m: %12: extract [4:3] out of range for width 4"),
    "concat-empty": (_append(Operation("concat", 1)),
                     "m: %12: concat needs operands"),
    "concat-width": (_append(Operation("concat", 5, [_R(0, 4)])),
                     "m: %12: concat width 5 != sum 4"),
    "replicate-count": (
        _append(Operation("replicate", 4, [_R(3, 2)], count=0)),
        "m: %12: bad replicate"),
    "replicate-width": (
        _append(Operation("replicate", 4, [_R(3, 2)], count=3)),
        "m: %12: replicate width 4 != 3 * 2"),
    "not": (_append(Operation("not", 2, [_R(0, 4)])),
            "m: %12: not operand width mismatch"),
    "mux": (_append(Operation("mux", 4, [_R(0, 4), _R(2, 4), _R(2, 4)])),
            "m: %12: mux operand width mismatch"),
    "reduction": (_append(Operation("redand", 2, [_R(0, 4)])),
                  "m: %12: redand must produce one bit"),
    "unresolved": (
        _append(Operation("instance", 2, [_R(3, 2)], module="nope",
                          name="v", in_ports=("p",),
                          out_ports=(("q", 2),))),
        "m: %12: unresolved module 'nope'"),
    "instance-operands": (_append(_inst(2, [])),
                          "m: %12: instance v: 0 operands for 1 input"
                          " ports"),
    "instance-port": (_append(_inst(2, [_R(0, 4)])),
                      "m: %12: instance v: port p width 2 gets 4"),
    "instance-width": (_append(_inst(3, [_R(3, 2)])),
                       "m: %12: instance v: result width 3 != callee"
                       " output width"),
    "instance-in-ports": (
        _append(Operation("instance", 2, [_R(3, 2)], module="c", name="v",
                          in_ports=("r",), out_ports=(("q", 2),))),
        "m: %12: instance v: in_ports ('r',) are not the callee's inputs"
        " ('p',)"),
    "instance-out-ports": (
        _append(Operation("instance", 2, [_R(3, 2)], module="c", name="v",
                          in_ports=("p",), out_ports=(("r", 2),))),
        "m: %12: instance v: out_ports (('r', 2),) are not the callee's"
        " outputs (('q', 2),)"),
    "output-unknown": (lambda p: p["outputs"].update(zz=_R(9, 1)),
                       "m: binding for unknown output 'zz'"),
    "output-value": (lambda p: p["outputs"].update(y=_R(40, 4)),
                     "m: output y: value %40 undefined"),
    "output-width": (lambda p: p["outputs"].update(b=_R(8, 4)),
                     "m: output b: width mismatch"),
    "output-undriven": (lambda p: p["outputs"].pop("b"),
                        "m: output b is not driven"),
    "wire-value": (lambda p: p["wires"].update(t=_R(40, 4)),
                   "m: wire t: value %40 undefined"),
    "wire-width": (lambda p: p["wires"].update(t=_R(9, 4)),
                   "m: wire t: width mismatch"),
    "top": (lambda p: p.update(top="zz"), "top module 'zz' not defined"),
    "module-key": (lambda p: p["modules"].update(k=p["modules"]["c"]),
                   "module key 'k' != module name 'c'"),
}


@pytest.mark.parametrize("name", list(_VIOLATIONS))
def test_verify_reports_each_violation(name):
    corrupt, message = _VIOLATIONS[name]
    parts = _verify_parts()
    assert verify(_verify_design(parts)) == []
    corrupt(parts)
    assert verify(_verify_design(parts)) == [message]


def test_verify_matches_the_reference_on_combined_violations():
    # two or three corruptions at once, appended operations at %12, %13
    # and %14: the messages of different operations, ports and bindings
    # keep the reference's order
    for seed in range(300):
        rng = random.Random(seed)
        parts = _verify_parts()
        for name in rng.sample(sorted(_VIOLATIONS), rng.choice((2, 3))):
            _VIOLATIONS[name][0](parts)
        design = _verify_design(parts)
        got = verify(design)
        assert got and got == reference.verify(design), seed


def test_verify_reports_each_reader_of_a_value_too_narrow_to_exist():
    # the annotations agree, so the widths alone break a rule; a
    # negative count times a negative width is a positive width
    parts = _verify_parts()
    parts["ops"] += [
        Operation("const", 0),
        Operation("not", 0, [_R(12, 0)]),
        Operation("and", 0, [_R(12, 0), _R(13, 0)]),
        Operation("extract", 0, [_R(12, 0)]),
        Operation("replicate", 0, [_R(12, 0)], count=1),
        Operation("concat", 0),
        Operation("input", -2, port="a"),
        Operation("replicate", 2, [_R(18, -2)], count=-1),
    ]
    design = _verify_design(parts)
    assert verify(design) == reference.verify(design) == [
        *(f"m: %{i}: width 0 < 1" for i in range(12, 18)),
        "m: %17: concat needs operands",
        "m: %18: width -2 < 1",
        "m: %18: input a width -2 != 4",
        "m: %19: bad replicate",
    ]


_MUTANT_KINDS = sorted(ALL_KINDS) + ["bogus"]


def _mutant(rng: random.Random, ops: list[Operation], oid: int) -> Operation:
    """A copy of operation ``oid`` of ``ops`` with one field changed at
    random, often into one that breaks a rule of ``verify``."""
    op = ops[oid]
    new = with_operands(op, list(op.operands))
    refs = new.operands
    pick = rng.randrange(9)
    if pick == 0:
        new.kind = rng.choice(_MUTANT_KINDS)
    elif pick == 1:
        new.width = max(0, op.width + rng.choice((-1, 1)))
    elif pick == 2 and refs:
        # another id, another annotation, or another earlier operation
        k = rng.randrange(len(refs))
        j = rng.randrange(max(oid, 1))
        refs[k] = rng.choice((
            _R(rng.randrange(-1, len(ops) + 2), refs[k].width),
            _R(refs[k].op, refs[k].width + 1),
            _R(j, ops[j].width)))
    elif pick == 3:
        if refs and rng.random() < 0.5:
            refs.pop()
        else:
            refs.append(refs[0] if refs else _R(0, 1))
    elif pick == 4:
        new.low += rng.choice((-1, 1))
    elif pick == 5:
        new.count += rng.choice((-1, 1))
    elif pick == 6:
        new.value = rng.choice((-1, 1 << op.width, (1 << op.width) - 1))
    elif pick == 7:
        new.port = rng.choice(("a", "s", "in", "zz"))
    else:
        new.in_ports = new.in_ports[::-1] + rng.choice(((), ("a",)))
        new.out_ports = new.out_ports + rng.choice(((), (("y", 1),)))
    return new


def _generator_designs():
    """Designs of every ``busweaver.generators`` family, parsed, and
    what the pipeline makes of them."""
    designs = []
    for case in range(4):
        rng = random.Random(case)
        for src in (
            permutation_design(rng.randrange(2, 40), case),
            replicated_cone_design(rng.randrange(2, 9), rng.randrange(1, 5),
                                   case),
            replicated_cone_design(rng.randrange(2, 9), 3, case,
                                   invariant_slots=False),
            ripple_carry_design(rng.randrange(1, 12)),
            nested_instance_design(rng.randrange(1, 9), rng.randrange(1, 6)),
            scaling_design(rng.randrange(4, 60)),
        ):
            design = parse_design(src)
            designs += [design, run_pipeline(design)[0],
                        run_pipeline(design, InlinePolicy(enabled=False))[0]]
    return designs


def test_verify_matches_the_reference_on_generated_designs():
    designs = _generator_designs()
    for design in designs:
        assert verify(design) == reference.verify(design) == []
    # and on each with one to three operations changed at random
    parts = _verify_parts()
    designs.append(_verify_design(parts))
    broken = 0
    for seed in range(600):
        rng = random.Random(seed)
        design = rng.choice(designs)
        modules = dict(design.modules)
        for _ in range(rng.randrange(1, 4)):
            name = rng.choice(sorted(modules))
            m = modules[name]
            if not m.operations:
                continue
            ops = list(m.operations)
            oid = rng.randrange(len(ops))
            ops[oid] = _mutant(rng, ops, oid)
            modules[name] = HwModule(m.name, m.ports, ops, m.outputs,
                                     m.wires)
        mutated = HwDesign(modules, design.top)
        got = verify(mutated)
        assert got == reference.verify(mutated), seed
        broken += bool(got)
    assert broken > 300


_LEAF_SITE = """
module leaf(input a, input b, output y, output z);
  assign y = a & b;
  assign z = a ^ b;
endmodule
module top(input p, input q, output o, output u_w);
  leaf u(.a(p), .b(q), .y(o), .z(u_w));
endmodule
"""


@pytest.mark.parametrize(
    "in_ports, out_ports, message",
    [
        (("a", "c"), (("y", 1), ("z", 1)),
         "in_ports ('a', 'c') are not the callee's inputs ('a', 'b')"),
        (("b", "a"), (("y", 1), ("z", 1)),
         "in_ports ('b', 'a') are not the callee's inputs ('a', 'b')"),
        (("a", "b"), (("y", 1), ("w", 1)),
         "out_ports (('y', 1), ('w', 1)) are not the callee's outputs"
         " (('y', 1), ('z', 1))"),
    ],
)
def test_verify_rejects_instance_ports_that_are_not_the_callee_s(
        in_ports, out_ports, message):
    # an API-built site whose port names disagree with its callee: the
    # widths line up, but the text would name ports the callee lacks
    design = parse_design(_LEAF_SITE)
    ops = design.modules["top"].operations
    oid = next(i for i, op in enumerate(ops) if op.kind == "instance")
    site = ops[oid]
    assert (site.in_ports, site.out_ports) == (("a", "b"),
                                               (("y", 1), ("z", 1)))
    ops[oid] = Operation("instance", site.width, site.operands,
                         module="leaf", name="u", in_ports=in_ports,
                         out_ports=out_ports)
    assert verify(design) == [f"top: %{oid}: instance u: {message}"]
    with pytest.raises(VectorizationError):
        run_pipeline(design)


def test_verify_rejects_an_input_with_operands():
    # the pipeline would keep the operand alive and count an
    # instruction that the emitted text, which writes z = b, drops
    m = HwModule(
        "m",
        _ports(("a", "input", 2), ("b", "input", 1), ("z", "output", 1)),
        [Operation("input", 2, port="a"),
         Operation("not", 2, [_R(0, 2)]),
         Operation("input", 1, [_R(1, 2)], port="b")],
        {"z": _R(2, 1)}, {},
    )
    design = HwDesign({"m": m}, "m")
    assert verify(design) == ["m: %2: input takes no operands"]
    assert reference.verify(design) == verify(design)
    with pytest.raises(VectorizationError, match="input takes no operands"):
        run_pipeline(design)


def _assert_packed_matches_reference(design, n_vectors=48, seed=0):
    """Every module's compiled program, evaluated on seeded random
    vectors in one batch, equals ``simulate`` vector by vector."""
    rng = random.Random(seed)
    programs = compile_packed(design)
    for name, module in design.modules.items():
        ins = module.input_ports
        vectors = [{p.name: rng.getrandbits(p.width) for p in ins}
                   for _ in range(n_vectors)]
        lanes = {
            p.name: [
                sum(((v[p.name] >> i) & 1) << k for k, v in enumerate(vectors))
                for i in range(p.width)
            ]
            for p in ins
        }
        packed = simulate_packed(programs[name], lanes, n_vectors)
        for k, v in enumerate(vectors):
            got = {
                port: sum(((lane >> k) & 1) << i for i, lane in enumerate(bits))
                for port, bits in packed.items()
            }
            assert got == simulate(module, v, design), (name, v)


_HAND_DESIGN = """
module cell(input [3:0] a, input [3:0] b, input s,
            output [3:0] sum, output [3:0] diff, output [2:0] r);
  assign sum = a + b;
  assign diff = a - b;
  assign r = {^a, &b, |(a & b)};
endmodule

module mid(input [3:0] a, input s, output [3:0] y, output [3:0] z);
  wire [3:0] k_sum;
  wire [3:0] k_diff;
  wire [2:0] k_r;
  cell k(.a(a), .b(4'd5), .s(s), .sum(k_sum), .diff(k_diff), .r(k_r));
  assign y = s ? k_sum : k_diff;
  assign z = {k_r[1:0], k_diff[3:2]};
endmodule

module top(input [3:0] x, input [3:0] w, input s, input t,
           output [3:0] o1, output [3:0] o2, output [7:0] o3,
           output [3:0] o4, output [3:0] o5, output [3:0] o6,
           output o7);
  wire [3:0] c_sum;
  wire [3:0] c_diff;
  wire [2:0] c_r;
  wire [3:0] m_y;
  wire [3:0] m_z;
  cell c(.a(x), .b(w), .s(s), .sum(c_sum), .diff(c_diff), .r(c_r));
  mid m(.a(w), .s(t), .y(m_y), .z(m_z));
  assign o1 = s ? c_sum : c_diff;
  assign o2 = (x & ~x) | (w ^ w) | (s ? x : x) | (1'b1 ? w : x);
  assign o3 = {{2{c_r[1:0]}}, ~~x};
  assign o4 = (s ? 4'd15 : 4'd0) ^ (t ? x : 4'd0) ^ (s ? 4'd15 : w);
  assign o5 = (x | ~x) ^ (x - x) ^ (w + 4'd0) ^ m_y;
  assign o6 = (t ? 4'd0 : 4'd15) & m_z & {4{^w}};
  assign o7 = &{x, 1'b1} ^ |{w, 1'b0} ^ ^{c_r, 2'd3};
endmodule
"""


def test_compiled_programs_match_reference_on_hand_modules():
    # add, sub, mux, the three reductions, replicate, constants and
    # every fold, through two levels of instances with constant inputs
    design = parse_design(_HAND_DESIGN)
    assert design.top == "top"
    for seed in range(3):
        _assert_packed_matches_reference(design, seed=seed)


@pytest.mark.parametrize("case", range(6))
def test_compiled_programs_match_reference_on_generators(case):
    rng = random.Random(case)
    sources = [
        permutation_design(rng.randrange(2, 40), case),
        replicated_cone_design(rng.randrange(2, 9), rng.randrange(1, 5),
                               case),
        replicated_cone_design(rng.randrange(2, 9), 3, case,
                               invariant_slots=False),
        ripple_carry_design(rng.randrange(1, 12)),
        nested_instance_design(rng.randrange(1, 9), rng.randrange(1, 6)),
    ]
    for src in sources:
        design = parse_design(src)
        _assert_packed_matches_reference(design, seed=case)
        out, _ = run_pipeline(design, InlinePolicy(enabled=False))
        _assert_packed_matches_reference(out, seed=case)


def test_callee_is_substituted_and_folded():
    # 64 sites of a 151-not chain: the callee is one gate, and the top
    # one gate per site
    programs = compile_packed(parse_design(nested_instance_design(64, 151)))
    assert programs["chain"].gates == [("not", 2, 0, 0)]
    assert len(programs["wrapped"].gates) <= 64
    # sites on the same input bit merge; an even chain folds away
    src = nested_instance_design(4, 150).replace("in[1]", "in[0]") \
        .replace("in[2]", "in[0]").replace("in[3]", "in[0]")
    programs = compile_packed(parse_design(src))
    assert programs["chain"].gates == []
    assert programs["wrapped"].outputs["out"] == [2, 2, 2, 2]
    src = nested_instance_design(4, 151).replace("in[3]", "in[0]")
    assert len(compile_packed(parse_design(src))["wrapped"].gates) == 3


def test_compiled_program_drops_gates_no_output_reads():
    b = ModuleBuilder("m", _ports(("a", "input", 2), ("b", "input", 2),
                                  ("y", "output", 1)))
    va, vb = b.input_ref("a", 2), b.input_ref("b", 2)
    total = b.binary("add", va, vb)
    b.binary("and", va, b.not_(vb))  # never read
    m = b.finish({"y": b.extract(total, 1, 1)}, {})
    program = compile_module(m, {})
    # bit 1 of a + b: a1 ^ b1 ^ (a0 & b0), with no final carry
    assert sorted(g[0] for g in program.gates) == ["and", "xor", "xor"]
    assert all(max(g[1:]) < 2 + 4 + k for k, g in enumerate(program.gates))


def test_compiling_an_instance_needs_its_callee_program():
    d = parse_design(nested_instance_design(2, 1))
    with pytest.raises(ValueError, match="no compiled program"):
        compile_module(d.top_module, {})


def test_xor_trees_fold_by_parity():
    # 2,000 terms over 16 bits: each bit read an odd number of times
    # stays, so at most 15 gates
    rng = random.Random(3)
    terms = [rng.randrange(16) for _ in range(2000)]
    design = parse_design(
        "module m(input [15:0] a, output y);\n  assign y = "
        + " ^ ".join(f"a[{k}]" for k in terms) + ";\nendmodule\n")
    program = compile_packed(design)["m"]
    odd = sorted(k for k in set(terms) if terms.count(k) % 2)
    assert [g[0] for g in program.gates] == ["xor"] * (len(odd) - 1)
    _assert_packed_matches_reference(design, seed=3)
    # an xor another operation or an output reads bounds its tree; a
    # tree that cancels to nothing reads constant 0
    design = parse_design(
        "module m(input [3:0] a, output y, output z, output w);\n"
        "  wire t;\n  assign t = a[0] ^ a[1] ^ a[0];\n"
        "  assign y = t ^ a[2] ^ a[1];\n  assign z = t & a[3];\n"
        "  assign w = a[3] ^ a[2] ^ a[3] ^ a[2];\nendmodule\n")
    program = compile_packed(design)["m"]
    assert program.outputs["w"] == [0]
    assert program.outputs["y"] == [2 + 2]  # t ^ a[1] cancels: a[2]
    _assert_packed_matches_reference(design, seed=4)


def test_xor_of_two_inner_xors_folds_by_parity():
    # each output's root xor reads two inner xors, whose odd sets merge:
    # x is a[1] ^ a[2], y is a[4] ^ ... ^ a[7] and z cancels to 0
    design = parse_design(
        "module m(input [7:0] a, output x, output y, output z);\n"
        "  assign x = (a[0] ^ a[1]) ^ (a[2] ^ a[0]);\n"
        "  assign y = ((a[3] ^ a[4]) ^ (a[5] ^ a[6]))"
        " ^ ((a[7] ^ a[3]) ^ (a[1] ^ a[1]));\n"
        "  assign z = (a[0] ^ (a[1] ^ a[2])) ^ ((a[0] ^ a[2]) ^ a[1]);\n"
        "endmodule\n")
    program = compile_packed(design)["m"]
    assert [g[0] for g in program.gates] == ["xor"] * 4
    assert program.outputs["z"] == [0]
    lanes = {"a": [sum(((v >> i) & 1) << v for v in range(256))
                   for i in range(8)]}
    packed = simulate_packed(program, lanes, 256)
    for v in range(256):
        got = {port: sum(((lane >> v) & 1) << i
                         for i, lane in enumerate(bits))
               for port, bits in packed.items()}
        assert got == simulate(design.top_module, {"a": v}), v
    out, _ = run_pipeline(design)
    verdict = check_equivalence(design.top_module, out.top_module)
    assert verdict.status == "equivalent-exhaustive"


def test_a_wide_constant_compiles_to_its_bits():
    """A constant is expanded from one string of its bits, not with one
    shift per bit, into the same slots."""
    width = 65_536
    value = random.Random(12).getrandbits(width) | 1 << width - 1
    b = ModuleBuilder("k", _ports(("y", "output", width)))
    program = compile_module(b.finish({"y": b.const(value, width)}, {}), {})
    assert program.gates == []
    assert program.outputs["y"] == [(value >> i) & 1 for i in range(width)]


def test_with_operands_copies_every_other_field():
    # a field added to Operation must be added to with_operands too
    fields = Operation.__slots__
    assert list(fields) == [
        "kind", "width", "operands", "value", "low", "count", "port",
        "module", "name", "in_ports", "out_ports"]
    op = Operation("instance", 3, [ValueRef(0, 1)], value=5, low=2, count=4,
                   port="p", module="cell", name="u0", in_ports=("x",),
                   out_ports=(("z", 3),))
    operands = [ValueRef(1, 1)]
    copy = with_operands(op, operands)
    assert copy is not op and copy.operands is operands
    assert op.operands == [ValueRef(0, 1)]
    assert [getattr(copy, f) for f in fields] == [
        operands if f == "operands" else getattr(op, f) for f in fields]


def _layout_design(seed: int) -> tuple[str, list[tuple[int, int]], int]:
    """A callee ``cell`` with 1-4 output ports of widths 1-5, port ``k``
    being its bits of ``a ^ K`` for a seeded constant ``K``, and a top
    that reads the packed result ``w`` of one site: every port whole,
    one bit of each port, and a slice from each port into a later one.
    Output ``r<m>`` reads read ``m`` inline, and ``q<m>`` is the
    complement of a named wire on it.  Returns the text, the reads as
    ``(low, width)`` and ``K``."""
    rng = random.Random(seed)
    widths = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
    starts = list(accumulate(widths, initial=0))
    total = starts[-1]
    key = rng.getrandbits(total)
    reads = [(lo, hi - lo) for lo, hi in zip(starts, starts[1:])]
    reads += [(rng.randrange(lo, hi), 1) for lo, hi in zip(starts, starts[1:])]
    for k in range(len(widths) - 1):
        lo = rng.randrange(starts[k], starts[k + 1])
        reads.append((lo, rng.randrange(starts[k + 1], total) - lo + 1))
    ports = [f"output [{w - 1}:0] o{k}" for k, w in enumerate(widths)]
    cell = [f"module cell(input [{total - 1}:0] a, {', '.join(ports)});"]
    cell += [f"  assign o{k} = a[{hi - 1}:{lo}]"
             f" ^ {hi - lo}'d{key >> lo & (1 << hi - lo) - 1};"
             for k, (lo, hi) in enumerate(zip(starts, starts[1:]))]
    conns = ", ".join(f".o{k}(w[{hi - 1}:{lo}])"
                      for k, (lo, hi) in enumerate(zip(starts, starts[1:])))
    outs = [f"output [{w - 1}:0] {n}{m}" for m, (_, w) in enumerate(reads)
            for n in "rq"]
    top = [f"module top(input [{total - 1}:0] a, {', '.join(outs)});",
           f"  wire [{total - 1}:0] w;", f"  cell u(.a(a), {conns});"]
    for m, (lo, w) in enumerate(reads):
        top += [f"  wire [{w - 1}:0] s{m};",
                f"  assign s{m} = w[{lo + w - 1}:{lo}];",
                f"  assign r{m} = w[{lo + w - 1}:{lo}];",
                f"  assign q{m} = ~s{m};"]
    text = "\n".join(cell + ["endmodule"] + top + ["endmodule", ""])
    return text, reads, key


@pytest.mark.parametrize("seed", range(40))
def test_every_reader_of_a_packed_result_agrees_on_the_port_layout(seed):
    # the reference layout is the test's own: port k at bits
    # [starts[k], starts[k + 1]) of a ^ K
    text, reads, key = _layout_design(seed)
    design = parse_design(text)
    total = design.modules["cell"].ports[0].width
    rng = random.Random(seed)
    vectors = [rng.getrandbits(total) for _ in range(12)]

    def expect(a):
        packed = a ^ key
        out = {}
        for m, (lo, w) in enumerate(reads):
            out[f"r{m}"] = packed >> lo & (1 << w) - 1
            out[f"q{m}"] = out[f"r{m}"] ^ (1 << w) - 1
        return out

    inline, _ = run_pipeline(design)
    kept, _ = run_pipeline(design, InlinePolicy(enabled=False))
    assert all(op.kind != "instance"
               for op in inline.modules["top"].operations)
    assert any(op.kind == "instance" for op in kept.modules["top"].operations)
    for d in (design, inline, kept):
        again = parse_design(emit_design(d))
        for a in vectors:
            assert simulate(d.top_module, {"a": a}, d) == expect(a)
            assert simulate(again.top_module, {"a": a}, again) == expect(a)
        program = compile_packed(d)["top"]
        lanes = [sum((a >> b & 1) << n for n, a in enumerate(vectors))
                 for b in range(total)]
        got = simulate_packed(program, {"a": lanes}, len(vectors))
        for n, a in enumerate(vectors):
            values = {name: sum((lane >> n & 1) << b
                                for b, lane in enumerate(bits))
                      for name, bits in got.items()}
            assert values == expect(a)
