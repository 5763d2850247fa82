"""The rewrite session: one ModuleRewriter per module gives the same
result as a fresh session per sink, compacts once, leaves its inputs
alone and shares value numbering across inlined sites."""

import copy
import random

import pytest

from busweaver import emit_design, inliner, parse_design, run_pipeline
from busweaver.emitter import emit_module
from busweaver.inliner import finished_module, selective_inline
from busweaver.ir import (
    HwDesign,
    HwModule,
    ValueRef,
    count_instructions,
    instantiation_order,
)
from busweaver.pipeline import Chunk, vectorize_output
from busweaver.reductions import fold_reductions
from busweaver import rewrite
from busweaver.rewrite import ModuleRewriter

_CELL = (
    "module cell(input x, input y, output z);\n"
    "  assign z = (x & y) ^ 1'b1;\n"
    "endmodule\n\n"
)


def _per_sink_pipeline(design):
    """The flow before sessions spanned a module, in the pipeline's
    callee-first module order: the module's sites inlined and the result
    finished; then rounds of a fresh session per sink, finished at once,
    the next sink read from the compacted result (a wire orphaned by an
    earlier sink is gone from it), and one sweep of the reduction fold
    in a session of its own, until a sweep folds nothing, before any
    caller copies the module.  Each sink keeps its result of the last
    round that changed it, or of its first."""
    finished, sinks = {}, {}
    for name in instantiation_order(design)[0]:
        rw, _ = selective_inline(design.modules[name], finished)
        current = module = rw.finish()
        names = [p.name for p in module.ports if p.direction == "output"]
        found, folds = {}, []
        while True:
            for sink in names + list(module.wires):
                ref = current.outputs.get(sink, current.wires.get(sink))
                if ref is None or ref.width < 2:
                    continue
                rw = ModuleRewriter(current)
                chunks, changed = vectorize_output(rw, ref)
                current = rw.finish()
                if changed or sink not in found:
                    found[sink] = (name, sink, ref.width, chunks, changed)
            rw = ModuleRewriter(current)
            swept = fold_reductions(rw)
            current = rw.finish()
            if not swept:
                break
            folds += swept
        sinks[name] = [*found.values()] + [
            (name, sink, 1, [Chunk(0, 0, "reduction")], True)
            for sink in folds]
        finished[name] = finished_module(current, finished)
    return (
        HwDesign({name: finished[name].module for name in design.modules},
                 design.top),
        [sink for name in design.modules for sink in sinks[name]],
    )


def _random_design(rng):
    """A module of several sinks over shared inputs: rotated buses, a
    copy of a whole input, per-bit muxes, buses of inlined per-bit
    cells (some fed by other cells), wires read by several sinks (and
    kept alive by scalar readers), wires orphaned by the output or the
    wire that reads them, outputs read or copied bit-reversed by later
    outputs, outputs that are a slice next to bits of an earlier
    output, and mixed sinks."""
    ports = ["input [7:0] a", "input [7:0] b", "input [3:0] c",
             "input [3:0] s"]
    decls, body, shared, outs = [], [], [], []
    for k in range(rng.randint(2, 7)):
        w = rng.randint(2, 5)
        o = f"o{k}"
        ports.append(f"output [{w - 1}:0] {o}")
        kind = rng.choice(["rot", "whole", "mux", "cell", "shared",
                           "orphan", "chain", "reads", "copy", "slices",
                           "mixed"])
        if kind == "shared" and not shared:
            t = f"t{k}"
            decls.append(f"  wire [7:0] {t};")
            body += [f"  assign {t}[{j}] = a[{j}] ^ b[{7 - j}];"
                     for j in range(8)]
            shared.append(t)
        if kind in ("reads", "copy") and not outs:
            kind = "mux"
        src, sw = rng.choice(outs or [(None, 0)])
        if kind == "slices" and w >= 4 and sw >= 2:
            # a slice beside bits of an earlier output, already in
            # the form a rewrite would build
            body.append(
                f"  assign {o} = {{a[{w - 3}:0], {src}[0], {src}[1]}};"
            )
            outs.append((o, w))
            continue
        if kind == "chain":
            # wire p reads wire q; p's rewrite orphans q
            decls += [f"  wire [{w - 1}:0] p{k};", f"  wire [{w - 1}:0] q{k};"]
            body += [f"  assign q{k}[{j}] = a[{j}] | c[{j % 4}];"
                     for j in range(w)]
            body += [f"  assign p{k}[{j}] = q{k}[{j}] & b[{j}];"
                     for j in range(w)]
        for j in range(w):
            if kind == "rot":
                e = f"a[{(j + k) % w}]"
            elif kind == "whole":
                e = f"c[{j % 4}]"
            elif kind == "mux":
                e = f"s[{k % 4}] ? a[{j}] : b[{j}]"
            elif kind == "cell":
                x = f"{src}[{j % sw}]" if src and k % 2 else f"a[{j}]"
                body.append(
                    f"  cell u{k}_{j}(.x({x}), .y(b[{j}]), .z({o}[{j}]));"
                )
                continue
            elif kind == "shared":
                t = rng.choice(shared)
                # lanes that share a bit of t stay scalar and keep t alive
                e = (f"{t}[{j}] & s[0]" if rng.random() < 0.5
                     else f"{t}[{j}] ^ {t}[{(j + 1) % 8}]")
            elif kind == "orphan":
                if j == 0:
                    decls.append(f"  wire [{w - 1}:0] q{k};")
                body.append(f"  assign q{k}[{j}] = a[{j}] | b[{j}];")
                e = f"q{k}[{j}]"
            elif kind == "reads":
                e = f"{src}[{j % sw}] ^ b[{j}]"
            elif kind == "copy":
                e = f"{src}[{(sw - 1 - j) % sw}]"
            elif kind == "chain":
                # lanes sharing p's bits stay scalar and keep p alive
                e = f"p{k}[{j}] ^ p{k}[{(j + 1) % w}]"
            else:
                e = rng.choice([f"b[{j}]", f"a[{j}] & b[{(j + 3) % 8}]"])
            body.append(f"  assign {o}[{j}] = {e};")
        outs.append((o, w))
    return _CELL + "\n".join(
        [f"module m({', '.join(ports)});", *decls, *body, "endmodule"]
    ) + "\n"


def test_session_matches_per_sink_flow():
    rng = random.Random(4041)
    changed = 0
    for _ in range(120):
        design = parse_design(_random_design(rng))
        out, report = run_pipeline(design)
        ref_out, ref_sinks = _per_sink_pipeline(design)
        assert emit_design(out) == emit_design(ref_out)
        assert [
            (s.module, s.sink, s.width, s.chunks, s.changed)
            for s in report.sinks
        ] == ref_sinks
        changed += len(report.rewrites)
    assert changed >= 200


def _buses(count):
    ports = [f"input [3:0] a{k}" for k in range(count)]
    ports += [f"output [3:0] o{k}" for k in range(count)]
    body = [
        f"  assign o{k}[{j}] = a{k}[{(j + 1) % 4}];"
        for k in range(count) for j in range(4)
    ]
    return "\n".join(
        [f"module b({', '.join(ports)});", *body, "endmodule"]
    ) + "\n"


def test_module_is_compacted_once(monkeypatch):
    calls = []
    compact = rewrite.compact_module

    def counting(module, *args):
        calls.append(module.name)
        return compact(module, *args)

    monkeypatch.setattr(rewrite, "compact_module", counting)
    _, report = run_pipeline(parse_design(_buses(64)))
    assert len(report.rewrites) == 64
    # the session's finish, and nothing before it
    assert calls == ["b"]


def _rotated_wires(count):
    """``count`` wires, each a rotation of its own input nibble, XORed
    into one output."""
    lines = [f"module w(input [{4 * count - 1}:0] a, output [3:0] y);"]
    for k in range(count):
        lines.append(f"  wire [3:0] w{k};")
        lines += [f"  assign w{k}[{j}] = a[{4 * k + (j + 1) % 4}];"
                  for j in range(4)]
    lines.append(
        "  assign y = " + " ^ ".join(f"w{k}" for k in range(count)) + ";"
    )
    return "\n".join([*lines, "endmodule"]) + "\n"


def test_liveness_of_wire_sinks_walks_no_whole_module(monkeypatch):
    calls = []
    order = rewrite.live_order

    def counting(module, *args):
        calls.append(module.name)
        return order(module, *args)

    design = parse_design(_rotated_wires(60))
    monkeypatch.setattr(rewrite, "live_order", counting)
    _, report = run_pipeline(design)
    assert len(report.rewrites) == 60
    # the session's finish only, not one walk per edited wire sink
    assert calls == ["w"]


def test_liveness_of_wire_sinks_walks_linearly(monkeypatch):
    """The live-read counts are set up once and change only where a
    redirection changes them, so the count updates of all the wire
    sinks together grow with the chain above them, not with its
    square."""
    sessions = []

    class Counting(ModuleRewriter):
        def __init__(self, module):
            super().__init__(module)
            sessions.append(self)

    monkeypatch.setattr(inliner, "ModuleRewriter", Counting)
    steps = []
    for count in (60, 240):
        sessions.clear()
        run_pipeline(parse_design(_rotated_wires(count)))
        steps.append(sum(rw.reader_steps for rw in sessions))
    assert 0 < steps[1] <= 4 * steps[0] + 8


def test_a_dropped_instance_is_forgotten_as_live():
    design = parse_design(_CELL + (
        "module top(input a, input b, output y);\n"
        "  wire unread;\n"
        "  cell u(.x(a ^ b), .y(b), .z(unread));\n"
        "  assign y = a;\nendmodule\n"))
    module = design.modules["top"]
    rw = ModuleRewriter(module)
    site = next(k for k, op in enumerate(module.operations)
                if op.kind == "instance")
    feed = module.operations[site].operands[0]
    assert rw.is_live(feed)
    rw.drop_instance(site)
    assert not rw.is_live(feed)


@pytest.mark.parametrize("seed", range(6))
def test_is_live_agrees_with_live_order_after_every_edit(seed):
    """Checked after every edit, and in a session that splices its sites
    and plans its sinks before anything reads a count: until then it
    counts nothing, and the first read is the recount all the same."""
    design = parse_design(_random_design(random.Random(seed)))
    finished = {}
    for name in instantiation_order(design)[0]:
        module = design.modules[name]
        sites = [oid for oid, op in enumerate(module.operations)
                 if op.kind == "instance"]
        for eager in (True, False):
            if eager:
                rw, dropped = ModuleRewriter(module), set()
            else:
                rw, log = selective_inline(module, finished)
                dropped = {oid for oid, d in zip(sites, log) if d.inlined}

            def check():
                current = HwModule(rw.name, rw.ports, rw.operations,
                                   rw.outputs, rw.wires)
                order = rewrite.live_order(current, dropped)
                assert {
                    oid for oid, op in enumerate(rw.operations)
                    if rw.is_live(ValueRef(oid, op.width))
                } == set(order)
                # the session's counts are a recount over the live
                # operations
                uses = [0] * len(rw.operations)
                for oid in order:
                    for ref in rw.operations[oid].operands:
                        uses[ref.op] += 1
                    if rw.operations[oid].kind == "instance" \
                            and oid not in dropped:
                        uses[oid] += 1  # a kept instance is a root
                for ref in rw.outputs.values():
                    uses[ref.op] += 1
                assert rw.live_reads() == uses

            if eager:
                check()
            for sink in [*rw.outputs, *rw.wires]:
                ref = rw.outputs.get(sink, rw.wires.get(sink))
                if ref.width >= 2:
                    vectorize_output(rw, ref)
                    if eager:
                        check()
            if not eager:
                assert rw.reader_steps == 0
            check()
            fold_reductions(rw)
            check()
            for oid in sites:
                if oid not in dropped:
                    rw.drop_instance(oid)
                    dropped.add(oid)
            check()
        finished[name] = finished_module(rw.finish(), finished)


@pytest.mark.parametrize("seed", range(8))
def test_inputs_are_never_mutated(seed):
    design = parse_design(_random_design(random.Random(seed)))
    before = copy.deepcopy(design)
    run_pipeline(design)
    assert design == before


def test_constants_are_shared_across_inlined_sites():
    src = _CELL + (
        "module m(input [3:0] a, input [3:0] b, output [3:0] y);\n"
        + "".join(
            f"  cell u{j}(.x(a[{j}]), .y(b[{j}]), .z(y[{j}]));\n"
            for j in range(4)
        )
        + "endmodule\n"
    )
    out, report = run_pipeline(parse_design(src))
    (sink,) = report.sinks
    assert [(c.high, c.low, c.method) for c in sink.chunks] == [
        (3, 0, "structural")
    ]
    first = emit_design(out)
    out2, report2 = run_pipeline(parse_design(first))
    assert emit_design(out2) == first
    assert report2.rewrites == []


def test_replace_uses_reaches_operations_emitted_after_an_earlier_call():
    m = parse_design(
        "module m(input [1:0] a, input [1:0] b, output [1:0] y,"
        " output [1:0] z);\n"
        "  assign y = a & b;\n"
        "  assign z = a | b;\n"
        "endmodule\n"
    ).top_module
    rw = ModuleRewriter(m)
    a, b = rw.input_ref("a", 2), rw.input_ref("b", 2)
    rw.replace_uses({rw.outputs["z"]: a})  # builds the use index
    rw.replace_uses({rw.outputs["y"]: rw.binary("xor", a, b)})
    rw.replace_uses({b: a})
    text = emit_module(rw.finish())
    assert "assign y = a ^ a;" in text
    assert "assign z = a;" in text
    assert emit_module(m).count("b;") == 2  # the input is untouched


def test_a_reader_made_equal_to_a_routing_op_is_merged_into_it():
    # t[0] becomes a[0] when t is replaced by a: its readers then read
    # the existing a[0], so the text counts as the module does
    m = parse_design(
        "module m(input [1:0] a, input [1:0] b, output [1:0] y,"
        " output z);\n"
        "  wire [1:0] t;\n"
        "  assign t = a ^ b;\n"
        "  assign y = {t[0], a[0]};\n"
        "  assign z = a[0];\n"
        "endmodule\n"
    ).top_module
    rw = ModuleRewriter(m)
    a0 = rw.extract(rw.input_ref("a", 2), 0, 1)
    (t,) = rw.wires.values()
    rw.replace_uses({t: rw.input_ref("a", 2)})
    assert rw.operations[rw.outputs["y"].op].operands == [a0, a0]
    assert rw.outputs["z"] == a0
    out = rw.finish()
    assert sum(op.kind == "extract" for op in out.operations) == 1
    text = emit_module(out)
    assert "assign y = {a[0], a[0]};" in text
    assert count_instructions(parse_design(text).top_module) \
        == count_instructions(out)


@pytest.mark.parametrize("seed", range(4))
def test_compacting_a_compact_module_keeps_its_operations(seed):
    design = parse_design(_random_design(random.Random(seed)))
    out, _ = run_pipeline(design)
    for module in [*design.modules.values(), *out.modules.values()]:
        compact = rewrite.compact_module(module)
        again = rewrite.compact_module(compact)
        assert again == compact
        assert all(a is b for a, b in
                   zip(again.operations, compact.operations, strict=True))
