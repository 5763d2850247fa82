"""The one-walk elaborator against the recursive reference elaborator,
expression chains far past the recursion limit, and the width limits.

The reference (``reference._Elaborator``) walks each expression
recursively, so the differential corpus stays well below the recursion
limit; the chains here are what only the iterative walk can elaborate.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import reference
from busweaver import emit_design, frontend, generators, run_pipeline
from busweaver.frontend import MAX_WIDTH, ParseError, parse_design
from busweaver.ir import count_instructions
from busweaver.oracle import check_design_equivalence


def _outcome(src):
    try:
        return parse_design(src)
    except ParseError as exc:
        return [str(d) for d in exc.diagnostics]


def _assert_same(src, monkeypatch):
    """The same design, operations and bindings included, or the same
    diagnostics, from both elaborators; returns the outcome."""
    got = _outcome(src)
    with monkeypatch.context() as patch:
        patch.setattr(frontend, "_Elaborator", reference._Elaborator)
        want = _outcome(src)
    assert got == want, src
    return got


def test_goldens(golden_dir, monkeypatch):
    paths = sorted(golden_dir.glob("*.v"))
    assert paths
    for path in paths:
        assert not isinstance(_assert_same(path.read_text(), monkeypatch),
                              list)


_FAMILIES = {
    "perm-24": generators.permutation_design(24, 3),
    "perm-256": generators.permutation_design(256, 8),
    "cones": generators.replicated_cone_design(8, 3, 5),
    "cones-strided": generators.replicated_cone_design(
        6, 4, 9, invariant_slots=False),
    "rca": generators.ripple_carry_design(12),
    "nested": generators.nested_instance_design(6, 3),
    "nested-wide": generators.nested_instance_design(40, 12),
    "mesh": generators.scaling_design(300),
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_generator_families(family, monkeypatch):
    assert not isinstance(_assert_same(_FAMILIES[family], monkeypatch),
                          list)


# -- a seeded corpus of random modules ---------------------------------------

_CALLEE = (
    "module cell(input [1:0] x, input y, output [1:0] z, output q);\n"
    "  assign z = x ^ {2{y}};\n"
    "  assign q = &x | y;\n"
    "endmodule\n"
)


def _expr(rng, width, depth, nets):
    """A random expression of ``width`` bits over ``nets`` (name ->
    width); composite operands are parenthesised."""
    def sub(w):
        return f"({_expr(rng, w, depth - 1, nets)})"

    roll = rng.random()
    if depth == 0 or roll < 0.3:
        wide = [n for n, w in nets.items() if w >= width]
        pick = rng.random()
        if width == 1 and pick < 0.2:
            name = rng.choice(list(nets))
            return f"{rng.choice('&|^')}{name}"
        if pick < 0.25 or not wide:
            return f"{width}'d{rng.randrange(1 << width)}"
        name = rng.choice(wide)
        if nets[name] == width and pick < 0.6:
            return name
        low = rng.randrange(nets[name] - width + 1)
        if width == 1:
            return f"{name}[{low}]"
        return f"{name}[{low + width - 1}:{low}]"
    if roll < 0.4:
        return f"~{sub(width)}"
    if roll < 0.5:
        return f"{sub(1)} ? {sub(width)} : {sub(width)}"
    if roll < 0.6 and width >= 2:
        cut = rng.randrange(1, width)
        return f"{{{sub(width - cut)}, {sub(cut)}}}"
    if roll < 0.65 and width % 2 == 0:
        return f"{{2{{{sub(width // 2)}}}}}"
    return f"{sub(width)} {rng.choice('&|^+-')} {sub(width)}"


def _random_module(rng):
    """Wires driven whole or bit by bit in shuffled order, outputs that
    read them, instances of ``cell``, and now and then a fault: an
    unknown name, an assignment, operand, arm or condition width
    mismatch, a bit out of range, an unsized literal, a combinational
    cycle, or several of these in one expression."""
    nets = {"a": 8, "b": 8, "c": 4, "s": 1}
    wires = {f"w{k}": rng.choice([1, 2, 3, 4, 6, 8])
             for k in range(rng.randint(1, 6))}
    outs = {f"y{k}": rng.choice([1, 2, 4, 8])
            for k in range(rng.randint(1, 3))}
    readable = {**nets, **wires}
    ports = [f"input [{w - 1}:0] {n}" for n, w in nets.items()]
    ports += [f"output [{w - 1}:0] {n}" for n, w in outs.items()]
    decls = [f"  wire [{w - 1}:0] {n};" for n, w in wires.items()]
    body = []
    # wires read only inputs and wires declared before them, so cycles
    # come from the faults alone
    order = list(wires)
    for k, (name, width) in enumerate(wires.items()):
        scope = {**nets, **{n: wires[n] for n in order[:k]}}
        if width > 1 and rng.random() < 0.4:
            for bit in range(width):
                body.append(f"  assign {name}[{bit}] ="
                            f" {_expr(rng, 1, 3, scope)};")
        else:
            body.append(f"  assign {name} = {_expr(rng, width, 4, scope)};")
    for k in range(rng.randint(0, 2)):
        x = _expr(rng, 2, 2, readable)
        y = _expr(rng, 1, 2, readable)
        target = f"i{k}"
        decls += [f"  wire [1:0] {target}z;", f"  wire {target}q;"]
        readable.update({f"{target}z": 2, f"{target}q": 1})
        if rng.random() < 0.5:
            body.append(f"  cell {target}(.q({target}q), .x({x}), .y({y}),"
                        f" .z({target}z));")
        else:
            body.append(f"  cell {target}({x}, {y}, {target}z, {target}q);")
    for name, width in outs.items():
        body.append(f"  assign {name} = {_expr(rng, width, 4, readable)};")
    fault = rng.random()
    if fault < 0.04:
        body.append("  assign y0 = nowhere;")
    elif fault < 0.08:
        body[rng.randrange(len(body))] = "  assign w0 = {a, b, c};"
    elif fault < 0.12:
        ports.append("output z")
        body += ["  wire loop;", "  assign loop = ~loop;",
                 "  assign z = loop;"]
    elif fault < 0.15:
        body.append("  wire junk;\n  assign junk = a[9];")
    elif fault < 0.18:
        body.append("  wire junk;\n  assign junk = 3;")
    elif fault < 0.22:
        # several faults in one expression, in source order
        body.append("  wire [7:0] junk;\n"
                    "  assign junk = (a ^ c) | (b & q) | {s ? a : c};")
    elif fault < 0.25:
        body.append("  wire [7:0] junk, bad;\n  assign junk = c ? a : b;\n"
                    "  assign bad = {2{c[5]}};")
    rng.shuffle(body)
    return _CALLEE + "\n".join(
        [f"module m({', '.join(ports)});", *decls, *body, "endmodule"]
    ) + "\n"


def test_random_modules(monkeypatch):
    rng = random.Random(1104)
    parsed = failed = 0
    for _ in range(400):
        if isinstance(_assert_same(_random_module(rng), monkeypatch), list):
            failed += 1
        else:
            parsed += 1
    assert parsed >= 250 and failed >= 20


# -- chains past the recursion limit -----------------------------------------


def _chain(op, terms, span, rng):
    """``y = a[i] op a[j] op ...`` over a ``span``-bit input for the
    bitwise operators, or ``a op b op a ...`` over two 4-bit inputs."""
    if op in "^&|":
        expr = f" {op} ".join(f"a[{rng.randrange(span)}]"
                              for _ in range(terms))
        return (f"module chain(input [{span - 1}:0] a, output y);\n"
                f"  assign y = {expr};\nendmodule\n")
    expr = f" {op} ".join(rng.choice("ab") for _ in range(terms))
    return ("module chain(input [3:0] a, input [3:0] b, output [3:0] y);\n"
            f"  assign y = {expr};\nendmodule\n")


def _round_trip(src):
    design = parse_design(src)
    out, report = run_pipeline(design)
    text = emit_design(out)
    again = parse_design(text)
    assert count_instructions(again.top_module) == report.instructions_after
    verdict = check_design_equivalence(design, again)["chain"]
    assert verdict.status == "equivalent-exhaustive"
    return design, report


@pytest.mark.parametrize("op", list("^&|+-"))
def test_chains_of_ten_thousand_terms(op):
    rng = random.Random(op)
    design, report = _round_trip(_chain(op, 10_000, 8, rng))
    assert report.instructions_before >= 9_999
    if op in "^&|":  # one reduction over the bits left: at most 3 ops
        assert report.instructions_after <= 3
        assert [s.category for s in report.rewrites] == ["reduction"]


def test_a_xor_chain_of_a_hundred_thousand_terms():
    rng = random.Random(5)
    design, report = _round_trip(_chain("^", 100_000, 16, rng))
    assert report.instructions_before == 16 + 99_999
    assert report.instructions_after <= 3


# -- widths ------------------------------------------------------------------


def _errors(src):
    with pytest.raises(ParseError) as info:
        parse_design(src)
    return [str(d) for d in info.value.diagnostics]


def test_width_limits_are_positioned_diagnostics():
    assert _errors(
        "module m(input [39999999999:0] a, output y);\n"
        "  assign y = a[0];\nendmodule"
    ) == [f"<input>:1:17: error: declared width 40000000000 exceeds the"
          f" limit of {MAX_WIDTH} bits"]
    assert _errors(
        "module m(input a, output y);\n  wire [1048576:0] w;\n"
        "  assign y = a;\nendmodule"
    ) == [f"<input>:2:9: error: declared width 1048577 exceeds the limit"
          f" of {MAX_WIDTH} bits"]
    assert _errors(
        "module m(input [1023:0] a, output y);\n"
        "  assign y = ^{1025{a}};\nendmodule"
    ) == [f"<input>:2:15: error: expression width 1049600 exceeds the"
          f" limit of {MAX_WIDTH} bits"]
    assert _errors(
        "module m(input a, output y);\n"
        "  assign y = &~40000000000'b1;\nendmodule"
    ) == [f"<input>:2:15: error: expression width 40000000000 exceeds the"
          f" limit of {MAX_WIDTH} bits"]


def test_the_widest_net_parses():
    design = parse_design(
        f"module m(input [{MAX_WIDTH - 1}:0] a, output y);\n"
        "  assign y = ^a;\nendmodule"
    )
    assert design.top_module.ports[0].width == MAX_WIDTH


def test_a_huge_declared_range_is_no_internal_error(tmp_path):
    """The range check comes before a net allocates its bits: the child
    caps its own address space, so a regression fails quickly."""
    pytest.importorskip("resource")
    path = tmp_path / "huge.v"
    path.write_text("module m(input [39999999999:0] a, output y);\n"
                    "  assign y = a[0];\nendmodule\n")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from busweaver.reporting import BatchOptions, process_design\n"
        "print(process_design(sys.argv[1], BatchOptions()).error)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == (
        f"{path}:1:17: error: declared width 40000000000 exceeds the limit"
        f" of {MAX_WIDTH} bits"
    )
