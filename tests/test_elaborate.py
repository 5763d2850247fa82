"""The frontend against the reference front half, expressions far past
the recursion limit, and the width limits.

The reference (``reference._Parser``) parses each expression
recursively, so the differential corpus stays well below the recursion
limit; the chains and nestings here are what only the shunting-yard
parser and the one-pass elaborator can take.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import generators
import reference
from busweaver import emit_design, frontend, run_pipeline
from busweaver.frontend import MAX_WIDTH, ParseError, parse_design
from busweaver.ir import count_instructions, simulate
from busweaver.oracle import check_design_equivalence
from busweaver.reporting import BatchOptions, process_design


def _outcome(src):
    try:
        return parse_design(src)
    except ParseError as exc:
        return [str(d) for d in exc.diagnostics]


def _assert_same(src, monkeypatch):
    """The same design, operations and bindings included, or the same
    diagnostics, from the frontend and from the reference front half;
    returns the outcome."""
    got = _outcome(src)
    with monkeypatch.context() as patch:
        patch.setattr(frontend, "_Lexer", reference._FindallLexer)
        patch.setattr(frontend, "_Parser", reference._Parser)
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


# -- nesting past the recursion limit ----------------------------------------


def _reduce(op, v, w):
    """``op`` applied to the ``w``-bit value ``v``: the result and its
    width."""
    mask = (1 << w) - 1
    if op == "~":
        return ~v & mask, w
    return {"&": v == mask, "|": v != 0,
            "^": bin(v).count("1") & 1}[op] * 1, 1


# Each level of a shape: its text before and after what it wraps, and
# what it makes of the value and width it wraps, given inputs a and s.
_LEVELS = {
    "(": lambda k: ("(", ")", lambda v, w, a, s: (v, w)),
    "{": lambda k: ("{", "}", lambda v, w, a, s: (v, w)),
    "~": lambda k: ("~", "", lambda v, w, a, s: (~v & 15, w)),
    "reductions": lambda k: ("&|^~"[k % 4] + " ", "",
                             lambda v, w, a, s: _reduce("&|^~"[k % 4], v, w)),
    "?: chain": lambda k: (
        f"s[{k % 4}] ? a ^ 4'd{k % 16} : ", "",
        lambda v, w, a, s: ((a ^ k % 16) if s >> k % 4 & 1 else v, w)),
    "?: nest": lambda k: (
        f"s[{k % 4}] ? ", " : ~a",
        lambda v, w, a, s: (v if s >> k % 4 & 1 else ~a & 15, w)),
    "mix": lambda k: [
        ("(", ")", lambda v, w, a, s: (v, w)),
        ("~", "", lambda v, w, a, s: (~v & 15, w)),
        ("{", "}", lambda v, w, a, s: (v, w)),
        (f"s[{k % 4}] ? ", " : a",
         lambda v, w, a, s: (v if s >> k % 4 & 1 else a, w)),
        ("a ^ (", ")", lambda v, w, a, s: (a ^ v, w)),
    ][k % 5],
}


def _nested(shape, depth, tmp_path):
    """A module whose one expression nests ``depth`` levels of
    ``shape`` around ``a``, run the CLI's way with the check on; returns
    the result, the source and the expected ``y`` as a function."""
    levels = [_LEVELS[shape](k) for k in range(depth)]
    expr = "".join(before for before, _, _ in levels) + "a" + "".join(
        after for _, after, _ in reversed(levels))
    width = 1 if shape == "reductions" else 4
    src = (f"module nest(input [3:0] a, input [3:0] s,"
           f" output [{width - 1}:0] y);\n  assign y = {expr};\nendmodule\n")
    path = tmp_path / "nest.v"
    path.write_text(src)
    result = process_design(str(path), BatchOptions(
        check=True, write_output=True, out_dir=str(tmp_path / "out")))

    def expect(a, s):
        v, w = a, 4
        for _, _, apply in reversed(levels):
            v, w = apply(v, w, a, s)
        return v

    return result, src, expect


def _assert_nesting(shape, depth, tmp_path):
    result, src, expect = _nested(shape, depth, tmp_path)
    assert result.ok, result.error
    assert result.equivalence == "equivalent-exhaustive"
    assert (tmp_path / "out" / "nest.vec.v").exists()
    top = parse_design(src).top_module
    rng = random.Random(shape)
    for _ in range(8):
        a, s = rng.randrange(16), rng.randrange(16)
        assert simulate(top, {"a": a, "s": s}) == {"y": expect(a, s)}


@pytest.mark.parametrize("shape", list(_LEVELS))
def test_ten_thousand_nested_levels(shape, tmp_path):
    _assert_nesting(shape, 10_000, tmp_path)


def test_a_hundred_thousand_nested_levels(tmp_path):
    _assert_nesting("mix", 100_000, tmp_path)


# -- selects -----------------------------------------------------------------

_SELECT_HEAD = ("module m(input [11:0] a, input [3:0] x, output y,"
                " output [1:0] z);\n")


@pytest.mark.parametrize("body, outcome", [
    # spelled with blanks, comments, underscores, leading zeros or more
    # than 9 digits: each reads as it did before select tokens
    ("  assign y = a [3];\n  assign z = a[ 5 : 4 ];\n", None),
    ("  assign y = a[1_0];\n  assign z = a[/*c*/3:2];\n", None),
    ("  assign y = a[0000000003];\n  assign z = a[00000000001:0];\n", None),
    # one select in several spellings, each more than once, on both
    # sides of an assignment
    ("  assign y = a [3] ^ a[3] ^ a [ 3 ] ^ a[1_0] ^ a [ 1_0 ] ^ a[10]"
     " ^ a [3];\n  assign z [1:0] = a [5:4] ^ a[5:4] ^ a[ 5 : 4 ];\n",
     None),
    ("  assign y = a [1];\n  assign z = a [1 0];\n",
     ["<input>:3:19: error: expected ']', found '0'"]),
    ("  assign y = a[1234567890];\n  assign z = a[1:0];\n",
     ["<input>:2:14: error: bit 1234567890 out of range for 'a' of width"
      " 12"]),
    # a keyword before "[" stays a keyword
    ("  wire[3:0] w;\n  assign w = x;\n  assign y = w[3];\n"
     "  assign z = w[1:0];\n", None),
    ("  reg[3:0] r;\n",
     ["<input>:2:3: error: unsupported construct 'reg' (only flat"
      " combinational modules are supported)"]),
    ("  assign y = a[x];\n",
     ["<input>:2:16: error: expected 'bit index', found 'x'"]),
    ("  assign y = a[3];\n  assign z = a[0:1];\n",
     ["<input>:3:16: error: descending part select [0:1]"]),
    ("  assign y = a[3];\n  assign z[0:1] = a[1:0];\n",
     ["<input>:3:12: error: descending range [0:1] on assignment target"]),
    ("  assign y = a[3] a[4];\n",
     ["<input>:2:19: error: expected ';', found 'a'"]),
    ("  assign y = a[3];\n  assign z = a[1:0];\n  wire w[3];\n",
     ["<input>:4:9: error: expected ';', found '['"]),
    ("  a[3] u(.x(y));\n",
     ["<input>:2:4: error: expected 'instance name', found '['"]),
    ("  assign y = a[12];\n  assign z = a[13:12];\n",
     ["<input>:2:14: error: bit 12 out of range for 'a' of width 12",
      "<input>:3:14: error: bit 13 out of range for 'a' of width 12"]),
])
def test_select_spellings(body, outcome, monkeypatch):
    """Today's designs, or today's diagnostics at today's ``line:col``."""
    got = _assert_same(_SELECT_HEAD + body + "endmodule\n", monkeypatch)
    if outcome is None:
        assert not isinstance(got, list)
    else:
        assert got == outcome


@pytest.mark.parametrize("src, outcome", [
    ("module m(input[3:0] a, output[1:0] y);\n  assign y = a[2:1];\n"
     "endmodule", None),
    ("module m[3](input a, output y);\nendmodule",
     ["<input>:1:9: error: expected ';', found '['"]),
    ("module m(a[2], y);\nendmodule",
     ["<input>:1:11: error: expected ')', found '['"]),
    ("a[3]", ["<input>:1:1: error: expected 'module', found 'a'"]),
    ("module n(input a, output y);\n  assign y = a;\nendmodule\n"
     "module m(input [1:0] a, output [1:0] y);\n"
     "  n u(.a(a[0]), .y(y[1]));\n  n v(a[1], y[0:0]);\nendmodule", None),
    ("module n(input a, output y);\n  assign y = a;\nendmodule\n"
     "module m(input [1:0] a, output [1:0] y);\n"
     "  n u(.a[0](a[0]), .y(y[1]));\nendmodule",
     ["<input>:5:9: error: expected '(', found '['"]),
])
def test_select_tokens_where_a_name_stands(src, outcome, monkeypatch):
    got = _assert_same(src, monkeypatch)
    if outcome is None:
        assert not isinstance(got, list)
    else:
        assert got == outcome


_LEAF_CELL = ("module cell(input x, input y, output z);\n"
              "  assign z = x ^ y;\nendmodule\n"
              "module m(input [1:0] a, output y);\n")


@pytest.mark.parametrize("src, outcome", [
    # a select, a name, a sized and an unsized literal before ";"
    ("module m(input [1:0] a, output y);\n  assign y = a[1];\nendmodule",
     None),
    ("module m(input a, output y);\n  assign y = a;\nendmodule", None),
    ("module m(output [3:0] y);\n  assign y = 4'b1010;\nendmodule", None),
    ("module m(output y);\n  assign y = 1;\nendmodule",
     ["<input>:2:14: error: unsized literal in expression position (only"
      " valid as an index or replication count)"]),
    # ... and before ")" and ","
    (_LEAF_CELL + "  cell u(.x(a[0]), .y(a[1]), .z(y));\nendmodule", None),
    (_LEAF_CELL + "  cell u(a[0], 1'b1, y);\nendmodule", None),
    # words that are no leaf
    ("module m(input a, output y);\n  assign y = wire;\nendmodule",
     ["<input>:2:14: error: expected expression, found 'wire'"]),
    ("module m(input a, output y);\n  assign y = reg;\nendmodule",
     ["<input>:2:14: error: unsupported construct 'reg' (only flat"
      " combinational modules are supported)"]),
    # a leaf with no token after it, and no leaf at the end of input
    ("module m(input a, output y);\n  assign y = a",
     ["<input>:2:15: error: expected ';', found 'end of input'"]),
    ("module m(output y);\n  assign y =",
     ["<input>:2:13: error: expected expression, found 'end of input'"]),
    ("module m(output y);\n  assign y = (",
     ["<input>:2:15: error: expected expression, found 'end of input'"]),
    (_LEAF_CELL + "  cell u(",
     ["<input>:5:10: error: expected expression, found 'end of input'"]),
    (_LEAF_CELL + "  cell u(.x(",
     ["<input>:5:13: error: expected expression, found 'end of input'"]),
])
def test_lone_leaves(src, outcome, monkeypatch):
    """An expression that is one leaf parses as any other: the same
    design, or the same diagnostics at the same ``line:col``."""
    got = _assert_same(src, monkeypatch)
    if outcome is None:
        assert not isinstance(got, list)
    else:
        assert got == outcome


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
