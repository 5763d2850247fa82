"""Seeded corpora for the benchmark, one per workload.

Every design comes with a closed-form reference for its top module,
computed from the generator's own parameters (``a + b`` for an adder,
``pi`` for a permutation, ``sel ? a : b`` for a mesh, ...), so the
emitted ``.vec.v`` can be checked without trusting the program's own
oracle.

The families are written here rather than imported from
``busweaver.generators`` so that the corpus stays fixed while the
program changes: a benchmark that compares two commits must feed both
the same bytes.  The adder, permutation, mesh and inverter-chain texts
follow the same layout as ``busweaver.generators``.

The seed only moves details that do not change the amount of work
(which permutation, which rotation, statement and corpus order); the
family mix and every size are fixed per workload, so runs with
different seeds measure the same kind of corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Case:
    """One generated design: ``source`` is what the program reads;
    ``expect`` maps a dict of top-module input values to the dict of
    output values the design must compute."""

    name: str
    source: str
    inputs: dict[str, int]
    expect: Callable[[dict[str, int]], dict[str, int]]


def _mask(width: int) -> int:
    return (1 << width) - 1


def _bits_to_int(bits: list[int]) -> int:
    return sum(b << i for i, b in enumerate(bits))


# -- adders ---------------------------------------------------------------

def rca(rng: random.Random, width: int) -> tuple:
    """Ripple-carry adder written bit by bit (the must-reject sink)."""
    lines = [f"  wire c{i};" for i in range(1, width)]
    lines.append("  assign sum[0] = a[0] ^ b[0];")
    if width > 1:
        lines.append("  assign c1 = a[0] & b[0];")
    for i in range(1, width):
        lines.append(f"  assign sum[{i}] = a[{i}] ^ b[{i}] ^ c{i};")
        if i + 1 < width:
            lines.append(
                f"  assign c{i + 1} = (a[{i}] & b[{i}])"
                f" | (c{i} & (a[{i}] ^ b[{i}]));"
            )
    src = (
        f"module rca(input [{width - 1}:0] a, input [{width - 1}:0] b,"
        f" output [{width - 1}:0] sum);\n"
        + "\n".join(lines) + "\nendmodule\n"
    )

    def expect(v: dict[str, int]) -> dict[str, int]:
        return {"sum": (v["a"] + v["b"]) & _mask(width)}

    return src, {"a": width, "b": width}, expect


# -- permutations and meshes ---------------------------------------------

def perm(rng: random.Random, width: int) -> tuple:
    """Scalarized random bit permutation, statements in shuffled order."""
    pi = list(range(width))
    rng.shuffle(pi)
    order = list(range(width))
    rng.shuffle(order)
    body = "\n".join(f"  assign out[{i}] = in[{pi[i]}];" for i in order)
    src = (
        f"module perm(input [{width - 1}:0] in,"
        f" output [{width - 1}:0] out);\n{body}\nendmodule\n"
    )

    def expect(v: dict[str, int]) -> dict[str, int]:
        x = v["in"]
        return {"out": _bits_to_int([(x >> pi[i]) & 1 for i in range(width)])}

    return src, {"in": width}, expect


def mesh(rng: random.Random, width: int) -> tuple:
    """Per-bit mux lanes ``sel ? a[i] : b[i]``; the seed picks the
    polarity."""
    first, second = ("a", "b") if rng.random() < 0.5 else ("b", "a")
    body = "\n".join(
        f"  assign out[{i}] = sel ? {first}[{i}] : {second}[{i}];"
        for i in range(width)
    )
    src = (
        f"module mesh(\n  input sel,\n  input [{width - 1}:0] a,\n"
        f"  input [{width - 1}:0] b,\n  output [{width - 1}:0] out\n);\n"
        f"{body}\nendmodule\n"
    )

    def expect(v: dict[str, int]) -> dict[str, int]:
        return {"out": v[first] if v["sel"] else v[second]}

    return src, {"sel": 1, "a": width, "b": width}, expect


class _Cone:
    """Random 1-bit expression over lanes of ``a``/``b`` with invariant
    ``sel`` and constants, rendered once per lane; mux selects are
    always ``sel``."""

    def __init__(self, rng: random.Random, depth: int):
        self.rng = rng
        self.body = ("^", self._gen(depth), ("var", "a"))

    def _gen(self, depth: int):
        # A full tree of fixed depth, so the op count per lane does not
        # depend on the draw.
        r = self.rng
        if depth <= 0:
            pick = r.random()
            if pick < 0.1:
                return ("const", r.randrange(2))
            if pick < 0.2:
                return ("var", "sel")
            leaf = ("var", r.choice("ab"))
            return ("~", leaf) if pick < 0.5 else leaf
        kind = r.choice(("&", "|", "^", "mux"))
        return (kind, self._gen(depth - 1), self._gen(depth - 1))

    def render(self, node, lane: int) -> str:
        tag = node[0]
        if tag == "var":
            return "sel" if node[1] == "sel" else f"{node[1]}[{lane}]"
        if tag == "const":
            return f"1'b{node[1]}"
        if tag == "~":
            return f"(~{self.render(node[1], lane)})"
        if tag == "mux":
            return (f"(sel ? {self.render(node[1], lane)}"
                    f" : {self.render(node[2], lane)})")
        return (f"({self.render(node[1], lane)} {tag}"
                f" {self.render(node[2], lane)})")

    def evaluate(self, node, v: dict[str, int], width: int) -> int:
        """All lanes at once: each lane is one bit of the result."""
        full = _mask(width)
        tag = node[0]
        if tag == "var":
            if node[1] == "sel":
                return full if v["sel"] else 0
            return v[node[1]]
        if tag == "const":
            return full if node[1] else 0
        if tag == "~":
            return self.evaluate(node[1], v, width) ^ full
        if tag == "mux":
            pick = node[1] if v["sel"] else node[2]
            return self.evaluate(pick, v, width)
        x = self.evaluate(node[1], v, width)
        y = self.evaluate(node[2], v, width)
        return x & y if tag == "&" else x | y if tag == "|" else x ^ y


def cones(rng: random.Random, width: int, depth: int = 4) -> tuple:
    """Per-lane copies of one random cone; always declares ``sel`` so
    the port list does not depend on the draw."""
    cone = _Cone(rng, depth)
    body = "\n".join(
        f"  assign out[{i}] = {cone.render(cone.body, i)};"
        for i in range(width)
    )
    src = (
        f"module cones(input [{width - 1}:0] a, input [{width - 1}:0] b,"
        f" input sel, output [{width - 1}:0] out);\n{body}\nendmodule\n"
    )

    def expect(v: dict[str, int]) -> dict[str, int]:
        return {"out": cone.evaluate(cone.body, v, width)}

    return src, {"a": width, "b": width, "sel": 1}, expect


def reduction(rng: random.Random, terms: int, span: int = 16) -> tuple:
    """Hand-written ``a[0] ^ a[1] ^ ...`` chain of ``terms`` terms over
    a ``span``-bit input, terms in shuffled order."""
    idx = [k % span for k in range(terms)]
    rng.shuffle(idx)
    expr = " ^ ".join(f"a[{k}]" for k in idx)
    src = (
        f"module red(input [{span - 1}:0] a, output y);\n"
        f"  assign y = {expr};\nendmodule\n"
    )
    odd = 0
    for k in idx:
        odd ^= 1 << k

    def expect(v: dict[str, int]) -> dict[str, int]:
        return {"y": bin(v["a"] & odd).count("1") & 1}

    return src, {"a": span}, expect


# -- instance chains -------------------------------------------------------

def _chain_callee(nots: int) -> str:
    return (
        "module chain(input a, output y);\n"
        f"  assign y = {'~' * nots}a;\nendmodule\n"
    )


def chain(rng: random.Random, lanes: int, nots: int,
          span: int | None = None) -> tuple:
    """One ``chain`` instance per output lane, lane ``i`` fed from
    ``in[i % span]``; inlined only while the callee's ``nots`` stay
    under the inline threshold."""
    span = span or lanes
    body = "\n".join(
        f"  chain u{i}(.a(in[{i % span}]), .y(out[{i}]));"
        for i in range(lanes)
    )
    src = (
        _chain_callee(nots) + "\n"
        f"module wrapped(input [{span - 1}:0] in,"
        f" output [{lanes - 1}:0] out);\n{body}\nendmodule\n"
    )
    flip = nots % 2

    def expect(v: dict[str, int]) -> dict[str, int]:
        x = v["in"]
        return {"out": _bits_to_int([(x >> (i % span) & 1) ^ flip
                                     for i in range(lanes)])}

    return src, {"in": span}, expect


# -- partial-mix sinks -----------------------------------------------------

def partial_mix(rng: random.Random, perm_bits: int, mux_bits: int,
                scalar_bits: int) -> tuple:
    """One sink tiled from a permutation chunk of ``x``, mux lanes
    ``sel ? a : b`` and scalar leftovers that share a wire (so they
    never form a family), segments in seeded order."""
    width = perm_bits + mux_bits + scalar_bits
    segments = ["perm", "mux", "scalar"]
    rng.shuffle(segments)
    pi = list(range(perm_bits))
    rng.shuffle(pi)
    exprs: list[str] = []  # LSB first
    lane_fns: list[Callable[[dict[str, int]], int]] = []
    for seg in segments:
        if seg == "perm":
            for k in range(perm_bits):
                exprs.append(f"x[{pi[k]}]")
                lane_fns.append(lambda v, s=pi[k]: (v["x"] >> s) & 1)
        elif seg == "mux":
            for k in range(mux_bits):
                exprs.append(f"sel ? a[{k}] : b[{k}]")
                lane_fns.append(
                    lambda v, k=k: (v["a"] if v["sel"] else v["b"]) >> k & 1
                )
        else:
            for k in range(scalar_bits):
                exprs.append(f"c[{k}] ^ t")
                lane_fns.append(
                    lambda v, k=k: (v["c"] >> k ^ v["c"] >> scalar_bits
                                    & v["c"]) & 1  # c[k] ^ (c[s] & c[0])
                )
    order = list(range(width))
    rng.shuffle(order)
    body = "\n".join(f"  assign out[{i}] = {exprs[i]};" for i in order)
    src = (
        f"module pmix(input [{perm_bits - 1}:0] x,"
        f" input [{mux_bits - 1}:0] a, input [{mux_bits - 1}:0] b,"
        f" input sel, input [{scalar_bits}:0] c,"
        f" output [{width - 1}:0] out);\n"
        f"  wire t;\n  assign t = c[0] & c[{scalar_bits}];\n"
        f"{body}\nendmodule\n"
    )

    def expect(v: dict[str, int]) -> dict[str, int]:
        return {"out": _bits_to_int([f(v) for f in lane_fns])}

    return src, {"x": perm_bits, "a": mux_bits, "b": mux_bits, "sel": 1,
                 "c": scalar_bits + 1}, expect


def above_threshold_chain(rng: random.Random, lanes: int) -> tuple:
    """Per-bit instances of a callee above the default inline threshold
    (150), so every lane stays an opaque instance; lanes share an 8-bit
    input so the check stays exhaustive."""
    return chain(rng, lanes, 150 + rng.randrange(2), span=8)


# -- many-sink bus modules -------------------------------------------------

_POOL = {"i0": 8, "i1": 8}


def _bus_shapes(rng: random.Random,
                buses: int) -> list[tuple[int, int, int]]:
    """(kind, width, variant) per bus.  Kinds alternate and widths cycle
    through 4..8 per kind; buses of one kind and width count their
    variants up from a seeded offset.  So the widths, which kind gets
    them and how many buses repeat another bus's function (and share
    its logic once vectorized) do not depend on the seed."""
    offset = rng.randrange(1 << 16)
    seen: dict[tuple[int, int], int] = {}
    shapes = []
    for k in range(buses):
        shape = (k % 2, 4 + (k // 2) % 5)
        seen[shape] = seen.get(shape, -1) + 1
        shapes.append(shape + (offset + seen[shape],))
    rng.shuffle(shapes)
    return shapes


def buses(rng: random.Random, count: int) -> tuple:
    """``count`` output buses of 4-8 bits over two shared 8-bit inputs:
    half are rotations ``o = rotl(i, r)``, half per-bus muxes
    ``o = i_q[t] ? i_p : i_q``.  Each bus is its own sink and rewrites
    whole."""
    ports = ["input [7:0] i0", "input [7:0] i1"]
    lines: list[str] = []
    fns: dict[str, Callable[[dict[str, int]], int]] = {}
    for k, (kind, w, variant) in enumerate(_bus_shapes(rng, count)):
        name = f"o{k}"
        ports.append(f"output [{w - 1}:0] {name}")
        if kind == 0:
            r = 1 + variant % (w - 1)
            p = variant // (w - 1) % 2
        else:
            t = variant % 8
            p = variant // 8 % 2
        src_p, src_q = f"i{p}", f"i{1 - p}"
        if kind == 0:
            for j in range(w):
                lines.append(
                    f"  assign {name}[{j}] = {src_p}[{(j + r) % w}];"
                )

            def rot(v, sp=src_p, w=w, r=r):
                x = v[sp] & _mask(w)
                return ((x >> r) | (x << (w - r))) & _mask(w)

            fns[name] = rot
        else:
            for j in range(w):
                lines.append(
                    f"  assign {name}[{j}] = {src_q}[{t}]"
                    f" ? {src_p}[{j}] : {src_q}[{j}];"
                )

            def mux(v, sp=src_p, sq=src_q, w=w, t=t):
                pick = v[sp] if (v[sq] >> t) & 1 else v[sq]
                return pick & _mask(w)

            fns[name] = mux
    src = (
        f"module buses({', '.join(ports)});\n"
        + "\n".join(lines) + "\nendmodule\n"
    )

    def expect(v: dict[str, int]) -> dict[str, int]:
        return {name: fn(v) for name, fn in fns.items()}

    return src, dict(_POOL), expect


def bus_chains(rng: random.Random, count: int, nots: int) -> tuple:
    """``count`` output buses of 4-8 bits, every bit driven by its own
    instance of a small ``chain`` callee that the inliner splices in."""
    ports = ["input [7:0] i0", "input [7:0] i1"]
    lines: list[str] = []
    sources: dict[str, tuple[str, int]] = {}
    for k, (_, w, variant) in enumerate(_bus_shapes(rng, count)):
        name = f"o{k}"
        ports.append(f"output [{w - 1}:0] {name}")
        sp = f"i{variant % 2}"
        sources[name] = (sp, w)
        for j in range(w):
            lines.append(f"  chain u{k}_{j}(.a({sp}[{j}]), .y({name}[{j}]));")
    src = (
        _chain_callee(nots) + "\n"
        f"module bchains({', '.join(ports)});\n"
        + "\n".join(lines) + "\nendmodule\n"
    )
    odd = nots % 2

    def expect(v: dict[str, int]) -> dict[str, int]:
        return {
            name: (v[sp] ^ (_mask(w) if odd else 0)) & _mask(w)
            for name, (sp, w) in sources.items()
        }

    return src, dict(_POOL), expect


# -- workloads ---------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """``copies`` designs per keyword set in ``params``; ``smoke`` is
    the one small keyword set the smoke run uses."""

    name: str
    gen: Callable
    params: tuple[dict, ...]
    copies: int
    smoke: dict


def _sizes(key: str, values: tuple[int, ...], **fixed) -> tuple[dict, ...]:
    return tuple({key: v, **fixed} for v in values)


#: Every family line says why it sits in its workload.  Sizes keep one
#: pass over a corpus at a few seconds on one core, so that a run makes
#: several passes, while each workload keeps at least 100 designs.
WORKLOADS: dict[str, tuple[Family, ...]] = {
    "rejected-sinks": (
        # Carry chains share logic between lanes, so the sink fails
        # whole-sink vectorization and partial chunking tries every
        # window, building a cone per bit; small widths check
        # exhaustively, wider ones by sampling.
        Family("rca", rca,
               _sizes("width", (4, 6, 8, 10, 12, 14, 16, 20)), 3,
               {"width": 6}),
        # Sinks that vectorize only in part: the chunker has to find the
        # permutation and mux tiles among scalar leftovers.
        Family("partial-mix", partial_mix,
               ({"perm_bits": 4, "mux_bits": 4, "scalar_bits": 2},
                {"perm_bits": 3, "mux_bits": 4, "scalar_bits": 3},
                {"perm_bits": 2, "mux_bits": 3, "scalar_bits": 6}), 10,
               {"perm_bits": 4, "mux_bits": 4, "scalar_bits": 2}),
        # A wider one whose check samples.
        Family("wide-partial-mix", partial_mix,
               ({"perm_bits": 8, "mux_bits": 8, "scalar_bits": 4},), 3,
               {"perm_bits": 6, "mux_bits": 6, "scalar_bits": 3}),
        # Instances above the inline threshold stay opaque, so every
        # window is tried and rejected at its first bit.
        Family("big-chain", above_threshold_chain,
               _sizes("lanes", (16, 32, 64)), 15, {"lanes": 8}),
    ),
    "many-sinks": (
        # Many small buses in one module: one rewrite per sink, and each
        # rewrite copies and compacts the whole module ...
        Family("buses", buses, _sizes("count", (4, 8, 16)), 16,
               {"count": 6}),
        # ... which grows with sinks times module size.
        Family("wide-buses", buses, _sizes("count", (32, 64)), 3,
               {"count": 12}),
        # Per-bit instances of a small callee on many buses: the inliner
        # splices every site before the buses rewrite.
        Family("bus-chains", bus_chains,
               ({"count": 4, "nots": 1}, {"count": 8, "nots": 2}), 20,
               {"count": 4, "nots": 2}),
        # More sites per caller: one replace_uses scan of it per site.
        Family("wide-bus-chains", bus_chains,
               ({"count": 16, "nots": 3}, {"count": 32, "nots": 2}), 3,
               {"count": 6, "nots": 3}),
    ),
    "wide-flat": (
        # Whole-sink permutations: frontend and origin tracing grow with
        # the width; narrow ones check exhaustively ...
        Family("perm", perm, _sizes("width", (8, 12, 16)), 15,
               {"width": 8}),
        # ... and wide ones take the oracle's sampled lane build.
        Family("wide-perm", perm, _sizes("width", (64, 256)), 2,
               {"width": 24}),
        # Mux meshes vectorize whole as one structural family.
        Family("mesh", mesh, _sizes("width", (5, 7)), 6, {"width": 7}),
        # Wide meshes take the sampled oracle path.
        Family("wide-mesh", mesh, _sizes("width", (32, 96)), 2,
               {"width": 20}),
        # Replicated random cones vectorize whole through the cone path.
        Family("cones", cones, _sizes("width", (5, 7)), 6, {"width": 7}),
        # Wide cone families take the sampled oracle path.
        Family("wide-cones", cones, _sizes("width", (32, 64)), 1,
               {"width": 20}),
        # Hand-written deep reductions stress the frontend.  Chains of
        # about 1000 terms or more overflow the stack in the frontend at
        # the commit that added this benchmark; they stay in the corpus
        # and count as failures.
        Family("reduction", reduction,
               _sizes("terms", (200, 400, 700, 1000, 1500, 2000)), 4,
               {"terms": 2000}),
    ),
}


def build(workload: str, seed: int, smoke: bool = False) -> list[Case]:
    """The corpus of ``workload`` for ``seed``, in seeded order.  With
    ``smoke`` it holds one small design per family."""
    rng = random.Random(f"{workload}:{seed}")
    cases: list[Case] = []
    for fam in WORKLOADS[workload]:
        sets = [fam.smoke] if smoke else list(fam.params) * fam.copies
        for k, kw in enumerate(sets):
            src, inputs, expect = fam.gen(rng, **kw)
            label = "-".join(str(v) for v in kw.values())
            cases.append(Case(f"{fam.name}-{label}-{k}", src, inputs,
                              expect))
    rng.shuffle(cases)
    return cases
