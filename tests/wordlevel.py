"""Seeded random word-level designs, and a fuzz run over them.

Usage, from the repository root::

    python tests/wordlevel.py [N] [--src DIR]

checks the seeds ``0 .. N-1`` (100 by default) under every policy of
``hierarchies.POLICIES`` with the checks of ``hierarchies.check_source``
and prints each failure; a design that raises is a failure too.  The
exit status is 1 when some check failed.  ``--src`` names the ``src``
directory to import ``busweaver`` from (this checkout's by default).
The generator writes word-level shapes: a top over two W-bit inputs
and a select, callees with W-bit or 1-bit ports (these instantiated
once per lane), temporary wires and outputs assigned whole or one bit
per ``assign``, over ``& | ^ ~ + - ?:``, selects, concatenations,
replications, reductions and sized constants.  Besides two-operand
operators it writes flat chains of 3-6 terms of one of ``& | ^ +``
over leaves and sub-expressions, and such operators nested in one of
their kind on the left (``(x ^ y) ^ z``, one chain) or on the right
(``x ^ (y ^ z)``, two).  Tier-1 does not run it while it still finds
failures.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _leaf(rng: random.Random, nets: dict[str, int], width: int) -> str:
    """A net, a select of one, a sized constant or a concatenation,
    ``width`` bits wide."""
    wide = [n for n, w in nets.items() if w >= width]
    pick = rng.random()
    if pick < 0.15 or not wide:
        if width > 1 and pick < 0.05:
            cut = rng.randint(1, width - 1)
            return f"{{{_leaf(rng, nets, width - cut)}," \
                   f" {_leaf(rng, nets, cut)}}}"
        return f"{width}'d{rng.randrange(1 << width)}"
    name = rng.choice(wide)
    if nets[name] == width and (pick < 0.6 or width == 1):
        return name  # so that a one-bit select is always of a W-bit net
    low = rng.randrange(nets[name] - width + 1)
    return f"{name}[{low}]" if width == 1 \
        else f"{name}[{low + width - 1}:{low}]"


def _expr(rng: random.Random, nets: dict[str, int], width: int,
          depth: int) -> str:
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return _leaf(rng, nets, width)
    if roll < 0.4:
        return f"~({_expr(rng, nets, width, depth - 1)})"
    if roll < 0.5:
        return f"({_expr(rng, nets, 1, depth - 1)} ?" \
               f" {_expr(rng, nets, width, depth - 1)} :" \
               f" {_expr(rng, nets, width, depth - 1)})"
    if roll < 0.6 and width > 1:
        cut = rng.randint(1, width - 1)
        return f"{{{_expr(rng, nets, width - cut, depth - 1)}," \
               f" {_expr(rng, nets, cut, depth - 1)}}}"
    if roll < 0.65 and width % 2 == 0:
        return f"{{2{{{_expr(rng, nets, width // 2, depth - 1)}}}}}"
    if roll < 0.72 and width == 1 and max(nets.values()) > 1:
        inner = rng.randint(2, max(nets.values()))
        return f"({rng.choice('&|^')}{_leaf(rng, nets, inner)})"
    if roll < 0.8:  # a flat chain over leaves and sub-expressions
        terms = [_leaf(rng, nets, width) if rng.random() < 0.5
                 else _expr(rng, nets, width, depth - 1)
                 for _ in range(rng.randint(3, 6))]
        return "(" + f" {rng.choice('&|^+')} ".join(terms) + ")"
    if roll < 0.86:  # a chain nested in one of its kind, left or right
        op = rng.choice("&|^+")
        x, y, z = (_expr(rng, nets, width, depth - 1) for _ in range(3))
        return f"(({x} {op} {y}) {op} {z})" if rng.random() < 0.5 \
            else f"({x} {op} ({y} {op} {z}))"
    return f"({_expr(rng, nets, width, depth - 1)}" \
           f" {rng.choice('&|^+-')} {_expr(rng, nets, width, depth - 1)})"


def random_wordlevel(seed: int) -> str:
    """The design of ``seed``: 0-2 callees, 0-2 temporary wires and 1-3
    outputs of a top over ``a``, ``b`` (2-8 bits) and ``s``, its
    statements shuffled."""
    rng = random.Random(seed)
    width = rng.randint(2, 8)
    nets = {"a": width, "b": width, "s": 1}
    texts, decls, body = [], [], []
    for c in range(rng.randint(0, 2)):
        lanes = rng.random() < 0.5  # 1-bit ports, one instance per lane
        w = 1 if lanes else width
        ins = [f"x{k}" for k in range(rng.randint(1, 2))]
        outs = [f"z{k}" for k in range(rng.randint(1, 2))]
        inner = {**{p: w for p in ins}, "s": 1}
        texts.append("\n".join(
            [f"module cell{c}(" + ", ".join(
                [f"input [{w - 1}:0] {p}" for p in ins] + ["input s"]
                + [f"output [{w - 1}:0] {p}" for p in outs]) + ");"]
            + [f"  assign {p} = {_expr(rng, inner, w, 2)};" for p in outs]
            + ["endmodule", ""]))
        for p in outs:
            decls.append(f"  wire [{width - 1}:0] c{c}_{p};")
        if lanes:
            shapes = {p: _expr(rng, {"a": width, "b": width}, 1, 1)
                      for p in ins}
            for k in range(width):
                # the same expression per lane, over the lane's bits
                conns = [f".{p}({_lane(e, k, width)})"
                         for p, e in shapes.items()]
                conns += [".s(s)"] + [f".{p}(c{c}_{p}[{k}])" for p in outs]
                body.append(f"  cell{c} u{c}_{k}({', '.join(conns)});")
        else:
            conns = [f".{p}({_expr(rng, nets, width, 2)})" for p in ins]
            conns += [".s(s)"] + [f".{p}(c{c}_{p})" for p in outs]
            body.append(f"  cell{c} u{c}({', '.join(conns)});")
        nets.update({f"c{c}_{p}": width for p in outs})
    for t in range(rng.randint(0, 2)):
        w = rng.choice([1, width])
        decls.append(f"  wire [{w - 1}:0] t{t};")
        body.append(f"  assign t{t} = {_expr(rng, nets, w, 3)};")
        nets[f"t{t}"] = w
    ports = ["input [{0}:0] a", "input [{0}:0] b", "input s"]
    for y in range(rng.randint(1, 3)):
        w = rng.choice([1, width])
        ports.append(f"output [{w - 1}:0] y{y}")
        if w > 1 and rng.random() < 0.5:
            shape = _expr(rng, nets, 1, 2)
            body += [f"  assign y{y}[{k}] = {_lane(shape, k, width)};"
                     for k in range(w)]
        else:
            body.append(f"  assign y{y} = {_expr(rng, nets, w, 3)};")
    rng.shuffle(body)
    top = "module top(" + ", ".join(ports).format(width - 1) + ");"
    return "\n".join([*texts, top, *decls, *body, "endmodule", ""])


def _lane(shape: str, k: int, width: int) -> str:
    """``shape``, a 1-bit expression, moved to lane ``k``: each one-bit
    select ``[i]`` of a W-bit net reads bit ``(i + k) mod W``."""
    out, i = [], 0
    while (j := shape.find("[", i)) >= 0:
        close = shape.index("]", j)
        index = shape[j + 1:close]
        out.append(shape[i:j])
        out.append(f"[{(int(index) + k) % width}]" if index.isdigit()
                   else shape[j:close + 1])
        i = close + 1
    return "".join(out) + shape[i:]


def cases(seeds) -> list[tuple[str, str]]:
    """``(name, source)`` of the design of each seed."""
    return [(f"seed {seed}", random_wordlevel(seed)) for seed in seeds]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("count", nargs="?", type=int, default=100)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory to import busweaver from")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import hierarchies

    failed = 0
    for name, source in cases(range(args.count)):
        for policy in hierarchies.POLICIES:
            try:
                messages = hierarchies.check_source(source, policy, name)
            except Exception as exc:
                messages = [f"{name}, {policy}: {type(exc).__name__}:"
                            f" {exc}"]
            for message in messages:
                print(message)
                failed += 1
    print(f"{failed} failures over {args.count} seeds")
    return int(failed > 0)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
