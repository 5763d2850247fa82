"""Seeded random hierarchies of 1-bit cells, and a fuzz run over them.

Usage, from the repository root::

    python tests/hierarchies.py [N]

checks the seeds ``0 .. N-1`` (100 by default) under every policy of
:data:`POLICIES` and prints each failure: the result must verify clean
and be oracle-equivalent to the input, its text must parse again to
``instructions_after`` instructions, and a re-run on the text must
reproduce the bytes (the fixpoint).  The exit status is 1 when some
check failed.  ``test_pipeline.py`` runs the same checks over 100
seeds.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from busweaver.emitter import emit_design
from busweaver.frontend import parse_design
from busweaver.inliner import InlinePolicy
from busweaver.ir import count_instructions, verify
from busweaver.oracle import check_design_equivalence
from busweaver.pipeline import run_pipeline

POLICIES = {
    "default": InlinePolicy(),
    "threshold 3": InlinePolicy(threshold=3),
    "threshold 400": InlinePolicy(threshold=400),
    "off": InlinePolicy(enabled=False),
}


def _expr(rng: random.Random, names: list[str], depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(names)
    pick = rng.randrange(5)
    if pick == 0:
        return f"~{_expr(rng, names, depth - 1)}"
    if pick == 4:
        return "(" + " ? ".join([_expr(rng, names, depth - 1),
                                 _expr(rng, names, depth - 1)]) \
            + f" : {_expr(rng, names, depth - 1)})"
    return "(" + f" {'&|^'[pick - 1]} ".join(
        [_expr(rng, names, depth - 1), _expr(rng, names, depth - 1)]) + ")"


def _cell(rng: random.Random, name: str) -> tuple[str, list[str], list[str]]:
    """A 1-bit leaf cell: its text, input and output port names."""
    ins = [f"i{k}" for k in range(rng.randint(1, 3))]
    outs = [f"o{k}" for k in range(rng.randint(1, 2))]
    ports = [f"input {p}" for p in ins] + [f"output {p}" for p in outs]
    lines = [f"module {name}({', '.join(ports)});"]
    lines += [f"  assign {o} = {_expr(rng, ins, 3)};" for o in outs]
    return "\n".join([*lines, "endmodule", ""]), ins, outs


def random_hierarchy(seed: int) -> str:
    """One to three 1-bit leaf cells (1-3 inputs, 1-2 outputs, random
    ``~ & | ^ ?:`` bodies), each instantiated once per lane of a top
    over 2-6 lanes, sometimes through a middle module that adds logic
    of its own around one leaf instance.  A site reads bits of the
    top's inputs, a shared select or an earlier site's output in its
    lane.  Some outputs go to wires that nothing reads; the others
    feed the top's outputs, whole or combined with an input."""
    rng = random.Random(seed)
    width = rng.randint(2, 6)
    texts: list[str] = []
    cells = []
    for c in range(rng.randint(1, 3)):
        text, ins, outs = _cell(rng, f"leaf{c}")
        texts.append(text)
        name = f"leaf{c}"
        if rng.random() < 0.4:
            # a middle module: the leaf plus logic of its own
            inner = ", ".join(
                [f".{p}({p})" for p in ins] + [f".{p}(r_{p})" for p in outs]
            )
            ports = [f"input {p}" for p in ins] \
                + [f"output {p}" for p in outs]
            body = [f"module mid{c}({', '.join(ports)});"]
            body += [f"  wire r_{p};" for p in outs]
            body.append(f"  {name} u({inner});")
            body += [f"  assign {p} = {_expr(rng, [f'r_{p}', *ins], 2)};"
                     for p in outs]
            texts.append("\n".join([*body, "endmodule", ""]))
            name = f"mid{c}"
        cells.append((name, ins, outs))

    body: list[str] = []
    fed: list[str] = []  # wires an earlier site drives, per lane
    outputs: list[str] = []
    for c, (name, ins, outs) in enumerate(cells):
        conns = []
        for p in ins:
            sources = ["a[{k}]", "b[{k}]", "s", "a[{k1}]"] \
                + [w + "[{k}]" for w in fed]
            conns.append((p, rng.choice(sources)))
        driven = []
        for p in outs:
            wire = f"w{c}_{p}"
            body.append(f"  wire [{width - 1}:0] {wire};")
            driven.append((p, wire))
        for k in range(width):
            text = ", ".join(
                [f".{p}({src.format(k=k, k1=(k + 1) % width)})"
                 for p, src in conns]
                + [f".{p}({wire}[{k}])" for p, wire in driven]
            )
            body.append(f"  {name} u{c}_{k}({text});")
        for _, wire in driven:
            fed.append(wire)
            if rng.random() < 0.3:
                continue  # unread unless a later site reads it
            y = f"y{len(outputs)}"
            outputs.append(f"output [{width - 1}:0] {y}")
            rhs = rng.choice([wire, f"{wire} ^ b", f"{wire} & a"])
            body.append(f"  assign {y} = {rhs};")
    if not outputs:
        outputs.append("output y0")
        body.append("  assign y0 = s;")
    top = (f"module top(input [{width - 1}:0] a, input [{width - 1}:0] b,"
           f" input s, {', '.join(outputs)});")
    return "\n".join([*texts, top, *body, "endmodule", ""])


def check(seed: int, name: str) -> list[str]:
    """The failures of ``random_hierarchy(seed)`` under the policy
    ``POLICIES[name]``, as messages; empty when it passes."""
    policy = POLICIES[name]
    design = parse_design(random_hierarchy(seed))
    out, report = run_pipeline(design, policy)
    text = emit_design(out)
    where = f"seed {seed}, {name}"
    failures = [f"{where}: {message}" for message in verify(out)]
    failures += [
        f"{where}: module {module} is {verdict.status}"
        for module, verdict in check_design_equivalence(design, out).items()
        if not verdict.equivalent
    ]
    again = parse_design(text)
    count = sum(count_instructions(m) for m in again.modules.values())
    if count != report.instructions_after:
        failures.append(f"{where}: the text parses to {count} instructions,"
                        f" the report says {report.instructions_after}")
    if emit_design(run_pipeline(again, policy)[0]) != text:
        failures.append(f"{where}: a re-run changes the bytes")
    return failures


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 100
    failed = 0
    for seed in range(count):
        for name in POLICIES:
            for message in check(seed, name):
                print(message)
                failed += 1
    print(f"{failed} failures over {count} seeds")
    return int(failed > 0)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
