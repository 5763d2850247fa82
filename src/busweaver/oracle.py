"""Simulation-based equivalence checking between module versions.

Small input spaces are enumerated exhaustively; larger ones get the
structured corner vectors first (all-zeros, all-ones, then every
one-hot) and a deterministic seeded sample after them.  Either way the
test vectors are built as lanes, one integer per input bit whose bit k
is that input bit's value in vector k (a sampled lane takes one
``getrandbits`` call), and a counterexample is read back from bit k of
the lanes.

Each side is compiled once into a folded one-bit gate program
(``ir.compile_packed``: wiring costs nothing, a callee is substituted
instead of re-simulated at every site) and the programs are evaluated
bit-parallel by ``ir.simulate_packed``, so even the exhaustive check at
the 16-bit default is a handful of big-integer operations per gate.
``ir.simulate`` stays the independent scalar reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from busweaver.ir import (
    HwDesign,
    HwModule,
    PackedProgram,
    compile_module,
    compile_packed,
    simulate_packed,
)

DEFAULT_MAX_EXHAUSTIVE_BITS = 16
DEFAULT_SAMPLES = 10000


@dataclass
class EquivalenceVerdict:
    """Outcome of one module-pair check.

    ``status`` is ``equivalent-exhaustive``, ``equivalent-sampled`` or
    ``counterexample``; in the last case ``counterexample`` holds an
    input assignment on which the two modules disagree, and
    ``mismatch_output`` names the first differing output port.
    """

    status: str
    vectors_tested: int
    seed: int | None = None
    counterexample: dict[str, int] | None = None
    mismatch_output: str | None = None

    @property
    def equivalent(self) -> bool:
        return self.status.startswith("equivalent")


def _signature(module: HwModule) -> list[tuple[str, str, int]]:
    return [(p.name, p.direction, p.width) for p in module.ports]


def _per_port(lanes: list[int], widths: list[int]) -> list[list[int]]:
    out: list[list[int]] = []
    pos = 0
    for w in widths:
        out.append(lanes[pos:pos + w])
        pos += w
    return out


def _exhaustive_lanes(widths: list[int]) -> tuple[list[list[int]], int]:
    """Truth-table lane masks for every input bit, all 2**W vectors."""
    total = sum(widths)
    n_vectors = 1 << total
    lanes: list[int] = []
    for g in range(total):
        span = 1 << g
        mask = ((1 << span) - 1) << span
        stride = span * 2
        while stride < n_vectors:
            mask |= mask << stride
            stride *= 2
        lanes.append(mask)
    return _per_port(lanes, widths), n_vectors


def _sampled_lanes(widths: list[int], samples: int,
                   seed: int) -> tuple[list[list[int]], int]:
    """Corner vectors then a seeded uniform sample, one lane per input
    bit: vector 0 is all-zeros, vector 1 all-ones, vector 2+g one-hot
    on input bit g, and the ``samples`` random vectors follow."""
    total = sum(widths)
    rng = random.Random(seed)
    shift = 2 + total
    lanes = [2 | (1 << (2 + g)) | (rng.getrandbits(samples) << shift)
             for g in range(total)]
    return _per_port(lanes, widths), shift + samples


def _first_mismatch(
    a: dict[str, list[int]], b: dict[str, list[int]], order: list[str]
) -> tuple[str, int] | None:
    """(output port, vector index) of the first disagreement."""
    best: tuple[int, str] | None = None
    for name in order:
        for la, lb in zip(a[name], b[name]):
            diff = la ^ lb
            if diff:
                k = (diff & -diff).bit_length() - 1
                if best is None or k < best[0]:
                    best = (k, name)
    if best is None:
        return None
    return best[1], best[0]


def check_equivalence(
    original: HwModule,
    transformed: HwModule,
    *,
    max_exhaustive_bits: int = DEFAULT_MAX_EXHAUSTIVE_BITS,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    compiled: tuple[PackedProgram, PackedProgram] | None = None,
) -> EquivalenceVerdict:
    """Check that two modules with identical port signatures compute the
    same outputs.

    ``compiled`` holds both modules' programs; without it each module
    is compiled on its own, so a module with instances raises
    ``ValueError`` (:func:`check_design_equivalence` compiles whole
    designs).

    Raises ``ValueError`` on a port signature mismatch; that is an
    ill-posed comparison, not a counterexample.
    """
    sig_a, sig_b = _signature(original), _signature(transformed)
    if sig_a != sig_b:
        raise ValueError(
            f"port signature mismatch: {original.name} has {sig_a},"
            f" {transformed.name} has {sig_b}"
        )
    in_ports = original.input_ports
    names = [p.name for p in in_ports]
    widths = [p.width for p in in_ports]
    out_order = [p.name for p in original.output_ports]
    total = sum(widths)

    if total <= max_exhaustive_bits:
        lanes, n_vectors = _exhaustive_lanes(widths)
        status = "equivalent-exhaustive"
        used_seed = None
    else:
        lanes, n_vectors = _sampled_lanes(widths, samples, seed)
        status = "equivalent-sampled"
        used_seed = seed

    if compiled is None:
        compiled = (compile_module(original, {}),
                    compile_module(transformed, {}))
    inputs = dict(zip(names, lanes))
    out_a = simulate_packed(compiled[0], inputs, n_vectors)
    out_b = simulate_packed(compiled[1], inputs, n_vectors)
    hit = _first_mismatch(out_a, out_b, out_order)
    if hit is None:
        return EquivalenceVerdict(status, n_vectors, used_seed)

    port, k = hit
    assignment = {
        name: sum(((lane >> k) & 1) << i for i, lane in enumerate(bits))
        for name, bits in inputs.items()
    }
    return EquivalenceVerdict(
        "counterexample", n_vectors, used_seed,
        counterexample=assignment, mismatch_output=port,
    )


def check_design_equivalence(
    original: HwDesign,
    transformed: HwDesign,
    *,
    max_exhaustive_bits: int = DEFAULT_MAX_EXHAUSTIVE_BITS,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> dict[str, EquivalenceVerdict]:
    """Check every module the two designs have in common (after a
    rewrite that is all of them), keyed by module name.  Each design is
    compiled once."""
    programs_a = compile_packed(original)
    programs_b = compile_packed(transformed)
    verdicts = {}
    for name, mod_a in original.modules.items():
        mod_b = transformed.modules.get(name)
        if mod_b is None:
            continue
        verdicts[name] = check_equivalence(
            mod_a, mod_b,
            max_exhaustive_bits=max_exhaustive_bits,
            samples=samples, seed=seed,
            compiled=(programs_a[name], programs_b[name]),
        )
    return verdicts


@dataclass
class MutationAuditResult:
    total: int
    caught: int
    seed: int
    details: list[str] = field(default_factory=list)

    @property
    def rate(self) -> float | None:
        if self.total == 0:
            return None
        return self.caught / self.total


def _mutation_candidates(module: HwModule) -> list[tuple[str, int, int]]:
    """(kind, op id, payload) edits that keep the module well-formed."""
    out: list[tuple[str, int, int]] = []
    extracts: dict[tuple[int, int], list[int]] = {}
    for op_id, op in enumerate(module.operations):
        if op.kind == "extract":
            extracts.setdefault(
                (op.operands[0].op, op.width), []
            ).append(op_id)
        elif op.kind in ("and", "or", "xor", "add", "sub"):
            out.append(("flip", op_id, 0))
        elif op.kind == "concat":
            n = len(op.operands)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    a, b = op.operands[i], op.operands[j]
                    if a.width == b.width and a != b:
                        out.append(("swapcat", op_id, i * n + j))
    for peers in extracts.values():
        for i, a in enumerate(peers):
            for b in peers[i + 1:]:
                if module.operations[a].low != module.operations[b].low:
                    out.append(("swapext", a, b))
    return out


_FLIP = {"and": "or", "or": "xor", "xor": "and", "add": "sub", "sub": "add"}


def mutation_audit(
    design: HwDesign,
    mutations: int = 20,
    seed: int = 0,
    *,
    max_exhaustive_bits: int = DEFAULT_MAX_EXHAUSTIVE_BITS,
    samples: int = DEFAULT_SAMPLES,
) -> MutationAuditResult:
    """Sanity-check the oracle by injecting single faults into the top
    module and counting how many it reports as non-equivalent.

    Each mutation swaps two extract offsets, flips a binary operator, or
    swaps two same-width concat operands.  Raises ``ValueError`` if the
    top module offers nothing to mutate.
    """
    from dataclasses import replace

    top = design.top_module
    candidates = _mutation_candidates(top)
    if not candidates:
        raise ValueError(
            f"module {top.name!r} has no mutation candidates"
        )
    programs = compile_packed(design)
    rng = random.Random(seed)
    result = MutationAuditResult(0, 0, seed)
    for _ in range(mutations):
        kind, a, b = candidates[rng.randrange(len(candidates))]
        ops = [replace(op, operands=list(op.operands))
               for op in top.operations]
        if kind == "flip":
            ops[a].kind = _FLIP[ops[a].kind]
            label = f"flip %{a}"
        elif kind == "swapext":
            ops[a].low, ops[b].low = ops[b].low, ops[a].low
            label = f"swap extract offsets %{a} %{b}"
        else:
            n = len(ops[a].operands)
            i, j = b // n, b % n
            opnds = ops[a].operands
            opnds[i], opnds[j] = opnds[j], opnds[i]
            label = f"swap concat operands {i},{j} of %{a}"
        mutant = HwModule(top.name, list(top.ports), ops,
                          dict(top.outputs), dict(top.wires))
        verdict = check_equivalence(
            top, mutant,
            max_exhaustive_bits=max_exhaustive_bits,
            samples=samples, seed=seed,
            compiled=(programs[top.name], compile_module(mutant, programs)),
        )
        result.total += 1
        if verdict.status == "counterexample":
            result.caught += 1
            result.details.append(f"{label}: caught")
        else:
            result.details.append(f"{label}: missed ({verdict.status})")
    return result
