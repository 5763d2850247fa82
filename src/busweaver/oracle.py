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
The truth tables up to that default are built once per input width and
kept for later checks.
``ir.simulate`` stays the independent scalar reference.
"""

from __future__ import annotations

import random

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


class EquivalenceVerdict:
    """Outcome of one module-pair check.

    ``status`` is ``equivalent-exhaustive``, ``equivalent-sampled`` or
    ``counterexample``; in the last case ``counterexample`` holds an
    input assignment on which the two modules disagree, and
    ``mismatch_output`` names the first differing output port.
    """

    __slots__ = ("status", "vectors_tested", "seed", "counterexample",
                 "mismatch_output")

    def __init__(
        self,
        status: str,
        vectors_tested: int,
        seed: int | None = None,
        counterexample: dict[str, int] | None = None,
        mismatch_output: str | None = None,
    ) -> None:
        self.status = status
        self.vectors_tested = vectors_tested
        self.seed = seed
        self.counterexample = counterexample
        self.mismatch_output = mismatch_output

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not EquivalenceVerdict:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in EquivalenceVerdict.__slots__)

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


#: Truth tables by total input width, kept up to the default
#: exhaustive limit: at most 17 tables, about 256 KiB in all.
_TRUTH_TABLES: dict[int, tuple[int, ...]] = {}


def _exhaustive_lanes(widths: list[int]) -> tuple[list[list[int]], int]:
    """Truth-table lane masks for every input bit, all 2**W vectors."""
    total = sum(widths)
    n_vectors = 1 << total
    lanes = _TRUTH_TABLES.get(total)
    if lanes is None:
        built = []
        for g in range(total):
            span = 1 << g
            mask = ((1 << span) - 1) << span
            stride = span * 2
            while stride < n_vectors:
                mask |= mask << stride
                stride *= 2
            built.append(mask)
        lanes = tuple(built)
        if total <= DEFAULT_MAX_EXHAUSTIVE_BITS:
            _TRUTH_TABLES[total] = lanes
    return _per_port(list(lanes), widths), n_vectors


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
            if la == lb:
                continue
            diff = la ^ lb
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
