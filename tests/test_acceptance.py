"""Acceptance gate: one test per shipping criterion, each printing a
single PASS/FAIL line.  Budgets and tolerances are part of the
criterion and must not be loosened."""

import time

from busweaver import (
    check_equivalence,
    emit_design,
    parse_design,
    run_pipeline,
)
from busweaver.cones import backward_cone
from busweaver.generators import (
    nested_instance_design,
    permutation_design,
    replicated_cone_design,
    ripple_carry_design,
    scaling_design,
)
from busweaver.ir import metrics, simulate
from busweaver.oracle import check_design_equivalence
from busweaver.pipeline import PassCounters
from busweaver.reporting import threshold_sweep
from probes import rewrite_counts, scaling_probe
from reference import detect_permutation, greedy_group, is_independent

GOLDEN = [
    "permute_slice",
    "permute_general",
    "intermodule_buf",
    "perbit_mux",
    "partial_mix",
]


def _verdict(num: int, label: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num} ({label}): {status}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


def _small_corpus(golden_dir) -> list[tuple[str, str]]:
    """Designs whose every module stays within 16 input bits."""
    corpus = [
        (stem, (golden_dir / f"{stem}.v").read_text()) for stem in GOLDEN
    ]
    for seed in range(8):
        width = 4 + seed
        corpus.append(
            (f"perm{seed}", permutation_design(width, seed=seed, name="p"))
        )
    for seed in range(8):
        corpus.append((
            f"cone{seed}",
            replicated_cone_design(
                2 + seed % 6, 1 + seed % 4, seed=seed,
                invariant_slots=seed % 2 == 0, name="c",
            ),
        ))
    corpus.append(("rca4", ripple_carry_design(4)))
    corpus.append(("nested", nested_instance_design(4, 20)))
    return corpus


def test_criterion_1_golden_rewrites_byte_exact(golden_dir):
    failures = []
    started = time.perf_counter()
    for stem in GOLDEN:
        design = parse_design((golden_dir / f"{stem}.v").read_text())
        out, _ = run_pipeline(design)
        expected = (golden_dir / f"{stem}.vec.v").read_text()
        if emit_design(out) != expected:
            failures.append(f"{stem} differs from golden")
    slice_design = parse_design((golden_dir / "permute_slice.v").read_text())
    slice_out, _ = run_pipeline(slice_design)
    if "  assign out = {in[0], in[3:1]};\n" not in emit_design(slice_out):
        failures.append("rotate-by-one did not fold to slice+concat")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"golden runs took {elapsed:.2f}s (budget 1s)")
    _verdict(1, "golden rewrites byte-exact", failures)


def test_criterion_2_every_rewrite_verified_exhaustively(golden_dir):
    failures = []
    checked = 0
    for name, src in _small_corpus(golden_dir):
        design = parse_design(src)
        out, _ = run_pipeline(design)
        verdicts = check_design_equivalence(design, out)
        for module, verdict in verdicts.items():
            checked += 1
            if verdict.status == "counterexample":
                failures.append(f"{name}.{module}: counterexample")
            elif verdict.status != "equivalent-exhaustive":
                failures.append(f"{name}.{module}: {verdict.status}")
    if checked == 0:
        failures.append("no modules checked")
    _verdict(2, "all rewrites equivalent-exhaustive", failures)


def test_criterion_3_random_permutation_recovery():
    failures = []
    started = time.perf_counter()
    for case in range(500):
        width = 2 + case % 15
        design = parse_design(permutation_design(width, seed=case, name="p"))
        module = design.top_module
        pi = detect_permutation(module, module.outputs["out"])
        if pi is None:
            failures.append(f"case {case}: no permutation found")
            continue
        if sorted(pi.bits) != list(range(width)) or pi.base != 0:
            failures.append(f"case {case}: not a bijection")
            continue
        # independent ground truth: drive each input bit one-hot
        for j in range(width):
            got = simulate(module, {"in": 1 << j})["out"]
            if got != 1 << pi.bits.index(j):
                failures.append(f"case {case}: wrong map for bit {j}")
                break
        segments = greedy_group(pi)
        if sum(s.width for s in segments) != width:
            failures.append(f"case {case}: segments do not tile")
        counters = PassCounters()
        out, _ = run_pipeline(design, counters=counters)
        depth = max(metrics(module).max_depth, 2)
        if counters.trace_visits > width * depth:
            failures.append(f"case {case}: trace visits over budget")
        verdict = check_equivalence(module, out.top_module)
        if verdict.status != "equivalent-exhaustive":
            failures.append(f"case {case}: {verdict.status}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"suite took {elapsed:.1f}s (budget 30s)")
    _verdict(3, "500/500 permutations recovered", failures)


def test_criterion_4_cone_families_and_carry_rejection():
    failures = []
    for case in range(200):
        src = replicated_cone_design(
            width=2 + case % 7,
            depth=1 + case % 5,
            seed=case,
            invariant_slots=case % 2 == 0,
            name="c",
        )
        design = parse_design(src)
        out, report = run_pipeline(design)
        if not report.rewrites:
            failures.append(f"template {case}: nothing vectorized")
            continue
        # width 8 templates carry 17 input bits; keep the check
        # exhaustive there too
        verdicts = check_design_equivalence(
            design, out, max_exhaustive_bits=17
        )
        for module, verdict in verdicts.items():
            if verdict.status != "equivalent-exhaustive":
                failures.append(f"template {case}: {verdict.status}")
    rejected = 0
    for width in range(3, 53):
        design = parse_design(ripple_carry_design(width))
        module = design.top_module
        target = module.outputs["sum"]
        cones = [
            backward_cone(module, target, bit, None) for bit in range(width)
        ]
        if not all(c.analyzable for c in cones):
            failures.append(f"rca {width}: cone not analyzable")
        elif is_independent(cones):
            failures.append(f"rca {width}: shared carry chain accepted")
        else:
            rejected += 1
    if rejected != 50:
        failures.append(f"only {rejected}/50 adders rejected")
    _verdict(4, "200 cone families pass, 50 adders rejected", failures)


def test_criterion_5_strict_reduction_on_goldens(golden_dir):
    failures = []
    for stem in GOLDEN:
        design = parse_design((golden_dir / f"{stem}.v").read_text())
        _, report = run_pipeline(design)
        if report.instructions_after >= report.instructions_before:
            failures.append(
                f"{stem}: {report.instructions_before} -> "
                f"{report.instructions_after}"
            )
        if stem == "permute_slice":
            if report.instructions_before != 5:
                failures.append("rotate-by-one should start at 5 ops")
            if report.instructions_after > 3:
                failures.append(
                    f"rotate-by-one ends at {report.instructions_after} ops"
                )
    _verdict(5, "strictly positive reduction per golden", failures)


def test_criterion_6_near_linear_scaling():
    failures = []
    result = scaling_probe()
    if not 0.75 <= result.slope <= 1.25:
        failures.append(f"log-log slope {result.slope:.3f}")
    if result.r_squared < 0.9:
        failures.append(f"r^2 {result.r_squared:.3f}")
    if result.total_seconds >= 300.0:
        failures.append(f"probe took {result.total_seconds:.0f}s")
    _verdict(6, "runtime scales near-linearly", failures)


def test_criterion_7_idempotent_emission(golden_dir):
    failures = []
    corpus = _small_corpus(golden_dir)
    corpus.append(("nested120", nested_instance_design(4, 120)))
    corpus.append(("mesh", scaling_design(200)))
    for name, src in corpus:
        out1, _ = run_pipeline(parse_design(src))
        first = emit_design(out1)
        out2, _ = run_pipeline(parse_design(first))
        if emit_design(out2) != first:
            failures.append(f"{name}: second run changed bytes")
    _verdict(7, "second pipeline run is byte-identical", failures)


def test_criterion_8_sweep_monotone(tmp_path):
    failures = []
    paths = []
    for length in (20, 60, 120, 180, 250, 350):
        path = tmp_path / f"n{length}.v"
        path.write_text(nested_instance_design(4, length, name=f"n{length}"))
        paths.append(str(path))
    sweep = threshold_sweep(paths)
    counts = rewrite_counts(sweep)
    if counts != sorted(counts):
        failures.append(f"rewrites not monotone: {counts}")
    if counts[-1] <= counts[0]:
        failures.append(f"sweep is flat: {counts}")
    _verdict(8, "rewrites nondecreasing in inline threshold", failures)


def test_criterion_9_complexity_counters():
    failures = []
    for case in range(50):
        width = 2 + case % 15
        design = parse_design(permutation_design(width, seed=case, name="p"))
        depth = max(metrics(design.top_module).max_depth, 2)
        counters = PassCounters()
        run_pipeline(design, counters=counters)
        if counters.trace_visits > width * depth:
            failures.append(
                f"perm {case}: {counters.trace_visits} visits "
                f"> {width * depth}"
            )
    for width in range(3, 23):
        design = parse_design(ripple_carry_design(width))
        counters = PassCounters()
        run_pipeline(design, counters=counters)
        bound = width * (width - 1) // 2
        if counters.partial_candidates > bound:
            failures.append(
                f"rca {width}: {counters.partial_candidates} candidates "
                f"> {bound}"
            )
    _verdict(9, "trace and candidate counters within bounds", failures)
