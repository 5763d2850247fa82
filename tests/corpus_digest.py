"""Digest everything the pipeline decides over the benchmark corpora.

Usage, from the repository root::

    python tests/corpus_digest.py [--src DIR]

runs the 915 designs of ``perfbench/corpus.py`` at seeds 5, 21 and 70
under each policy of :data:`POLICIES` and prints one sha256 per
workload, one per workload and policy under it, then the same lines for
``hierarchies``, the random hierarchies of ``tests/hierarchies.py`` at
seeds 0-1999, and last one sha256 over all of them.  A corpus run's
hash covers the emitted text, the chunk tiling, category and change
flag of every sink, the trace, cone and candidate counters, the
instruction counts, the inline log, and the ``compile_packed``
programs of the input and the output; a hierarchy run's covers the
emitted text, the sinks as above and the four
:class:`~busweaver.pipeline.PassCounters`.  A design that raises hashes
its exception instead.  Two source trees that print the same digest
made the same decisions on every design, so a refactor shows that it
kept the behaviour by running this on both, and a change of behaviour
shows which workloads and policies it reached: ``--src`` names the
``src`` directory to import ``busweaver`` from (this checkout's by
default).  Of the checkout, the script reads only ``perfbench/`` and
``tests/hierarchies.py``.  Pytest does not collect this file; a full
run takes about half a minute on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory to import busweaver from")
    return parser.parse_args(argv)


if __name__ == "__main__":
    ARGS = _parse_args(sys.argv[1:])
    sys.path.insert(0, str(ARGS.src.resolve()))
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402
import hierarchies  # noqa: E402
from busweaver.emitter import emit_design  # noqa: E402
from busweaver.frontend import parse_design  # noqa: E402
from busweaver.inliner import InlinePolicy  # noqa: E402
from busweaver.ir import compile_packed  # noqa: E402
from busweaver.pipeline import PassCounters, run_pipeline  # noqa: E402

SEEDS = (5, 21, 70)
HIERARCHY_SEEDS = range(2000)
POLICIES = {
    "default": InlinePolicy(),
    "off": InlinePolicy(enabled=False),
    "threshold 3": InlinePolicy(threshold=3),
    "threshold 400": InlinePolicy(threshold=400),
}


def _programs(design) -> list:
    return [(name, p.inputs, p.gates, sorted(p.outputs.items()))
            for name, p in sorted(compile_packed(design).items())]


def _sinks(report) -> list:
    return [(s.module, s.sink, s.width, s.chunks, s.changed, s.category)
            for s in report.sinks]


def run_record(source: str, policy: InlinePolicy) -> str:
    """What the pipeline decides for the corpus design ``source`` under
    ``policy``, as text to hash."""
    try:
        design = parse_design(source)
        counters = PassCounters()
        out, report = run_pipeline(design, policy, counters)
        record = (
            emit_design(out), _sinks(report),
            (counters.trace_visits, counters.cone_visits,
             counters.partial_candidates),
            report.instructions_before, report.instructions_after,
            report.inline_log, _programs(design), _programs(out),
        )
    except Exception as exc:  # a failure is an outcome to compare too
        record = (type(exc).__name__, str(exc))
    return repr(record)


def hierarchy_record(source: str, policy: InlinePolicy) -> str:
    """What the pipeline decides for the hierarchy ``source`` under
    ``policy``, as text to hash."""
    try:
        counters = PassCounters()
        out, report = run_pipeline(parse_design(source), policy, counters)
        record = (
            emit_design(out), _sinks(report),
            (counters.trace_visits, counters.cone_visits,
             counters.partial_candidates, counters.copies_folded),
        )
    except Exception as exc:
        record = (type(exc).__name__, str(exc))
    return repr(record)


def hierarchy_cases(seeds) -> list[tuple[str, str]]:
    """``(name, source)`` of the random hierarchy of each seed."""
    return [(f"seed {seed}", hierarchies.random_hierarchy(seed))
            for seed in seeds]


def digest(cases: list, record=run_record) -> tuple[str, dict[str, str]]:
    """One sha256 over every ``(name, source)`` of ``cases`` under every
    policy, and one per policy over the same records."""
    h = hashlib.sha256()
    per_policy = {name: hashlib.sha256() for name in POLICIES}
    for case, source in cases:
        for name, policy in POLICIES.items():
            text = (f"{case}|{name}|" + record(source, policy)).encode()
            h.update(text)
            per_policy[name].update(text)
    return h.hexdigest(), {name: p.hexdigest()
                           for name, p in per_policy.items()}


def workload_lines(workload: str, cases: list,
                   record=run_record) -> tuple[str, list[str]]:
    """The digest of ``cases`` (``(name, source)`` pairs), and the lines
    that report it: one for the workload, then one per policy."""
    value, per_policy = digest(cases, record)
    lines = [f"{workload}: {len(cases)} designs x {len(POLICIES)}"
             f" policies: {value}"]
    lines += [f"  {workload} | {name}: {hexdigest}"
              for name, hexdigest in per_policy.items()]
    return value, lines


def main() -> int:
    total = hashlib.sha256()
    for workload in corpus.WORKLOADS:
        cases = [(c.name, c.source)
                 for seed in SEEDS for c in corpus.build(workload, seed)]
        value, lines = workload_lines(workload, cases)
        total.update(value.encode())
        print("\n".join(lines))
    value, lines = workload_lines("hierarchies",
                                  hierarchy_cases(HIERARCHY_SEEDS),
                                  hierarchy_record)
    total.update(value.encode())
    print("\n".join(lines))
    print(f"total: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
