"""Count the bytecode busweaver executes, per stage, over the benchmark
corpora.

Usage, from the repository root::

    python tests/opcount.py [--src DIR]

builds the seed-5 corpus of each workload of ``perfbench/corpus.py``
and prints one line per workload and stage: the instructions the
interpreter executed inside :data:`STAGES`, summed over the designs.
Each design is parsed, run through the pipeline under the default
policy, checked against its output with the check's defaults and
emitted, the path of ``busweaver.reporting.process_design`` without
the file reads and writes.  ``--src`` names the ``src`` directory to
import ``busweaver`` from (this checkout's by default), so one command
per tree compares two of them.

The counting runs in a child process with ``PYTHONHASHSEED=0``, so
that set order cannot move a count, and with the cyclic collector
off.  Each stage runs under :func:`sys.settrace` with
``f_trace_opcodes`` set on every frame, and one opcode event is one
instruction, in busweaver and in whatever it calls.  A count sees only
interpreted work: the lexer's regular expression, big-integer lane
operations and dict and set internals run in C and count nothing.
Unlike a wall time, a count does not drift with the host, so a change
of 1% reads as one.  Pytest does not collect this file; a full run
takes about 12 s on one core.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 5
STAGES = ("parse_design", "run_pipeline", "check_design_equivalence",
          "emit_design")


def _counted(fn, *args):
    """``fn(*args)`` and the instructions it executed."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return result, count


def count_stages(sources: list[str]) -> dict[str, int]:
    """The instructions each stage executed over ``sources``, counted in
    this process."""
    from busweaver.emitter import emit_design
    from busweaver.frontend import parse_design
    from busweaver.oracle import check_design_equivalence
    from busweaver.pipeline import run_pipeline

    totals = dict.fromkeys(STAGES, 0)
    for source in sources:
        design, n = _counted(parse_design, source)
        totals["parse_design"] += n
        (out, _), n = _counted(run_pipeline, design)
        totals["run_pipeline"] += n
        _, n = _counted(check_design_equivalence, design, out)
        totals["check_design_equivalence"] += n
        _, n = _counted(emit_design, out)
        totals["emit_design"] += n
    return totals


def measure(cases: dict[str, list[str]],
            src: Path = ROOT / "src") -> dict[str, dict[str, int]]:
    """Per workload of ``cases`` (workload -> sources), the counts of
    :func:`count_stages`, taken in a child process that imports
    ``busweaver`` from ``src`` with ``PYTHONHASHSEED=0``."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    child = subprocess.run(
        [sys.executable, __file__, "--child", "--src", str(src)],
        input=json.dumps(cases), capture_output=True, text=True, env=env,
        check=True)
    return json.loads(child.stdout)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory to import busweaver from")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if args.child:  # workload -> sources on stdin, counts on stdout
        sys.path.insert(0, str(args.src.resolve()))
        gc.disable()
        cases = json.load(sys.stdin)
        json.dump({workload: count_stages(sources)
                   for workload, sources in cases.items()}, sys.stdout)
        return 0
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus

    cases = {workload: [c.source for c in corpus.build(workload, SEED)]
             for workload in corpus.WORKLOADS}
    for workload, counts in measure(cases, args.src).items():
        for stage, count in counts.items():
            print(f"{workload} | {stage}: {count:,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
