"""Smoke test of the benchmark: one small design per family, every
workload, with and without tracing.

Run from the root of the checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints(workload: str, trace: str) -> None:
    proc = _bench("--workload", workload, "--seed", "3", "--seconds",
                  "0.2", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= len(corpus.WORKLOADS[workload])
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        # The human-readable lines name every metric with its unit.
        assert any(m["name"] in line and f" {m['unit']}" in line
                   for line in lines[:-1]), m["name"]


def test_fails_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "wide-flat", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_check_catches_a_wrong_output(tmp_path: Path) -> None:
    from busweaver.frontend import parse_design
    from busweaver.ir import simulate

    import random
    src, inputs, expect = corpus.perm(random.Random(0), 8)
    path = tmp_path / "perm.v"
    path.write_text(src)  # the scalar source computes the same function
    case = corpus.Case("perm", src, inputs, expect)
    assert run.reference_check(case, str(path), 0, parse_design,
                               simulate) is None

    def wrong(v: dict[str, int]) -> dict[str, int]:
        return {"out": expect(v)["out"] ^ 1}

    bad = corpus.Case("perm", src, inputs, wrong)
    assert "expected" in run.reference_check(bad, str(path), 0,
                                             parse_design, simulate)


def test_host_probe_keeps_the_collector_and_scales_to_reference() -> None:
    import gc

    import hostspeed

    assert gc.isenabled()
    assert hostspeed.probe() > 0
    assert gc.isenabled()
    assert hostspeed.scale(0.5, hostspeed.REFERENCE_S) == 0.5
    assert hostspeed.scale(0.5, 2 * hostspeed.REFERENCE_S) == 0.25
