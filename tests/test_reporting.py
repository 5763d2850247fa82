"""Batch processing, sweeps, scaling probes, report files, and the
command line front end."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import probes
from busweaver import reporting
from busweaver.cli import main
from busweaver.frontend import parse_design
from busweaver.generators import (
    nested_instance_design,
    permutation_design,
    ripple_carry_design,
)
from busweaver.ir import HwDesign
from busweaver.reporting import (
    DEFAULT_SWEEP_THRESHOLDS,
    SCHEMA_VERSION,
    BatchOptions,
    process_design,
    report_to_dict,
    run_batch,
    threshold_sweep,
    write_csv_report,
    write_json_report,
)
from probes import rewrite_counts, scaling_probe

BROKEN = "module bad(input a, output [1:0] y);\n  assign y[0] = a;\nendmodule\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_process_design_success(golden_dir):
    result = process_design(
        str(golden_dir / "partial_mix.v"), BatchOptions(check=True)
    )
    assert result.ok
    assert result.error is None
    assert (result.instructions_before, result.instructions_after) == (5, 3)
    assert result.reduction_percent == pytest.approx(40.0)
    assert result.rewrites == 1
    assert result.category == "mixed"
    assert result.equivalence == "equivalent-exhaustive"
    assert result.output_path is None
    assert result.counters["partial_candidates"] >= 1
    assert result.sinks[0]["chunks"][0]["method"] == "bit-permutation"


def test_process_design_reports_the_worst_equivalence(tmp_path,
                                                      monkeypatch):
    # inv's 4 input bits are checked exhaustively, top's 24 by sampling,
    # and the sampled verdict outranks the exhaustive one
    src = (
        "module inv(input [3:0] a, output [3:0] y);\n"
        "  assign y = ~a;\n"
        "endmodule\n"
        "module top(input [23:0] a, output [23:0] y);\n"
        "  assign y = a ^ {a[0], a[23:1]};\n"
        "endmodule\n"
    )
    path = _write(tmp_path, "mixed.v", src)
    result = process_design(path, BatchOptions(check=True))
    assert (result.ok, result.equivalence) == (True, "equivalent-sampled")
    # a counterexample in one module outranks both
    wrong = parse_design(src.replace("~a", "a")).modules["inv"]
    run = reporting.run_pipeline

    def breaks_inv(*args):
        out, report = run(*args)
        return HwDesign({**out.modules, "inv": wrong}, out.top), report

    monkeypatch.setattr(reporting, "run_pipeline", breaks_inv)
    result = process_design(path, BatchOptions(check=True))
    assert (result.ok, result.equivalence) == (False, "counterexample")


def test_process_design_parse_error(tmp_path):
    path = _write(tmp_path, "bad.v", BROKEN)
    result = process_design(path, BatchOptions())
    assert not result.ok
    assert "never driven" in result.error
    assert result.instructions_before == 0


def test_process_design_missing_file(tmp_path):
    result = process_design(str(tmp_path / "nope.v"), BatchOptions())
    assert not result.ok
    assert result.error


def test_process_design_writes_output(tmp_path, golden_dir):
    out_dir = tmp_path / "out"
    options = BatchOptions(out_dir=str(out_dir), write_output=True)
    result = process_design(str(golden_dir / "permute_slice.v"), options)
    assert result.output_path == str(out_dir / "permute_slice.vec.v")
    emitted = (out_dir / "permute_slice.vec.v").read_text()
    assert emitted == (golden_dir / "permute_slice.vec.v").read_text()


def test_run_batch_summary(tmp_path):
    paths = [
        _write(tmp_path, "perm.v", permutation_design(4, seed=2)),
        _write(tmp_path, "rca.v", ripple_carry_design(4)),
        _write(tmp_path, "bad.v", BROKEN),
    ]
    report = run_batch(paths, BatchOptions(check=True))
    s = report.summary
    assert s["designs"] == 3
    assert s["parsed"] == 2
    assert s["failed"] == 1
    assert s["reduced"] == 1
    assert s["unchanged"] == 1
    assert s["increased"] == 0
    assert s["total_rewrites"] == 1
    assert s["categories"] == {"bit-level": 1}
    assert s["equivalence_failures"] == 0
    assert s["mean_reduction_percent"] > 0
    # a parse failure fails the batch
    assert not report.ok
    assert [r.ok for r in report.results] == [True, True, False]


def test_run_batch_parallel_matches_serial(tmp_path):
    paths = [
        _write(tmp_path, f"p{i}.v", permutation_design(6, seed=i, name=f"p{i}"))
        for i in range(4)
    ]
    serial = run_batch(paths, BatchOptions(jobs=1))
    parallel = run_batch(paths, BatchOptions(jobs=2))
    assert serial.summary == parallel.summary
    assert [r.path for r in parallel.results] == paths


def test_threshold_sweep_monotone(tmp_path):
    paths = [
        _write(tmp_path, f"n{length}.v",
               nested_instance_design(4, length, name=f"n{length}"))
        for length in (20, 60, 120)
    ]
    sweep = threshold_sweep(paths, thresholds=(30, 75, 150))
    assert sweep.thresholds == [30, 75, 150]
    assert rewrite_counts(sweep) == [1, 2, 3]
    assert rewrite_counts(sweep) == sorted(rewrite_counts(sweep))


def test_scaling_probe_smoke():
    result = scaling_probe(op_targets=(100, 400))
    assert [p.op_target for p in result.points] == [100, 400]
    assert result.points[0].instructions < result.points[1].instructions
    assert all(p.seconds > 0 for p in result.points)
    assert 0.0 < result.slope < 2.0
    assert 0.0 <= result.r_squared <= 1.0


def test_scaling_probe_r_squared_never_exceeds_one(monkeypatch):
    # an exact two-point fit can give a correlation a rounding step
    # above 1
    monkeypatch.setattr(
        probes.statistics, "correlation", lambda xs, ys: 1 + 2**-52
    )
    result = scaling_probe(op_targets=(100, 200), min_seconds=0.0)
    assert result.r_squared == 1.0


def test_json_report_schema(tmp_path, golden_dir):
    paths = [str(golden_dir / "partial_mix.v")]
    options = BatchOptions(check=True)
    report = run_batch(paths, options)
    sweep = threshold_sweep(paths, thresholds=(150,), options=options)
    out = tmp_path / "report.json"
    write_json_report(str(out), report, options, sweep)
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["options"]["check"] is True
    assert doc["summary"]["designs"] == 1
    assert len(doc["designs"]) == 1
    design = doc["designs"][0]
    assert design["equivalence"] == "equivalent-exhaustive"
    assert design["sinks"][0]["chunks"][0]["method"] == "bit-permutation"
    assert doc["sweep"]["thresholds"] == [150]
    assert doc["sweep"]["rows"][0]["rewrites"] == 1
    # dict form round-trips through json unchanged
    assert report_to_dict(report, options, sweep) == doc


def test_csv_report_columns(tmp_path, golden_dir):
    report = run_batch([str(golden_dir / "partial_mix.v")], BatchOptions())
    out = tmp_path / "report.csv"
    write_csv_report(str(out), report)
    header, row = out.read_text().splitlines()
    assert header == ("path,ok,instructions_before,instructions_after,"
                      "reduction_percent,rewrites,category,equivalence,"
                      "seconds")
    fields = row.split(",")
    assert fields[1] == "True"
    assert fields[2:6] == ["5", "3", "40.0", "1"]


def test_cli_single_design(tmp_path, golden_dir, capsys):
    out_dir = tmp_path / "vec"
    code = main([
        str(golden_dir / "partial_mix.v"), "--out", str(out_dir), "--check",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "5 -> 3 ops" in captured.out
    assert "[equivalent-exhaustive]" in captured.out
    assert (out_dir / "partial_mix.vec.v").exists()


def test_cli_prints_the_rewrites_of_a_design_that_grows(tmp_path, capsys):
    # the four sites cost eight selects and a concat; spliced, they
    # vectorize to one copy of the cell's eleven ops, none of which a
    # splice rule folds, and the cell's definition stays in the output
    body = "~(a ^ b) & (a | ~b) ^ (a & b) | ~(a & ~b)"
    path = _write(tmp_path, "g.v", (
        "module cell(input a, input b, output y);\n"
        f"  assign y = {body};\n"
        "endmodule\n"
        "module g(input [3:0] x, input [3:0] z, output [3:0] y);\n"
        + "".join(f"  cell u{k}(.a(x[{k}]), .b(z[{k}]), .y(y[{k}]));\n"
                  for k in range(4))
        + "endmodule\n"))
    assert main([path, "--out", str(tmp_path / "vec")]) == 0
    assert "g.v: 20 -> 22 ops (1 rewrites)" in capsys.readouterr().out


def test_cli_directory_expansion_and_summary(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.v").write_text(permutation_design(4, seed=2, name="a"))
    (corpus / "b.v").write_text(ripple_carry_design(3, name="b"))
    code = main([str(corpus), "--out", str(tmp_path / "vec")])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 designs: 1 reduced, 0 increased, 1 unchanged" in out
    assert "unchanged" in out.splitlines()[1]


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "bad.v", BROKEN)
    code = main([path])
    assert code == 1
    captured = capsys.readouterr()
    assert "bad.v: error" in captured.err
    assert "never driven" in captured.err


def test_cli_no_inputs(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([str(empty)]) == 1
    assert "no input files" in capsys.readouterr().err


def test_cli_sweep_and_reports(tmp_path, capsys):
    path = _write(tmp_path, "n.v", nested_instance_design(4, 20, name="n"))
    report_file = tmp_path / "r.json"
    csv_file = tmp_path / "r.csv"
    code = main([
        path, "--out", str(tmp_path / "vec"),
        "--sweep", "30,150",
        "--report", str(report_file),
        "--csv", str(csv_file),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "threshold" in out
    assert " 30" in out and "150" in out
    doc = json.loads(report_file.read_text())
    assert doc["sweep"]["thresholds"] == [30, 150]
    # every second ~ of the chain folds where a site is spliced
    assert doc["designs"][0]["counters"]["copies_folded"] == 4 * 10
    assert csv_file.read_text().startswith("path,ok,")


@pytest.mark.parametrize("value, thresholds", [
    (["30,,150,"], [30, 150]),
    ([], list(DEFAULT_SWEEP_THRESHOLDS)),
])
def test_cli_sweep_thresholds(tmp_path, golden_dir, capsys, value,
                              thresholds):
    report_file = tmp_path / "r.json"
    code = main([str(golden_dir / "permute_slice.v"),
                 "--out", str(tmp_path / "vec"),
                 "--report", str(report_file), "--sweep", *value])
    assert code == 0
    doc = json.loads(report_file.read_text())
    assert doc["sweep"]["thresholds"] == thresholds


@pytest.mark.parametrize("args, option", [
    (["--sweep", "30,x"], "--sweep"),
    (["--sweep", ","], "--sweep"),
    (["--samples", "-1", "--max-exhaustive-bits", "0", "--check"],
     "--samples"),
    (["--samples", "x", "--check"], "--samples"),
])
def test_cli_rejects_a_malformed_number_with_a_usage_message(
        tmp_path, golden_dir, capsys, args, option):
    with pytest.raises(SystemExit) as exc:
        main([str(golden_dir / "partial_mix.v"), "--out", str(tmp_path),
              *args])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: busweaver")
    assert f"error: argument {option}: expected" in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_cli_accepts_a_sample_count(tmp_path, golden_dir, capsys):
    report_file = tmp_path / "r.json"
    code = main([str(golden_dir / "partial_mix.v"), "--out", str(tmp_path),
                 "--check", "--samples", "1000", "--max-exhaustive-bits",
                 "0", "--report", str(report_file)])
    assert code == 0
    doc = json.loads(report_file.read_text())
    assert doc["options"]["samples"] == 1000
    assert doc["designs"][0]["equivalence"] == "equivalent-sampled"


def test_process_design_turns_an_unexpected_exception_into_a_result(
        tmp_path, golden_dir, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("a message that depends on the run")

    monkeypatch.setattr(reporting, "run_pipeline", boom)
    result = process_design(str(golden_dir / "partial_mix.v"),
                            BatchOptions(check=True))
    assert not result.ok
    assert result.error == "internal error: ValueError"
    assert result.instructions_before == 0
    assert result.seconds > 0


def test_cli_finishes_the_batch_after_an_internal_error(
        tmp_path, golden_dir, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    # The frontend parses any nesting depth, so the parse of this one
    # file is made to raise an exception nothing else anticipates.
    (corpus / "chain.v").write_text(
        "module chain(input a, output y);\n"
        f"  assign y = {'~' * 1200}a;\nendmodule\n"
    )
    parse_design = reporting.parse_design

    def parse_or_overflow(src, filename="<input>"):
        if filename.endswith("chain.v"):
            raise RecursionError("maximum recursion depth exceeded")
        return parse_design(src, filename)

    monkeypatch.setattr(reporting, "parse_design", parse_or_overflow)
    (corpus / "partial_mix.v").write_text(
        (golden_dir / "partial_mix.v").read_text())
    report_file = tmp_path / "r.json"
    code = main([str(corpus), "--out", str(tmp_path / "vec"),
                 "--report", str(report_file)])
    captured = capsys.readouterr()
    assert code == 1
    assert (tmp_path / "vec" / "partial_mix.vec.v").read_text() \
        == (golden_dir / "partial_mix.vec.v").read_text()
    assert json.loads(report_file.read_text())["summary"]["failed"] == 1
    assert "chain.v: error\n  internal error: RecursionError\n" \
        in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_process_design_logs_the_internal_error_traceback(
        golden_dir, monkeypatch, caplog):
    def boom(*args, **kwargs):
        raise ValueError("the message stays in the log")

    monkeypatch.setattr(reporting, "run_pipeline", boom)
    caplog.set_level(logging.DEBUG, logger="busweaver.reporting")
    path = str(golden_dir / "partial_mix.v")
    result = process_design(path, BatchOptions())
    assert result.error == "internal error: ValueError"
    [record] = [r for r in caplog.records
                if r.name == "busweaver.reporting"]
    assert record.levelno == logging.DEBUG
    assert record.getMessage() == f"internal error in {path}"
    assert record.exc_info[0] is ValueError
    assert "the message stays in the log" in caplog.text
    assert "Traceback" in caplog.text


DEFERRED = ("concurrent.futures", "multiprocessing", "logging", "json",
            "csv")


def _loaded_modules(code):
    src = Path(reporting.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return set(out.split())


def test_importing_the_cli_defers_pool_logging_json_and_csv():
    bare = _loaded_modules("")
    loaded = _loaded_modules("import busweaver.cli, busweaver.reporting")
    assert "busweaver.reporting" in loaded
    assert [m for m in DEFERRED if m in loaded and m not in bare] == []


#: Each costs start-up on every run: ``dataclasses`` 11-15 ms to import
#: (it pulls in ``inspect``), plus about 1 ms per decorated class.
NEVER_LOADED = ("dataclasses", "inspect")


def test_the_cli_path_never_loads_dataclasses_or_inspect(tmp_path,
                                                         golden_dir):
    bare = _loaded_modules("")
    run = (
        "import busweaver.cli\n"
        f"argv = [{str(golden_dir / 'partial_mix.v')!r}, '--check',"
        f" '--out', {str(tmp_path)!r}]\n"
        "assert busweaver.cli.main(argv) == 0"
    )
    for code in ("import busweaver.cli, busweaver.reporting", run):
        loaded = _loaded_modules(code)
        assert "busweaver.reporting" in loaded
        assert [m for m in NEVER_LOADED
                if m in loaded and m not in bare] == [], code
    assert (tmp_path / "partial_mix.vec.v").exists()
