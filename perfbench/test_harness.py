"""Fast self-tests of the benchmark harness at 40x40 grids.

    python3 -m pytest perfbench -q

Each workload runs through the same code path as a timed run, only on a
small grid: CLI children, the output checks, the traced chain and its probe
comparisons.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from harness import (MAX_SHRINK, ROOT, WORKLOADS, Outputs,  # noqa: E402
                     check_outputs, cli_args, default_box, fresh_dir,
                     seeded_box, spawn)

BENCH = run.BENCH
SMALL = {name: dataclasses.replace(w, n=40) for name, w in WORKLOADS.items()}


def _cli_outputs(workload, seed=0):
    """Run one CLI child and keep its output directory for the test."""
    workdir = fresh_dir()
    outputs = Outputs.under(workdir, workload)
    child = spawn([sys.executable, "-m", "paretoscape.cli"]
                  + cli_args(workload, seed, outputs), workdir)
    assert child.returncode == 0, child.stderr
    return workdir, outputs, child.stdout


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("seed", [0, 7])
def test_cli_runs_pass_the_output_gate(name, seed):
    runs = run.Runs(SMALL[name], seed)
    run.measure_cli(runs, seconds=1, started=0.0)
    assert runs.attempted == 1 and runs.failed == 0, runs.samples


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_chain_reproduces_cli_and_reports_every_layer(name):
    runs = run.Runs(SMALL[name], 3)
    layer_values = run.measure_traced(runs, seconds=1, started=0.0)
    assert runs.failed == 0, runs.samples
    spans = runs.samples[0]["spans"]
    assert spans["mismatches"] == []
    # the chain's summary, image and exports equal the CLI child's
    assert runs.samples[0]["chain_summary"] == runs.first.summary
    assert runs.samples[0]["chain_sha256"] == runs.first.digests
    outputs = Outputs.under(ROOT, SMALL[name])
    assert set(runs.first.digests) == set(outputs.files())
    values = layer_values[0]
    span_names = {s["name"] for s in spans["spans"]}
    for metric in BENCH["per_layer"]:
        if metric["unit"] == "s" and metric["name"] not in run.DERIVED_METRICS:
            assert metric["name"][:-2] in span_names, metric["name"]
        if metric["name"] != "trace.overhead_s":   # filled in by run.main
            assert math.isfinite(values[metric["name"]]), metric["name"]
    assert values["criticality.triangles"] > 0
    assert values["cli.traced_total_s"] > 0


@pytest.mark.parametrize("old, new, error", [
    # a probe that disagrees with the outer call
    ("counts = dominance_counts(F)", "counts = dominance_counts(F) + 1",
     "probe results differ from the outer call: landscape.dominance"),
    # an image that differs from the CLI's
    ("fh.write(data)", "fh.write(data[:-1] + b'x')",
     "chain summary or output digests differ from the CLI's"),
])
def test_traced_run_fails_when_the_chain_disagrees(tmp_path, monkeypatch,
                                                    old, new, error):
    source = (run.HERE / "chain.py").read_text()
    assert source.count(old) == 1
    (tmp_path / "chain.py").write_text(source.replace(old, new))
    monkeypatch.setattr(run, "HERE", tmp_path)
    runs = run.Runs(SMALL["cost-kursawe-1000"], 0)
    assert run.measure_traced(runs, seconds=1, started=0.0) == []
    assert runs.attempted == 1 and runs.failed == 1
    assert runs.samples[0]["errors"] == [f"chain: {error}"]


def test_output_gate_rejects_damaged_outputs():
    workload = SMALL["cost-kursawe-1000"]
    workdir, outputs, stdout = _cli_outputs(workload)
    try:
        assert check_outputs(workload, outputs, stdout).errors == []

        lines = outputs.csv.read_text().splitlines(keepends=True)
        outputs.csv.write_text("".join(lines[:-1]))
        png = outputs.image.read_bytes()
        outputs.image.write_bytes(png[:16] + (41).to_bytes(4, "big") + png[20:])
        data = json.loads(outputs.json.read_text())
        data["n_rank0"] += 1
        outputs.json.write_text(json.dumps(data))
        errors = check_outputs(workload, outputs, stdout).errors
        assert any(e.startswith("csv: 1599 rows") for e in errors), errors
        assert any(e.startswith("image: PNG is 41x40") for e in errors), errors
        assert any(e.startswith("json: n_rank0") for e in errors), errors

        outputs.json.unlink()
        assert any("not written" in e
                   for e in check_outputs(workload, outputs, stdout).errors)
        assert check_outputs(workload, outputs, "").errors[0].startswith("summary")
    finally:
        shutil.rmtree(workdir)


def test_output_gate_checks_critical_json_against_summary():
    workload = SMALL["critical-mindist-1000"]
    workdir, outputs, stdout = _cli_outputs(workload)
    try:
        assert check_outputs(workload, outputs, stdout).errors == []
        summary = json.loads(stdout)
        summary["n_efficient"] += 1
        errors = check_outputs(workload, outputs, json.dumps(summary)).errors
        assert any(e.startswith("json:") for e in errors), errors
    finally:
        shutil.rmtree(workdir)


def test_run_fails_when_children_disagree():
    runs = run.Runs(SMALL["plot-sgk-2000"], 0)
    _, first, _ = runs.cli()
    runs.agree(first)
    _, other, _ = run.Runs(SMALL["plot-sgk-2000"], 5).cli()
    runs.agree(other)
    assert other.errors == ["summary or output digests differ from the "
                            "run's first child"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeded_box_stays_inside_the_default_box(name):
    w = WORKLOADS[name]
    lower, upper = default_box(w)
    assert seeded_box(w, 0) is None
    assert seeded_box(w, 11) == seeded_box(w, 11) != seeded_box(w, 12)
    for seed in range(1, 50):
        lo, up = seeded_box(w, seed)
        for a, b, la, ub in zip(lower, upper, lo, up):
            assert a <= la <= a + MAX_SHRINK * (b - a)
            assert b - MAX_SHRINK * (b - a) <= ub <= b


def test_benchmark_json_matches_harness_and_layer_map():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    layers = json.loads((Path(__file__).parent / "layers.json").read_text())
    mapped = [m["metric"] for ms in layers["layers"].values() for m in ms]
    assert sorted(mapped) == sorted(m["name"] for m in BENCH["per_layer"])
    for ms in layers["layers"].values():
        for m in ms:
            assert set(m.get("workloads", [])) <= set(WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plot-sgk-2000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
