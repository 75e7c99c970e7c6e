"""Benchmark of the paretoscape CLI: whole-run metrics and traced stage times.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` times fresh
``python -m paretoscape.cli`` children, one at a time, for as many as fit
in S seconds, and reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs pairs of one CLI child and one traced-chain child (chain.py) on the
same inputs and reports the per-layer metrics; the chain must reproduce the
CLI's summary line and output bytes.  Every output is checked; a run that
exits non-zero or fails a check counts as failed.  Human-readable lines come
first, the last line of stdout is one JSON object with the results, and a
full report (environment, every sample, every span) is written under
``.perfbench_out/``.  Workload argv and reasons: harness.WORKLOADS; which
layer metric should move which end-to-end metric: layers.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (HERE, OUT, ROOT, SRC, WORKLOADS, Checked,  # noqa: E402
                     Outputs, check_outputs, cli_args, display_argv,
                     environment, fresh_dir, quartiles, reference_matches,
                     setup_time, spawn)

# import-only children timed before each workload child, so that setup_s
# samples the whole run rather than its first second
SETUP_PER_CHILD = 3
# a run never starts a child that could push it past this, which keeps it
# inside the 180 s a benchmark run may take
START_LIMIT_S = 150.0

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer time metrics computed from several spans; every other one named
# "X_s" is the time of the chain span "X" (see chain.py)
DERIVED_METRICS = {"gradients.fields_s", "cli.traced_total_s",
                   "trace.overhead_s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


class Runs:
    """Runs one workload's children and checks each one's outputs.

    Every child of a run must write byte-identical outputs; a child whose
    digests or summary differ from the first good child's fails.
    """

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.first = None          # Checked of the first good CLI child
        self.attempted = 0
        self.failed = 0
        self.samples = []
        self.setup = []            # setup_time() samples

    def _child(self, argv_for, traced=False):
        workdir = fresh_dir()
        outputs = Outputs.under(workdir, self.workload)
        try:
            child = spawn(argv_for(outputs), workdir)
            if child.returncode != 0:
                tail = child.stderr.strip().splitlines()[-3:]
                checked = Checked(errors=[f"exit code {child.returncode}: "
                                          + " | ".join(tail)])
            else:
                checked = check_outputs(self.workload, outputs, child.stdout)
            spans = None
            if traced and child.returncode == 0:
                try:
                    spans = json.loads((workdir / "spans.json").read_text())
                except (OSError, ValueError) as exc:
                    checked.errors.append(f"spans: {exc}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return child, checked, spans

    def cli(self):
        self.setup += [setup_time() for _ in range(SETUP_PER_CHILD)]
        return self._child(lambda o: [sys.executable, "-m", "paretoscape.cli"]
                           + cli_args(self.workload, self.seed, o))

    def chain(self):
        return self._child(lambda o: [sys.executable, str(HERE / "chain.py"),
                                      str(o.image.parent / "spans.json")]
                           + cli_args(self.workload, self.seed, o), traced=True)

    def agree(self, checked: Checked) -> None:
        """Hold a good child's summary and digests to the run's first."""
        if checked.errors:
            return
        if self.first is None:
            self.first = checked
        elif (checked.summary, checked.digests) != (self.first.summary,
                                                    self.first.digests):
            checked.errors.append("summary or output digests differ from the "
                                  "run's first child")

    def record(self, ok: bool, sample: dict) -> None:
        self.attempted += 1
        self.failed += not ok
        sample["ok"] = ok
        self.samples.append(sample)
        errs = "; ".join(sample.get("errors", [])) or "outputs ok"
        print(f"  child {self.attempted}: wall {sample['wall_s']:.3f} s, "
              f"cpu {sample['cpu_s']:.3f} s, "
              f"peak rss {sample['peak_rss_mb']:.1f} MB, {errs}", flush=True)


def _keep_going(started, seconds, durations):
    """Start another child only if a typical one ends within the run's
    seconds; the first child always runs."""
    if not durations:
        return True
    elapsed = time.perf_counter() - started
    return (elapsed + statistics.median(durations) <= seconds
            and elapsed + max(durations) < START_LIMIT_S)


def measure_cli(runs: Runs, seconds, started):
    durations = []
    while _keep_going(started, seconds, durations):
        child, checked, _ = runs.cli()
        runs.agree(checked)
        durations.append(child.wall_s)
        runs.record(not checked.errors, {
            "wall_s": child.wall_s, "cpu_s": child.cpu_s,
            "peak_rss_mb": child.peak_rss_mb, "returncode": child.returncode,
            "errors": checked.errors,
            "summary": checked.summary, "sha256": checked.digests})


def measure_traced(runs: Runs, seconds, started):
    """Pairs of (CLI child, chain child); returns per-pair layer values."""
    durations = []
    layer_values = []
    while _keep_going(started, seconds, durations):
        child, checked, _ = runs.cli()
        runs.agree(checked)
        traced, tchecked, spans = runs.chain()
        if not checked.errors and not tchecked.errors:
            if (tchecked.summary, tchecked.digests) != (checked.summary,
                                                        checked.digests):
                tchecked.errors.append("chain summary or output digests "
                                       "differ from the CLI's")
        if spans and spans["mismatches"]:
            tchecked.errors.append("probe results differ from the outer call: "
                                   + ", ".join(spans["mismatches"]))
        errors = checked.errors + [f"chain: {e}" for e in tchecked.errors]
        durations.append(child.wall_s + traced.wall_s)
        sample = {"wall_s": child.wall_s, "cpu_s": child.cpu_s,
                  "peak_rss_mb": child.peak_rss_mb,
                  "chain_wall_s": traced.wall_s, "errors": errors,
                  "summary": checked.summary, "sha256": checked.digests,
                  "chain_summary": tchecked.summary,
                  "chain_sha256": tchecked.digests, "spans": spans}
        runs.record(not errors, sample)
        if not errors:
            layer_values.append(layer_metrics(spans, child.wall_s))
    return layer_values


def layer_metrics(spans: dict, cli_wall_s: float) -> dict:
    """Per-layer values of one chain run; ``trace.overhead_s`` is filled in
    by the caller once the run's setup time is known."""
    def seconds(name):
        return sum(s["end"] - s["start"] for s in spans["spans"]
                   if s["name"] == name)
    probes = sum(s["end"] - s["start"] for s in spans["spans"] if s["probe"])
    values = {m["name"]: seconds(m["name"][:-2]) for m in BENCH["per_layer"]
              if m["unit"] == "s" and m["name"] not in DERIVED_METRICS}
    values["gradients.fields_s"] = (seconds("gradients.build_fieldset")
                                    - seconds("grid.evaluate"))
    values["cli.traced_total_s"] = seconds("cli.run") - probes
    values["_cli_wall_s"] = cli_wall_s
    values.update(spans["counts"])
    return values


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "paretoscape" / "cli.py").is_file():
        print(f"error: no paretoscape sources under {SRC}; run from the root "
              "of a paretoscape checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    env = environment()
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    why = {w["name"]: w["why"] for w in BENCH["workloads"]}[workload.name]
    print(f"  why: {why}")
    print(f"  argv: {display_argv(workload, args.seed)}")
    print(f"  env: {json.dumps(env)}", flush=True)

    runs = Runs(workload, args.seed)
    try:
        # untimed: byte-code caching is paid once per install, not per call
        setup_time()
        if args.trace:
            layer_values = measure_traced(runs, args.seconds, started)
        else:
            measure_cli(runs, args.seconds, started)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(runs.setup)
    good = [s for s in runs.samples if s["ok"]]
    if not good:
        print("error: every child failed", file=sys.stderr)
        return 1

    wall_q1, wall_s, wall_q3 = quartiles([s["wall_s"] for s in good])
    if args.trace:
        for v in layer_values:
            v["trace.overhead_s"] = (v["cli.traced_total_s"]
                                     - (v.pop("_cli_wall_s") - setup_s))
        values = {k: statistics.median(v[k] for v in layer_values)
                  for k in layer_values[0]}
        listed = BENCH["per_layer"]
    else:
        values = {"wall_s": wall_s,
                  "mpts_per_s": workload.points / 1e6 / wall_s,
                  "peak_rss_mb": statistics.median(s["peak_rss_mb"]
                                                   for s in good),
                  "setup_s": setup_s}
        listed = BENCH["end_to_end"]

    print(f"  CLI wall_s: median {wall_s:.4f} s, q1 {wall_q1:.4f}, "
          f"q3 {wall_q3:.4f}, n={len(good)}")
    print(f"  setup_s: median {setup_s:.4f} s of {len(runs.setup)} imports")
    print(f"  error_rate = {runs.failed}/{runs.attempted} = "
          f"{runs.failed / runs.attempted:.4f}")
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")

    ref = reference_matches(workload, args.seed, runs.first)
    if ref is None:
        print(f"  reference: none recorded for seed {args.seed}")
    else:
        print(f"  reference: {ref[0]}/{ref[1]} items match the recorded "
              "summary and digests")

    OUT.mkdir(exist_ok=True)
    report = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "argv": display_argv(workload, args.seed), "env": env,
        "setup_samples_s": runs.setup, "samples": runs.samples,
        "reference_matches": ref, "metrics": metrics}, indent=1) + "\n")

    print(json.dumps({"correct": runs.failed == 0, "attempted": runs.attempted,
                      "failed": runs.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
