"""Workloads, child-process timing and output checks for the CLI benchmark.

Every measured run is a fresh ``python -m paretoscape.cli`` child started
from the checkout's own ``src`` tree, one child at a time.  Each child gets
a fresh output directory under ``.perfbench_out/`` that is deleted after its
outputs are checked; its peak RSS comes from ``os.wait4`` on that child
alone (``RUSAGE_CHILDREN`` would keep a high-water mark across children).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

# a child that has not exited by then is killed and counted as failed; it
# keeps one run inside the 180 s a benchmark run may take
CHILD_TIMEOUT_S = 120
# the largest share of a side of the box a non-zero seed trims away
MAX_SHRINK = 0.02

HEIGHTS_HEADER = "j1,j2,x1,x2,height"
FIELDS_HEADER = "j1,j2,x1,x2,g1x,g1y,g2x,g2y,mox,moy,div"
EFFICIENT_CLASSES = ("LocallyEfficientInterior", "LocallyEfficientBoundary")


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    mode: str
    n: int                       # grid points per axis
    exports: bool                # write --export-csv and --export-json

    @property
    def points(self) -> int:
        return self.n * self.n

    @property
    def csv_header(self) -> str:
        return FIELDS_HEADER if self.mode == "critical" else HEIGHTS_HEADER


# Why each workload (one line each in BENCHMARK.json):
# plot-sgk-2000: 4 M points, 2,580 efficient; gfh peeling and interior
#   criticality dominate, the working set is far above cache, and it is the
#   only workload where the O(N*L) cost of gfh peeling grows superlinearly;
#   no dominance counting and no exports.
# cost-kursawe-1000: the pure-Python hot paths: Fenwick dominance counting,
#   the per-component decompose loop over 2,009 components, the 1 M-row
#   height CSV and the decomposition JSON.
# critical-mindist-1000: the classifier on non-smooth objectives, the
#   11-column 1 M-row field CSV and the critical-point JSON; it pays for gfh
#   heights that critical mode never uses.
WORKLOADS = {w.name: w for w in (
    Workload("plot-sgk-2000", "sgk", "plot", 2000, False),
    Workload("cost-kursawe-1000", "kursawe", "cost", 1000, True),
    Workload("critical-mindist-1000", "mindist", "critical", 1000, True),
)}


def default_box(workload: Workload):
    """(lower, upper) of the workload's problem, read from the sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from paretoscape.problems import get_problem
    problem = get_problem(workload.problem)
    return problem.lower.tolist(), problem.upper.tolist()


def seeded_box(workload: Workload, seed: int):
    """Box for a seed: None (the default box) for seed 0, else the default
    box with each side moved inwards by a seeded fraction of at most
    MAX_SHRINK of its length.  The box stays inside the problem's domain."""
    if seed == 0:
        return None
    rng = random.Random(seed)
    lo, up = [], []
    for a, b in zip(*default_box(workload)):
        width = b - a
        lo.append(a + rng.uniform(0.0, MAX_SHRINK) * width)
        up.append(b - rng.uniform(0.0, MAX_SHRINK) * width)
    return tuple(lo), tuple(up)


@dataclass(frozen=True)
class Outputs:
    """The files one run writes, all inside one directory."""

    image: Path
    csv: Path | None
    json: Path | None

    @classmethod
    def under(cls, directory: Path, workload: Workload) -> "Outputs":
        return cls(image=directory / "image.png",
                   csv=directory / "table.csv" if workload.exports else None,
                   json=directory / "data.json" if workload.exports else None)

    def files(self) -> dict[str, Path]:
        named = {"image": self.image, "csv": self.csv, "json": self.json}
        return {k: v for k, v in named.items() if v is not None}


def cli_args(workload: Workload, seed: int, outputs: Outputs) -> list[str]:
    """paretoscape CLI arguments for one run of a workload."""
    args = ["--problem", workload.problem, "--mode", workload.mode,
            "--resolution", str(workload.n), "--format", "png",
            "--out", str(outputs.image)]
    if outputs.csv is not None:
        args += ["--export-csv", str(outputs.csv)]
    if outputs.json is not None:
        args += ["--export-json", str(outputs.json)]
    box = seeded_box(workload, seed)
    if box is not None:
        args += [f"--lower={box[0][0]!r},{box[0][1]!r}",
                 f"--upper={box[1][0]!r},{box[1][1]!r}"]
    return args


def display_argv(workload: Workload, seed: int) -> str:
    """The CLI command line of a workload, with placeholder output names."""
    outputs = Outputs(Path("IMAGE.png"), Path("TABLE.csv"), Path("DATA.json"))
    if not workload.exports:
        outputs = Outputs(outputs.image, None, None)
    return " ".join(["python", "-m", "paretoscape.cli"]
                    + cli_args(workload, seed, outputs))


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float                 # user + system time of the child
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], workdir: Path) -> Child:
    """Run one child to completion; wall time is spawn to exit.

    The child's streams go to files in ``workdir`` so the parent never
    reaps it through a pipe read; ``os.wait4`` reaps it and returns its own
    resource usage.  A child still running after CHILD_TIMEOUT_S is killed.
    """
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=workdir, env=child_env(),
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildTimeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - t0
    finally:
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(returncode=proc.returncode, wall_s=wall,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 peak_rss_mb=usage.ru_maxrss / 1024.0,   # Linux: KiB
                 stdout=out_path.read_text(errors="replace"),
                 stderr=err_path.read_text(errors="replace"))


def fresh_dir() -> Path:
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=OUT))


def setup_time() -> float:
    """Wall time of a child that only imports the CLI module."""
    workdir = fresh_dir()
    try:
        child = spawn([sys.executable, "-c", "import paretoscape.cli"], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0:
        raise RuntimeError("importing paretoscape.cli failed:\n"
                           + child.stderr.strip())
    return child.wall_s


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _digest_and_lines(path: Path) -> tuple[str, int, bytes]:
    """sha256, newline count and first line of a file, in one pass."""
    h = hashlib.sha256()
    lines = 0
    first = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            if not first:
                first = chunk.split(b"\n", 1)[0]
            h.update(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), lines, first


def png_size(data: bytes) -> tuple[int, int]:
    if data[:8] != b"\x89PNG\r\n\x1a\n" or data[12:16] != b"IHDR":
        raise ValueError("not a PNG with a leading IHDR chunk")
    return struct.unpack(">II", data[16:24])


def parse_summary(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no summary line on stdout")
    summary = json.loads(lines[-1])
    for key in ("problem", "n_efficient", "n_components", "n_rank0", "n_cycles"):
        if key not in summary:
            raise ValueError(f"summary line lacks {key!r}")
    return summary


@dataclass
class Checked:
    summary: dict | None = None
    digests: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def check_outputs(workload: Workload, outputs: Outputs, stdout: str) -> Checked:
    """Check that every output exists, parses and agrees with the summary.

    Collects errors instead of raising, so one bad file reports all others.
    """
    res = Checked()
    try:
        res.summary = parse_summary(stdout)
    except ValueError as exc:
        res.errors.append(f"summary: {exc}")
        return res
    if res.summary["problem"] != workload.problem:
        res.errors.append(f"summary names problem {res.summary['problem']!r}")

    for kind, path in outputs.files().items():
        if not path.is_file():
            res.errors.append(f"{kind}: {path.name} was not written")
            continue
        digest, lines, first = _digest_and_lines(path)
        res.digests[kind] = digest
        try:
            if kind == "image":
                with open(path, "rb") as fh:
                    size = png_size(fh.read(24))
                if size != (workload.n, workload.n):
                    res.errors.append(f"image: PNG is {size[0]}x{size[1]}")
            elif kind == "csv":
                if first.decode("ascii", "replace") != workload.csv_header:
                    res.errors.append(f"csv: header {first[:80]!r}")
                if lines != workload.points + 1:
                    res.errors.append(f"csv: {lines - 1} rows, expected "
                                      f"{workload.points}")
            else:
                _check_json(workload, path, res)
        except (ValueError, KeyError, TypeError) as exc:
            # a file that parses but lacks a field, or has another shape
            res.errors.append(f"{kind}: {exc!r}")
    return res


def _check_json(workload: Workload, path: Path, res: Checked) -> None:
    with open(path, encoding="ascii") as fh:
        payload = json.load(fh)
    s = res.summary
    if workload.mode == "critical":
        n_eff = sum(1 for rec in payload if rec["class"] in EFFICIENT_CLASSES)
        if n_eff != s["n_efficient"]:
            res.errors.append(f"json: {n_eff} efficient points, summary says "
                              f"{s['n_efficient']}")
        return
    for key in ("n_efficient", "n_rank0", "n_components"):
        if payload[key] != s[key]:
            res.errors.append(f"json: {key} = {payload[key]}, summary says {s[key]}")
    comps = payload["components"]
    if len(comps) != s["n_components"] or \
            sum(c["size"] for c in comps) != s["n_efficient"]:
        res.errors.append("json: components do not add up to the summary")


# ---------------------------------------------------------------------------
# recorded reference outputs
# ---------------------------------------------------------------------------

# reference.json is fixed data: the summary line and output sha256 digests
# that the first paretoscape commit benchmarked here gives for seeds 0-10 of
# each workload, keyed "<workload>/seed<n>".  Each entry was copied from the
# "summary" and "sha256" of the first sample in a run's report under
# .perfbench_out/; it is not rewritten by the benchmark.

def reference_matches(workload: Workload, seed: int, checked: Checked):
    """(matching, compared) items against the recorded reference, or None.

    The items are the summary line and each output digest.  A mismatch is
    reported, not failed: a change may alter counts or bytes on purpose.
    """
    ref = json.loads(REFERENCE.read_text()).get(f"{workload.name}/seed{seed}")
    if ref is None:
        return None
    pairs = [(ref["summary"], checked.summary)]
    pairs += [(ref["sha256"].get(k), v) for k, v in checked.digests.items()]
    return sum(a == b for a, b in pairs), len(pairs)


# ---------------------------------------------------------------------------
# environment and statistics
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the paths and bytes of every source file under src/."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, env=child_env(), timeout=60,
    ).stdout.strip()
    return {
        "commit": _commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version or None,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_1min": os.getloadavg()[0],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3
