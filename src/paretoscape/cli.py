"""Command-line frontend: run the pipeline, write images and exports.

Exit codes: 0 on success, 1 on usage errors (bad flags, unknown problem,
invalid bounds/resolution, a resolution whose memory estimate exceeds the
physical memory, tolerances that are negative or not finite or whose
product with the gradient scale or the largest divergence overflows), 2 on
runtime failures (evaluation blew up, output path unwritable).  On success a
single-line JSON summary goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .criticality import DIV_TOL_REL, export_critical_points_json
from .gradients import ZERO_TOL_REL, check_tolerance, export_fields_csv
from .grid import EvaluationError
from .landscape import (MODES, analyze, export_decomposition_json,
                        export_heights_csv)
from .problems import available_problems, get_problem
from .render import FORMATS, render


class UsageError(ValueError):
    pass


# the memory budget: the CLI's peak RSS, measured in every mode with every
# export on sgk, kursawe and mindist at 500², 1000² and 2000², stayed at or
# below this base plus this many bytes per grid point, the largest figure
# of the README's "Memory budget" table
BUDGET_BASE_BYTES = 32 * 2**20
BUDGET_BYTES_PER_POINT = 122


def _physical_memory() -> float:
    """Bytes of physical memory, or infinity where ``os.sysconf`` is missing."""
    if not hasattr(os, "sysconf"):
        return math.inf
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass
class RunConfig:
    problem: str
    mode: str = "plot"
    n1: int = 300
    n2: int = 300
    lower: Optional[tuple[float, float]] = None
    upper: Optional[tuple[float, float]] = None
    out: Optional[str] = None
    fmt: str = "ppm"
    export_csv: Optional[str] = None
    export_json: Optional[str] = None
    zero_tol: float = ZERO_TOL_REL
    div_tol: float = DIV_TOL_REL
    log_scale: bool = True
    # ignored: perfbench/chain.py passes it to build_fieldset and evaluate_grid
    workers: int = 1

    def output_path(self) -> str:
        if self.out:
            return self.out
        stem = self.problem.replace(":", "_").replace(",", "_")
        return f"{stem}_{self.mode}.{self.fmt}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _flag_type(convert):
    """``convert`` as an argparse ``type=``: a ValueError it raises becomes
    the usage error's message, after the flag's name."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


@_flag_type
def _resolution(text: str) -> tuple[int, int]:
    sizes = [int(s) for s in text.split(",")]
    if len(sizes) > 2:
        raise ValueError(f"takes N or N,M, got {text!r}")
    return sizes[0], sizes[-1]


@_flag_type
def _pair(text: str) -> tuple[float, float]:
    values = tuple(float(s) for s in text.split(","))
    if len(values) != 2:
        raise ValueError(f"expects two comma-separated values, got {text!r}")
    return values


def _tolerance(flag: str):
    def convert(text: str) -> float:
        check_tolerance(flag, float(text))
        return float(text)
    return _flag_type(convert)


def build_parser() -> _Parser:
    p = _Parser(
        prog="paretoscape",
        description="Locate, rank and visualise locally efficient points of "
                    "bi-objective problems on an evaluation grid.")
    p.add_argument("--problem", help="problem name, or bisphere:ax,ay,bx,by")
    p.add_argument("--mode", choices=MODES, default=RunConfig.mode)
    p.add_argument("--resolution", type=_resolution, default=str(RunConfig.n1),
                   help="grid points per axis: N or N,M (default %(default)s)")
    p.add_argument("--lower", type=_pair, help="override lower bounds: x1,x2")
    p.add_argument("--upper", type=_pair, help="override upper bounds: x1,x2")
    p.add_argument("--out", help="image output path (default <problem>_<mode>.<fmt>)")
    p.add_argument("--format", choices=FORMATS, default=RunConfig.fmt,
                   dest="fmt")
    p.add_argument("--export-csv", help="write the mode's height/field table as CSV")
    p.add_argument("--export-json", help="write critical points (critical mode) "
                                         "or the efficient-set decomposition as JSON")
    p.add_argument("--zero-tol", type=_tolerance("--zero-tol"),
                   default=RunConfig.zero_tol,
                   help="relative zero-gradient tolerance (default %(default)s)")
    p.add_argument("--div-tol", type=_tolerance("--div-tol"),
                   default=RunConfig.div_tol,
                   help="relative divergence tolerance (default %(default)s)")
    p.add_argument("--no-log-scale", action="store_false", dest="log_scale",
                   help="linear instead of log height normalisation")
    p.add_argument("--list-problems", action="store_true")
    return p


# flags whose values may start with '-' (negative coordinates, or negative
# resolutions and tolerances that must reach their range check); argparse
# would otherwise read "-2,-2", "-5,5" or "-inf" as an option, so glue the
# value on with '='
_SIGNED_VALUE_FLAGS = ("--lower", "--upper", "--resolution", "--zero-tol",
                       "--div-tol")


def _glue_signed_values(argv):
    out = []
    for token in argv:
        if out and out[-1] in _SIGNED_VALUE_FLAGS:
            out[-1] += "=" + token
        else:
            out.append(token)   # a trailing flag stays for argparse to report
    return out


def parse_args(argv) -> Optional[RunConfig]:
    """Translate argv into a RunConfig; None means --list-problems handled."""
    options = vars(build_parser().parse_args(_glue_signed_values(argv)))
    if options.pop("list_problems"):
        for name in available_problems():
            prob = get_problem(name)
            box = (f"[{prob.lower[0]:g},{prob.upper[0]:g}] x "
                   f"[{prob.lower[1]:g},{prob.upper[1]:g}]")
            print(f"{name:10s} {box:24s} {prob.note}")
        return None
    if not options["problem"]:
        raise UsageError("--problem is required (or use --list-problems)")
    n1, n2 = options.pop("resolution")
    estimate = BUDGET_BASE_BYTES + BUDGET_BYTES_PER_POINT * n1 * n2
    physical = _physical_memory()
    if min(n1, n2) >= 2 and estimate > physical:
        raise UsageError(
            f"resolution {n1},{n2} needs an estimated {estimate / 2**20:.0f} MB "
            f"({BUDGET_BASE_BYTES // 2**20} MB + {BUDGET_BYTES_PER_POINT} B per "
            f"point), more than the {physical / 2**20:.0f} MB of physical memory")
    return RunConfig(n1=n1, n2=n2, **options)


def run(config: RunConfig) -> int:
    """Execute grid -> gradients -> criticality -> landscape -> render."""
    problem = get_problem(config.problem)
    result = analyze(
        problem, config.n1, config.n2,
        lower=config.lower, upper=config.upper,
        zero_tol_rel=config.zero_tol, div_tol_rel=config.div_tol,
        mode=config.mode,
    )
    heights = result.cost if config.mode == "cost" else result.heights
    artifact = render(config.mode, heights=heights, critmap=result.critmap,
                      decomposition=result.decomposition,
                      log_scale=config.log_scale)
    if "warning" in artifact.legend:
        print(f"warning: {artifact.legend['warning']}", file=sys.stderr)
    artifact.save(config.output_path(), fmt=config.fmt)

    if config.export_csv:
        if config.mode == "critical":
            export_fields_csv(config.export_csv, result.fields)
        else:
            export_heights_csv(config.export_csv, heights)
    if config.export_json:
        if config.mode == "critical":
            export_critical_points_json(config.export_json, result.critmap,
                                        result.fields)
        else:
            export_decomposition_json(config.export_json, result.decomposition)

    print(json.dumps(result.summary()))
    return 0


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
        if config is None:
            return 0
        return run(config)
    except ValueError as exc:     # UsageError, DomainError, UnknownProblemError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EvaluationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
