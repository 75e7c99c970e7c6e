"""Command-line interface: parsing, exit codes, artifacts, exports."""

import hashlib
import inspect
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from paretoscape import analyze, get_problem
from paretoscape import cli as cli_module
from paretoscape import grid as grid_module
from paretoscape.cli import MODES, RunConfig, UsageError, main, parse_args
from paretoscape.grid import _distinct_text
from paretoscape.problems import PROBLEM_FACTORIES

from oracles import (descent_divergence, grid_csv_rows, make_norm_overflow,
                     make_overflow, make_scale_overflow)


def _summary(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1, out
    return json.loads(out[0])


def test_parse_defaults():
    cfg = parse_args(["--problem", "sgk"])
    assert cfg.mode == "plot"
    assert cfg.n1 == 300 and cfg.n2 == 300
    assert cfg.fmt == "ppm"
    assert cfg.lower is None and cfg.upper is None
    assert cfg.log_scale is True
    assert cfg.output_path() == "sgk_plot.ppm"


def test_defaults_are_stated_once(monkeypatch):
    # the parser takes its defaults from RunConfig, and RunConfig and the
    # library take the tolerances from the same module constants
    assert parse_args(["--problem", "sgk"]) == RunConfig(problem="sgk")
    monkeypatch.setenv("COLUMNS", "200")    # --help on one line per flag
    text = cli_module.build_parser().format_help()
    assert "(default 300)" in text and "(default 1e-09)" in text
    params = inspect.signature(analyze).parameters
    assert params["zero_tol_rel"].default == RunConfig.zero_tol
    assert params["div_tol_rel"].default == RunConfig.div_tol
    assert (RunConfig.zero_tol, RunConfig.div_tol) == (1e-12, 1e-9)


def test_parse_resolution_and_bounds():
    cfg = parse_args(["--problem", "sgk", "--resolution", "101,51",
                      "--lower", "0,0.5", "--upper", "1.5,2",
                      "--mode", "gfh", "--format", "png", "--no-log-scale"])
    assert (cfg.n1, cfg.n2) == (101, 51)
    assert cfg.lower == (0.0, 0.5) and cfg.upper == (1.5, 2.0)
    assert cfg.log_scale is False
    assert cfg.output_path() == "sgk_gfh.png"


def test_output_path_sanitizes_parametrized_problem():
    cfg = RunConfig(problem="bisphere:-1,0,1,0", mode="critical", fmt="png")
    assert cfg.output_path() == "bisphere_-1_0_1_0_critical.png"
    assert RunConfig(problem="sgk", out="custom.ppm").output_path() == "custom.ppm"


@pytest.mark.parametrize("argv", [
    ["--problem", "sgk", "--resolution", "1,2,3"],
    ["--problem", "sgk", "--resolution", "1"],
    ["--problem", "sgk", "--resolution", "abc"],
    ["--problem", "sgk", "--lower", "1"],
    ["--problem", "sgk", "--mode", "volumetric"],
    [],
    ["--problem", "sgk", "--format", "jpg"],
    ["--problem", "sgk", "--resolution", "5,"],
    ["--problem", "sgk", "--resolution", "2,3,4"],
    ["--problem", "sgk", "--resolution", "-5,5"],
    ["--problem", "sgk", "--lower", "1,2,3"],
    ["--problem", "sgk", "--upper", "a,b"],
    ["--problem", "sgk", "--zero-tol", "abc"],
    ["--problem", "sgk", "--lower"],
])
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_resolution_below_2_exits_1_from_build_grid(tmp_path, capsys):
    # the memory estimate is checked only for sizes build_grid accepts, so
    # a size below 2 is named as such even where its product is huge
    out = tmp_path / "x.ppm"
    for value, sizes in [("1", "1 x 1"), ("-100000", "-100000 x -100000"),
                         ("1,100000000", "1 x 100000000")]:
        assert main(["--problem", "sgk", "--resolution", value,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"grid needs at least 2 points per axis, got {sizes}" in err
        assert not out.exists()


def test_degenerate_grid_exits_1(tmp_path, capsys):
    # a box one ulp wide gives 40 points on 2 distinct coordinates per axis
    out = tmp_path / "x.png"
    assert main(["--problem", "sgk", "--resolution", "40", "--lower=0.5,0.5",
                 "--upper=0.5000000000000001,0.5000000000000001",
                 "--out", str(out)]) == 1
    assert "grid axis 1: spacing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--resolution", "-5,5"],
                                  ["--resolution=-5,5"]])
def test_negative_resolution_names_its_value(argv, tmp_path, capsys):
    # the space-separated value is glued on like the other signed values,
    # so it reaches build_grid instead of being read as an option
    out = tmp_path / "x.ppm"
    assert main(["--problem", "sgk", "--out", str(out)] + argv) == 1
    assert "got -5 x 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--zero-tol", "--div-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_invalid_tolerance_exit_1(flag, value, tmp_path, capsys):
    out = tmp_path / "x.ppm"
    assert main(["--problem", "bisphere", "--resolution", "20",
                 "--out", str(out), flag, value]) == 1
    assert f"{flag} must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_resolution_beyond_the_memory_budget_exits_1(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_module, "analyze", None)    # never reached
    argv = ["--problem", "sgk", "--resolution", "1000000",
            "--export-csv", "h.csv", "--export-json", "d.json"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    estimate = (cli_module.BUDGET_BASE_BYTES
                + cli_module.BUDGET_BYTES_PER_POINT * 10 ** 12) / 2 ** 20
    assert f"needs an estimated {estimate:.0f} MB" in err
    assert "physical memory" in err
    assert list(tmp_path.iterdir()) == []
    # the same estimate decides: just below physical memory passes the check
    n = 3000
    need = (cli_module.BUDGET_BASE_BYTES
            + cli_module.BUDGET_BYTES_PER_POINT * n * n)
    monkeypatch.setattr(cli_module, "_physical_memory", lambda: need)
    assert parse_args(["--problem", "sgk", "--resolution", str(n)]).n1 == n
    monkeypatch.setattr(cli_module, "_physical_memory", lambda: need - 1)
    with pytest.raises(UsageError, match="needs an estimated"):
        parse_args(["--problem", "sgk", "--resolution", str(n)])


def test_unknown_problem_exit_1(capsys):
    assert main(["--problem", "dtlz9"]) == 1
    err = capsys.readouterr().err
    assert "unknown problem" in err and "available:" in err


@pytest.mark.parametrize("params", ["nan,0,1,0", "-1,0,inf,0"])
def test_non_finite_bisphere_parameters_exit_1(params, tmp_path, capsys):
    out = tmp_path / "x.ppm"
    assert main(["--problem", f"bisphere:{params}", "--resolution", "20",
                 "--out", str(out)]) == 1
    assert "bisphere parameters must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--problem", "kursawe", "--resolution", "20", "--mode", "critical",
      "--zero-tol", "1e308"], "zero_tol_rel 1e+308 times the gradient scale"),
    (["--problem", "sgk", "--resolution", "50", "--div-tol", "1e308"],
     "div_tol_rel 1e+308 times the largest divergence"),
    (["--problem", "sgk:", "--resolution", "20"], "takes no parameters"),
    (["--problem", "bisphere:", "--resolution", "20"], "could not parse"),
])
def test_overflowing_tolerance_or_empty_parameters_exit_1(argv, message,
                                                          tmp_path, capsys):
    out = tmp_path / "x.ppm"
    assert main(argv + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_gradients_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(PROBLEM_FACTORIES, "overflow", make_overflow)
    out = tmp_path / "x.ppm"
    assert main(["--problem", "overflow", "--resolution", "9",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "non-finite gradient of f1" in err and "(j1=4, j2=1)" in err
    assert not out.exists()


@pytest.mark.parametrize("factory,message", [
    (make_norm_overflow, "non-finite gradient norm of f1 = inf"),
    (make_scale_overflow, "gradient scale"),
])
def test_overflowing_gradient_norms_exit_2(factory, message, tmp_path,
                                           monkeypatch, capsys):
    monkeypatch.setitem(PROBLEM_FACTORIES, "huge", factory)
    out = tmp_path / "x.ppm"
    assert main(["--problem", "huge", "--resolution", "9",
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_list_problems(capsys):
    assert main(["--list-problems"]) == 0
    out = capsys.readouterr().out
    for name in ("aspar", "bisphere", "kursawe", "mindist", "sgk"):
        assert name in out


def test_bisphere_plot_run(tmp_path, capsys):
    out = tmp_path / "bs.ppm"
    code = main(["--problem", "bisphere:-1,0,1,0", "--mode", "plot",
                 "--resolution", "201", "--out", str(out)])
    assert code == 0
    s = _summary(capsys)
    assert list(s) == ["problem", "n_efficient", "n_components",
                       "n_rank0", "n_cycles", "n_unconverged"]
    assert s["problem"] == "bisphere"
    assert s["n_components"] == 1
    assert s["n_rank0"] == s["n_efficient"] > 0
    data = out.read_bytes()
    assert data.startswith(b"P6\n201 201\n255\n")
    assert len(data) == len(b"P6\n201 201\n255\n") + 201 * 201 * 3


def test_sgk_gfh_finds_three_components(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--problem", "sgk", "--mode", "gfh",
                 "--resolution", "300"]) == 0
    s = _summary(capsys)
    assert s["n_components"] == 3
    assert (tmp_path / "sgk_gfh.ppm").exists()


def test_critical_mode_exports(tmp_path, capsys):
    img = tmp_path / "c.png"
    csv = tmp_path / "fields.csv"
    js = tmp_path / "crit.json"
    code = main(["--problem", "aspar", "--mode", "critical",
                 "--resolution", "201", "--format", "png",
                 "--out", str(img), "--export-csv", str(csv),
                 "--export-json", str(js)])
    assert code == 0
    _summary(capsys)
    assert img.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"

    lines = csv.read_text().splitlines()
    assert lines[0] == "j1,j2,x1,x2,g1x,g1y,g2x,g2y,mox,moy,div"
    assert len(lines) == 1 + 201 * 201

    records = json.loads(js.read_text())
    classes = {r["class"] for r in records}
    assert "CriticalOnly" in classes
    assert "LocallyEfficientInterior" in classes


def test_failed_pooled_export_leaves_no_child(tmp_path, capsys, monkeypatch):
    # the spills fall back to the default temporary directory, the pool
    # forks, and opening the CSV in a missing directory fails: exit 2
    monkeypatch.setattr(grid_module, "_cpus", lambda: 2)
    csv = tmp_path / "missing" / "fields.csv"
    assert main(["--problem", "mindist", "--mode", "critical",
                 "--resolution", "101", "--out", str(tmp_path / "c.ppm"),
                 "--export-csv", str(csv)]) == 2
    assert "error:" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_export_failing_after_the_fork_leaves_no_child_or_spill(
        tmp_path, capsys, monkeypatch):
    # the spills are made and the pool forked before the CSV itself is
    # opened, which fails on a directory: exit 2
    monkeypatch.setattr(grid_module, "_cpus", lambda: 2)
    csv = tmp_path / "fields.csv"
    csv.mkdir()
    assert main(["--problem", "mindist", "--mode", "critical",
                 "--resolution", "101", "--out", str(tmp_path / "c.ppm"),
                 "--export-csv", str(csv)]) == 2
    assert "error:" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert sorted(os.listdir(tmp_path)) == ["c.ppm", "fields.csv"]
    assert os.listdir(csv) == []


def test_cli_import_leaves_multiprocessing_out():
    # the CSV export imports it only when it forks, so start-up does not pay
    code = ("import sys, paretoscape.cli; "
            "sys.exit('multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], timeout=60)
    assert proc.returncode == 0


def test_critical_csv_matches_naive_writer(tmp_path, capsys):
    csv = tmp_path / "fields.csv"
    assert main(["--problem", "mindist", "--mode", "critical",
                 "--resolution", "61", "--out", str(tmp_path / "c.ppm"),
                 "--export-csv", str(csv)]) == 0
    _summary(capsys)
    fs = analyze(get_problem("mindist"), 61, mode="critical").fields
    columns = [fs.g1[..., 0], fs.g1[..., 1], fs.g2[..., 0], fs.g2[..., 1],
               fs.mo[..., 0], fs.mo[..., 1], descent_divergence(fs)]
    # at this size the gradient columns take the distinct-value path
    assert all(_distinct_text(lambda js, c=c: c[:, js], *c.shape) is not None
               for c in columns[:4])
    lines = grid_csv_rows(fs.grid, ["g1x", "g1y", "g2x", "g2y", "mox", "moy",
                                    "div"], columns)
    assert csv.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_plot_mode_exports_decomposition(tmp_path, capsys):
    csv = tmp_path / "h.csv"
    js = tmp_path / "d.json"
    code = main(["--problem", "bisphere", "--mode", "plot",
                 "--resolution", "101", "--out", str(tmp_path / "o.ppm"),
                 "--export-csv", str(csv), "--export-json", str(js)])
    assert code == 0
    s = _summary(capsys)
    lines = csv.read_text().splitlines()
    assert lines[0] == "j1,j2,x1,x2,height"
    assert len(lines) == 1 + 101 * 101
    payload = json.loads(js.read_text())
    assert payload["n_efficient"] == s["n_efficient"]
    assert payload["n_components"] == s["n_components"]


def test_cost_mode_heights_are_dominance_counts(tmp_path, capsys):
    csv = tmp_path / "cost.csv"
    code = main(["--problem", "bisphere", "--mode", "cost",
                 "--resolution", "41", "--out", str(tmp_path / "c.ppm"),
                 "--export-csv", str(csv)])
    assert code == 0
    _summary(capsys)
    rows = csv.read_text().splitlines()[1:]
    heights = np.array([float(r.split(",")[4]) for r in rows])
    assert (heights == np.rint(heights)).all()
    assert heights.min() == 0.0
    assert heights.max() > 0.0


def test_repeated_runs_byte_identical(tmp_path, capsys):
    outs = []
    for tag in ("one", "two"):
        img = tmp_path / f"{tag}.ppm"
        csv = tmp_path / f"{tag}.csv"
        js = tmp_path / f"{tag}.json"
        assert main(["--problem", "sgk", "--mode", "plot",
                     "--resolution", "101", "--out", str(img),
                     "--export-csv", str(csv), "--export-json", str(js)]) == 0
        outs.append((img.read_bytes(), csv.read_bytes(), js.read_bytes(),
                     capsys.readouterr().out))
    assert outs[0] == outs[1]


# sha256 of the PNG, the CSV, the JSON and the summary line of kursawe at
# 41x33 with both exports, one run per mode; each mode keeps a different set
# of fields alive, so each is pinned
CLI_GOLDEN = {
    "plot": ("3b38b61363897f5bb07962d10f617d9965e00dc405dc3473f6874c5aa66f0ebf",
             "2c6ee2a555e11a7a16504278484d431ee8d1ec17980add952b820cb2cd5402a8",
             "78a28dd1c8a78a72556adfa90959fa3d574d125b3357060e81ee52be3ba3576f",
             "6314372723d5062fef075807a05cbd5e1a8c849eb7e0be1f8bcaa20ad678f004"),
    "gfh": ("76d5b90ad3e4f1aeb74b7bdf7f729c15891ff65f288c426fe316d4b144a510d4",
            "2c6ee2a555e11a7a16504278484d431ee8d1ec17980add952b820cb2cd5402a8",
            "78a28dd1c8a78a72556adfa90959fa3d574d125b3357060e81ee52be3ba3576f",
            "6314372723d5062fef075807a05cbd5e1a8c849eb7e0be1f8bcaa20ad678f004"),
    "cost": ("096784e233493112569345737149282233e1fcf87221c3a4275e9e80066810a9",
             "a57badfca6f50d6d35ddac9cd68a897ea9446661a7e4a04ced425e7756a5d533",
             "78a28dd1c8a78a72556adfa90959fa3d574d125b3357060e81ee52be3ba3576f",
             "6314372723d5062fef075807a05cbd5e1a8c849eb7e0be1f8bcaa20ad678f004"),
    "critical": (
        "48aa62e6408a87999c6c7fea5a996541c99dc7f11eee13d43d9b3bc5e4dee85c",
        "7c7551b599bde0679acaf1f5dd483eb4d568cfd1cf81849c2ccb95c225984109",
        "bb3227ac83503224f32302c50aebff2c965a2b1db6c17fab0ef33b31c12a2613",
        "6314372723d5062fef075807a05cbd5e1a8c849eb7e0be1f8bcaa20ad678f004"),
}


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_matches_its_golden_digests(mode, tmp_path, capsys):
    paths = [tmp_path / f"kursawe.{ext}" for ext in ("png", "csv", "json")]
    assert main(["--problem", "kursawe", "--mode", mode,
                 "--resolution", "41,33", "--format", "png",
                 "--out", str(paths[0]), "--export-csv", str(paths[1]),
                 "--export-json", str(paths[2])]) == 0
    out = capsys.readouterr().out.encode()
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
    assert (*digests, hashlib.sha256(out).hexdigest()) == CLI_GOLDEN[mode]


def test_log_scale_flag_changes_plot(tmp_path, capsys):
    a = tmp_path / "a.ppm"
    b = tmp_path / "b.ppm"
    assert main(["--problem", "sgk", "--mode", "gfh", "--resolution", "51",
                 "--out", str(a)]) == 0
    assert main(["--problem", "sgk", "--mode", "gfh", "--resolution", "51",
                 "--out", str(b), "--no-log-scale"]) == 0
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.ppm"
    code = main(["--problem", "bisphere", "--resolution", "21",
                 "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_bounds_exit_1(tmp_path, capsys):
    code = main(["--problem", "bisphere", "--resolution", "21",
                 "--lower", "1,1", "--upper", "0,0",
                 "--out", str(tmp_path / "x.ppm")])
    assert code == 1
    code = main(["--problem", "bisphere", "--resolution", "21",
                 "--lower", "-9,-9", "--out", str(tmp_path / "y.ppm")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_bounds_override_restricts_window(tmp_path, capsys):
    # zooming into the left half of the bisphere box keeps only the part
    # of the efficient segment that lies inside the window
    code = main(["--problem", "bisphere", "--resolution", "81",
                 "--lower", "-2,-2", "--upper", "0,2",
                 "--out", str(tmp_path / "z.ppm")])
    assert code == 0
    s = _summary(capsys)
    assert s["n_efficient"] > 0
    assert s["n_components"] == 1
