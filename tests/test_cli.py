import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gcquant.cli as cli
import gcquant.flag
import gcquant.flow
import gcquant.lab
from gcquant.flow import DegenerationFamily, FlowSingularityError
from gcquant.lab import ExperimentConfig, gc_vs_torus_moment_check
from gcquant.flag import gc_map, random_flags
from gcquant.polytope import DelzantPolytope, gc_polytope
from gcquant.toric import MAX_GRID_POINTS, ConvergenceError, QuadratureError, outside_ball


def run(argv):
    return cli.main(argv)


def manifest(out):
    return json.loads((out / "manifest.json").read_text())


def artifact_hashes(out):
    return {a["path"]: a["sha256"] for a in manifest(out)["artifacts"]}


def assert_manifest_matches_disk(out):
    """The manifest lists every data file in `out` with the digest of its bytes."""
    hashes = artifact_hashes(out)
    assert set(hashes) == {p.name for p in out.iterdir()} - {"manifest.json"}
    for name, digest in hashes.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_polytope_count_line_and_exit(tmp_path, capsys):
    rc = run(["polytope", "count", "--n", "3", "--a", "1,1", "--out", str(tmp_path / "p")])
    assert rc == 0
    assert "lattice=8 weyl=8 match=true" in capsys.readouterr().out
    summary = json.loads((tmp_path / "p" / "summary.json").read_text())
    assert summary["match"] is True


def test_polytope_gen_writes_lattice_and_polytope(tmp_path):
    out = tmp_path / "g"
    assert run(["polytope", "gen", "--n", "3", "--a", "2,1", "--out", str(out)]) == 0
    rows = (out / "lattice.csv").read_text().strip().splitlines()
    assert rows[0] == "lam1_1,lam2_1,lam2_2"
    assert len(rows) - 1 == 15
    # the one-pass integer table is the value-by-value one
    pts = gc_polytope(3, (2, 1)).lattice_points()
    assert (out / "lattice.csv").read_text() == cli.table_text(rows[0].split(","), pts.tolist())
    json.loads((out / "polytope.json").read_text())
    names = {a["path"] for a in manifest(out)["artifacts"]}
    assert names == {"lattice.csv", "polytope.json", "summary.json"}


def test_manifest_hashes_match_disk(tmp_path):
    out = tmp_path / "t"
    assert run(["toric", "concentrate", "--delta", "0..3", "--s", "5,10",
                "--per-axis", "64", "--out", str(out)]) == 0
    for name, digest in artifact_hashes(out).items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert (out / "profile.dat").read_text().startswith("#")


def test_determinism_identical_payloads(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["toric", "concentrate", "--delta", "0..3", "--s", "5,10",
                    "--per-axis", "32", "--out", str(out)]) == 0
    assert artifact_hashes(a) == artifact_hashes(b)
    # timestamps live only in the manifest and are excluded from the contract
    ma, mb = manifest(a), manifest(b)
    ma.pop("created"), mb.pop("created")
    assert ma == mb


def test_flag_dump_seed_sensitivity(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(["flag", "dump", "--count", "4", "--seed", "1", "--out", str(a)]) == 0
    assert run(["flag", "dump", "--count", "4", "--seed", "1", "--out", str(b)]) == 0
    assert run(["flag", "dump", "--count", "4", "--seed", "2", "--out", str(c)]) == 0
    assert artifact_hashes(a)["patterns.csv"] == artifact_hashes(b)["patterns.csv"]
    assert artifact_hashes(a)["patterns.csv"] != artifact_hashes(c)["patterns.csv"]


def test_seed_comes_from_flags_not_environment(tmp_path, monkeypatch):
    # defaults < --config < flags: no environment variable overrides the seed
    monkeypatch.setenv("GCQ_SEED", "7")
    flagged, default = tmp_path / "s", tmp_path / "d"
    assert run(["flag", "dump", "--count", "2", "--seed", "1", "--out", str(flagged)]) == 0
    assert manifest(flagged)["config"]["seed"] == 1
    assert run(["flag", "dump", "--count", "2", "--out", str(default)]) == 0
    assert manifest(default)["config"]["seed"] == 0


def test_config_merge_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t0": 0.8, "a": "1,2"}))
    out = tmp_path / "f"
    assert run(["flow", "run", "--config", str(cfg), "--t0", "0.9",
                "--out", str(out)]) == 0
    resolved = manifest(out)["config"]
    assert resolved["t0"] == 0.9   # flag beats file
    assert resolved["a"] == "1,2"  # file beats default
    assert resolved["t1"] == 1.0   # default survives


def test_config_echo_round_trips(tmp_path):
    out1 = tmp_path / "r1"
    assert run(["flag", "dump", "--count", "3", "--seed", "5", "--out", str(out1)]) == 0
    echoed = tmp_path / "echo.json"
    echoed.write_text(json.dumps(manifest(out1)["config"]))
    out2 = tmp_path / "r2"
    assert run(["flag", "dump", "--config", str(echoed), "--out", str(out2)]) == 0
    assert artifact_hashes(out1) == artifact_hashes(out2)


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc = run(["flow", "run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown config keys: bogus" in capsys.readouterr().err


def test_malformed_inputs_exit_two(tmp_path, capsys):
    assert run(["toric", "concentrate", "--delta", "3..0",
                "--out", str(tmp_path / "a")]) == 2
    assert run(["toric", "concentrate", "--delta", "abc",
                "--out", str(tmp_path / "b")]) == 2
    assert run(["toric", "concentrate", "--delta", "0..3", "--m", "1,2",
                "--out", str(tmp_path / "c")]) == 2
    assert run(["polytope", "count", "--n", "3", "--a", "1",
                "--out", str(tmp_path / "d")]) == 2
    bad = tmp_path / "notjson.json"
    bad.write_text("{")
    assert run(["flow", "run", "--config", str(bad), "--out", str(tmp_path / "e")]) == 2


@pytest.mark.parametrize("argv", [
    ["toric", "concentrate", "--per-axis", "0"],
    ["toric", "concentrate", "--per-axis", "-3"],
    ["toric", "concentrate", "--eps", "-1"],
    ["toric", "concentrate", "--s", "nan"],
    ["toric", "concentrate", "--s", "5,5"],
    ["toric", "concentrate", "--s", "20,10"],
    ["toric", "concentrate", "--s=-5,10"],
    ["flag", "dump", "--count", "-2"],
    ["flag", "dump", "--count", "0"],
    ["lab", "gc-check", "--samples", "-2"],
    ["lab", "gc-check", "--samples", "0"],
    ["flow", "run", "--t1", "inf"],
    ["flow", "run", "--t0", "nan"],
    ["flow", "run", "--a", "nan,1"],
    # past MAX_T float64 rounding alone trips the t-deviation gate
    ["flow", "run", "--t1", "1e10"],
    ["flow", "run", "--t0=-1e300"],
    ["lab", "combined", "--s-grid", "0,nan"],
    ["lab", "combined", "--eps", "nan"],
    # a trailing dict stands for a config file with that content
    ["flow", "run", "--config", {"t1": [1]}],
    ["lab", "gc-check", "--config", {"samples": [3]}],
    ["lab", "gc-check", "--config", {"samples": 3.7}],
    ["flag", "dump", "--config", {"count": True}],
    ["lab", "gc-check", "--config", {"a": "inf,1"}],
    ["lab", "combined", "--config", {"nu_scale": "nan"}],
    ["toric", "concentrate", "--config", {"nu_scale": "nan"}],
    ["lab", "combined", "--config", {"schedule_rate": "nan"}],
    ["polytope", "count", "--n", "3", "--a", "1.9,1"],
    # past MAX_LATTICE_POINTS, and past int64
    ["polytope", "count", "--n", "2", "--a", "3000000000"],
    ["polytope", "count", "--n", "2", "--a", "1e20"],
    ["polytope", "count", "--n", "3", "--a", "1e300,1"],
    # nu must be positive definite
    ["toric", "concentrate", "--nu-scale=-1"],
    ["lab", "combined", "--config", {"nu_scale": 0}],
    ["lab", "combined", "--config", {"nu_scale": -1}],
    # quadrature grids past MAX_GRID_POINTS
    ["toric", "concentrate", "--delta", "0..3,0..3,0..3", "--m", "1,1,1",
     "--per-axis", "100000"],
    ["lab", "combined", "--per-axis", "100000"],
    ["lab", "combined", "--flow-per-axis", "100000"],
    # a flow grid past MAX_FLAGS points, refused before any grid is built
    ["lab", "combined", "--per-axis", "4", "--flow-per-axis", "47"],
    # a 1-D profile.dat past MAX_PROFILE_VALUES (rows x 4 columns)
    ["toric", "concentrate", "--per-axis", str(cli.MAX_PROFILE_VALUES // 4 + 1)],
    # weights must be positive: the library that takes them (gc_weight, the
    # family, the torus model) rejects a zero; polytope takes --a only
    ["polytope", "count", "--n", "3", "--a", "0,1"],
    ["flag", "dump", "--config", {"a": "0,1"}],
    ["flow", "run", "--config", {"a": "0,1"}],
    ["lab", "combined", "--config", {"a": "0,1"}],
    ["lab", "gc-check", "--config", {"a": "0,1"}],
    # from n = 8 on the lattice has at least 2^28 points: refused before enumeration
    ["polytope", "count", "--n", "8", "--a", ",".join(["1"] * 7)],
    ["polytope", "count", "--n", "200", "--a", ",".join(["1"] * 199)],
])
def test_invalid_config_exits_two(tmp_path, capsys, argv):
    if isinstance(argv[-1], dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(cfg)]
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", ["5e-324,1", "1,1e-320"])
@pytest.mark.parametrize("command", [["flow", "run"], ["lab", "gc-check", "--samples", "2"],
                                     ["lab", "combined", "--per-axis", "10",
                                      "--flow-per-axis", "4"]])
def test_subnormal_weight_exits_two_without_warning(tmp_path, capsys, command, a):
    # positive and finite, but the family's metric scale sqrt(a/pi) underflows
    # to 0 at 5e-324, and its inverse square overflows at 1e-320: a
    # configuration error, refused before any arithmetic warns
    assert run(command + ["--a", a, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


class _Drawn(Exception):
    pass


def _refuse_to_draw(*args, **kwargs):
    raise _Drawn


@pytest.mark.parametrize("argv", [["flag", "dump", "--count"], ["lab", "gc-check", "--samples"]])
def test_flag_count_bound_exits_two_before_drawing(tmp_path, capsys, monkeypatch, argv):
    # a count past MAX_FLAGS is refused before any flag is drawn; MAX_FLAGS
    # itself passes the bound and reaches random_flags
    monkeypatch.setattr(cli, "random_flags", _refuse_to_draw)
    monkeypatch.setattr(gcquant.lab, "random_flags", _refuse_to_draw)
    out = ["--out", str(tmp_path / "o")]
    assert run(argv + [str(cli.MAX_FLAGS + 1)] + out) == 2
    assert capsys.readouterr().err == (f"usage error: {argv[-1][2:]} = {cli.MAX_FLAGS + 1} "
                                       f"passes MAX_FLAGS = {cli.MAX_FLAGS}\n")
    with pytest.raises(_Drawn):
        run(argv + [str(cli.MAX_FLAGS)] + out)


@pytest.mark.parametrize("s, rows", [("10,20,40", cli.MAX_PROFILE_VALUES // 4),
                                     ("1,2,3,4,5,6,7", cli.MAX_PROFILE_VALUES // 8)])
def test_profile_bound_exits_two_before_the_grid(tmp_path, capsys, monkeypatch, s, rows):
    # the 1-D profile.dat has per_axis rows and 1 + len(s) columns: one row
    # past MAX_PROFILE_VALUES is refused before the sweep builds its grid,
    # and the bound itself runs
    out = ["--out", str(tmp_path / "o")]
    monkeypatch.setattr(gcquant.lab, "polytope_grid", _refuse_to_draw)
    assert run(["toric", "concentrate", "--s", s, "--per-axis", str(rows + 1)] + out) == 2
    cols = 1 + len(s.split(","))
    assert capsys.readouterr().err == (f"usage error: profile.dat of {rows + 1} rows x {cols} "
                                       f"columns passes MAX_PROFILE_VALUES = "
                                       f"{cli.MAX_PROFILE_VALUES}\n")
    monkeypatch.undo()
    assert run(["toric", "concentrate", "--s", s, "--per-axis", str(rows)] + out) == 0
    assert len((tmp_path / "o" / "profile.dat").read_text().splitlines()) == 2 + rows


@pytest.mark.parametrize("argv", [
    # flows take error-controlled steps only; a fixed step `h` is no config key
    ["flow", "run", {"h": 0.01}],
    ["lab", "combined", {"h": 0.01}],
    ["lab", "gc-check", {"h": 0.01}],
    # t(s) = exp(-s/schedule_rate) is the only schedule; there is no policy key
    ["lab", "combined", {"schedule": "adaptive"}],
])
def test_step_size_config_key_rejected(tmp_path, capsys, argv):
    *argv, config = argv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    (key,) = config
    assert f"unknown config keys: {key}" in capsys.readouterr().err


class Captured(Exception):
    """Raised by a stubbed library call to hand its arguments to the test."""


def captured_call(monkeypatch, name, argv):
    """(args, kwargs) with which `gcq argv` calls cli.<name>."""
    def stub(*args, **kwargs):
        raise Captured(args, kwargs)

    monkeypatch.setattr(cli, name, stub)
    with pytest.raises(Captured) as exc, tempfile.TemporaryDirectory() as out:
        run(argv + ["--out", out])
    return exc.value.args


def test_lab_defaults_match_library_defaults(monkeypatch):
    # LAB_DEFAULTS and ExperimentConfig() state the lab combined defaults twice
    (got,), _ = captured_call(monkeypatch, "combined_experiment", ["lab", "combined"])
    want = ExperimentConfig()
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(cli.LAB_DEFAULTS) == names
    for name in names:
        assert getattr(got, name) == getattr(want, name), name


def test_gc_check_defaults_match_library_defaults(monkeypatch):
    _, got = captured_call(monkeypatch, "gc_vs_torus_moment_check", ["lab", "gc-check"])
    params = inspect.signature(gc_vs_torus_moment_check).parameters
    assert set(got) == {name for name, p in params.items() if p.default is not p.empty}
    for name, value in got.items():
        assert value == params[name].default, name


def test_cli_import_is_numpy_only():
    # a fresh interpreter, so that scipy imported by other tests does not count
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, gcquant.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as exc:
        run(["polytope", "count"])  # missing required --n/--a
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["nonsense"])
    assert exc.value.code == 2


def leaf_parsers(parser, path=()):
    """(subcommand path, parser) of every parser that runs a command."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_parsers(sub, path + (name,))
            return
    yield " ".join(path), parser


def test_every_flag_is_a_config_key():
    # merge_config takes exactly the flags whose dest is a key of the
    # subcommand's defaults, so a flag without a key would be ignored; and
    # every key has its flag
    defaults = {cli.cmd_toric: cli.TORIC_DEFAULTS, cli.cmd_flag: cli.FLAG_DEFAULTS,
                cli.cmd_flow: cli.FLOW_DEFAULTS, cli.cmd_lab_combined: cli.LAB_DEFAULTS,
                cli.cmd_lab_gc_check: cli.GCCHECK_DEFAULTS}
    flags = {}
    for path, parser in leaf_parsers(cli.build_parser()):
        options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        flags[path] = sorted(o for a in options for o in a.option_strings)
        keys = defaults.get(parser.get_default("func"))
        if keys is None:  # polytope reads its two flags directly
            continue
        assert {a.dest for a in options} - {"config", "out"} == set(keys), path
    assert flags == {
        "polytope": ["--a", "--n", "--out"],
        "toric": ["--config", "--delta", "--eps", "--m", "--nu-scale", "--out",
                  "--per-axis", "--s"],
        "flag": ["--a", "--config", "--count", "--n", "--out", "--seed"],
        "flow": ["--a", "--config", "--out", "--seed", "--t0", "--t1"],
        "lab combined": ["--a", "--config", "--eps", "--flow-per-axis", "--nu-scale", "--out",
                         "--pattern", "--per-axis", "--s-grid", "--schedule-rate"],
        "lab gc-check": ["--a", "--config", "--out", "--samples", "--seed", "--t"],
    }


def parsed(parse, argv):
    """(exit code, stdout, stderr, namespace) of parse(argv); the code is None
    and the namespace set when parse returns."""
    out, err = io.StringIO(), io.StringIO()
    code = ns = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = parse(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue(), ns


# a valid argv of each command, which its own parser takes whole
VALID_ARGV = {
    "polytope": ["polytope", "count", "--n", "3", "--a", "1,1", "--out", "o"],
    "toric": ["toric", "concentrate", "--eps=0.5", "--per-axis", "12"],
    "flag": ["flag", "dump", "--count", "3", "--config", "c.json"],
    "flow": ["flow", "run", "--t0", "0.9", "--seed", "2"],
    "lab combined": ["lab", "combined", "--nu-scale", "2", "--pattern", "2;3,1"],
    "lab gc-check": ["lab", "gc-check", "--samples", "2", "--t", "0.1,0.02"],
}


def test_command_parsers_cover_every_command():
    assert set(VALID_ARGV) == set(cli.COMMANDS)
    assert [path for path, _ in leaf_parsers(cli.build_parser())] == list(cli.COMMANDS)


@pytest.mark.parametrize("path", sorted(VALID_ARGV))
def test_valid_argv_parses_without_the_tree(monkeypatch, path):
    # the command's own parser gives the tree's namespace, command and action
    # dests included, and the tree is never built
    argv = VALID_ARGV[path]
    expected = cli.build_parser().parse_args(argv)

    def no_tree():
        raise AssertionError("full parser tree built for a command argv")

    monkeypatch.setattr(cli, "build_parser", no_tree)
    assert parsed(cli.parse_args, argv) == (None, "", "", expected)


@pytest.mark.parametrize("path", sorted(VALID_ARGV))
@pytest.mark.parametrize("tail", [
    ["--bogus"], ["--n", "x"], ["-h"], ["--out"], ["--eps", "x"], ["--seed=1.5"],
    ["extra"], ["--", "extra"], ["--version"], ["--a"],
], ids=repr)
def test_command_parser_output_is_the_trees(path, tail):
    # usage errors and help through the command's own parser exit, print and
    # fail exactly as the tree does; leftover arguments go to the tree, which
    # reports them as gcq's
    for argv in (VALID_ARGV[path] + tail, path.split() + tail, path.split()[:1] + ["bogus"] + tail):
        tree = parsed(cli.build_parser().parse_args, argv)
        assert tree[0] is not None and tree[3] is None, argv
        assert parsed(cli.parse_args, argv) == tree, argv


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--version"], ["bogus"], ["lab"], ["lab", "-h"], ["lab", "bogus"],
    ["lab combined"], ["--version", "toric", "concentrate"], ["toric", "--bogus"],
], ids=repr)
def test_argv_without_a_command_goes_through_the_tree(argv):
    tree = parsed(cli.build_parser().parse_args, argv)
    assert tree[0] is not None
    assert parsed(cli.parse_args, argv) == tree


@pytest.mark.parametrize("argv, config", [
    (["lab", "combined", "--nu-scale", "2", "--schedule-rate", "3", "--per-axis", "12",
      "--flow-per-axis", "5"],
     {"nu_scale": 2.0, "schedule_rate": 3.0, "per_axis": 12, "flow_per_axis": 5}),
    (["lab", "gc-check", "--a", "2,1", "--samples", "2"], {"a": "2,1", "samples": 2}),
])
def test_flags_write_what_the_config_file_writes(tmp_path, argv, config):
    # a key given as a flag, typed like its default, and the same value given
    # in a config file make the same run, down to the config in summary.json
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    command = argv[:2]
    assert run(argv + ["--out", str(tmp_path / "flags")]) == 0
    assert run(command + ["--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    assert artifact_hashes(tmp_path / "flags") == artifact_hashes(tmp_path / "file")


def test_tolerance_failure_exit_one(tmp_path, capsys, monkeypatch):
    # deterministic failure injection: trend check sees a non-decreasing pair
    fake = {0.1: 0.5, 0.02: 1.0}
    monkeypatch.setattr(cli, "gc_vs_torus_moment_check",
                        lambda ts, **kw: np.array([fake[round(t, 6)] for t in ts]))
    rc = run(["lab", "gc-check", "--t", "0.1,0.02", "--samples", "1",
              "--out", str(tmp_path / "g")])
    assert rc == 1
    assert "moment-trend" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["toric", "concentrate"], ["lab", "combined"]])
def test_vanishing_density_exits_one(tmp_path, capsys, monkeypatch, argv):
    # a density that vanishes everywhere has no normalizer, so every mass is
    # nan; both commands sweep s through the name `lab` resolves
    monkeypatch.setattr(gcquant.lab, "section_log_density",
                        lambda pot, m, x: np.full(np.shape(x)[:-1], -np.inf))
    with np.errstate(invalid="ignore"):
        assert run(argv + ["--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(
        "tolerance failure: mass-range: outside mass nan at s=")
    # the failing run's data is written before the exit
    for name in ("cells.csv", "summary.json", "manifest.json"):
        assert (tmp_path / "o" / name).is_file()


def _patterns_off_polytope(V, a):
    """gc_map of every flag of V as the pattern 2.5; 2, 0 below the top row
    2, 1, 0, whose row 1 breaks interlacing with row 2 by 0.5."""
    return np.tile([2.5, 2.0, 0.0], (len(V), 1))


def test_flag_dump_interlacing_failure_writes_patterns(tmp_path, capsys, monkeypatch):
    # a pattern that breaks interlacing below the top row leaves the polytope
    # by the same margin, so the containment gate names it
    monkeypatch.setattr(cli, "gc_map", _patterns_off_polytope)
    out = tmp_path / "f"
    assert run(["flag", "dump", "--count", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "tolerance failure: polytope-containment: min support -0.5\n"
    assert len((out / "patterns.csv").read_text().splitlines()) == 4
    assert json.loads((out / "summary.json").read_text())["min_support"] == -0.5


FLAG_RUNS = [pytest.param([], id="n3"),
             pytest.param(["--n", "4", "--a", "1,2,1", "--count", "50", "--seed", "3"], id="n4")]


def flag_dump_patterns(out, argv):
    """(summary, patterns.csv rows as floats) of a flag dump into `out`."""
    assert run(["flag", "dump"] + argv + ["--out", str(out)]) == 0
    lines = (out / "patterns.csv").read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    return json.loads((out / "summary.json").read_text()), rows


@pytest.mark.parametrize("argv", FLAG_RUNS)
def test_flag_dump_patterns_are_the_per_flag_gc_map(tmp_path, argv):
    summary, rows = flag_dump_patterns(tmp_path / "f", argv)
    cfg = summary["config"]
    flags = random_flags(cfg["n"], cfg["count"], seed=cfg["seed"])
    a = cli.parse_floats(cfg["a"])
    want = np.array([gc_map(V, a) for V in flags])
    assert rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("argv", FLAG_RUNS)
def test_flag_dump_min_support_is_the_patterns_margin(tmp_path, capsys, argv):
    summary, rows = flag_dump_patterns(tmp_path / "f", argv)
    cfg = summary["config"]
    margin = float(gc_polytope(cfg["n"], cli.parse_floats(cfg["a"])).support_values(rows).min())
    assert summary["min_support"] == margin > 0
    assert capsys.readouterr().out.endswith(f" min_support={cli.fmt(margin)}\n")


def _mass_above_one(sweep):
    def swept(*args):
        sweep_sums, *densities = sweep(*args)
        return [sums._replace(mass=sums.mass + 1.0) for sums in sweep_sums], *densities
    return swept


def _deviating_flow(flow):
    def flowed(self, *args, **kwargs):
        return dataclasses.replace(flow(self, *args, **kwargs), t_deviation=1.0)
    return flowed


def _overshooting_step(dp_step):
    # each Dormand-Prince step goes 1e-5 of its length past what the loop
    # counts: 5e-6 in t over flow run's tau = 0.5 (at 1e-7, 5e-8 passes)
    def step(f, y, K, h, out):
        return dp_step(f, y, K, h * (1 + 1e-5), out)
    return step


# (argv, owner, name, wrap, invariant, data files): owner.name is the library
# call the command makes, or a constant it reads, and wrap(original) breaks the
# command's gate; lab.TWO_PI negated makes the s-sweep deform by -s instead of s
GATE_FAILURES = [
    pytest.param(["polytope", "gen", "--n", "3", "--a", "1,1"], cli, "weyl_dim",
                 lambda weyl_dim: lambda weight: weyl_dim(weight) + 1, "lattice-weyl-match",
                 {"lattice.csv", "polytope.json", "summary.json"}, id="polytope"),
    pytest.param(["polytope", "count", "--n", "3", "--a", "1,1"], DelzantPolytope,
                 "lattice_points", lambda lattice_points: lambda self: lattice_points(self)[1:],
                 "lattice-weyl-match", {"summary.json"}, id="polytope-lattice-drops-a-point"),
    pytest.param(["toric", "concentrate"], cli, "box_concentration_sweep", _mass_above_one,
                 "mass-range", {"cells.csv", "summary.json", "profile.dat"}, id="toric"),
    pytest.param(["flag", "dump", "--count", "3"], cli, "gc_map",
                 lambda gc_map: _patterns_off_polytope, "polytope-containment",
                 {"patterns.csv", "summary.json"}, id="flag"),
    pytest.param(["flag", "dump", "--a", "1,2", "--count", "20"], gcquant.flag, "moment_matrix",
                 lambda moment_matrix: lambda V, a: moment_matrix(V, tuple(a)[::-1]),
                 "polytope-containment", {"patterns.csv", "summary.json"},
                 id="flag-weights-reversed"),
    pytest.param(["flow", "run"], DegenerationFamily, "flow", _deviating_flow, "t-deviation",
                 {"trajectory.csv", "summary.json"}, id="flow"),
    pytest.param(["flow", "run"], gcquant.flow, "_dp_step", _overshooting_step, "t-deviation",
                 {"trajectory.csv", "summary.json"}, id="flow-step-overshoots"),
    pytest.param(["lab", "combined", "--per-axis", "10", "--flow-per-axis", "4",
                  "--s-grid", "0,5"], cli, "combined_experiment",
                 lambda experiment: lambda cfg: dataclasses.replace(experiment(cfg),
                                                                    monotone=False),
                 "outside-mass-monotone", {"cells.csv", "summary.json"}, id="lab-combined"),
    pytest.param(["lab", "combined", "--per-axis", "10", "--flow-per-axis", "4",
                  "--s-grid", "0,5"], gcquant.lab, "TWO_PI", lambda two_pi: -two_pi,
                 "outside-mass-monotone", {"cells.csv", "summary.json"},
                 id="lab-combined-sweep-s-negated"),
    pytest.param(["lab", "gc-check", "--samples", "2"], cli, "gc_vs_torus_moment_check",
                 lambda check: lambda *args, **kwargs: check(*args, **kwargs)[::-1],
                 "moment-trend", {"gc_check.csv", "summary.json"}, id="lab-gc-check"),
]


@pytest.mark.parametrize("argv, owner, name, wrap, invariant, files", GATE_FAILURES)
def test_failed_gate_exits_one_after_writing_its_data(tmp_path, capsys, monkeypatch, argv,
                                                      owner, name, wrap, invariant, files):
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"tolerance failure: {invariant}: ")
    assert set(artifact_hashes(out)) == files
    assert_manifest_matches_disk(out)


@pytest.mark.parametrize("error, name", [(QuadratureError, "quadrature"),
                                         (ConvergenceError, "convergence"),
                                         (FlowSingularityError, "flow-singularity")])
def test_library_tolerance_errors_exit_one(tmp_path, capsys, monkeypatch, error, name):
    # the exit code follows the exception type: each is a named ToleranceError
    def fail(*args, **kwargs):
        raise error("detail")

    monkeypatch.setattr(cli, "gc_vs_torus_moment_check", fail)
    assert run(["lab", "gc-check", "--out", str(tmp_path / "g")]) == 1
    assert capsys.readouterr().err == f"tolerance failure: {name}: detail\n"


def test_flow_run_reports_exact_time(tmp_path, capsys):
    out = tmp_path / "f"
    assert run(["flow", "run", "--t0", "0.9", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["t_deviation"] < 1e-10
    assert summary["max_residual"] < 1e-10
    traj = (out / "trajectory.csv").read_text().strip().splitlines()
    assert traj[0] == "step,re_t,im_t"
    assert len(traj) - 1 == summary["steps"] + 1
    last = traj[-1].split(",")
    assert abs(float(last[1]) - 0.9) < 1e-12


def test_flow_run_zero_time(tmp_path):
    out = tmp_path / "z"
    assert run(["flow", "run", "--t1", "0.5", "--t0", "0.5", "--out", str(out)]) == 0
    traj = (out / "trajectory.csv").read_text().strip().splitlines()
    assert traj == ["step,re_t,im_t", "0,0.5,0"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 0 and summary["rejected"] == 0


def test_flow_run_from_max_t_passes_its_gate(tmp_path):
    # MAX_T itself is accepted, and float64 rounding keeps the flowed t well
    # inside the 1e-6 t-deviation gate there
    out = tmp_path / "m"
    assert run(["flow", "run", f"--t1={cli.MAX_T!r}", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["t_deviation"] < 1e-8


def test_flow_run_through_singular_point_exits_one(tmp_path, capsys, monkeypatch):
    # a start on the vanishing cycle of the toric fiber's singular point
    # u = e_3, w = e_12 (see tests/test_flow.py) cannot flow past t = 0
    from gcquant.flow import DegenerationFamily

    eps = 0.1
    monkeypatch.setattr(DegenerationFamily, "embed_flag", lambda self, V, t: self.retract(
        self.normalize(np.array([eps, 0, 1]), np.array([1, 0, -eps]), t)))
    rc = run(["flow", "run", "--t1", str(eps ** 2), "--t0", str(-eps ** 2),
              "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("tolerance failure: flow-singularity: flow step")
    assert "Traceback" not in err


@settings(max_examples=40, deadline=2000)
@given(t0=st.floats(-1, 1), t1=st.floats(-1, 1), seed=st.integers(-2, 2 ** 32))
@example(t0=0.5, t1=0.5, seed=0)
@example(t0=-1.0, t1=1.0, seed=0)
@example(t0=2.3575223281716868e-146, t1=2.6243898711795176e-163, seed=2777)
@example(t0=0.5, t1=1e155, seed=0)
def test_flow_run_fuzz_exit_contract(t0, t1, seed):
    assert_exit_contract(["flow", "run", f"--t0={t0!r}", f"--t1={t1!r}", f"--seed={seed}"])


@settings(max_examples=40, deadline=None)
@given(action=st.sampled_from(["gen", "count", "lattice"]), n=st.integers(-1, 5),
       a=st.lists(st.integers(-1, 2), min_size=1, max_size=5))
@example(action="count", n=2, a=[3e9])
@example(action="lattice", n=2, a=[1e20])
@example(action="gen", n=2, a=[2 ** 63])
@example(action="count", n=3, a=[1e300, 1])
def test_polytope_fuzz_exit_contract(action, n, a):
    assert_exit_contract(["polytope", action, f"--n={n}", "--a=" + ",".join(map(str, a))])


NUMBERS = st.one_of(st.integers(-3, 12), st.floats(-20, 20),
                    st.sampled_from([float("nan"), float("inf"), -float("inf")]))
TEXT = st.one_of(st.text(max_size=6), st.sampled_from(["nan", "-inf", "1,1", "0..3", "1;2"]))
# what a hand-edited config file may hold: wrong types, nan strings, lists
JSON_VALUES = st.one_of(st.none(), st.booleans(), NUMBERS, TEXT,
                        st.lists(NUMBERS, max_size=3),
                        st.dictionaries(st.text(max_size=2), NUMBERS, max_size=1))


def mostly(valid):
    """`valid` twice as often as an arbitrary number."""
    return st.one_of(valid, valid, NUMBERS)


def csv_of(values):
    return ",".join(map(repr, values))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), dim=st.integers(1, 2), per_axis=st.integers(-1, 12))
def test_toric_concentrate_fuzz_exit_contract(data, dim, per_axis):
    lo = data.draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
    width = data.draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim))
    m = [l + w * f for l, w, f in zip(lo, width, data.draw(
        st.lists(mostly(st.floats(0, 1)), min_size=dim, max_size=dim)))]
    # half the s lists are valid grids, so that some runs get through to exit 0
    s = data.draw(st.one_of(
        st.lists(st.floats(0, 60), min_size=1, max_size=3, unique=True).map(sorted),
        st.lists(mostly(st.floats(0, 60)), min_size=1, max_size=3)))
    eps = data.draw(mostly(st.floats(0.05, 1)))
    nu_scale = data.draw(mostly(st.floats(0, 3)))
    assert_exit_contract(["toric", "concentrate",
                          "--delta=" + ",".join(f"{l}..{l + w}" for l, w in zip(lo, width)),
                          "--m=" + csv_of(m), "--s=" + csv_of(s), f"--eps={eps!r}",
                          f"--nu-scale={nu_scale!r}", f"--per-axis={per_axis}"])


@settings(max_examples=30, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), per_axis=st.integers(12, 16))
def test_toric_concentrate_fuzz_valid_input_exits_zero(data, dim, per_axis):
    # valid input only: integer boxes of width 2-4 around an interior point m,
    # a lattice point or any point to a hundredth of the width from a wall,
    # so a grid point lies within (w / 2 p) sqrt(3) < 0.3 <= eps of m.  A
    # third of the balls stay inside the box; the others reach up to 0.99 of
    # the distance from m to the farthest grid point, which stays outside, so
    # they cross a wall, and half of those past the reach of m along an axis,
    # so they span that whole axis
    lo = data.draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
    width = data.draw(st.lists(st.integers(2, 4), min_size=dim, max_size=dim))
    m = [l + data.draw(st.one_of(st.integers(1, w - 1).map(float),
                                 st.floats(0.01, 0.99).map(lambda f, w=w: w * f)))
         for l, w in zip(lo, width)]
    s = data.draw(st.lists(st.floats(1, 60), min_size=2, max_size=3, unique=True).map(sorted))
    half = [w / (2 * per_axis) for w in width]
    # the distance from m to its farthest grid point along each axis
    reach = [max(c - l - h, l + w - h - c) for l, w, h, c in zip(lo, width, half, m)]
    far = math.hypot(*reach)
    eps = data.draw(st.one_of(st.floats(0.3, 0.45), st.floats(0.3, 0.99 * far),
                              st.floats(min(1.01 * min(reach), 0.99 * far), 0.99 * far)))
    nu_scale = data.draw(st.floats(0.1, 3))
    argv = ["toric", "concentrate",
            "--delta=" + ",".join(f"{l}..{l + w}" for l, w in zip(lo, width)),
            "--m=" + csv_of(m), "--s=" + csv_of(s), f"--eps={eps!r}",
            f"--nu-scale={nu_scale!r}", f"--per-axis={per_axis}"]
    assert exit_code(argv) == (0, "")


def test_toric_concentrate_grid_limit_applies_to_the_box(tmp_path, capsys):
    # MAX_GRID_POINTS bounds per_axis^d although the run builds no box grid:
    # the 3-cube at 256 per axis, exactly MAX_GRID_POINTS points, runs, and
    # at 257 per axis it is refused as before
    cube = ["toric", "concentrate", "--delta", "0..3,0..3,0..3", "--m", "1,1,1"]
    assert 256 ** 3 == MAX_GRID_POINTS
    assert run(cube + ["--per-axis", "256", "--out", str(tmp_path / "at")]) == 0
    assert capsys.readouterr().err == ""
    assert run(cube + ["--per-axis", "257", "--out", str(tmp_path / "past")]) == 2
    assert capsys.readouterr().err == ("usage error: a grid of 257^3 points passes "
                                       f"MAX_GRID_POINTS = {MAX_GRID_POINTS}\n")
    assert not (tmp_path / "past").exists()


@pytest.mark.parametrize("box", [[], ["--delta", "0..3,0..3,0..3", "--m", "1,1,1",
                                      "--per-axis", "8"]], ids=["interval", "cube"])
@pytest.mark.parametrize("eps, message", [
    ("10", "exclusion ball covers the whole quadrature grid"),
    ("1e-3", "exclusion ball contains no quadrature point"),
], ids=["whole-box", "no-point"])
def test_toric_concentrate_ball_without_inside_or_outside_exits_one(tmp_path, capsys, box,
                                                                    eps, message):
    # a ball over every grid point, or between them, is a quadrature failure,
    # raised before any data file is written
    out = tmp_path / "o"
    assert run(["toric", "concentrate", *box, "--eps", eps, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"tolerance failure: quadrature: {message}\n"
    assert not out.exists()


def test_toric_concentrate_s_values_equal_to_rounding_have_no_slope(tmp_path):
    # 1 and 1 + 2^-52 determine no line: the run exits 0 with a null slope and
    # no warning, in a fresh interpreter where every warning is an error
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "t"
    code = "import sys, gcquant.cli; sys.exit(gcquant.cli.main(sys.argv[1:]))"
    r = subprocess.run([sys.executable, "-W", "error", "-c", code, "toric", "concentrate",
                        "--s", "1,1.0000000000000002", "--out", str(out)],
                       env=env, capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.strip().endswith("slope=")
    assert json.loads((out / "summary.json").read_text())["slope"] is None


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 4), a=st.lists(mostly(st.integers(1, 4)), min_size=1, max_size=3),
       count=st.integers(-1, 4), seed=st.integers(-2, 2 ** 32))
def test_flag_dump_fuzz_exit_contract(n, a, count, seed):
    assert_exit_contract(["flag", "dump", f"--n={n}", "--a=" + csv_of(a),
                          f"--count={count}", f"--seed={seed}"])


def assert_exits_zero(argv):
    """argv exits 0 silently, and its manifest matches the files it wrote."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        assert run(argv + ["--out", out]) == 0
        assert_manifest_matches_disk(Path(out))
    assert err.getvalue() == ""


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(2, 4), count=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_flag_dump_fuzz_valid_input_exits_zero(data, n, count, seed):
    a = data.draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
    assert_exits_zero(["flag", "dump", f"--n={n}", "--a=" + csv_of(a), f"--count={count}",
                       f"--seed={seed}"])


@settings(max_examples=30, deadline=None)
@given(data=st.data(), action=st.sampled_from(["gen", "count", "lattice"]),
       n=st.integers(2, 4))
def test_polytope_fuzz_valid_input_exits_zero(data, action, n):
    a = data.draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
    assert_exits_zero(["polytope", action, f"--n={n}", "--a=" + csv_of(a)])


@settings(max_examples=20, deadline=None)
@given(t=st.lists(mostly(st.floats(0, 0.2)), min_size=1, max_size=3),
       samples=st.integers(-1, 3), seed=st.integers(-2, 2 ** 32))
def test_lab_gc_check_fuzz_exit_contract(t, samples, seed):
    assert_exit_contract(["lab", "gc-check", "--t=" + csv_of(t),
                          f"--samples={samples}", f"--seed={seed}"])


@settings(max_examples=15, deadline=None)
@given(t1=st.floats(0.02, 0.2), ratios=st.lists(st.floats(0.1, 0.5), max_size=2),
       samples=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_lab_gc_check_fuzz_valid_input_exits_zero(t1, ratios, samples, seed):
    # valid input only: t decreasing by at least half per step, so that each
    # discrepancy falls clearly below the one before it
    t = [t1]
    for r in ratios:
        t.append(t[-1] * r)
    assert_exits_zero(["lab", "gc-check", "--t=" + csv_of(t), f"--samples={samples}",
                       f"--seed={seed}"])


@settings(max_examples=15, deadline=None)
@given(a=st.lists(st.floats(0.3, 3), min_size=2, max_size=2), t1=st.floats(0.02, 1),
       t0=st.floats(0.02, 1), seed=st.integers(0, 2 ** 32 - 1))
def test_flow_run_fuzz_valid_input_exits_zero(a, t1, t0, seed):
    # valid input only: positive weights, both ends of the flow away from the
    # singular fiber at t = 0
    assert_exits_zero(["flow", "run", "--a=" + csv_of(a), f"--t1={t1!r}", f"--t0={t0!r}",
                       f"--seed={seed}"])


@settings(max_examples=8, deadline=None)
@given(a=st.lists(mostly(st.integers(2, 3)), min_size=2, max_size=2),
       shift=st.lists(st.floats(-1, 1), min_size=3, max_size=3),
       s_grid=st.lists(st.floats(0, 40), min_size=1, max_size=3, unique=True),
       eps=mostly(st.floats(0.2, 1)))
@example(a=[2, 2], shift=[0, 0, 0], s_grid=[0, 5, 10], eps=1.0)
def test_lab_combined_fuzz_exit_contract(a, shift, s_grid, eps):
    # patterns around the default 2;3,1, which is interior for a = (2, 2)
    p = [v + d for v, d in zip((2, 3, 1), shift)]
    assert_exit_contract(["lab", "combined", "--per-axis=8", "--flow-per-axis=4",
                          "--a=" + csv_of(a), f"--pattern={p[0]!r};{p[1]!r},{p[2]!r}",
                          "--s-grid=" + csv_of(sorted(s_grid)), f"--eps={eps!r}"])


@settings(max_examples=8, deadline=None)
@given(data=st.data(), a=st.lists(st.integers(2, 4), min_size=2, max_size=2),
       per_axis=st.integers(8, 12), flow_per_axis=st.integers(3, 5),
       s0=st.floats(0, 5), steps=st.lists(st.floats(3, 12), min_size=1, max_size=3),
       ball=st.floats(1.1, 2))
def test_lab_combined_fuzz_valid_input_exits_zero(data, a, per_axis, flow_per_axis, s0, steps,
                                                  ball):
    # valid input only: integer weights, a strictly interlacing integer
    # pattern (an interior lattice point), an s-grid rising by at least 3 per
    # step, and eps past the half diagonal of the largest grid cell, so that
    # the ball holds a grid point
    a1, a2 = a
    mu1 = data.draw(st.integers(a2 + 1, a1 + a2 - 1))
    mu2 = data.draw(st.integers(1, a2 - 1))
    lam = data.draw(st.integers(mu2 + 1, mu1 - 1))
    s_grid = [s0]
    for step in steps:
        s_grid.append(s_grid[-1] + step)
    eps = ball * 3 ** 0.5 / 2 * (a1 + a2) / per_axis
    assert_exits_zero(["lab", "combined", f"--a={a1},{a2}", f"--pattern={lam};{mu1},{mu2}",
                       "--s-grid=" + csv_of(s_grid), f"--eps={eps!r}",
                       f"--per-axis={per_axis}", f"--flow-per-axis={flow_per_axis}"])


# Every config key of every command, each case with the id command<k>-<key>
# for a number k fixed per command and key: deleting a key renames no other
# case (lab combined's `schedule`, deleted, was 19), and a new key takes the
# next free number.
CONFIG_CASE_NUMBERS = {
    "flow run": {"a": 0, "t1": 1, "t0": 2, "seed": 3},
    "flag dump": {"n": 4, "a": 5, "count": 6, "seed": 7},
    "toric concentrate": {"delta": 8, "m": 9, "s": 10, "eps": 11, "nu_scale": 12,
                          "per_axis": 13},
    "lab combined": {"a": 14, "pattern": 15, "s_grid": 16, "eps": 17, "nu_scale": 18,
                     "schedule_rate": 20, "per_axis": 21, "flow_per_axis": 22},
    "lab gc-check": {"t": 23, "samples": 24, "seed": 25, "a": 26},
}
CONFIG_KEYS = [pytest.param(command.split(), key, id=f"command{k}-{key}")
               for command, numbers in CONFIG_CASE_NUMBERS.items()
               for key, k in numbers.items()]


def test_config_fuzz_covers_every_key():
    defaults = {"flow run": cli.FLOW_DEFAULTS, "flag dump": cli.FLAG_DEFAULTS,
                "toric concentrate": cli.TORIC_DEFAULTS, "lab combined": cli.LAB_DEFAULTS,
                "lab gc-check": cli.GCCHECK_DEFAULTS}
    assert {c: set(keys) for c, keys in CONFIG_CASE_NUMBERS.items()} == \
        {c: set(keys) for c, keys in defaults.items()}
    numbers = [k for keys in CONFIG_CASE_NUMBERS.values() for k in keys.values()]
    assert len(set(numbers)) == len(numbers)


def config_exit_code(command, config):
    """(exit code, stderr) of a run with `config` as its config file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        return exit_code(command + ["--config", str(path)])


@pytest.mark.parametrize("command, key", CONFIG_KEYS)
@settings(max_examples=10, deadline=None)
@given(value=JSON_VALUES)
def test_config_file_fuzz_exit_contract(command, key, value):
    rc, err = config_exit_code(command, {key: value})
    assert rc in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [None, True, False, [1], [], {"a": 1}, {}])
@pytest.mark.parametrize("command, key", CONFIG_KEYS)
def test_config_value_of_wrong_type_exits_two(command, key, value):
    rc, err = config_exit_code(command, {key: value})
    assert rc == 2
    assert err.startswith("usage error: ")


def exit_code(argv):
    """(exit code, stderr) of a run into a temporary directory."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = run(argv + ["--out", out])
    return rc, err.getvalue()


def assert_exit_contract(argv):
    rc, err = exit_code(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("rows", [
    np.array([[-3, 0, 2 ** 62], [7, -2 ** 63, 1]]),
    np.array([[1, 2], [255, 0]], dtype=np.uint8),
    np.zeros((0, 3), dtype=np.int64),
], ids=["int64", "uint8", "empty"])
@pytest.mark.parametrize("sep", [",", " "])
def test_integer_table_matches_per_value_formatting(rows, sep):
    # the one-pass path for integer arrays writes what fmt writes value by value
    header = [f"c{i}" for i in range(rows.shape[1])]
    assert cli.table_text(header, rows, sep=sep) == cli.table_text(header, rows.tolist(), sep=sep)


def test_float_formatting_is_lossless(tmp_path):
    out = tmp_path / "t"
    assert run(["toric", "concentrate", "--delta", "0..3", "--s", "7",
                "--per-axis", "64", "--out", str(out)]) == 0
    header, row = (out / "cells.csv").read_text().strip().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    # recompute through the CLI's route and compare bit-for-bit through the
    # printed representation
    from gcquant.lab import box_concentration_sweep
    ref = box_concentration_sweep([(0, 3)], 1.0, (1.0,), 64, [7.0], 0.3)[0][0]
    assert float(vals["outside_mass"]) == ref.mass
    assert float(vals["sup_outside"]) == ref.sup
    assert float(vals["pairing_x1"]) == ref.pairings["x1"]


@pytest.mark.parametrize("delta, m, per_axis", [("0..3", "1", 256), ("-2..5", "0.37", 1000),
                                                ("0..1", "0.5", 7)])
def test_profile_is_the_box_grids_normalized_density(tmp_path, delta, m, per_axis):
    # profile.dat is written from the sweep's 1-D grid and densities: bit for
    # bit the midpoints of the box grid and the box's section density there,
    # normalized by the sweep's log_total
    from gcquant.lab import box_concentration_sweep
    from gcquant.polytope import box_polytope
    from gcquant.toric import (ConvexDeformation, SymplecticPotential, polytope_grid,
                               section_log_density)

    out = tmp_path / "t"
    assert run(["toric", "concentrate", f"--delta={delta}", "--m", m, "--s", "0,7,40",
                "--per-axis", str(per_axis), "--out", str(out)]) == 0
    _, header, *lines = (out / "profile.dat").read_text().splitlines()
    assert header == "# x s=0 s=7 s=40"
    table = np.array([[float(v) for v in line.split()] for line in lines])
    ranges = cli.parse_ranges(delta)
    P = box_polytope(ranges)
    x = polytope_grid(P, per_axis)[0]
    assert np.array_equal(table[:, 0], x[:, 0])
    pot = SymplecticPotential(P, 0.0, ConvexDeformation(np.eye(1)))
    svals = [0.0, 7.0, 40.0]
    sweep = box_concentration_sweep(ranges, 1.0, (float(m),), per_axis, svals, 0.3)[0]
    for s, sums, column in zip(svals, sweep, table[:, 1:].T, strict=True):
        dens = section_log_density(pot.at_s(s), (float(m),), x)
        assert np.array_equal(column, np.exp(dens - sums.log_total))


def test_toric_grid_built_once_per_run(tmp_path, monkeypatch):
    # toric concentrate builds no box grid: the sweep builds one 1-D grid per
    # axis and evaluates one 1-D density per axis and s, one mask per axis
    # for its window of the ball and one on the ball box (the 13 x 20 points
    # of the 2-D run are one block), at the names the CLI and the sweep
    # resolve; each s is one reduction of that block and one combination;
    # the 1-D profile is written from the sweep's grid and densities.  The
    # CLI imports nothing from toric: a grid or density it made would be
    # counted at the names "grid" and "profile" patch in
    from gcquant.lab import outside_mass
    from gcquant.polytope import interval
    from gcquant.toric import _block_sums, _combined, polytope_grid, section_log_density

    assert not [name for name, v in vars(cli).items()
                if getattr(v, "__module__", None) == "gcquant.toric"]
    calls = {"grid": 0, "axis_grid": 0, "density": 0, "mask": 0, "profile": 0}
    grid_dims, masks, reduced, log_vols, densities = [], [], [], [], []

    def counted(key, fn, results=None):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            out = fn(*args, **kwargs)
            if results is not None:
                results.append(out)
            return out
        return wrapper

    def recording_grid(P, per_axis):
        grid_dims.append(P.dim)
        return polytope_grid(P, per_axis)

    def recording_mask(labels, *args):
        masks.append(labels.shape)
        return outside_ball(labels, *args)

    def recording_block_sums(lb, *args):
        reduced.append(lb.copy())
        return _block_sums(lb, *args)

    def recording_combined(cols, log_vol, values):
        log_vols.append(log_vol)
        return _combined(cols, log_vol, values)

    monkeypatch.setattr(cli, "polytope_grid", counted("grid", polytope_grid), raising=False)
    monkeypatch.setattr(cli, "section_log_density", counted("profile", section_log_density),
                        raising=False)
    monkeypatch.setattr(gcquant.lab, "polytope_grid", counted("axis_grid", recording_grid))
    monkeypatch.setattr(gcquant.lab, "section_log_density",
                        counted("density", gcquant.lab.section_log_density, densities))
    monkeypatch.setattr(gcquant.lab, "_block_sums", recording_block_sums)
    monkeypatch.setattr(gcquant.lab, "_combined", recording_combined)
    monkeypatch.setattr(gcquant.lab, "outside_ball", counted("mask", recording_mask))
    assert run(["toric", "concentrate", "--delta", "0..3,0..2", "--m", "1,1", "--s", "5,10,20",
                "--eps", "0.3", "--per-axis", "64", "--out", str(tmp_path / "b")]) == 0
    assert calls == {"grid": 0, "axis_grid": 2, "density": 2 * 3, "mask": 3, "profile": 0}
    assert grid_dims == [1, 1]
    assert masks == [(64, 1), (64, 1), (13 * 20, 2)]
    assert len(reduced) == len(log_vols) == 3
    assert all(len(lb) == 13 * 20 for lb in reduced)
    calls.update(dict.fromkeys(calls, 0))
    for seen in (grid_dims, masks, reduced, log_vols, densities):
        seen.clear()
    assert run(["toric", "concentrate", "--delta", "0..3", "--m", "1", "--s", "5,10,20",
                "--eps", "0.3", "--per-axis", "1024", "--out", str(tmp_path / "t")]) == 0
    assert calls == {"grid": 0, "axis_grid": 1, "density": 3, "mask": 2, "profile": 0}
    assert grid_dims == [1] and len(masks) == 2
    assert len(reduced) == len(log_vols) == 3
    # distance measured on labels: doubling them makes the same exclusion
    # window half as wide in x
    pts = polytope_grid(interval(0, 3), 1024)[0]
    logdens, log_vol = densities[1], log_vols[1]  # s = 10
    m_img = outside_mass(logdens, log_vol, outside_ball(2.0 * pts, np.array([2.0]), 0.6))
    m_raw = outside_mass(logdens, log_vol, outside_ball(pts, np.array([1.0]), 0.3))
    assert abs(m_img - m_raw) < 1e-12
    # lab combined: one evaluation of the density and of the exclusion mask
    # on the reported grid for all s, one mask on the flow grid, and one
    # density on the flowed points of each cell with t > 0 (t(5000) =
    # exp(-1000) underflows to 0: no flow there).  The 1.0-ball holds some but
    # not all of the flow grid's points; one that held none or all of them
    # would give a mass of exactly 1 or 0 and evaluate no flowed density
    calls.update(density=0, mask=0)
    out = tmp_path / "lc"
    assert run(["lab", "combined", "--s-grid", "0,5,10,5000", "--eps", "1.0", "--per-axis",
                "10", "--flow-per-axis", "4", "--out", str(out)]) == 0
    header, *rows = [r.split(",") for r in (out / "cells.csv").read_text().split()]
    ts = [float(r[header.index("t")]) for r in rows]
    assert ts[-1] == 0.0 and sum(t > 0 for t in ts) == 3
    assert calls["density"] == 1 + 3
    assert calls["mask"] == 2 and calls["profile"] == 0


def test_flow_runs_once_per_distinct_t(tmp_path, monkeypatch):
    # one chained flow per experiment: one segment per distinct scheduled t
    from gcquant.flow import DegenerationFamily

    calls = []
    orig = DegenerationFamily.flow

    def counted(self, state, tau, **kw):
        calls.append(tau)
        return orig(self, state, tau, **kw)

    monkeypatch.setattr(DegenerationFamily, "flow", counted)
    assert run(["lab", "combined", "--s-grid", "0,5,10", "--per-axis", "10",
                "--flow-per-axis", "4", "--out", str(tmp_path / "lc")]) == 0
    assert len(calls) == 3
    calls.clear()
    out = tmp_path / "g"
    assert run(["lab", "gc-check", "--t", "0.1,0.02,0.1", "--samples", "2",
                "--out", str(out)]) == 0
    assert len(calls) == 2
    rows = (out / "gc_check.csv").read_text().strip().splitlines()[1:]
    assert rows[0] == rows[2] != rows[1]


def test_torus_moment_drift_gate(tmp_path, capsys, monkeypatch):
    # the residual-torus moments are conserved by the flow: tiny at the
    # default tolerance (even FLOW_TOL = 10 drifts them only 7.7e-7, under the
    # 1e-6 gate), and an integrator defect breaks them and the run fails: one
    # eighth-order weight off by 1e-3 drifts them by 6.6e-5
    import gcquant.flow

    base = ["lab", "combined", "--per-axis", "10", "--flow-per-axis", "5"]
    fine = tmp_path / "fine"
    assert run(base + ["--out", str(fine)]) == 0
    header, *rows = (fine / "cells.csv").read_text().strip().splitlines()
    col = header.split(",").index("torus_moment_drift")
    assert max(float(r.split(",")[col]) for r in rows) < 1e-9
    capsys.readouterr()
    tableau = gcquant.flow._DOP853.copy()
    tableau[11, 0] += 1e-3
    monkeypatch.setattr(gcquant.flow, "_DOP853", tableau)
    assert run(base + ["--out", str(tmp_path / "defect")]) == 1
    assert "torus-moment-drift" in capsys.readouterr().err


def test_lab_combined_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "lc"
    rc = run(["lab", "combined", "--s-grid", "0,5", "--per-axis", "10",
              "--flow-per-axis", "4", "--out", str(out)])
    assert rc == 0
    assert "monotone=true" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["monotone"] is True
    assert summary["lift"] == [0, 1, 0, 1]
    rows = (out / "cells.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert rows[0] == ("s,t,outside_mass,sup_outside,outside_mass_flow,flow_points,"
                       "flow_failures,torus_moment_drift,pairing_dist2,pairing_one,pairing_xi1")


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
