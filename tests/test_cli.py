import json
import math
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from cordspec import cli, isometry_group
from cordspec.cli import ConfigError, RunConfig


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def test_run_config_validation():
    RunConfig("verify").validate()
    with pytest.raises(ConfigError):
        RunConfig("spectrum", cutoff=-1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig("index", mesh_size=100).validate()  # not a power of two
    with pytest.raises(ConfigError):
        RunConfig("index", mesh_size=32).validate()
    with pytest.raises(ConfigError):
        RunConfig("spectrum", out_format="xml").validate()
    RunConfig("index", height=1.00001).validate()
    for height in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ConfigError):
            RunConfig("index", height=height).validate()


def test_verify_suite_subset(capsys):
    code, rep, _ = run(capsys, ["verify", "--suite", "mean_curvature",
                                "--suite", "cylinder"])
    assert code == 0
    assert rep["ok"] is True
    assert set(rep["suites"]) == {"mean_curvature", "cylinder"}
    for v in rep["suites"].values():
        assert v["pass"] and v["max_residual"] <= v["tolerance"]


def test_verify_impossible_tolerance_fails(capsys):
    code, rep, _ = run(capsys, ["verify", "--suite", "forms",
                                "--tol", "1e-20"])
    assert code == 1
    assert rep["ok"] is False
    assert rep["suites"]["forms"]["pass"] is False


def _spy(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that records its positional
    arguments in calls[name]."""
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.setdefault(name, []).append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


def test_verify_suites_draw_the_per_point_loop_samples(monkeypatch):
    # each stacked suite makes one call per oracle, on exactly the points
    # that a loop drawing one point (or state) at a time draws
    calls = {}
    for name in ("christoffel", "christoffel_fd", "riemann_fd"):
        _spy(monkeypatch, cli, name, calls)
    for name in ("form_identity_residuals", "plurisubharmonic_value"):
        _spy(monkeypatch, cli.flow_integrator, name, calls)
    for suite in ("curvature", "forms", "psh"):
        cli._SUITES[suite][0]()
    assert {k: len(v) for k, v in calls.items()} == dict.fromkeys(calls, 1)

    gauss = random.Random(7).gauss
    q, X, Y = [], [], []
    for _ in range(100):
        x, y = gauss(0.0, 1.0), gauss(0.0, 1.0)
        q.append([x, y, math.exp(gauss(0.0, 1.0))])
        X.append([gauss(0.0, 1.0) for _ in range(3)])
        Y.append([gauss(0.0, 1.0) for _ in range(3)])
    for name in ("christoffel", "christoffel_fd"):
        assert np.array_equal(calls[name][0][0], q)
    for got, want in zip(calls["riemann_fd"][0], (q, X, Y, Y)):
        assert np.array_equal(got, want)

    for name, seed in (("form_identity_residuals", 11),
                       ("plurisubharmonic_value", 13)):
        gauss = random.Random(seed).gauss
        states = []
        for _ in range(30):
            x, y = gauss(0.0, 1.0), gauss(0.0, 1.0)
            z = math.exp(0.7 * gauss(0.0, 1.0))
            states.append([x, y, z, *(gauss(0.0, 1.0) for _ in range(3))])
        assert np.array_equal(calls[name][0][0], states)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_verify_residuals_hold_at_other_seeds(monkeypatch, seed):
    # the suites' seeds 7, 11 and 13 are not hand-picked: on the points of
    # other seeds each finite-difference residual is at roundoff too, under
    # the bound that CI asserts on the printed ones
    draw = cli._normal_rows
    monkeypatch.setattr(cli, "_normal_rows",
                        lambda _, n, m: draw(seed, n, m))
    for suite in ("curvature", "forms", "psh"):
        res = cli._SUITES[suite][0]()
        assert res <= 1e-7, (suite, res)


def test_verify_unknown_suite_is_config_error(capsys):
    code, rep, err = run(capsys, ["verify", "--suite", "nope"])
    assert code == 2
    assert rep is None and "unknown suite" in err


def test_spectrum_golden(capsys, tmp_path):
    out = tmp_path / "spec.json"
    code, rep, _ = run(capsys, ["spectrum", "--height", "1.2",
                                "--cutoff", "4.0", "--out", str(out)])
    assert code == 0
    # the Eisenstein oracle's count (tests/test_cord_engine.py), which the
    # flood's cover certificate proves complete
    assert rep["classes"] == 1416 and rep["complete"] is True
    assert rep["shortest"] == pytest.approx(2 * math.log(1.2))
    data = json.loads(out.read_text())
    assert len(data["entries"]) == 1416
    stats = rep["stats"]
    assert (stats["moves"], stats["kept"], stats["stop"]) == (
        4, 1416, "exhausted")
    assert stats["least_c"] == pytest.approx(1.0)
    assert 0 < stats["cover_margin"] < 1
    assert stats["levels"] >= 1 and stats["steps"] >= stats["kept"]


def test_flood_failures_exit_1_with_no_list(capsys, monkeypatch):
    # a budget overrun leaves the list unproven: exit 1, and nothing on
    # stdout, in the flood's steps and in the search for its moves
    code, rep, err = run(capsys, ["spectrum", "--height", "1.2",
                                  "--cutoff", "40"])
    assert (code, rep) == (1, None)
    assert err.strip() == "error: step cap 2000000 exceeded"
    code, rep, err = run(capsys, ["triangle", "b", "b", "BB", "--height",
                                  "1.2", "--cutoff", "60"])
    assert (code, rep) == (1, None)
    assert err.strip() == "error: lattice vector cap 2000000 exceeded"
    monkeypatch.setattr(isometry_group, "_MOVE_SEARCH_BUDGET", 10)
    for cmd in (["spectrum"], ["index"]):
        code, rep, err = run(capsys, cmd + ["--cutoff", "2"])
        assert (code, rep) == (1, None)
        assert err.strip() == "error: element cap 10 exceeded"


def test_spectrum_auto_height(capsys):
    code, rep, _ = run(capsys, ["spectrum", "--cutoff", "1.0"])
    assert code == 0
    # auto height for the default census file is the maximal embedded value
    assert rep["height"] == pytest.approx(1.0, abs=1e-9)


def test_auto_height_computed_once_per_command(monkeypatch):
    # the auto height and the embedded check read the moves of one word
    # search, kept on the presentation
    calls = []
    inner = isometry_group.reduced_levels

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(isometry_group, "reduced_levels", counting)
    code, rep = cli.run_spectrum(RunConfig("spectrum", cutoff=1.0))
    assert code == 0 and rep["height"] == pytest.approx(1.0, abs=1e-9)
    assert len(calls) == 1


def test_spectrum_missing_input_file(capsys):
    code, rep, err = run(capsys, ["spectrum", "--input", "/nonexistent.json"])
    assert code == 2
    assert "cannot load" in err


def test_malformed_holonomy_file_is_config_error(capsys, tmp_path):
    shipped = json.loads(resources.files("cordspec").joinpath(
        "data/figure_eight.json").read_text())
    bad = tmp_path / "bad.json"
    for data in ({"generators": [{"a": 5, "b": [0, 0], "c": [0, 0],
                                  "d": [1, 0]}],
                  "relators": [], "meridian": "a", "longitude": "a",
                  "cusp_lattice": [[1, 0], [0, 1]]},
                 # parses, but its relator is not the identity
                 dict(shipped, relators=["ab"]),
                 # no lattice to check, which index and triangle need
                 dict(shipped, cusp_lattice=[])):
        bad.write_text(json.dumps(data))
        code, rep, err = run(capsys, ["spectrum", "--input", str(bad)])
        assert code == 2 and rep is None and "cannot load" in err
    for cmd in (["index"], ["triangle", "b", "b", "BB"]):
        code, rep, err = run(capsys, [*cmd, "--input", str(bad)])
        assert code == 2 and rep is None
        assert "error: cannot load holonomy file: cusp_lattice" in err


def test_spectrum_bad_cutoff(capsys):
    code, _, _ = run(capsys, ["spectrum", "--cutoff", "-3"])
    assert code == 2


@pytest.mark.parametrize("cutoff", ["nan", "inf", "0"])
def test_spectrum_nonfinite_cutoff_is_config_error(capsys, cutoff):
    code, rep, err = run(capsys, ["spectrum", "--cutoff", cutoff])
    assert code == 2 and rep is None and "cutoff" in err


@pytest.mark.parametrize("length", ["nan", "inf", "-1", "0"])
def test_torus_bad_max_length_is_config_error(capsys, length):
    # a NaN cutoff compares false with every bound: nothing is pruned or cut
    code, rep, err = run(capsys, ["torus", "--p", "2", "--q", "3",
                                  "--max-length", length])
    assert code == 2 and rep is None and "cutoff" in err


def test_integer_cutoff_and_height_are_stored_as_floats():
    # an int passed validate() and then failed the report's float check
    # with a bare AssertionError (spectrum), or printed as an int (index,
    # torus)
    cfg = RunConfig("spectrum", height=1, cutoff=2)
    cfg.validate()
    assert (cfg.height, cfg.cutoff) == (1.0, 2.0)
    assert type(cfg.height) is type(cfg.cutoff) is float
    code, rep = cli.run_spectrum(RunConfig("spectrum", cutoff=2))
    assert code == 0 and type(rep["cutoff"]) is float and rep["classes"]
    code, rep = cli.run_index(RunConfig("index", cutoff=1, mesh_size=64))
    assert code == 0 and type(rep["cutoff"]) is float
    assert json.dumps(rep["cutoff"]) == "1.0"
    code, rep = cli.run_torus(2, 3, "s3", 4)
    assert code == 0 and type(rep["rank_table"]["cutoff"]) is float
    assert json.dumps(rep["rank_table"]["cutoff"]) == "4.0"


@pytest.mark.parametrize("height", ["nan", "inf", "-1", "0", "0.5"])
@pytest.mark.parametrize("cmd", [["spectrum"], ["index"],
                                 ["triangle", "b", "b", "BB"]],
                         ids=["spectrum", "index", "triangle"])
def test_bad_height_is_config_error(capsys, cmd, height):
    # 0.5 is below the embedded height 1 of the figure-eight: the horoballs
    # overlap
    code, rep, err = run(capsys, cmd + ["--height", height, "--cutoff", "2"])
    assert code == 2 and rep is None and "height" in err


@pytest.mark.parametrize("argv", [
    ["index", "--cutoff", "1", "--out", "x.json"],
    ["verify", "--cutoff", "2"],
    # index has no switch that reports ok for a nonzero index
    ["index", "--no-assert"],
])
def test_unread_options_are_usage_errors(capsys, tmp_path, monkeypatch,
                                         argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_index_constant_chord(capsys):
    code, rep, _ = run(capsys, ["index", "--constant-chord",
                                "--mesh-size", "128"])
    assert code == 0
    assert rep["constant_chord"] == {"kernel": 2, "cokernel": 2}
    assert rep["mesh_size"] == 128
    # the height it ran at: the kernel is the same at every height
    assert rep["height"] == 1.0


def test_index_constant_chord_rejects_unread_options(capsys):
    # the constant chord reads no group, height or cutoff
    with pytest.raises(SystemExit) as e:
        cli.main(["index", "--constant-chord", "--height", "7", "--cutoff",
                  "0.3", "--input", "/nonexistent.json", "--mesh-size",
                  "64"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "--constant-chord: not allowed with --input, --height, --cutoff" \
        in err
    for opt in (["--height", "1.2"], ["--cutoff", "3"],
                ["--input", "x.json"]):
        with pytest.raises(SystemExit) as e:
            cli.main(["index", "--constant-chord"] + opt)
        assert e.value.code == 2
        assert f"not allowed with {opt[0]}" in capsys.readouterr().err


def test_index_solves_once_per_rounded_length(capsys, monkeypatch):
    # at mesh 64 two rows of one true length once printed two least
    # eigenvalues, 6.688973018400702 and 6.688973018401612, from float
    # noise in the length; the solve is keyed on the length rounded to 9
    # digits, as the rows are ordered
    solves = []
    inner = cli.variational.smallest_eigenvalue

    def counting(H):
        solves.append(H)
        return inner(H)

    monkeypatch.setattr(cli.variational, "smallest_eigenvalue", counting)
    code, rep, _ = run(capsys, ["index", "--cutoff", "2.5",
                                "--mesh-size", "64"])
    assert code == 0 and len(rep["rows"]) == 116
    lams = {}
    for r in rep["rows"]:
        lams.setdefault(round(r["length"], 9), set()).add(
            r["min_eigenvalue"])
    assert len(lams) == len(solves) == 5
    assert all(len(v) == 1 for v in lams.values())
    assert rep["complete"] is True and rep["stats"]["kept"] == 120


def test_index_small_cutoff(capsys, tmp_path):
    code, rep, _ = run(capsys, ["index", "--height", "1.2", "--cutoff", "1.5",
                                "--mesh-size", "128"])
    assert code == 0
    assert rep["ok"] and len(rep["rows"]) > 0
    assert (rep["height"], rep["cutoff"], rep["mesh_size"]) == (1.2, 1.5, 128)
    for r in rep["rows"]:
        assert r["index"] == 0 and r["nullity"] == 0
        assert r["min_eigenvalue"] > r["length"] ** 2
    # index and spectrum report one list of classes: at the auto height
    # the index rows are the spectrum file's entries, in the same order
    out = tmp_path / "s.json"
    code, spec, _ = run(capsys, ["spectrum", "--cutoff", "2.5",
                                 "--out", str(out)])
    assert code == 0
    code, rep, _ = run(capsys, ["index", "--cutoff", "2.5",
                                "--mesh-size", "64"])
    assert code == 0 and rep["height"] == spec["height"]
    entries = json.loads(out.read_text())["entries"]
    assert len(entries) == 116
    assert [(r["class_word"], r["length"]) for r in rep["rows"]] == [
        (e["class_word"], e["length"]) for e in entries]


def test_torus_subcommand(capsys, tmp_path):
    prefix = tmp_path / "tk"
    code, rep, _ = run(capsys, ["torus", "--p", "2", "--q", "3",
                                "--max-length", "6", "--out", str(prefix)])
    assert code == 0
    assert rep["euler_char"] == 1
    assert rep["rank_table"]["counts"] == {"0": 60, "1": 60}
    rows = (tmp_path / "tk_families.csv").read_text().strip().split("\n")
    assert len(rows) == 61  # header + one per family


def test_torus_budget_overrun_is_reported(capsys):
    # the word search keeps more than its element cap before the cutoff;
    # the cutoff is a valid value, so this is the flood overrun's code, not
    # a usage error
    code, rep, err = run(capsys, ["torus", "--p", "2", "--q", "5",
                                  "--max-length", "12"])
    assert code == 1 and rep is None
    assert err.strip() == "error: element cap 500000 exceeded"


def test_torus_invalid_params(capsys):
    code, _, err = run(capsys, ["torus", "--p", "2", "--q", "4"])
    assert code == 2 and "coprime" in err


def test_triangle_subcommand(capsys, tmp_path):
    out = tmp_path / "tri.json"
    code, rep, _ = run(capsys, ["triangle", "b", "b", "BB",
                                "--height", "1.2", "--out", str(out)])
    assert code == 0
    assert len(rep["triangles"]) >= 1
    tri = rep["triangles"][0]
    assert abs(tri["area"] - (math.pi - sum(tri["arc_lengths"]))) < 1e-6
    assert json.loads(out.read_text())["classes"] == ["b", "b", "BB"]


def test_triangle_cutoff_applies_to_every_side(capsys):
    # at cutoff 1.0 spectrum lists only the four classes of length 0.3646,
    # so the cord of bAABab (1.4633) is too long
    words = ["triangle", "B", "bAABab", "BAb", "--height", "1.2"]
    code, rep, err = run(capsys, words + ["--cutoff", "1.0"])
    assert (code, rep) == (2, None)
    assert err.strip() == ("error: classes are not composable within the "
                           "length cutoff")
    code, rep, _ = run(capsys, words + ["--cutoff", "1.5"])
    assert code == 0 and len(rep["triangles"]) == 1
    assert rep["triangles"][0]["side_lengths"] == pytest.approx(
        [0.3646431135879092, 1.4632554022560196, 0.3646431135879092],
        abs=1e-13)


def test_triangle_reports_effective_height_and_cutoff(capsys):
    # at the auto height 1 + 2e-16 the cords of b are tangent; these three
    # classes, of length ln 3, compose
    words = ["BAAABab", "bABAb", "BBab"]
    code, rep, _ = run(capsys, ["triangle", *words, "--height", "auto",
                                "--cutoff", "4"])
    assert code == 0 and rep["triangles"]
    assert rep["height"] == pytest.approx(1.0, abs=1e-9)
    assert type(rep["height"]) is float and rep["cutoff"] == 4.0
    code, rep = cli.run_triangle(RunConfig("triangle", cutoff=4), words)
    assert code == 0 and type(rep["cutoff"]) is float
    assert json.dumps(rep["cutoff"]) == "4.0"


def test_triangle_peripheral_rejected(capsys):
    code, _, _ = run(capsys, ["triangle", "a", "b", "B", "--height", "1.2"])
    assert code == 2


def test_triangle_height_below_threshold_is_config_error(capsys):
    # same exit code as spectrum for the same overlapping horoballs
    code, rep, err = run(capsys, ["triangle", "b", "b", "BB",
                                  "--height", "0.5"])
    assert code == 2
    assert rep is None and "embedded threshold" in err


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point():
    out = subprocess.run([sys.executable, "-m", "cordspec", "verify",
                          "--suite", "mean_curvature"], env=_src_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["ok"] is True


def test_closed_stdout_exits_1_without_a_traceback():
    # the read end is closed before the command starts, so its write fails
    # for certain
    r, w = os.pipe()
    os.close(r)
    try:
        out = subprocess.run([sys.executable, "-m", "cordspec", "verify",
                              "--suite", "mean_curvature"], env=_src_env(),
                             stdout=w, stderr=subprocess.PIPE, text=True,
                             timeout=120)
    finally:
        os.close(w)
    assert out.returncode == 1, out.stderr
    assert "Traceback" not in out.stderr, out.stderr


def test_cli_import_defers_scipy_solvers():
    # the command-line module imports no scipy
    code = ("import sys, cordspec.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_flow_process_loads_no_scipy():
    # every verify suite, the flow integrator and the Newton shooter run in
    # scalar floats and numpy, as the benchmark's flow process does
    code = ("import sys\n"
            "from importlib import resources\n"
            "from cordspec import cli, flow_integrator as fl\n"
            "from cordspec.hyperbolic_core import PointH3\n"
            "from cordspec.isometry_group import (INFINITY, Horoball,\n"
            "                                     load_presentation)\n"
            "code, _ = cli.run_verify(cli.RunConfig('verify'))\n"
            "assert code == cli.EXIT_OK\n"
            "fl.integrate_flow(fl.CotangentState(PointH3(0.3, -0.2, 1.1),\n"
            "                                    [0.4, -0.3, 0.5]),\n"
            "                  T=2.0, dt=1e-3)\n"
            "rep = load_presentation(resources.files('cordspec')\n"
            "                        .joinpath('data/figure_eight.json'))\n"
            "fl.shoot_neumann(Horoball(INFINITY, 1.2), rep.evaluate('ab'))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_commands_run_without_scipy():
    # scipy is needed only by the tests: with every scipy import made to
    # raise, each command runs, as do the flow integrator and the shooter
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from importlib import resources\n"
            "from cordspec import cli, flow_integrator as fl\n"
            "from cordspec.hyperbolic_core import PointH3\n"
            "from cordspec.isometry_group import (INFINITY, Horoball,\n"
            "                                     load_presentation)\n"
            "cfg = cli.RunConfig\n"
            "assert cli.run_verify(cfg('verify'))[0] == cli.EXIT_OK\n"
            "fl.integrate_flow(fl.CotangentState(PointH3(0.3, -0.2, 1.1),\n"
            "                                    [0.4, -0.3, 0.5]),\n"
            "                  T=2.0, dt=1e-3)\n"
            "rep = load_presentation(resources.files('cordspec')\n"
            "                        .joinpath('data/figure_eight.json'))\n"
            "fl.shoot_neumann(Horoball(INFINITY, 1.2), rep.evaluate('ab'))\n"
            "code, rep = cli.run_index(cfg('index', cutoff=1.5, mesh_size=64))\n"
            "assert code == cli.EXIT_OK and rep['rows'], rep\n"
            "code, rep = cli.run_index(cfg('index'), constant_chord=True)\n"
            "assert rep['constant_chord'] == {'kernel': 2, 'cokernel': 2}\n"
            "code, rep = cli.run_spectrum(cfg('spectrum', cutoff=2.0))\n"
            "assert code == cli.EXIT_OK and rep['classes'] > 0, rep\n"
            "code, rep = cli.run_torus(2, 3, 's3', 4.0)\n"
            "assert code == cli.EXIT_OK, rep\n"
            "code, rep = cli.run_triangle(cfg('triangle', height=1.2),\n"
            "                             ['b', 'b', 'BB'])\n"
            "assert code == cli.EXIT_OK and rep['triangles'], rep\n"
            "print('ok')\n")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
