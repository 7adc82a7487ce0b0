import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from cordspec import cli, cord_engine
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


def test_verify_unknown_suite_is_config_error(capsys):
    code, rep, err = run(capsys, ["verify", "--suite", "nope"])
    assert code == 2
    assert rep is None and "unknown suite" in err


def test_spectrum_golden(capsys, tmp_path):
    out = tmp_path / "spec.json"
    code, rep, _ = run(capsys, ["spectrum", "--height", "1.2",
                                "--cutoff", "4.0", "--out", str(out)])
    assert code == 0
    # 1211 less the 25 classes that a sign convention once counted twice;
    # the Eisenstein oracle (tests/test_cord_engine.py) counts 1416, which
    # the word cap of the enumeration does not reach
    assert rep["classes"] == 1186
    assert rep["shortest"] == pytest.approx(2 * math.log(1.2))
    data = json.loads(out.read_text())
    assert len(data["entries"]) == 1186


def test_spectrum_auto_height(capsys):
    code, rep, _ = run(capsys, ["spectrum", "--cutoff", "1.0"])
    assert code == 0
    # auto height for the default census file is the maximal embedded value
    assert rep["height"] == pytest.approx(1.0, abs=1e-9)


def test_auto_height_computed_once_per_command(monkeypatch):
    calls = []
    inner = cord_engine.max_embedded_height

    def counting(rep, *args, **kwargs):
        calls.append(rep)
        return inner(rep, *args, **kwargs)

    monkeypatch.setattr(cord_engine, "max_embedded_height", counting)
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
                 dict(shipped, relators=["ab"])):
        bad.write_text(json.dumps(data))
        code, rep, err = run(capsys, ["spectrum", "--input", str(bad)])
        assert code == 2 and rep is None and "cannot load" in err


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
    # the height it ran at, which --height does not set
    assert rep["height"] == 1.0
    _, rep, _ = run(capsys, ["index", "--constant-chord", "--height", "1.2"])
    assert rep["height"] == 1.0


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
    # the word search keeps more than its element cap before the cutoff
    code, rep, err = run(capsys, ["torus", "--p", "2", "--q", "5",
                                  "--max-length", "12"])
    assert code == 2 and rep is None
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
