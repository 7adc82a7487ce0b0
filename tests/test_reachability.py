"""The package holds only what runs: every function under src/cordspec is
reached by one of the commands below, or is on a short allowlist, each entry
with its reason.  The commands run in one fresh interpreter under
``sys.setprofile``, set before cordspec is imported, so that import-time
calls and first calls to cached functions are seen."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import cordspec

PKG = Path(cordspec.__file__).resolve().parent

# functions that no command reaches, and why each stays
ALLOWED = {
    "flow_integrator.shoot_neumann":
        "perfbench's flow job shoots cords with it; no command does yet",
    "hyperbolic_core.geodesic_point": "shoot_neumann's witness geodesic",
    "hyperbolic_core.distance": "shoot_neumann's cord length",
    "hyperbolic_core.distance_gradient": "shoot_neumann's gradient check",
    "isometry_group.double_coset_canonical":
        "perfbench's tracer wraps it, and reports a missing target",
    "isometry_group.Moebius.__repr__": "a protocol method, read when printed",
}

# small sizes of every command and output format
COMMANDS = [
    ["spectrum", "--height", "1.2", "--cutoff", "2.5", "--out", "s.json"],
    ["spectrum", "--cutoff", "2.5", "--format", "csv", "--out", "s.csv"],
    ["index", "--cutoff", "2.5", "--mesh-size", "64"],
    ["index", "--constant-chord", "--mesh-size", "64"],
    ["torus", "--p", "2", "--q", "5", "--max-length", "5", "--out", "t"],
    ["torus", "--p", "3", "--q", "2", "--ambient", "s2xs1",
     "--max-length", "5"],
    ["triangle", "b", "b", "BB", "--height", "1.2"],
    ["triangle", "b", "b", "BB", "--height", "1.2", "--out", "tri.json"],
    ["verify"],
]

SCAN = """
import contextlib, io, json, sys
pkg = sys.argv[2]
reached = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(pkg):
        reached.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(profile)
from cordspec import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
sys.setprofile(None)
print(json.dumps(sorted(reached)))
"""


def defined_functions():
    """(file, first line) -> qualified name, for every def in the package;
    a decorated function's code starts at its first decorator."""
    out = {}
    for path in sorted(PKG.glob("*.py")):
        module = path.stem

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno]
                               + [d.lineno for d in child.decorator_list])
                    name = f"{prefix}.{child.name}"
                    out[(str(path), line)] = name
                    walk(child, name)
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}.{child.name}")

        walk(ast.parse(path.read_text()), module)
    return out


def test_every_function_in_src_is_run_or_allowed(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PKG.parent)] + sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", SCAN, json.dumps(COMMANDS),
         str(PKG) + os.sep],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # module and class bodies, lambdas and comprehensions are code too;
    # a def is reached when a code of its name starts at its first line
    reached = {(f, line, name) for f, line, name in json.loads(proc.stdout)}
    unreached = {name for (f, line), name in defined_functions().items()
                 if (f, line, name.rsplit(".", 1)[-1]) not in reached}
    assert unreached == set(ALLOWED)


LAZY = """
import contextlib, io, json, sys
from cordspec import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded = sorted(m for m in sys.modules
                    if m.split(".")[:2] in (["numpy", "random"],
                                            ["numpy", "polynomial"]))
    assert not loaded, (argv, loaded)
"""


def test_no_command_loads_numpy_random_or_polynomial(tmp_path):
    # numpy loads both subpackages on first use only, at several ms each
    # of a command's time; the verify suites draw from the random module
    # and the cylinder suite needs no quadrature
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PKG.parent)] + sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY, json.dumps(COMMANDS)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
