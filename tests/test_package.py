"""The package's lazy layout: which qcube modules a command executes, and the
re-exports of `qcube`.

Each command runs in a fresh interpreter, so that no other test has executed
a module first.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcube
import qcube.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
SUBMODULES = (
    "qcube.base", "qcube.closed", "qcube.complement", "qcube.core", "qcube.faces", "qcube.families", "qcube.fold",
    "qcube.identities", "qcube.rank", "qcube.sweep", "qcube.walk", "qcube.writer",
)

# Runs argv through qcube.cli.main, then prints, as its last line, the qcube
# modules in sys.modules and the ones of them that were executed: a lazily
# registered module that was never used is not yet a plain ModuleType.
CHILD = """
import json, sys, types
from qcube.cli import main
code = main(sys.argv[1:])
modules = sorted(name for name in sys.modules if name.startswith("qcube."))
executed = [name for name in modules if type(sys.modules[name]) is types.ModuleType]
slow = [name for name in ("dataclasses", "inspect", "string", "pathlib") if name in sys.modules]
print(json.dumps({"code": code, "modules": modules, "executed": executed, "slow": slow,
                  "random": "random" in sys.modules}))
"""


def run_child(tmp_path, *argv):
    (tmp_path / "a.txt").write_text("000\n011\n101\n110\n")
    # 27 points of E_2^6, whose k = 1 level the dense fold takes.
    (tmp_path / "b.txt").write_text("".join(f"{i:06b}\n" for i in range(27)))
    # bench/sweep_closed.json's closed-form identities on a small n range.
    closed = json.loads((BENCH / "sweep_closed.json").read_text())
    (tmp_path / "closed.json").write_text(json.dumps({**closed, "n": [0, 6]}))
    # Family identities and bounds on random sets, as bench/sweep_random.json.
    family = {"identities": ["main", "corollary1", "bounds"], "q": [2], "n": [3, 4], "family": {"kind": "random", "m": 4}}
    (tmp_path / "random.json").write_text(json.dumps(family))
    (tmp_path / "bench-random.json").write_text((BENCH / "sweep_random.json").read_text())
    src = str(Path(qcube.cli.__file__).parents[1])
    # -S: no site hooks, which may import stdlib modules (random among them)
    # before qcube runs and so hide what qcube itself imports.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, *argv],
        capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


POINTS = ["qcube.base", "qcube.cli", "qcube.core"]
SWEEP = ["qcube.base", "qcube.cli", "qcube.closed", "qcube.core", "qcube.faces", "qcube.families", "qcube.identities",
         "qcube.rank", "qcube.sweep"]


@pytest.mark.parametrize(
    "argv, executed",
    [
        # faces picks the route and executes only the one it takes: the
        # walk, the dense fold, or its own Counter route.
        (("distribution", "a.txt", "-k", "2"), [*POINTS, "qcube.faces", "qcube.walk"]),
        (("distribution", "b.txt", "-k", "1"), [*POINTS, "qcube.faces", "qcube.fold"]),
        (("distribution", "a.txt", "-k", "3"), [*POINTS, "qcube.faces"]),
        (("rank", "a.txt"), [*POINTS, "qcube.rank"]),
        (("bounds", "a.txt"), [*POINTS, "qcube.rank"]),
        # identities executes faces and rank, whose names it imports.
        (("verify", "a.txt", "-k", "2", "-s", "2"),
         [*POINTS, "qcube.faces", "qcube.identities", "qcube.rank", "qcube.walk"]),
        # Only gen writes point text.
        (("gen", "--family", "random", "--n", "4", "--m", "3"), [*POINTS, "qcube.families", "qcube.writer"]),
        (("sweep", "closed.json"), ["qcube.base", "qcube.cli", "qcube.closed", "qcube.sweep"]),
        # main at s = 3 on sets of 4 points walks the one point left out.
        (("sweep", "random.json"), sorted([*SWEEP, "qcube.complement", "qcube.walk"])),
        # The sweep-random workload's sets of 24 points at s <= 4 do not.
        (("sweep", "bench-random.json"), [*SWEEP, "qcube.walk"]),
    ],
    ids=["distribution", "distribution-fold", "distribution-counter", "rank", "bounds", "verify", "gen",
         "sweep-closed-forms", "sweep-random-family", "sweep-bench-random"],
)
def test_command_executes_only_the_modules_it_uses(tmp_path, argv, executed):
    got = run_child(tmp_path, *argv)
    assert got["code"] == 0
    assert got["executed"] == executed
    assert got["modules"] == sorted(["qcube.cli", *SUBMODULES])
    # Only a random family needs it.
    assert got["random"] == any("random" in arg for arg in argv)


def test_importing_the_cli_executes_only_cli_and_base():
    # The process whose time the benchmark reports as setup_s; -S as in run_child.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import json, sys, types, qcube.cli; print(json.dumps(sorted("
         "n for n, m in sys.modules.items() if n.startswith('qcube.') and type(m) is types.ModuleType)))"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(qcube.cli.__file__).parents[1])),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["qcube.base", "qcube.cli"]


@pytest.mark.parametrize(
    "argv",
    [
        ("rank", "a.txt"),
        ("bounds", "a.txt"),
        ("distribution", "a.txt", "-k", "2"),
        ("verify", "a.txt", "-k", "2", "-s", "2", "--breakdown"),
        ("gen", "--family", "face", "--n", "4", "--nu", "2"),
        ("sweep", "sweep.json"),
        ("gen", "--family", "face", "--n", "4", "--nu", "2", "-o", "out.txt"),
        ("sweep", "file.json"),
    ],
    ids=["rank", "bounds", "distribution", "verify", "gen", "sweep", "gen-output", "sweep-file-family"],
)
def test_command_imports_no_dataclasses(tmp_path, argv):
    # dataclasses (with inspect), string and pathlib (with urllib.parse and
    # ipaddress) cost every process milliseconds to import; no command needs
    # them, and a path is opened as the str it is given.
    config = {"identities": ["main", "corollary1", "bounds", "vandermonde"], "q": [2], "n": [3, 4],
              "family": {"kind": "random", "m": 4}}
    (tmp_path / "sweep.json").write_text(json.dumps(config))
    files = {"identities": ["main", "lemma_face_count"], "q": [2], "n": [3, 3], "family": {"kind": "file", "path": "a.txt"}}
    (tmp_path / "file.json").write_text(json.dumps(files))
    got = run_child(tmp_path, *argv)
    assert got["code"] == 0
    assert got["slow"] == []


# Calls one closed form through the package before anything else, then prints
# its value and the qcube modules that were executed.
CLOSED_FORM_CHILD = """
import json, sys, types
import qcube
got = getattr(qcube, sys.argv[1])(qcube.CubeParams(3, 4), 2, 2)
value = sorted(got.counts.items()) if hasattr(got, "counts") else [got.lhs, got.rhs, got.equal]
executed = sorted(n for n, m in sys.modules.items() if n.startswith("qcube.") and type(m) is types.ModuleType)
print(json.dumps({"value": value, "executed": executed}))
"""


def run_closed_form_first(name):
    src = str(Path(qcube.cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", CLOSED_FORM_CHILD, name],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_face_closed_form_called_first():
    got = run_closed_form_first("face_distribution_closed")
    assert got["executed"] == ["qcube.base", "qcube.core", "qcube.faces", "qcube.families"]
    params = qcube.CubeParams(3, 4)
    oracle = qcube.distribution(qcube.gen_face_subset(params, qcube.face_spec(params, 2)), 2)
    assert got["value"] == [list(item) for item in sorted(oracle.counts.items())]


def test_vandermonde_called_first():
    got = run_closed_form_first("check_vandermonde")
    # identities executes faces and rank, whose names it imports.
    assert got["executed"] == [
        "qcube.base", "qcube.core", "qcube.faces", "qcube.families", "qcube.identities", "qcube.rank"
    ]
    assert got["value"] == [6, 6, True]


def test_importing_the_cli_registers_every_module():
    proc = subprocess.run(
        [sys.executable, "-c", "import qcube.cli, sys; print(*sorted(n for n in sys.modules if n.startswith('qcube')))"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(qcube.cli.__file__).parents[1])),
    )
    assert proc.stdout.split() == ["qcube", *sorted(["qcube.cli", *SUBMODULES])]


def test_every_export_is_the_object_its_module_defines():
    homes = {}
    for module in SUBMODULES:
        for name, value in vars(sys.modules[module]).items():
            if name in qcube.__all__ and getattr(value, "__module__", module) == module:
                homes[name] = module
    assert sorted(homes) == sorted(qcube.__all__)
    for name, module in homes.items():
        assert getattr(qcube, name) is getattr(sys.modules[module], name), name
    namespace = {}
    exec("from qcube import *", namespace)
    assert {name: namespace[name] for name in qcube.__all__} == {name: getattr(qcube, name) for name in qcube.__all__}
    assert set(qcube.__all__) <= set(dir(qcube))
    # A constant has no __module__, and every module that imports it binds
    # it too; its home's source must bind it itself.
    for name, module in qcube._HOME.items():
        assert name in top_level_definitions(module), (name, module)


def top_level_definitions(module):
    """The names the module's source binds at top level by an assignment, a
    def or a class, not by an import."""
    path = Path(qcube.cli.__file__).with_name(f"{module}.py")
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(leaf.id for target in targets for leaf in ast.walk(target) if isinstance(leaf, ast.Name))
    return names


def test_each_export_is_listed_under_one_module():
    # __all__ is derived from _EXPORTS; a name under two modules would drop out of it.
    assert sum(map(len, qcube._EXPORTS.values())) == len(qcube.__all__)


def test_module_attributes():
    assert qcube.rank is sys.modules["qcube.rank"].rank  # the function, as the export says
    assert qcube.faces is sys.modules["qcube.faces"] and qcube.sweep is sys.modules["qcube.sweep"]
    with pytest.raises(AttributeError, match="module 'qcube' has no attribute 'nothing'"):
        qcube.nothing
