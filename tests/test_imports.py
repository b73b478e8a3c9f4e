"""What a command imports, checked in a fresh process, what the package
declares that it needs, that the package defines nothing it does not use,
and that the command-line driver imports only public library names.

The exact commands (``validate`` on a discrete system or a strict metric
system, and ``duality`` at every fiber size, enumerated or sampled), the
package itself and loading any instance leave numpy out, and the exact
commands leave out ``inspect`` too.  ``run`` sets one OpenBLAS thread
before numpy is imported.  No command loads ``dataclasses``, and none loads
``numpy.random``, sampled coding included.
Nothing imports scipy, whatever the sizes of the clouds compared.  The grid
commands leave ``kfractal.duality`` out.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from shipped import LOPSIDED

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TESTS = ROOT / "tests"

# p2c with its ratios 1/3 made 0.1 and its translations 2/3 made 0.9: a 2-d
# dust of dimension 0.602, whose iterates are sparse in their fiber grid
# (10,816 points against 576 in a 513^2 box on the second step)
DUST = "dust.json"


# the two-vertex 1-graph of tests/shipped.py, whose completion counts differ
LOPSIDED_FILE = "lopsided.json"


def write_dust(path: Path) -> None:
    doc = json.loads((SRC / "kfractal" / "data" / "p2c.json").read_text())
    doc["name"], doc["c"] = "dust", 0.1
    # 0.1 + 0.875 stays inside [0, 1]; the floats 0.1 + 0.9 lie past 1
    for m in doc["maps"].values():
        m["matrix"] = [[0.1 if x == 1 / 3 else x for x in row] for row in m["matrix"]]
        m["translation"] = [0.875 if x == 2 / 3 else x for x in m["translation"]]
    path.write_text(json.dumps(doc))


# 1500 x 1400 pairs, more than 2,000,000: real clouds of any size are measured
# by brute force
LARGE_DISTANCE = (
    "import numpy as np\n"
    "from kfractal.attractor import directed_distance\n"
    "a = np.random.default_rng(0).random((1500, 2))\n"
    "assert directed_distance(a, a[:1400]) > 0\n"
)

# s1's depth-9 coded cloud, 13,618 points, against its 3 x 13,618 degree-1
# images, measured by the test oracle with attractor._directed_bound: far
# above the 2,000,000 pairs where a KD-tree once took over
K_SURJECTIVE = (
    "from kfractal.coding import coded_cloud, coded_error\n"
    "from kfractal.io import load_instance, packaged_instance\n"
    "from oracles import coverage_distances\n"
    "sys_ = load_instance(packaged_instance('s1'))[1]\n"
    "T, err = coded_cloud(sys_, (9,), pitch=1 / 512), coded_error(sys_, (9,))\n"
    "assert max(coverage_distances(sys_, (1,), T).values()) <= 2 / 512 + 2 * err\n"
)

# every shipped metric instance and a generated product, loaded after the
# CLI module as the benchmark's set-up probe loads them: regions and maps
# hold Python floats, and numpy is the lattice engine only
LOAD_METRIC = (
    "import kfractal.cli\n"
    "from kfractal.io import load_instance, packaged_instance\n"
    "from perfbench.generate import product_system\n"
    "for name in ('s1', 'p2', 'p2c', 't0', 'f3'):\n"
    "    load_instance(packaged_instance(name))\n"
    "load_instance(product_system(1))\n"
)

# (what runs: Python source, or the argv of a CLI command; the module it
# must leave out of sys.modules)
GUARDS = {
    "import-kfractal": ("import kfractal\n", "numpy"),
    "import-kfractal-cli": ("import kfractal.cli\n", "numpy"),
    "duality-d1": (["duality", "--instance", "d1"], "numpy"),
    "duality-d2": (["duality", "--instance", "d2"], "numpy"),
    "duality-d3": (["duality", "--instance", "d3"], "numpy"),
    # sizes 1 and 2 are enumerated whole; sizes 3 and up are sampled from
    # random.Random, tested on tuples of images
    "duality-sweep-2": (["duality", "--max-fiber-size", "2"], "numpy"),
    "duality-sweep-3": (["duality", "--max-fiber-size", "3", "--seed", "1"], "numpy"),
    "duality-sweep-4": (["duality", "--max-fiber-size", "4", "--seed", "1"], "numpy"),
    "validate-d1": (["validate", "--instance", "d1"], "numpy"),
    "load-metric-instances": (LOAD_METRIC, "numpy"),
    # strict mode decides every check in exact rationals; relaxed mode
    # (p2, p2c) composes its diagonal maps in floats
    "validate-s1": (["validate", "--instance", "s1"], "numpy"),
    "validate-t0": (["validate", "--instance", "t0"], "numpy"),
    "validate-f3": (["validate", "--instance", "f3"], "numpy"),
    # the records are named tuples and plain classes: no command loads
    # dataclasses, and the exact ones leave out inspect, which it imports
    "duality-d1-no-dataclasses": (["duality", "--instance", "d1"], "dataclasses"),
    "duality-d1-no-inspect": (["duality", "--instance", "d1"], "inspect"),
    "duality-sweep-3-no-dataclasses": (["duality", "--max-fiber-size", "3", "--seed", "1"],
                                       "dataclasses"),
    "duality-sweep-3-no-inspect": (["duality", "--max-fiber-size", "3", "--seed", "1"],
                                   "inspect"),
    "validate-d1-no-dataclasses": (["validate", "--instance", "d1"], "dataclasses"),
    "validate-d1-no-inspect": (["validate", "--instance", "d1"], "inspect"),
    "attractor-p2c-no-dataclasses": (["attractor", "--instance", "p2c"], "dataclasses"),
    "coding-s1-no-dataclasses": (["coding", "--instance", "s1", "--count", "20000",
                                  "--seed", "1"], "dataclasses"),
    # p2c compares its iterates through distance windows on every step
    "attractor-p2c": (["attractor", "--instance", "p2c"], "scipy"),
    "diagonal-p2c": (["diagonal", "--instance", "p2c"], "scipy"),
    # 2187 coded points against 2187 snapped images per generator: the
    # products a KD-tree measured before the images were snapped
    "coding-s1": (["coding", "--instance", "s1", "--count", "20000"], "scipy"),
    # duality is read only by the duality command and the discrete reader
    "attractor-p2c-no-duality": (["attractor", "--instance", "p2c"], "kfractal.duality"),
    "diagonal-p2c-no-duality": (["diagonal", "--instance", "p2c"], "kfractal.duality"),
    "coding-s1-no-duality": (["coding", "--instance", "s1"], "kfractal.duality"),
    # sparse clouds in large boxes are measured on the lattice too
    "attractor-dust": (["attractor", "--instance", DUST], "scipy"),
    "diagonal-dust": (["diagonal", "--instance", DUST], "scipy"),
    "coding-dust": (["coding", "--instance", DUST, "--count", "20000"], "scipy"),
    # np.unique without return_inverse imports numpy.ma; the dust's sparse
    # unions sort flat int64 cells instead of calling np.unique(axis=0)
    "coding-s1-no-ma": (["coding", "--instance", "s1", "--count", "20000", "--seed", "1"],
                        "numpy.ma"),
    "attractor-p2-no-ma": (["attractor", "--instance", "p2"], "numpy.ma"),
    # the diagonal run unites the children of each level's fixed point
    "diagonal-p2c-no-ma": (["diagonal", "--instance", "p2c"], "numpy.ma"),
    "attractor-dust-no-ma": (["attractor", "--instance", DUST], "numpy.ma"),
    # coding draws its ranks from random.Random; no command loads numpy.random
    "coding-s1-no-random": (["coding", "--instance", "s1", "--count", "20000", "--seed", "1"],
                            "numpy.random"),
    "coding-lopsided-no-random": (["coding", "--instance", LOPSIDED_FILE, "--count", "40",
                                   "--seed", "3"], "numpy.random"),
    "attractor-p2-no-random": (["attractor", "--instance", "p2"], "numpy.random"),
    "diagonal-p2c-no-random": (["diagonal", "--instance", "p2c"], "numpy.random"),
    "large-directed-distance": (LARGE_DISTANCE, "scipy"),
    "k-surjective-s1": (K_SURJECTIVE, "scipy"),
}


def run_fresh(code: str, environ=os.environ) -> subprocess.CompletedProcess:
    """Run Python source in a fresh interpreter, in the given environment,
    that imports the package from the source tree, the test oracles from
    tests/ and the benchmark's generators from perfbench/."""
    env = dict(environ, PYTHONPATH=os.pathsep.join(map(str, (SRC, TESTS, ROOT))))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", GUARDS)
def test_fresh_process_leaves_module_out(tmp_path, name):
    run, module = GUARDS[name]
    if isinstance(run, list):
        if DUST in run:
            write_dust(tmp_path / DUST)
            run = [str(tmp_path / DUST) if arg == DUST else arg for arg in run]
        if LOPSIDED_FILE in run:
            (tmp_path / LOPSIDED_FILE).write_text(json.dumps(LOPSIDED))
            run = [str(tmp_path / LOPSIDED_FILE) if arg == LOPSIDED_FILE else arg for arg in run]
        run = ("from kfractal.cli import main\n"
               f"assert main({[*run, '--out', str(tmp_path)]!r}) == 0\n")
    code = ("import sys\n" + run
            + f"assert {module!r} not in sys.modules, "
              f"sorted(m for m in sys.modules if m.startswith({module!r}))\n")
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


# what run() hands main(): the OpenBLAS thread count, and whether numpy
# was imported yet
OPENBLAS_SEEN = (
    "import os, sys\n"
    "from kfractal import cli\n"
    "cli.main = lambda: print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules) or 0\n"
    "cli.run()\n"
)


@pytest.mark.parametrize("given, seen", [(None, "1 False"), ("3", "3 False")],
                         ids=["unset", "given"])
def test_run_sets_one_openblas_thread_before_numpy(given, seen):
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        environ["OPENBLAS_NUM_THREADS"] = given
    proc = run_fresh(OPENBLAS_SEEN, environ)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, seen + "\n", "")


def third_party_imports() -> set[str]:
    """The top-level modules imported anywhere under src/kfractal, outside
    the standard library and the package itself."""
    found = set()
    for path in (SRC / "kfractal").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"kfractal"}


def test_dependencies_are_exactly_the_third_party_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"]}
    assert declared == third_party_imports()


def test_console_script_is_the_process_entry_point():
    from kfractal.cli import run

    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["kfractal"].partition(":")
    assert getattr(importlib.import_module(module), name) is run


# the public names that no code of the package uses, and why each stays
UNUSED_KEPT = {
    "hausdorff_distance": "with directed_distance and _kernels.py, the brute-force reference "
                          "the lattice distances are tested against; perfbench/trace_child.py "
                          "imports kfractal._kernels by name",
    "exact_path_map": "the rational composite of a path's maps, for certifying composites",
    "factorize": "the k-graph API: the factorization that test_criterion_8 checks",
    "path_from_word": "the k-graph API: the normal form of a word, read by the tests",
}


def unused_public_names() -> set[str]:
    """The public module-level functions and classes of src/kfractal that
    no code of the package reads outside their own definition."""
    defined, used = set(), set()
    for path in (SRC / "kfractal").rglob("*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                own = node.name
                defined.add(own)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return defined - used


def test_every_public_name_is_used_or_kept():
    assert unused_public_names() == set(UNUSED_KEPT)


# the public members of public classes that no code of the package reads as
# an attribute, and why each stays
MEMBERS_KEPT = {
    "SetTuple.from_fibers": "perfbench/trace_child.py wraps it by name (METHODS) to time "
                            "the fiber grids a run builds",
    "ValidationReport.codes": "the set of finding codes, which the tests compare",
    "IntertwiningReport.required_total_depth": "the depth that would suffice when the "
                                               "prefixes are too short, which the tests "
                                               "compare with required_depth",
}


def unread_public_members() -> set[str]:
    """The public methods, properties and annotated fields of the public
    classes of src/kfractal, as "Class.member", whose name no code of the
    package reads as an attribute."""
    members, read = set(), set()
    for path in (SRC / "kfractal").rglob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    members.add((node.name, name))
        read.update(sub.attr for sub in ast.walk(tree)
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))
    return {f"{cls}.{name}" for cls, name in members if name not in read}


def test_every_public_member_is_read_or_kept():
    assert unread_public_members() == set(MEMBERS_KEPT)


def private_names_the_cli_imports() -> set[str]:
    """The names starting with an underscore that src/kfractal/cli.py
    imports from a module of the package, as "module._name"."""
    tree = ast.parse((SRC / "kfractal" / "cli.py").read_text())
    return {f"{node.module}.{alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")}


def test_the_cli_imports_only_public_library_names():
    assert private_names_the_cli_imports() == set()
