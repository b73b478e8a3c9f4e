"""What a command imports, checked in a fresh process.

The exact commands (``validate`` on a discrete system, ``duality`` on the
enumerated fiber sizes) and the package itself leave numpy out; no command
imports scipy, and a small product of clouds is measured without
``scipy.spatial``.  No numpy also means no ``numpy.random`` and no
``scipy.ndimage``.  The grid commands leave ``kfractal.duality`` out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SMALL_DISTANCE = (
    "import kfractal.cli\n"
    "from kfractal.attractor import directed_distance\n"
    "assert directed_distance([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0]]) > 0\n"
)

# (what runs: Python source, or the argv of a CLI command; the module it
# must leave out of sys.modules)
GUARDS = {
    "import-kfractal": ("import kfractal\n", "numpy"),
    "import-kfractal-cli": ("import kfractal.cli\n", "numpy"),
    "duality-d1": (["duality", "--instance", "d1"], "numpy"),
    "duality-d2": (["duality", "--instance", "d2"], "numpy"),
    "duality-d3": (["duality", "--instance", "d3"], "numpy"),
    # sizes 1 and 2 are enumerated whole, so the sweep never imports numpy
    "duality-sweep-2": (["duality", "--max-fiber-size", "2"], "numpy"),
    "validate-d1": (["validate", "--instance", "d1"], "numpy"),
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
    # the brute-force path exists so that small products never pay for this import
    "small-directed-distance": (SMALL_DISTANCE, "scipy.spatial"),
}


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run Python source in a fresh interpreter that imports the package
    from the source tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", GUARDS)
def test_fresh_process_leaves_module_out(tmp_path, name):
    run, module = GUARDS[name]
    if isinstance(run, list):
        run = ("from kfractal.cli import main\n"
               f"assert main({[*run, '--out', str(tmp_path)]!r}) == 0\n")
    code = ("import sys\n" + run
            + f"assert {module!r} not in sys.modules, "
              f"sorted(m for m in sys.modules if m.startswith({module!r}))\n")
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
