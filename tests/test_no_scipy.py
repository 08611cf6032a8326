"""The program does not load scipy.

scipy stays a test dependency: the tests' Qhull references and the
benchmark's oracles use it.  ``src/coveragekit`` itself imports only the
standard library and numpy, so a CLI run never pays for loading
``scipy.spatial``.  This test keeps it that way: an AST scan finds no
``import scipy`` or ``from scipy`` in the package, and a ``build-map``
and a ``render`` of a scenario whose diagram takes the hull route end
with no ``scipy`` module loaded.
"""

from __future__ import annotations

import ast
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coveragekit"

# runs ``python -m coveragekit ARGS...`` and prints, after it exits, the
# loaded modules whose name starts with scipy
RUN_MODULE = ("import runpy, sys\n"
              "sys.argv = ['coveragekit', *sys.argv[1:]]\n"
              "try:\n"
              "    runpy.run_module('coveragekit', run_name='__main__', alter_sys=True)\n"
              "except SystemExit as e:\n"
              "    code = e.code\n"
              "else:\n"
              "    code = 0\n"
              "print('exit', code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")


def scipy_imports(tree: ast.AST) -> list[int]:
    """The lines of ``tree`` that import scipy or one of its modules."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_of_the_package_imports_scipy():
    found = {str(f.relative_to(ROOT)): lines for f in sorted(PACKAGE.rglob("*.py"))
             if (lines := scipy_imports(ast.parse(f.read_text(encoding="utf-8"))))}
    assert not found, f"scipy imported in {found}"


def test_the_scan_finds_every_scipy_import():
    module = ast.parse("import numpy\n"
                       "import scipy\n"
                       "def f():\n"
                       "    from scipy.spatial import ConvexHull\n"
                       "import scipy.spatial as sp\n"
                       "from . import scipy_free\n"
                       "from numpy import linalg\n")
    assert scipy_imports(module) == [2, 4, 5]


def test_build_map_and_render_on_the_hull_route_leave_scipy_unloaded(tmp_path):
    rng = random.Random(1)
    doc = {"model": "protocol", "window": {"x0": 0.0, "y0": 0.0, "x1": 100.0, "y1": 100.0},
           "transmitters": [{"x": rng.uniform(1.0, 99.0), "y": rng.uniform(1.0, 99.0),
                             "tx_radius": 0.7 * r, "int_radius": r}
                            for r in (rng.uniform(4.0, 12.0) for _ in range(64))]}
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(doc), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    for args in (["build-map", str(scen), "--out", str(tmp_path / "s.result.json")],
                 ["render", str(scen), "--svg", str(tmp_path / "s.svg")]):
        run = subprocess.run([sys.executable, "-c", RUN_MODULE, *args], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "exit 0 []", (args, run.stdout, run.stderr)
    manifest = json.loads((tmp_path / "s.manifest.json").read_text(encoding="utf-8"))
    assert manifest["stats"]["diagram_route"] == "hull"
    assert math.isfinite(json.loads((tmp_path / "s.result.json").read_text())["total_area"])
