"""No process-wide mutable state in ``src/``.

A ``coveragekit`` module must not bind a mutable container (a list, dict,
set or array display, comprehension or constructor call) at module or
class level, where every caller in the process shares it, and must not
wrap a function in a cache (``functools.lru_cache`` or ``functools.cache``),
whose entries outlive the call that made them.  State belongs to the
object that a caller builds and owns: an evaluator's counters, a map's
stats.  Each exception is listed in ``ALLOWED`` with its reason, by name
(any module) or as ``module.name``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coveragekit"

ALLOWED = {
    "__all__": "a package's export list: written once at import, read by star imports",
}

MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter",
                 "deque", "array", "zeros", "ones", "empty", "full", "arange"}
CACHES = {"lru_cache", "cache"}


def called_name(node: ast.AST) -> str | None:
    """The name a call or decorator ``node`` goes by: ``f`` for ``f``,
    ``m.f``, ``f(...)`` or ``m.f(...)(...)``."""
    while isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def is_mutable(value: ast.AST) -> bool:
    if isinstance(value, ast.Tuple):
        return any(map(is_mutable, value.elts))
    if isinstance(value, MUTABLE_DISPLAYS):
        return True
    return isinstance(value, ast.Call) and called_name(value) in MUTABLE_CALLS | CACHES


def mutable_bindings(target: ast.AST, value: ast.AST) -> list[str]:
    """The names ``target = value`` binds to a mutable container, pairing
    the items of a tuple target with those of a tuple value."""
    if isinstance(target, (ast.Tuple, ast.List)):
        if isinstance(value, ast.Tuple) and len(value.elts) == len(target.elts):
            return [n for t, v in zip(target.elts, value.elts) for n in mutable_bindings(t, v)]
        return [n for t in target.elts for n in mutable_bindings(t, value)]
    return [target.id] if isinstance(target, ast.Name) and is_mutable(value) else []


def shared_state(tree: ast.AST) -> list[str]:
    """Names in ``tree`` bound to a mutable container at module or class
    level (``Class.name`` for a class), and functions anywhere wrapped in a
    cache."""
    out = []

    def scan(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                scan(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.Try, ast.With)):
                scan([*node.body, *getattr(node, "orelse", []), *getattr(node, "finalbody", []),
                      *(s for h in getattr(node, "handlers", []) for s in h.body)], prefix)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out.extend(prefix + n for t in targets for n in mutable_bindings(t, node.value))
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                out.append(prefix + node.target.id)  # a module-level update

    scan(tree.body, "")
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                any(called_name(d) in CACHES for d in node.decorator_list):
            out.append(node.name)
    return out


def found() -> dict[str, str]:
    """``module.name`` of each binding ``shared_state`` finds in the package."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for name in shared_state(ast.parse(path.read_text(encoding="utf-8"))):
            out[f"{module}.{name}"] = name
    return out


def test_no_module_binds_process_wide_mutable_state():
    bindings = found()
    extra = sorted(label for label, name in bindings.items()
                   if label not in ALLOWED and name not in ALLOWED)
    assert not extra, f"process-wide mutable state: {extra}"
    seen = set(bindings) | set(bindings.values())
    stale = sorted(set(ALLOWED) - seen)
    assert not stale, f"allowed but no longer bound: {stale}"


def test_the_scan_finds_containers_and_caches_and_passes_values():
    module = ast.parse(
        "import functools\n"
        "import numpy as np\n"
        "COUNTS = {'a': 0}\n"
        "NAMES: list = []\n"
        "A, B = (), set()\n"
        "GRID = np.zeros(4)\n"
        "PALETTE = ('#fff', '#000')\n"
        "LIMIT = 2 ** 10\n"
        "fmt = '{:.6f}'.format\n"
        "class Plan:\n"
        "    seen = []\n"
        "    kind: str = 'grid'\n"
        "@functools.lru_cache(maxsize=1)\n"
        "def rows(n): ...\n"
        "@functools.cache\n"
        "def other(n): ...\n"
        "memo = functools.lru_cache(None)(len)\n"
        "def local():\n"
        "    scratch = []\n"
        "    return scratch\n")
    assert sorted(shared_state(module)) == sorted(
        ["COUNTS", "NAMES", "B", "GRID", "Plan.seen", "memo", "rows", "other"])
