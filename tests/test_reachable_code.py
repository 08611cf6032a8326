"""Code that no output needs stays out of ``src/``.

Every public top-level function or class of a ``coveragekit`` module
(package ``__init__`` files aside) must be referenced from code: in another
module of the package, in its own module outside its definition, or in the
acceptance suite.  Imports, ``__all__`` entries and docstrings do not count.
A helper only unit tests reach belongs in a test reference module.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coveragekit"

# Kept on purpose though no code of the package or acceptance suite uses them.
KEPT = {
    "is_covered": "the scalar SINR predicate, the benchmark's oracle for optimizer areas",
    "treap_delete": "part of the treap's documented API",
    "treap_of": "part of the treap's documented API",
}


def used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded or read as attributes in ``tree``, outside ``skip``."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreferenced() -> dict[str, str]:
    modules = {p: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(PACKAGE.rglob("*.py")) if p.name != "__init__.py"}
    acceptance = used_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(
        encoding="utf-8")))
    out = {}
    for path, tree in modules.items():
        elsewhere = acceptance.union(*(used_names(t) for p, t in modules.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in elsewhere and node.name not in used_names(tree, node):
                out[node.name] = str(path.relative_to(ROOT))
    return out


def test_every_public_name_in_src_is_reached_from_code():
    found = unreferenced()
    extra = {n: where for n, where in found.items() if n not in KEPT}
    assert not extra, f"referenced by no code of the package or acceptance suite: {extra}"
    stale = sorted(set(KEPT) - set(found))
    assert not stale, f"listed as kept but referenced now: {stale}"
