"""Code that no output needs stays out of ``src/``.

Every public top-level function or class of a ``coveragekit`` module
(package ``__init__`` files aside), and every public method of a class
there, must be referenced from code: in another module of the package, in
its own module outside its definition, or in the acceptance suite.  Every
public ``property`` or ``cached_property`` of a class there must be read as
an attribute by some module of the package or by the acceptance suite.
Imports, ``__all__`` entries and docstrings do not count.  A helper only
unit tests reach belongs in a test reference module.

The scan goes by name, so a method is reached when any code names it: it
cannot tell one class's ``contains`` from another's.  So a public method or
property name that two classes of the package define must be listed, for
each class, in ``SHARED`` (or ``KEPT``) with the reason the class's own
definition is reached.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coveragekit"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# Kept on purpose though no code of the package or acceptance suite uses them.
KEPT = {
    "is_covered": "the scalar SINR predicate, the benchmark's oracle for optimizer areas",
    "render_svg": "the library's SVG of a coverage map or a capture raster as one string; "
                  "the CLI streams the same parts to a file",
    "treap_delete": "part of the treap's documented API",
    "treap_of": "part of the treap's documented API",
    "DynamicCoverage.check_invariants": "the lattice's invariants, for callers to check after updates",
    "Treap.check_invariants": "the treap's invariants, part of its documented API",
    "SinrScenario.with_powers": "the scenario at other powers, for the benchmark's area oracle",
}

# Properties kept on purpose though no code of the package or acceptance suite reads them.
KEPT_PROPERTIES: dict[str, str] = {}

# Public names that several classes define, each class's definition reached
# for the reason given (the name scan alone cannot tell them apart).
SHARED = {
    "Rect.height": "the window's height: the SVG canvas and the capture raster",
    "HalfSpace3.height": "a lifted plane's height: the walk, the carve and the climb",
    "CircularArc.start_point": "chain validation and the SVG walk every edge kind",
    "Segment.start_point": "chain validation and the SVG walk every edge kind",
    "CircularArc.end_point": "chain validation and the crossing test walk every edge kind",
    "Segment.end_point": "chain validation and the crossing test walk every edge kind",
    "CircularArc.length": "chain validation rejects short edges of either kind",
    "Segment.length": "chain validation rejects short edges of either kind",
    "OptResult.to_dict": "the optimize command's result file",
    "RunManifest.to_dict": "every command's manifest file",
    "UpdateReport.to_dict": "the dynamic command's per-op reports",
}

PROPERTY_DECORATORS = {"property", "cached_property"}


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


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


def attribute_reads(tree: ast.AST) -> set[str]:
    """Attribute names read (loaded, not stored or deleted) in ``tree``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def is_property(func: ast.FunctionDef) -> bool:
    return any((d.id if isinstance(d, ast.Name) else getattr(d, "attr", None))
               in PROPERTY_DECORATORS for d in func.decorator_list)


def public_properties(tree: ast.AST) -> list[tuple[str, str]]:
    """(``Class.name``, name) of each public property or cached_property
    of the top-level classes of ``tree``."""
    out = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef) or item.name.startswith("_"):
                continue
            if is_property(item):
                out.append((f"{cls.name}.{item.name}", item.name))
    return out


def unread_properties(modules: dict[str, ast.AST], readers: list[ast.AST]) -> dict[str, str]:
    """Public properties of ``modules`` (by label) that neither they nor
    ``readers`` read as an attribute."""
    read = set().union(*map(attribute_reads, [*modules.values(), *readers]))
    return {qual: label for label, tree in modules.items()
            for qual, name in public_properties(tree) if name not in read}


def public_definitions(tree: ast.AST) -> list[tuple[str, ast.AST]]:
    """(label, node) of each public top-level function or class of
    ``tree`` and of each public method (``Class.name``) of its classes,
    properties aside."""
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{node.name}.{item.name}", item) for item in node.body
                       if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                       and not is_property(item))
    return out


def unreferenced() -> dict[str, str]:
    modules = {p: parse(p) for p in sorted(PACKAGE.rglob("*.py")) if p.name != "__init__.py"}
    acceptance = used_names(parse(ACCEPTANCE))
    out = {}
    for path, tree in modules.items():
        elsewhere = acceptance.union(*(used_names(t) for p, t in modules.items() if p != path))
        for label, node in public_definitions(tree):
            if node.name not in elsewhere and node.name not in used_names(tree, node):
                out[label] = str(path.relative_to(ROOT))
    return out


def test_every_public_name_in_src_is_reached_from_code():
    found = unreferenced()
    extra = {n: where for n, where in found.items() if n not in KEPT}
    assert not extra, f"referenced by no code of the package or acceptance suite: {extra}"
    stale = sorted(set(KEPT) - set(found))
    assert not stale, f"listed as kept but referenced now: {stale}"


def shared_names(modules: list[ast.AST]) -> dict[str, list[str]]:
    """Each public method or property name that two or more top-level
    classes of ``modules`` define, with the ``Class.name`` labels."""
    by_name: dict[str, list[str]] = {}
    for tree in modules:
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for item in cls.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        by_name.setdefault(item.name, []).append(f"{cls.name}.{item.name}")
    return {name: sorted(labels) for name, labels in by_name.items() if len(labels) > 1}


def test_a_public_name_that_two_classes_define_is_listed_for_each():
    found = {label for labels in shared_names(
        [parse(p) for p in sorted(PACKAGE.rglob("*.py"))]).values() for label in labels}
    extra = sorted(found - SHARED.keys() - KEPT.keys())
    assert not extra, f"defined by two classes, so the name scan cannot tell them: {extra}"
    stale = sorted(SHARED.keys() - found)
    assert not stale, f"listed as shared but defined by one class now: {stale}"


def test_shared_names_are_found_across_modules():
    a = ast.parse("class Rect:\n    def area(self): ...\n    def _own(self): ...\n")
    b = ast.parse("class Polygon:\n    @property\n    def area(self): ...\n"
                  "    def _own(self): ...\n    def edges(self): ...\n")
    assert shared_names([a, b]) == {"area": ["Polygon.area", "Rect.area"]}


def test_every_public_property_in_src_is_read_from_code():
    modules = {str(p.relative_to(ROOT)): parse(p) for p in sorted(PACKAGE.rglob("*.py"))}
    assert any(public_properties(t) for t in modules.values())  # the scan sees some
    found = unread_properties(modules, [parse(ACCEPTANCE)])
    extra = {n: where for n, where in found.items() if n not in KEPT_PROPERTIES}
    assert not extra, f"read by no code of the package or acceptance suite: {extra}"
    stale = sorted(set(KEPT_PROPERTIES) - set(found))
    assert not stale, f"listed as kept but read now: {stale}"


def test_a_property_only_assigned_or_named_counts_as_unread():
    module = ast.parse(
        "import functools\n"
        "class Diagram:\n"
        "    @functools.cached_property\n"
        "    def frames(self): ...\n"
        "    @property\n"
        "    def cells(self): ...\n"
        "    @property\n"
        "    def _private(self): ...\n"
        "    def method(self): ...\n"
        "def draw(d):\n"
        "    d.frames = None\n"
        "    return frames, d.cells\n")
    assert unread_properties({"m.py": module}, []) == {"Diagram.frames": "m.py"}
    reader = ast.parse("def use(d):\n    return d.frames\n")
    assert unread_properties({"m.py": module}, [reader]) == {}


def test_public_methods_are_scanned_and_properties_are_not():
    module = ast.parse(
        "import functools\n"
        "class Diagram:\n"
        "    @functools.cached_property\n"
        "    def frames(self): ...\n"
        "    def cells(self): ...\n"
        "    def _private(self): ...\n"
        "def draw(d): ...\n")
    assert [label for label, _ in public_definitions(module)] == [
        "Diagram", "Diagram.cells", "draw"]
