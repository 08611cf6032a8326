"""One function in ``cli_io`` writes files.

Every file a CLI run writes (results, manifests, CSVs and SVGs) goes
through ``cli_io._write``, which stages them all and moves them into place
together, so a run that fails writes none.  This test keeps a second write
path from coming back: in ``cli_io``, only ``_write`` may call ``open`` or
``.open(...)`` in a write mode, ``write_text`` or ``write_bytes``.  Opening
a file to read it (the input) stays allowed anywhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_IO = ROOT / "src" / "coveragekit" / "cli_io.py"

WRITERS = {"_write"}
WRITE_CALLS = {"write_text", "write_bytes"}


def _opens_for_writing(call: ast.Call) -> bool:
    """An ``open(file, mode)`` or ``path.open(mode)`` call whose mode may
    write: a literal holding w, a, x or +, or a mode that is not a literal."""
    at = 0 if isinstance(call.func, ast.Attribute) else 1
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[at] if len(call.args) > at else None)
    if mode is None:
        return False  # the default mode, "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return True


def _call_name(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def writing_functions(tree: ast.AST) -> dict[str, int]:
    """The functions of ``tree`` (``<module>`` for module level) that open
    a file for writing or write one, with the line of their first such call."""
    out: dict[str, int] = {}

    def scan(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, child.name)
                continue
            if isinstance(child, ast.Call):
                name = _call_name(child)
                if name in WRITE_CALLS or (name == "open" and _opens_for_writing(child)):
                    out.setdefault(owner, child.lineno)
            scan(child, owner)

    scan(tree, "<module>")
    return out


def test_only_write_writes_files_in_cli_io():
    found = writing_functions(ast.parse(CLI_IO.read_text(encoding="utf-8")))
    assert set(found) == WRITERS, f"file writes outside {sorted(WRITERS)}: {found}"


def test_the_scan_finds_every_write_and_passes_reads():
    module = ast.parse(
        "from pathlib import Path\n"
        "def reads(p):\n"
        "    Path(p).read_bytes()\n"
        "    open(p).read()\n"
        "    open(p, 'rb').read()\n"
        "    Path(p).open(encoding='utf-8').read()\n"
        "    Path(p).open('r').read()\n"
        "def builtin(p):\n"
        "    open(p, 'w')\n"
        "def keyword(p):\n"
        "    open(p, mode='ab')\n"
        "def method(p):\n"
        "    Path(p).open('x', encoding='utf-8')\n"
        "def plus(p):\n"
        "    Path(p).open('r+')\n"
        "def unknown(p, m):\n"
        "    open(p, m)\n"
        "def text(p):\n"
        "    Path(p).write_text('x')\n"
        "def outer(p):\n"
        "    def inner():\n"
        "        Path(p).write_bytes(b'x')\n"
        "    return inner\n"
        "Path('log').write_text('x')\n")
    assert sorted(writing_functions(module)) == sorted(
        ["builtin", "keyword", "method", "plus", "unknown", "text", "inner", "<module>"])
