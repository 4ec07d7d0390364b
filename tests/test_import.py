"""Importing the package stays cheap: it pulls in no process-pool machinery,
and no module other than ``__init__`` imports a name it never reads."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_process_pool():
    probe = ("import sys, sltkit; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def unread_imports(source: str) -> list[str]:
    """The names a module binds by import and never reads.  ``__future__``
    imports bind no name; ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in read]


def test_modules_read_every_name_they_import():
    unread = {path.name: unread_imports(path.read_text())
              for path in sorted((SRC / "sltkit").glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unread.items() if names} == {}


def test_unread_import_scan_finds_an_unread_name():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from typing import Optional, Sequence\nx: Optional[int] = os.sep\n")
    assert unread_imports(source) == ["line 3: Sequence"]
