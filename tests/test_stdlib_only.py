"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import randelsim

PACKAGE = Path(randelsim.__file__).resolve().parent


def imported_top_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_is_stdlib_or_randelsim():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"randelsim"}
    foreign = {f"{path.name}: {name}" for path in sources
               for name in imported_top_level_names(path) - allowed}
    assert not foreign
