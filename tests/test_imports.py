"""Every name a package module imports is used in that module.

No linter runs over the package, and a deletion tends to leave the import
of what it deleted behind.  ``__init__`` is left out: its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "infogeo"


def _unused_imports(tree) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import math\nimport numpy as np\nfrom .a import b, c as d\n"
                     "from __future__ import annotations\nx = np.pi + d\n")
    assert _unused_imports(tree) == ["b (line 3)", "math (line 1)"]
