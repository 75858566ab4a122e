"""Every name that a module of sixff imports is read somewhere in that
module, by the standard-library `ast` alone: a name bound by an import and
never loaded is stale."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sixff"


def unused_imports(source):
    """(line, name) of each name that `source` imports and never reads.
    `import a.b` binds `a`; `from __future__` binds nothing.  A name read
    anywhere in the module counts, whatever its scope."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names
                      if a.name != "*"]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for line, name in bound if name not in read)


def test_the_check_flags_a_stale_import():
    assert unused_imports(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .fields import GF, QQ\n"
        "from .linalg import Matrix as M\n"
        "def f():\n"
        "    return QQ, os.sep\n") == [(3, "GF"), (4, "M")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    assert unused_imports(path.read_text()) == []
