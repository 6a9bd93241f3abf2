import ast
from pathlib import Path

import pytest

import jsqldp

MODULES = sorted(Path(jsqldp.__file__).parent.glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in jsqldp.__all__ if not hasattr(jsqldp, name)]
    assert missing == []
    assert len(set(jsqldp.__all__)) == len(jsqldp.__all__)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; re-exports in ``__all__`` count
    as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_unused_import_check_finds_one():
    source = "from .rate import DomainLabel, classify_domain, local_rate\n" \
             "import numpy as np\nlabel: DomainLabel = local_rate(np.zeros(1))\n"
    assert _unused_imports(source) == ["classify_domain (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text()) == []
