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


# the top of the import order: each may import only those before it here,
# and every other module none of them
UPPER = ["ldp", "acceptance", "cli"]


def _relative_imports(path: Path) -> set[str]:
    """The package modules (or names) a module imports with ``from .``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_sim_imports_only_topology_and_piecewise():
    # sim owns the rare event and its hit counter, so it needs no ldp
    sim = next(p for p in MODULES if p.stem == "sim")
    assert _relative_imports(sim) == {"topology", "piecewise"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"],
                         ids=lambda p: p.name)
def test_no_module_imports_a_layer_above_it(path):
    above = UPPER[UPPER.index(path.stem) + 1:] if path.stem in UPPER else UPPER
    assert _relative_imports(path) & set(above) == set()
