import ast
import types
from pathlib import Path

import hppca


def test_every_public_name_resolves_and_none_is_a_module():
    namespace = {}
    exec("from hppca import *", namespace)  # raises if a name in __all__ is missing
    for name in hppca.__all__:
        assert not isinstance(namespace[name], types.ModuleType), name


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; in __init__.py the public names
    are re-exports, so only its private imports count."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    if path.name == "__init__.py":
        imported = {name for name in imported if name.startswith("_")}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_does_not_use():
    sources = sorted(Path(hppca.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    unused = {path.name: _unused_imports(path) for path in sources}
    assert {name: names for name, names in unused.items() if names} == {}
