"""Every module-level import is used by the module that makes it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list:
    """Names bound by `path`'s top-level imports that its code never reads.
    `__future__` imports are directives, not names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_unused_module_imports():
    # package __init__ files import to re-export
    modules = [p for d in ("src", "tests") for p in sorted((ROOT / d).rglob("*.py"))
               if p.name != "__init__.py"]
    assert len(modules) > 20
    found = {str(p.relative_to(ROOT)): names for p in modules
             if (names := unused_imports(p))}
    assert found == {}
