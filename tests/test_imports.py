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


# Top-level src/ names that no src/ code uses, each with why it stays.
UNUSED_IN_SRC = {
    "block_mask": "oracle for the alignment theorem (criterion 2)",
    "grad_check": "oracle for every hand-written backward",
    "softmax_lastaxis": "oracle for attention's softmax",
    "compute_coefficient": "training and eval take it up in ROADMAP item 2",
}


def _names(node: ast.AST) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_dense_is_the_only_caller_of_linear():
    # a linear layer is read by its weight's name through `dense`, which
    # names the bias; a direct `linear` call would spell the bias again
    callers = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            callers += [(path.name, getattr(node, "name", None)) for call in ast.walk(node)
                        if isinstance(call, ast.Call) and "linear" in _names(call.func)]
    assert callers == [("motion.py", "dense")]


def test_every_src_definition_has_a_src_user():
    # a name counts as used when src/ code other than its own definition
    # names it; imports and `__all__` strings are not names
    defined, used = set(), set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
                used |= _names(node) - {node.name}
            else:
                used |= _names(node)
    assert len(defined) > 50
    assert defined - used == set(UNUSED_IN_SRC)


def test_src_raises_no_assertion_error():
    # `cli.main` turns only ValueError, OSError, EOFError and
    # FloatingPointError into one `error:` line, and `python -O` strips
    # asserts, so a check in src/ raises one of those by name
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Raise) and node.exc is not None
                    and "AssertionError" in _names(node.exc)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_src_reads_no_environment_variable():
    # every input is a config key or a flag, which the run record holds; a
    # variable in the caller's environment would select behaviour unrecorded
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in readers or (
                    isinstance(node, ast.ImportFrom) and node.module == "os"
                    and readers & {alias.name for alias in node.names}):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
