"""Every module-level import in the package is used, or is kept on purpose.

An import no code in its module reads is dead, except where the benchmark's
tracer wraps the name as that module binds it; such imports carry MARKER on
their line, and the marked name must be one of the tracer's bindings.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "solenoidlab"
MARKER = "# noqa: F401 - perfbench/layers.py wraps this name"


def _bindings() -> set[tuple[str, str]]:
    """(module, name) pairs of perfbench/layers.py BINDINGS, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets
        ):
            return {(e.elts[0].value, e.elts[1].value) for e in node.value.elts}
    raise AssertionError("perfbench/layers.py defines no BINDINGS")


def _module_imports(tree: ast.Module):
    """(bound name, line number) of every module-level import but __future__."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, alias.lineno


def test_module_imports_are_used_or_marked():
    bindings = _bindings()
    unused, unbound = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for name, lineno in _module_imports(tree):
            if MARKER in lines[lineno - 1]:
                if (path.stem, name) not in bindings:
                    unbound.append(f"{path.stem}.{name}")
            elif name not in read:
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"unused imports: {unused}"
    assert not unbound, f"marked imports that perfbench/layers.py does not wrap: {unbound}"
