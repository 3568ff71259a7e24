"""The source tree has no dead private helper, and the README's library example runs."""

import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "localcheb"


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each private module-level name (_x, not a dunder) with the statement defining it."""
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        defined.update((name, stmt) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    return defined


def _referenced(node: ast.AST) -> str | None:
    """The name a node reads, as a name, an attribute or an import; None for any other node."""
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_every_private_module_level_name_is_referenced():
    # a refactor that removes a helper's last caller must remove the helper too;
    # a reference from inside the name's own definition does not count
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = _private_definitions(tree)
        defined.update((path.name, name) for name in own)
        for stmt in tree.body:
            mine = {name for name, s in own.items() if s is stmt}
            used.update(name for node in ast.walk(stmt)
                        if (name := _referenced(node)) is not None and name not in mine)
    assert len(defined) > 50
    dead = sorted(f"{module}:{name}" for module, name in defined if name not in used)
    assert not dead, dead


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for code in blocks:
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout
