"""Every module-level function, class and assigned name of the package is
referenced somewhere in the package or its scripts, outside its own
definition: code with no caller outside its own test is deleted.

A reference is a loaded Name, an Attribute or an import alias, read off the
syntax trees with `ast`; dunder names such as `__all__` are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "invlat"
SCRIPTS = ROOT / "scripts"


def _defined_names(statement):
    """The names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        targets = [statement.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced_names(statement):
    """The names a statement references."""
    out = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
            if node.asname:
                out.add(node.asname)
    return out


def test_every_module_level_name_has_a_caller():
    modules = sorted(PACKAGE.glob("*.py"))
    statements = []  # (path, statement, names it defines, names it references)
    for path in modules + sorted(SCRIPTS.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append(
                (path, statement, _defined_names(statement), _referenced_names(statement))
            )
    assert len(modules) > 10
    dead = []
    for path, statement, names, _ in statements:
        if path.parent != PACKAGE:
            continue
        for name in names:
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(name in refs for _, other, _, refs in statements if other is not statement):
                dead.append(f"{path.name}:{statement.lineno} {name}")
    assert dead == []
