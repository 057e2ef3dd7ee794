"""Every module-level function, class and assigned name of the package, and
every method and property of its classes, is referenced somewhere in the
package or its scripts, outside its own definition: code with no caller
outside its own test is deleted.

A reference is a loaded Name, an Attribute or an import alias, read off the
syntax trees with `ast`; a method or property is matched by its attribute
name, the way module-level names are.  Dunder names such as `__all__` and
`__eq__` are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "invlat"
SCRIPTS = ROOT / "scripts"


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


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


def _referenced_names(node):
    """The names a syntax tree references, each with its number of references."""
    out = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            out[child.id] += 1
        elif isinstance(child, ast.Attribute):
            out[child.attr] += 1
        elif isinstance(child, ast.alias):
            out[child.name.rsplit(".", 1)[-1]] += 1
            if child.asname:
                out[child.asname] += 1
    return out


def _statements():
    """(path, statement, names it defines, names it references) for every
    module-level statement of the package and the scripts."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    out = []
    for path in modules + sorted(SCRIPTS.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            out.append(
                (path, statement, _defined_names(statement), _referenced_names(statement))
            )
    return out


def test_every_module_level_name_has_a_caller():
    statements = _statements()
    dead = []
    for path, statement, names, _ in statements:
        if path.parent != PACKAGE:
            continue
        for name in names:
            if _is_dunder(name):
                continue
            if not any(name in refs for _, other, _, refs in statements if other is not statement):
                dead.append(f"{path.name}:{statement.lineno} {name}")
    assert dead == []


def test_every_method_and_property_has_a_caller():
    statements = _statements()
    total = sum((refs for _, _, _, refs in statements), Counter())
    methods = 0
    dead = []
    for path, statement, _, _ in statements:
        if path.parent != PACKAGE or not isinstance(statement, ast.ClassDef):
            continue
        for node in statement.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _is_dunder(node.name):
                continue
            methods += 1
            if total[node.name] <= _referenced_names(node)[node.name]:
                dead.append(f"{path.name}:{node.lineno} {statement.name}.{node.name}")
    assert methods > 50
    assert dead == []
