"""Checks on the package's source text."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flowenum"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, and invariants must survive it;
    # they raise InvariantError instead.
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_exports_are_the_readme_library_names():
    # The README's Library section imports every exported name in one block.
    import flowenum

    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("from flowenum import (", 1)[1].split(")", 1)[0]
    names = [name.strip() for name in block.replace("\n", ",").split(",") if name.strip()]
    assert sorted(flowenum.__all__) == sorted(names)
    assert len(names) == len(set(names)) == 10


def test_private_module_names_are_used_in_the_package():
    # A private function or constant that only tests still call belongs in
    # tests/helpers.py; one that nothing calls is dead.  Uses are matched to
    # the module that defines the name, so a namesake in another module
    # does not keep it alive.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    defined = []  # (module, name, first line, last line)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            defined.extend((module, name, node.lineno, node.end_lineno) for name in names
                           if name.startswith("_") and not name.startswith("__"))
    assert len(defined) > 10
    uses = set()  # (defining module, name, using module, line)
    for module, tree in trees.items():
        imported = {
            alias.asname or alias.name: (f"{node.module}.py", alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.add((*imported.get(node.id, (module, node.id)), module, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                uses.add((f"{node.value.id}.py", node.attr, module, node.lineno))
    unused = [
        f"{module}:{name}"
        for module, name, first, last in defined
        if not any(
            (source, used) == (module, name) and not (where == module and first <= line <= last)
            for source, used, where, line in uses
        )
    ]
    assert unused == []
