"""Checks on the package's source text."""

import ast
import contextlib
import io
import json
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flowenum"
README = PACKAGE.parents[1] / "README.md"


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

    readme = README.read_text(encoding="utf-8")
    block = readme.split("from flowenum import (", 1)[1].split(")", 1)[0]
    names = [name.strip() for name in block.replace("\n", ",").split(",") if name.strip()]
    assert sorted(flowenum.__all__) == sorted(names)
    assert len(names) == len(set(names)) == 10


def test_readme_library_snippet_runs():
    # The whole snippet, so its documented calls cannot drift from the library.
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    snippet = library.split("```python\n", 1)[1].split("```", 1)[0]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(snippet, "README.md", "exec"), {})
    assert printed.getvalue() == "1 <= F <= 1\n"


def test_readme_cli_example_matches_a_run(tmp_path):
    # The README's `demo.min` through `kbest demo.min 2` prints its output block:
    # the flow lines byte for byte, the summary's leading fields in order.
    from flowenum.cli import run

    readme = README.read_text(encoding="utf-8")
    demo = readme.split("Example (`demo.min`):\n\n```\n", 1)[1].split("```", 1)[0]
    shown = readme.split("single summary object:\n\n```\n", 1)[1].split("```", 1)[0].splitlines()
    path = tmp_path / "demo.min"
    path.write_text(demo, encoding="utf-8")
    out = io.StringIO()
    assert run(["kbest", str(path), "2"], stdout=out, stderr=io.StringIO()) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == len(shown) == 3
    assert lines[:2] == shown[:2]
    expected = [(key, json.loads(value)) for key, value in re.findall(r'"(\w+)": ([^,}]+)', shown[2])]
    summary = list(json.loads(lines[2]).items())[:len(expected)]
    assert [key for key, _ in expected] == ["command", "nodes", "arcs", "elapsed_ms", "count"]
    assert [key for key, _ in summary] == [key for key, _ in expected]
    assert [pair for pair in summary if pair[0] != "elapsed_ms"] == [
        pair for pair in expected if pair[0] != "elapsed_ms"]


def _module_names():
    """Every module-level name the package defines, and whether code outside its definition uses it.

    Yields (module, name, used): uses are matched to the module that defines
    the name, so a namesake in another module does not count, and a use
    inside the name's own definition does not either."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    defined = []  # (module, name, first line, last line)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            defined.extend((module, name, node.lineno, node.end_lineno) for name in names
                           if not name.startswith("__"))
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
    for module, name, first, last in defined:
        yield module, name, any(
            (source, used) == (module, name) and not (where == module and first <= line <= last)
            for source, used, where, line in uses
        )


def test_private_module_names_are_used_in_the_package():
    # A private function or constant that only tests still call belongs in
    # tests/helpers.py; one that nothing calls is dead.
    private = [(module, name, used) for module, name, used in _module_names() if name.startswith("_")]
    assert len(private) > 10
    assert [f"{module}:{name}" for module, name, used in private if not used] == []


def test_public_module_names_have_a_caller_or_a_reader():
    # A public name is exported, used by the package, documented in the README
    # or imported by the acceptance battery; one that only other tests call
    # belongs in tests/helpers.py, or the tests can call the kernel it wraps.
    import flowenum

    readme = README.read_text(encoding="utf-8")
    acceptance = ast.parse((PACKAGE.parents[1] / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    accepted = {
        (f"{node.module.removeprefix('flowenum.')}.py", alias.name)
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("flowenum.")
        for alias in node.names
    }
    public = [(module, name, used) for module, name, used in _module_names() if not name.startswith("_")]
    assert len(public) > 20
    unread = [
        f"{module}:{name}"
        for module, name, used in public
        if not (used or name in flowenum.__all__ or (module, name) in accepted
                or re.search(rf"\b{name}\b", readme))
    ]
    assert unread == []
