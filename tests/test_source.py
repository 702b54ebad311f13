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
