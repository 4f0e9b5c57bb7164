"""Checks on the package source itself."""

import ast
from pathlib import Path

import unstretch

PACKAGE = Path(unstretch.__file__).parent


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a library check written as
    # one silently disappears; checks must raise package errors instead.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
