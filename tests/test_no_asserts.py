"""The package holds no ``assert`` statement.

``python -O`` strips ``assert`` statements, so a check written as one stops
guarding the numbers a run reports. Every check in the package is an
explicit raise instead; this rule keeps it so.
"""

import ast
from pathlib import Path

import bulkflow

PACKAGE = Path(bulkflow.__file__).parent


def assert_statements(sources):
    """``file:line`` of every ``assert`` statement in ``{file name: source}``."""
    return [f"{name}:{node.lineno}"
            for name, text in sources.items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Assert)]


def test_package_has_no_assert_statements():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 10
    assert assert_statements(sources) == []


def test_checker_flags_an_assert_statement():
    found = assert_statements({
        "a.py": "def f(x):\n    if x < 0:\n        raise AssertionError(x)\n"
                "    assert x <= 1, 'x above 1'\n    return x\n"
                "# assert in a comment\nNOTE = 'assert x'\n"})
    assert found == ["a.py:4"]
