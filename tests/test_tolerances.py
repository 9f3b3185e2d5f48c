"""Every small tolerance in the package is a named, read constant.

A ``1e-N`` literal must sit alone on a module-level ``NAME = 1e-N`` line,
so each tolerance has one name to grep for, and each such name must be
read somewhere in the package, so no tolerance outlives its last use.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import bulkflow

PACKAGE = Path(bulkflow.__file__).parent
SMALL_LITERAL = re.compile(r"^[0-9.]+[eE]-[0-9]+$")
NAMED = re.compile(r"^([A-Z][A-Z0-9_]*) = ([0-9.]+[eE]-[0-9]+)\s*(#.*)?$")


def _sources():
    return {path.name: path.read_text()
            for path in sorted(PACKAGE.glob("*.py"))}


def tolerance_findings(sources):
    """(misplaced literals, unread names) over ``{file name: source}``."""
    misplaced, defined, read = [], {}, set()
    for name, text in sources.items():
        lines = text.splitlines()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NUMBER and SMALL_LITERAL.match(tok.string):
                row = tok.start[0]
                match = NAMED.match(lines[row - 1])
                if match is None:
                    misplaced.append(f"{name}:{row}: {lines[row - 1].strip()}")
                else:
                    defined[match.group(1)] = f"{name}:{row}"
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(f"{where}: {const}" for const, where in defined.items()
                    if const not in read)
    return misplaced, unread


def test_small_literals_are_named_and_read():
    misplaced, unread = tolerance_findings(_sources())
    assert misplaced == [], "unnamed tolerance literals"
    assert unread == [], "tolerance constants nothing reads"


def test_checker_flags_both_rules():
    misplaced, unread = tolerance_findings({
        "a.py": "USED = 1e-9\nUNUSED = 1e-12\n"
                "def f(x):\n    return x <= USED or x < 1e-15\n"})
    assert misplaced == ["a.py:4: return x <= USED or x < 1e-15"]
    assert unread == ["a.py:2: UNUSED"]
