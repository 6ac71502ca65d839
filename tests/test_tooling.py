import ast
from pathlib import Path

import botguard

PACKAGE_DIR = Path(botguard.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a safety check written as one
    # silently disappears; the package must raise explicitly instead
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
