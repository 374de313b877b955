import ast
from pathlib import Path

import hanlink


def test_no_assert_statements_in_package():
    """`python -O` strips asserts, so invariants must raise explicitly."""
    offenders = []
    for path in sorted(Path(hanlink.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []
