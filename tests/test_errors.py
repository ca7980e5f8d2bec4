"""Every error the package raises by name is a typed `CrowdregError`."""

import ast
from pathlib import Path

from crowdreg import errors

SRC = Path(errors.__file__).parent


def raised_names():
    """(file, line, name) of every `raise Name(...)` in the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name):
                yield path.name, node.lineno, node.exc.func.id


def test_every_named_raise_is_a_crowdreg_error():
    found = list(raised_names())
    assert found
    typed = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.CrowdregError)}
    untyped = [(name, line, exc) for name, line, exc in found if exc not in typed]
    assert untyped == []
