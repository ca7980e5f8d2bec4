"""Every error the package raises by name is a typed `CrowdregError`, and
every `CrowdregError` subclass is constructed somewhere in the package."""

import ast
from pathlib import Path

from crowdreg import errors

SRC = Path(errors.__file__).parent
TYPED = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.CrowdregError)}


def parsed():
    """(file name, syntax tree) of every module of the package."""
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def raised_names():
    """(file, line, name) of every `raise Name(...)` in the package."""
    for name, tree in parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name):
                yield name, node.lineno, node.exc.func.id


def constructed_names():
    """The name of everything the package calls, `Name(...)` or
    `module.Name(...)`, or raises bare, `raise Name`."""
    for _, tree in parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    yield func.id
                elif isinstance(func, ast.Attribute):
                    yield func.attr
            elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Name):
                yield node.exc.id


def test_every_named_raise_is_a_crowdreg_error():
    found = list(raised_names())
    assert found
    untyped = [(name, line, exc) for name, line, exc in found if exc not in TYPED]
    assert untyped == []


def test_every_error_class_is_constructed():
    """Raised or returned: `LedgerView.refusal` returns the errors that
    `append_block` raises."""
    assert TYPED - {"CrowdregError"} - set(constructed_names()) == set()
