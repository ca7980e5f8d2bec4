"""Every public name of the package has a caller in a pipeline: the package
itself or pipebench, not only the tests."""

import ast
from collections import Counter
from pathlib import Path

import crowdreg

SRC = Path(crowdreg.__file__).parent
PIPEBENCH = SRC.parent.parent / "pipebench"

ALLOWED = {
    "Deployment",  # the package's entry point: `crowdreg.deployment` builds and runs a deployment from it
    "to_sql",  # the SQL reading of a regulation, against which the tests check what the tokens enforce
    "vpriv_msg",  # the message of an RA binding, against which the tests verify the bindings `generate` issues
}


def parsed(paths):
    """The syntax tree of every file of `paths`."""
    for path in paths:
        yield ast.parse(path.read_text(), str(path))


def definitions(tree):
    """(name, node) of every public top-level function and class of `tree`,
    and of every public method of its top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield member.name, member


def named(tree):
    """Every name that `tree` reads as an `ast.Name` or an `ast.Attribute`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def uncalled():
    """The public names of the package that nothing in it, outside their own
    definitions, and nothing in pipebench names."""
    package = list(parsed(sorted(SRC.glob("*.py"))))
    reads = Counter(name for tree in package for name in named(tree))
    for tree in parsed(p for p in sorted(PIPEBENCH.glob("*.py")) if not p.name.startswith("test_")):
        reads.update(named(tree))
    return {
        name for tree in package for name, node in definitions(tree)
        if reads[name] == Counter(named(node))[name]
    }


def test_every_public_name_has_a_pipeline_caller():
    assert uncalled() - ALLOWED == set()


def test_every_allowed_name_still_needs_its_place():
    assert ALLOWED <= uncalled()
