"""Every public name of the package has a caller in a pipeline: the package
itself or pipebench, not only the tests. A function, class or method is
named there outside its own definition, a dataclass field is read there as
an attribute, and a module constant is loaded, read as an attribute or
imported there. No types are resolved: a read of `.x` counts for every
field `x`."""

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
    "CertVote.tag",  # written by pipebench's certificates; ROADMAP item 5 deletes the field
    "CertVote.signed_bytes",  # written by pipebench's certificates; ROADMAP item 5 deletes the field
    "GlobalDag.edges",  # checked by the union tests; ROADMAP item 8(b) deletes `GlobalDag`
    "AdjudicationVerdict.detail",  # the ruling's reason, read by people
    "U_TABLE",  # the SQL table of a regulation's reading, against which the tests run `to_sql`
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


def fields(tree):
    """(class, field) of every public field of the top-level dataclasses of
    `tree`."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any("dataclass" in named(d) for d in node.decorator_list):
            for member in node.body:
                if isinstance(member, ast.AnnAssign) and not member.target.id.startswith("_"):
                    yield node.name, member.target.id


def constants(tree):
    """Every public name that `tree` assigns at module level."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in ast.walk(node):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store) and not name.id.startswith("_"):
                    yield name.id


def named(tree):
    """Every name that `tree` reads as an `ast.Name` or an `ast.Attribute`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def loaded(trees):
    """Counters of the names that `trees` read as an `ast.Attribute`, and of
    those they load as an `ast.Name` or import from a module."""
    attributes, loads = Counter(), Counter()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes[node.attr] += 1
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads[node.id] += 1
        elif isinstance(node, ast.ImportFrom):
            loads.update(alias.name for alias in node.names)
    return attributes, loads


def uncalled():
    """The public names of the package that nothing in it, outside their own
    definitions, and nothing in pipebench's non-test modules uses; a field
    as `Class.field`."""
    package = list(parsed(sorted(SRC.glob("*.py"))))
    pipeline = package + list(parsed(p for p in sorted(PIPEBENCH.glob("*.py")) if not p.name.startswith("test_")))
    reads = Counter(name for tree in pipeline for name in named(tree))
    attributes, loads = loaded(pipeline)
    return {
        name for tree in package for name, node in definitions(tree)
        if reads[name] == Counter(named(node))[name]
    } | {
        f"{cls}.{name}" for tree in package for cls, name in fields(tree) if not attributes[name]
    } | {
        name for tree in package for name in constants(tree) if not attributes[name] + loads[name]
    }


def test_every_public_name_has_a_pipeline_caller():
    assert uncalled() - ALLOWED == set()


def test_every_allowed_name_still_needs_its_place():
    assert ALLOWED <= uncalled()
