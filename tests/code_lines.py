"""Count the code lines of each module of `src/crowdreg`.

A code line holds at least one token that is not part of a docstring, a
comment or a blank line; a token that spans lines, such as a multi-line
string, holds each of them. Docstrings are the string statements that open
a module, class or function. Stdlib only, and not collected by pytest.

    python tests/code_lines.py [source directory]

The directory defaults to this repository's `src/crowdreg`. It prints one
line per module, then the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set:
    """The lines of every docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    docs = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(root: Path) -> None:
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "crowdreg")
