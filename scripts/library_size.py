"""Count the code lines of the library: the non-blank lines of each file of
src/gieskit that are neither comments nor docstrings, and their total.

A line counts if a token other than a comment starts on it or runs over it,
so a multi-line string that is not a docstring counts in full. A docstring
is the string statement that opens a module, class or function body, as
ast finds it.

    python3 scripts/library_size.py [PACKAGE_DIR]
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gieskit"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of non-blank lines of source that are neither comments
    nor docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def sizes(package: Path) -> dict[str, int]:
    """Code lines per .py file under package, by path relative to it."""
    return {
        path.relative_to(package).as_posix(): code_lines(path.read_text())
        for path in sorted(package.rglob("*.py"))
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    args = ap.parse_args(argv)
    counts = sizes(args.package)
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>6}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
