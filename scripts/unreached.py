"""List the library lines that the tests never run: per file of src/gieskit,
each line that holds bytecode (the co_lines of the module's code objects)
but never ran, then their total.

pytest runs in this process under a sys.settrace hook that follows only
the frames of src/gieskit, so nothing beyond the standard library and
pytest is needed. Every argument goes to pytest unchanged. Leave the
acceptance tests out: their time gates fail under tracing.

    PYTHONPATH=src python3 scripts/unreached.py -q -p no:cacheprovider \\
        --ignore tests/test_acceptance.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import CodeType
from typing import Callable

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gieskit"


def code_lines(code: CodeType) -> set[int]:
    """The lines that hold bytecode of code or of a code object within it
    (co_lines gives None, or a module's 0, for code of no source line)."""
    lines = {line for *_, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def unreached(run: Callable[[], object], package: Path) -> tuple[object, dict[str, list[int]]]:
    """Call run() with a line trace on the frames of the .py files under
    package. Returns what run returned and, per file (by path relative to
    package), the sorted lines that hold bytecode but never ran. Code that
    ran before the call (a module imported earlier) counts as never run."""
    files = {path: set() for path in sorted(package.resolve().rglob("*.py"))}
    ran: dict[str, set[int] | None] = {}  # by co_filename, None outside package

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ran:
            ran[name] = files.get(Path(name).resolve())
        lines = ran[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(outer)
    root = package.resolve()
    missed = {}
    for path, lines in files.items():
        code = compile(path.read_text(), str(path), "exec")
        missed[path.relative_to(root).as_posix()] = sorted(code_lines(code) - lines)
    return result, missed


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else list(argv)
    code, missed = unreached(lambda: pytest.main(args), PACKAGE)
    width = max(map(len, missed), default=0)
    for name, lines in missed.items():
        print(f"{name:<{width}}  {len(lines):>4}  {' '.join(map(str, lines))}".rstrip())
    print(f"{'total':<{width}}  {sum(map(len, missed.values())):>4}")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main())
