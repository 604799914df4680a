"""Count the code lines of each ``src/pietsp`` module.

A code line is a line that holds at least one token outside comments and
docstrings; blank lines, comment lines and docstring lines do not count,
and a statement that spans several lines counts each line that holds one
of its tokens.  pytest does not collect this file (its name does not
start with ``test_``).  From the repository root:

    python tests/code_lines.py [--base REV]

It prints one ``count path`` line per module, then the total.  With
``--base REV`` it reads each module as it is at the git revision ``REV``
too (``git show``) and prints ``before after delta path`` lines; a module
missing on one side counts 0 there.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pietsp"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE and not (tok.type == tokenize.STRING and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def git(*args: str) -> str:
    """The output of ``git args``; a failure exits with git's own message."""
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout


def base_counts(rev: str) -> dict[str, int]:
    """Code lines of each ``src/pietsp`` module at the git revision ``rev``, by path."""
    package = PACKAGE.relative_to(ROOT).as_posix()
    paths = [p for p in git("ls-tree", "--name-only", f"{rev}:{package}").split() if p.endswith(".py")]
    return {f"{package}/{p}": code_lines(git("show", f"{rev}:{package}/{p}")) for p in paths}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of each src/pietsp module.")
    parser.add_argument("--base", metavar="REV", help="also count each module at this git revision")
    args = parser.parse_args(argv)
    after = {path.relative_to(ROOT).as_posix(): code_lines(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    if args.base is None:
        for path, count in after.items():
            print(f"{count:5d} {path}")
        print(f"{sum(after.values()):5d} total")
        return 0
    before = base_counts(args.base)
    print(f"{'before':>6} {'after':>6} {'delta':>6}")
    for path in sorted(before.keys() | after.keys()):
        a, b = before.get(path, 0), after.get(path, 0)
        print(f"{a:6d} {b:6d} {b - a:+6d} {path}")
    a, b = sum(before.values()), sum(after.values())
    print(f"{a:6d} {b:6d} {b - a:+6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
