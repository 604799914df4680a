"""List the lines of ``src/pietsp`` that no Tier-1 test reaches.

Runs the Tier-1 suite in this process under the standard library's
``trace`` module, counting lines only in ``src/pietsp``, then prints each
executable line that never ran as ``path:line: source`` and a total.
pytest does not collect this file (its name does not start with
``test_``).  From the repository root:

    PYTHONPATH=src python tests/unreached.py [extra pytest arguments]

The exit status is pytest's.  Lines run only inside a subprocess that a
test starts count as unreached, and tracing slows the suite several times,
so timing tests may fail under it; the lines they ran still count.
"""

from __future__ import annotations

import functools
import sys
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pietsp"


class OutsidePackage:
    """``trace``'s ignore test, by path.  Its own ``ignoredirs`` test caches by bare module name, so a
    ``data.py`` in an ignored directory would hide ``pietsp/data.py`` as well."""

    @functools.lru_cache(maxsize=None)
    def names(self, filename: str, modulename: str) -> bool:
        return not Path(filename).resolve().is_relative_to(PACKAGE)


def executable_lines(path: Path) -> set[int]:
    """Every line that starts an instruction of the module's code objects (docstrings start none)."""
    todo, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # line 0 is the module's entry
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = OutsidePackage()
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    reached = {(Path(f).resolve(), line) for f, line in tracer.results().counts}
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            if (path.resolve(), line) not in reached:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} unreached lines in {PACKAGE.relative_to(ROOT)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
