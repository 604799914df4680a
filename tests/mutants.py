"""Mutation check: each mutant breaks one guard, and the tests written for that guard must fail.

pytest does not collect this file (its name does not start with ``test_``).
From the repository root:

    python tests/mutants.py

It copies ``src/``, ``tests/`` and ``pyproject.toml`` into
``.bench_work/mutants/`` and first runs every test the table names on the
unchanged copy, which must pass.  Then it applies each mutant of ``MUTANTS``
in turn: the mutant's old text must occur exactly once in its file, and
each test it names must fail, a test id without a ``[case]`` failing when
any of its cases does.  Each mutant prints one line,
``killed``, ``survived`` (naming the tests that still pass) or ``stale
anchor``; the exit status is 1 if any mutant survived or has a stale anchor.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work" / "mutants"


class Mutant(NamedTuple):
    name: str
    path: str        # relative to the repository root
    old: str         # must occur exactly once in ``path``
    new: str
    tests: tuple[str, ...]  # pytest ids, each expected to fail


ALIKE = "tests/test_train.py::test_config_evaluate_and_eval_k_refuse_a_bad_k_list_alike"
EMPTY_ITEM = "tests/test_cli.py::test_an_empty_item_of_a_list_flag_is_refused_before_any_file_is_read"

MUTANTS = [
    Mutant("repeated k accepted", "src/pietsp/train.py", "    if repeated:\n", "    if False:\n",
           ("tests/test_train.py::test_config_and_evaluate_refuse_a_repeated_k_naming_it", f"{ALIKE}[repeat]",
            "tests/test_cli.py::test_a_repeated_k_is_refused_before_any_file_is_written")),
    Mutant("k below 1 accepted", "src/pietsp/train.py", "_is_a(k, Integral) and k >= 1 for k in k_list",
           "_is_a(k, Integral) for k in k_list",
           ("tests/test_train.py::test_config_rejects_k_below_one_or_no_k",
            "tests/test_train.py::test_evaluate_rejects_k_below_one", f"{ALIKE}[zero]", f"{ALIKE}[negative]",
            "tests/test_train.py::test_evaluate_refuses_a_bad_k_list_before_any_engine_call",
            "tests/test_cli.py::test_a_rank_count_below_one_is_refused_before_anything_loads[k-0]")),
    Mutant("bool accepted as k", "src/pietsp/train.py", "all(_is_a(k, Integral) and k >= 1",
           "all(isinstance(k, Integral) and k >= 1",
           ("tests/test_train.py::test_evaluate_refuses_a_k_that_is_not_an_integer_naming_it[True]",
            f"{ALIKE}[bool]")),
    Mutant("0-d array accepted as a k list", "src/pietsp/train.py", 'and getattr(k_list, "ndim", 1) == 1 ', "",
           (f"{ALIKE}[0-d-array]",)),
    Mutant("evaluate leaves its k list unchecked", "src/pietsp/train.py",
           'k_list = checked_k_list(k_list, "evaluate")', "k_list = tuple(k_list)",
           ("tests/test_train.py::test_evaluate_refuses_a_bad_k_list_before_any_engine_call", f"{ALIKE}[repeat]")),
    Mutant("empty item of an int list dropped", "src/pietsp/cli.py", 'tuple(int(item) for item in text.split(","))',
           'tuple(int(item) for item in text.split(",") if item.strip())',
           (f"{EMPTY_ITEM}[eval-k]", f"{EMPTY_ITEM}[train-k]", f"{EMPTY_ITEM}[bench-grid]")),
    Mutant("empty item of a float list dropped", "src/pietsp/cli.py",
           'tuple(float(item) for item in text.split(","))',
           'tuple(float(item) for item in text.split(",") if item.strip())',
           (f"{EMPTY_ITEM}[train-split-ratios]",)),
    Mutant("eval --k '' falls back to the recorded k list", "src/pietsp/cli.py",
           'None if args.k is None else checked_k_list(args.k, "evaluate")',
           'checked_k_list(args.k, "evaluate") if args.k else None',
           (f"{ALIKE}[empty]",)),
    Mutant("target ids outside the vocabulary unchecked", "src/pietsp/model.py",
           "if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):", "if False:",
           ("tests/test_engine.py::test_train_and_evaluate_name_the_user_with_a_target_outside_the_vocabulary",)),
    Mutant("short read of a raw record unchecked", "src/pietsp/checkpoint.py", "if self.pos < end:", "if False:",
           ("tests/test_checkpoint.py::test_v2_short_read_names_the_slot",)),
]


def copy_tree() -> None:
    """A fresh copy of what the tests need, with its own ``pyproject.toml`` so that pytest roots there."""
    shutil.rmtree(WORK, ignore_errors=True)
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, WORK / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", WORK / "pyproject.toml")


def failing(tests) -> set[str]:
    """The ids of ``tests`` with a failing case when they run in the copy."""
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, (str(WORK / "src"), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
                          cwd=WORK, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # not "ran, some failed": a collection or usage error
        raise SystemExit(f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    failed = [line.removeprefix("FAILED ").split(" - ")[0] for line in done.stdout.splitlines()
              if line.startswith("FAILED ")]
    return {t for t in tests if any(f == t or f.startswith(t + "[") for f in failed)}


def main() -> int:
    start = time.perf_counter()
    copy_tree()
    tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    broken = failing(tests)
    if broken:
        print(f"unmutated copy fails {', '.join(sorted(broken))}: fix the tests before mutating")
        return 1
    bad = 0
    for m in MUTANTS:
        path = WORK / m.path
        text = path.read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            print(f"stale anchor  {m.name}: {m.path} holds the old text {text.count(m.old)} times")
            bad += 1
            continue
        path.write_text(text.replace(m.old, m.new), encoding="utf-8")
        try:
            still = failing(m.tests)
            passed = [t for t in m.tests if t not in still]
        finally:
            path.write_text(text, encoding="utf-8")
        print(f"survived      {m.name}: {', '.join(passed)} passed" if passed else f"killed        {m.name}")
        bad += bool(passed)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
