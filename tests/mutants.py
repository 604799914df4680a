"""Mutation check: each mutant breaks one guard, and the tests written for that guard must fail.

pytest does not collect this file (its name does not start with ``test_``).
From the repository root:

    python tests/mutants.py

It copies ``src/``, ``tests/``, ``perfbench/`` and ``pyproject.toml`` into
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
NOT_A_NUMBER = "tests/test_cli.py::test_a_list_flag_item_that_is_not_a_number_is_refused_naming_it"
ALIASED = "tests/test_checkpoint.py::test_an_aliased_file_loads_two_unshared_tables_in_one_read"
ENVELOPE = "tests/test_checkpoint.py::test_malformed_envelope_field_is_rejected_naming_it"
INSPECT = "tests/test_cli.py::test_inspect_prints_header_shapes_and_norms"
MEMBERSHIP = "tests/test_engine.py::test_every_engine_call_refuses_a_membership_block_of_the_wrong_height_naming_the_user"
LAYER_NAMED = ("tests/test_model.py::test_nonfinite_values_name_their_layer",
               "tests/test_model.py::test_nonfinite_scores_name_their_layer_in_each_variant")
CALL = "tests/test_training_call.py"
WORKLOAD_SHAPE = f"{CALL}::test_training_call_matches_the_reference_chain_on_each_workload_shape"

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
    Mutant("empty item of a list flag dropped", "src/pietsp/cli.py", 'for item in text.split(",") if text else ():',
           'for item in [item for item in text.split(",") if item.strip()]:',
           (f"{EMPTY_ITEM}[eval-k]", f"{EMPTY_ITEM}[train-k]", f"{EMPTY_ITEM}[train-split-ratios]",
            f"{EMPTY_ITEM}[bench-grid]")),
    Mutant("list-flag message naming the private parser", "src/pietsp/cli.py",
           "raise argparse.ArgumentTypeError(f\"'{item}'", "raise ValueError(f\"'{item}'",
           (f"{EMPTY_ITEM}[eval-k]", f"{EMPTY_ITEM}[train-k]", f"{EMPTY_ITEM}[train-split-ratios]",
            f"{NOT_A_NUMBER}[eval-k]", f"{NOT_A_NUMBER}[train-k]", f"{NOT_A_NUMBER}[train-split-ratios]")),
    Mutant("grid or seed with --data accepted", "src/pietsp/cli.py", "    if unused:\n", "    if False:\n",
           ("tests/test_cli.py::test_bench_refuses_a_grid_or_seed_given_with_data_before_any_file_is_read",)),
    Mutant("eval --k '' falls back to the recorded k list", "src/pietsp/cli.py",
           'None if args.k is None else checked_k_list(args.k, "evaluate")',
           'checked_k_list(args.k, "evaluate") if args.k else None',
           (f"{ALIKE}[empty]",)),
    Mutant("target ids outside the vocabulary unchecked", "src/pietsp/model.py",
           "if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):", "if False:",
           ("tests/test_engine.py::test_train_and_evaluate_name_the_user_with_a_target_outside_the_vocabulary",)),
    Mutant("sample prepared for other parameters accepted", "src/pietsp/model.py",
           "if s.vocab_size != vocab_size or s.membership.shape[1] != k_max:", "if False:",
           ("tests/test_engine.py::test_every_engine_call_refuses_a_sample_prepared_for_other_parameters[vocabulary]",
            "tests/test_engine.py::test_every_engine_call_refuses_a_sample_prepared_for_other_parameters[width]")),
    Mutant("scatter adds each row to the wrong column", "src/pietsp/model.py",
           "np.add.outer(np.arange(dim), self.ids * dim)", "np.add.outer(np.arange(dim)[::-1], self.ids * dim)",
           ("tests/test_engine.py::test_sorted_scatter_matches_add_at",
            "tests/test_engine.py::test_scatter_on_a_wide_batch_matches_add_at",
            "tests/test_engine.py::test_gradcheck_through_the_engine")),
    Mutant("fit trains on each user's last set only", "src/pietsp/train.py",
           "prepare_all(Corpus(train_corpus.vocab_size, prefixes), params.k_max)",
           "prepare_all(train_corpus, params.k_max)",
           ("tests/test_train.py::test_fit_trains_on_every_history_prefix",
            "tests/test_acceptance.py::test_criterion_4_learnability_periodic")),
    Mutant("resume of a last-set checkpoint accepted", "src/pietsp/train.py",
           "if ck.train_state.get(\"instances\") != INSTANCES:", "if False:",
           ("tests/test_train.py::test_resume_refuses_a_checkpoint_trained_on_last_sets_only",
            "tests/test_cli.py::test_resume_refuses_a_checkpoint_trained_on_last_sets_which_still_evaluates_and_predicts")),
    Mutant("short read of a raw record unchecked", "src/pietsp/checkpoint.py", "if self.pos < end:", "if False:",
           ("tests/test_checkpoint.py::test_v2_short_read_names_the_slot",)),
    Mutant("raw record read without its seek", "src/pietsp/checkpoint.py", "self.f.seek(self.raw_at + offset)", "pass",
           ("tests/test_checkpoint.py::test_v2_slots_out_of_slot_order_load_bit_for_bit",)),
    Mutant("seek before every raw record", "src/pietsp/checkpoint.py", "if offset != self.pos:", "if True:",
           ("tests/test_checkpoint.py::test_v2_written_by_checkpoint_bytes_is_read_without_a_seek", ALIASED)),
    Mutant("aliased record read again, not copied", "src/pietsp/checkpoint.py",
           "src = self.first.setdefault((offset, out.shape), out)", "src = out", (ALIASED,)),
    Mutant("table allocation unguarded", "src/pietsp/checkpoint.py", "except (MemoryError, ValueError) as exc:",
           "except () as exc:", tuple(f"{ENVELOPE}[{fault}-{fmt}]" for fault in ("vocab-beyond-memory",
                                      "dim-beyond-memory", "vocab-beyond-array-size") for fmt in ("v1", "v2"))),
    Mutant("base64 payload length unchecked", "src/pietsp/checkpoint.py", "if len(raw) != out.nbytes:", "if False:",
           ("tests/test_checkpoint.py::test_v1_bad_record_names_slot[too-long]",
            "tests/test_checkpoint.py::test_v1_bad_record_names_slot[too-short]")),
    Mutant("raw record outside the raw section unchecked", "src/pietsp/checkpoint.py", "if end > self.size:",
           "if False:", ("tests/test_checkpoint.py::test_v2_offset_out_of_range_names_slot",)),
    Mutant("inspect leaves optimizer m unsummarised", "src/pietsp/checkpoint.py",
           'header["optimizer"]["m"] = summary(ck.opt_state.m)', "pass", (INSPECT,)),
    Mutant("inspect leaves best params unsummarised", "src/pietsp/checkpoint.py",
           'header["trainer"]["best_params"] = summary(ck.train_state["best_params"])', "pass", (INSPECT,)),
    Mutant("patience tested only after an epoch", "src/pietsp/train.py",
           'for epoch in range(state["epoch"] + 1, config.max_epochs):\n        if state["bad_epochs"]',
           'for epoch in range(first := state["epoch"] + 1, config.max_epochs):\n        if epoch > first and'
           ' state["bad_epochs"]',
           ("tests/test_train.py::test_resume_of_an_early_stopped_run_trains_no_further_epoch_unless_patience_is_raised",)),
    Mutant("from_dict keeps a recorded repeated k", "src/pietsp/train.py", "if isinstance(ks, SEQUENCES):", "if False:",
           ("tests/test_train.py::test_from_dict_reads_a_recorded_k_list_with_each_k_once",
            "tests/test_cli.py::test_eval_and_predict_read_a_recorded_repeated_k_once")),
    Mutant("membership block of the wrong height accepted", "src/pietsp/model.py",
           "if s.membership.shape[0] != s.universe.size:", "if False:",
           (f"{MEMBERSHIP}[one-user]", f"{MEMBERSHIP}[two-user]")),
    Mutant("membership block that is not 2-D accepted", "src/pietsp/model.py", "if s.membership.ndim != 2:",
           "if False:", (f"{MEMBERSHIP}[one-dimensional]",)),
    Mutant("last partial item block skipped", "src/pietsp/model.py", "edges = np.arange(-(-vocab_size // width) + 1)",
           "edges = np.arange(vocab_size // width + 1)",
           (f"{CALL}::test_training_call_at_block_edges", f"{WORKLOAD_SHAPE}[large-vocab-blocks1-full]")),
    Mutant("folded finiteness read dropped", "src/pietsp/linalg.py", "    if not np.isfinite(sums).all():\n",
           "    if False:\n", LAYER_NAMED),
    Mutant("product limit past 1,023 factors", "src/pietsp/linalg.py", "PRODUCT_LIMIT = 1000", "PRODUCT_LIMIT = 1024",
           (f"{CALL}::test_a_row_of_zero_logits_sums_products_of_up_to_a_thousand_factors_of_two[65536]",)),
]


def copy_tree() -> None:
    """A fresh copy of what the tests need, with its own ``pyproject.toml`` so that pytest roots there."""
    shutil.rmtree(WORK, ignore_errors=True)
    for name in ("src", "tests", "perfbench"):  # tests/test_training_call.py reads perfbench's workloads
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
