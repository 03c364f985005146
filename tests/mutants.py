"""Recorded mutants: small edits to the package that named tests must catch.

Run it from anywhere with ``python tests/mutants.py``.  It copies ``src/``
to a temporary directory and first runs every named test against the
unmutated copy, which must pass.  It then applies one mutant at a time,
runs only that mutant's tests against the copy (``PYTHONPATH`` on the copy),
and prints the mutant as killed (each named test failed) or survived.  An old
text that does not occur exactly once in its file is an error, so a change
to the code a mutant names must update the mutant too.  The exit status is
0 only when every mutant is killed.

A mutant names the tests that must fail on it, not every test that does.
The name of this file does not start with ``test_``, so the tier-1 run
does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids relative to the repository root; each must fail


PROPERTY = "tests/test_experiment.py::test_experiment_equals_its_naive_orchestration"
PARITY = "tests/test_kernel_parity.py::"
MEMORY = "tests/test_trainer.py::test_training_holds_little_beside_the_table"

MUTANTS = [
    Mutant(
        "add-dice's per-slot g shifted by one target id",
        "alignsmooth/trainer.py",
        "[extras.get(f, 0.0) for f in row]",
        "[extras.get(f + 1, 0.0) for f in row]",
        ("tests/test_properties.py::test_huge_lambda_rows_tend_to_normalized_g",
         "tests/test_smoothing.py::TestAddDice::test_row_sum_covers_cooccurring_only",
         PARITY + "test_toy_corpus", PROPERTY),
    ),
    Mutant(
        "NULL left out of the E-step denominator",
        "alignsmooth/trainer.py",
        "            for s in ids:\n                denom += probs[s]",
        "            for s in ids[1:]:\n                denom += probs[s]",
        ("tests/test_properties.py::test_smoothed_log_posterior_never_decreases",
         "tests/test_trainer.py::TestExpectationCounts::test_t1_expected_values",
         "tests/test_trainer.py::TestTrain::test_ten_iterations_match_reference_em",
         PARITY + "test_estep_both_branches_match_oracle"),
    ),
    Mutant(
        "an M-step that writes into totals",
        "alignsmooth/trainer.py",
        "denom = totals[e] + lam * weight_sum",
        "denom = totals[e] = totals[e] + lam * weight_sum",
        ("tests/test_trainer.py::TestTrain::test_rows_normalized_after_every_mstep",
         PARITY + "test_shared_session_toy_corpus", "tests/test_golden.py", PROPERTY),
    ),
    Mutant(
        # 28 of the 37 kernel parity tests fail, in each function named here
        "the E-step denominator folded in reverse",
        "alignsmooth/trainer.py",
        "            for s in ids:\n                denom += probs[s]",
        "            for s in reversed(ids):\n                denom += probs[s]",
        tuple(PARITY + name for name in (
            "test_random_corpora", "test_subset_slices", "test_toy_corpus",
            "test_shared_session_random_corpora", "test_shared_session_subset_slices",
            "test_shared_session_toy_corpus", "test_estep_both_branches_match_oracle",
        )) + ("tests/test_golden.py", PROPERTY),
    ),
    Mutant(
        "no negation in signed",
        "alignsmooth/tuner.py",
        "return -cache[x] if maximize else cache[x]",
        "return cache[x]",
        ("tests/test_tuner.py::TestSearchScale::test_maximize_ties_nan_and_unsigned_values",
         "tests/test_golden.py", PROPERTY),
    ),
    Mutant(
        "lambda = 0 not seeded between strategies",
        "alignsmooth/experiment.py",
        "tables = {name: {0.0: by_lambda[0.0]} for name, by_lambda in tables.items() if 0.0 in by_lambda}",
        "tables = {name: {} for name in tables}",
        ("tests/test_experiment.py::test_each_key_trained_once",),
    ),
    Mutant(
        "a memo that carries another strategy's tables at lambda > 0",
        "alignsmooth/experiment.py",
        "tables = {name: {0.0: by_lambda[0.0]} for name, by_lambda in tables.items() if 0.0 in by_lambda}",
        "tables = {name: dict(by_lambda) for name, by_lambda in tables.items()}",
        ("tests/test_experiment.py::test_cells_equal_uncached_tuning", PROPERTY),
    ),
    Mutant(
        "tune leaves 0 out of the grid",
        "alignsmooth/tuner.py",
        "score, (0.0, *tune_config.grid),",
        "score, tune_config.grid,",
        ("tests/test_tuner.py::TestTune::test_zero_always_candidate", "tests/test_golden.py", PROPERTY),
    ),
    Mutant(
        "search_scale keeps the grid in the order given",
        "alignsmooth/tuner.py",
        "grid_bracket(signed, sorted(set(grid)))",
        "grid_bracket(signed, list(dict.fromkeys(grid)))",
        ("tests/test_tuner.py::TestSearchScale::test_grid_in_any_order_with_repeats",
         "tests/test_cli.py::TestTuneCommand::test_grid_order_changes_no_byte", PROPERTY),
    ),
    Mutant(
        "the final lambda* retrain made with the tuning slice's statistics",
        "alignsmooth/experiment.py",
        "strategy = make_strategy(strategy_name, stats)",
        "strategy = make_strategy(strategy_name, tune_stats)",
        ("tests/test_experiment.py::test_final_retrain_uses_full_corpus_statistics", PROPERTY),
    ),
    Mutant(
        "compiled rows kept as target id -> slot dicts",
        "alignsmooth/trainer.py",
        "return SlotCorpus(rows, pairs,",
        "return SlotCorpus(slot_of, pairs,",
        (MEMORY,
         "tests/test_trainer.py::TestExpectationCounts::test_rows_are_ascending_target_tuples_of_the_support"),
    ),
    Mutant(
        "the previous iteration's counts kept alive through the next E-step",
        "alignsmooth/trainer.py",
        "del counts, totals, estimate",
        "del estimate",
        (MEMORY,),
    ),
    Mutant(
        "each token kept as its own str, not shared per word type",
        "alignsmooth/corpus.py",
        "[list(map(share, tokens, tokens))",
        "[tokens",
        ("tests/test_corpus.py::TestReadTokenLines::test_equal_tokens_share_one_str",),
    ),
    Mutant(
        "target vocabulary numbered in sorted order, not first appearance",
        "alignsmooth/corpus.py",
        "target_vocab = Vocabulary.from_ids(dict(target_ids))",
        "target_vocab = Vocabulary.from_ids(dict(zip(sorted(target_ids), count())))",
        ("tests/test_corpus.py::TestCorpusFromTokens::test_equals_a_per_token_vocabulary_loop",),
    ),
    Mutant(
        "models read without dropping a leading BOM",
        "alignsmooth/model.py",
        'open(path, encoding="utf-8-sig")',
        'open(path, encoding="utf-8")',
        ("tests/test_cli.py::TestInputBytes::test_model_with_a_leading_bom_aligns_the_same",),
    ),
]


def run_tests(src: str, tests, workdir: str) -> tuple[int, list[str]]:
    """Run the named tests with the package imported from ``src``: pytest's exit code and the failed ids."""
    command = [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rf", "-p", "no:cacheprovider"]
    command += [os.path.join(ROOT, test) for test in tests]
    # no bytecode: two mutants of one file may share its size and modification second
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True)
    failed = []
    for line in run.stdout.splitlines():
        if line.startswith("FAILED "):  # the id is relative to workdir; make it relative to ROOT
            path, _, rest = line.split()[1].partition("::")
            path = os.path.relpath(os.path.join(workdir, path), ROOT).replace(os.sep, "/")
            failed.append(f"{path}::{rest}")
    return run.returncode, failed


def fails(test: str, failed: list[str]) -> bool:
    """Whether the named test, a file, a function or one parametrized case, has a failed case."""
    return any(f == test or f.startswith((test + "::", test + "[")) for f in failed)


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as workdir:  # the tests' own files (.hypothesis) land here too
        src = os.path.join(workdir, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
        originals = {}
        for mutant in MUTANTS:
            path = os.path.join(src, mutant.path)
            if path not in originals:
                with open(path, encoding="utf-8") as handle:
                    originals[path] = handle.read()
            count = originals[path].count(mutant.old)
            if count != 1:
                print(f"error: {mutant.name}: the old text occurs {count} times in {mutant.path}")
                return 2
        named = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if run_tests(src, named, workdir)[0] != 0:
            print("error: the unmutated tree fails a named test")
            return 2
        survived = 0
        for mutant in MUTANTS:
            began = time.perf_counter()
            path = os.path.join(src, mutant.path)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(originals[path].replace(mutant.old, mutant.new))
            code, failed = run_tests(src, mutant.tests, workdir)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(originals[path])
            if code not in (0, 1):
                print(f"error: {mutant.name}: pytest exited {code}, not with a test failure")
                return 2
            passing = [test for test in mutant.tests if not fails(test, failed)]
            survived += bool(passing)
            print(f"{'survived' if passing else 'killed':9} {time.perf_counter() - began:5.1f} s  {mutant.name}")
            for test in passing:
                print(f"          passes: {test}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
