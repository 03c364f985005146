"""Acceptance suite: one test per release criterion.

Each test prints an ``ACCEPTANCE PASS`` line on success; a pytest failure
is the corresponding fail line.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import alignsmooth
from alignsmooth import (
    DevSet,
    Objective,
    TrainConfig,
    TranslationTable,
    TuneConfig,
    alignment_error_count,
    corpus_from_tokens,
    load_parallel_corpus,
    make_strategy,
    occurrence_stats,
    search_scale,
    smoothed_error_count,
    train,
    tune,
    viterbi_align,
)
from alignsmooth.cli import main
from alignsmooth.data import toy_paths
from alignsmooth.tuner import DEFAULT_GRID

from helpers import (
    NULL,
    garbage_collector_corpus,
    hand_report,
    kernel_steps,
    log_posterior,
    random_corpus,
    reference_em,
    row_total,
    t1_corpus,
    table_prob,
    tokens,
    uniform_init,
)

# The toy experiment's report.tsv as the benchmark recorded it; every change keeps these bytes.
RECORDED_TOY_REPORT = os.path.join(
    os.path.dirname(__file__), os.pardir, "bench", "expected", "toy-experiment.report.tsv"
)


def test_hand_em_oracle():
    """1 EM iteration on T1 reproduces the hand-computed table, < 1 s."""
    started = time.perf_counter()
    corpus = t1_corpus()
    table = train(corpus, TrainConfig(iterations=1)).table
    expected = {
        ("das", "the"): 0.5,
        ("das", "house"): 0.25,
        ("haus", "the"): 0.5,
        (NULL, "the"): 0.5,
    }
    for (e_word, f_word), value in expected.items():
        assert table_prob(corpus, table, e_word, f_word) == pytest.approx(value, abs=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE PASS: hand-EM oracle (4 values within 1e-12, {elapsed:.3f}s)")


@pytest.mark.parametrize("name", ["add-one", "add-source-count", "add-dice"])
def test_lambda_zero_identity(name):
    """Training with lambda=0 matches the unsmoothed baseline bit for bit."""
    corpus = random_corpus(17, max_pairs=25)
    strategy = make_strategy(name, occurrence_stats(corpus))
    smoothed = train(corpus, TrainConfig(10, 0.0, strategy)).table
    baseline = train(corpus, TrainConfig(10, 0.0, None)).table
    assert smoothed.rows == baseline.rows
    assert smoothed.row_defaults == baseline.row_defaults
    print(f"ACCEPTANCE PASS: lambda=0 identity for {name} (bit-for-bit over 10 iterations)")


@pytest.mark.parametrize("n", [0.1, 1.0, 10.0])
def test_moore_equivalence(n):
    """add-one with lambda=n matches (count+n)/(count+n|F|) after every iteration."""
    corpus = random_corpus(23, max_pairs=12, source_types=5, target_types=6)
    src = [tokens(corpus.source_vocab, p.source) for p in corpus.pairs]
    tgt = [tokens(corpus.target_vocab, p.target) for p in corpus.pairs]
    strategy = make_strategy("add-one", occurrence_stats(corpus))
    for iterations in range(1, 11):
        table = train(corpus, TrainConfig(iterations, n, strategy)).table
        oracle = reference_em(src, tgt, iterations, add=n)
        for e_word in corpus.source_vocab.words:
            for f_word in corpus.target_vocab.words:
                assert table_prob(corpus, table, e_word, f_word) == pytest.approx(
                    oracle[(e_word, f_word)], abs=1e-12
                )
    print(f"ACCEPTANCE PASS: Moore closed-form equivalence at n={n} (10 iterations, 1e-12)")


def test_normalization_suite():
    """Rows sum to 1 after every M-step; E-step mass equals target tokens."""
    checked_rows = 0
    for seed in range(5):
        corpus = random_corpus(seed, max_pairs=50)
        stats = occurrence_stats(corpus)
        target_tokens = sum(len(p.target) for p in corpus.pairs)
        for name in ("add-one", "add-source-count", "add-dice"):
            strategy = make_strategy(name, stats)
            for lam in (0.0, 0.7, 5.0):
                for totals, table in kernel_steps(corpus, strategy, lam, 3):
                    assert sum(totals) == pytest.approx(target_tokens, abs=1e-9)
                    for e in range(len(corpus.source_vocab)):
                        assert row_total(table, e) == pytest.approx(1.0, abs=1e-9)
                        checked_rows += 1
    print(f"ACCEPTANCE PASS: normalization suite ({checked_rows} rows within 1e-9)")


def test_em_monotonicity():
    """Unsmoothed log-likelihood never drops across 10 iterations, 20 corpora."""
    for seed in range(20):
        corpus = random_corpus(seed + 100, max_pairs=30)
        trace = train(corpus, TrainConfig(iterations=10)).log_likelihood_trace
        for step, (before, after) in enumerate(zip(trace, trace[1:])):
            assert after >= before - 1e-9, f"seed {seed} step {step}: {before} -> {after}"
    print("ACCEPTANCE PASS: EM monotonicity (20 corpora x 10 iterations, 1e-9)")


def test_smoothed_em_ascends_its_log_posterior():
    """The log posterior never drops on the toy corpus: 3 strategies x 5 lambdas x 8 iterations."""
    src, tgt, _ = toy_paths()
    corpus = load_parallel_corpus(src, tgt)
    stats = occurrence_stats(corpus)
    worst = 0.0
    for name in ("add-one", "add-source-count", "add-dice"):
        strategy = make_strategy(name, stats)
        for lam in (0.0, 0.01, 0.3, 5.0, 100.0):
            tables = [uniform_init(corpus.source_vocab, corpus.target_vocab)]
            tables += [table for _, table in kernel_steps(corpus, strategy, lam, 8)]
            values = [log_posterior(corpus, table, strategy, lam) for table in tables]
            for step, (before, after) in enumerate(zip(values, values[1:])):
                assert after >= before - 1e-9 * abs(before), f"{name} lambda {lam} step {step}: {before} -> {after}"
                worst = min(worst, (after - before) / abs(before))
    print(f"ACCEPTANCE PASS: smoothed EM ascent (toy corpus, 15 settings x 8 iterations, "
          f"worst relative step {worst:.1e} >= -1e-9)")


def _no_tie_fixture(seed):
    """Synthetic dev set whose posteriors all have a strict argmax.

    Target words are globally unique, so each posterior column can be
    driven independently; the winning entry is boosted to 3x the column
    maximum, keeping every runner-up ratio at most 1/3.
    """
    rng = random.Random(seed)
    src, tgt = [], []
    s = t = 0
    for _ in range(rng.randint(2, 4)):
        l, m = rng.randint(2, 4), rng.randint(2, 4)
        src.append([f"s{s + i}" for i in range(l)])
        tgt.append([f"t{t + j}" for j in range(m)])
        s += l
        t += m
    corpus = corpus_from_tokens(src, tgt)
    rows = {}
    alignments = []
    for pair in corpus.pairs:
        sources = (0,) + pair.source
        gold = []
        for f in pair.target:
            column = {e: rng.uniform(0.05, 1.0) for e in sources}
            winner = sources[rng.randrange(len(sources))]
            column[winner] = 3.0 * max(column.values())
            for e, v in column.items():
                rows.setdefault(e, {})[f] = v
            gold.append(rng.randint(0, len(sources) - 1))
        alignments.append(tuple(gold))
    table = TranslationTable(rows, {}, corpus.source_vocab, corpus.target_vocab)
    return DevSet(pairs=tuple(corpus.pairs), alignments=tuple(alignments)), table


def test_smoothed_error_count_converges_to_discrete():
    """At alpha=200 the relaxation sits within 0.01 of the exact error count."""
    worst = 0.0
    for seed in range(20):
        dev, table = _no_tie_fixture(seed)
        exact = alignment_error_count(dev, table)
        relaxed = smoothed_error_count(dev, table, alpha=200.0)
        gap = abs(relaxed - exact)
        worst = max(worst, gap)
        assert gap < 0.01, f"seed {seed}: gap {gap}"
    print(f"ACCEPTANCE PASS: smoothed-to-discrete convergence (worst gap {worst:.2e} < 0.01)")


def test_aer_spot_checks():
    """The three worked AER examples, plus AER=0 on a perfect prediction."""
    assert hand_report({(1, 1), (2, 2)}, {(1, 1)}, {(1, 1), (2, 2)}).aer == 0.0
    assert hand_report({(1, 2)}, {(1, 1)}, {(1, 1)}).aer == 1.0
    links = {(1, 1), (2, 2), (3, 3)}
    sure = {(1, 1), (4, 4)}
    poss = {(1, 1), (2, 2), (4, 4)}
    assert hand_report(links, sure, poss).aer == pytest.approx(0.4, abs=0)
    gold = {(1, 1), (2, 2), (3, 3)}
    assert hand_report(set(gold), gold, gold).aer == 0.0
    print("ACCEPTANCE PASS: AER spot checks (0, 1, 0.4 exact; perfect S=P scores 0)")


@pytest.mark.parametrize(
    "label,f",
    [("(x-2)^2", lambda x: (x - 2.0) ** 2), ("|x-1|", lambda x: abs(x - 1.0))],
)
def test_tuner_matches_grid_oracle(label, f):
    """Bracket + refinement lands within 1e-4 of an exhaustive 1e-5 grid."""
    started = time.perf_counter()
    grid = sorted(set(DEFAULT_GRID) | {0.0})
    lam, value, _ = search_scale(f, grid, maximize=False, tolerance=1e-6)
    oracle_lam = min((i * 1e-5 for i in range(400001)), key=f)
    elapsed = time.perf_counter() - started
    assert lam == pytest.approx(oracle_lam, abs=1e-4)
    assert value <= f(oracle_lam) + 1e-8
    assert elapsed < 1.0
    print(f"ACCEPTANCE PASS: tuner vs grid oracle on {label} "
          f"(|{lam:.6f} - {oracle_lam:.6f}| < 1e-4, {elapsed:.2f}s)")


def test_garbage_collector_mitigation():
    """Tuned add-one smoothing stops a singleton word from hoarding links."""
    started = time.perf_counter()
    corpus = garbage_collector_corpus()
    singleton_pair = corpus.pairs[-1]
    gold = (1, 2, 3, 4)
    singleton_position = 4
    dev = DevSet(pairs=(singleton_pair,), alignments=(gold,))

    baseline = train(corpus, TrainConfig(iterations=10)).table
    baseline_alignment = viterbi_align(singleton_pair, baseline)
    baseline_errors = alignment_error_count(dev, baseline)
    baseline_stolen = sum(
        1 for g, h in zip(gold, baseline_alignment)
        if h == singleton_position and g != singleton_position
    )
    assert baseline_stolen > 0  # the construction must exhibit the effect

    strategy = make_strategy("add-one", occurrence_stats(corpus))
    result = tune(corpus, dev, Objective("smoothed-error-count"),
                  TrainConfig(iterations=10, strategy=strategy), TuneConfig())
    tuned = train(corpus, TrainConfig(10, result.lambda_star, strategy)).table
    tuned_alignment = viterbi_align(singleton_pair, tuned)
    tuned_errors = alignment_error_count(dev, tuned)
    tuned_stolen = sum(
        1 for g, h in zip(gold, tuned_alignment)
        if h == singleton_position and g != singleton_position
    )
    elapsed = time.perf_counter() - started
    assert tuned_errors <= baseline_errors
    assert tuned_stolen < baseline_stolen
    assert elapsed < 30.0
    print(f"ACCEPTANCE PASS: garbage-collector mitigation "
          f"(errors {baseline_errors}->{tuned_errors}, stolen links "
          f"{baseline_stolen}->{tuned_stolen}, lambda*={result.lambda_star:.4g}, "
          f"{elapsed:.1f}s)")


def test_experiment_grid_shape(tmp_path):
    """The bundled toy experiment yields 1 baseline + 12 tuned cells, < 60 s,
    and its report.tsv bytes equal the benchmark's recorded report."""
    started = time.perf_counter()
    src, tgt, ann = toy_paths()
    out_dir = str(tmp_path / "grid")
    code = main(["experiment", "-s", src, "-t", tgt, "-a", ann, "-o", out_dir])
    elapsed = time.perf_counter() - started
    assert code == 0
    report = pathlib.Path(out_dir, "report.tsv").read_bytes()
    assert report == pathlib.Path(RECORDED_TOY_REPORT).read_bytes()
    tsv = report.decode("utf-8")
    lines = tsv.splitlines()
    assert sum(1 for line in lines if line.startswith("baseline\taer\t")) == 1
    cells = {tuple(line.split("\t")[1:3]) for line in lines if line.startswith("cell\t")}
    assert len(cells) == 12
    ok = sum(1 for line in lines if line.endswith("\tstatus\tok"))
    decreasements = sum(1 for line in lines if "\tdecreasement\t" in line)
    assert ok == 12 and decreasements == 12
    assert os.path.exists(os.path.join(out_dir, "report.txt"))
    assert elapsed < 60.0
    print(f"ACCEPTANCE PASS: experiment grid shape "
          f"(1 baseline + 12 cells with decreasement, {elapsed:.1f}s)")


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_experiment_report_does_not_depend_on_hash_seed(tmp_path, hash_seed):
    """Each process draws its own string hash seed, so set and dict order
    must reach no output: the toy report.tsv is the recorded one under
    any PYTHONHASHSEED."""
    src, tgt, ann = toy_paths()
    package_root = os.path.dirname(os.path.dirname(alignsmooth.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    out_dir = tmp_path / "exp"
    subprocess.run([sys.executable, "-m", "alignsmooth", "experiment", "-s", src, "-t", tgt,
                    "-a", ann, "-o", str(out_dir)], env=env, check=True, capture_output=True)
    assert (out_dir / "report.tsv").read_bytes() == pathlib.Path(RECORDED_TOY_REPORT).read_bytes()
    print(f"ACCEPTANCE PASS: toy report under PYTHONHASHSEED={hash_seed}")
