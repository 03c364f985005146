"""Property tests over random corpora: file round trip, normalization, lambda=0, EM ascent."""

import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from alignsmooth import (
    STRATEGY_NAMES,
    TrainConfig,
    make_strategy,
    occurrence_stats,
    read_table,
    train,
    write_table,
)

from helpers import (
    dict_cooc,
    kernel_steps,
    log_posterior,
    ordered,
    random_corpus,
    row_total,
    uniform_init,
    weight,
)

SETTINGS = settings(derandomize=True, max_examples=15, deadline=None)

seeds = st.integers(0, 10**6)
names = st.sampled_from(STRATEGY_NAMES)
lambdas = st.sampled_from([0.0, 1e-4, 0.3, 2.0, 50.0]) | st.floats(0.0, 100.0)


def corpus_and_strategy(seed, name, sliced):
    corpus = random_corpus(seed, max_pairs=12)
    if sliced:
        corpus = corpus.subset(range(0, len(corpus.pairs), 2))
    return corpus, make_strategy(name, occurrence_stats(corpus))


def trained(seed, name, lam, iterations=3, sliced=False):
    corpus, strategy = corpus_and_strategy(seed, name, sliced)
    return corpus, train(corpus, TrainConfig(iterations, lam, strategy))


@SETTINGS
@given(seeds, names, lambdas, st.booleans())
def test_write_then_read_is_exact(tmp_path_factory, seed, name, lam, sliced):
    corpus, result = trained(seed, name, lam, sliced=sliced)
    table = result.table
    path = tmp_path_factory.mktemp("model") / "model.tsv"
    write_table(table, path, iterations=3, strategy=name, lam=lam)
    loaded, _ = read_table(path)
    sv, tv = corpus.source_vocab, corpus.target_vocab
    for e_word in sv.words:
        for f_word in tv.words:
            expected = table.prob(sv.words.index(e_word), tv.words.index(f_word))
            assert loaded.prob(loaded.source_vocab.get(e_word), loaded.target_vocab.get(f_word)) == expected
    by_word = {sv.word(e): d for e, d in table.row_defaults.items() if d > 0.0}
    assert {loaded.source_vocab.word(e): d for e, d in loaded.row_defaults.items()} == by_word


@SETTINGS
@given(seeds, names, lambdas, st.booleans())
def test_rows_sum_to_one(seed, name, lam, sliced):
    corpus, result = trained(seed, name, lam, sliced=sliced)
    for e in range(len(corpus.source_vocab)):
        assert abs(row_total(result.table, e) - 1.0) <= 1e-9


@SETTINGS
@given(seeds, names)
def test_lambda_zero_equals_unsmoothed(seed, name):
    corpus, smoothed = trained(seed, name, 0.0)
    plain = train(corpus, TrainConfig(3))
    assert smoothed.table.rows == plain.table.rows
    assert smoothed.table.row_defaults == plain.table.row_defaults
    assert smoothed.log_likelihood_trace == plain.log_likelihood_trace


@SETTINGS
@given(seeds, st.integers(1, 60), st.integers(1, 60), st.booleans())
def test_cooc_equals_the_dict_loop_key_order_included(seed, source_types, target_types, sliced):
    # catches NULL left out of the grouping, and rows or keys counted in another order
    corpus = random_corpus(seed, max_pairs=40, source_types=source_types, target_types=target_types)
    if sliced:
        corpus = corpus.subset(range(1, len(corpus.pairs), 2))
    assert ordered(occurrence_stats(corpus).cooc) == ordered(dict_cooc(corpus))


@SETTINGS
@given(seeds)
def test_unsmoothed_log_likelihood_never_decreases(seed):
    trace = train(random_corpus(seed, max_pairs=15), TrainConfig(8)).log_likelihood_trace
    for before, after in zip(trace, trace[1:]):
        assert after >= before - 1e-9


@SETTINGS
@given(seeds, names, st.sampled_from([0.0, 1e-3, 0.5, 100.0]), st.booleans())
def test_smoothed_log_posterior_never_decreases(seed, name, lam, sliced):
    # catches the E-step leaving NULL out of its denominator, which the large-lambda limit misses
    corpus, strategy = corpus_and_strategy(seed, name, sliced)
    tables = [uniform_init(corpus.source_vocab, corpus.target_vocab)]
    tables += [table for _, table in kernel_steps(corpus, strategy, lam, 6)]
    values = [log_posterior(corpus, table, strategy, lam) for table in tables]
    for before, after in zip(values, values[1:]):
        assert after >= before - 1e-9 * abs(before)


@SETTINGS
@given(seeds, names, st.booleans())
def test_huge_lambda_rows_tend_to_normalized_g(seed, name, sliced):
    # catches add-dice's per-slot g shifted by one target id in the compiled strategy
    lam = 1e12
    corpus, strategy = corpus_and_strategy(seed, name, sliced)
    *_, (totals, table) = kernel_steps(corpus, strategy, lam, 3)
    targets = range(len(corpus.target_vocab))
    for e in range(len(corpus.source_vocab)):
        g = [weight(strategy, e, f) for f in targets]
        g_sum = math.fsum(g)
        if g_sum == 0.0:  # no pseudo-counts: the row is its counts alone
            continue
        # |t - g/G| = |c G - g C| / (G (C + lam G)) <= C / (lam G) for the row's count mass C
        bound = totals[e] / (lam * g_sum) + 8 * sys.float_info.epsilon
        for f in targets:
            assert abs(table.prob(e, f) - g[f] / g_sum) <= bound
