"""Property tests over random corpora: file round trip, normalization, lambda=0, EM ascent."""

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

from helpers import random_corpus, row_total

SETTINGS = settings(derandomize=True, max_examples=15, deadline=None)

seeds = st.integers(0, 10**6)
names = st.sampled_from(STRATEGY_NAMES)
lambdas = st.sampled_from([0.0, 1e-4, 0.3, 2.0, 50.0]) | st.floats(0.0, 100.0)


def trained(seed, name, lam, iterations=3, sliced=False):
    corpus = random_corpus(seed, max_pairs=12)
    if sliced:
        corpus = corpus.subset(range(0, len(corpus.pairs), 2))
    strategy = make_strategy(name, occurrence_stats(corpus))
    return corpus, train(corpus, TrainConfig(iterations, lam, strategy))


@SETTINGS
@given(seeds, names, lambdas, st.booleans())
def test_write_then_read_is_exact(tmp_path_factory, seed, name, lam, sliced):
    corpus, result = trained(seed, name, lam, sliced=sliced)
    table = result.table
    path = tmp_path_factory.mktemp("model") / "model.tsv"
    write_table(table, path)
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
@given(seeds)
def test_unsmoothed_log_likelihood_never_decreases(seed):
    trace = train(random_corpus(seed, max_pairs=15), TrainConfig(8)).log_likelihood_trace
    for before, after in zip(trace, trace[1:]):
        assert after >= before - 1e-9
