"""The slot kernel and the link_scores helper against their dict and per-link oracles.

Equality is exact (``==``): the kernel keeps the oracle's arithmetic and
summation order, so any difference is a defect.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsmooth import (
    STRATEGY_NAMES,
    UNKNOWN_ID,
    DevSet,
    TrainConfig,
    TrainingSession,
    TranslationTable,
    UnknownTokenError,
    aligned_log_likelihood,
    link_posterior,
    load_parallel_corpus,
    make_strategy,
    occurrence_stats,
    pair_log_likelihood,
    train,
    viterbi_align,
)
from alignsmooth.corpus import SentencePair
from alignsmooth.data import toy_paths
from alignsmooth.trainer import _estep, compile_corpus

from helpers import (
    dict_estep,
    dict_train,
    prob_aligned_log_likelihood,
    prob_pair_log_likelihood,
    prob_posterior,
    prob_viterbi,
    random_corpus,
    slot_count,
    slot_maps,
)

LAMBDAS = (0.0, 1e-4, 0.7, 5.0, 100.0)


def full_probs(table, corpus):
    return [
        table.prob(e, f)
        for e in range(len(corpus.source_vocab))
        for f in range(len(corpus.target_vocab))
    ]


def assert_same_training(corpus, strategy, lam, iterations=4, session=None):
    config = TrainConfig(iterations, lam, strategy)
    result = train(corpus, config, session)
    oracle, trace = dict_train(corpus, config)
    assert result.log_likelihood_trace == trace
    assert full_probs(result.table, corpus) == full_probs(oracle, corpus)
    assert result.table.row_defaults == oracle.row_defaults


def toy_corpus():
    src, tgt, _ = toy_paths()
    return load_parallel_corpus(src, tgt)


@pytest.mark.parametrize("name", STRATEGY_NAMES)
@pytest.mark.parametrize("seed", range(4))
def test_random_corpora(seed, name):
    corpus = random_corpus(seed + 40, max_pairs=25)
    strategy = make_strategy(name, occurrence_stats(corpus))
    for lam in LAMBDAS:
        assert_same_training(corpus, strategy, lam)


@pytest.mark.parametrize("name", STRATEGY_NAMES)
@pytest.mark.parametrize("stats_from", ["slice", "full"])
def test_subset_slices(name, stats_from):
    # a slice shares the full vocabulary, so some rows have no occurrences
    full = random_corpus(7, max_pairs=40, source_types=14, target_types=15)
    part = full.subset(range(0, len(full.pairs), 3))
    strategy = make_strategy(name, occurrence_stats(part if stats_from == "slice" else full))
    for lam in LAMBDAS:
        assert_same_training(part, strategy, lam)


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_toy_corpus(name):
    corpus = toy_corpus()
    strategy = make_strategy(name, occurrence_stats(corpus))
    for lam in LAMBDAS:
        assert_same_training(corpus, strategy, lam, iterations=10)


# out of order, with lambda = 0 after a positive lambda
SHUFFLED_LAMBDAS = (5.0, 0.0, 100.0, 1e-4, 0.0, 0.7)


def assert_same_training_on_one_session(corpus, stats, iterations=4):
    session = TrainingSession(corpus)
    for name in STRATEGY_NAMES:  # strategies switched on one session
        strategy = make_strategy(name, stats)
        for lam in SHUFFLED_LAMBDAS:
            assert_same_training(corpus, strategy, lam, iterations, session)


@pytest.mark.parametrize("seed", range(3))
def test_shared_session_random_corpora(seed):
    corpus = random_corpus(seed + 40, max_pairs=25)
    assert_same_training_on_one_session(corpus, occurrence_stats(corpus))


@pytest.mark.parametrize("stats_from", ["slice", "full"])
def test_shared_session_subset_slices(stats_from):
    full = random_corpus(7, max_pairs=40, source_types=14, target_types=15)
    part = full.subset(range(0, len(full.pairs), 3))
    assert_same_training_on_one_session(part, occurrence_stats(part if stats_from == "slice" else full))


def test_shared_session_toy_corpus():
    corpus = toy_corpus()
    assert_same_training_on_one_session(corpus, occurrence_stats(corpus), iterations=10)


def test_session_of_another_corpus_is_rejected():
    corpus = random_corpus(3, max_pairs=10)
    session = TrainingSession(corpus)
    for other in (random_corpus(4, max_pairs=10), corpus.subset(range(len(corpus.pairs)))):
        with pytest.raises(ValueError, match="another corpus"):
            train(other, TrainConfig(2), session)
    assert train(corpus, TrainConfig(2), session) == train(corpus, TrainConfig(2))


def test_zero_denominator_estep_matches_oracle():
    # every target word scores zero: each link gets 1/(l+1) and every pair -inf
    corpus = random_corpus(3, max_pairs=10)
    slots = compile_corpus(corpus)
    counts, totals, log_likelihood = _estep(slots, [0.0] * slots.slot_count)
    zero = TranslationTable({}, {}, corpus.source_vocab, corpus.target_vocab)
    oracle_counts, oracle_totals, oracle_ll = dict_estep(corpus, zero)
    assert log_likelihood == oracle_ll == float("-inf")
    assert totals == [oracle_totals.get(e, 0.0) for e in range(len(corpus.source_vocab))]
    for e, row in oracle_counts.items():
        for f, c in row.items():
            assert slot_count(slots, counts, e, f) == c


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([0.0, 0.3, 0.6, 0.9]), st.booleans())
def test_estep_both_branches_match_oracle(seed, zero_share, sliced):
    # zeros make some target words degenerate while others in the same pair are
    # not, so some pairs come out -inf; catches a degenerate loop that scales
    # probs[s] instead of adding 1/(l+1), and a denominator folded in reverse
    corpus = random_corpus(seed, max_pairs=30, max_len=5, source_types=6, target_types=7)
    if sliced:
        corpus = corpus.subset(range(0, len(corpus.pairs), 2))
    slots = compile_corpus(corpus)
    rng = random.Random(seed)
    probs = [0.0 if rng.random() < zero_share else rng.random() for _ in range(slots.slot_count)]
    counts, totals, log_likelihood = _estep(slots, probs)
    rows = {e: {f: probs[s] for f, s in row.items()} for e, row in enumerate(slot_maps(slots))}
    table = TranslationTable(rows, {}, corpus.source_vocab, corpus.target_vocab)
    oracle_counts, oracle_totals, oracle_ll = dict_estep(corpus, table)
    assert log_likelihood == oracle_ll
    assert totals == [oracle_totals.get(e, 0.0) for e in range(len(corpus.source_vocab))]
    for e, row in enumerate(slots.rows):
        for f in row:
            assert slot_count(slots, counts, e, f) == oracle_counts.get(e, {}).get(f, 0.0)


@pytest.mark.parametrize("seed", range(3))
def test_scoring_helper_matches_per_link_scoring(seed):
    corpus = random_corpus(seed + 60, max_pairs=20)
    table = train(corpus, TrainConfig(3, 0.5, make_strategy("add-one", occurrence_stats(corpus)))).table
    sparse = train(corpus, TrainConfig(1)).table  # zeros off the support
    for t in (table, sparse):
        for pair in corpus.pairs:
            assert viterbi_align(pair, t) == prob_viterbi(pair, t)
            assert link_posterior(pair, t) == prob_posterior(pair, t)
            assert pair_log_likelihood(pair, t) == prob_pair_log_likelihood(pair, t)
        alignments = tuple(prob_viterbi(pair, t) for pair in corpus.pairs)
        dev = DevSet(tuple(corpus.pairs), alignments)
        assert aligned_log_likelihood(dev, t) == prob_aligned_log_likelihood(
            corpus.pairs, alignments, t
        )


def test_scoring_helper_unknown_ids_score_zero():
    corpus = random_corpus(5, max_pairs=8)
    table = train(corpus, TrainConfig(2, 1.0, make_strategy("add-one", occurrence_stats(corpus)))).table
    pair = corpus.pairs[0]
    mixed = SentencePair((UNKNOWN_ID,) + pair.source, pair.target + (UNKNOWN_ID,))
    assert viterbi_align(mixed, table) == prob_viterbi(mixed, table)
    assert link_posterior(mixed, table) == prob_posterior(mixed, table)
    assert pair_log_likelihood(mixed, table) == prob_pair_log_likelihood(mixed, table) == float("-inf")
    assert link_posterior(mixed, table)[-1] == [1.0 / (len(mixed.source) + 1)] * (len(mixed.source) + 1)


@pytest.mark.parametrize(
    "pair",
    [SentencePair((99,), (0,)), SentencePair((1,), (99,)), SentencePair((-5,), (0,))],
    ids=["source", "target", "negative"],
)
def test_scoring_helper_out_of_range_raises(pair):
    corpus = random_corpus(5, max_pairs=8)
    table = train(corpus, TrainConfig(1)).table
    dev = DevSet((pair,), ((0,),))
    for score in (viterbi_align, link_posterior, pair_log_likelihood):
        with pytest.raises(UnknownTokenError):
            score(pair, table)
    with pytest.raises(UnknownTokenError):
        aligned_log_likelihood(dev, table)
