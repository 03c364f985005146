import math
import random
import tracemalloc

import pytest

from alignsmooth import (
    STRATEGY_NAMES,
    AddingStrategy,
    AddOne,
    TrainConfig,
    UnknownTokenError,
    load_parallel_corpus,
    make_strategy,
    occurrence_stats,
    train,
    viterbi_align,
)
from alignsmooth.corpus import NULL_ID, ParallelCorpus, SentencePair, Vocabulary
from alignsmooth.data import toy_paths
from alignsmooth.trainer import _estep, build_table, compile_corpus, compile_strategy, maximize_smoothed

from helpers import (
    kernel_steps, random_corpus, reference_em, row_total, slot_count, slot_maps, t1_corpus, table_prob, NULL,
)


def uniform_estep(corpus):
    """Slots, per-slot counts and per-source totals of the E-step from the uniform table."""
    slots = compile_corpus(corpus)
    probs = [1.0 / len(corpus.target_vocab)] * slots.slot_count
    counts, totals, _ = _estep(slots, probs)
    return slots, counts, totals


class AllTargets(AddingStrategy):
    """Extra weight 1 on every target word of the vocabulary."""

    def extra_weights(self, e):
        return dict.fromkeys(range(len(self.stats.target_counts)), 1.0)


@pytest.fixture
def t1():
    return t1_corpus()


@pytest.fixture
def t1_counts(t1):
    return uniform_estep(t1)


class TestExpectationCounts:
    def test_t1_expected_values(self, t1, t1_counts):
        slots, counts, totals = t1_counts
        sv, tv = t1.source_vocab, t1.target_vocab
        das = sv.words.index("das")
        assert slot_count(slots, counts, das, tv.words.index("the")) == pytest.approx(2 / 3, abs=1e-12)
        assert totals[das] == pytest.approx(4 / 3, abs=1e-12)

    def test_no_cooccurrence_no_mass(self, t1, t1_counts):
        slots, counts, _ = t1_counts
        sv, tv = t1.source_vocab, t1.target_vocab
        assert slot_count(slots, counts, sv.words.index("haus"), tv.words.index("book")) == 0.0

    def test_total_mass_equals_target_tokens(self, t1, t1_counts):
        assert sum(t1_counts[2]) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_row_totals_match_row_sums(self, seed):
        corpus = random_corpus(seed, max_pairs=15)
        slots, counts, totals = uniform_estep(corpus)
        for e, row in enumerate(slot_maps(slots)):
            assert totals[e] == pytest.approx(sum(counts[s] for s in row.values()), abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_are_ascending_target_tuples_of_the_support(self, seed):
        corpus = random_corpus(seed, max_pairs=15)
        slots = compile_corpus(corpus)
        support = [set() for _ in corpus.source_vocab.words]
        for pair in corpus.pairs:
            for e in (NULL_ID,) + pair.source:
                support[e].update(pair.target)
        assert slots.rows == [tuple(sorted(targets)) for targets in support]
        assert slots.slot_count == sum(map(len, slots.rows))

    def test_empty_vocabulary_rejected(self):
        corpus = t1_corpus()
        with pytest.raises(ValueError, match="vocabularies must be non-empty"):
            compile_corpus(ParallelCorpus(corpus.pairs, corpus.source_vocab, Vocabulary()))

    def test_source_id_outside_the_vocabulary_raises(self):
        small = t1_corpus()
        pairs = [small.pairs[0], SentencePair((len(small.source_vocab),), (0,))]
        with pytest.raises(UnknownTokenError, match="pair 2: source token id outside the vocabulary"):
            train(ParallelCorpus(pairs, small.source_vocab, small.target_vocab))

    def test_vocabulary_mismatch_raises(self):
        small = t1_corpus()
        big = random_corpus(1, max_pairs=10, source_types=12, target_types=12)
        with pytest.raises(UnknownTokenError):
            train(ParallelCorpus(big.pairs, small.source_vocab, small.target_vocab))


class TestMaximizeSmoothed:
    """One iteration of train is one M-step on the uniform E-step's counts."""

    def test_plain_mstep_t1(self, t1):
        table = train(t1, TrainConfig(iterations=1)).table
        assert table_prob(t1, table, "das", "the") == pytest.approx(0.5, abs=1e-12)
        assert table_prob(t1, table, "das", "house") == pytest.approx(0.25, abs=1e-12)
        assert table_prob(t1, table, "haus", "the") == pytest.approx(0.5, abs=1e-12)

    def test_add_one_lambda_one(self, t1):
        table = train(t1, TrainConfig(1, 1.0, AddOne())).table
        assert table_prob(t1, table, "das", "the") == pytest.approx(5 / 13, abs=1e-12)
        assert table_prob(t1, table, "das", "house") == pytest.approx(4 / 13, abs=1e-12)

    def test_add_one_matches_closed_form(self, t1, t1_counts):
        # lambda = n reproduces (count + n) / (count + n|F|) for every entry
        n = 2.5
        slots, counts, totals = t1_counts
        table = train(t1, TrainConfig(1, n, AddOne())).table
        for e in range(len(t1.source_vocab)):
            for f in range(len(t1.target_vocab)):
                closed = (slot_count(slots, counts, e, f) + n) / (totals[e] + n * 3)
                assert table.prob(e, f) == pytest.approx(closed, abs=1e-15)

    def test_negative_lambda_rejected(self, t1):
        with pytest.raises(ValueError):
            train(t1, TrainConfig(1, -0.5, AddOne()))

    def test_zero_denominator_row_goes_uniform(self, t1, t1_counts):
        # wipe one source word's counts to force the degenerate rule
        slots, counts, totals = t1_counts
        das = t1.source_vocab.words.index("das")
        for s in slot_maps(slots)[das].values():
            counts[s] = 0.0
        totals[das] = 0.0
        weights = compile_strategy(slots, AddingStrategy())
        table = build_table(t1, slots, maximize_smoothed(slots, counts, totals, weights, 0.0))
        assert table.prob(das, 0) == pytest.approx(1 / 3)
        assert row_total(table, das) == pytest.approx(1.0, abs=1e-12)


class TestTrain:
    def test_one_iteration_matches_hand_values(self, t1):
        table = train(t1, TrainConfig(iterations=1)).table
        assert table_prob(t1, table, "das", "the") == pytest.approx(0.5, abs=1e-12)
        assert table_prob(t1, table, "das", "house") == pytest.approx(0.25, abs=1e-12)
        assert table_prob(t1, table, "haus", "the") == pytest.approx(0.5, abs=1e-12)
        assert table_prob(t1, table, NULL, "the") == pytest.approx(0.5, abs=1e-12)

    def test_ten_iterations_match_reference_em(self, t1):
        table = train(t1, TrainConfig(iterations=10)).table
        src = [["das", "haus"], ["das", "buch"]]
        tgt = [["the", "house"], ["the", "book"]]
        oracle = reference_em(src, tgt, iterations=10)
        for e_word in t1.source_vocab.words:
            for f_word in t1.target_vocab.words:
                assert table_prob(t1, table, e_word, f_word) == pytest.approx(
                    oracle[(e_word, f_word)], abs=1e-12
                )
        assert table_prob(t1, table, "haus", "house") > table_prob(t1, table, "haus", "the")

    @pytest.mark.parametrize("seed", [2, 5, 8])
    def test_loglik_trace_nondecreasing(self, seed):
        corpus = random_corpus(seed, max_pairs=20)
        trace = train(corpus, TrainConfig(iterations=10)).log_likelihood_trace
        assert len(trace) == 10
        for before, after in zip(trace, trace[1:]):
            assert after >= before - 1e-9

    def test_deterministic(self):
        corpus = random_corpus(4, max_pairs=15)
        stats = occurrence_stats(corpus)
        config = TrainConfig(5, 0.3, make_strategy("add-dice", stats))
        first = train(corpus, config).table
        second = train(corpus, config).table
        assert first.rows == second.rows
        assert first.row_defaults == second.row_defaults

    @pytest.mark.parametrize("name", ["add-one", "add-source-count", "add-dice", "all-targets"])
    def test_lambda_zero_identity(self, name):
        # all-targets also weighs targets a row never co-occurs with; at
        # lambda = 0 the step runs with g = 0, so they get no zero entries
        corpus = random_corpus(6, max_pairs=15)
        stats = occurrence_stats(corpus)
        strategy = AllTargets(stats) if name == "all-targets" else make_strategy(name, stats)
        smoothed = train(corpus, TrainConfig(10, 0.0, strategy))
        baseline = train(corpus, TrainConfig(10, 0.0, None))
        assert smoothed.table.rows == baseline.table.rows
        assert smoothed.table.row_defaults == baseline.table.row_defaults
        assert smoothed.log_likelihood_trace == baseline.log_likelihood_trace

    @pytest.mark.parametrize("name", ["add-one", "add-source-count", "add-dice"])
    @pytest.mark.parametrize("lam", [0.0, 0.7, 5.0])
    def test_rows_normalized_after_every_mstep(self, name, lam):
        corpus = random_corpus(9, max_pairs=20)
        strategy = make_strategy(name, occurrence_stats(corpus))
        target_tokens = sum(len(p.target) for p in corpus.pairs)
        for totals, table in kernel_steps(corpus, strategy, lam, 3):
            assert sum(totals) == pytest.approx(target_tokens, abs=1e-9)
            for e in range(len(corpus.source_vocab)):
                assert row_total(table, e) == pytest.approx(1.0, abs=1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)
        with pytest.raises(ValueError):
            TrainConfig(lam=-1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="lambda"):
                TrainConfig(lam=bad, strategy=AddOne())
        with pytest.raises(ValueError, match="strategy"):
            TrainConfig(lam=0.5)

    @pytest.mark.parametrize("iterations", [2.5, 3.0, True, False, "3", None])
    def test_iterations_must_be_an_int(self, iterations):
        with pytest.raises(ValueError, match="iterations must be an integer"):
            TrainConfig(iterations=iterations)


def test_training_holds_little_beside_the_table():
    # above the table it returns, train may hold the links (4 B each) and a
    # few pointers per slot: the rows, one probability list and one count
    # list at a time.  About 21 B per slot on Python 3.10-3.13; an f -> slot
    # dict per row, or a second generation of counts, needs over 20 B more.
    corpus = random_corpus(7, max_pairs=600, max_len=10, source_types=300, target_types=300)
    strategy = make_strategy("add-one", occurrence_stats(corpus))
    slots = compile_corpus(corpus)
    slot_total, links = slots.slot_count, sum(len(slot_links) for _, slot_links in slots.pairs)
    assert slot_total > 5000  # large enough that fixed costs are noise
    del slots
    tracemalloc.start()
    try:
        result = train(corpus, TrainConfig(3, 0.1, strategy))  # kept: the table counts in held
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= 4 * links + 32 * slot_total


def relabelled(corpus, seed):
    """The same pairs with both vocabularies numbered in a shuffled order (NULL stays 0)."""
    rng = random.Random(seed)
    source_words, target_words = list(corpus.source_vocab.words[1:]), list(corpus.target_vocab.words)
    rng.shuffle(source_words)
    rng.shuffle(target_words)
    source_vocab, target_vocab = Vocabulary.with_null(), Vocabulary()
    for word in source_words:
        source_vocab.add(word)
    for word in target_words:
        target_vocab.add(word)
    pairs = [
        SentencePair(tuple(source_vocab.get(corpus.source_vocab.word(e)) for e in pair.source),
                     tuple(target_vocab.get(corpus.target_vocab.word(f)) for f in pair.target))
        for pair in corpus.pairs
    ]
    return ParallelCorpus(pairs, source_vocab, target_vocab)


def probs_by_word(corpus, table):
    return {
        (e_word, f_word): table_prob(corpus, table, e_word, f_word)
        for e_word in corpus.source_vocab.words for f_word in corpus.target_vocab.words
    }


def toy_train(corpus, name, lam):
    strategy = make_strategy(name, occurrence_stats(corpus)) if lam > 0 else None
    return train(corpus, TrainConfig(4, lam, strategy))


class TestOrder:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_vocabulary_order_changes_no_bit(self, name):
        toy = load_parallel_corpus(*toy_paths()[:2])
        for seed in range(3):
            other = relabelled(toy, seed)
            for lam in (0.01, 0.3, 5.0):
                expected, got = toy_train(toy, name, lam), toy_train(other, name, lam)
                assert probs_by_word(other, got.table) == probs_by_word(toy, expected.table)
                assert got.log_likelihood_trace == expected.log_likelihood_trace

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_pair_order_keeps_alignments_within_tolerance(self, name):
        # counts add up in corpus order, so only the last bits may move
        toy = load_parallel_corpus(*toy_paths()[:2])
        backwards = toy.subset(range(len(toy.pairs) - 1, -1, -1))
        for lam in (0.0, 0.01, 0.3, 5.0):
            expected, got = toy_train(toy, name, lam).table, toy_train(backwards, name, lam).table
            assert [viterbi_align(pair, got) for pair in toy.pairs] == \
                [viterbi_align(pair, expected) for pair in toy.pairs]
            want = probs_by_word(toy, expected)
            assert probs_by_word(toy, got) == pytest.approx(want, rel=1e-12, abs=0.0)
