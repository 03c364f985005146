import pytest

from alignsmooth import (
    AddDice,
    AddOne,
    AddSourceCount,
    UnknownTokenError,
    make_strategy,
    occurrence_stats,
)
from alignsmooth.corpus import NULL_ID

from helpers import cooc_count, random_corpus, t1_corpus, weight


@pytest.fixture
def t1_stats():
    corpus = t1_corpus()
    return corpus, occurrence_stats(corpus)


class TestAddOne:
    def test_constant_one(self):
        strategy = AddOne(3)
        assert weight(strategy, 0, 0) == 1.0
        assert weight(strategy, 5, 2) == 1.0

    def test_row_sum_is_vocab_size(self):
        assert AddOne(3).row_sum(1) == 3.0


class TestAddSourceCount:
    def test_counts_on_t1(self, t1_stats):
        corpus, stats = t1_stats
        strategy = AddSourceCount(stats)
        sv, tv = corpus.source_vocab, corpus.target_vocab
        das = sv.id("das")
        assert weight(strategy, das, tv.id("the")) == 2.0
        assert weight(strategy, das, tv.id("book")) == 2.0  # independent of f
        assert weight(strategy, sv.id("haus"), tv.id("the")) == 1.0

    def test_null_uses_pair_count(self, t1_stats):
        _, stats = t1_stats
        assert weight(AddSourceCount(stats), NULL_ID, 0) == 2.0

    def test_row_sum(self, t1_stats):
        corpus, stats = t1_stats
        strategy = AddSourceCount(stats)
        assert strategy.row_sum(corpus.source_vocab.id("das")) == 2.0 * 3

    def test_unknown_source_raises(self, t1_stats):
        _, stats = t1_stats
        with pytest.raises(UnknownTokenError):
            weight(AddSourceCount(stats), 99, 0)


class TestAddDice:
    def test_t1_values(self, t1_stats):
        corpus, stats = t1_stats
        strategy = AddDice(stats)
        sv, tv = corpus.source_vocab, corpus.target_vocab
        assert weight(strategy, sv.id("das"), tv.id("the")) == pytest.approx(1.0)
        assert weight(strategy, sv.id("haus"), tv.id("the")) == pytest.approx(2 / 3)
        assert weight(strategy, sv.id("haus"), tv.id("book")) == 0.0

    def test_row_sum_covers_cooccurring_only(self, t1_stats):
        corpus, stats = t1_stats
        strategy = AddDice(stats)
        haus = corpus.source_vocab.id("haus")
        # haus co-occurs with the and house: 2/3 + 2/2
        assert strategy.row_sum(haus) == pytest.approx(2 / 3 + 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_bounds_and_zero_iff_no_cooc(self, seed):
        corpus = random_corpus(seed, max_pairs=12)
        stats = occurrence_stats(corpus)
        strategy = AddDice(stats)
        for e in range(len(corpus.source_vocab)):
            for f in range(len(corpus.target_vocab)):
                g = weight(strategy, e, f)
                assert 0.0 <= g <= 1.0
                assert (g == 0.0) == (cooc_count(stats, e, f) == 0)


class TestStrategyContracts:
    @pytest.mark.parametrize("name", ["add-one", "add-source-count", "add-dice"])
    def test_row_sum_matches_explicit_sum(self, name):
        corpus = random_corpus(3, max_pairs=10)
        stats = occurrence_stats(corpus)
        strategy = make_strategy(name, stats)
        for e in range(len(corpus.source_vocab)):
            explicit = sum(weight(strategy, e, f) for f in range(len(corpus.target_vocab)))
            assert strategy.row_sum(e) == pytest.approx(explicit, abs=1e-9)

    @pytest.mark.parametrize("name", ["add-one", "add-source-count", "add-dice"])
    def test_pure_function(self, name):
        corpus = t1_corpus()
        strategy = make_strategy(name, occurrence_stats(corpus))
        pairs = [(e, f) for e in range(4) for f in range(3)]
        first = [weight(strategy, e, f) for e, f in pairs]
        second = [weight(strategy, e, f) for e, f in pairs]
        assert first == second

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_strategy("add-zipf", occurrence_stats(t1_corpus()))

    def test_non_negative_everywhere(self):
        corpus = random_corpus(8, max_pairs=10)
        stats = occurrence_stats(corpus)
        for name in ("add-one", "add-source-count", "add-dice"):
            strategy = make_strategy(name, stats)
            for e in range(len(corpus.source_vocab)):
                for f in range(len(corpus.target_vocab)):
                    assert weight(strategy, e, f) >= 0.0
