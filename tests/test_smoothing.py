import pytest

from alignsmooth import (
    AddDice,
    AddingStrategy,
    AddOne,
    AddSourceCount,
    TrainConfig,
    UnknownTokenError,
    make_strategy,
    occurrence_stats,
    train,
)
from alignsmooth.corpus import NULL_ID
from alignsmooth.trainer import build_table, compile_corpus, compile_strategy, maximize_smoothed

from helpers import cooc_count, random_corpus, record_cooc_counts, row_total, t1_corpus, weight


def mstep_row(corpus, strategy, e):
    """t(.|e) after one M-step on all-zero counts at lambda 1: g(e, f) over the derived row sum."""
    slots = compile_corpus(corpus)
    zeros = [0.0] * slots.slot_count, [0.0] * len(slots.rows)
    table = build_table(corpus, slots, maximize_smoothed(slots, *zeros, compile_strategy(slots, strategy), 1.0))
    return [table.prob(e, f) for f in range(len(corpus.target_vocab))]


class BaseOnly(AddingStrategy):
    def base_weight(self, e):
        return 0.5 + e


class ExtrasOnly(AddingStrategy):
    def extra_weights(self, e):
        return {0: 1.0, 2: 0.5}


@pytest.fixture
def t1_stats():
    corpus = t1_corpus()
    return corpus, occurrence_stats(corpus)


class TestAddOne:
    def test_constant_one(self):
        strategy = AddOne()
        assert weight(strategy, 0, 0) == 1.0
        assert weight(strategy, 5, 2) == 1.0

    def test_row_sum_is_vocab_size(self):
        assert mstep_row(t1_corpus(), AddOne(), 1) == [1.0 / 3.0] * 3

    def test_keeps_no_statistics(self, t1_stats):
        # training holds the strategy, so statistics it kept would stay in memory
        assert make_strategy("add-one", t1_stats[1]).stats is None


class TestAddSourceCount:
    def test_counts_on_t1(self, t1_stats):
        corpus, stats = t1_stats
        strategy = AddSourceCount(stats)
        sv, tv = corpus.source_vocab, corpus.target_vocab
        das = sv.words.index("das")
        assert weight(strategy, das, tv.words.index("the")) == 2.0
        assert weight(strategy, das, tv.words.index("book")) == 2.0  # independent of f
        assert weight(strategy, sv.words.index("haus"), tv.words.index("the")) == 1.0

    def test_null_uses_pair_count(self, t1_stats):
        _, stats = t1_stats
        assert weight(AddSourceCount(stats), NULL_ID, 0) == 2.0

    def test_row_sum(self, t1_stats):
        corpus, stats = t1_stats
        das = corpus.source_vocab.words.index("das")
        assert mstep_row(corpus, AddSourceCount(stats), das) == [2.0 / (2.0 * 3)] * 3

    def test_unknown_source_raises(self, t1_stats):
        _, stats = t1_stats
        with pytest.raises(UnknownTokenError):
            weight(AddSourceCount(stats), 99, 0)


class TestAddDice:
    def test_t1_values(self, t1_stats):
        corpus, stats = t1_stats
        strategy = AddDice(stats)
        sv, tv = corpus.source_vocab, corpus.target_vocab
        assert weight(strategy, sv.words.index("das"), tv.words.index("the")) == pytest.approx(1.0)
        assert weight(strategy, sv.words.index("haus"), tv.words.index("the")) == pytest.approx(2 / 3)
        assert weight(strategy, sv.words.index("haus"), tv.words.index("book")) == 0.0

    def test_row_sum_covers_cooccurring_only(self, t1_stats):
        corpus, stats = t1_stats
        haus = corpus.source_vocab.words.index("haus")
        # haus co-occurs with the and house: 2/3 + 2/2
        row_sum = 2 / 3 + 1.0
        expected = [2 / 3 / row_sum, 1.0 / row_sum, 0.0]
        assert mstep_row(corpus, AddDice(stats), haus) == pytest.approx(expected)

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
            weights = [weight(strategy, e, f) for f in range(len(corpus.target_vocab))]
            expected = [g / sum(weights) for g in weights]
            assert mstep_row(corpus, strategy, e) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("strategy", [BaseOnly(), ExtrasOnly()], ids=["base-only", "extras-only"])
    def test_one_weight_method_is_enough(self, strategy):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(3, 0.7, strategy)).table
        for e in range(len(corpus.source_vocab)):
            assert row_total(table, e) == pytest.approx(1.0, abs=1e-12)

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


@pytest.mark.parametrize("name", ["add-one", "add-source-count", "add-dice"])
def test_train_counts_cooc_only_for_add_dice(monkeypatch, name):
    counted = record_cooc_counts(monkeypatch)
    corpus = random_corpus(3)
    stats = occurrence_stats(corpus)
    for lam in (0.5, 2.0):  # two strategies on one stats object
        train(corpus, TrainConfig(3, lam, make_strategy(name, stats)))
    assert [id(s) for s in counted] == ([id(stats)] if name == "add-dice" else [])
