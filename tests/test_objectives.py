import math
import random
import re

import pytest

from alignsmooth import (
    DevSet,
    Objective,
    TrainConfig,
    TranslationTable,
    aligned_log_likelihood,
    alignment_error_count,
    corpus_from_tokens,
    dev_log_likelihood,
    smoothed_error_count,
    train,
)
from helpers import random_corpus, t1_corpus, uniform_init


def single_position_devset(p_null, p_word):
    """One pair with l=1, m=1 whose posterior is (p_null, p_word), gold NULL."""
    corpus = corpus_from_tokens([["w"]], [["x"]])
    sv, tv = corpus.source_vocab, corpus.target_vocab
    rows = {0: {tv.words.index("x"): p_null}, sv.words.index("w"): {tv.words.index("x"): p_word}}
    table = TranslationTable(rows, {}, sv, tv)
    dev = DevSet(pairs=tuple(corpus.pairs), alignments=((0,),))
    return dev, table


class TestDevLogLikelihood:
    def test_uniform_t1(self):
        corpus = t1_corpus()
        dev = DevSet.unannotated(corpus.pairs)
        table = uniform_init(corpus.source_vocab, corpus.target_vocab)
        assert dev_log_likelihood(dev, table) == pytest.approx(-4 * math.log(3), abs=1e-9)

    def test_single_term(self):
        corpus = corpus_from_tokens([["a"]], [["b"]])
        rows = {corpus.source_vocab.words.index("a"): {corpus.target_vocab.words.index("b"): 1.0}}
        table = TranslationTable(rows, {}, corpus.source_vocab, corpus.target_vocab)
        dev = DevSet.unannotated(corpus.pairs)
        assert dev_log_likelihood(dev, table) == pytest.approx(-math.log(2))

    def test_duplicated_pair_doubles(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=2)).table
        once = dev_log_likelihood(DevSet.unannotated(corpus.pairs[:1]), table)
        twice = dev_log_likelihood(DevSet.unannotated(corpus.pairs[:1] * 2), table)
        assert twice == pytest.approx(2 * once, abs=1e-12)

    def test_minus_inf_propagates(self):
        corpus = t1_corpus()
        table = TranslationTable({}, {}, corpus.source_vocab, corpus.target_vocab)
        assert dev_log_likelihood(DevSet.unannotated(corpus.pairs), table) == float("-inf")

    @pytest.mark.parametrize("seed", range(3))
    def test_order_invariant(self, seed):
        corpus = random_corpus(seed, max_pairs=10)
        table = train(corpus, TrainConfig(iterations=2)).table
        pairs = list(corpus.pairs)
        forward = dev_log_likelihood(DevSet.unannotated(pairs), table)
        backward = dev_log_likelihood(DevSet.unannotated(pairs[::-1]), table)
        assert forward == pytest.approx(backward, abs=1e-9)


class TestAlignedLogLikelihood:
    def test_t1_gold_links(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        dev = DevSet(pairs=(corpus.pairs[0],), alignments=((1, 2),))
        assert aligned_log_likelihood(dev, table) == pytest.approx(-2 * math.log(2), abs=1e-12)

    def test_all_null_gold(self):
        corpus = t1_corpus()
        tv = corpus.target_vocab
        rows = {0: {tv.words.index("the"): 0.5, tv.words.index("house"): 0.5}}
        table = TranslationTable(rows, {}, corpus.source_vocab, tv)
        dev = DevSet(pairs=(corpus.pairs[0],), alignments=((0, 0),))
        assert aligned_log_likelihood(dev, table) == pytest.approx(-2 * math.log(2))

    def test_zero_link_gives_minus_inf(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        dev = DevSet(pairs=(corpus.pairs[0],), alignments=((2, 1),))  # the->haus ok, house->das ok
        # force a zero: align "the" to a source word with zero probability for it
        impossible = DevSet(pairs=(corpus.pairs[1],), alignments=((2, 1),))
        # t(the|buch) > 0 after training on T1, so build an explicitly zeroed table
        empty = TranslationTable({}, {}, corpus.source_vocab, corpus.target_vocab)
        assert aligned_log_likelihood(impossible, empty) == float("-inf")
        assert aligned_log_likelihood(dev, table) > float("-inf")

    def test_requires_annotation(self):
        corpus = t1_corpus()
        table = uniform_init(corpus.source_vocab, corpus.target_vocab)
        dev = DevSet.unannotated(corpus.pairs)
        scorers = [aligned_log_likelihood, alignment_error_count, smoothed_error_count]
        scorers += [Objective(name).evaluate for name in ("ml-annotated", "error-count", "smoothed-error-count")]
        for score in scorers:
            with pytest.raises(ValueError, match="requires an annotated development set"):
                score(dev, table)

    def test_order_invariant(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=2)).table
        alignments = ((1, 2), (1, 2))
        forward = aligned_log_likelihood(
            DevSet(pairs=tuple(corpus.pairs), alignments=alignments), table
        )
        backward = aligned_log_likelihood(
            DevSet(pairs=tuple(corpus.pairs[::-1]), alignments=alignments[::-1]), table
        )
        assert forward == pytest.approx(backward, abs=1e-12)


class TestAlignmentErrorCount:
    def test_perfect_agreement(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        dev = DevSet(pairs=(corpus.pairs[0],), alignments=((0, 2),))
        assert alignment_error_count(dev, table) == 0

    def test_counts_tie_break_mismatch(self):
        # gold says the->das but the Viterbi tie resolves to NULL
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        dev = DevSet(pairs=(corpus.pairs[0],), alignments=((1, 2),))
        assert alignment_error_count(dev, table) == 1

    def test_two_pair_sum(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        dev = DevSet(
            pairs=tuple(corpus.pairs),
            alignments=((1, 2), (1, 2)),
        )
        assert alignment_error_count(dev, table) == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_bounded_by_target_tokens(self, seed):
        corpus = random_corpus(seed, max_pairs=8)
        table = train(corpus, TrainConfig(iterations=2)).table
        rng = random.Random(seed)
        alignments = tuple(
            tuple(rng.randint(0, len(p.source)) for _ in range(len(p.target)))
            for p in corpus.pairs
        )
        dev = DevSet(pairs=tuple(corpus.pairs), alignments=alignments)
        m_total = sum(len(p.target) for p in corpus.pairs)
        assert 0 <= alignment_error_count(dev, table) <= m_total


class TestSmoothedErrorCount:
    def test_alpha_one(self):
        dev, table = single_position_devset(0.8, 0.2)
        assert smoothed_error_count(dev, table, alpha=1.0) == pytest.approx(0.2, abs=1e-12)

    def test_alpha_two(self):
        dev, table = single_position_devset(0.8, 0.2)
        expected = 1.0 - 0.64 / 0.68
        assert smoothed_error_count(dev, table, alpha=2.0) == pytest.approx(expected, abs=1e-9)

    def test_uniform_posterior_keeps_two_thirds(self):
        corpus = t1_corpus()
        table = uniform_init(corpus.source_vocab, corpus.target_vocab)
        dev = DevSet(pairs=(corpus.pairs[0],), alignments=((1, 2),))
        for alpha in (1.0, 10.0, 200.0):
            value = smoothed_error_count(dev, table, alpha=alpha)
            assert value == pytest.approx(2 * (1 - 1 / 3), abs=1e-9)

    def test_alpha_validation(self):
        dev, table = single_position_devset(0.8, 0.2)
        with pytest.raises(ValueError):
            smoothed_error_count(dev, table, alpha=0.5)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                smoothed_error_count(dev, table, alpha=bad)
            with pytest.raises(ValueError, match="alpha"):
                Objective("smoothed-error-count", bad)

    def test_zero_probability_link_weighs_nothing(self):
        # posterior (1/3, 2/3, 0): the link to "v" scores zero under the table
        corpus = corpus_from_tokens([["w", "v"]], [["x"]])
        sv, tv = corpus.source_vocab, corpus.target_vocab
        x = tv.words.index("x")
        table = TranslationTable({0: {x: 0.3}, sv.words.index("w"): {x: 0.6}}, {}, sv, tv)
        to_w = DevSet(pairs=tuple(corpus.pairs), alignments=((1,),))
        to_v = DevSet(pairs=tuple(corpus.pairs), alignments=((2,),))
        assert smoothed_error_count(to_w, table, alpha=10.0) == pytest.approx(1 / 1025, rel=1e-12)
        assert smoothed_error_count(to_v, table, alpha=10.0) == 1.0

    def test_large_alpha_stays_finite(self):
        dev, table = single_position_devset(0.999, 0.001)
        value = smoothed_error_count(dev, table, alpha=5000.0)
        assert 0.0 <= value <= 1.0

    def test_gold_at_argmax_dominates(self):
        # gold = argmax everywhere, so the relaxation goes to ~0 for large alpha
        dev, table = single_position_devset(0.8, 0.2)
        assert smoothed_error_count(dev, table, alpha=200.0) < 0.5 / 2

    def test_gold_at_argmax_below_half_total_multi_position(self):
        corpus = corpus_from_tokens([["a", "b"]], [["x", "y"]])
        sv, tv = corpus.source_vocab, corpus.target_vocab
        rows = {
            0: {tv.words.index("x"): 0.1, tv.words.index("y"): 0.1},
            sv.words.index("a"): {tv.words.index("x"): 0.7, tv.words.index("y"): 0.2},
            sv.words.index("b"): {tv.words.index("x"): 0.2, tv.words.index("y"): 0.7},
        }
        table = TranslationTable(rows, {}, sv, tv)
        dev = DevSet(pairs=tuple(corpus.pairs), alignments=((1, 2),))
        m_total = 2
        assert smoothed_error_count(dev, table, alpha=50.0) < m_total / 2

    @pytest.mark.parametrize("seed", range(3))
    def test_bounds(self, seed):
        corpus = random_corpus(seed, max_pairs=6)
        table = train(corpus, TrainConfig(iterations=2)).table
        rng = random.Random(seed + 50)
        alignments = tuple(
            tuple(rng.randint(0, len(p.source)) for _ in range(len(p.target)))
            for p in corpus.pairs
        )
        dev = DevSet(pairs=tuple(corpus.pairs), alignments=alignments)
        m_total = sum(len(p.target) for p in corpus.pairs)
        value = smoothed_error_count(dev, table, alpha=10.0)
        assert 0.0 <= value <= m_total


class TestObjectiveDispatch:
    def test_directions(self):
        assert Objective("ml-unannotated").maximize
        assert Objective("ml-annotated").maximize
        assert not Objective("error-count").maximize
        assert not Objective("smoothed-error-count").maximize

    def test_annotation_requirements(self):
        assert not Objective("ml-unannotated").requires_annotation
        assert Objective("error-count").requires_annotation

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            Objective("aer")

    def test_evaluate_matches_functions(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        dev = DevSet(pairs=tuple(corpus.pairs), alignments=((1, 2), (1, 2)))
        assert Objective("error-count").evaluate(dev, table) == alignment_error_count(dev, table)
        assert Objective("smoothed-error-count", alpha=3.0).evaluate(dev, table) == (
            pytest.approx(smoothed_error_count(dev, table, alpha=3.0))
        )

    @pytest.mark.parametrize("alignments,message", [
        (((1,), (1, 2)), "gold alignment length must match target length"),
        (((1, 3), (1, 2)), "gold alignment positions must lie in 0..l"),
    ], ids=["length", "position"])
    def test_devset_rejects_bad_gold(self, alignments, message):
        corpus = t1_corpus()
        with pytest.raises(ValueError, match=re.escape(message)):
            DevSet(pairs=tuple(corpus.pairs), alignments=alignments)

    def test_devset_validation(self):
        corpus = t1_corpus()
        with pytest.raises(ValueError):
            DevSet(pairs=())
        with pytest.raises(ValueError):
            DevSet(pairs=tuple(corpus.pairs), alignments=((1,),))
