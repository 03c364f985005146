import random

import pytest

from alignsmooth import (
    AnnotationSet,
    TrainConfig,
    aer,
    corpus_from_tokens,
    evaluate_corpus,
    precision,
    recall,
    train,
    viterbi_align,
)
from alignsmooth.corpus import AnnotationEntry
from alignsmooth.evaluation import links_from_alignment

from helpers import t1_corpus


class TestPredictedLinks:
    def test_direct_mapping(self):
        assert links_from_alignment((1, 2)) == {(1, 1), (2, 2)}

    def test_null_excluded_by_default(self):
        assert links_from_alignment((0, 2)) == {(2, 2)}

    def test_emit_null(self):
        assert links_from_alignment((0, 2), emit_null=True) == {(0, 1), (2, 2)}

    def test_from_table(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        alignment = viterbi_align(corpus.pairs[0], table)
        assert links_from_alignment(alignment) == {(2, 2)}
        assert links_from_alignment(alignment, emit_null=True) == {(0, 1), (2, 2)}


class TestMetrics:
    def test_precision_examples(self):
        assert precision({(1, 1), (2, 2)}, {(1, 1), (2, 2), (2, 3)}) == 1.0
        assert precision({(1, 2)}, {(1, 1)}) == 0.0
        assert precision(set(), {(1, 1)}) == 1.0

    def test_recall_examples(self):
        assert recall({(1, 1), (2, 2)}, {(1, 1)}) == 1.0
        assert recall(set(), {(1, 1)}) == 0.0
        assert recall({(1, 1)}, set()) == 1.0

    def test_aer_examples(self):
        assert aer({(1, 1), (2, 2)}, {(1, 1)}, {(1, 1), (2, 2)}) == 0.0
        assert aer({(1, 2)}, {(1, 1)}, {(1, 1)}) == 1.0
        links = {(1, 1), (2, 2), (3, 3)}
        sure = {(1, 1), (4, 4)}
        poss = {(1, 1), (2, 2), (4, 4)}
        # |P&A| = 2, |S&A| = 1, |A| = 3, |S| = 2
        assert aer(links, sure, poss) == pytest.approx(0.4)

    def test_aer_vacuous(self):
        assert aer(set(), set(), set()) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_aer_monotonicity(self, seed):
        rng = random.Random(seed)
        universe = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        sure = set(rng.sample(universe, 3))
        poss = sure | set(rng.sample(universe, 4))
        links = set(rng.sample(universe, 4))
        base = aer(links, sure, poss)
        missing_sure = list(sure - links)
        if missing_sure:
            assert aer(links | {missing_sure[0]}, sure, poss) <= base + 1e-12
        outside = [l for l in universe if l not in poss and l not in links]
        if outside:
            assert aer(links | {outside[0]}, sure, poss) >= base - 1e-12

    def test_aer_zero_iff_links_equal_sure_when_s_is_p(self):
        sure = {(1, 1), (2, 2)}
        assert aer(set(sure), sure, sure) == 0.0
        assert aer({(1, 1)}, sure, sure) > 0.0
        assert aer(sure | {(3, 3)}, sure, sure) > 0.0


def annotation_for(corpus, mapping):
    """mapping: pair index -> (sure links, possible links)."""
    return AnnotationSet(
        {
            k: AnnotationEntry(frozenset(s), frozenset(s) | frozenset(p))
            for k, (s, p) in mapping.items()
        }
    )


class TestEvaluateCorpus:
    def test_perfect_model_scores_zero(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=10)).table
        links = {
            k: links_from_alignment(viterbi_align(corpus.pairs[k], table))
            for k in range(2)
        }
        annotation = annotation_for(corpus, {k: (links[k], set()) for k in range(2)})
        report = evaluate_corpus(table, corpus, annotation)
        assert report.aer == 0.0
        assert report.precision == 1.0 and report.recall == 1.0
        assert report.error_count == 0

    def test_micro_average_sums_counts(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        # after one iteration both pairs align as (0, 2): one link each
        annotation = annotation_for(
            corpus,
            {0: ({(2, 2)}, set()), 1: ({(1, 1)}, set())},
        )
        report = evaluate_corpus(table, corpus, annotation)
        # pair 0: A={(2,2)} hit; pair 1: A={(2,2)} miss
        assert report.link_count == 2
        assert report.sure_count == 2
        assert report.aer == pytest.approx(1 - (1 + 1) / 4)

    def test_missing_annotation_names_pair(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        annotation = annotation_for(corpus, {0: ({(2, 2)}, set())})
        with pytest.raises(ValueError, match="pair 1"):
            evaluate_corpus(table, corpus, annotation, pair_subset=[0, 1])

    def test_pair_subset(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        annotation = annotation_for(
            corpus, {0: ({(2, 2)}, set()), 1: ({(2, 2)}, set())}
        )
        full = evaluate_corpus(table, corpus, annotation)
        only_first = evaluate_corpus(table, corpus, annotation, pair_subset=[0])
        assert only_first.pair_count == 1
        assert full.pair_count == 2

    def test_order_invariance(self):
        corpus = corpus_from_tokens(
            [["a", "b"], ["b", "a"], ["a", "c"]],
            [["x", "y"], ["y", "x"], ["x", "z"]],
        )
        table = train(corpus, TrainConfig(iterations=3)).table
        annotation = annotation_for(
            corpus,
            {0: ({(1, 1)}, set()), 1: ({(2, 2)}, set()), 2: ({(1, 1), (2, 2)}, set())},
        )
        forward = evaluate_corpus(table, corpus, annotation, pair_subset=[0, 1, 2])
        backward = evaluate_corpus(table, corpus, annotation, pair_subset=[2, 1, 0])
        assert forward == backward

    def test_report_serialization(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        annotation = annotation_for(corpus, {0: ({(2, 2)}, set())})
        report = evaluate_corpus(table, corpus, annotation)
        lines = report.to_tsv_lines()
        assert any(line.startswith("aer\t") for line in lines)
        assert "AER" in report.pretty()
