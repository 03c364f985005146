import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsmooth import (
    DevSet,
    TrainConfig,
    adapt_annotation,
    alignment_error_count,
    corpus_from_tokens,
    evaluate_corpus,
    train,
    viterbi_align,
)
from alignsmooth.corpus import AnnotationEntry
from alignsmooth.evaluation import links_from_alignment

from helpers import hand_report, random_corpus, t1_corpus


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
        assert hand_report({(1, 1), (2, 2)}, set(), {(1, 1), (2, 2), (2, 3)}).precision == 1.0
        assert hand_report({(1, 2)}, set(), {(1, 1)}).precision == 0.0
        assert hand_report(set(), set(), {(1, 1)}).precision == 1.0

    def test_recall_examples(self):
        assert hand_report({(1, 1), (2, 2)}, {(1, 1)}).recall == 1.0
        assert hand_report(set(), {(1, 1)}).recall == 0.0
        assert hand_report({(1, 1)}, set()).recall == 1.0

    def test_aer_examples(self):
        assert hand_report({(1, 1), (2, 2)}, {(1, 1)}, {(1, 1), (2, 2)}).aer == 0.0
        assert hand_report({(1, 2)}, {(1, 1)}, {(1, 1)}).aer == 1.0
        links = {(1, 1), (2, 2), (3, 3)}
        sure = {(1, 1), (4, 4)}
        poss = {(1, 1), (2, 2), (4, 4)}
        # |P&A| = 2, |S&A| = 1, |A| = 3, |S| = 2
        assert hand_report(links, sure, poss).aer == pytest.approx(0.4)

    def test_aer_vacuous(self):
        assert hand_report(set(), set(), set()).aer == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_aer_monotonicity(self, seed):
        def aer(links):
            return hand_report(links, sure, poss).aer

        rng = random.Random(seed)
        universe = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        sure = set(rng.sample(universe, 3))
        poss = sure | set(rng.sample(universe, 4))
        # Viterbi links name each target position at most once
        links = {(rng.randrange(1, 5), j) for j in rng.sample(range(1, 5), 2)}
        free = [link for link in universe if link[1] not in {j for _, j in links}]
        base = aer(links)
        missing_sure = [link for link in free if link in sure]
        if missing_sure:
            assert aer(links | {missing_sure[0]}) <= base + 1e-12
        outside = [link for link in free if link not in poss]
        if outside:
            assert aer(links | {outside[0]}) >= base - 1e-12

    def test_aer_zero_iff_links_equal_sure_when_s_is_p(self):
        sure = {(1, 1), (2, 2)}
        assert hand_report(set(sure), sure, sure).aer == 0.0
        assert hand_report({(1, 1)}, sure, sure).aer > 0.0
        assert hand_report(sure | {(3, 3)}, sure, sure).aer > 0.0


def annotation_for(corpus, mapping):
    """mapping: pair index -> (sure links, possible links)."""
    return {
        k: AnnotationEntry(frozenset(s), frozenset(s) | frozenset(p))
        for k, (s, p) in mapping.items()
    }


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

    def test_empty_annotation_rejected(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        with pytest.raises(ValueError, match="no pairs to evaluate"):
            evaluate_corpus(table, corpus, {})

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

    def test_pair_subset(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        annotation = annotation_for(
            corpus, {0: ({(2, 2)}, set()), 1: ({(2, 2)}, set())}
        )
        full = evaluate_corpus(table, corpus, annotation)
        only_first = evaluate_corpus(table, corpus, {0: annotation[0]})
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
        backward_entries = {k: annotation[k] for k in (2, 1, 0)}
        forward = evaluate_corpus(table, corpus, annotation)
        backward = evaluate_corpus(table, corpus, backward_entries)
        assert forward == backward

    def test_report_serialization(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        annotation = annotation_for(corpus, {0: ({(2, 2)}, set())})
        report = evaluate_corpus(table, corpus, annotation)
        lines = report.to_tsv_lines()
        assert any(line.startswith("aer\t") for line in lines)
        assert "AER" in report.pretty()


def random_annotation(corpus, rng):
    """Sure and possible gold links, in range, on a random non-empty subset of pairs."""
    annotation = {}
    for k in rng.sample(range(len(corpus.pairs)), rng.randint(1, len(corpus.pairs))):
        pair = corpus.pairs[k]
        universe = [(i, j) for i in range(len(pair.source) + 1) for j in range(1, len(pair.target) + 1)]
        sure = set(rng.sample(universe, rng.randint(0, len(universe))))
        possible = sure | set(rng.sample(universe, rng.randint(0, len(universe))))
        annotation[k] = AnnotationEntry(frozenset(sure), frozenset(possible))
    return annotation


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), st.booleans())
def test_report_agrees_with_dev_set_and_per_link_recount(seed, iterations, emit_null):
    corpus = random_corpus(seed, max_pairs=12)
    table = train(corpus, TrainConfig(iterations=iterations)).table
    annotation = random_annotation(corpus, random.Random(seed))
    report = evaluate_corpus(table, corpus, annotation, emit_null)
    assert report.error_count == alignment_error_count(DevSet.from_annotations(corpus, annotation), table)

    total_links = total_sure = hit_possible = hit_sure = errors = 0
    for k, entry in annotation.items():
        pair = corpus.pairs[k]
        deduced = viterbi_align(pair, table)
        links = links_from_alignment(deduced, emit_null)
        total_links += len(links)
        total_sure += len(entry.sure)
        hit_possible += len(links & entry.possible)
        hit_sure += len(links & entry.sure)
        errors += sum(g != h for g, h in zip(adapt_annotation(entry, len(pair.target)), deduced))
    assert report.error_count == errors
    assert (report.pair_count, report.link_count, report.sure_count) == (len(annotation), total_links, total_sure)
    assert report.precision == (hit_possible / total_links if total_links else 1.0)
    assert report.recall == (hit_sure / total_sure if total_sure else 1.0)
    denom = total_links + total_sure
    assert report.aer == (1.0 - (hit_possible + hit_sure) / denom if denom else 0.0)
