import re

import pytest

from alignsmooth import (
    DataFormatError,
    adapt_annotation,
    corpus_from_tokens,
    load_annotations,
    load_parallel_corpus,
    occurrence_stats,
    split_annotated,
    split_unannotated,
)
from alignsmooth.corpus import NULL_ID, NULL_TOKEN, AnnotationEntry
from alignsmooth.data import toy_paths

from helpers import cooc_count, dict_cooc, ordered, random_corpus, record_cooc_counts, t1_corpus, tokens


def write_corpus(tmp_path, source_text, target_text):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src.write_text(source_text, encoding="utf-8")
    tgt.write_text(target_text, encoding="utf-8")
    return str(src), str(tgt)


class TestLoadParallelCorpus:
    def test_t1_shapes(self, tmp_path):
        src, tgt = write_corpus(tmp_path, "das haus\ndas buch\n", "the house\nthe book\n")
        corpus = load_parallel_corpus(src, tgt)
        assert len(corpus.pairs) == 2
        assert len(corpus.source_vocab) == 4  # NULL, das, haus, buch
        assert len(corpus.target_vocab) == 3
        assert corpus.source_vocab.word(NULL_ID) == NULL_TOKEN

    def test_single_pair(self, tmp_path):
        src, tgt = write_corpus(tmp_path, "a\n", "b\n")
        corpus = load_parallel_corpus(src, tgt)
        assert len(corpus.pairs) == 1
        assert len(corpus.pairs[0].source) == 1
        assert len(corpus.pairs[0].target) == 1

    def test_line_count_mismatch(self, tmp_path):
        src, tgt = write_corpus(tmp_path, "a\nb\n", "x\ny\nz\n")
        with pytest.raises(DataFormatError, match="2.*3"):
            load_parallel_corpus(src, tgt)

    def test_empty_line_reports_number(self, tmp_path):
        src, tgt = write_corpus(tmp_path, "a\n\nb\n", "x\ny\nz\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_parallel_corpus(src, tgt)

    @pytest.mark.parametrize("source,target", [([["a"], []], [["x"], ["y"]]), ([["a"], ["b"]], [[], ["y"]])],
                             ids=["source", "target"])
    def test_empty_sentence_rejected(self, source, target):
        with pytest.raises(DataFormatError, match="sentences must contain at least one token"):
            corpus_from_tokens(source, target)

    def test_empty_file(self, tmp_path):
        src, tgt = write_corpus(tmp_path, "", "")
        with pytest.raises(DataFormatError):
            load_parallel_corpus(src, tgt)

    def test_lowercase_switch(self, tmp_path):
        src, tgt = write_corpus(tmp_path, "Das Haus\n", "The House\n")
        corpus = load_parallel_corpus(src, tgt, lowercase=True)
        assert "das" in corpus.source_vocab.words
        assert "Das" not in corpus.source_vocab.words

    def test_round_trip_ids(self, tmp_path):
        corpus = random_corpus(31, max_pairs=20)
        src_lines = "\n".join(" ".join(tokens(corpus.source_vocab, p.source)) for p in corpus.pairs)
        tgt_lines = "\n".join(" ".join(tokens(corpus.target_vocab, p.target)) for p in corpus.pairs)
        src, tgt = write_corpus(tmp_path, src_lines + "\n", tgt_lines + "\n")
        reloaded = load_parallel_corpus(src, tgt)
        assert [p.source for p in reloaded.pairs] == [p.source for p in corpus.pairs]
        assert [p.target for p in reloaded.pairs] == [p.target for p in corpus.pairs]


class TestOccurrenceStats:
    def test_t1_counts(self):
        corpus = t1_corpus()
        stats = occurrence_stats(corpus)
        sv, tv = corpus.source_vocab, corpus.target_vocab
        assert stats.source_count(sv.words.index("das")) == 2
        assert stats.source_count(sv.words.index("haus")) == 1
        assert cooc_count(stats, sv.words.index("das"), tv.words.index("the")) == 2
        assert cooc_count(stats, sv.words.index("haus"), tv.words.index("book")) == 0

    def test_null_count_is_pair_count(self):
        stats = occurrence_stats(t1_corpus())
        assert stats.source_count(NULL_ID) == 2

    def test_presence_based_cooc(self):
        corpus = corpus_from_tokens([["a", "a"]], [["b"]])
        stats = occurrence_stats(corpus)
        sv, tv = corpus.source_vocab, corpus.target_vocab
        assert stats.source_count(sv.words.index("a")) == 2
        assert cooc_count(stats, sv.words.index("a"), tv.words.index("b")) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_cooc_bounded_by_occurrences(self, seed):
        corpus = random_corpus(seed, max_pairs=15)
        stats = occurrence_stats(corpus)
        for e, row in stats.cooc.items():
            for f, c in row.items():
                assert c <= stats.source_count(e)
                assert c <= stats.target_counts[f]

    def test_cooc_is_counted_on_first_read_once(self, monkeypatch):
        counted = record_cooc_counts(monkeypatch)
        corpus = load_parallel_corpus(*toy_paths()[:2])
        stats = occurrence_stats(corpus)
        assert counted == [] and "cooc" not in vars(stats)
        first = stats.cooc
        assert stats.cooc is first
        assert len(counted) == 1 and counted[0] is stats
        assert ordered(first) == ordered(dict_cooc(corpus))


class TestAnnotations:
    def test_basic_record(self, tmp_path):
        corpus = t1_corpus()
        path = tmp_path / "ann.txt"
        path.write_text("# comment\n1 1 1 S\n", encoding="utf-8")
        ann = load_annotations(str(path), corpus)
        assert ann[0].sure == {(1, 1)}
        assert (1, 1) in ann[0].possible

    def test_sure_and_possible_no_duplicates(self, tmp_path):
        corpus = t1_corpus()
        path = tmp_path / "ann.txt"
        path.write_text("1 2 2 S\n1 2 2 P\n", encoding="utf-8")
        ann = load_annotations(str(path), corpus)
        assert ann[0].sure == {(2, 2)}
        assert ann[0].possible == {(2, 2)}

    def test_out_of_range_source_position(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("1 9 1 S\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="record 1"):
            load_annotations(str(path), t1_corpus())

    @pytest.mark.parametrize("record,message", [
        ("1 x 1 S", "record 1: non-integer position in '1 x 1 S'"),
        ("1 1 3 S", "record 1: target position 3 out of range (target length 2)"),
    ], ids=["non-integer", "target-out-of-range"])
    def test_bad_position_names_the_record(self, tmp_path, record, message):
        path = tmp_path / "ann.txt"
        path.write_text(record + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_annotations(str(path), t1_corpus())

    def test_out_of_range_pair_index(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("7 1 1 S\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="record 1"):
            load_annotations(str(path), t1_corpus())

    def test_unknown_flag(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("1 1 1 Q\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="flag"):
            load_annotations(str(path), t1_corpus())

    def test_null_source_position_allowed(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("1 0 1 S\n", encoding="utf-8")
        ann = load_annotations(str(path), t1_corpus())
        assert ann[0].sure == {(0, 1)}


class TestAdaptAnnotation:
    def entry(self, sure):
        return AnnotationEntry(frozenset(sure), frozenset(sure))

    def test_unique_links(self):
        assert adapt_annotation(self.entry({(1, 1), (2, 2)}), 2) == (1, 2)

    def test_unlinked_targets_go_to_null(self):
        assert adapt_annotation(self.entry(set()), 2) == (0, 0)

    def test_tie_takes_smallest_source(self):
        assert adapt_annotation(self.entry({(1, 1), (2, 1)}), 1) == (1,)

    @pytest.mark.parametrize("seed", range(4))
    def test_output_in_range(self, seed):
        import random

        rng = random.Random(seed)
        l, m = rng.randint(1, 6), rng.randint(1, 6)
        sure = {
            (rng.randint(0, l), rng.randint(1, m)) for _ in range(rng.randint(0, 8))
        }
        restricted = adapt_annotation(self.entry(sure), m)
        assert len(restricted) == m
        assert all(0 <= i <= l for i in restricted)


def make_annotation(n):
    return {i: AnnotationEntry(frozenset({(1, 1)}), frozenset({(1, 1)})) for i in range(n)}


class TestSplits:
    def test_annotated_150_into_50(self):
        dev, test = split_annotated(make_annotation(150), 50, seed=3)
        assert len(dev) == 50 and len(test) == 100
        assert not set(dev) & set(test)
        assert set(dev) | set(test) == set(range(150))

    def test_annotated_500_into_100(self):
        dev, test = split_annotated(make_annotation(500), 100, seed=3)
        assert len(dev) == 100 and len(test) == 400

    def test_annotated_deterministic(self):
        first = split_annotated(make_annotation(40), 10, seed=9)
        second = split_annotated(make_annotation(40), 10, seed=9)
        assert set(first[0]) == set(second[0])

    def test_annotated_k_out_of_range(self):
        with pytest.raises(ValueError):
            split_annotated(make_annotation(10), 10, seed=1)
        with pytest.raises(ValueError):
            split_annotated(make_annotation(10), 0, seed=1)

    def test_unannotated_floor_sizes(self):
        corpus = corpus_from_tokens([["a"]] * 100, [["x"]] * 100)
        train_part, dev_part = split_unannotated(corpus, 0.1, seed=2)
        assert len(train_part.pairs) == 90
        assert len(dev_part.pairs) == 10

    def test_unannotated_half_of_two(self):
        corpus = corpus_from_tokens([["a"], ["b"]], [["x"], ["y"]])
        train_part, dev_part = split_unannotated(corpus, 0.5, seed=0)
        assert len(train_part.pairs) == 1 and len(dev_part.pairs) == 1

    def test_unannotated_degenerate_fraction(self):
        corpus = corpus_from_tokens([["a"], ["b"]], [["x"], ["y"]])
        with pytest.raises(ValueError):
            split_unannotated(corpus, 1.0, seed=0)

    def test_unannotated_partition(self):
        corpus = random_corpus(11, max_pairs=30)
        train_part, dev_part = split_unannotated(corpus, 0.3, seed=4)
        assert len(train_part.pairs) + len(dev_part.pairs) == len(corpus.pairs)
        assert train_part.source_vocab is corpus.source_vocab
