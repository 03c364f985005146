import pickle
import random
import re
import tracemalloc
from copy import deepcopy
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from alignsmooth.corpus import NULL_ID, NULL_TOKEN, AnnotationEntry, SentencePair, read_token_lines
from alignsmooth.data import toy_paths

from helpers import (
    cooc_count,
    dict_cooc,
    naive_corpus_from_tokens,
    ordered,
    random_corpus,
    record_cooc_counts,
    t1_corpus,
    tokens,
)


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

    @pytest.mark.parametrize("source,target,side", [([["a"], []], [["x"], ["y"]], "source"),
                                                    ([["a"], ["b"]], [["x"], []], "target")],
                             ids=["source", "target"])
    def test_empty_sentence_rejected(self, source, target, side):
        with pytest.raises(DataFormatError, match="sentences must contain at least one token") as caught:
            corpus_from_tokens(source, target)
        assert str(caught.value).startswith(f"{side}: line 2: ")

    def test_empty_sentence_names_the_side_given(self):
        with pytest.raises(DataFormatError, match="^corpus.en: line 2: sentences must"):
            corpus_from_tokens([["a"], ["b"]], [["x"], []], "corpus.de", "corpus.en")

    @pytest.mark.parametrize("word", ["", "x y", " x", "x\n", "a\u2028b"])
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_word_a_model_file_cannot_hold_rejected(self, word, side):
        good = [["a", "b"], ["b"]]
        bad = [["x", word], ["x"]] if side == "source" else [["x"], ["x", word]]
        source, target = (bad, good) if side == "source" else (good, bad)
        line = 1 if side == "source" else 2
        with pytest.raises(DataFormatError, match=f"^{side}: line {line}: a word must be one token") as caught:
            corpus_from_tokens(source, target)
        assert repr(word) in str(caught.value)

    def test_empty_target_word_rejected_before_training(self):
        # a model file cannot hold the empty word: written, this would read back with 2 target words, not 3
        with pytest.raises(DataFormatError, match="^target: line 1: a word must be one token.*''"):
            corpus_from_tokens([["a", "b"], ["b"]], [["x", ""], ["x y"]])

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


class TestReadTokenLines:
    def test_equal_tokens_share_one_str(self, tmp_path):
        rng = random.Random(5)
        lines = [" ".join(f"w{rng.randrange(300)}" for _ in range(rng.randint(3, 30))) for _ in range(2000)]
        path = tmp_path / "source.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            sentences = read_token_lines(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sentences == [line.split() for line in lines]
        tokens_read = sum(map(len, sentences))
        assert tokens_read > 30000
        # a list slot per token plus one str per type: about 15 B a token; a str per token makes it about 67 B
        assert held <= 24 * tokens_read
        first = {}
        for sentence in sentences:
            for token in sentence:
                assert first.setdefault(token, token) is token


class TestSentencePair:
    def test_a_pair_holds_no_instance_dict(self):
        source, target = (1, 2), (3,)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pairs = [SentencePair(source, target) for _ in range(5000)]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert not hasattr(pairs[0], "__dict__")
        # about 56 B a slotted pair with its list slot, and 97 B with a __dict__ (Python 3.11)
        assert held <= 72 * len(pairs)

    def test_copies_compare_and_hash_equal(self):
        pair = SentencePair((1, 2), (3,))
        for copy in (pickle.loads(pickle.dumps(pair)), deepcopy(pair), replace(pair)):
            assert copy == pair and hash(copy) == hash(pair)
        assert replace(pair, target=(4,)) == SentencePair((1, 2), (4,))
        with pytest.raises(AttributeError):
            pair.source = (2,)


good_words = st.sampled_from(["a", "b", "c"]) | st.text("ab\u00e9", min_size=1, max_size=2)
target_words = good_words | st.just(NULL_TOKEN)  # NULL names no target word, so a target may hold it
any_words = good_words | st.sampled_from(["", "x y", "\t", " a", NULL_TOKEN])


def same_lines(pair_count, source_word, target_word, min_size):
    """Equal line counts of sentences drawn from the given words."""
    def sentences(word):
        return st.lists(st.lists(word, min_size=min_size, max_size=6), min_size=pair_count, max_size=pair_count)

    return st.tuples(sentences(source_word), sentences(target_word))


def outcome(build, source, target):
    try:
        corpus = build(source, target, "src", "tgt")
    except DataFormatError as err:
        return str(err)
    return corpus.source_vocab.words, corpus.target_vocab.words, corpus.pairs


class TestCorpusFromTokens:
    @given(st.integers(1, 8).flatmap(lambda n: same_lines(n, good_words, target_words, 1)))
    def test_equals_a_per_token_vocabulary_loop(self, sentences):
        got = corpus_from_tokens(*sentences)
        want = naive_corpus_from_tokens(*sentences)
        assert got.source_vocab.words == want.source_vocab.words
        assert got.target_vocab.words == want.target_vocab.words
        assert [got.source_vocab.get(w) for w in want.source_vocab.words] == list(range(len(want.source_vocab)))
        assert got.pairs == want.pairs

    @given(st.integers(0, 5).flatmap(lambda n: same_lines(n, any_words, any_words, 0)) |
           st.tuples(st.lists(st.lists(good_words, min_size=1), max_size=3),
                     st.lists(st.lists(good_words, min_size=1), max_size=3)))
    def test_errors_come_as_a_per_token_loop_raises_them(self, sentences):
        assert outcome(corpus_from_tokens, *sentences) == outcome(naive_corpus_from_tokens, *sentences)

    @pytest.mark.parametrize("source,target,message", [
        ([[]], [[], []], "line count mismatch"),
        ([], [], "corpus is empty"),
        ([["a", ""], []], [["x"], ["y"]], "src: line 1: a word must be one token"),
        ([["a"], [NULL_TOKEN]], [["x"], ["y", ""]], f"src: line 2: {NULL_TOKEN} is reserved"),
        ([["a"], [NULL_TOKEN]], [["x"], []], "tgt: line 2: sentences must contain at least one token"),
        ([["a"], [NULL_TOKEN, "b c"]], [["x"], ["y"]], f"src: line 2: {NULL_TOKEN} is reserved"),
    ], ids=["mismatch-before-empty-corpus", "empty-corpus", "first-bad-line", "null-before-bad-word",
            "empty-before-null", "null-before-bad-word-on-its-side"])
    def test_error_order(self, source, target, message):
        for build in (corpus_from_tokens, naive_corpus_from_tokens):
            with pytest.raises(DataFormatError, match=f"^{re.escape(message)}"):
                build(source, target, "src", "tgt")


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
