import math
import os
import random

import pytest

from alignsmooth import (
    TrainConfig,
    TranslationTable,
    UnknownTokenError,
    Vocabulary,
    corpus_from_tokens,
    link_posterior,
    pair_log_likelihood,
    read_table,
    train,
    viterbi_align,
    write_table,
)
from alignsmooth.corpus import NULL_TOKEN, SentencePair
from alignsmooth.model import float_sum

from helpers import random_corpus, row_total, t1_corpus, uniform_init


def vocabs(n_source, n_target):
    source = Vocabulary.with_null()
    for i in range(n_source):
        source.add(f"s{i}")
    target = Vocabulary()
    for i in range(n_target):
        target.add(f"t{i}")
    return source, target


def random_table(seed, corpus):
    """Random positive rows over each pair's own targets, unnormalized."""
    rng = random.Random(seed)
    rows = {}
    for pair in corpus.pairs:
        for e in (0,) + pair.source:
            row = rows.setdefault(e, {})
            for f in pair.target:
                row[f] = rng.uniform(0.01, 1.0)
    return TranslationTable(rows, {}, corpus.source_vocab, corpus.target_vocab)


class TestUniformInit:
    def test_entries_are_one_over_f(self):
        source, target = vocabs(2, 3)
        table = uniform_init(source, target)
        assert table.prob(1, 0) == pytest.approx(1 / 3, abs=0)
        assert table.prob(0, 2) == pytest.approx(1 / 3, abs=0)

    def test_single_target_word(self):
        source, target = vocabs(2, 1)
        table = uniform_init(source, target)
        assert table.prob(1, 0) == 1.0

    def test_rows_sum_to_one(self):
        source, target = vocabs(4, 7)
        table = uniform_init(source, target)
        for e in range(len(source)):
            assert row_total(table, e) == pytest.approx(1.0, abs=1e-12)

    def test_empty_vocab_rejected(self):
        source, _ = vocabs(2, 3)
        with pytest.raises(ValueError):
            uniform_init(source, Vocabulary())


class TestLinkPosterior:
    def test_uniform_table_is_uniform(self):
        corpus = t1_corpus()
        table = uniform_init(corpus.source_vocab, corpus.target_vocab)
        posterior = link_posterior(corpus.pairs[0], table)
        for row in posterior:
            assert row == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_hand_example(self):
        # t(house|haus)=1/2, t(house|das)=1/4, t(house|NULL)=1/4
        corpus = t1_corpus()
        sv, tv = corpus.source_vocab, corpus.target_vocab
        house = tv.words.index("house")
        das, haus = sv.words.index("das"), sv.words.index("haus")
        rows = {0: {house: 0.25}, das: {house: 0.25}, haus: {house: 0.5}}
        table = TranslationTable(rows, {}, sv, tv)
        pair = SentencePair((das, haus), (house,))
        assert link_posterior(pair, table)[0] == pytest.approx([0.25, 0.25, 0.5])

    def test_all_zero_column_goes_uniform(self):
        corpus = t1_corpus()
        table = TranslationTable({}, {}, corpus.source_vocab, corpus.target_vocab)
        posterior = link_posterior(corpus.pairs[0], table)
        assert posterior[0] == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_unknown_id_raises(self):
        corpus = t1_corpus()
        table = uniform_init(corpus.source_vocab, corpus.target_vocab)
        bad = SentencePair((99,), (0,))
        with pytest.raises(UnknownTokenError):
            link_posterior(bad, table)

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one(self, seed):
        corpus = random_corpus(seed, max_pairs=10)
        table = random_table(seed, corpus)
        for pair in corpus.pairs:
            for row in link_posterior(pair, table):
                assert sum(row) == pytest.approx(1.0, abs=1e-9)


class TestViterbi:
    def test_after_one_iteration_house(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        alignment = viterbi_align(corpus.pairs[0], table)
        assert alignment[1] == 2  # house -> haus

    def test_after_one_iteration_the_breaks_tie_to_null(self):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        alignment = viterbi_align(corpus.pairs[0], table)
        assert alignment[0] == 0  # three-way tie at 1/2; smallest index wins

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_posterior_argmax(self, seed):
        corpus = random_corpus(seed, max_pairs=8)
        table = random_table(seed + 100, corpus)
        for pair in corpus.pairs:
            alignment = viterbi_align(pair, table)
            for j, row in enumerate(link_posterior(pair, table)):
                assert row[alignment[j]] == max(row)

    @pytest.mark.parametrize("seed", range(3))
    def test_column_scaling_invariance(self, seed):
        # scaling all t(f|.) of a fixed f by one positive constant keeps the argmax
        corpus = random_corpus(seed, max_pairs=6)
        table = random_table(seed, corpus)
        rng = random.Random(seed + 7)
        factor = {f: rng.uniform(0.5, 5.0) for f in range(len(corpus.target_vocab))}
        scaled_rows = {
            e: {f: factor[f] * v for f, v in row.items()} for e, row in table.rows.items()
        }
        scaled = TranslationTable(scaled_rows, {}, corpus.source_vocab, corpus.target_vocab)
        for pair in corpus.pairs:
            assert viterbi_align(pair, table) == viterbi_align(pair, scaled)


class TestPairLogLikelihood:
    def test_uniform_t1(self):
        corpus = t1_corpus()
        table = uniform_init(corpus.source_vocab, corpus.target_vocab)
        value = pair_log_likelihood(corpus.pairs[0], table)
        assert value == pytest.approx(-2 * math.log(3), abs=1e-12)

    def test_minimal_pair(self):
        corpus = corpus_from_tokens([["a"]], [["b"]])
        rows = {corpus.source_vocab.words.index("a"): {corpus.target_vocab.words.index("b"): 1.0}}
        table = TranslationTable(rows, {}, corpus.source_vocab, corpus.target_vocab)
        assert pair_log_likelihood(corpus.pairs[0], table) == pytest.approx(-math.log(2))

    def test_zero_column_gives_minus_inf(self):
        corpus = t1_corpus()
        table = TranslationTable({}, {}, corpus.source_vocab, corpus.target_vocab)
        assert pair_log_likelihood(corpus.pairs[0], table) == float("-inf")

    def test_monotone_in_single_entry(self):
        corpus = t1_corpus()
        sv, tv = corpus.source_vocab, corpus.target_vocab
        base = train(corpus, TrainConfig(iterations=1)).table
        reference = pair_log_likelihood(corpus.pairs[0], base)
        bumped_rows = {e: dict(row) for e, row in base.rows.items()}
        bumped_rows[sv.words.index("haus")][tv.words.index("house")] += 0.2
        bumped = TranslationTable(bumped_rows, dict(base.row_defaults), sv, tv)
        assert pair_log_likelihood(corpus.pairs[0], bumped) >= reference


def test_float_sum_is_a_left_fold():
    # a compensated sum (the built-in sum() from Python 3.12 on) gives 2.0
    assert float_sum([1.0, 1e100, 1.0, -1e100]) == 0.0


class TestModelFile:
    def test_round_trip_exact(self, tmp_path):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=3)).table
        path = tmp_path / "model.tsv"
        write_table(table, path, iterations=3, strategy="none", lam=0.0)
        loaded, metadata = read_table(path)
        assert metadata["iterations"] == "3"
        assert int(metadata["source_vocab_size"]) == 4
        for e, e_word in enumerate(corpus.source_vocab.words):
            for f, f_word in enumerate(corpus.target_vocab.words):
                original = table.prob(e, f)
                got = loaded.prob(loaded.source_vocab.get(e_word), loaded.target_vocab.get(f_word))
                assert got == original

    def test_smoothed_round_trip_expands_defaults(self, tmp_path):
        from alignsmooth import AddOne

        corpus = t1_corpus()
        table = train(corpus, TrainConfig(2, 1.0, AddOne())).table
        path = tmp_path / "model.tsv"
        write_table(table, path, iterations=2, strategy="add-one", lam=1.0)
        loaded, _ = read_table(path)
        # every pair had nonzero probability, so the reload covers all of them
        for e in range(len(corpus.source_vocab)):
            assert row_total(loaded, e) == pytest.approx(1.0, abs=1e-9)

    def test_null_token_reserved_after_reload(self, tmp_path):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=1)).table
        path = tmp_path / "model.tsv"
        write_table(table, path, iterations=1, strategy="none", lam=0.0)
        loaded, _ = read_table(path)
        assert loaded.source_vocab.word(0) == NULL_TOKEN

    def test_sparse_file_restores_defaults(self, tmp_path):
        from alignsmooth import AddOne

        corpus = t1_corpus()
        table = train(corpus, TrainConfig(2, 1.0, AddOne())).table
        path = tmp_path / "model.tsv"
        write_table(table, path, iterations=2, strategy="add-one", lam=1.0)
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
        assert sum(1 for line in lines if line.split("\t")[1] == "") == len(table.row_defaults)
        assert len(lines) == len(table.row_defaults) + sum(len(row) for row in table.rows.values())
        loaded, _ = read_table(path)
        for e, default in table.row_defaults.items():
            word = corpus.source_vocab.word(e)
            assert loaded.row_defaults[loaded.source_vocab.words.index(word)] == default

    def test_full_format_file_still_loads(self, tmp_path):
        from alignsmooth import AddOne

        corpus = t1_corpus()
        table = train(corpus, TrainConfig(2, 1.0, AddOne())).table
        sv, tv = corpus.source_vocab, corpus.target_vocab
        path = tmp_path / "model.tsv"
        # the earlier format: every row spelled out in full, no default lines
        path.write_text("# epsilon: 1.0\n" + "".join(
            f"{sv.word(e)}\t{tv.word(f)}\t{table.prob(e, f)!r}\n"
            for e in range(len(sv)) for f in range(len(tv))
        ), encoding="utf-8")
        loaded, _ = read_table(path)
        assert loaded.row_defaults == {}
        for e in range(len(sv)):
            for f in range(len(tv)):
                got = loaded.prob(loaded.source_vocab.words.index(sv.word(e)),
                                  loaded.target_vocab.words.index(tv.word(f)))
                assert got == table.prob(e, f)

    @pytest.mark.parametrize("value", ["1.0", "0.5", "abc"])
    def test_older_epsilon_line_is_kept_as_metadata(self, tmp_path, value):
        from alignsmooth import AddOne

        table = train(t1_corpus(), TrainConfig(2, 0.5, AddOne())).table
        path = tmp_path / "model.tsv"
        write_table(table, path, iterations=2, strategy="add-one", lam=0.5)
        older = tmp_path / "older.tsv"
        older.write_text(f"# epsilon: {value}\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        (loaded, _), (old, metadata) = read_table(path), read_table(older)
        assert metadata["epsilon"] == value
        assert (old.rows, old.row_defaults) == (loaded.rows, loaded.row_defaults)
        assert old.target_vocab.words == loaded.target_vocab.words

    def test_subset_model_keeps_default_only_target_words(self, tmp_path):
        from alignsmooth import AddOne

        # target words outside the slice have only row defaults
        corpus = random_corpus(11, max_pairs=20)
        part = corpus.subset([0])
        table = train(part, TrainConfig(2, 0.5, AddOne())).table
        path = tmp_path / "model.tsv"
        write_table(table, path, iterations=2, strategy="add-one", lam=0.5)
        loaded, _ = read_table(path)
        assert len(loaded.target_vocab) == len(corpus.target_vocab)
        for f_word in corpus.target_vocab.words:
            f = corpus.target_vocab.words.index(f_word)
            assert loaded.prob(0, loaded.target_vocab.words.index(f_word)) == table.prob(0, f)

    def test_unsmoothed_model_names_every_target_word(self, tmp_path):
        # "y" occurs only outside the slice, so no row of the table names it
        part = corpus_from_tokens([["a"], ["a"]], [["x"], ["y"]]).subset([0])
        table = train(part, TrainConfig(iterations=2)).table
        assert table.row_defaults == {}
        path = tmp_path / "model.tsv"
        write_table(table, path, iterations=2, strategy="none", lam=0.0)
        assert f"{NULL_TOKEN}\ty\t0.0\n" in path.read_text(encoding="utf-8")
        loaded, metadata = read_table(path)
        assert loaded.target_vocab.words == ("x", "y")
        assert metadata["target_vocab_size"] == "2"
        for e_word in part.source_vocab.words:
            for f, f_word in enumerate(part.target_vocab.words):
                got = loaded.prob(loaded.source_vocab.get(e_word), loaded.target_vocab.get(f_word))
                assert got == table.prob(part.source_vocab.get(e_word), f)

    @pytest.mark.parametrize("text,message", [
        ("# epsilon: 1.0\na\tx\tnan\n", "line 2: bad probability 'nan'"),
        ("# epsilon: 1.0\na\tx\tinf\n", "line 2: bad probability 'inf'"),
    ], ids=["nan-probability", "inf-probability"])
    def test_bad_number_names_file_and_line(self, tmp_path, text, message):
        from alignsmooth import DataFormatError

        path = tmp_path / "model.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError) as raised:
            read_table(path)
        assert str(raised.value) == f"{path}: {message}"

    def test_empty_source_field_rejected(self, tmp_path):
        from alignsmooth import DataFormatError

        path = tmp_path / "model.tsv"
        path.write_text("\tthe\t0.5\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            read_table(path)

    @pytest.mark.parametrize("text,message", [
        ("a\tx\t0.5\nb\tx\t0.5\na\tx\t0.25\n", "line 3: repeated entry 'a' 'x'"),
        ("# strategy: add-one\na\t\t0.5\na\tx\t0.5\na\t\t0.25\n", "line 4: second default for 'a'"),
    ], ids=["entry", "default"])
    def test_repeated_line_names_file_and_line(self, tmp_path, text, message):
        from alignsmooth import DataFormatError

        path = tmp_path / "model.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError) as raised:
            read_table(path)
        assert str(raised.value) == f"{path}: {message}"

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        corpus = t1_corpus()
        table = train(corpus, TrainConfig(iterations=2)).table
        path = tmp_path / "model.tsv"
        write_table(table, path, iterations=2, strategy="none", lam=0.0)
        before = path.read_bytes()
        plain = tmp_path / "plain.txt"
        plain.write_text("", encoding="utf-8")
        assert path.stat().st_mode == plain.stat().st_mode  # the umask's mode, as open() gives
        plain.unlink()
        # a target id outside the vocabulary raises partway through the write
        broken = TranslationTable({**table.rows, 1: {**table.rows[1], 99: 0.5}}, table.row_defaults,
                                  corpus.source_vocab, corpus.target_vocab)
        with pytest.raises(UnknownTokenError):
            write_table(broken, path, iterations=2, strategy="none", lam=0.0)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.tsv"]
