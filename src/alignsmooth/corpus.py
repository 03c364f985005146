"""Parallel corpora, gold annotations, and corpus statistics.

File formats
------------
Parallel corpus: two UTF-8 text files with one sentence per line and
whitespace-separated tokens.  Line k of the source file is paired with
line k of the target file; the files must have equal line counts and no
empty lines.  ``<NULL>`` names the NULL word, so no source line may hold it.

Every reader ends lines at ``\n``, ``\r\n`` or ``\r`` only, so a form
feed or U+2028 inside a line is whitespace, not a line break.  Corpus and
annotation files may start with a UTF-8 BOM, which is dropped.

Annotation file: UTF-8 text with one record per line::

    pair_index  src_pos  tgt_pos  flag

``pair_index``, ``src_pos`` and ``tgt_pos`` are 1-based, except that
``src_pos = 0`` denotes the NULL word.  ``flag`` is ``S`` (sure) or ``P``
(possible); every sure link is also treated as possible.  Lines starting
with ``#`` are comments.

In memory, pairs and annotation entries are keyed by 0-based corpus
index; link positions keep the 1-based convention with 0 = NULL.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count

from .errors import DataFormatError, UnknownTokenError

NULL_TOKEN = "<NULL>"
NULL_ID = 0
UNKNOWN_ID = -1


class Vocabulary:
    """Bidirectional map between word strings and dense integer ids."""

    __slots__ = ("_word_to_id", "_id_to_word")

    def __init__(self):
        self._word_to_id: dict[str, int] = {}
        self._id_to_word: list[str] = []

    @classmethod
    def with_null(cls) -> "Vocabulary":
        """A source-side vocabulary with the NULL word reserved at id 0."""
        return cls.from_ids({NULL_TOKEN: NULL_ID})

    @classmethod
    def from_ids(cls, word_to_id: dict[str, int]) -> "Vocabulary":
        """A vocabulary that owns a word -> id dict whose ids run 0, 1, ... in insertion order."""
        vocab = cls()
        vocab._word_to_id = word_to_id
        vocab._id_to_word = list(word_to_id)
        return vocab

    def add(self, word: str) -> int:
        wid = self._word_to_id.get(word)
        if wid is None:
            wid = len(self._id_to_word)
            self._word_to_id[word] = wid
            self._id_to_word.append(word)
        return wid

    def get(self, word: str, default: int = UNKNOWN_ID) -> int:
        return self._word_to_id.get(word, default)

    def word(self, wid: int) -> str:
        if 0 <= wid < len(self._id_to_word):
            return self._id_to_word[wid]
        raise UnknownTokenError(f"no token with id {wid}")

    def __len__(self) -> int:
        return len(self._id_to_word)

    @property
    def words(self) -> tuple[str, ...]:
        """All words in id order."""
        return tuple(self._id_to_word)


@dataclass(frozen=True, slots=True)
class SentencePair:
    """One aligned sentence pair as token ids.

    Source positions run 1..l with the implicit NULL word at position 0;
    NULL itself is never stored.  Target positions run 1..m.
    """

    source: tuple[int, ...]
    target: tuple[int, ...]


@dataclass
class ParallelCorpus:
    pairs: list[SentencePair]
    source_vocab: Vocabulary
    target_vocab: Vocabulary

    def subset(self, indices) -> "ParallelCorpus":
        """A corpus over the given pair indices, sharing both vocabularies."""
        picked = [self.pairs[i] for i in indices]
        return ParallelCorpus(picked, self.source_vocab, self.target_vocab)


def utf8_error(path) -> DataFormatError:
    """The error for a file that is not UTF-8, naming the line of its first bad byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[:err.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return DataFormatError(f"{path}: line {line}: not valid UTF-8 ({err.reason})")
    return DataFormatError(f"{path}: not valid UTF-8")


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, without line ends or a leading BOM."""
    try:
        with open(path, encoding="utf-8-sig") as handle:  # newline=None: \r\n and \r read as \n
            lines = handle.read().split("\n")
    except UnicodeDecodeError:
        raise utf8_error(path) from None
    if not lines[-1]:
        lines.pop()
    return lines


def read_token_lines(path, lowercase: bool = False) -> list[list[str]]:
    """Read one whitespace-tokenized sentence per line; reject empty lines.

    Equal tokens are one ``str`` object, shared through one dict per call,
    so a token costs its 8 B list slot and a word type one string: about
    15 B a token with the list headers, where a fresh string per token
    took about 66 B.
    """
    lines = read_lines(path)
    shared: dict[str, str] = {}
    share = shared.setdefault
    sentences = [list(map(share, tokens, tokens))
                 for tokens in map(str.split, map(str.lower, lines) if lowercase else lines)]
    if not all(sentences):
        raise DataFormatError(f"{path}: line {sentences.index([]) + 1} is empty")
    return sentences


def check_line_words(number: int, src, tgt, source_name, target_name) -> None:
    """Raise for the first word of one pair that no corpus may hold."""
    if NULL_TOKEN in src:
        raise DataFormatError(f"{source_name}: line {number}: {NULL_TOKEN} is reserved for the NULL word")
    for name, sentence in ((source_name, src), (target_name, tgt)):
        for word in sentence:
            if word.split() != [word]:  # a model file holds words as whitespace-split tokens
                raise DataFormatError(
                    f"{name}: line {number}: a word must be one token without whitespace, got {word!r}")


def corpus_from_tokens(source_sentences, target_sentences, source_name="source",
                       target_name="target") -> ParallelCorpus:
    """Build an indexed corpus from pre-tokenized sentence lists.

    Ids follow first appearance, with NULL at source id 0.  Each sentence
    is mapped in one C-level ``map`` over a ``defaultdict`` that numbers a
    word at its first lookup, each vocabulary takes that dict over, and the
    words are checked once per type, so Python loops per line and per type,
    not per token.  An error names the side and the first line at fault; on
    one line an empty sentence comes first, then ``<NULL>`` in the source,
    then a word that is not one whitespace-free token.
    """
    if len(source_sentences) != len(target_sentences):
        raise DataFormatError(
            "line count mismatch: source has "
            f"{len(source_sentences)} lines, target has {len(target_sentences)}"
        )
    if not source_sentences:
        raise DataFormatError("corpus is empty")
    source_ids = defaultdict(count(NULL_ID + 1).__next__)
    target_ids = defaultdict(count().__next__)
    source_id, target_id = source_ids.__getitem__, target_ids.__getitem__
    pairs = [
        SentencePair(tuple(map(source_id, src)), tuple(map(target_id, tgt)))
        for src, tgt in zip(source_sentences, target_sentences)
    ]
    words = [*source_ids, *target_ids]
    # every word is one whitespace-free token exactly when re-splitting their join gives them back
    faulty = NULL_TOKEN in source_ids or " ".join(words).split() != words
    for number, (src, tgt) in enumerate(zip(source_sentences, target_sentences), start=1):
        if not src or not tgt:
            side = target_name if src else source_name
            raise DataFormatError(f"{side}: line {number}: sentences must contain at least one token")
        if faulty:
            check_line_words(number, src, tgt, source_name, target_name)
    source_vocab = Vocabulary.from_ids({NULL_TOKEN: NULL_ID, **source_ids})
    target_vocab = Vocabulary.from_ids(dict(target_ids))
    return ParallelCorpus(pairs, source_vocab, target_vocab)


def load_parallel_corpus(source_path, target_path, lowercase: bool = False) -> ParallelCorpus:
    source_sentences = read_token_lines(source_path, lowercase)
    target_sentences = read_token_lines(target_path, lowercase)
    return corpus_from_tokens(source_sentences, target_sentences, source_path, target_path)


@dataclass
class OccurrenceStats:
    """Token occurrence counts plus presence-based pair co-occurrence.

    ``source_counts[NULL_ID]`` is the number of sentence pairs, since the
    NULL word occurs once in every source sentence by convention; the same
    convention makes NULL co-occur with every target word of every pair.
    Co-occurrence is presence-based: a pair contributes at most 1 to
    ``cooc(e, f)`` no matter how often either word repeats inside it.

    ``cooc`` maps e to ``{f: pairs}`` and is counted from ``pairs`` on its
    first read, once per stats object, so a caller that never reads it
    (add-one, add-source-count) never pays for it.
    """

    source_counts: list[int]
    target_counts: list[int]
    pairs: list[SentencePair] = field(repr=False)

    def source_count(self, e: int) -> int:
        if not 0 <= e < len(self.source_counts):
            raise UnknownTokenError(f"no source token with id {e}")
        return self.source_counts[e]

    @cached_property
    def cooc(self) -> dict[int, dict[int, int]]:
        # each row counts the target sets of its pairs, in corpus order: rows
        # and their keys come out in first-appearance order
        target_sets: dict[int, list[set[int]]] = {}
        for pair in self.pairs:
            targets = set(pair.target)
            for e in set(pair.source) | {NULL_ID}:
                target_sets.setdefault(e, []).append(targets)
        return {e: dict(Counter(chain.from_iterable(sets))) for e, sets in target_sets.items()}


def occurrence_stats(corpus: ParallelCorpus) -> OccurrenceStats:
    """Token counts of the corpus; co-occurrence waits for its first read."""
    source_counts = [0] * len(corpus.source_vocab)
    target_counts = [0] * len(corpus.target_vocab)
    for pair in corpus.pairs:
        for e in pair.source:
            source_counts[e] += 1
        for f in pair.target:
            target_counts[f] += 1
    source_counts[NULL_ID] = len(corpus.pairs)
    return OccurrenceStats(source_counts, target_counts, corpus.pairs)


@dataclass(frozen=True)
class AnnotationEntry:
    """Gold sure/possible link sets of one pair."""

    sure: frozenset[tuple[int, int]]
    possible: frozenset[tuple[int, int]]


def load_annotations(path, corpus: ParallelCorpus) -> dict[int, AnnotationEntry]:
    """Gold links keyed by 0-based pair index."""
    sure: dict[int, set[tuple[int, int]]] = {}
    possible: dict[int, set[tuple[int, int]]] = {}
    for number, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            raise DataFormatError(
                f"{path}: record {number}: expected 'pair src tgt flag', got {line!r}"
            )
        try:
            pair_no, src_pos, tgt_pos = (int(x) for x in fields[:3])
        except ValueError:
            raise DataFormatError(
                f"{path}: record {number}: non-integer position in {line!r}"
            ) from None
        flag = fields[3]
        if flag not in ("S", "P"):
            raise DataFormatError(
                f"{path}: record {number}: unknown flag {flag!r} (expected S or P)"
            )
        if not 1 <= pair_no <= len(corpus.pairs):
            raise DataFormatError(
                f"{path}: record {number}: pair index {pair_no} out of range "
                f"(corpus has {len(corpus.pairs)} pairs)"
            )
        pair = corpus.pairs[pair_no - 1]
        if not 0 <= src_pos <= len(pair.source):
            raise DataFormatError(
                f"{path}: record {number}: source position {src_pos} out of range "
                f"(source length {len(pair.source)})"
            )
        if not 1 <= tgt_pos <= len(pair.target):
            raise DataFormatError(
                f"{path}: record {number}: target position {tgt_pos} out of range "
                f"(target length {len(pair.target)})"
            )
        key = pair_no - 1
        link = (src_pos, tgt_pos)
        possible.setdefault(key, set()).add(link)
        if flag == "S":
            sure.setdefault(key, set()).add(link)
    if not possible:
        raise DataFormatError(f"{path}: no alignment records")
    return {
        key: AnnotationEntry(frozenset(sure.get(key, ())), frozenset(links))
        for key, links in possible.items()
    }


def adapt_annotation(entry: AnnotationEntry, m: int) -> tuple[int, ...]:
    """Restrict gold links to one source position per target position.

    Only sure links are considered.  A target position with no sure link
    maps to NULL; with several sure links, the smallest source position
    wins so the choice is reproducible.
    """
    chosen: dict[int, int] = {}
    for i, j in sorted(entry.sure, key=lambda link: (link[1], link[0])):
        chosen.setdefault(j, i)
    return tuple(chosen.get(j, 0) for j in range(1, m + 1))


def split_annotated(annotation: dict[int, AnnotationEntry], k: int,
                    seed: int) -> tuple[dict, dict]:
    """Split annotated pairs into a k-pair dev set and the remaining test set."""
    indices = sorted(annotation)
    if len(indices) < 2:
        raise ValueError(f"a dev set and a test set need 2 annotated pairs or more; "
                         f"the annotation file holds {len(indices)}")
    if not 0 < k < len(indices):
        raise ValueError(f"dev size must be in 1..{len(indices) - 1}, got {k}")
    shuffled = list(indices)
    random.Random(seed).shuffle(shuffled)
    dev_keys = set(shuffled[:k])
    dev = {i: annotation[i] for i in indices if i in dev_keys}
    test = {i: annotation[i] for i in indices if i not in dev_keys}
    return dev, test


def check_fraction(fraction: float) -> None:
    """Reject a dev fraction outside the open interval (0, 1)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie strictly between 0 and 1, got {fraction}")


def check_dev_size(dev_size: int | None) -> None:
    """Reject a dev size that is set but not a positive integer."""
    if dev_size is not None and (type(dev_size) is not int or dev_size < 1):
        raise ValueError(f"dev size must be a positive integer, got {dev_size!r}")


def split_unannotated(corpus: ParallelCorpus, fraction: float, seed: int) -> tuple[ParallelCorpus, ParallelCorpus]:
    """Split a corpus into (train, dev) with dev holding floor(n * fraction) pairs."""
    check_fraction(fraction)
    n = len(corpus.pairs)
    dev_n = int(n * fraction)
    if dev_n < 1 or n - dev_n < 1:
        raise ValueError(
            f"fraction {fraction} leaves an empty side for a corpus of {n} pairs"
        )
    order = list(range(n))
    random.Random(seed).shuffle(order)
    dev_indices = sorted(order[:dev_n])
    train_indices = sorted(order[dev_n:])
    return corpus.subset(train_indices), corpus.subset(dev_indices)
