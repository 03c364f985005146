"""The word-translation table t(f|e) and the inference built on it.

The table is stored sparsely: each source word has a dict of explicit
probabilities plus a per-row default shared by every other target word
(non-zero only for smoothed tables, where one value covers the whole
residual row).  An absent row behaves as all zeros.

Model file format: UTF-8 TSV, ``#``-prefixed ``key: value`` metadata
lines (vocabulary sizes, iteration count, strategy, lambda) first, read
back as metadata only; a metadata line holds no tab, so a word that
starts with ``#`` is still a word.  A row default is one
``e<TAB><TAB>default`` line (tokens are never empty, so the empty field
cannot be a word); every explicit entry that differs from its row
default is one ``e<TAB>f<TAB>prob`` line, and every target word is named
by some line.  Probabilities are written with full precision so
reloading reproduces them exactly, at a size proportional to the
explicit entries.  Reading checks the vocabulary sizes against the
metadata and that every row sums to 1, so a cut or edited file is
rejected.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .corpus import NULL_ID, UNKNOWN_ID, SentencePair, Vocabulary, utf8_error
from .errors import DataFormatError, UnknownTokenError

_EMPTY: dict[int, float] = {}


def float_sum(values) -> float:
    """Left fold from 0.0: the same bits on every Python (3.12's sum() compensates)."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass
class TranslationTable:
    """Per-source-word distributions over the target vocabulary.

    Immutable by convention once built; the trainer builds each table once,
    after its last iteration.
    """

    rows: dict[int, dict[int, float]]
    row_defaults: dict[int, float]
    source_vocab: Vocabulary
    target_vocab: Vocabulary

    def prob(self, e: int, f: int) -> float:
        """t(f|e); unknown-token sentinels score zero, bad ids raise."""
        if e == UNKNOWN_ID or f == UNKNOWN_ID:
            return 0.0
        if not 0 <= e < len(self.source_vocab):
            raise UnknownTokenError(f"source token id {e} out of range")
        if not 0 <= f < len(self.target_vocab):
            raise UnknownTokenError(f"target token id {f} out of range")
        return self.rows.get(e, _EMPTY).get(f, self.row_defaults.get(e, 0.0))


def link_scores(pair: SentencePair, table: TranslationTable):
    """Yield [t(f|NULL), t(f|e_1), ..., t(f|e_l)] for each target word f of the pair.

    Ids are checked once per pair: ``UNKNOWN_ID`` scores zero on either
    side, any other id outside the table's vocabularies raises.
    """
    source_size, target_size = len(table.source_vocab), len(table.target_vocab)
    for e in pair.source:
        if not 0 <= e < source_size and e != UNKNOWN_ID:
            raise UnknownTokenError(f"source token id {e} out of range")
    # UNKNOWN_ID has no row and no default, so it scores zero
    rows = [(table.rows.get(e, _EMPTY), table.row_defaults.get(e, 0.0)) for e in (NULL_ID,) + pair.source]
    for f in pair.target:
        if f == UNKNOWN_ID:
            yield [0.0] * len(rows)
        elif 0 <= f < target_size:
            yield [row.get(f, default) for row, default in rows]
        else:
            raise UnknownTokenError(f"target token id {f} out of range")


def link_posterior(pair: SentencePair, table: TranslationTable) -> list[list[float]]:
    """p(a_j = i) for every target position j and source position i in 0..l.

    A target word scoring zero against every source position gets the
    uniform distribution over 0..l, so downstream objectives stay finite.
    """
    width = len(pair.source) + 1
    posterior = []
    for values in link_scores(pair, table):
        denom = float_sum(values)
        if denom > 0.0:
            posterior.append([v / denom for v in values])
        else:
            posterior.append([1.0 / width] * width)
    return posterior


def viterbi_align(pair: SentencePair, table: TranslationTable) -> tuple[int, ...]:
    """Most likely source position for each target position; ties pick the smallest."""
    return tuple(values.index(max(values)) for values in link_scores(pair, table))


def pair_log_likelihood(pair: SentencePair, table: TranslationTable) -> float:
    """log of the pair's probability summed over all alignments.

    Equals -m*log(l+1) + sum_j log sum_i t(f_j|e_i), with P(m|e) = 1; any
    target word with an all-zero score yields -inf.
    """
    total = -len(pair.target) * math.log(len(pair.source) + 1)
    for values in link_scores(pair, table):
        denom = float_sum(values)
        if denom <= 0.0:
            return float("-inf")
        total += math.log(denom)
    return total


def write_table(table: TranslationTable, path, *, iterations, strategy, lam) -> None:
    """Write every explicit entry and nonzero row default, metadata first.

    A target word no entry names is written once against the first row
    with a default, or as a 0.0 entry of the NULL row when no row has
    one, so the reloaded table keeps it in its vocabulary.
    The file is written whole beside ``path`` and then renamed onto it,
    so a failed write leaves any earlier file as it was.
    """
    meta = [
        ("source_vocab_size", len(table.source_vocab)),
        ("target_vocab_size", len(table.target_vocab)),
        ("iterations", iterations),
        ("strategy", strategy),
        ("lambda", repr(float(lam))),
    ]
    source_word, target_word = table.source_vocab.word, table.target_vocab.word
    defaults = {e: d for e, d in table.row_defaults.items() if d > 0.0}
    unnamed = set(range(len(table.target_vocab))).difference(*table.rows.values())
    partial = f"{path}.{os.getpid()}.tmp"  # open() gives it the umask's mode, as it did path
    try:
        with open(partial, "w", encoding="utf-8") as handle:
            for key, value in meta:
                handle.write(f"# {key}: {value}\n")
            for e in sorted(set(table.rows) | set(defaults)):
                if e in defaults:
                    handle.write(f"{source_word(e)}\t\t{defaults[e]!r}\n")
                for f, p in sorted(table.rows.get(e, _EMPTY).items()):
                    handle.write(f"{source_word(e)}\t{target_word(f)}\t{p!r}\n")
            e = min(defaults, default=NULL_ID)
            for f in sorted(unnamed):
                handle.write(f"{source_word(e)}\t{target_word(f)}\t{defaults.get(e, 0.0)!r}\n")
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise


def read_table(path) -> tuple[TranslationTable, dict]:
    """Load a model file, sparse or with full rows; returns the table and its metadata.

    A line with no tab may be ``#`` metadata; any other line must have
    three fields.  A repeated ``e<TAB>f`` entry, a second default line for
    one ``e``, a vocabulary size unequal to its metadata and a row whose
    mass is not 1 are rejected with the file and the line or word, as is
    text that is not UTF-8.
    """
    source_vocab = Vocabulary.with_null()
    target_vocab = Vocabulary()
    rows: dict[int, dict[int, float]] = {}
    defaults: dict[int, float] = {}
    metadata: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                fields = line.split("\t")
                if len(fields) == 1 and line.startswith("#"):
                    key, colon, value = (part.strip() for part in line[1:].partition(":"))
                    if colon:
                        metadata[key] = value
                    continue
                if len(fields) != 3 or not fields[0]:
                    raise DataFormatError(
                        f"{path}: line {number}: expected e<TAB>f<TAB>prob or e<TAB><TAB>default, got {line!r}"
                    )
                try:
                    p = float(fields[2])
                except ValueError:
                    p = math.nan  # fails the range check
                if not 0.0 <= p < math.inf:
                    raise DataFormatError(f"{path}: line {number}: bad probability {fields[2]!r}")
                e = source_vocab.add(fields[0])
                if fields[1]:
                    row, f = rows.setdefault(e, {}), target_vocab.add(fields[1])
                    if f in row:
                        raise DataFormatError(f"{path}: line {number}: repeated entry {fields[0]!r} {fields[1]!r}")
                    row[f] = p
                elif e in defaults:
                    raise DataFormatError(f"{path}: line {number}: second default for {fields[0]!r}")
                else:
                    defaults[e] = p
    except UnicodeDecodeError:
        raise utf8_error(path) from None
    for key, vocab in (("source_vocab_size", source_vocab), ("target_vocab_size", target_vocab)):
        if key in metadata:
            try:
                size = int(metadata[key])
            except ValueError:
                raise DataFormatError(f"{path}: {key} {metadata[key]!r} is not an integer") from None
            if size != len(vocab):
                raise DataFormatError(f"{path}: {key} is {size}, but the file names {len(vocab)} words")
    target_size = len(target_vocab)
    for e in sorted(rows.keys() | defaults.keys()):
        row = rows.get(e, _EMPTY)
        mass = math.fsum(row.values()) + defaults.get(e, 0.0) * (target_size - len(row))
        if not abs(mass - 1.0) <= 1e-9:
            raise DataFormatError(f"{path}: row {source_vocab.word(e)!r} sums to {mass!r}, not 1")
    table = TranslationTable(rows, defaults, source_vocab, target_vocab)
    return table, metadata
