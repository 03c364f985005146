"""Seeded synthetic parallel corpus with Zipf-distributed source words.

Every source word has a fixed primary translation and an alternate one.
A target sentence translates each source position in turn (primary with
probability ``PRIMARY``, alternate otherwise) and, after each position,
inserts a NULL-generated function word with probability ``NULL_RATE``.
The generating alignment is written as sure (S) gold links for the first
``gold`` pairs, so AER against it measures how well EM recovers the
hidden dictionary.

Output files (formats as ``alignsmooth.corpus`` documents them):

    <out>/source.txt   one tokenized sentence per line
    <out>/target.txt   line k pairs with line k of source.txt
    <out>/gold.txt     ``pair src tgt S`` records, 1-based

The same arguments give byte-identical files.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

SOURCE_TYPES = 500
TARGET_TYPES = 500
NULL_TYPES = 20
ZIPF_EXPONENT = 1.0
MIN_LENGTH = 8
MAX_LENGTH = 21
PRIMARY = 0.8
NULL_RATE = 0.1


@dataclass(frozen=True)
class Corpus:
    source: list[list[str]]
    target: list[list[str]]
    links: list[list[tuple[int, int]]]  # generating (src_pos, tgt_pos), 1-based

    @property
    def links_per_iteration(self) -> int:
        """Sum over pairs of m * (l + 1): the E-step's work per EM iteration."""
        return sum(len(t) * (len(s) + 1) for s, t in zip(self.source, self.target))


def generate(seed: int, pairs: int) -> Corpus:
    rng = random.Random(seed)
    source_words = [f"s{r}" for r in range(SOURCE_TYPES)]
    target_words = [f"t{r}" for r in range(TARGET_TYPES)]
    null_words = [f"n{r}" for r in range(NULL_TYPES)]
    primary = dict(zip(source_words, rng.sample(target_words, SOURCE_TYPES)))
    alternate = {e: rng.choice(target_words) for e in source_words}
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(SOURCE_TYPES)
    ))
    null_cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) for rank in range(NULL_TYPES)
    ))
    # Every length in MIN_LENGTH..MAX_LENGTH equally often, in seeded order,
    # so the E-step's work barely depends on the seed.
    span = MAX_LENGTH - MIN_LENGTH + 1
    lengths = [MIN_LENGTH + k % span for k in range(pairs)]
    rng.shuffle(lengths)
    source, target, links = [], [], []
    for length in lengths:
        src = rng.choices(source_words, cum_weights=cumulative, k=length)
        tgt, pair_links = [], []
        for i, e in enumerate(src, start=1):
            tgt.append(primary[e] if rng.random() < PRIMARY else alternate[e])
            pair_links.append((i, len(tgt)))
            if rng.random() < NULL_RATE:
                tgt.append(rng.choices(null_words, cum_weights=null_cumulative)[0])
        source.append(src)
        target.append(tgt)
        links.append(pair_links)
    return Corpus(source, target, links)


def write(corpus: Corpus, out_dir: str, gold: int) -> tuple[str, str, str]:
    """Write the corpus files; gold links cover the first ``gold`` pairs."""
    os.makedirs(out_dir, exist_ok=True)
    paths = tuple(os.path.join(out_dir, name) for name in ("source.txt", "target.txt", "gold.txt"))
    with open(paths[0], "w", encoding="utf-8") as handle:
        handle.writelines(" ".join(s) + "\n" for s in corpus.source)
    with open(paths[1], "w", encoding="utf-8") as handle:
        handle.writelines(" ".join(t) + "\n" for t in corpus.target)
    with open(paths[2], "w", encoding="utf-8") as handle:
        for k, pair_links in enumerate(corpus.links[:gold], start=1):
            handle.writelines(f"{k} {i} {j} S\n" for i, j in pair_links)
    return paths


def describe(corpus: Corpus) -> str:
    source_vocab = len({w for s in corpus.source for w in s})
    target_vocab = len({w for t in corpus.target for w in t})
    return (f"pairs {len(corpus.source)}, vocabulary {source_vocab}x{target_vocab} "
            f"(+NULL), links per EM iteration {corpus.links_per_iteration}")
