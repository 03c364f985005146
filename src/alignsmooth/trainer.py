"""EM training with a smoothed maximization step.

Every iteration re-estimates the table as

    t(f|e) = (count(e,f) + lambda * g(e,f)) / (count(e) + lambda * sum_f g(e,f))

where g comes from the configured adding strategy as a row base weight
plus sparse extra weights; the row sum is derived from those two over the
whole target vocabulary.  With lambda = 0 the same step runs with g = 0,
the base strategy, so the unsmoothed relative-frequency baseline falls out
of the same code path bit for bit.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass

from .corpus import NULL_ID, ParallelCorpus
from .errors import UnknownTokenError
from .model import TranslationTable, float_sum
from .smoothing import AddingStrategy


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 10
    lam: float = 0.0
    strategy: AddingStrategy | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be finite and non-negative, got {self.lam!r}")
        if self.lam > 0.0 and self.strategy is None:
            raise ValueError("a positive lambda needs an adding strategy")


@dataclass(frozen=True)
class TrainResult:
    table: TranslationTable
    log_likelihood_trace: tuple[float, ...]


@dataclass(frozen=True)
class SlotCorpus:
    """A corpus compiled for EM: one slot per co-occurring (e, f), NULL included.

    ``rows[e]`` maps each target id co-occurring with source id e to its
    slot; a row's slots are contiguous and ascend with the target id, and
    rows follow source id order.  ``pairs`` holds each sentence pair's
    source ids, NULL first, and the slots of its links, (j, i) at j*(l+1)+i.
    """

    rows: list[dict[int, int]]
    pairs: list[tuple[tuple[int, ...], array]]
    slot_count: int
    target_size: int


def compile_corpus(corpus: ParallelCorpus) -> SlotCorpus:
    """Number the corpus's co-occurring (e, f) pairs and its links."""
    source_size, target_size = len(corpus.source_vocab), len(corpus.target_vocab)
    if source_size == 0 or target_size == 0:
        raise ValueError("vocabularies must be non-empty")
    support = [set() for _ in range(source_size)]
    for k, pair in enumerate(corpus.pairs):
        if pair.source and not 0 <= min(pair.source) <= max(pair.source) < source_size:
            raise UnknownTokenError(f"pair {k + 1}: source token id outside the vocabulary")
        if pair.target and not 0 <= min(pair.target) <= max(pair.target) < target_size:
            raise UnknownTokenError(f"pair {k + 1}: target token id outside the vocabulary")
        targets = set(pair.target)
        support[NULL_ID] |= targets
        for e in set(pair.source):
            support[e] |= targets
    slot_ids = itertools.count()  # zip stops at the sorted targets before drawing an extra id
    rows = [dict(zip(sorted(targets), slot_ids)) for targets in support]
    pairs = []
    for pair in corpus.pairs:
        sources = (NULL_ID,) + pair.source
        slot_rows = [rows[e] for e in sources]
        pairs.append((sources, array("i", [row[f] for f in pair.target for row in slot_rows])))
    return SlotCorpus(rows, pairs, next(slot_ids), target_size)


def _estep(slots: SlotCorpus, probs: list[float]) -> tuple[list[float], list[float], float]:
    """Expected count per slot, per-source totals, and the log-likelihood.

    ``probs[s]`` is t(f|e) of slot s.  Counts and totals grow one link at
    a time in corpus order; a target word scoring zero against every
    source position spreads 1/(l+1) over them and makes its pair -inf.
    """
    counts = [0.0] * slots.slot_count
    totals = [0.0] * len(slots.rows)
    log = math.log
    log_likelihood = 0.0
    for sources, links in slots.pairs:
        width = len(sources)
        pair_ll = -(len(links) // width) * log(width)
        degenerate = False
        for ids in zip(*[iter(links)] * width):
            values = [probs[s] for s in ids]
            denom = float_sum(values)
            if denom > 0.0:
                pair_ll += log(denom)
            else:  # 1.0 * (1.0 / width) is the share 1/(l+1) exactly
                degenerate = True
                values, denom = [1.0] * width, width
            inv = 1.0 / denom
            for s, e, v in zip(ids, sources, values):
                v *= inv
                counts[s] += v
                totals[e] += v
        log_likelihood += float("-inf") if degenerate else pair_ll
    return counts, totals, log_likelihood


def maximize_smoothed(slots: SlotCorpus, counts: list[float], totals: list[float],
                      strategy: AddingStrategy, lam: float) -> tuple[list[float], dict, dict]:
    """Re-estimate t from slot counts plus lambda-scaled pseudo-counts.

    Returns the new probability of every slot, the per-row defaults that
    cover targets outside a row's slots, and pseudo-count entries that
    fall outside the corpus support.  Rows whose denominator is zero get
    the degenerate uniform row, so every row is a full distribution.
    At lambda = 0 with g = 0 (the base strategy) it is the plain step, bit for bit.
    """
    uniform = 1.0 / slots.target_size
    probs: list[float] = []
    defaults: dict[int, float] = {}
    outside: dict[int, dict[int, float]] = {}
    end = 0
    for e, row in enumerate(slots.rows):
        start, end = end, end + len(row)
        base, extras = strategy.base_weight(e), strategy.extra_weights(e)
        denom = totals[e] + lam * (base * slots.target_size + math.fsum(extras.values()))
        if denom <= 0.0:
            defaults[e] = uniform
            probs += [uniform] * len(row)
            continue
        added = lam * base
        if extras:
            probs += [
                (c + added + lam * extras.get(f, 0.0)) / denom
                for f, c in zip(row, counts[start:end])
            ]
            outside[e] = {f: (added + lam * g) / denom for f, g in extras.items() if f not in row}
        else:  # c + 0.0 == c, so an unsmoothed row is c / total exactly
            probs += [(c + added) / denom for c in counts[start:end]]
        if added > 0.0:
            defaults[e] = added / denom
    return probs, defaults, outside


def build_table(corpus: ParallelCorpus, slots: SlotCorpus, estimate: tuple) -> TranslationTable:
    """The table of an M-step estimate: slots unequal to their row default, plus outside entries."""
    probs, defaults, outside = estimate
    rows: dict[int, dict[int, float]] = {}
    end = 0
    for e, row in enumerate(slots.rows):
        start, end = end, end + len(row)
        default = defaults.get(e, 0.0)
        explicit = {f: p for f, p in zip(row, probs[start:end]) if p != default}
        explicit.update(outside.get(e, ()))
        if explicit:
            rows[e] = explicit
    return TranslationTable(rows, defaults, corpus.source_vocab, corpus.target_vocab)


def train(corpus: ParallelCorpus, config: TrainConfig | None = None) -> TrainResult:
    """Run EM from the uniform table, smoothing every maximization step.

    The trace holds one training log-likelihood per iteration, evaluated
    under the table that iteration started from, with P(m|e) = 1.
    """
    config = config or TrainConfig()
    strategy = config.strategy if config.lam > 0.0 else AddingStrategy()
    slots = compile_corpus(corpus)
    probs = [1.0 / slots.target_size] * slots.slot_count
    trace = []
    for _ in range(config.iterations):
        counts, totals, log_likelihood = _estep(slots, probs)
        trace.append(log_likelihood)
        estimate = maximize_smoothed(slots, counts, totals, strategy, config.lam)
        probs = estimate[0]
    return TrainResult(build_table(corpus, slots, estimate), tuple(trace))
