"""EM training with a smoothed maximization step.

Every iteration re-estimates the table as

    t(f|e) = (count(e,f) + lambda * g(e,f)) / (count(e) + lambda * sum_f g(e,f))

where g comes from the configured adding strategy as a row base weight
plus sparse extra weights; the row sum is derived from those two over the
whole target vocabulary.  With lambda = 0 the same step runs with g = 0,
the base strategy, so the unsmoothed relative-frequency baseline falls out
of the same code path bit for bit.

Every retrain starts from the same uniform table (Brown et al. 1993), so
the compiled corpus and the first E-step depend on neither lambda nor the
strategy; a ``TrainingSession`` keeps both for all retrains of one corpus.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from functools import cached_property

from .corpus import NULL_ID, ParallelCorpus
from .errors import UnknownTokenError
from .model import TranslationTable
from .smoothing import AddingStrategy


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 10
    lam: float = 0.0
    strategy: AddingStrategy | None = None

    def __post_init__(self):
        if type(self.iterations) is not int or self.iterations < 1:
            raise ValueError(f"iterations must be an integer of at least 1, got {self.iterations!r}")
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

    ``rows[e]`` is the ascending tuple of the target ids co-occurring with
    source id e, the vocabulary's own int objects.  A row's slots are
    contiguous in that order and rows follow source id order, so slot s of
    row e is the row's start, the summed lengths of the rows before it,
    plus the target's place in the row; no f -> slot map outlives
    ``compile_corpus``.  ``pairs`` holds each sentence pair's source ids,
    NULL first, and the slots of its links, (j, i) at j*(l+1)+i, in an
    ``array('i')`` of 4 bytes per link.
    """

    rows: list[tuple[int, ...]]
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
    rows = [tuple(sorted(targets)) for targets in support]
    del support  # its sets would otherwise sit beside the slot dicts below
    slot_ids = itertools.count()  # zip stops at the row before drawing an extra id
    slot_of = [dict(zip(row, slot_ids)) for row in rows]  # dropped once the links are written
    pairs = []
    for pair in corpus.pairs:
        sources = (NULL_ID,) + pair.source
        slot_rows = [slot_of[e] for e in sources]
        pairs.append((sources, array("i", [row[f] for f in pair.target for row in slot_rows])))
    return SlotCorpus(rows, pairs, next(slot_ids), target_size)


def _estep(slots: SlotCorpus, probs: list[float]) -> tuple[list[float], list[float], float]:
    """Expected count per slot, per-source totals, and the log-likelihood.

    ``probs[s]`` is t(f|e) of slot s.  Each denominator is folded straight
    from ``probs`` and the scatter scales ``probs[s]`` per link, with no
    per-word list.  Counts and totals grow one link at a time in corpus
    order; a target word scoring zero against every source position
    spreads 1/(l+1) over them and makes its pair -inf.
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
            denom = 0.0  # a left fold from 0.0, the same bits on every Python
            for s in ids:
                denom += probs[s]
            if denom > 0.0:
                pair_ll += log(denom)
                inv = 1.0 / denom
                for s, e in zip(ids, sources):
                    v = probs[s] * inv
                    counts[s] += v
                    totals[e] += v
            else:  # zero or NaN: each link gets 1.0 / width, the share 1/(l+1) exactly
                degenerate = True
                for s, e in zip(ids, sources):
                    counts[s] += 1.0 / width
                    totals[e] += 1.0 / width
        log_likelihood += float("-inf") if degenerate else pair_ll
    return counts, totals, log_likelihood


def compile_strategy(slots: SlotCorpus, strategy: AddingStrategy) -> list[tuple]:
    """Lay an adding strategy over the slots, one entry per source row.

    Each entry is the row's base weight, its weight sum over the whole
    target vocabulary, and, when the row has extra weights, their values
    on its slots and those of the targets outside its slots (else None).
    """
    compiled = []
    for e, row in enumerate(slots.rows):
        base, extras = strategy.base_weight(e), strategy.extra_weights(e)
        weight_sum = base * slots.target_size + math.fsum(extras.values())
        if extras:
            inside = set(row)
            outside = {f: g for f, g in extras.items() if f not in inside}
            compiled.append((base, weight_sum, [extras.get(f, 0.0) for f in row], outside))
        else:
            compiled.append((base, weight_sum, None, None))
    return compiled


def maximize_smoothed(slots: SlotCorpus, counts: list[float], totals: list[float],
                      weights: list[tuple], lam: float) -> tuple[list[float], dict, dict]:
    """Re-estimate t from slot counts plus lambda-scaled pseudo-counts.

    ``weights`` is the adding strategy as ``compile_strategy`` lays it out.
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
    for e, (row, (base, weight_sum, slot_g, outside_g)) in enumerate(zip(slots.rows, weights)):
        start, end = end, end + len(row)
        denom = totals[e] + lam * weight_sum
        if denom <= 0.0:
            defaults[e] = uniform
            probs += [uniform] * len(row)
            continue
        added = lam * base
        if slot_g is None:  # c + 0.0 == c, so an unsmoothed row is c / total exactly
            probs += [(c + added) / denom for c in counts[start:end]]
        else:
            probs += [(c + added + lam * g) / denom for c, g in zip(counts[start:end], slot_g)]
            outside[e] = {f: (added + lam * g) / denom for f, g in outside_g.items()}
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


class TrainingSession:
    """The EM work on one corpus that no lambda and no adding strategy changes.

    That is the compiled corpus and the first E-step, from the uniform
    table every retrain starts at.  Both are made at the first ``train``
    call that uses the session, and kept until the session is dropped.
    """

    def __init__(self, corpus: ParallelCorpus):
        self.corpus = corpus

    @cached_property
    def start(self) -> tuple[SlotCorpus, tuple[list[float], list[float], float]]:
        """The compiled corpus and its E-step from the uniform table."""
        slots = compile_corpus(self.corpus)
        return slots, _estep(slots, [1.0 / slots.target_size] * slots.slot_count)


def train(corpus: ParallelCorpus, config: TrainConfig | None = None,
          session: TrainingSession | None = None) -> TrainResult:
    """Run EM from the uniform table, smoothing every maximization step.

    The trace holds one training log-likelihood per iteration, evaluated
    under the table that iteration started from, with P(m|e) = 1.

    Retrains of one corpus may share a ``session`` made for it; they then
    compile the corpus and run the first E-step only once, with the same
    results bit for bit.  Without one, ``train`` uses a session of its own
    that is dropped once started, so no count outlives its iteration.
    """
    config = config or TrainConfig()
    if session is not None and session.corpus is not corpus:
        raise ValueError("the training session belongs to another corpus")
    strategy = config.strategy if config.lam > 0.0 else AddingStrategy()
    slots, (counts, totals, log_likelihood) = (session or TrainingSession(corpus)).start
    weights = compile_strategy(slots, strategy)
    trace = [log_likelihood]
    estimate = maximize_smoothed(slots, counts, totals, weights, config.lam)
    for _ in range(config.iterations - 1):
        probs = estimate[0]
        del counts, totals, estimate  # each list goes before the next of its kind is made
        counts, totals, log_likelihood = _estep(slots, probs)
        del probs
        trace.append(log_likelihood)
        estimate = maximize_smoothed(slots, counts, totals, weights, config.lam)
    del counts, totals
    return TrainResult(build_table(corpus, slots, estimate), tuple(trace))
