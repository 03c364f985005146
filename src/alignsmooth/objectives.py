"""Scalar scores of a trained table on development data.

Four objectives are available, selected by name:

======================  =========  =========================================
name                    direction  score
======================  =========  =========================================
ml-unannotated          maximize   log-likelihood of bare dev sentence pairs
ml-annotated            maximize   log-likelihood of dev pairs with their
                                   gold restricted alignments
error-count             minimize   positions where the Viterbi link differs
                                   from gold
smoothed-error-count    minimize   continuous surrogate of error-count using
                                   alpha-powered posteriors
======================  =========  =========================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import AnnotationEntry, ParallelCorpus, SentencePair, adapt_annotation
from .model import TranslationTable, float_sum, link_posterior, link_scores, pair_log_likelihood, viterbi_align

OBJECTIVE_NAMES = ("ml-unannotated", "ml-annotated", "error-count", "smoothed-error-count")
_MAXIMIZING = frozenset({"ml-unannotated", "ml-annotated"})


@dataclass(frozen=True)
class DevSet:
    """Development pairs, optionally with gold restricted alignments."""

    pairs: tuple[SentencePair, ...]
    alignments: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("development set must be non-empty")
        if self.alignments is not None:
            if len(self.alignments) != len(self.pairs):
                raise ValueError("one gold alignment per pair is required")
            for pair, alignment in zip(self.pairs, self.alignments):
                if len(alignment) != len(pair.target):
                    raise ValueError("gold alignment length must match target length")
                if any(not 0 <= i <= len(pair.source) for i in alignment):
                    raise ValueError("gold alignment positions must lie in 0..l")

    def gold_pairs(self):
        """Each pair zipped with its gold alignment; raises ValueError on a set without gold."""
        if self.alignments is None:
            raise ValueError("this objective requires an annotated development set")
        return zip(self.pairs, self.alignments)

    @classmethod
    def unannotated(cls, pairs) -> "DevSet":
        return cls(tuple(pairs))

    @classmethod
    def from_annotations(cls, corpus: ParallelCorpus,
                         annotation: dict[int, AnnotationEntry]) -> "DevSet":
        """Annotated dev set over every pair the annotation covers."""
        indices = sorted(annotation)
        pairs = tuple(corpus.pairs[i] for i in indices)
        alignments = tuple(
            adapt_annotation(annotation[i], len(pair.target)) for i, pair in zip(indices, pairs)
        )
        return cls(pairs, alignments)


def dev_log_likelihood(dev: DevSet, table: TranslationTable) -> float:
    """Summed sentence-pair log-likelihood; -inf propagates."""
    return float_sum(pair_log_likelihood(pair, table) for pair in dev.pairs)


def aligned_log_likelihood(dev: DevSet, table: TranslationTable) -> float:
    """Log-likelihood of dev pairs jointly with their gold links."""
    total = 0.0
    for pair, alignment in dev.gold_pairs():
        for values, i in zip(link_scores(pair, table), alignment):
            t = values[i]
            if t <= 0.0:
                return float("-inf")
            total += math.log(t)
    return total


def viterbi_errors(pair: SentencePair, gold: tuple[int, ...],
                   table: TranslationTable) -> tuple[tuple[int, ...], int]:
    """A pair's Viterbi alignment and the number of its positions that differ from gold."""
    deduced = viterbi_align(pair, table)
    return deduced, sum(1 for g, got in zip(gold, deduced) if g != got)


def alignment_error_count(dev: DevSet, table: TranslationTable) -> int:
    """Number of target positions whose Viterbi link differs from gold."""
    return sum(viterbi_errors(pair, gold, table)[1] for pair, gold in dev.gold_pairs())


def smoothed_error_count(dev: DevSet, table: TranslationTable, alpha: float = 10.0) -> float:
    """Continuous relaxation of the error count.

    Each position contributes 1 - p(gold)^alpha / sum_i p(i)^alpha, which
    approaches the 0/1 error indicator as alpha grows.  Powers are taken
    in the log domain and rescaled by the row maximum so large alpha stays
    numerically safe.
    """
    if not 1.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and at least 1, got {alpha!r}")
    log, exp, minus_inf = math.log, math.exp, -math.inf
    total = 0.0
    for pair, alignment in dev.gold_pairs():
        posterior = link_posterior(pair, table)
        for row, gold in zip(posterior, alignment):
            # some posterior entry is positive, so top is finite and exp(-inf - top) is 0.0
            logs = [alpha * log(p) if p > 0.0 else minus_inf for p in row]
            top = max(logs)
            weights = [exp(x - top) for x in logs]
            total += 1.0 - weights[gold] / float_sum(weights)
    return total


@dataclass(frozen=True)
class Objective:
    """A named objective plus its sharpness parameter."""

    name: str
    alpha: float = 10.0

    def __post_init__(self):
        if self.name not in OBJECTIVE_NAMES:
            raise ValueError(f"unknown objective {self.name!r} (choose from {OBJECTIVE_NAMES})")
        if not 1.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and at least 1, got {self.alpha!r}")

    @property
    def maximize(self) -> bool:
        return self.name in _MAXIMIZING

    @property
    def requires_annotation(self) -> bool:
        return self.name != "ml-unannotated"

    def evaluate(self, dev: DevSet, table: TranslationTable) -> float:
        if self.name == "ml-unannotated":
            return dev_log_likelihood(dev, table)
        if self.name == "ml-annotated":
            return aligned_log_likelihood(dev, table)
        if self.name == "error-count":
            return float(alignment_error_count(dev, table))
        return smoothed_error_count(dev, table, self.alpha)
