"""Scoring predicted alignments against sure/possible gold links.

Precision is |P & A| / |A|, recall is |S & A| / |S|, and the alignment
error rate is 1 - (|P & A| + |S & A|) / (|A| + |S|); lower is better.
Corpus-level numbers are micro-averaged: link counts are summed over all
pairs before the ratios are taken.  Empty sets follow explicit vacuous
conventions (empty A: precision 1; empty S: recall 1; both empty: AER 0)
so every report is total.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import AnnotationEntry, ParallelCorpus
from .model import TranslationTable
from .objectives import DevSet, viterbi_errors

Link = tuple[int, int]


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    aer: float
    error_count: int
    pair_count: int
    link_count: int
    sure_count: int

    def to_tsv_lines(self) -> list[str]:
        return [
            f"precision\t{self.precision!r}",
            f"recall\t{self.recall!r}",
            f"aer\t{self.aer!r}",
            f"error_count\t{self.error_count}",
            f"pair_count\t{self.pair_count}",
            f"link_count\t{self.link_count}",
            f"sure_count\t{self.sure_count}",
        ]

    def pretty(self) -> str:
        return (
            f"pairs evaluated   {self.pair_count}\n"
            f"predicted links   {self.link_count}\n"
            f"sure gold links   {self.sure_count}\n"
            f"precision         {self.precision:.6f}\n"
            f"recall            {self.recall:.6f}\n"
            f"AER               {self.aer:.6f}\n"
            f"error count       {self.error_count}"
        )


def links_from_alignment(alignment, emit_null: bool = False) -> set[Link]:
    """Turn a restricted alignment vector into a set of (i, j) links."""
    return {
        (i, j)
        for j, i in enumerate(alignment, start=1)
        if i != 0 or emit_null
    }


def evaluate_corpus(
    table: TranslationTable,
    corpus: ParallelCorpus,
    annotation: dict[int, AnnotationEntry],
    emit_null: bool = False,
) -> EvalReport:
    """Micro-averaged report over the annotated pairs.

    The error count compares Viterbi links against the sure-only
    restricted adaptation of the gold annotation.
    """
    if not annotation:
        raise ValueError("no pairs to evaluate")
    dev = DevSet.from_annotations(corpus, annotation)
    total_links = total_sure = hit_possible = hit_sure = errors = 0
    for (_, entry), (pair, gold) in zip(sorted(annotation.items()), dev.gold_pairs()):
        deduced, pair_errors = viterbi_errors(pair, gold, table)
        links = links_from_alignment(deduced, emit_null)
        total_links += len(links)
        total_sure += len(entry.sure)
        hit_possible += len(links & entry.possible)
        hit_sure += len(links & entry.sure)
        errors += pair_errors
    denom = total_links + total_sure
    return EvalReport(
        precision=hit_possible / total_links if total_links else 1.0,
        recall=hit_sure / total_sure if total_sure else 1.0,
        aer=1.0 - (hit_possible + hit_sure) / denom if denom else 0.0,
        error_count=errors,
        pair_count=len(annotation),
        link_count=total_links,
        sure_count=total_sure,
    )
