"""Independent IBM Model 1 arithmetic for the benchmark's output checks.

Written with numpy over flat link arrays, sharing no code with the
program, so a check compares the program against a second derivation of
the same model rather than against itself.  Word ids are the reference's
own: source id 0 is NULL, other words in order of first appearance.
"""

from __future__ import annotations

import numpy as np

NULL = "<NULL>"


class RefCorpus:
    def __init__(self, source: list[list[str]], target: list[list[str]]):
        src_ids: dict[str, int] = {NULL: 0}
        tgt_ids: dict[str, int] = {}
        self.pairs = []  # (source ids with NULL first, target ids)
        for src, tgt in zip(source, target):
            s = [0] + [src_ids.setdefault(w, len(src_ids)) for w in src]
            t = [tgt_ids.setdefault(w, len(tgt_ids)) for w in tgt]
            self.pairs.append((np.array(s), np.array(t)))
        self.source_words = list(src_ids)
        self.target_words = list(tgt_ids)
        e_parts, f_parts, seg_parts = [], [], []
        token = 0
        for s, t in self.pairs:
            e_parts.append(np.tile(s, len(t)))
            f_parts.append(np.repeat(t, len(s)))
            seg_parts.append(np.repeat(np.arange(token, token + len(t)), len(s)))
            token += len(t)
        self.tokens = token
        self.flat = np.concatenate(e_parts) * len(self.target_words) + np.concatenate(f_parts)
        self.seg = np.concatenate(seg_parts)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.source_words), len(self.target_words)

    def train_add_one(self, iterations: int, lam: float) -> np.ndarray:
        """t(f|e) after EM from uniform, each M-step adding lam to every count."""
        n_e, n_f = self.shape
        t = np.full((n_e, n_f), 1.0 / n_f)
        for _ in range(iterations):
            v = t.ravel()[self.flat]
            denom = np.bincount(self.seg, weights=v, minlength=self.tokens)
            counts = np.bincount(self.flat, weights=v / denom[self.seg], minlength=n_e * n_f)
            counts = counts.reshape(n_e, n_f) + lam
            t = counts / counts.sum(axis=1, keepdims=True)
        return t

    def smoothed_error_count(self, t: np.ndarray, dev: dict[int, list[int]], alpha: float) -> float:
        """Sum over dev positions of 1 - p(gold)^alpha / sum_i p(i)^alpha."""
        total = 0.0
        for k, gold in sorted(dev.items()):
            s, f = self.pairs[k]
            p = t[np.ix_(s, f)]
            p = p / p.sum(axis=0)
            with np.errstate(divide="ignore"):
                logs = alpha * np.log(p)
            w = np.exp(logs - logs.max(axis=0))
            total += float(np.sum(1.0 - w[gold, np.arange(len(f))] / w.sum(axis=0)))
        return total

    def viterbi_mismatches(self, t: np.ndarray, alignments: list[list[int]], rtol: float) -> int:
        """Target positions whose chosen source scores below the best by more than rtol."""
        bad = 0
        for (s, f), chosen in zip(self.pairs, alignments):
            p = t[np.ix_(s, f)]
            best = p.max(axis=0)
            bad += int(np.sum(p[chosen, np.arange(len(f))] < best * (1.0 - rtol)))
        return bad
