"""Adding strategies: per-pair pseudo-count functions g(e, f).

Each strategy is a non-negative function g(e, f) over source/target word
ids, and the trainer adds ``lambda * g(e, f)`` to every expected count.
To keep the smoothed re-estimation sparse, a strategy states g as
``base_weight(e)``, shared by every target word of the row, plus sparse
``extra_weights(e)`` on top; either may be left at its default of zero.
The trainer derives each row sum from these two, so a strategy never
states it separately.
"""

from __future__ import annotations

from .corpus import OccurrenceStats

_EMPTY: dict[int, float] = {}


class AddingStrategy:
    """Interface shared by all adding strategies."""

    name = "base"

    def __init__(self, stats: OccurrenceStats | None = None):
        self.stats = stats

    def base_weight(self, e: int) -> float:
        return 0.0

    def extra_weights(self, e: int) -> dict[int, float]:
        return _EMPTY


class AddOne(AddingStrategy):
    """Constant pseudo-count of 1 for every word pair."""

    name = "add-one"

    def __init__(self, stats: OccurrenceStats | None = None):
        super().__init__()  # g needs no statistics, so training does not keep them alive

    def base_weight(self, e: int) -> float:
        return 1.0


class AddSourceCount(AddingStrategy):
    """Pseudo-count equal to how often the source word occurs in training."""

    name = "add-source-count"

    def base_weight(self, e: int) -> float:
        return float(self.stats.source_count(e))


class AddDice(AddingStrategy):
    """Pseudo-count 2*cooc(e,f) / (n_e + n_f); zero for words never co-occurring."""

    name = "add-dice"

    def __init__(self, stats: OccurrenceStats):
        super().__init__(stats)
        self._rows: dict[int, dict[int, float]] = {}

    def extra_weights(self, e: int) -> dict[int, float]:
        row = self._rows.get(e)
        if row is None:
            n_e = self.stats.source_count(e)
            row = {}
            for f, c in self.stats.cooc.get(e, _EMPTY).items():
                denom = n_e + self.stats.target_counts[f]
                if c > 0 and denom > 0:
                    row[f] = 2.0 * c / denom
            self._rows[e] = row
        return row


_STRATEGIES = (AddOne, AddSourceCount, AddDice)
STRATEGY_NAMES = tuple(strategy.name for strategy in _STRATEGIES)


def make_strategy(name: str, stats: OccurrenceStats) -> AddingStrategy:
    """Build a strategy from its CLI token and training-corpus statistics."""
    for strategy in _STRATEGIES:
        if strategy.name == name:
            return strategy(stats)
    raise ValueError(f"unknown adding strategy {name!r} (choose from {STRATEGY_NAMES})")
