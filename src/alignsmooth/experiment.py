"""The experiment grid: an unsmoothed baseline plus one tuned cell per
strategy-by-objective combination, and its two report formats.

Every model is a pure function of (training corpus, adding strategy,
lambda) under the experiment's fixed iteration count, so each such key
is trained at most once per run.  At lambda = 0 the strategy is
ignored and every strategy shares one table per corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .corpus import (
    check_dev_size,
    check_fraction,
    load_annotations,
    load_parallel_corpus,
    occurrence_stats,
    split_annotated,
    split_unannotated,
)
from .errors import DataFormatError, TuningError, UnknownTokenError
from .evaluation import evaluate_corpus
from .objectives import OBJECTIVE_NAMES, DevSet, Objective
from .smoothing import STRATEGY_NAMES, make_strategy
from .trainer import TrainConfig, TrainingSession, train
from .tuner import TuneConfig, tune


@dataclass
class ExperimentSpec:
    source_path: str
    target_path: str
    annotations_path: str
    strategies: tuple[str, ...] = STRATEGY_NAMES
    objectives: tuple[str, ...] = OBJECTIVE_NAMES
    dev_size: int | None = None
    dev_fraction: float = 0.1
    seed: int = 13
    iterations: int = 10
    alpha: float = 10.0
    tune_config: TuneConfig = field(default_factory=TuneConfig)
    lowercase: bool = False

    def __post_init__(self):
        if not self.strategies or not self.objectives:
            raise ValueError("need at least one strategy and one objective")
        for kind, names in (("strategy", self.strategies), ("objective", self.objectives)):
            if len(set(names)) < len(names):
                raise ValueError(f"each {kind} may be named once, got {','.join(names)!r}")
        for name in self.strategies:
            if name not in STRATEGY_NAMES:
                raise ValueError(f"unknown adding strategy {name!r}")
        for name in self.objectives:
            Objective(name, self.alpha)
        TrainConfig(self.iterations)
        check_fraction(self.dev_fraction)
        check_dev_size(self.dev_size)
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


@dataclass
class CellResult:
    strategy: str
    objective: str
    status: str = "ok"
    lam: float | None = None
    aer: float | None = None
    error_count: int | None = None
    decrease: float | None = None
    reason: str | None = None


def tuning_data(corpus, objective: Objective, dev_annotation, dev_fraction: float, seed: int):
    """The (training corpus, dev set) an objective tunes on.

    Annotated objectives train on the whole corpus and score the gold
    links of ``dev_annotation``; ml-unannotated trains on a slice and
    scores the held-out rest, split by ``dev_fraction`` and ``seed``.
    """
    if objective.requires_annotation:
        return corpus, DevSet.from_annotations(corpus, dev_annotation)
    train_part, dev_part = split_unannotated(corpus, dev_fraction, seed)
    return train_part, DevSet.unannotated(dev_part.pairs)


def run_experiment(spec: ExperimentSpec):
    """Baseline plus one tuned cell per strategy/objective combination.

    Following the alignment protocol, every model (baseline and tuned) is
    trained on the full corpus, test sentences included; only the gold
    links of the dev split are visible to tuning, and dev pairs are
    excluded from test scoring.

    Each training corpus has one ``TrainingSession`` for the whole run, so
    it is compiled, and its first E-step run, once.
    """
    corpus = load_parallel_corpus(spec.source_path, spec.target_path, spec.lowercase)
    annotation = load_annotations(spec.annotations_path, corpus)
    dev_size = spec.dev_size if spec.dev_size is not None else max(1, len(annotation) // 3)
    dev_annotation, test_annotation = split_annotated(annotation, dev_size, spec.seed)

    stats = occurrence_stats(corpus)
    session = TrainingSession(corpus)
    objectives = [Objective(name, spec.alpha) for name in spec.objectives]
    # training corpus name -> (corpus, dev set, stats, session); a bad split fails before training
    setups = {}
    for objective in objectives:
        corpus_name = "full" if objective.requires_annotation else "slice"
        if corpus_name not in setups:
            tune_corpus, dev = tuning_data(corpus, objective, dev_annotation, spec.dev_fraction, spec.seed)
            if tune_corpus is corpus:
                setups[corpus_name] = corpus, dev, stats, session
            else:
                setups[corpus_name] = tune_corpus, dev, occurrence_stats(tune_corpus), TrainingSession(tune_corpus)
    config = TrainConfig(spec.iterations)
    baseline = train(corpus, config, session)
    baseline_report = evaluate_corpus(baseline.table, corpus, test_annotation)

    # training corpus name -> lambda -> table
    tables = {"full": {0.0: baseline.table}}

    cells = []
    for strategy_name in spec.strategies:
        # lambda = 0 ignores the strategy, so only those tables carry over
        tables = {name: {0.0: by_lambda[0.0]} for name, by_lambda in tables.items() if 0.0 in by_lambda}
        for objective in objectives:
            cell = CellResult(strategy_name, objective.name)
            cells.append(cell)
            try:
                corpus_name = "full" if objective.requires_annotation else "slice"
                tune_corpus, dev, tune_stats, tune_session = setups[corpus_name]
                strategy = make_strategy(strategy_name, tune_stats)
                result = tune(tune_corpus, dev, objective, replace(config, strategy=strategy),
                              spec.tune_config, tables.setdefault(corpus_name, {}), tune_session)
                lam = result.lambda_star
                if lam not in tables["full"]:
                    strategy = make_strategy(strategy_name, stats)
                    tables["full"][lam] = train(corpus, replace(config, lam=lam, strategy=strategy), session).table
                report = evaluate_corpus(tables["full"][lam], corpus, test_annotation)
                cell.lam = lam
                cell.aer = report.aer
                cell.error_count = report.error_count
                cell.decrease = baseline_report.aer - report.aer
            except (TuningError, DataFormatError, UnknownTokenError, ValueError) as err:
                cell.status = "failed"
                cell.reason = str(err)
    return baseline_report, cells


def report_tsv(baseline_report, cells) -> str:
    """The machine-readable report: one tab-separated value per line."""
    lines = [
        f"baseline\taer\t{baseline_report.aer!r}",
        f"baseline\terror_count\t{baseline_report.error_count}",
        f"baseline\tprecision\t{baseline_report.precision!r}",
        f"baseline\trecall\t{baseline_report.recall!r}",
    ]
    for cell in cells:
        prefix = f"cell\t{cell.strategy}\t{cell.objective}"
        lines.append(f"{prefix}\tstatus\t{cell.status}")
        if cell.status == "ok":
            lines.append(f"{prefix}\tlambda\t{cell.lam!r}")
            lines.append(f"{prefix}\taer\t{cell.aer!r}")
            lines.append(f"{prefix}\terror_count\t{cell.error_count}")
            lines.append(f"{prefix}\tdecreasement\t{cell.decrease!r}")
        else:
            lines.append(f"{prefix}\treason\t{cell.reason}")
    return "\n".join(lines) + "\n"


def report_text(spec, baseline_report, cells) -> str:
    """The human-readable report: the baseline, then one line per cell."""
    lines = [
        "experiment report",
        "=================",
        f"iterations {spec.iterations}, seed {spec.seed}, "
        f"test pairs {baseline_report.pair_count}",
        f"baseline (lambda=0): AER {baseline_report.aer:.6f}, "
        f"error count {baseline_report.error_count}, "
        f"precision {baseline_report.precision:.6f}, recall {baseline_report.recall:.6f}",
        "",
        "tuned cells (decreasement = baseline AER - tuned AER; positive is better):",
    ]
    for cell in cells:
        head = f"[{cell.strategy} / {cell.objective}]"
        if cell.status == "ok":
            lines.append(
                f"{head:48s} lambda* {cell.lam:<12.6g} AER {cell.aer:.6f} "
                f"decreasement {cell.decrease:+.6f}"
            )
        else:
            lines.append(f"{head:48s} FAILED: {cell.reason}")
    return "\n".join(lines) + "\n"
