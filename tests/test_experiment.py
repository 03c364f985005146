"""The experiment grid trains each (corpus, strategy, lambda) at most once,
and every cell equals what uncached tuning and training give."""

import pytest

import alignsmooth.experiment as experiment
import alignsmooth.tuner as tuner
from alignsmooth import (
    DevSet,
    Objective,
    TrainConfig,
    TuneConfig,
    evaluate_corpus,
    load_annotations,
    load_parallel_corpus,
    make_strategy,
    occurrence_stats,
    split_annotated,
    split_unannotated,
    train,
    tune,
)
from alignsmooth.data import toy_paths
from alignsmooth.experiment import ExperimentSpec, run_experiment

ITERATIONS = 3


@pytest.fixture
def spec():
    src, tgt, ann = toy_paths()
    return ExperimentSpec(
        src, tgt, ann,
        strategies=("add-one", "add-dice"),
        objectives=("ml-unannotated", "error-count", "ml-annotated"),
        iterations=ITERATIONS,
        tune_config=TuneConfig(grid=(0.0, 0.5, 2.0)),
    )


def test_each_key_trained_once(spec, monkeypatch):
    keys = []
    corpora = []  # keeps every corpus alive, so its id() stays unique

    def counting_train(corpus, config):
        corpora.append(corpus)
        strategy = config.strategy.name if config.lam > 0 else None  # lambda = 0 ignores it
        keys.append((id(corpus), strategy, config.lam))
        return train(corpus, config)

    monkeypatch.setattr(experiment, "train", counting_train)
    monkeypatch.setattr(tuner, "train", counting_train)
    _, cells = run_experiment(spec)
    assert [cell.status for cell in cells] == ["ok"] * 6
    assert len(keys) == len(set(keys))
    assert len({corpus for corpus, _, _ in keys}) == 2  # the full corpus and the tuning slice


def test_cells_equal_uncached_tuning(spec):
    baseline_report, cells = run_experiment(spec)

    corpus = load_parallel_corpus(spec.source_path, spec.target_path)
    annotation = load_annotations(spec.annotations_path, corpus)
    dev_annotation, test_annotation = split_annotated(
        annotation, len(annotation) // 3, spec.seed
    )
    train_part, dev_part = split_unannotated(corpus, spec.dev_fraction, spec.seed)
    baseline = train(corpus, TrainConfig(ITERATIONS)).table
    assert evaluate_corpus(baseline, corpus, test_annotation) == baseline_report
    for cell in cells:
        objective = Objective(cell.objective, spec.alpha)
        if objective.requires_annotation:
            tune_corpus, dev = corpus, DevSet.from_annotations(corpus, dev_annotation)
        else:
            tune_corpus, dev = train_part, DevSet.unannotated(dev_part.pairs)
        strategy = make_strategy(cell.strategy, occurrence_stats(tune_corpus))
        result = tune(tune_corpus, dev, objective, TrainConfig(ITERATIONS, strategy=strategy),
                      spec.tune_config)
        final = make_strategy(cell.strategy, occurrence_stats(corpus))
        table = train(corpus, TrainConfig(ITERATIONS, result.lambda_star, final)).table
        report = evaluate_corpus(table, corpus, test_annotation)
        assert (cell.lam, cell.aer, cell.error_count) == (
            result.lambda_star, report.aer, report.error_count
        )


def test_tuning_data_follows_the_objective():
    src, tgt, ann = toy_paths()
    corpus = load_parallel_corpus(src, tgt)
    annotation = load_annotations(ann, corpus)
    full, dev = experiment.tuning_data(corpus, Objective("error-count"), annotation, 0.1, 13)
    assert full is corpus
    assert dev == DevSet.from_annotations(corpus, annotation)
    part, held = experiment.tuning_data(corpus, Objective("ml-unannotated"), None, 0.1, 13)
    train_part, dev_part = split_unannotated(corpus, 0.1, 13)
    assert part.pairs == train_part.pairs
    assert held == DevSet.unannotated(dev_part.pairs)


@pytest.mark.parametrize("field,name", [("strategies", "add-zipf"), ("objectives", "f-score")])
def test_unknown_name_rejected_before_any_file_is_read(tmp_path, field, name):
    missing = str(tmp_path / "missing.txt")
    with pytest.raises(ValueError, match=name):
        ExperimentSpec(missing, missing, missing, **{field: (name,)})
