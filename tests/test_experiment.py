"""The experiment grid trains each (corpus, strategy, lambda) at most once,
and every cell equals what uncached tuning and training give."""

import os
from dataclasses import replace

import pytest

import alignsmooth.experiment as experiment
import alignsmooth.trainer as trainer
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
from alignsmooth.experiment import ExperimentSpec, report_tsv, run_experiment

from helpers import record_cooc_counts

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

    def counting_train(corpus, config, session=None):
        corpora.append(corpus)
        strategy = config.strategy.name if config.lam > 0 else None  # lambda = 0 ignores it
        keys.append((id(corpus), strategy, config.lam))
        return train(corpus, config, session)

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


@pytest.mark.parametrize("iterations", [2.5, True])
def test_non_integer_iterations_rejected_before_any_file_is_read(tmp_path, iterations):
    missing = str(tmp_path / "missing.txt")
    with pytest.raises(ValueError, match="iterations must be an integer"):
        ExperimentSpec(missing, missing, missing, iterations=iterations)


@pytest.mark.parametrize("dev_size", [2.5, True, 0])
def test_bad_dev_size_rejected_before_any_file_is_read(tmp_path, dev_size):
    missing = str(tmp_path / "missing.txt")
    with pytest.raises(ValueError, match="dev size must be a positive integer"):
        ExperimentSpec(missing, missing, missing, dev_size=dev_size)


@pytest.mark.parametrize("seed", ["13", 1.5, True])
def test_non_integer_seed_rejected_before_any_file_is_read(tmp_path, seed):
    missing = str(tmp_path / "missing.txt")
    with pytest.raises(ValueError, match="seed must be an integer"):
        ExperimentSpec(missing, missing, missing, seed=seed)


def test_one_session_per_training_corpus(monkeypatch):
    compiled = []

    def counting_compile(corpus):
        compiled.append(corpus)
        return real_compile(corpus)

    real_compile = trainer.compile_corpus
    monkeypatch.setattr(trainer, "compile_corpus", counting_compile)
    report = report_tsv(*run_experiment(ExperimentSpec(*toy_paths())))
    assert len(compiled) == 2  # the full corpus and the tuning slice
    recorded = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "expected",
                            "toy-experiment.report.tsv")
    with open(recorded, "rb") as handle:
        assert report.encode("utf-8") == handle.read()


def recording_stats(monkeypatch):
    made = []

    def recording(corpus):
        made.append(real(corpus))
        return made[-1]

    real = experiment.occurrence_stats
    monkeypatch.setattr(experiment, "occurrence_stats", recording)
    return made


def test_no_cooc_without_add_dice(spec, monkeypatch):
    made = recording_stats(monkeypatch)
    _, cells = run_experiment(replace(spec, strategies=("add-one", "add-source-count")))
    assert [cell.status for cell in cells] == ["ok"] * 6
    assert len(made) == 2 and not any("cooc" in vars(stats) for stats in made)


def test_add_dice_counts_cooc_once_per_training_corpus(spec, monkeypatch):
    made = recording_stats(monkeypatch)
    counted = record_cooc_counts(monkeypatch)
    _, cells = run_experiment(spec)
    assert [cell.status for cell in cells] == ["ok"] * 6
    assert len(made) == 2
    assert sorted(map(id, counted)) == sorted(map(id, made))
