"""The experiment grid trains each (corpus, strategy, lambda) at most once,
and every cell equals what uncached tuning and training give."""

import os
import random
from dataclasses import replace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import alignsmooth.experiment as experiment
import alignsmooth.trainer as trainer
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

from helpers import naive_experiment, random_corpus, record_cooc_counts, retrain_on, write_experiment_files

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
    _, cells = run_experiment(spec)
    assert [cell.status for cell in cells] == ["ok"] * 6
    assert len(keys) == len(set(keys))
    assert len({corpus for corpus, _, _ in keys}) == 2  # the full corpus and the tuning slice


def test_each_strategy_built_once_per_training_corpus(spec, monkeypatch):
    built = []

    def recording_make(name, stats):
        built.append((name, id(stats)))
        return make_strategy(name, stats)

    monkeypatch.setattr(experiment, "make_strategy", recording_make)
    made = recording_stats(monkeypatch)
    _, cells = run_experiment(spec)
    assert [cell.status for cell in cells] == ["ok"] * 6
    assert sorted(built) == sorted((name, id(stats)) for name in spec.strategies for stats in made)


def test_annotated_cell_scores_the_table_its_tune_chose(spec, monkeypatch):
    chosen, evaluated = [], []

    def recording_tune(retrain, dev, objective, tune_config=None):
        scored = {}

        def recording(lam):
            scored[lam] = retrain(lam)
            return scored[lam]

        result = tune(recording, dev, objective, tune_config)
        chosen.append((objective.requires_annotation, scored[result.lambda_star]))
        return result

    def recording_evaluate(table, *args, **kwargs):
        evaluated.append(table)
        return evaluate_corpus(table, *args, **kwargs)

    monkeypatch.setattr(experiment, "tune", recording_tune)
    monkeypatch.setattr(experiment, "evaluate_corpus", recording_evaluate)
    _, cells = run_experiment(spec)
    assert [cell.status for cell in cells] == ["ok"] * 6
    assert len(evaluated) == 1 + len(chosen)  # the baseline, then one lambda* table per cell
    annotated = [(table, final) for (needs_gold, table), final in zip(chosen, evaluated[1:]) if needs_gold]
    assert len(annotated) == 4 and all(table is final for table, final in annotated)


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
        result = tune(retrain_on(tune_corpus, TrainConfig(ITERATIONS, strategy=strategy)), dev, objective,
                      spec.tune_config)
        final = make_strategy(cell.strategy, occurrence_stats(corpus))
        table = train(corpus, TrainConfig(ITERATIONS, result.lambda_star, final)).table
        report = evaluate_corpus(table, corpus, test_annotation)
        assert (cell.lam, cell.aer, cell.error_count) == (
            result.lambda_star, report.aer, report.error_count
        )


def test_final_retrain_uses_full_corpus_statistics(tmp_path, monkeypatch):
    # every pair has a target word of its own, so the held-out slice holds words the training
    # slice lacks: ml-unannotated is -inf at lambda = 0 and tunes to a lambda* > 0, which no
    # annotated cell has put in the full-corpus memo
    rng = random.Random(0)
    lines = {"src.txt": [], "tgt.txt": [], "ann.txt": []}
    for k in range(10):
        source = [f"s{rng.randrange(4)}" for _ in range(rng.randint(1, 3))]
        target = [f"t{rng.randrange(4)}" for _ in range(rng.randint(1, 3))] + [f"u{k}"]
        lines["src.txt"].append(" ".join(source))
        lines["tgt.txt"].append(" ".join(target))
        lines["ann.txt"] += [f"{k + 1} {rng.randint(0, len(source))} {j} S" for j in range(1, len(target) + 1)]
    paths = []
    for name, text in lines.items():
        (tmp_path / name).write_text("\n".join(text) + "\n", encoding="utf-8")
        paths.append(str(tmp_path / name))
    name, objective = "add-source-count", Objective("ml-unannotated")
    spec = ExperimentSpec(*paths, strategies=(name,), objectives=(objective.name,), iterations=ITERATIONS,
                          dev_fraction=0.5, tune_config=TuneConfig(grid=(0.0, 0.5, 2.0)))
    trains = []

    def recording_train(corpus, config, session=None):
        trains.append((corpus, config.lam))
        return train(corpus, config, session)

    monkeypatch.setattr(experiment, "train", recording_train)
    _, (cell,) = run_experiment(spec)
    assert cell.status == "ok" and cell.lam > 0.0
    full = trains[0][0]  # the baseline's; every other train of it is a lambda* retrain
    assert [lam for trained, lam in trains if trained is full] == [0.0, cell.lam]

    corpus = load_parallel_corpus(*paths[:2])
    train_part, dev_part = split_unannotated(corpus, spec.dev_fraction, spec.seed)
    dev = DevSet.unannotated(dev_part.pairs)
    assert objective.evaluate(dev, train(train_part, TrainConfig(ITERATIONS)).table) == float("-inf")
    slice_config = TrainConfig(ITERATIONS, strategy=make_strategy(name, occurrence_stats(train_part)))
    assert cell.lam == tune(retrain_on(train_part, slice_config), dev, objective, spec.tune_config).lambda_star
    annotation = load_annotations(paths[2], corpus)
    _, test_annotation = split_annotated(annotation, len(annotation) // 3, spec.seed)
    final = TrainConfig(ITERATIONS, cell.lam, make_strategy(name, occurrence_stats(corpus)))
    report = evaluate_corpus(train(corpus, final).table, corpus, test_annotation)
    assert (cell.aer, cell.error_count) == (report.aer, report.error_count)


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


# no shrink phase: each example runs a whole experiment twice, so shrinking one failure takes tens of seconds
@settings(derandomize=True, max_examples=25, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(seed=st.integers(0, 10**6),
       grid=st.lists(st.sampled_from([0.0, 0.01, 0.1, 0.5, 2.0, 10.0]), min_size=3, max_size=5, unique=True),
       iterations=st.integers(1, 3), dev_fraction=st.sampled_from([0.25, 0.5]), split_seed=st.integers(0, 99))
def test_experiment_equals_its_naive_orchestration(tmp_path_factory, seed, grid, iterations, dev_fraction,
                                                   split_seed):
    # grids come in any order and may leave out 0; the naive loop adds 0 itself
    paths = write_experiment_files(tmp_path_factory.mktemp("experiment"), random_corpus(seed, max_pairs=10, max_len=5),
                                   random.Random(seed))
    spec = ExperimentSpec(*paths, iterations=iterations, dev_fraction=dev_fraction, seed=split_seed,
                          tune_config=TuneConfig(tuple(grid), tolerance=1e-3, max_refine_evals=8))
    try:
        baseline_report, cells, scores = naive_experiment(spec)
    except ValueError as err:  # a dev fraction that leaves an empty side fails both before training
        with pytest.raises(ValueError) as raised:
            run_experiment(spec)
        assert str(raised.value) == str(err)
        return
    assert report_tsv(*run_experiment(spec)) == report_tsv(baseline_report, cells)
    for cell, score in zip(cells, scores):
        if cell.status == "ok":  # the tuned lambda is never worse on dev than lambda = 0
            at_star, at_zero = score(cell.lam), score(0.0)
            assert at_star >= at_zero if Objective(cell.objective).maximize else at_star <= at_zero
