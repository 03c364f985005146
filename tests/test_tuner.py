import math
import re
from dataclasses import replace

import pytest

from alignsmooth import (
    DEFAULT_GRID,
    DevSet,
    Objective,
    TrainConfig,
    TuneConfig,
    TuneResult,
    TuningError,
    brent_minimize,
    corpus_from_tokens,
    grid_bracket,
    make_strategy,
    occurrence_stats,
    search_scale,
    tune,
)
from alignsmooth.data import toy_paths

from helpers import record_cooc_counts, retrain_on, t1_corpus


class TestGridBracket:
    def test_interior_minimum(self):
        assert grid_bracket(lambda x: (x - 2) ** 2, [0, 1, 2, 3, 4]) == (1, 2, 3)

    def test_right_degenerate(self):
        assert grid_bracket(lambda x: -x, [0, 1, 2]) == (1, 2, 2)

    def test_left_degenerate_maximize(self):
        # grid_bracket minimizes; a maximized objective arrives negated
        assert grid_bracket(lambda x: x, [0, 1, 2]) == (0, 0, 1)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            grid_bracket(lambda x: x, [0, 1])

    def test_all_non_finite_raises(self):
        with pytest.raises(TuningError):
            grid_bracket(lambda x: float("inf"), [0, 1, 2])

    def test_some_non_finite_ok(self):
        f = lambda x: float("inf") if x == 0 else (x - 2) ** 2
        assert grid_bracket(f, [0, 1, 2, 3]) == (1, 2, 3)


class TestBrentMinimize:
    def test_parabola(self):
        lam, value = brent_minimize(lambda x: (x - 2) ** 2, (0, 1, 5), tolerance=1e-6)
        assert lam == pytest.approx(2.0, abs=1e-6)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_kink(self):
        lam, _ = brent_minimize(lambda x: abs(x - 1), (0, 0.5, 3), tolerance=1e-6)
        assert lam == pytest.approx(1.0, abs=1e-4)

    def test_step_function_stops_inside_gap(self):
        # discrete pitfall: the mid point is not strictly better, so it is
        # returned as-is even though the true minimum sits at 0
        lam, value = brent_minimize(lambda x: math.ceil(x), (0, 0.5, 2), tolerance=1e-6)
        assert 0 < lam <= 1
        assert value == 1

    def test_reversed_bracket_rejected(self):
        with pytest.raises(ValueError, match=re.escape("invalid bracket (5, 1, 0)")):
            brent_minimize(lambda x: (x - 2) ** 2, (5, 1, 0))

    def test_degenerate_bracket_returns_mid(self):
        lam, value = brent_minimize(lambda x: (x - 2) ** 2, (1, 2, 2), tolerance=1e-6)
        assert lam == 2 and value == 0

    def test_eval_budget(self):
        calls = []

        def f(x):
            calls.append(x)
            return (x - 2) ** 2

        brent_minimize(f, (0, 1, 5), tolerance=1e-12, max_evals=10)
        assert len(calls) <= 10

    def test_non_finite_interior_raises_with_lambda(self):
        def f(x):
            return float("inf") if 1.4 < x < 2.6 else (x - 2) ** 2

        with pytest.raises(TuningError) as err:
            brent_minimize(f, (0, 1, 5), tolerance=1e-6)
        assert err.value.lam is not None


class TestSearchScale:
    def test_matches_fine_grid_oracle(self):
        grid = sorted(set(DEFAULT_GRID) | {0.0})
        lam, _, _ = search_scale(lambda x: (x - 2) ** 2, grid, tolerance=1e-6)
        oracle = min((i * 1e-5 for i in range(400001)), key=lambda x: (x - 2) ** 2)
        assert lam == pytest.approx(oracle, abs=1e-4)

    def test_trace_sorted_and_contains_winner(self):
        grid = [0.0, 0.5, 1.0, 2.0, 4.0]
        lam, value, trace = search_scale(lambda x: abs(x - 1), grid, tolerance=1e-6)
        lams = [x for x, _ in trace]
        assert lams == sorted(lams)
        assert (lam, value) in trace

    def test_eval_count_bounded(self):
        calls = []

        def f(x):
            calls.append(x)
            return (x - 3) ** 2

        grid = sorted(set(DEFAULT_GRID) | {0.0})
        search_scale(f, grid, tolerance=1e-8, max_refine_evals=40)
        assert len(set(calls)) <= len(grid) + 40

    def test_grid_in_any_order_with_repeats(self):
        def f(x):
            return (x - 1) ** 2

        expected = search_scale(f, [0.0, 0.5, 1.0, 2.0])
        assert search_scale(f, [0.0, 2.0, 1.0, 0.5]) == expected
        assert search_scale(f, [2.0, 0.5, 0.0, 1.0, 0.5, 2.0]) == expected

    def test_maximize_ties_nan_and_unsigned_values(self):
        values = {0.0: math.nan, 1.0: 5.0, 2.0: 1.0, 3.0: 5.0, 4.0: 1.0}
        lam, value, trace = search_scale(values.__getitem__, sorted(values), maximize=True)
        assert (lam, value) == (1.0, 5.0)
        assert [x for x, _ in trace] == sorted(values)
        assert math.isnan(trace[0][1])
        assert trace[1:] == tuple((x, values[x]) for x in sorted(values)[1:])

        lam, value, trace = search_scale(lambda x: 3.0 - (x - 2) ** 2, [0.0, 1.0, 2.5, 4.0],
                                         maximize=True, tolerance=1e-6)
        assert lam == pytest.approx(2.0, abs=1e-4)
        assert value == max(v for _, v in trace) == 3.0 - (lam - 2) ** 2


class TestTuneConfig:
    def test_default_grid_shape(self):
        assert DEFAULT_GRID[0] == 0.0
        assert DEFAULT_GRID[1] == pytest.approx(1e-4)
        assert DEFAULT_GRID[-1] == pytest.approx(1e4)
        assert len(DEFAULT_GRID) == 34

    def test_validation(self):
        with pytest.raises(ValueError):
            TuneConfig(grid=(-1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            TuneConfig(tolerance=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tolerance must be finite and positive"):
                TuneConfig(tolerance=bad)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                TuneConfig(grid=(0.0, 1.0, bad))

    def test_grid_needs_three_points_once_zero_is_added(self):
        for grid in ((0.0, 0.0, 1.0), (1.0,), (0.0, 1.0)):
            with pytest.raises(ValueError, match="at least 3 points"):
                TuneConfig(grid=grid)
        assert TuneConfig(grid=(0.5, 1.0)).grid == (0.5, 1.0)

    @pytest.mark.parametrize("max_refine_evals", [2.5, 10.0, True, False, "10", None])
    def test_max_refine_evals_must_be_an_int(self, max_refine_evals):
        with pytest.raises(ValueError, match="max_refine_evals must be a non-negative integer"):
            TuneConfig(max_refine_evals=max_refine_evals)
        assert TuneConfig(max_refine_evals=0).max_refine_evals == 0


def small_tune_config():
    return TuneConfig(grid=(0.0, 0.1, 0.5, 1.0, 3.0), tolerance=1e-3, max_refine_evals=25)


def add_one_retrain(corpus, iterations=3):
    return retrain_on(corpus, TrainConfig(iterations, strategy=make_strategy("add-one", occurrence_stats(corpus))))


class TestTune:
    def test_never_worse_than_unsmoothed(self):
        corpus = t1_corpus()
        dev = DevSet(pairs=tuple(corpus.pairs), alignments=((1, 2), (1, 2)))
        result = tune(add_one_retrain(corpus), dev, Objective("error-count"), small_tune_config())
        at_zero = dict(result.evaluations)[0.0]
        assert result.objective_value <= at_zero

    def test_deterministic(self):
        corpus = t1_corpus()
        dev = DevSet(pairs=tuple(corpus.pairs), alignments=((1, 2), (1, 2)))
        objective = Objective("smoothed-error-count")
        assert (tune(add_one_retrain(corpus), dev, objective, small_tune_config())
                == tune(add_one_retrain(corpus), dev, objective, small_tune_config()))

    def test_grid_order_and_repeats_change_nothing(self):
        corpus = t1_corpus()
        dev = DevSet(pairs=tuple(corpus.pairs), alignments=((1, 2), (1, 2)))
        retrain = add_one_retrain(corpus)
        results = [tune(retrain, dev, Objective("smoothed-error-count"), replace(small_tune_config(), grid=grid))
                   for grid in ((0.0, 0.1, 0.5, 1.0, 3.0), (3.0, 0.5, 0.1, 1.0), (1.0, 0.1, 3.0, 0.5, 1.0, 0.0))]
        assert results[1] == results[0] and results[2] == results[0]

    def test_asks_for_each_distinct_candidate_once(self):
        corpus = t1_corpus()
        dev = DevSet(pairs=tuple(corpus.pairs), alignments=((1, 2), (1, 2)))
        asked, real = [], add_one_retrain(corpus)

        def retrain(lam):
            asked.append(lam)
            return real(lam)

        grid = (3.0, 0.5, 0.1, 3.0, 1.0, 0.5)  # unsorted, with repeats, and without 0
        result = tune(retrain, dev, Objective("smoothed-error-count"), replace(small_tune_config(), grid=grid))
        assert len(asked) == len(set(asked)) == len(result.evaluations)
        assert set(asked) == {lam for lam, _ in result.evaluations} >= {0.0, *grid}

    def test_a_memo_outside_tune_changes_nothing(self):
        corpus = t1_corpus()
        dev = DevSet.unannotated(corpus.pairs)
        tables, real = {}, add_one_retrain(corpus)

        def filling(lam):
            tables[lam] = real(lam)
            return tables[lam]

        plain = tune(filling, dev, Objective("ml-unannotated"), small_tune_config())
        assert set(tables) == {lam for lam, _ in plain.evaluations}
        assert tune(tables.__getitem__, dev, Objective("ml-unannotated"), small_tune_config()) == plain

    def test_returns_what_search_scale_returns(self, monkeypatch):
        import alignsmooth.tuner as tuner

        returned = []

        def recording_search(*args):
            returned.append(real_search(*args))
            return returned[-1]

        real_search = tuner.search_scale
        monkeypatch.setattr(tuner, "search_scale", recording_search)
        corpus = t1_corpus()
        result = tune(add_one_retrain(corpus, 2), DevSet.unannotated(corpus.pairs), Objective("ml-unannotated"),
                      small_tune_config())
        assert len(returned) == 1 and returned[0] is result and type(result) is TuneResult
        lambda_star, objective_value, evaluations = result
        assert (lambda_star, objective_value, evaluations) == (
            result.lambda_star, result.objective_value, result.evaluations)

    def test_lambda_star_in_trace(self):
        corpus = t1_corpus()
        dev = DevSet.unannotated(corpus.pairs)
        result = tune(add_one_retrain(corpus), dev, Objective("ml-unannotated"), small_tune_config())
        assert result.lambda_star in {lam for lam, _ in result.evaluations}

    def test_zero_always_candidate(self):
        corpus = t1_corpus()
        dev = DevSet.unannotated(corpus.pairs)
        config = TuneConfig(grid=(0.5, 1.0, 2.0), tolerance=1e-3, max_refine_evals=10)
        result = tune(add_one_retrain(corpus, 2), dev, Objective("ml-unannotated"), config)
        assert 0.0 in {lam for lam, _ in result.evaluations}

    def test_annotated_objective_needs_annotations(self):
        def no_training(lam):
            raise AssertionError("tune trained before refusing a development set without gold")

        corpus = t1_corpus()
        for name in ("ml-annotated", "error-count", "smoothed-error-count"):
            with pytest.raises(ValueError, match="requires an annotated development set"):
                tune(no_training, DevSet.unannotated(corpus.pairs), Objective(name), small_tune_config())

    def test_positive_lambda_needs_a_strategy_in_the_config(self):
        corpus = t1_corpus()
        dev = DevSet.unannotated(corpus.pairs)
        with pytest.raises(ValueError, match="a positive lambda needs an adding strategy"):
            tune(retrain_on(corpus, TrainConfig(iterations=2)), dev, Objective("ml-unannotated"),
                 small_tune_config())

    def test_all_minus_inf_reports_partial_trace(self):
        # gold links a pair of words that never co-occur; add-dice keeps that
        # entry at zero for every lambda, so the likelihood never turns finite
        from alignsmooth.corpus import SentencePair

        corpus = corpus_from_tokens([["a"], ["b"]], [["x"], ["y"]])
        sv, tv = corpus.source_vocab, corpus.target_vocab
        impossible_pair = SentencePair((sv.words.index("b"),), (tv.words.index("x"),))
        impossible = DevSet(pairs=(impossible_pair,), alignments=((1,),))
        strategy = make_strategy("add-dice", occurrence_stats(corpus))
        with pytest.raises(TuningError):
            tune(retrain_on(corpus, TrainConfig(iterations=2, strategy=strategy)), impossible,
                 Objective("ml-annotated"), small_tune_config())


def test_one_tune_runs_the_first_estep_once(monkeypatch, tmp_path):
    # the caller of tune owns the session: `alignsmooth tune` shares one across its retrains
    import alignsmooth.trainer as trainer
    from alignsmooth.cli import main

    src, tgt, _ = toy_paths()
    iterations = 4
    compiles, estep_calls = [], []

    def counting_compile(corpus):
        compiles.append(corpus)
        return real_compile(corpus)

    def counting_estep(*args):
        estep_calls.append(1)
        return real_estep(*args)

    real_compile, real_estep = trainer.compile_corpus, trainer._estep
    monkeypatch.setattr(trainer, "compile_corpus", counting_compile)
    monkeypatch.setattr(trainer, "_estep", counting_estep)
    out = tmp_path / "tune.tsv"
    assert main(["tune", "-s", src, "-t", tgt, "--objective", "ml-unannotated", "--strategy", "add-dice",
                 "--iters", str(iterations), "--grid", "0,0.1,0.5,1,3", "--tol", "1e-3", "--max-evals", "25",
                 "-o", str(out)]) == 0
    retrains = sum(line.startswith("evaluation\t") for line in out.read_text(encoding="utf-8").splitlines())
    assert retrains > 1 and len(compiles) == 1
    assert len(estep_calls) == 1 + (iterations - 1) * retrains


@pytest.mark.parametrize("name", ["add-one", "add-source-count", "add-dice"])
def test_tune_counts_cooc_only_for_add_dice(monkeypatch, name):
    counted = record_cooc_counts(monkeypatch)
    corpus = t1_corpus()
    stats = occurrence_stats(corpus)
    tune(retrain_on(corpus, TrainConfig(iterations=2, strategy=make_strategy(name, stats))),
         DevSet.unannotated(corpus.pairs), Objective("ml-unannotated"), small_tune_config())
    assert [id(s) for s in counted] == ([id(stats)] if name == "add-dice" else [])
