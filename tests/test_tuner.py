import math

import pytest

from alignsmooth import (
    DEFAULT_GRID,
    DevSet,
    Objective,
    TrainConfig,
    TuneConfig,
    TuningError,
    brent_minimize,
    corpus_from_tokens,
    grid_bracket,
    make_strategy,
    occurrence_stats,
    search_scale,
    tune,
)

from helpers import t1_corpus


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
            TuneConfig(grid=(1.0, 0.5))
        with pytest.raises(ValueError):
            TuneConfig(grid=(-1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            TuneConfig(tolerance=0.0)
        with pytest.raises(ValueError, match="tolerance"):
            TuneConfig(tolerance=math.nan)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                TuneConfig(grid=(0.0, 1.0, bad))

    def test_grid_needs_three_points_once_zero_is_added(self):
        for grid in ((0.0, 0.0, 1.0), (1.0,), (0.0, 1.0)):
            with pytest.raises(ValueError, match="at least 3 points"):
                TuneConfig(grid=grid)
        assert TuneConfig(grid=(0.5, 1.0)).grid == (0.5, 1.0)


def small_tune_config():
    return TuneConfig(grid=(0.0, 0.1, 0.5, 1.0, 3.0), tolerance=1e-3, max_refine_evals=25)


class TestTune:
    def test_never_worse_than_unsmoothed(self):
        corpus = t1_corpus()
        dev = DevSet(pairs=tuple(corpus.pairs), alignments=((1, 2), (1, 2)))
        strategy = make_strategy("add-one", occurrence_stats(corpus))
        result = tune(
            corpus, dev, Objective("error-count"),
            TrainConfig(iterations=3, strategy=strategy), small_tune_config(),
        )
        at_zero = dict(result.evaluations)[0.0]
        assert result.objective_value <= at_zero

    def test_deterministic(self):
        corpus = t1_corpus()
        dev = DevSet(pairs=tuple(corpus.pairs), alignments=((1, 2), (1, 2)))
        strategy = make_strategy("add-one", occurrence_stats(corpus))
        args = (corpus, dev, Objective("smoothed-error-count"),
                TrainConfig(iterations=3, strategy=strategy), small_tune_config())
        assert tune(*args) == tune(*args)

    def test_lambda_star_in_trace(self):
        corpus = t1_corpus()
        dev = DevSet.unannotated(corpus.pairs)
        strategy = make_strategy("add-one", occurrence_stats(corpus))
        result = tune(
            corpus, dev, Objective("ml-unannotated"),
            TrainConfig(iterations=3, strategy=strategy), small_tune_config(),
        )
        assert result.lambda_star in {lam for lam, _ in result.evaluations}

    def test_zero_always_candidate(self):
        corpus = t1_corpus()
        dev = DevSet.unannotated(corpus.pairs)
        strategy = make_strategy("add-one", occurrence_stats(corpus))
        config = TuneConfig(grid=(0.5, 1.0, 2.0), tolerance=1e-3, max_refine_evals=10)
        result = tune(
            corpus, dev, Objective("ml-unannotated"),
            TrainConfig(iterations=2, strategy=strategy), config,
        )
        assert 0.0 in {lam for lam, _ in result.evaluations}

    def test_annotated_objective_needs_annotations(self):
        corpus = t1_corpus()
        strategy = make_strategy("add-one", occurrence_stats(corpus))
        with pytest.raises(ValueError):
            tune(corpus, DevSet.unannotated(corpus.pairs), Objective("error-count"),
                 TrainConfig(strategy=strategy), small_tune_config())

    def test_positive_lambda_needs_a_strategy_in_the_config(self):
        corpus = t1_corpus()
        dev = DevSet.unannotated(corpus.pairs)
        with pytest.raises(ValueError, match="a positive lambda needs an adding strategy"):
            tune(corpus, dev, Objective("ml-unannotated"), TrainConfig(iterations=2), small_tune_config())

    def test_all_minus_inf_reports_partial_trace(self):
        # gold links a pair of words that never co-occur; add-dice keeps that
        # entry at zero for every lambda, so the likelihood never turns finite
        from alignsmooth.corpus import SentencePair

        corpus = corpus_from_tokens([["a"], ["b"]], [["x"], ["y"]])
        sv, tv = corpus.source_vocab, corpus.target_vocab
        impossible_pair = SentencePair((sv.words.index("b"),), (tv.words.index("x"),))
        impossible = DevSet(pairs=(impossible_pair,), alignments=((1,),))
        strategy = make_strategy("add-dice", occurrence_stats(corpus))
        with pytest.raises(TuningError) as err:
            tune(corpus, impossible, Objective("ml-annotated"),
                 TrainConfig(iterations=2, strategy=strategy), small_tune_config())
        assert len(err.value.evaluations) >= 1

    def test_tables_fill_then_replace_retrains(self, monkeypatch):
        import alignsmooth.tuner as tuner

        corpus = t1_corpus()
        dev = DevSet.unannotated(corpus.pairs)
        strategy = make_strategy("add-one", occurrence_stats(corpus))
        args = (corpus, dev, Objective("ml-unannotated"),
                TrainConfig(iterations=3, strategy=strategy), small_tune_config())
        plain = tune(*args)
        tables = {}
        assert tune(*args, tables) == plain
        assert set(tables) == {lam for lam, _ in plain.evaluations}

        def no_training(*args, **kwargs):
            raise AssertionError("a table in the mapping was retrained")

        monkeypatch.setattr(tuner, "train", no_training)
        assert tune(*args, tables) == plain
