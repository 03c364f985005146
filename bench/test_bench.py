"""Tests of the benchmark's own code: ``python3 -m pytest bench``."""

import json
import os
import re
import sys

import pytest

import run
import tracing
import zipfgen
from tracing import Span

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    def files(seed, name):
        zipfgen.write(zipfgen.generate(seed, 60), str(tmp_path / name), gold=20)
        return [(tmp_path / name / f).read_bytes() for f in ("source.txt", "target.txt", "gold.txt")]

    assert files(7, "a") == files(7, "b")
    assert files(7, "a") != files(8, "c")


def test_generator_links_are_valid_positions():
    corpus = zipfgen.generate(3, 40)
    for src, tgt, links in zip(corpus.source, corpus.target, corpus.links):
        assert len(links) == len(src)
        assert all(1 <= i <= len(src) and 1 <= j <= len(tgt) for i, j in links)
    assert corpus.links_per_iteration == sum(
        len(t) * (len(s) + 1) for s, t in zip(corpus.source, corpus.target))


def test_self_time_subtracts_merged_child_intervals():
    spans = [
        Span(0, "outer", 0.0, None, 10.0),
        Span(1, "child", 1.0, 0, 3.0),
        Span(2, "child", 2.0, 0, 5.0),   # overlaps the first child
        Span(3, "child", 8.0, 0, 12.0),  # runs past its parent: clipped
        Span(4, "leaf", 2.5, 2, 3.5),
    ]
    self_times = tracing.self_times(spans)
    assert self_times["outer"] == pytest.approx(10.0 - (4.0 + 2.0))
    assert self_times["child"] == pytest.approx(2.0 + (3.0 - 1.0) + 4.0)
    assert self_times["leaf"] == pytest.approx(1.0)


def test_tracer_links_parents_and_finds_ancestors():
    tracer = tracing.Tracer("t")
    outer = tracer.open("tuner.grid")
    inner = tracer.open("tuner.eval")
    tracer.close(inner)
    tracer.close(outer)
    assert inner.parent == outer.id and outer.parent is None
    assert tracer.ancestor(inner, {"tuner.grid"}) is outer
    assert tracer.ancestor(outer, {"tuner.grid"}) is None


@pytest.fixture(scope="module")
def spec():
    with open(run.SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_names_are_valid_and_unique(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}


def test_every_computed_metric_is_declared(spec):
    e2e = {"setup_s": 0.1, "run_s": 1.0, "em_links_per_s": 5.0, "evals_ms": [1.0, 2.0],
           "output_bytes": 10}
    assert set(run.end_to_end_values([0.1], [e2e], 20.0)) == {m["name"] for m in spec["end_to_end"]}
    layers, _ = run.layer_metrics(tracing.Tracer("t"), [], {})
    values = run.per_layer_values([(e2e, layers)], [e2e])
    assert set(values) == {m["name"] for m in spec["per_layer"]}


def test_hooks_record_spans_and_restore_the_library():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from alignsmooth import corpus_from_tokens, trainer, tuner

    original = trainer.train
    tracer = tracing.Tracer("t")
    installed = tracing.install(tracer, tracing.HOOKS)
    try:
        assert tuner.train is not original
        corpus = corpus_from_tokens([["a", "b"], ["b"]], [["x", "y"], ["y"]])
        trainer.train(corpus, trainer.TrainConfig(iterations=2))
    finally:
        installed.remove()
    assert trainer.train is original and tuner.train is original
    assert installed.absent == []
    (train,) = tracer.named("trainer.train")
    assert train.attrs["em_iters"] == 2 and train.attrs["links"] == 2 * (2 * 3 + 1 * 2)
    assert [s.parent for s in tracer.named("trainer.estep")] == [train.id, train.id]


def test_missing_hook_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracing.HOOKS, "gone", ("trainer", "no_such_function", tracing._plain()))
    installed = tracing.install(tracing.Tracer("t"), ["gone"])
    assert installed.absent == ["gone"]


def test_strategy_entries_are_counted_after_the_pass():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from alignsmooth import corpus_from_tokens, occurrence_stats, smoothing

    stats = occurrence_stats(corpus_from_tokens([["a", "b"], ["b"]], [["x", "y"], ["y"]]))
    tracer = tracing.Tracer("t")
    installed = tracing.install(tracer, ["smoothing.make"])
    try:
        strategy = smoothing.make_strategy("add-dice", stats)
    finally:
        installed.remove()
    (span,) = tracer.named("smoothing.make")
    assert "extra_entries" not in span.attrs
    assert getattr(strategy, "_rows", {}) == {}  # the program's lazy cache is left alone
    tracer.finish()
    assert span.attrs["extra_entries"] == sum(
        len(strategy.extra_weights(e)) for e in range(len(stats.source_counts)))
