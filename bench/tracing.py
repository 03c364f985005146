"""Spans recorded from outside the program, around calls into its layers.

A hook replaces one library function (and every module global that
refers to it) with a wrapper that opens a span, calls the original and
closes the span.  Spans keep a name, start, end, parent span and run id;
they stay in memory until the benchmark writes them out.  A layer's
self time is its spans' duration minus the part covered by their child
spans.

Hooks are installed for one pass and removed after it, so the library is
left as it was found.  A hook whose target no longer exists is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "alignsmooth"


class SetupDone(Exception):
    """Raised at the first train call of a set-up-only pass."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for one pass of one workload."""

    def __init__(self, run_id: str, abort_at_train: bool = False):
        self.run_id = run_id
        self.abort_at_train = abort_at_train
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.setup_end: float | None = None
        self.pinned: list = []  # keeps objects alive whose id() is used as a key
        self.links_by_corpus: dict[int, int] = {}
        self.deferred: list = []  # (span, inspection) to run once the pass has ended

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def finish(self) -> None:
        """Run the deferred inspections; call once the pass has ended."""
        for span, inspect in self.deferred:
            try:
                inspect()
            except Exception as err:  # the program changed shape: its counts go absent
                span.attrs["inspect_error"] = repr(err)
        self.deferred.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def ancestor(self, span: Span, names) -> Span | None:
        """Nearest enclosing span whose name is in ``names``."""
        parent = span.parent
        while parent is not None:
            candidate = self.spans[parent]
            if candidate.name in names:
                return candidate
            parent = candidate.parent
        return None

    def dump(self, handle) -> None:
        for s in self.spans:
            handle.write(json.dumps({
                "run": self.run_id, "id": s.id, "name": s.name, "parent": s.parent,
                "start": s.start, "end": s.end,
            }) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, total duration minus the time covered by child spans.

    Child intervals are clipped to their parent and merged, so overlapping
    children are not subtracted twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    totals: dict[str, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[s.name] = totals.get(s.name, 0.0) + s.duration - covered
    return totals


# --- what each hook records about a call ---------------------------------

def links_per_iteration(corpus) -> int:
    return sum(len(p.target) * (len(p.source) + 1) for p in corpus.pairs)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _on_load(tracer, span, args, kwargs, corpus):
    span.attrs["pairs"] = len(corpus.pairs)
    span.attrs["links"] = links_per_iteration(corpus)


def _on_stats(tracer, span, args, kwargs, stats):
    span.attrs["cooc_entries"] = sum(len(row) for row in stats.cooc.values())


def _on_make_strategy(tracer, span, args, kwargs, strategy):
    # extra_weights may fill a lazy cache of the strategy; counting during the
    # pass would do that work for the program, outside the spans it belongs in.
    stats = _arg(args, kwargs, 1, "stats")

    def count():
        span.attrs["extra_entries"] = sum(
            len(strategy.extra_weights(e)) for e in range(len(stats.source_counts))
        )

    tracer.deferred.append((span, count))


def _on_train(tracer, span, args, kwargs, result):
    corpus = _arg(args, kwargs, 0, "corpus")
    config = _arg(args, kwargs, 1, "config")
    tracer.pinned.append(corpus)
    lam = config.lam if config is not None else 0.0
    strategy = config.strategy.name if lam > 0 and config.strategy is not None else None
    span.attrs["key"] = (id(corpus), strategy, lam)  # every strategy shares lambda = 0
    cache = tracer.links_by_corpus
    if id(corpus) not in cache:
        cache[id(corpus)] = links_per_iteration(corpus)
    trace = result.log_likelihood_trace
    span.attrs["em_iters"] = len(trace)
    span.attrs["links"] = cache[id(corpus)] * len(trace)
    span.attrs["neg_inf_iters"] = sum(1 for v in trace if v == float("-inf"))
    span.attrs["table_entries"] = sum(len(r) for r in result.table.rows.values())


def _on_evaluate_corpus(tracer, span, args, kwargs, report):
    span.attrs["pairs_scored"] = report.pair_count


def _train_wrapper(tracer, name, original):
    """Train hook; also ends a set-up-only pass at the first train call."""

    def wrapper(*args, **kwargs):
        if tracer.abort_at_train:
            tracer.setup_end = time.perf_counter()
            raise SetupDone
        return _call(tracer, name, original, _on_train, args, kwargs)

    return wrapper


def _search_wrapper(tracer, name, original):
    """Times, as ``tuner.eval`` spans, the evaluations the search really performs."""

    def wrapper(f, *args, **kwargs):
        def evaluation(x):
            span = tracer.open("tuner.eval")
            try:
                return f(x)
            except Exception:
                span.attrs["error"] = True
                raise
            finally:
                tracer.close(span)

        return _call(tracer, name, original, None, (evaluation,) + args, kwargs)

    return wrapper


def _call(tracer, name, original, inspect, args, kwargs):
    span = tracer.open(name)
    try:
        result = original(*args, **kwargs)
    finally:
        tracer.close(span)
    if inspect is not None:
        try:
            inspect(tracer, span, args, kwargs, result)
        except Exception as err:  # the program changed shape: its counts go absent
            span.attrs["inspect_error"] = repr(err)
    return result


def _plain(inspect=None):
    def factory(tracer, name, original):
        def wrapper(*args, **kwargs):
            return _call(tracer, name, original, inspect, args, kwargs)
        return wrapper
    return factory


# span name -> (module, attribute, wrapper factory); "Class.method" patches a
# class attribute.
HOOKS = {
    "corpus.load": ("corpus", "load_parallel_corpus", _plain(_on_load)),
    "corpus.annotations": ("corpus", "load_annotations", _plain()),
    "corpus.stats": ("corpus", "occurrence_stats", _plain(_on_stats)),
    "smoothing.make": ("smoothing", "make_strategy", _plain(_on_make_strategy)),
    "trainer.train": ("trainer", "train", _train_wrapper),
    "trainer.estep": ("trainer", "_estep", _plain()),
    "trainer.mstep": ("trainer", "maximize_smoothed", _plain()),
    "model.write": ("model", "write_table", _plain()),
    "model.read": ("model", "read_table", _plain()),
    "model.viterbi": ("model", "viterbi_align", _plain()),
    "model.posterior": ("model", "link_posterior", _plain()),
    "model.pair_ll": ("model", "pair_log_likelihood", _plain()),
    "objectives.evaluate": ("objectives", "Objective.evaluate", _plain()),
    "tuner.tune": ("tuner", "tune", _plain()),
    "tuner.search": ("tuner", "search_scale", _search_wrapper),
    "tuner.grid": ("tuner", "grid_bracket", _plain()),
    "tuner.brent": ("tuner", "brent_minimize", _plain()),
    "evaluation.evaluate_corpus": ("evaluation", "evaluate_corpus", _plain(_on_evaluate_corpus)),
    "cli.experiment": ("cli", "run_experiment", _plain()),
}

# The untraced run needs only these: train time and links for em_links_per_s,
# the first train call for setup_s, and each tuner evaluation for its latency.
TIMING_HOOKS = ("trainer.train", "tuner.search")


class Installed:
    """Hooks in place for one pass; ``remove`` restores every patched name."""

    def __init__(self):
        self.restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()


def install(tracer: Tracer, names) -> Installed:
    installed = Installed()
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
    for name in names:
        module_name, attr, factory = HOOKS[name]
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            installed.absent.append(name)
            continue
        *path, attr = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            installed.absent.append(name)
            continue
        wrapper = factory(tracer, name, original)
        if path:  # a method: patch the class only
            installed.restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for module in modules:  # the definition and every `from ... import` of it
            for key, value in list(vars(module).items()):
                if value is original:
                    installed.restore.append((module, key, original))
                    setattr(module, key, wrapper)
    return installed
