"""alignsmooth benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload zipf-train --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One single-threaded process acts as one closed-loop client: it drives the
public library functions in the order the matching CLI command calls
them, one pass after another, each pass starting when the previous one
has finished.  It first generates the workload's input files from
``--seed`` (the program sees only those files), then runs full passes
for about ``--seconds`` seconds, with a slot of set-up-only passes before
each full pass and after the last, checks the outputs, and prints a
summary followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones declared in
BENCHMARK.json; with ``--trace 1`` they are the per-layer ones, taken
from passes that record spans around every layer call (alternating with
untraced passes, whose difference is ``trace.overhead_s``).  The library
is imported from ``src/`` of the checkout; without it the benchmark
exits with status 1 before printing any result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array

import tracing
import zipfgen

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_SLOT_S = 1.5  # set-up-only passes before each full pass and after the last
MIN_PROBES = 3
MIN_PASSES = 2  # a traced run needs an untraced and a traced pass
REL_TOL = 1e-9


def import_library():
    """Import alignsmooth from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "alignsmooth", "__init__.py")):
        raise SystemExit(f"error: no alignsmooth sources under {src}")
    sys.path.insert(0, src)
    import alignsmooth.cli  # loads every module the hooks patch
    found = os.path.realpath(os.path.dirname(alignsmooth.cli.__file__))
    if found != os.path.realpath(os.path.join(src, "alignsmooth")):
        raise SystemExit(f"error: imported alignsmooth from {found}, not {src}")


# --- workloads -----------------------------------------------------------

class Workload:
    """One input set and the library calls one pass makes on it."""

    def __init__(self, work_dir: str, seed: int):
        self.work_dir = work_dir
        self.seed = seed

    def prepare(self) -> None:
        """Write the input files."""

    def run(self, out_dir: str) -> dict:
        """One pass; returns what the checks and metrics need."""
        raise NotImplementedError

    def digest(self, outputs: dict) -> dict:
        """The outputs that must be identical across passes and commits."""
        raise NotImplementedError

    def check_first(self, outputs: dict) -> list[tuple[str, bool]]:
        """Expensive checks, made once per run on the first pass."""
        return []

    def compact(self, outputs: dict) -> dict:
        """What ``check_first`` needs, without holding on to large objects."""
        return outputs

    def expected(self) -> dict | None:
        """The recorded digest for this seed, if any."""
        return load_expected().get(self.name, {}).get(str(self.seed))


def load_expected() -> dict:
    if not os.path.exists(EXPECTED_PATH):
        return {}
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _cli(argv: list[str]) -> int:
    from alignsmooth import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class ToyExperiment(Workload):
    """``alignsmooth experiment`` with default settings on the bundled toy corpus.

    The input is fixed (the seed does not change it) because its report.tsv
    is the byte-identity gate for every later change.
    """

    name = "toy-experiment"
    report_path = os.path.join(BENCH_DIR, "expected", "toy-experiment.report.tsv")

    def prepare(self):
        from alignsmooth.data import toy_paths
        self.inputs = []
        for path in toy_paths():
            dest = os.path.join(self.work_dir, os.path.basename(path))
            shutil.copyfile(path, dest)
            self.inputs.append(dest)
        print("toy corpus: bundled 54 pairs, 12 cells")

    def run(self, out_dir):
        src, tgt, ann = self.inputs
        code = _cli(["experiment", "-s", src, "-t", tgt, "-a", ann, "-o", out_dir])
        with open(os.path.join(out_dir, "report.tsv"), "rb") as handle:
            report = handle.read()
        statuses = [line.split("\t")[-1] for line in report.decode().splitlines()
                    if line.startswith("cell\t") and line.split("\t")[3] == "status"]
        return {
            "exit_code": code,
            "report": report,
            "cells": len(statuses),
            "cells_failed": sum(1 for s in statuses if s != "ok"),
            "output_bytes": sum(os.path.getsize(os.path.join(out_dir, f))
                                for f in os.listdir(out_dir)),
        }

    def digest(self, outputs):
        return {"report_sha256": hashlib.sha256(outputs["report"]).hexdigest(),
                "exit_code": outputs["exit_code"]}

    def expected(self):
        """The seed commit's report.tsv, the same for every seed."""
        if not os.path.exists(self.report_path):
            return None
        with open(self.report_path, "rb") as handle:
            return self.digest({"report": handle.read(), "exit_code": 0})


def read_tokens(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as handle:
        return [line.split() for line in handle]


class ZipfTrain(Workload):
    """Load, train add-one at lambda 0.1, write, read, align every pair, score the gold slice."""

    name = "zipf-train"
    pairs, gold, iterations, lam = 5000, 500, 5, 0.1

    def prepare(self):
        corpus = zipfgen.generate(self.seed, self.pairs)
        self.inputs = zipfgen.write(corpus, self.work_dir, self.gold)
        print(f"zipf-train corpus: {zipfgen.describe(corpus)}")

    def run(self, out_dir):
        from alignsmooth import corpus as corpus_mod, evaluation, model, smoothing, trainer
        src, tgt, ann = self.inputs
        model_path = os.path.join(out_dir, "model.tsv")
        align_path = os.path.join(out_dir, "alignments.txt")
        # set-up: everything before the first train call
        corpus = corpus_mod.load_parallel_corpus(src, tgt)
        annotation = corpus_mod.load_annotations(ann, corpus)
        strategy = smoothing.make_strategy("add-one", corpus_mod.occurrence_stats(corpus))
        t0 = time.perf_counter()
        result = trainer.train(corpus, trainer.TrainConfig(self.iterations, self.lam, strategy))
        train_s = time.perf_counter() - t0
        model.write_table(result.table, model_path, iterations=self.iterations,
                          strategy="add-one", lam=self.lam)
        table, _ = model.read_table(model_path)
        # as `alignsmooth align` does: map words through the model's vocabulary
        pairs = [
            corpus_mod.SentencePair(tuple(table.source_vocab.get(w) for w in s),
                                    tuple(table.target_vocab.get(w) for w in t))
            for s, t in zip(corpus_mod.read_token_lines(src), corpus_mod.read_token_lines(tgt))
        ]
        alignments = [model.viterbi_align(pair, table) for pair in pairs]
        text = "".join(
            " ".join(f"{i}-{j}" for j, i in enumerate(a, start=1) if i != 0) + "\n"
            for a in alignments
        )
        with open(align_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        mapped = corpus_mod.ParallelCorpus(pairs, table.source_vocab, table.target_vocab)
        t0 = time.perf_counter()
        report = evaluation.evaluate_corpus(table, mapped, annotation)
        eval_s = time.perf_counter() - t0
        with open(os.path.join(out_dir, "eval.tsv"), "w", encoding="utf-8") as handle:
            handle.write("\n".join(report.to_tsv_lines()) + "\n")
        return {
            "trained": result.table,
            "reloaded": table,
            "alignments": text,
            "aer": report.aer,
            "lambda_evals_ms": [1000.0 * (train_s + eval_s)],
            "output_bytes": os.path.getsize(model_path),
        }

    def digest(self, outputs):
        return {"alignments_sha256": hashlib.sha256(outputs["alignments"].encode()).hexdigest(),
                "aer": repr(outputs["aer"])}

    def compact(self, outputs):
        from alignsmooth.corpus import NULL_TOKEN
        src, tgt, _ = self.inputs
        # word order as the reference numbers them: NULL, then first appearance
        words_e = [NULL_TOKEN] + list(dict.fromkeys(w for s in read_tokens(src) for w in s))
        words_f = list(dict.fromkeys(w for t in read_tokens(tgt) for w in t))
        return {
            "trained": table_matrix(outputs["trained"], words_e, words_f),
            "reloaded": table_matrix(outputs["reloaded"], words_e, words_f),
            "alignments": outputs["alignments"],
            "aer": outputs["aer"],
        }

    def check_first(self, out):
        import numpy as np
        from reference import RefCorpus
        source, target = read_tokens(self.inputs[0]), read_tokens(self.inputs[1])
        ref = RefCorpus(source, target)
        trained = np.frombuffer(out["trained"]).reshape(ref.shape)
        reloaded = np.frombuffer(out["reloaded"]).reshape(ref.shape)
        expected = ref.train_add_one(self.iterations, self.lam)
        chosen = [[0] * len(t) for t in target]
        for k, line in enumerate(out["alignments"].splitlines()):
            for link in line.split():
                i, j = map(int, link.split("-"))
                chosen[k][j - 1] = i
        gold = {(k, i, j) for k, links in gold_links(self.inputs[2]).items() for i, j in links}
        predicted = {(k, i, j) for k in range(self.gold)
                     for j, i in enumerate(chosen[k], start=1) if i != 0}
        hits = len(predicted & gold)
        aer = 1.0 - (hits + hits) / (len(predicted) + len(gold))
        return [
            ("rows sum to 1", bool(np.all(np.abs(trained.sum(axis=1) - 1.0) <= REL_TOL))),
            ("reloaded table equals trained table by word", bool(np.array_equal(trained, reloaded))),
            ("table matches reference EM", bool(np.allclose(trained, expected, rtol=REL_TOL, atol=0))),
            ("alignments are Viterbi under reference EM",
             ref.viterbi_mismatches(expected, chosen, REL_TOL) == 0),
            ("AER recomputed from alignments", aer == out["aer"]),
        ]


def table_matrix(table, words_e, words_f) -> array:
    """t(f|e) for every word pair, looked up by word, row-major."""
    out = array("d")
    f_ids = [table.target_vocab.get(w) for w in words_f]
    for w in words_e:
        e = table.source_vocab.get(w)
        out.extend(table.prob(e, f) for f in f_ids)
    return out


def gold_links(path: str) -> dict[int, list[tuple[int, int]]]:
    """Sure links by 0-based pair index from a ``pair src tgt S`` file."""
    links: dict[int, list[tuple[int, int]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            k, i, j, _ = line.split()
            links.setdefault(int(k) - 1, []).append((int(i), int(j)))
    return links


class ZipfTune(Workload):
    """``alignsmooth tune`` with add-one and smoothed-error-count on a mostly-dev corpus."""

    name = "zipf-tune"
    pairs, gold, dev, iterations, alpha, split_seed = 120, 100, 85, 5, 10.0, 13

    def prepare(self):
        corpus = zipfgen.generate(self.seed, self.pairs)
        self.inputs = zipfgen.write(corpus, self.work_dir, self.gold)
        print(f"zipf-tune corpus: {zipfgen.describe(corpus)}, dev pairs {self.dev}")

    def run(self, out_dir):
        src, tgt, ann = self.inputs
        out = os.path.join(out_dir, "tune.tsv")
        code = _cli([
            "tune", "-s", src, "-t", tgt, "-a", ann, "--strategy", "add-one",
            "--objective", "smoothed-error-count", "--iters", str(self.iterations),
            "--dev-size", str(self.dev), "--seed", str(self.split_seed), "-o", out,
        ])
        fields = {}
        evaluations = []
        with open(out, encoding="utf-8") as handle:
            for line in handle:
                key, *values = line.rstrip("\n").split("\t")
                if key == "evaluation":
                    evaluations.append((float(values[0]), float(values[1])))
                else:
                    fields[key] = values[0]
        return {
            "exit_code": code,
            "lambda_star": fields["lambda_star"],
            "objective_value": fields["objective_value"],
            "evaluations": evaluations,
            "output_bytes": os.path.getsize(out),
        }

    def digest(self, outputs):
        return {"lambda_star": outputs["lambda_star"],
                "objective_value": outputs["objective_value"],
                "exit_code": outputs["exit_code"]}

    def check_first(self, out):
        import random
        from reference import RefCorpus
        ref = RefCorpus(read_tokens(self.inputs[0]), read_tokens(self.inputs[1]))
        links = gold_links(self.inputs[2])
        order = sorted(links)
        random.Random(self.split_seed).shuffle(order)  # the documented dev split
        dev = {}
        for k in order[:self.dev]:
            gold = [0] * len(ref.pairs[k][1])
            for i, j in sorted(links[k], key=lambda link: (link[1], link[0])):
                if gold[j - 1] == 0:
                    gold[j - 1] = i
            dev[k] = gold
        lam_star, value = float(out["lambda_star"]), float(out["objective_value"])
        trace = dict(out["evaluations"])

        def reference_value(lam):
            return ref.smoothed_error_count(ref.train_add_one(self.iterations, lam), dev, self.alpha)

        def close(a, b):
            return abs(a - b) <= REL_TOL * max(1.0, abs(b))

        return [
            ("lambda* is the best evaluated point", value == min(trace.values())
             and trace.get(lam_star) == value),
            ("tuned objective no worse than lambda=0", value <= trace.get(0.0, float("inf"))),
            ("objective at lambda* matches reference", close(value, reference_value(lam_star))),
            ("objective at lambda=0 matches reference", close(trace[0.0], reference_value(0.0))),
        ]


WORKLOADS = {w.name: w for w in (ToyExperiment, ZipfTrain, ZipfTune)}


# --- one pass ------------------------------------------------------------

def run_pass(workload: Workload, out_dir: str, run_id: str, traced: bool, setup_only=False):
    """Run one pass with hooks installed; returns (outputs, tracer, start, end, absent)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    tracer = tracing.Tracer(run_id, abort_at_train=setup_only)
    gc.collect()
    installed = tracing.install(tracer, tracing.HOOKS if traced else tracing.TIMING_HOOKS)
    try:
        start = time.perf_counter()
        try:
            outputs = workload.run(out_dir)
        except tracing.SetupDone:
            outputs = None
        end = time.perf_counter()
    finally:
        installed.remove()
    tracer.finish()
    return outputs, tracer, start, end, installed.absent


def setup_probes(workload: Workload, out_dir: str, run_id: str) -> list[float]:
    """Set-up times of set-up-only passes, for about ``SETUP_SLOT_S`` seconds.

    The run makes a slot of them before each full pass and after the last,
    so their median spans the run's whole time, as the full passes' does.
    """
    times = []
    begin = time.perf_counter()
    while len(times) < MIN_PROBES or time.perf_counter() - begin < SETUP_SLOT_S:
        _, tracer, start, _, _ = run_pass(workload, out_dir, f"{run_id}-{len(times)}", False, True)
        times.append(tracer.setup_end - start)
    return times


def end_to_end(tracer, outputs, start, end) -> dict:
    trains = tracer.named("trainer.train")
    train_s = sum(s.duration for s in trains)
    evals_ms = outputs.get("lambda_evals_ms") or [1000.0 * s.duration
                                                  for s in tracer.named("tuner.eval")]
    return {
        "setup_s": trains[0].start - start,
        "run_s": end - trains[0].start,
        "em_links_per_s": sum(s.attrs["links"] for s in trains) / train_s,
        "evals_ms": evals_ms,
        "output_bytes": outputs["output_bytes"],
    }


class LayerView:
    """Sums over one traced pass's spans; notes when a needed hook was absent."""

    def __init__(self, tracer, absent):
        self.tracer = tracer
        self.absent = set(absent)
        self.missing = False

    def spans(self, name):
        if name in self.absent:
            self.missing = True
        return self.tracer.named(name)

    def total(self, name):
        return sum(s.duration for s in self.spans(name))

    def count(self, name):
        return len(self.spans(name))

    def values(self, name, key, spans=None):
        values = [s.attrs.get(key) for s in (self.spans(name) if spans is None else spans)]
        if any(v is None for v in values):
            self.missing = True
        return [v for v in values if v is not None]

    def attr(self, name, key):
        return sum(self.values(name, key))

    def under(self, name, ancestors):
        return [s for s in self.spans(name) if self.tracer.ancestor(s, ancestors)]


def _retrain_keys(view):
    return view.values("trainer.train", "key", view.under("trainer.train", {"tuner.tune"}))


def _final_retrains(view):
    experiments = {s.id for s in view.spans("cli.experiment")}
    direct = [s for s in view.spans("trainer.train") if s.parent in experiments]
    return max(len(direct) - len(experiments), 0)  # the first is the baseline


def _experiment_self(view):
    view.spans("cli.experiment")
    return tracing.self_times(view.tracer.spans).get("cli.experiment", 0.0)


def _ratio(a, b):
    return a / b if b else 0.0


LAYER_METRICS = {
    "corpus.load_s": lambda v: v.total("corpus.load"),
    "corpus.annotations_s": lambda v: v.total("corpus.annotations"),
    "corpus.stats_s": lambda v: v.total("corpus.stats"),
    "corpus.pairs": lambda v: v.attr("corpus.load", "pairs"),
    "corpus.links_per_iter": lambda v: v.attr("corpus.load", "links"),
    "corpus.cooc_entries": lambda v: v.attr("corpus.stats", "cooc_entries"),
    "smoothing.make_s": lambda v: v.total("smoothing.make"),
    "smoothing.extra_entries": lambda v: v.attr("smoothing.make", "extra_entries"),
    "trainer.train_calls": lambda v: v.count("trainer.train"),
    "trainer.train_s": lambda v: v.total("trainer.train"),
    "trainer.estep_s": lambda v: v.total("trainer.estep"),
    "trainer.mstep_s": lambda v: v.total("trainer.mstep"),
    "trainer.em_iters": lambda v: v.attr("trainer.train", "em_iters"),
    "trainer.table_entries": lambda v: _ratio(v.attr("trainer.train", "table_entries"),
                                              v.count("trainer.train")),
    "trainer.neg_inf_iters": lambda v: v.attr("trainer.train", "neg_inf_iters"),
    "model.write_s": lambda v: v.total("model.write"),
    "model.read_s": lambda v: v.total("model.read"),
    "model.viterbi_calls": lambda v: v.count("model.viterbi"),
    "model.viterbi_s": lambda v: v.total("model.viterbi"),
    "model.posterior_s": lambda v: v.total("model.posterior"),
    "model.pair_ll_s": lambda v: v.total("model.pair_ll"),
    "objectives.evaluate_calls": lambda v: v.count("objectives.evaluate"),
    "objectives.evaluate_s": lambda v: v.total("objectives.evaluate"),
    "objectives.share": lambda v: _ratio(v.total("objectives.evaluate"), v.total("tuner.eval")),
    "tuner.grid_evals": lambda v: len(v.under("tuner.eval", {"tuner.grid"})),
    "tuner.brent_evals": lambda v: len(v.under("tuner.eval", {"tuner.brent"})),
    "tuner.grid_s": lambda v: v.total("tuner.grid"),
    "tuner.brent_s": lambda v: v.total("tuner.brent"),
    "tuner.retrains": lambda v: len(_retrain_keys(v)),
    "tuner.distinct_retrains": lambda v: len(set(_retrain_keys(v))),
    "tuner.retrain_useful_ratio": lambda v: _ratio(len(set(_retrain_keys(v))),
                                                   len(_retrain_keys(v))),
    "evaluation.evaluate_corpus_s": lambda v: v.total("evaluation.evaluate_corpus"),
    "evaluation.pairs_scored": lambda v: v.attr("evaluation.evaluate_corpus", "pairs_scored"),
    "cli.final_retrains": _final_retrains,
    "cli.experiment_self_s": _experiment_self,
}


def layer_metrics(tracer, absent, outputs) -> tuple[dict, list[str]]:
    view = LayerView(tracer, absent)
    values, missing = {}, []
    for name, fn in LAYER_METRICS.items():
        view.missing = False
        values[name] = fn(view)
        if view.missing:
            missing.append(name)
    values["cli.cells"] = outputs.get("cells", 0)
    values["cli.cells_failed"] = outputs.get("cells_failed", 0)
    return values, missing


# --- the run -------------------------------------------------------------

def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[q - 1]


def end_to_end_values(setups: list[float], passes: list[dict], peak_rss_mb: float) -> dict:
    """End-to-end metrics from the set-up probes and the untraced passes."""
    samples = [ms for p in passes for ms in p["evals_ms"]]
    return {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "em_links_per_s": statistics.median(p["em_links_per_s"] for p in passes),
        "lambda_eval_p50_ms": quantile(samples, 2),
        "lambda_eval_p75_ms": quantile(samples, 3),
        "output_bytes": statistics.median(p["output_bytes"] for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_values(traced: list[tuple[dict, dict]], untraced: list[dict]) -> dict:
    """Per-pass medians of the traced passes' layer metrics, plus the tracing cost."""
    values = {name: statistics.median(v[name] for _, v in traced) for name in traced[0][1]}
    values["trace.overhead_s"] = (statistics.median(e["run_s"] for e, _ in traced)
                                  - statistics.median(p["run_s"] for p in untraced))
    return values


def run(args) -> dict:
    spec = load_spec()
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    workload = WORKLOADS[args.workload](work_dir, args.seed)
    workload.prepare()
    out_dir = os.path.join(work_dir, "out")
    run_id = f"{args.workload}-seed{args.seed}"

    untraced, traced, digests, checks, setups = [], [], [], [], []
    evals = evals_failed = cells = cells_failed = 0
    absent: set[str] = set()
    first = None
    begin = time.perf_counter()
    while True:
        if not args.trace:
            setups += setup_probes(workload, out_dir, f"{run_id}-setup{len(untraced)}")
        is_traced = bool(args.trace) and len(untraced) > len(traced)
        outputs, tracer, start, end, missing_hooks = run_pass(
            workload, out_dir, f"{run_id}-pass{len(untraced) + len(traced)}", is_traced)
        eval_spans = tracer.named("tuner.eval")
        evals += len(eval_spans)
        evals_failed += sum(1 for s in eval_spans if s.attrs.get("error"))
        cells += outputs.get("cells", 0)
        cells_failed += outputs.get("cells_failed", 0)
        e2e = end_to_end(tracer, outputs, start, end)
        digest = workload.digest(outputs)
        checks.append(("outputs identical across passes", digest == (digests or [digest])[0]))
        digests.append(digest)
        if first is None:
            # the program's peak, before the benchmark keeps anything of its own
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            first = workload.compact(outputs)
        if is_traced:
            values, missing = layer_metrics(tracer, missing_hooks, outputs)
            absent.update(missing)
            traced.append((e2e, values))
            keys = [s.attrs.get("key") for s in tracer.named("trainer.train")]
            print(f"traced pass: {len(keys)} train calls, {len(set(keys))} distinct "
                  f"(corpus, strategy, lambda)")
            with open(os.path.join(work_dir, "spans.jsonl"), "a", encoding="utf-8") as handle:
                tracer.dump(handle)
        else:
            untraced.append(e2e)
        del outputs, tracer
        if len(untraced) + len(traced) >= MIN_PASSES and time.perf_counter() - begin >= args.seconds:
            break
    if not args.trace:
        setups += setup_probes(workload, out_dir, f"{run_id}-setup{len(untraced)}")

    checks += workload.check_first(first)
    expected = workload.expected()
    if expected is not None:
        checks.append(("outputs equal the recorded ones", digests[0] == expected))
    failed_checks = [name for name, ok in checks if not ok]
    attempted = evals + cells + len(checks)
    failed = evals_failed + cells_failed + len(failed_checks)

    if args.trace:
        values, declared = per_layer_values(traced, untraced), spec["per_layer"]
    else:
        values, declared = end_to_end_values(setups, untraced, peak_rss_mb), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; set-up probes {len(setups)}; "
          f"lambda evaluation samples {sum(len(p['evals_ms']) for p in untraced)}")
    print("  run_s per pass: " + " ".join(f"{e['run_s']:.3f}" for e in untraced)
          + "".join(f" {e['run_s']:.3f}(traced)" for e, _ in traced))
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}"
              + ("  (absent)" if name in absent else ""))
    print(f"  failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for name in failed_checks:
        print(f"  FAILED check: {name}")
    return {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        code = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)]).returncode
        status = status or code
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_library()
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
