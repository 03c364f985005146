"""Command-line surface: train, align, tune, eval, and the experiment grid.

Exit codes: 0 success, 1 usage or bad argument, 2 data/format problem,
3 tuning failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .corpus import (
    UNKNOWN_ID,
    ParallelCorpus,
    SentencePair,
    check_dev_size,
    check_fraction,
    load_annotations,
    load_parallel_corpus,
    occurrence_stats,
    split_annotated,
)
from .errors import DataFormatError, TuningError, UnknownTokenError
from .evaluation import evaluate_corpus, links_from_alignment
from .experiment import ExperimentSpec, report_text, report_tsv, run_experiment, tuning_data
from .model import TranslationTable, read_table, viterbi_align, write_table
from .objectives import OBJECTIVE_NAMES, Objective
from .smoothing import STRATEGY_NAMES, AddingStrategy, make_strategy
from .trainer import TrainConfig, train
from .tuner import DEFAULT_GRID, TuneConfig, tune


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _corpus_args(sub):
    sub.add_argument("-s", "--source", required=True, help="source-side corpus file")
    sub.add_argument("-t", "--target", required=True, help="target-side corpus file")
    sub.add_argument("--lowercase", action="store_true", help="lowercase all tokens")


def _train_args(sub):
    sub.add_argument("--iters", type=int, default=10, help="EM iterations (default 10)")


def _tune_args(sub, dev_size_default):
    sub.add_argument("--grid", type=_parse_grid, default=DEFAULT_GRID,
                     help="comma-separated lambda candidates (default log-spaced 1e-4..1e4 plus 0)")
    sub.add_argument("--tol", type=float, default=1e-4, help="refinement tolerance on lambda")
    sub.add_argument("--max-evals", type=int, default=100, help="refinement evaluation cap")
    sub.add_argument("--alpha", type=float, default=10.0,
                     help="sharpness of the smoothed error count (default 10)")
    sub.add_argument("--seed", type=int, default=13, help="seed for all data splits")
    sub.add_argument("--dev-size", type=int, default=None,
                     help=f"annotated pairs held out for tuning (default: {dev_size_default})")
    sub.add_argument("--dev-fraction", type=float, default=0.1,
                     help="corpus fraction held out for ml-unannotated tuning")


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("grid must not be empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alignsmooth", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("train", help="train a translation table with EM")
    _corpus_args(p)
    _train_args(p)
    p.add_argument("--strategy", choices=STRATEGY_NAMES, default="add-one")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="smoothing scale (0 = unsmoothed baseline)")
    p.add_argument("-o", "--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("align", help="Viterbi-align a corpus with a trained model")
    _corpus_args(p)
    p.add_argument("-m", "--model", required=True, help="model file from `train`")
    p.add_argument("-o", "--out", default=None, help="alignment file (default stdout)")
    p.add_argument("--emit-null", action="store_true", help="include 0-j NULL links")
    p.set_defaults(func=cmd_align)

    p = commands.add_parser("tune", help="search the smoothing scale on development data")
    _corpus_args(p)
    _train_args(p)
    _tune_args(p, "every annotated pair")
    p.add_argument("-a", "--annotations", default=None, help="gold alignment file")
    p.add_argument("--strategy", choices=STRATEGY_NAMES, default="add-one")
    p.add_argument("--objective", choices=OBJECTIVE_NAMES, default="smoothed-error-count")
    p.add_argument("-o", "--out", default=None, help="tuning trace file")
    p.set_defaults(func=cmd_tune)

    p = commands.add_parser("eval", help="score a model against gold alignments")
    _corpus_args(p)
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-a", "--annotations", required=True)
    p.add_argument("--emit-null", action="store_true")
    p.add_argument("-o", "--out", default=None, help="machine-readable report file")
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("experiment",
                            help="baseline plus the full strategy-by-objective grid")
    _corpus_args(p)
    _train_args(p)
    _tune_args(p, "a third of the annotated pairs")
    p.add_argument("-a", "--annotations", required=True)
    p.add_argument("--strategies", default=",".join(STRATEGY_NAMES),
                   help="comma-separated adding strategies to run")
    p.add_argument("--objectives", default=",".join(OBJECTIVE_NAMES),
                   help="comma-separated objectives to run")
    p.add_argument("-o", "--out", required=True, help="report directory")
    p.set_defaults(func=cmd_experiment)
    return parser


def cmd_train(args) -> int:
    # TrainConfig checks --iters and --lambda before any file is read; the
    # placeholder strategy gives way to the real one, which needs the corpus
    config = TrainConfig(args.iters, args.lam, AddingStrategy())
    corpus = load_parallel_corpus(args.source, args.target, args.lowercase)
    if args.lam > 0:
        config = replace(config, strategy=make_strategy(args.strategy, occurrence_stats(corpus)))
    result = train(corpus, config)
    write_table(result.table, args.out, iterations=args.iters,
                strategy=args.strategy if args.lam > 0 else "none", lam=args.lam)
    with open(args.out + ".trace", "w", encoding="utf-8") as handle:
        for value in result.log_likelihood_trace:
            handle.write(f"{value!r}\n")
    print(f"wrote {args.out} ({len(corpus.pairs)} pairs, {args.iters} iterations)")
    return 0


def _load_onto_table(args, table: TranslationTable) -> ParallelCorpus:
    """Load the corpus files with word ids taken from the table's vocabularies.

    A model numbers its words in the order of its own training corpus, so
    the corpus's own ids would look up the wrong entries.  Words the model
    has never seen get UNKNOWN_ID, which scores zero, and one warning each
    on stderr.
    """
    corpus = load_parallel_corpus(args.source, args.target, args.lowercase)

    def id_map(own, model, side):
        ids = []
        for word in own.words:
            wid = model.get(word)
            if wid == UNKNOWN_ID:
                print(f"warning: {side} token {word!r} not in model vocabulary", file=sys.stderr)
            ids.append(wid)
        return ids

    source_ids = id_map(corpus.source_vocab, table.source_vocab, "source")
    target_ids = id_map(corpus.target_vocab, table.target_vocab, "target")
    pairs = [
        SentencePair(tuple(source_ids[e] for e in pair.source),
                     tuple(target_ids[f] for f in pair.target))
        for pair in corpus.pairs
    ]
    return ParallelCorpus(pairs, table.source_vocab, table.target_vocab)


def cmd_align(args) -> int:
    table, _ = read_table(args.model)
    corpus = _load_onto_table(args, table)
    lines = []
    for pair in corpus.pairs:
        links = links_from_alignment(viterbi_align(pair, table), args.emit_null)
        lines.append(" ".join(f"{i}-{j}" for i, j in sorted(links, key=lambda link: link[1])))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_tune(args) -> int:
    objective = Objective(args.objective, args.alpha)
    tune_config = TuneConfig(args.grid, args.tol, args.max_evals)
    train_config = TrainConfig(iterations=args.iters)
    check_fraction(args.dev_fraction)
    check_dev_size(args.dev_size)
    corpus = load_parallel_corpus(args.source, args.target, args.lowercase)
    dev_annotation = None
    if objective.requires_annotation:
        if not args.annotations:
            raise ValueError(f"objective {objective.name!r} requires --annotations")
        dev_annotation = load_annotations(args.annotations, corpus)
        size = len(dev_annotation)  # tune holds out no test set, so every pair may tune
        if args.dev_size is not None and args.dev_size > size:
            raise ValueError(f"dev size must be in 1..{size}, got {args.dev_size}")
        if args.dev_size is not None and args.dev_size < size:
            dev_annotation, _ = split_annotated(dev_annotation, args.dev_size, args.seed)
    train_corpus, dev = tuning_data(corpus, objective, dev_annotation, args.dev_fraction, args.seed)
    strategy = make_strategy(args.strategy, occurrence_stats(train_corpus))
    result = tune(train_corpus, dev, objective, replace(train_config, strategy=strategy), tune_config)
    lines = [
        f"strategy\t{args.strategy}",
        f"objective\t{args.objective}",
        f"lambda_star\t{result.lambda_star!r}",
        f"objective_value\t{result.objective_value!r}",
    ]
    lines += [f"evaluation\t{lam!r}\t{value!r}" for lam, value in result.evaluations]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    print(f"lambda* = {result.lambda_star!r} "
          f"({args.objective} = {result.objective_value!r}, "
          f"{len(result.evaluations)} candidates)")
    return 0


def cmd_eval(args) -> int:
    table, _ = read_table(args.model)
    corpus = _load_onto_table(args, table)
    annotation = load_annotations(args.annotations, corpus)
    report = evaluate_corpus(table, corpus, annotation, emit_null=args.emit_null)
    print(report.pretty())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(report.to_tsv_lines()) + "\n")
    return 0


def cmd_experiment(args) -> int:
    spec = ExperimentSpec(
        source_path=args.source,
        target_path=args.target,
        annotations_path=args.annotations,
        strategies=tuple(x for x in args.strategies.split(",") if x),
        objectives=tuple(x for x in args.objectives.split(",") if x),
        dev_size=args.dev_size,
        dev_fraction=args.dev_fraction,
        seed=args.seed,
        iterations=args.iters,
        alpha=args.alpha,
        tune_config=TuneConfig(args.grid, args.tol, args.max_evals),
        lowercase=args.lowercase,
    )
    baseline_report, cells = run_experiment(spec)
    os.makedirs(args.out, exist_ok=True)
    tsv_path = os.path.join(args.out, "report.tsv")
    txt_path = os.path.join(args.out, "report.txt")
    with open(tsv_path, "w", encoding="utf-8") as handle:
        handle.write(report_tsv(baseline_report, cells))
    with open(txt_path, "w", encoding="utf-8") as handle:
        handle.write(report_text(spec, baseline_report, cells))
    failures = [cell for cell in cells if cell.status != "ok"]
    print(f"wrote {tsv_path} ({len(cells)} cells, {len(failures)} failed)")
    return 3 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (DataFormatError, UnknownTokenError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except TuningError as err:
        print(f"tuning error: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
