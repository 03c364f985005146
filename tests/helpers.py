"""Shared fixtures: tiny corpora, random corpora, and independent EM oracles."""

import math
import os
import random
from dataclasses import replace

from alignsmooth import (
    NULL_ID,
    AnnotationEntry,
    DevSet,
    Objective,
    OccurrenceStats,
    TrainConfig,
    TrainingSession,
    TranslationTable,
    corpus_from_tokens,
    evaluate_corpus,
    load_annotations,
    load_parallel_corpus,
    make_strategy,
    occurrence_stats,
    search_scale,
    split_annotated,
    split_unannotated,
    train,
)
from alignsmooth.corpus import ParallelCorpus, SentencePair, Vocabulary
from alignsmooth.errors import DataFormatError, TuningError, UnknownTokenError
from alignsmooth.experiment import CellResult
from alignsmooth.model import float_sum
from alignsmooth.trainer import _estep, build_table, compile_corpus, compile_strategy, maximize_smoothed

NULL = "<NULL>"


def retrain_on(corpus, config):
    """A ``tune`` retrain: the table ``train`` gives at each lambda, over one session for the corpus."""
    session = TrainingSession(corpus)
    return lambda lam: train(corpus, replace(config, lam=lam), session).table


def t1_corpus():
    """The two-pair hand-oracle corpus (das haus / das buch)."""
    return corpus_from_tokens(
        [["das", "haus"], ["das", "buch"]],
        [["the", "house"], ["the", "book"]],
    )


def random_corpus(seed, max_pairs=50, max_len=6, source_types=8, target_types=9):
    rng = random.Random(seed)
    n = rng.randint(2, max_pairs)
    src, tgt = [], []
    for _ in range(n):
        src.append([f"s{rng.randrange(source_types)}" for _ in range(rng.randint(1, max_len))])
        tgt.append([f"t{rng.randrange(target_types)}" for _ in range(rng.randint(1, max_len))])
    return corpus_from_tokens(src, tgt)


def naive_corpus_from_tokens(source_sentences, target_sentences, source_name="source", target_name="target"):
    """``corpus_from_tokens`` as a per-token loop: every check and every ``Vocabulary.add`` line by line."""
    if len(source_sentences) != len(target_sentences):
        raise DataFormatError(
            f"line count mismatch: source has {len(source_sentences)} lines, target has {len(target_sentences)}")
    if not source_sentences:
        raise DataFormatError("corpus is empty")
    source_vocab, target_vocab = Vocabulary(), Vocabulary()
    source_vocab.add(NULL)
    pairs = []
    for number, (src, tgt) in enumerate(zip(source_sentences, target_sentences), start=1):
        for name, sentence in ((source_name, src), (target_name, tgt)):
            if not sentence:
                raise DataFormatError(f"{name}: line {number}: sentences must contain at least one token")
        if NULL in src:
            raise DataFormatError(f"{source_name}: line {number}: {NULL} is reserved for the NULL word")
        for name, sentence in ((source_name, src), (target_name, tgt)):
            for word in sentence:
                if len(word.split()) != 1 or word.split()[0] != word:
                    raise DataFormatError(
                        f"{name}: line {number}: a word must be one token without whitespace, got {word!r}")
        pairs.append(SentencePair(tuple(source_vocab.add(w) for w in src), tuple(target_vocab.add(w) for w in tgt)))
    return ParallelCorpus(pairs, source_vocab, target_vocab)


def reference_em(src_sentences, tgt_sentences, iterations, add=0.0):
    """Dense string-keyed EM oracle, independent of the library code paths.

    With add > 0 every re-estimation uses the closed additive form
    (count(e,f) + add) / (count(e) + add * |F|).
    """
    f_vocab = sorted({w for s in tgt_sentences for w in s})
    e_vocab = sorted({w for s in src_sentences for w in s} | {NULL})
    big_f = len(f_vocab)
    t = {(e, f): 1.0 / big_f for e in e_vocab for f in f_vocab}
    for _ in range(iterations):
        counts = {k: 0.0 for k in t}
        totals = {e: 0.0 for e in e_vocab}
        for src, tgt in zip(src_sentences, tgt_sentences):
            full_src = [NULL] + list(src)
            for f in tgt:
                den = float_sum(t[(e, f)] for e in full_src)
                for e in full_src:
                    share = t[(e, f)] / den
                    counts[(e, f)] += share
                    totals[e] += share
        t = {
            (e, f): (counts[(e, f)] + add) / (totals[e] + add * big_f)
            if totals[e] + add * big_f > 0
            else 1.0 / big_f
            for e in e_vocab
            for f in f_vocab
        }
    return t


def weight(strategy, e, f):
    """g(e, f) of an adding strategy."""
    return strategy.base_weight(e) + strategy.extra_weights(e).get(f, 0.0)


def dict_cooc(corpus):
    """Presence-based co-occurrence {e: {f: pairs}}, NULL included, as a plain dict loop.

    The oracle for ``OccurrenceStats.cooc``: rows and their keys appear in
    the order the loop first meets them.
    """
    cooc = {}
    for pair in corpus.pairs:
        target_set = set(pair.target)
        for e in set(pair.source) | {NULL_ID}:
            row = cooc.setdefault(e, {})
            for f in target_set:
                row[f] = row.get(f, 0) + 1
    return cooc


def ordered(cooc):
    """Co-occurrence as a list, so that comparing it compares key order too."""
    return [(e, list(row.items())) for e, row in cooc.items()]


def record_cooc_counts(monkeypatch):
    """Patch ``OccurrenceStats.cooc`` to append each stats object it counts; returns that list."""
    counted = []
    prop = OccurrenceStats.__dict__["cooc"]
    count = prop.func

    def recording(stats):
        counted.append(stats)
        return count(stats)

    monkeypatch.setattr(prop, "func", recording)
    return counted


def cooc_count(stats, e, f):
    """Pairs in which e and f co-occur; raises on ids outside the statistics."""
    stats.source_count(e)
    if not 0 <= f < len(stats.target_counts):
        raise UnknownTokenError(f"no target token with id {f}")
    return stats.cooc.get(e, {}).get(f, 0)


def tokens(vocab, ids):
    return [vocab.word(i) for i in ids]


def row_total(table, e):
    """Sum of t(f|e) over the table's full target vocabulary."""
    row = table.rows.get(e, {})
    default = table.row_defaults.get(e, 0.0)
    return sum(row.values()) + (len(table.target_vocab) - len(row)) * default


def uniform_init(source_vocab, target_vocab):
    """t(f|e) = 1/|F| for every source word, the standard starting point."""
    if len(source_vocab) == 0 or len(target_vocab) == 0:
        raise ValueError("vocabularies must be non-empty")
    share = 1.0 / len(target_vocab)
    defaults = {e: share for e in range(len(source_vocab))}
    return TranslationTable({}, defaults, source_vocab, target_vocab)


def hand_report(links, sure, possible=()):
    """evaluate_corpus on one pair whose Viterbi links are exactly ``links``.

    Source word i and target word j sit at positions i and j; ``links`` may
    name each target position at most once, and every other target word
    aligns to NULL.  Gold possible links are ``possible | sure``.
    """
    n = max((max(link) for link in set(links) | set(sure) | set(possible)), default=1)
    corpus = corpus_from_tokens([[f"s{i}" for i in range(1, n + 1)]],
                                [[f"t{j}" for j in range(1, n + 1)]])
    best = dict.fromkeys(range(1, n + 1), 0)
    for i, j in links:
        assert best[j] == 0, "Viterbi links name each target position at most once"
        best[j] = i
    rows = {}
    for j, i in best.items():  # source position i holds source id i, target j holds id j - 1
        rows.setdefault(i, {})[j - 1] = 1.0
    table = TranslationTable(rows, {}, corpus.source_vocab, corpus.target_vocab)
    entry = AnnotationEntry(frozenset(sure), frozenset(possible) | frozenset(sure))
    return evaluate_corpus(table, corpus, {0: entry})


def table_prob(corpus, table, e_word, f_word):
    """t(f|e) looked up by word strings; e_word may be the NULL token."""
    e = 0 if e_word == NULL else corpus.source_vocab.words.index(e_word)
    return table.prob(e, corpus.target_vocab.words.index(f_word))


def garbage_collector_corpus():
    """200 pairs with one singleton source word amid frequent words.

    Five frequent source words each have a dominant translation plus a
    secondary one used in every fifth pair.  The last pair embeds the
    singleton 'estar' in a sentence whose other targets are secondary
    translations, so unsmoothed training lets 'estar' capture them.
    One-off filler word pairs keep the target vocabulary large.
    """
    src, tgt = [], []
    mains = [f"m{i}" for i in range(5)]
    doms = [f"d{i}" for i in range(5)]
    rares = [f"r{i}" for i in range(5)]
    for n in range(199):
        if n % 5 == 0:
            a = (n // 5) % 5
            b = (a + 2) % 5
            src.append([mains[a], mains[b]])
            tgt.append([rares[a], doms[b]])
        else:
            a = n % 5
            b = (n + 2) % 5
            src.append([mains[a], mains[b], f"u{n}"])
            tgt.append([doms[a], doms[b], f"v{n}"])
    src.append(["m0", "m1", "m2", "estar"])
    tgt.append(["r0", "r1", "r2", "gstar"])
    return corpus_from_tokens(src, tgt)


# --- dict-of-dict EM and per-link scoring: the oracles the slot kernel and
# the link_scores helper must match bit for bit ---------------------------

_EMPTY = {}


def dict_estep(corpus, table):
    """Expected counts {e: {f: c}}, per-source totals and the log-likelihood."""
    if len(table.source_vocab) < len(corpus.source_vocab) or len(
        table.target_vocab
    ) < len(corpus.target_vocab):
        raise UnknownTokenError("table vocabularies do not cover this corpus")
    counts, totals = {}, {}
    log_likelihood = 0.0
    for pair in corpus.pairs:
        sources = (NULL_ID,) + pair.source
        width = len(sources)
        cached = [
            (table.rows.get(e, _EMPTY), table.row_defaults.get(e, 0.0)) for e in sources
        ]
        pair_ll = -len(pair.target) * math.log(width)
        degenerate = False
        for f in pair.target:
            values = [row.get(f, default) for row, default in cached]
            denom = float_sum(values)
            if denom > 0.0:
                pair_ll += math.log(denom)
                inv = 1.0 / denom
                for e, v in zip(sources, values):
                    if v:
                        share = v * inv
                        counts.setdefault(e, {})
                        counts[e][f] = counts[e].get(f, 0.0) + share
                        totals[e] = totals.get(e, 0.0) + share
            else:
                degenerate = True
                share = 1.0 / width
                for e in sources:
                    counts.setdefault(e, {})
                    counts[e][f] = counts[e].get(f, 0.0) + share
                    totals[e] = totals.get(e, 0.0) + share
        log_likelihood += float("-inf") if degenerate else pair_ll
    return counts, totals, log_likelihood


def dict_mstep(counts, totals, source_vocab, target_vocab, strategy, lam):
    """Re-estimate a TranslationTable from dict counts; zero denominators go uniform."""
    uniform = 1.0 / len(target_vocab)
    plain = lam == 0.0
    rows, defaults = {}, {}
    for e in range(len(source_vocab)):
        crow = counts.get(e, _EMPTY)
        total = totals.get(e, 0.0)
        if plain:
            if total > 0.0:
                rows[e] = {f: c / total for f, c in crow.items()}
            else:
                defaults[e] = uniform
            continue
        base, extras = strategy.base_weight(e), strategy.extra_weights(e)
        denom = total + lam * (base * len(target_vocab) + math.fsum(extras.values()))
        if denom <= 0.0:
            defaults[e] = uniform
            continue
        added = lam * base
        row = {f: (c + added + lam * extras.get(f, 0.0)) / denom for f, c in crow.items()}
        for f, g in extras.items():
            if f not in row:
                row[f] = (added + lam * g) / denom
        rows[e] = row
        if added > 0.0:
            defaults[e] = added / denom
    return TranslationTable(rows, defaults, source_vocab, target_vocab)


def dict_train(corpus, config):
    """EM through dict_estep/dict_mstep: (table, log-likelihood trace)."""
    table = uniform_init(corpus.source_vocab, corpus.target_vocab)
    trace = []
    for _ in range(config.iterations):
        counts, totals, log_likelihood = dict_estep(corpus, table)
        trace.append(log_likelihood)
        table = dict_mstep(counts, totals, corpus.source_vocab, corpus.target_vocab,
                           config.strategy, config.lam)
    return table, tuple(trace)


def kernel_steps(corpus, strategy, lam, iterations):
    """Run the slot kernel step by step; yields (E-step totals, table after the M-step)."""
    slots = compile_corpus(corpus)
    weights = compile_strategy(slots, strategy)
    probs = [1.0 / len(corpus.target_vocab)] * slots.slot_count
    for _ in range(iterations):
        counts, totals, _ = _estep(slots, probs)
        estimate = maximize_smoothed(slots, counts, totals, weights, lam)
        probs = estimate[0]
        yield totals, build_table(corpus, slots, estimate)


def slot_maps(slots):
    """Each row's target id -> slot map, from row order: a row's slots follow the rows before it."""
    maps, start = [], 0
    for row in slots.rows:
        maps.append({f: start + k for k, f in enumerate(row)})
        start += len(row)
    return maps


def slot_count(slots, counts, e, f):
    """Expected count of (e, f) from a per-slot count list; 0 off the support."""
    row = slots.rows[e]
    return counts[sum(map(len, slots.rows[:e])) + row.index(f)] if f in row else 0.0


def prob_posterior(pair, table):
    sources = (NULL_ID,) + pair.source
    posterior = []
    for f in pair.target:
        values = [table.prob(e, f) for e in sources]
        denom = float_sum(values)
        if denom > 0.0:
            posterior.append([v / denom for v in values])
        else:
            posterior.append([1.0 / len(sources)] * len(sources))
    return posterior


def prob_viterbi(pair, table):
    sources = (NULL_ID,) + pair.source
    alignment = []
    for f in pair.target:
        best_i, best_v = 0, table.prob(sources[0], f)
        for i in range(1, len(sources)):
            v = table.prob(sources[i], f)
            if v > best_v:
                best_i, best_v = i, v
        alignment.append(best_i)
    return tuple(alignment)


def prob_pair_log_likelihood(pair, table):
    sources = (NULL_ID,) + pair.source
    total = -len(pair.target) * math.log(len(sources))
    for f in pair.target:
        denom = float_sum(table.prob(e, f) for e in sources)
        if denom <= 0.0:
            return float("-inf")
        total += math.log(denom)
    return total


def prob_aligned_log_likelihood(pairs, alignments, table):
    total = 0.0
    for pair, alignment in zip(pairs, alignments):
        sources = (NULL_ID,) + pair.source
        for f, i in zip(pair.target, alignment):
            t = table.prob(sources[i], f)
            if t <= 0.0:
                return float("-inf")
            total += math.log(t)
    return total


def log_posterior(corpus, table, strategy, lam):
    """What smoothed EM ascends: log P(corpus | t) + lam * sum over e, f of g(e, f) log t(f|e).

    The smoothed M-step is the MAP step under a Dirichlet prior with
    exponents lam * g(e, f) + 1 (Moore 2004), so by Dempster, Laird & Rubin
    (1977) no iteration lowers this.  The likelihood has P(m|e) = 1, as the
    training trace does; the prior term runs over both full vocabularies.
    """
    total = math.fsum(prob_pair_log_likelihood(pair, table) for pair in corpus.pairs)
    if lam == 0.0:
        return total
    prior = []
    for e in range(len(corpus.source_vocab)):
        for f in range(len(corpus.target_vocab)):
            g = weight(strategy, e, f)
            if g > 0.0:
                prior.append(g * math.log(table.prob(e, f)))
    return total + lam * math.fsum(prior)


# --- the experiment without its session, table memo or shared strategy ----


def write_experiment_files(directory, corpus, rng):
    """Write a corpus and random sure/possible gold on at least 2 of its pairs; returns the 3 paths.

    Gold source positions run over 0..l, NULL included.
    """
    paths = [os.path.join(directory, name) for name in ("src.txt", "tgt.txt", "ann.txt")]
    for path, vocab, side in ((paths[0], corpus.source_vocab, "source"), (paths[1], corpus.target_vocab, "target")):
        with open(path, "w", encoding="utf-8") as handle:
            for pair in corpus.pairs:
                handle.write(" ".join(tokens(vocab, getattr(pair, side))) + "\n")
    records = []
    for k in sorted(rng.sample(range(len(corpus.pairs)), rng.randint(2, len(corpus.pairs)))):
        pair = corpus.pairs[k]
        for _ in range(rng.randint(1, len(pair.target))):
            i, j = rng.randint(0, len(pair.source)), rng.randint(1, len(pair.target))
            records.append(f"{k + 1} {i} {j} {rng.choice('SP')}\n")
    with open(paths[2], "w", encoding="utf-8") as handle:
        handle.writelines(records)
    return paths


def naive_score(spec, corpus, dev_annotation, strategy_name, objective):
    """The dev objective of one cell as a function of lambda, by dict_train retrains.

    Every call trains afresh, with a strategy made afresh from the tuning
    corpus's statistics.
    """
    if objective.requires_annotation:
        tune_corpus, dev = corpus, DevSet.from_annotations(corpus, dev_annotation)
    else:
        train_part, dev_part = split_unannotated(corpus, spec.dev_fraction, spec.seed)
        tune_corpus, dev = train_part, DevSet.unannotated(dev_part.pairs)

    def score(lam):
        strategy = make_strategy(strategy_name, occurrence_stats(tune_corpus))
        table, _ = dict_train(tune_corpus, TrainConfig(spec.iterations, lam, strategy))
        return objective.evaluate(dev, table)

    return score


def naive_experiment(spec):
    """``run_experiment`` as a plain loop: (baseline report, cells, score function per cell).

    Each cell runs a plain ``search_scale`` of ``naive_score`` over the grid
    plus 0, then trains its lambda* table afresh on the full corpus with
    full-corpus statistics.  As in ``run_experiment``, a dev fraction that
    leaves an empty side raises before any training.
    """
    corpus = load_parallel_corpus(spec.source_path, spec.target_path, spec.lowercase)
    annotation = load_annotations(spec.annotations_path, corpus)
    dev_size = spec.dev_size if spec.dev_size is not None else max(1, len(annotation) // 3)
    dev_annotation, test_annotation = split_annotated(annotation, dev_size, spec.seed)
    objectives = [Objective(name, spec.alpha) for name in spec.objectives]
    if not all(objective.requires_annotation for objective in objectives):
        split_unannotated(corpus, spec.dev_fraction, spec.seed)
    baseline_report = evaluate_corpus(dict_train(corpus, TrainConfig(spec.iterations))[0],
                                      corpus, test_annotation)
    config = spec.tune_config
    grid = sorted(set(config.grid) | {0.0})
    cells, scores = [], []
    for strategy_name in spec.strategies:
        for objective in objectives:
            cell = CellResult(strategy_name, objective.name)
            cells.append(cell)
            score = naive_score(spec, corpus, dev_annotation, strategy_name, objective)
            scores.append(score)
            try:
                lam = search_scale(score, grid, objective.maximize, config.tolerance,
                                   config.max_refine_evals).lambda_star
                final = TrainConfig(spec.iterations, lam, make_strategy(strategy_name, occurrence_stats(corpus)))
                report = evaluate_corpus(dict_train(corpus, final)[0], corpus, test_annotation)
                cell.lam, cell.aer, cell.error_count = lam, report.aer, report.error_count
                cell.decrease = baseline_report.aer - report.aer
            except (TuningError, DataFormatError, UnknownTokenError, ValueError) as err:
                cell.status = "failed"
                cell.reason = str(err)
    return baseline_report, cells, scores
