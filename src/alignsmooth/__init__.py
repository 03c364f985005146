"""IBM Model 1 word alignment with a tunable additive-smoothing framework."""

from .corpus import (
    NULL_ID,
    NULL_TOKEN,
    UNKNOWN_ID,
    AnnotationEntry,
    OccurrenceStats,
    ParallelCorpus,
    SentencePair,
    Vocabulary,
    adapt_annotation,
    corpus_from_tokens,
    load_annotations,
    load_parallel_corpus,
    occurrence_stats,
    split_annotated,
    split_unannotated,
)
from .errors import (
    AlignmentToolkitError,
    DataFormatError,
    TuningError,
    UnknownTokenError,
)
from .evaluation import EvalReport, evaluate_corpus
from .model import (
    TranslationTable,
    link_posterior,
    pair_log_likelihood,
    read_table,
    viterbi_align,
    write_table,
)
from .objectives import (
    OBJECTIVE_NAMES,
    DevSet,
    Objective,
    aligned_log_likelihood,
    alignment_error_count,
    dev_log_likelihood,
    smoothed_error_count,
)
from .smoothing import (
    STRATEGY_NAMES,
    AddDice,
    AddingStrategy,
    AddOne,
    AddSourceCount,
    make_strategy,
)
from .trainer import (
    TrainConfig,
    TrainingSession,
    TrainResult,
    train,
)
from .tuner import (
    DEFAULT_GRID,
    TuneConfig,
    TuneResult,
    brent_minimize,
    grid_bracket,
    search_scale,
    tune,
)

__version__ = "0.1.0"
