"""Semantic role labeling with a syntax-aware self-attention encoder.

A multi-head self-attention encoder where one head is supervised to attend
to each token's dependency head. At prediction time that head can run on
the model's own soft parse, or a one-hot parse can be injected from an
external predictor or gold annotation, all from a single checkpoint. Task
heads predict POS/predicate labels and per-predicate BIO role sequences
decoded with constrained Viterbi. Ships with a seeded synthetic corpus
generator whose role labels are a strict function of the parse, a
training/prediction/evaluation pipeline, and a CLI (`lisa-srl`).
"""

from lisa_srl.checkpoint import LoadedCheckpoint, load_checkpoint, save_checkpoint
from lisa_srl.config import RunConfig, build_run_config, parse_config_file
from lisa_srl.corpus import (
    AnnotatedSentence,
    LabelSpace,
    RoleSpan,
    TransitionTable,
    bio_to_spans,
    estimate_transitions,
    read_conll,
    read_heads_file,
    spans_to_bio,
    write_conll,
    write_heads_file,
)
from lisa_srl.decode import brute_force_decode, viterbi_decode
from lisa_srl.encoder import ParseSource, extract_parse
from lisa_srl.errors import LisaError
from lisa_srl.evaluation import (
    MetricsReport,
    corpus_uas,
    evaluate_corpus,
    srl_prf,
    uas,
)
from lisa_srl.model import LisaModel, SentencePrediction
from lisa_srl.numerics import Parameter, Tape, Tensor, finite_difference_check
from lisa_srl.pipeline import (
    GenSynthParams,
    TrainResult,
    evaluate,
    gen_synth,
    load_split,
    predict,
    train,
)
from lisa_srl.synth import (
    gen_splits,
    gen_synthetic,
    pretrained_vectors,
    roles_from_tree,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedSentence",
    "GenSynthParams",
    "LabelSpace",
    "LisaError",
    "LisaModel",
    "LoadedCheckpoint",
    "MetricsReport",
    "Parameter",
    "ParseSource",
    "RoleSpan",
    "RunConfig",
    "SentencePrediction",
    "Tape",
    "Tensor",
    "TrainResult",
    "TransitionTable",
    "bio_to_spans",
    "brute_force_decode",
    "build_run_config",
    "corpus_uas",
    "estimate_transitions",
    "evaluate",
    "evaluate_corpus",
    "extract_parse",
    "finite_difference_check",
    "gen_splits",
    "gen_synth",
    "gen_synthetic",
    "load_checkpoint",
    "load_split",
    "parse_config_file",
    "predict",
    "pretrained_vectors",
    "read_conll",
    "read_heads_file",
    "roles_from_tree",
    "save_checkpoint",
    "spans_to_bio",
    "srl_prf",
    "train",
    "uas",
    "viterbi_decode",
    "write_conll",
    "write_heads_file",
    "__version__",
]
