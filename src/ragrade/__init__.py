"""Retrieval-augmented short-answer grading toolkit.

Pipeline: mine labeled answer pairs, fine-tune a linear embedding
adapter, store graded responses in an exact-cosine vector store, compose
grading prompts from retrieved examples, query a pluggable generative
backend, and evaluate 5/3/2-way classification quality.
"""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    CorpusError,
    Label,
    Question,
    Response,
    Scheme,
    collapse_label,
    parse_jsonl,
    parse_semeval_xml,
    validate_corpus,
    write_jsonl,
)
from .embedding import (
    AdaptedEmbedder,
    Adapter,
    BaseEmbedder,
    HashEmbedder,
    RemoteEmbedder,
)
from .glm import (
    GenParams,
    GlmBackend,
    Judgment,
    MockBackend,
    ParseFailure,
    RemoteBackend,
    ReplayBackend,
    ScriptedBackend,
    parse_judgment,
)
from .harness import (
    EvalReport,
    ExperimentConfig,
    Grader,
    format_report_table,
    grade_responses,
    rag_fraction_experiment,
    run_scenario,
)
from .losses import (
    LossKind,
    clip_gradient,
    cosine_sentence_loss,
    cosine_similarity_loss,
    triplet_loss,
)
from .metrics import ConfusionMatrix, accuracy, macro_f1, per_class_stats, weighted_f1
from .optimize import OptimizerConfig, PromptEvaluator, optimize, propose
from .pairs import (
    Pair,
    Scope,
    Strategy,
    TrainingSets,
    Triplet,
    balance,
    build_training_sets,
    build_triplets,
    enumerate_pairs,
)
from .prompts import PromptBindings, PromptTemplate, format_examples, load_template, render
from .training import TrainConfig, TrainResult, train_adapter, train_for_corpus
from .vstore import Entry, RetrievalConfig, VectorStore, build_store, top_k
