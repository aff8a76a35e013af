"""Gradient-descent fine-tuning of the embedding adapter.

Plain full-precision gradient descent with decoupled weight decay and
global gradient-norm clipping; mini-batches are drawn in seeded shuffled
order, so a fixed seed reproduces the loss trace bitwise.

A step allocates no d x d array: the loss writes its gradient into one
buffer held for the whole run (summing its products through a second
one), and clipping, the learning-rate scale and the weight decay are
written over that buffer in place.  The elementwise operations and
their order are those of the allocating update
`w -= lr * clip(g); w -= (lr * wd) * w`, so the weights and the loss
trace equal that update's bitwise.

Question-scope training fits the questions' adapters on a thread pool
when the process's BLAS threads leave CPUs idle.  The calling thread
embeds every question's texts and allocates every d x d array; the
workers only run the steps, each from its own seed, so the results equal
the sequential loop's bitwise.
"""

from __future__ import annotations

import dataclasses
import queue
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .embedding import Adapter, BaseEmbedder
from .losses import (
    LossKind,
    clip_gradient,
    cosine_sentence_loss,
    cosine_similarity_loss,
    triplet_loss,
)
from .pairs import Pair, Scope, TrainingSets, Triplet, derive_seed
from .pool import blas_threads, in_order, usable_cpus


class TrainingError(Exception):
    pass


@dataclass
class TrainConfig:
    loss: LossKind = LossKind.COSINE_SENTENCE
    batch_size: int = 8
    learning_rate: float = 6e-6
    weight_decay: float = 1e-7
    max_grad_norm: float = 3.0
    margin: float = 3.0
    epochs: int = 3
    seed: int = 0
    scale: float = 1.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.loss is LossKind.COSINE_SENTENCE and self.batch_size < 2:
            raise ValueError(f"cosine_sentence loss needs batch_size >= 2, got {self.batch_size}")
        if not self.max_grad_norm > 0:
            raise ValueError(f"max_grad_norm must be positive, got {self.max_grad_norm}")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ValueError("learning_rate must be positive, weight_decay non-negative")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")

    def manifest(self) -> dict:
        return {**dataclasses.asdict(self), "loss": self.loss.value}


@dataclass
class TrainResult:
    adapter: Adapter
    batch_losses: list[float] = field(default_factory=list)
    epoch_means: list[float] = field(default_factory=list)


@dataclass
class _Examples:
    """A training set as row indices into one matrix of its distinct texts."""

    kind: str  # "pairs" or "triplets"
    emb: np.ndarray  # one base embedding per distinct text id
    rows: np.ndarray  # (sides, examples): the row of each side of each example
    labels: np.ndarray | None  # pair labels; None for triplets


def _embed_examples(
    config: TrainConfig,
    examples: list[Pair] | list[Triplet],
    texts_by_id: dict[str, str],
    base: BaseEmbedder,
) -> _Examples:
    """Check a training set against the loss and embed each distinct text once."""
    if not examples:
        raise TrainingError("empty training set")
    triplet_mode = config.loss is LossKind.TRIPLET
    if triplet_mode and not isinstance(examples[0], Triplet):
        raise TrainingError("triplet loss needs a triplet set")
    if not triplet_mode and not isinstance(examples[0], Pair):
        raise TrainingError(f"{config.loss.value} loss needs a labeled pair set")

    if triplet_mode:
        sides = [[t.anchor_id, t.positive_id, t.negative_id] for t in examples]
        labels = None
    else:
        sides = [[p.a_id, p.b_id] for p in examples]
        labels = np.array([p.label for p in examples], dtype=np.float64)
        if np.any((labels != 0) & (labels != 1)):
            raise TrainingError("pair labels must be 0 or 1")
    unique = sorted({i for ids in sides for i in ids})
    row_of = {i: row for row, i in enumerate(unique)}
    return _Examples(
        kind="triplets" if triplet_mode else "pairs",
        emb=base.embed_many([texts_by_id[i] for i in unique]),
        rows=np.array([[row_of[i] for i in ids] for ids in sides], dtype=np.intp).T,
        labels=labels,
    )


# overflow and NaN end training through the checks in the loop, as a
# TrainingError rather than as RuntimeWarnings
@np.errstate(over="ignore", invalid="ignore")
def _descend(
    config: TrainConfig,
    ex: _Examples,
    weights: np.ndarray,
    grad: np.ndarray,
    scratch: np.ndarray,
) -> tuple[list[float], list[float]]:
    """Run the config's steps on `weights` in place; (batch losses, epoch means).

    `grad` and `scratch` are d x d buffers for the losses' gradient
    products, so the steps allocate no d x d array.
    """
    rng = np.random.default_rng(config.seed)
    n = ex.rows.shape[1]
    labels = ex.labels
    batch_losses: list[float] = []
    epoch_means: list[float] = []
    after = "before the first step"
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            sides = [ex.emb[rows[batch]] for rows in ex.rows]
            where = f"epoch {epoch}, batch {start // config.batch_size}"
            try:
                if config.loss is LossKind.COSINE_SIMILARITY:
                    loss, _ = cosine_similarity_loss(
                        weights, *sides, labels[batch], out=grad, scratch=scratch
                    )
                elif config.loss is LossKind.COSINE_SENTENCE:
                    loss, _ = cosine_sentence_loss(
                        weights, *sides, labels[batch], scale=config.scale, out=grad, scratch=scratch
                    )
                else:
                    loss, _ = triplet_loss(
                        weights, *sides, margin=config.margin, out=grad, scratch=scratch
                    )
            except FloatingPointError as exc:  # a zero or non-finite projection
                raise TrainingError(f"{exc} {after}") from exc
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss} at {where}")
            # grad * clip, lr * grad and (lr * wd) * weights, each written over grad
            clip_gradient(grad, config.max_grad_norm, out=grad)
            np.multiply(grad, config.learning_rate, out=grad)
            weights -= grad
            np.multiply(weights, config.learning_rate * config.weight_decay, out=grad)
            weights -= grad
            after = f"after {where}"
            batch_losses.append(loss)
            epoch_losses.append(loss)
        epoch_means.append(float(np.mean(epoch_losses)))
    # the last step's weights are not projected again; min and max see a
    # NaN or an infinity anywhere without a d x d array of flags
    if not (np.isfinite(weights.min()) and np.isfinite(weights.max())):
        raise TrainingError(f"non-finite adapter weights {after}")
    return batch_losses, epoch_means


def _result(
    config: TrainConfig,
    ex: _Examples,
    base: BaseEmbedder,
    weights: np.ndarray,
    batch_losses: list[float],
    epoch_means: list[float],
) -> TrainResult:
    adapter = Adapter(
        weights=weights,
        trained_on={
            "config": config.manifest(),
            "base_embedder": base.embedder_id,
            "examples": ex.rows.shape[1],
            "kind": ex.kind,
        },
    )
    return TrainResult(adapter=adapter, batch_losses=batch_losses, epoch_means=epoch_means)


def train_adapter(
    config: TrainConfig,
    examples: list[Pair] | list[Triplet],
    texts_by_id: dict[str, str],
    base: BaseEmbedder,
) -> TrainResult:
    """Fit an adapter on a pair set (cosine losses) or triplet set.

    Each distinct text is embedded once up front; each step gathers the
    batch's rows, projects them through the current matrix,
    backpropagates analytically, clips, applies weight decay, and
    descends.  A non-finite loss, a batch row projected to a zero or
    non-finite vector, or non-finite final weights end training with a
    TrainingError that names the step.
    """
    ex = _embed_examples(config, examples, texts_by_id, base)
    weights = np.eye(base.dim, dtype=np.float64)
    losses = _descend(config, ex, weights, np.empty_like(weights), np.empty_like(weights))
    return _result(config, ex, base, weights, *losses)


def _pool_size(questions: int) -> int:
    """Workers for training `questions` adapters at once.

    As many as the usable CPUs hold at the process's BLAS thread count,
    and never more than the questions; 1 when the count cannot be read.
    """
    threads = blas_threads()
    if threads is None:
        return 1
    return max(1, min(questions, usable_cpus() // threads))


def train_for_corpus(
    config: TrainConfig,
    corpus: Corpus,
    sets: TrainingSets,
    base: BaseEmbedder,
    split: str = "train",
) -> dict[str, TrainResult]:
    """Train per the sets' scope: one adapter per question, or one global.

    Returns a mapping question_id -> result for question scope, or
    {"global": result} for global scope.  Per-question runs derive their
    seed from the config seed and the question id; questions whose set is
    empty are skipped.

    Questions are fitted on a pool of `_pool_size` workers, inline when
    that is 1.  The calling thread embeds each question's texts and
    allocates its weights as the pool draws it, and allocates every
    worker's gradient buffers, so the base embedder is never called from
    two threads.  Results and the first error are those of the
    sequential loop, in question order.
    """
    texts_by_id = {r.id: r.text for r in corpus.split(split)}
    triplet_mode = config.loss is LossKind.TRIPLET
    if sets.scope is Scope.GLOBAL:
        examples = sets.merged_triplets() if triplet_mode else sets.merged_pairs()
        return {"global": train_adapter(config, examples, texts_by_id, base)}
    source = sets.triplet_sets if triplet_mode else sets.pair_sets
    questions = [(qid, examples) for qid, examples in source.items() if examples]
    workers = _pool_size(len(questions))
    d = base.dim
    buffers = queue.SimpleQueue()  # (grad, scratch) per worker
    for _ in range(workers):
        buffers.put((np.empty((d, d)), np.empty((d, d))))

    def drawn():
        for qid, examples in questions:
            qconfig = dataclasses.replace(config, seed=derive_seed(config.seed, qid, "train"))
            try:
                ex = _embed_examples(qconfig, examples, texts_by_id, base)
            except Exception as exc:  # raised in the question's turn, as the loop would
                yield qid, qconfig, exc, None
                continue
            yield qid, qconfig, ex, np.eye(d, dtype=np.float64)

    def fit(job):
        qid, qconfig, ex, weights = job
        grad, scratch = buffers.get()
        try:
            if isinstance(ex, Exception):
                raise ex
            return job, _descend(qconfig, ex, weights, grad, scratch)
        except TrainingError as exc:
            raise TrainingError(f"question {qid!r}: {exc}") from exc
        finally:
            buffers.put((grad, scratch))

    fitted = map(fit, drawn()) if workers <= 1 else in_order(fit, drawn(), workers)
    results: dict[str, TrainResult] = {}
    for (qid, qconfig, ex, weights), losses in fitted:
        results[qid] = _result(qconfig, ex, base, weights, *losses)
    return results
