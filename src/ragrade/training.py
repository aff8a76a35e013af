"""Gradient-descent fine-tuning of the embedding adapter.

Plain full-precision gradient descent with decoupled weight decay and
global gradient-norm clipping; mini-batches are drawn in seeded shuffled
order, so a fixed seed reproduces the loss trace bitwise.

Descent starts at W = I, every gradient is a sum of row gradients times
the training set's base embeddings, and clipping and weight decay only
rescale, so W acts as a scalar a on the complement of the texts' span.
When a set has n < d distinct texts, the steps run on their n
coordinates in an orthonormal basis of that span (from the texts' QR
factorization), where inner products, and so the losses and the
gradient's norm, are the same as in d dimensions: each step is the
dense one, `loss, g = <loss>(M, *sides); M -= lr * clip_gradient(g);
M -= lr * wd * M`, on the n x n matrix M of W on the span, and
W = a*I + basis @ (M - a*I) @ basis.T is formed once, after the last
step.  A step costs n x n work instead of d x d, and W differs from the
dense loop's in rounding only.  With n >= d the basis is the identity
and M is W itself.

Question-scope training fits one adapter per question, in question order,
on the calling thread.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .embedding import Adapter, BaseEmbedder, EmbeddingError
from .losses import LossKind, clip_gradient, cosine_sentence_loss, cosine_similarity_loss, triplet_loss
from .pairs import Pair, Scope, TrainingSets, Triplet, derive_seed


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
        for name in ("learning_rate", "margin", "scale"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be non-negative and finite, got {self.weight_decay}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")

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
    try:
        emb = base.embed_many([texts_by_id[i] for i in unique])
    except EmbeddingError as exc:
        raise TrainingError(f"embedding failed: {exc}") from exc
    return _Examples(
        kind="triplets" if triplet_mode else "pairs",
        emb=emb,
        rows=np.array([[row_of[i] for i in ids] for ids in sides], dtype=np.intp).T,
        labels=labels,
    )


def _coordinates(emb: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """(basis, x): an orthonormal basis of the texts' span and their coordinates
    in it, emb.T = basis @ x.T; (None, emb), the identity basis, when texts >= dimensions."""
    if len(emb) >= emb.shape[1]:
        return None, emb
    basis, r = np.linalg.qr(emb.T)
    return basis, r.T


# overflow and NaN end training through the checks in the loop, as a
# TrainingError rather than as RuntimeWarnings
@np.errstate(over="ignore", invalid="ignore")
def _descend(config: TrainConfig, ex: _Examples) -> tuple[np.ndarray, list[float], list[float]]:
    """Run the config's steps from W = I; (weights, batch losses, epoch means)."""
    n = ex.rows.shape[1]
    basis, x = _coordinates(ex.emb)
    lr, wd = config.learning_rate, config.weight_decay
    weights = np.eye(x.shape[1])  # M: W on the span, in its coordinates
    a = 1.0  # W on the span's complement
    rng = np.random.default_rng(config.seed)
    batch_losses: list[float] = []
    epoch_means: list[float] = []
    after = "before the first step"
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            sides = x[ex.rows[:, batch]]
            where = f"epoch {epoch}, batch {start // config.batch_size}"
            # by module global, so a wrapper installed on this module sees every step
            try:
                if config.loss is LossKind.COSINE_SIMILARITY:
                    loss, grad = cosine_similarity_loss(weights, *sides, ex.labels[batch])
                elif config.loss is LossKind.COSINE_SENTENCE:
                    loss, grad = cosine_sentence_loss(weights, *sides, ex.labels[batch], scale=config.scale)
                else:
                    loss, grad = triplet_loss(weights, *sides, margin=config.margin)
            except FloatingPointError as exc:  # a zero or non-finite projection
                raise TrainingError(f"{exc} {after}") from exc
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss} at {where}")
            weights -= lr * clip_gradient(grad, config.max_grad_norm)
            weights -= lr * wd * weights
            a -= lr * wd * a
            after = f"after {where}"
            batch_losses.append(loss)
            epoch_losses.append(loss)
        epoch_means.append(float(np.mean(epoch_losses)))
    if basis is not None:
        weights = a * np.eye(len(basis)) + basis @ (weights - a * np.eye(len(weights))) @ basis.T
    # the last step's weights are not projected again
    if not np.isfinite(weights).all():
        raise TrainingError(f"non-finite adapter weights {after}")
    return weights, batch_losses, epoch_means


def train_adapter(
    config: TrainConfig,
    examples: list[Pair] | list[Triplet],
    texts_by_id: dict[str, str],
    base: BaseEmbedder,
) -> TrainResult:
    """Fit an adapter on a pair set (cosine losses) or triplet set.

    Each distinct text is embedded once up front; each step gathers the
    batch's rows, projects them through the current adapter,
    backpropagates analytically, clips, applies weight decay, and
    descends.  A non-finite loss, a batch row projected to a zero or
    non-finite vector, or non-finite final weights end training with a
    TrainingError that names the step.
    """
    ex = _embed_examples(config, examples, texts_by_id, base)
    weights, batch_losses, epoch_means = _descend(config, ex)
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
    empty are skipped.  A question's TrainingError is raised with its id.
    """
    texts_by_id = {r.id: r.text for r in corpus.split(split)}
    triplet_mode = config.loss is LossKind.TRIPLET
    if sets.scope is Scope.GLOBAL:
        examples = sets.merged_triplets() if triplet_mode else sets.merged_pairs()
        return {"global": train_adapter(config, examples, texts_by_id, base)}
    source = sets.triplet_sets if triplet_mode else sets.pair_sets
    results: dict[str, TrainResult] = {}
    for qid, examples in source.items():
        if not examples:
            continue
        qconfig = dataclasses.replace(config, seed=derive_seed(config.seed, qid, "train"))
        try:
            results[qid] = train_adapter(qconfig, examples, texts_by_id, base)
        except TrainingError as exc:
            raise TrainingError(f"question {qid!r}: {exc}") from exc
    return results
