"""Gradient-descent fine-tuning of the embedding adapter.

Plain full-precision gradient descent with decoupled weight decay and
global gradient-norm clipping; mini-batches are drawn in seeded shuffled
order, so a fixed seed reproduces the loss trace bitwise.

Descent starts at W = I, every gradient is a sum of row gradients times
the training set's base embeddings, and clipping and weight decay only
rescale, so every iterate is W = a*I + basis @ delta @ basis.T for a
scalar a and an orthonormal basis of the set's n distinct texts (from
their QR factorization) when n < d, else the identity.  The steps run
the dense update `w -= lr * clip(g); w -= (lr * wd) * w` on the n x n
part a*I + delta, over the texts' n coordinates in that basis: inner
products, and so the losses and the gradient's norm, are the same in
the basis as in d dimensions.  A step costs n x n work instead of d x d,
and W is formed once, after the last step; it differs from the dense
loop's in rounding only.

Question-scope training fits one adapter per question, in question order,
on the calling thread.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .embedding import Adapter, BaseEmbedder
from .losses import (  # noqa: F401  perfbench's tracer wraps the d x d losses by name here
    LossKind,
    cosine_sentence_loss,
    cosine_sentence_rows,
    cosine_similarity_loss,
    cosine_similarity_rows,
    triplet_loss,
    triplet_rows,
)
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


def _coordinates(emb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(basis, x): an orthonormal basis of the texts' span and their coordinates
    in it, emb.T = basis @ x.T; the identity and emb when texts >= dimensions."""
    if len(emb) >= emb.shape[1]:
        return np.eye(emb.shape[1]), emb
    basis, r = np.linalg.qr(emb.T)
    return basis, r.T


# overflow and NaN end training through the checks in the loop, as a
# TrainingError rather than as RuntimeWarnings
@np.errstate(over="ignore", invalid="ignore")
def _descend(config: TrainConfig, ex: _Examples) -> tuple[np.ndarray, list[float], list[float]]:
    """Run the config's steps from W = I; (weights, batch losses, epoch means)."""
    sides, n = ex.rows.shape
    basis, x = _coordinates(ex.emb)
    m = x.shape[1]
    delta = np.zeros((m, m))
    a = 1.0  # W = a*I + basis @ delta @ basis.T
    decay = config.learning_rate * config.weight_decay
    rng = np.random.default_rng(config.seed)
    batch_losses: list[float] = []
    epoch_means: list[float] = []
    after = "before the first step"
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            coords = x[ex.rows[:, batch].ravel()]  # side by side
            projected = (a * coords + coords @ delta.T).reshape(sides, -1, m)
            where = f"epoch {epoch}, batch {start // config.batch_size}"
            try:
                if config.loss is LossKind.COSINE_SIMILARITY:
                    loss, row_grads = cosine_similarity_rows(projected, ex.labels[batch])
                elif config.loss is LossKind.COSINE_SENTENCE:
                    loss, row_grads = cosine_sentence_rows(projected, ex.labels[batch], config.scale)
                else:
                    loss, row_grads = triplet_rows(projected, config.margin)
            except FloatingPointError as exc:  # a zero or non-finite projection
                raise TrainingError(f"{exc} {after}") from exc
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss} at {where}")
            # the basis is orthonormal, so this has the norm of W's gradient
            grad = row_grads.reshape(-1, m).T @ coords
            norm = np.linalg.norm(grad)
            step = config.learning_rate
            if norm > config.max_grad_norm:
                step *= config.max_grad_norm / norm
            grad *= step
            delta -= grad
            a -= decay * a
            delta *= 1.0 - decay  # in place, with no d x d temporary in global scope
            after = f"after {where}"
            batch_losses.append(loss)
            epoch_losses.append(loss)
        epoch_means.append(float(np.mean(epoch_losses)))
    weights = a * np.eye(len(basis)) + basis @ delta @ basis.T
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
