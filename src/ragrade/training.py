"""Gradient-descent fine-tuning of the embedding adapter.

Plain full-precision gradient descent with decoupled weight decay and
global gradient-norm clipping; mini-batches are drawn in seeded shuffled
order, so a fixed seed reproduces the loss trace bitwise.

Descent starts at W = I, every gradient is a sum of row gradients times
the training set's base embeddings, and clipping and weight decay only
rescale, so every iterate is W = a*I + coef.T @ span for a scalar a.
The span is the set's n distinct base embeddings when n < d (the
representer form), else the identity.  The steps update a and coef, so
with n distinct texts a step costs n x n and n x d work instead of
d x d, and W is formed once, after the last step.  In exact arithmetic
this is the dense update `w -= lr * clip(g); w -= (lr * wd) * w`; in
floating point it differs from it in rounding only.

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


@dataclass
class _Basis:
    """The span an adapter is trained in: W = a*I + coef.T @ span.

    `span` is the m x d matrix of basis rows, or None for the identity
    (m = d).  Text i is projected as a * emb[i] + coords[i] @ coef, and a
    gradient g with respect to its projected row moves coef by the outer
    product of loadings[i] and g.
    """

    span: np.ndarray | None
    coords: np.ndarray  # (texts, m)
    loadings: np.ndarray  # (texts, m)


def _basis(emb: np.ndarray) -> _Basis:
    """The distinct texts when there are fewer of them than dimensions, else the identity."""
    n, d = emb.shape
    if n >= d:
        return _Basis(span=None, coords=emb, loadings=emb)
    return _Basis(span=emb, coords=emb @ emb.T, loadings=np.eye(n))


# overflow and NaN end training through the checks in the loop, as a
# TrainingError rather than as RuntimeWarnings
@np.errstate(over="ignore", invalid="ignore")
def _descend(config: TrainConfig, ex: _Examples) -> tuple[np.ndarray, list[float], list[float]]:
    """Run the config's steps from W = I; (weights, batch losses, epoch means)."""
    sides, n = ex.rows.shape
    d = ex.emb.shape[1]
    basis = _basis(ex.emb)
    coef = np.zeros((basis.coords.shape[1], d))
    a = 1.0  # W = a*I + coef.T @ span
    decay = config.learning_rate * config.weight_decay
    rng = np.random.default_rng(config.seed)
    labels = ex.labels
    batch_losses: list[float] = []
    epoch_means: list[float] = []
    after = "before the first step"
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            rows = ex.rows[:, batch].ravel()  # side by side
            emb = ex.emb[rows]
            projected = (a * emb + basis.coords[rows] @ coef).reshape(sides, -1, d)
            where = f"epoch {epoch}, batch {start // config.batch_size}"
            try:
                if config.loss is LossKind.COSINE_SIMILARITY:
                    loss, row_grads = cosine_similarity_rows(projected, labels[batch])
                elif config.loss is LossKind.COSINE_SENTENCE:
                    loss, row_grads = cosine_sentence_rows(projected, labels[batch], config.scale)
                else:
                    loss, row_grads = triplet_rows(projected, config.margin)
            except FloatingPointError as exc:  # a zero or non-finite projection
                raise TrainingError(f"{exc} {after}") from exc
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss} at {where}")
            # W's gradient is step.T @ emb, whose squared norm needs only the
            # batch rows' Gram matrix
            step = row_grads.reshape(-1, d)
            norm = math.sqrt(max(np.vdot(emb @ emb.T, step @ step.T), 0.0))
            if norm > config.max_grad_norm:
                step *= config.max_grad_norm / norm
            step *= config.learning_rate
            coef -= basis.loadings[rows].T @ step
            a -= decay * a
            coef -= decay * coef
            after = f"after {where}"
            batch_losses.append(loss)
            epoch_losses.append(loss)
        epoch_means.append(float(np.mean(epoch_losses)))
    weights = a * np.eye(d) + (coef.T if basis.span is None else coef.T @ basis.span)
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
