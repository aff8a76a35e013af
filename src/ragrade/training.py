"""Gradient-descent fine-tuning of the embedding adapter.

Plain full-precision gradient descent with decoupled weight decay and
global gradient-norm clipping; mini-batches are drawn in seeded shuffled
order, so a fixed seed reproduces the loss trace bitwise.

A step allocates no d x d array of its own: the loss writes its gradient
into one buffer held for the whole run, and clipping, the learning-rate
scale and the weight decay are written over that buffer in place.  The
elementwise operations and their order are those of the allocating
update `w -= lr * clip(g); w -= (lr * wd) * w`, so the weights and the
loss trace equal that update's bitwise.
"""

from __future__ import annotations

import dataclasses
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
        if self.loss is LossKind.COSINE_SENTENCE and self.batch_size < 2:
            raise ValueError("cosine_sentence loss needs batch_size >= 2")
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


def _embed_texts(base: BaseEmbedder, ids: list[str], texts_by_id: dict[str, str]) -> dict[str, np.ndarray]:
    unique = sorted(set(ids))
    vectors = base.embed_many([texts_by_id[i] for i in unique])
    return dict(zip(unique, vectors))


# overflow and NaN end training through the checks in the loop, as a
# TrainingError rather than as RuntimeWarnings
@np.errstate(over="ignore", invalid="ignore")
def train_adapter(
    config: TrainConfig,
    examples: list[Pair] | list[Triplet],
    texts_by_id: dict[str, str],
    base: BaseEmbedder,
) -> TrainResult:
    """Fit an adapter on a pair set (cosine losses) or triplet set.

    Base embeddings are computed once up front; each step projects the
    batch through the current matrix, backpropagates analytically, clips,
    applies weight decay, and descends.  A non-finite loss, a batch row
    projected to a zero or non-finite vector, or non-finite final weights
    end training with a TrainingError that names the step.
    """
    if not examples:
        raise TrainingError("empty training set")
    triplet_mode = config.loss is LossKind.TRIPLET
    if triplet_mode and not isinstance(examples[0], Triplet):
        raise TrainingError("triplet loss needs a triplet set")
    if not triplet_mode and not isinstance(examples[0], Pair):
        raise TrainingError(f"{config.loss.value} loss needs a labeled pair set")

    if triplet_mode:
        ids = [i for t in examples for i in (t.anchor_id, t.positive_id, t.negative_id)]
    else:
        ids = [i for p in examples for i in (p.a_id, p.b_id)]
    cache = _embed_texts(base, ids, texts_by_id)

    if triplet_mode:
        left = np.stack([cache[t.anchor_id] for t in examples])
        mid = np.stack([cache[t.positive_id] for t in examples])
        right = np.stack([cache[t.negative_id] for t in examples])
        labels = None
    else:
        left = np.stack([cache[p.a_id] for p in examples])
        mid = np.stack([cache[p.b_id] for p in examples])
        right = None
        labels = np.array([p.label for p in examples], dtype=np.float64)
        if np.any((labels != 0) & (labels != 1)):
            raise TrainingError("pair labels must be 0 or 1")

    weights = np.eye(base.dim, dtype=np.float64)
    grad = np.empty_like(weights)
    rng = np.random.default_rng(config.seed)
    n = len(examples)
    batch_losses: list[float] = []
    epoch_means: list[float] = []
    after = "before the first step"
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            where = f"epoch {epoch}, batch {start // config.batch_size}"
            try:
                if config.loss is LossKind.COSINE_SIMILARITY:
                    loss, _ = cosine_similarity_loss(
                        weights, left[batch], mid[batch], labels[batch], out=grad
                    )
                elif config.loss is LossKind.COSINE_SENTENCE:
                    loss, _ = cosine_sentence_loss(
                        weights, left[batch], mid[batch], labels[batch], scale=config.scale, out=grad
                    )
                else:
                    loss, _ = triplet_loss(
                        weights, left[batch], mid[batch], right[batch], margin=config.margin, out=grad
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
    # the last step's weights are not projected again
    if not np.all(np.isfinite(weights)):
        raise TrainingError(f"non-finite adapter weights {after}")

    adapter = Adapter(
        weights=weights,
        trained_on={
            "config": config.manifest(),
            "base_embedder": base.embedder_id,
            "examples": n,
            "kind": "triplets" if triplet_mode else "pairs",
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
    empty are skipped.
    """
    texts_by_id = {r.id: r.text for r in corpus.split(split)}
    triplet_mode = config.loss is LossKind.TRIPLET
    if sets.scope is Scope.GLOBAL:
        examples = sets.merged_triplets() if triplet_mode else sets.merged_pairs()
        return {"global": train_adapter(config, examples, texts_by_id, base)}
    results: dict[str, TrainResult] = {}
    source = sets.triplet_sets if triplet_mode else sets.pair_sets
    for qid, examples in source.items():
        if not examples:
            continue
        qconfig = dataclasses.replace(config, seed=derive_seed(config.seed, qid, "train"))
        try:
            results[qid] = train_adapter(qconfig, examples, texts_by_id, base)
        except TrainingError as exc:
            raise TrainingError(f"question {qid!r}: {exc}") from exc
    return results
