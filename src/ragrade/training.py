"""Gradient-descent fine-tuning of the embedding adapter.

Plain full-precision gradient descent with decoupled weight decay and
global gradient-norm clipping; mini-batches are drawn in seeded shuffled
order, so a fixed seed reproduces the loss trace bitwise.

Descent starts at W = I, every gradient is a sum of row gradients times
the set's base embeddings, and clipping and weight decay only rescale,
so W acts as a scalar a on the complement of the texts' span.  With
n < d distinct texts, each step is the dense one, `loss, g = <loss>(M,
*sides); M -= lr * clip_gradient(g); M -= lr * wd * M`, on the n x n
matrix M of W in an orthonormal basis of the span (from the texts' QR
factorization), where inner products, losses and the gradient's norm
are those of d dimensions.  The adapter keeps W factored, as a, the
basis and core = M - a*I (W = a*I + basis @ core @ basis.T), and never
forms the d x d matrix; it differs from the dense loop's in rounding
only.  With n >= d the basis is the identity and M is W itself.

One loop, `_descend`, trains every set, on the calling thread: a stack
of sets steps in lockstep, each step calling the loss once on the stack
of every set's next batch, zero-padded to the largest span and to full
batches under a row mask, then clipping and decaying each set's matrix.
A single adapter (`train_adapter`, global scope) is a stack of one.
Question scope stacks its questions by span, one stack per power-of-two
span bucket, so padding never doubles a question's span.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .embedding import Adapter, BaseEmbedder, EmbeddingError
from .losses import (
    LossKind,
    ProjectionError,
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
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")

    def manifest(self) -> dict:
        return json_fields(self)


def json_fields(config) -> dict:
    """A config dataclass's fields as JSON values: an enum by its value, a tuple as a list."""
    return {
        k: v.value if isinstance(v, enum.Enum) else list(v) if isinstance(v, tuple) else v
        for k, v in dataclasses.asdict(config).items()
    }


@dataclass
class TrainResult:
    adapter: Adapter
    batch_losses: list[float] = field(default_factory=list)
    epoch_means: list[float] = field(default_factory=list)


@dataclass
class _Examples:
    """A training set as row indices into the coordinates of its distinct texts."""

    kind: str  # "pairs" or "triplets"
    basis: np.ndarray | None  # (basis, x): _coordinates of the texts' base embeddings,
    x: np.ndarray  # one row of x per distinct text id
    rows: np.ndarray  # (sides, examples): the row of each side of each example
    labels: np.ndarray | None  # pair labels; None for triplets


def _embed_examples(
    config: TrainConfig,
    examples: list[Pair] | list[Triplet],
    texts_by_id: dict[str, str],
    base: BaseEmbedder,
) -> _Examples:
    """Check a training set against the loss and embed each distinct text once,
    keeping only the texts' basis and coordinates."""
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
        "triplets" if triplet_mode else "pairs",
        *_coordinates(emb),
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


def _batches(config: TrainConfig, seed: int, n: int) -> np.ndarray:
    """Every step's examples, shape (steps, batch_size), in the seeded
    shuffled order; n pads the short last batch of each epoch."""
    rng = np.random.default_rng(seed)
    order = np.full((config.epochs, -(-n // config.batch_size) * config.batch_size), n)
    for epoch in order:
        epoch[:n] = rng.permutation(n)
    return order.reshape(-1, config.batch_size)


def _loss(config: TrainConfig, weights: np.ndarray, sides: np.ndarray, labels: np.ndarray, mask: np.ndarray):
    """The config's loss on a stack of batches with their row mask."""
    # by module global, so a wrapper installed on this module sees every step
    if config.loss is LossKind.COSINE_SIMILARITY:
        return cosine_similarity_loss(weights, *sides, labels, mask=mask)
    if config.loss is LossKind.COSINE_SENTENCE:
        return cosine_sentence_loss(weights, *sides, labels, scale=config.scale, mask=mask)
    return triplet_loss(weights, *sides, margin=config.margin, mask=mask)


def _at(step: int, per_epoch: int) -> str:
    """The epoch and batch of a step, for an error message."""
    return f"epoch {step // per_epoch}, batch {step % per_epoch}"


def _after(steps: int, per_epoch: int) -> str:
    """Where training stood once `steps` steps had run, for an error message."""
    return f"after {_at(steps - 1, per_epoch)}" if steps else "before the first step"


# overflow and NaN end training through the checks in the loop, as a
# TrainingError rather than as RuntimeWarnings
@np.errstate(over="ignore", invalid="ignore")
def _descend(
    config: TrainConfig, jobs: list[tuple[int, _Examples]], base: BaseEmbedder
) -> list[TrainResult | TrainingError]:
    """Run the config's steps from W = I on many sets at once, one (seed,
    examples) job each: the result of each job, or the TrainingError that
    ended it.

    Every job keeps its own basis, seed and batch order.  Step t calls the
    loss once on the stacked t-th batches of the jobs with more than t
    steps: coordinates and weights are zero-padded to the largest span,
    and short batches to batch_size with masked rows that point at a zero
    row.  Jobs are stacked longest schedule first, so the active jobs are
    a leading slice of the stack.  A job that fails is dropped from the
    stack and the others step on.
    """
    lr, wd = config.learning_rate, config.weight_decay
    per_epoch = [-(-ex.rows.shape[1] // config.batch_size) for _, ex in jobs]
    steps = [config.epochs * p for p in per_epoch]
    stack = sorted(range(len(jobs)), key=lambda j: -steps[j])  # stable: job order among equals
    dim = max(ex.x.shape[1] for _, ex in jobs)
    height = max(len(ex.x) for _, ex in jobs) + 1  # every job's block ends in a zero row
    points = np.zeros((len(jobs), height, dim))
    for j, (_, ex) in enumerate(jobs):
        points[j, : len(ex.x), : ex.x.shape[1]] = ex.x
    points = points.reshape(-1, dim)

    # each step's batch of each job in the stack: rows of `points`, labels and row mask
    shape = (max(steps), len(jobs), config.batch_size)
    rows = np.zeros((shape[0], jobs[0][1].rows.shape[0], *shape[1:]), dtype=np.intp)
    labels, mask = np.zeros(shape), np.zeros(shape, dtype=bool)
    for i, j in enumerate(stack):
        seed, ex = jobs[j]
        order = _batches(config, seed, ex.rows.shape[1])
        mask[: steps[j], i] = valid = order < ex.rows.shape[1]
        order[~valid] = 0
        padded = np.where(valid, ex.rows[:, order], len(ex.x))  # (sides, steps, batch_size)
        rows[: steps[j], :, i] = j * height + padded.swapaxes(0, 1)
        if ex.labels is not None:
            labels[: steps[j], i] = ex.labels[order]

    weights = np.tile(np.eye(dim), (len(jobs), 1, 1))  # M: W on each span, in its coordinates
    trace = np.zeros(shape[:2])
    outcome: list = [None] * len(jobs)
    left = [steps[j] for j in stack]  # the stack's schedule lengths, longest first
    t = 0
    while t < len(trace):
        k = len(stack)
        while k and left[k - 1] <= t:
            k -= 1
        if k == 0:
            break
        try:
            loss, grad = _loss(config, weights[:k], points[rows[t, :, :k]], labels[t, :k], mask[t, :k])
        except ProjectionError as exc:  # a zero or non-finite projection
            failures = {i: f"{exc} {_after(t, per_epoch[stack[i]])}" for i in exc.batches}
        else:
            failures = {
                i: f"non-finite loss {loss[i]} at {_at(t, per_epoch[stack[i]])}"
                for i in np.flatnonzero(~np.isfinite(loss))
            }
        if failures:
            for i, message in failures.items():
                outcome[stack[i]] = TrainingError(message)
            keep = [i for i in range(len(stack)) if i not in failures]
            rows, labels, mask = rows[:, :, keep], labels[:, keep], mask[:, keep]
            weights, trace = weights[keep], trace[:, keep]
            stack, left = [stack[i] for i in keep], [left[i] for i in keep]
            continue
        # the dense step's arithmetic, in place: W -= lr * clip(g); W -= lr * wd * W
        active, step = weights[:k], clip_gradient(grad, config.max_grad_norm)
        step *= lr
        active -= step
        active -= np.multiply(active, lr * wd, out=step)
        trace[t, :k] = loss
        t += 1

    a = [1.0]  # W on each span's complement, after each number of steps
    for _ in range(len(trace)):
        a.append(a[-1] - lr * wd * a[-1])
    for i, j in enumerate(stack):
        (seed, ex), m = jobs[j], jobs[j][1].x.shape[1]
        # W = a*I + basis @ (M - a*I) @ basis.T, kept factored: core = M - a*I
        scale = 0.0 if ex.basis is None else a[steps[j]]
        core = weights[i, :m, :m] - scale * np.eye(m)
        # the last step's weights are not projected again
        if not np.isfinite(core).all():
            outcome[j] = TrainingError(f"non-finite adapter weights {_after(steps[j], per_epoch[j])}")
            continue
        batch_losses = trace[: steps[j], i].tolist()
        adapter = Adapter(
            a=scale,
            basis=ex.basis,
            core=core,
            trained_on={
                "config": dataclasses.replace(config, seed=seed).manifest(),
                "base_embedder": base.embedder_id,
                "examples": ex.rows.shape[1],
                "kind": ex.kind,
            },
        )
        epoch_means = [
            float(np.mean(batch_losses[s : s + per_epoch[j]])) for s in range(0, steps[j], per_epoch[j])
        ]
        outcome[j] = TrainResult(adapter=adapter, batch_losses=batch_losses, epoch_means=epoch_means)
    return outcome


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
    (result,) = _descend(config, [(config.seed, ex)], base)
    if isinstance(result, TrainingError):
        raise result
    return result


def train_for_corpus(
    config: TrainConfig,
    corpus: Corpus,
    sets: TrainingSets,
    base: BaseEmbedder,
) -> dict[str, TrainResult]:
    """Train per the sets' scope: one adapter per question, or one global.

    Returns a mapping question_id -> result for question scope, or
    {"global": result} for global scope.  Per-question runs derive their
    seed from the config seed and the question id, and train in lockstep
    (`_descend`), one stack per span bucket; questions whose set is empty
    are skipped.  The TrainingError of the first failing question in
    question order is raised with its id.
    """
    texts_by_id = {r.id: r.text for r in corpus.split("train")}
    triplet_mode = config.loss is LossKind.TRIPLET
    if sets.scope is Scope.GLOBAL:
        examples = sets.merged_triplets() if triplet_mode else sets.merged_pairs()
        return {"global": train_adapter(config, examples, texts_by_id, base)}
    source = sets.triplet_sets if triplet_mode else sets.pair_sets
    jobs: dict[str, tuple[int, _Examples]] = {}
    outcome: dict[str, TrainResult | TrainingError] = {}
    for qid, examples in source.items():
        if not examples:
            continue
        qconfig = dataclasses.replace(config, seed=derive_seed(config.seed, qid, "train"))
        try:
            jobs[qid] = qconfig.seed, _embed_examples(qconfig, examples, texts_by_id, base)
        except TrainingError as exc:
            outcome[qid] = exc
    # one stack per span bucket (2^(b-1), 2^b], so that no question's span
    # is padded to twice its size or more
    buckets: dict[int, list[str]] = {}
    for qid, (_, ex) in jobs.items():
        buckets.setdefault((ex.x.shape[1] - 1).bit_length(), []).append(qid)
    for qids in buckets.values():
        outcome.update(zip(qids, _descend(config, [jobs[qid] for qid in qids], base)))
    for qid in source:
        if isinstance(outcome.get(qid), TrainingError):
            raise TrainingError(f"question {qid!r}: {outcome[qid]}") from outcome[qid]
    return {qid: outcome[qid] for qid in source if qid in outcome}
