"""Training losses over adapter embeddings, with analytic gradients.

Each loss takes a stack of adapter matrices, shape (stack, d, d), plus
batches of *base* embeddings, one array per side of shape (stack,
examples, d) with row i of each side belonging to example i, labels and
a boolean row mask of shape (stack, examples).  It returns one loss per
batch, the mean or ranking over its unmasked rows, and one gradient per
matrix.  A single matrix with (examples, d) sides and no mask is a stack
of one with every row kept, and returns (float loss, d x d gradient).

A private row-space core per loss takes the batches' *projected* rows
as one (stack, sides, examples, d) array and returns the losses and
their gradient with respect to those rows, differentiating through the
re-normalization; the public loss projects the stacked sides with one
product and chains the row gradients into the matrices' gradients with
another.  A masked row adds exactly zero loss and zero gradient, and
its norm is taken as 1 rather than checked, so zero padding rows are
never normalized.  Training steps call the public losses.  All
arithmetic is float64.
"""

from __future__ import annotations

import enum

import numpy as np


class LossKind(enum.Enum):
    COSINE_SIMILARITY = "cosine_similarity"
    COSINE_SENTENCE = "cosine_sentence"
    TRIPLET = "triplet"

    @classmethod
    def parse(cls, text: str) -> "LossKind":
        key = text.lower().strip().replace("-", "_")
        for kind in cls:
            if key == kind.value:
                return kind
        raise ValueError(f"unknown loss {text!r}")


class ProjectionError(FloatingPointError):
    """An adapter projected a batch row to a zero or non-finite vector;
    `batches` holds the stack positions of the batches with such a row."""

    def __init__(self, batches: np.ndarray):
        super().__init__("adapter projected a batch row to a zero or non-finite vector")
        self.batches = batches


def _normalize(projected: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(norms, unit rows) of projected rows, over the last axis.

    A zero or non-finite norm (a collapsed row, or weights that have
    diverged) raises ProjectionError before any division.  Rows that
    `mask` leaves out are neither checked nor normalized: their norm is
    taken as 1 and their unit row is zero.
    """
    norms = np.sqrt(np.add.reduce(projected * projected, axis=-1))  # np.linalg.norm's own sum
    left_out = None if mask.all() else np.broadcast_to(~mask[:, None, :], norms.shape)
    if left_out is not None:  # the same examples on every side
        norms[left_out] = 1.0
    if not (norms.min() > 0.0 and norms.max() < np.inf):
        bad = ~((norms > 0.0) & (norms < np.inf))
        raise ProjectionError(np.flatnonzero(bad.any(axis=(1, 2))))
    unit = projected / norms[..., None]
    if left_out is not None:
        unit[left_out] = 0.0
    return norms, unit


def _pair_cosines(projected: np.ndarray, mask: np.ndarray):
    """(norms, unit rows, cosine of each pair) of projected rows of shape (stack, 2, pairs, d)."""
    norms, unit = _normalize(projected, mask)
    return norms, unit, np.add.reduce(unit[:, 0] * unit[:, 1], axis=-1)


def _cosine_grads(norms: np.ndarray, unit: np.ndarray, cos: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Gradient of sum_i coeffs[i] * cos_i with respect to the projected rows.

    The chain rule through normalization gives d cos/d p_a = (u_b - cos * u_a) / |p_a|,
    and the same with a and b swapped.
    """
    swapped = unit[:, ::-1]  # the other row of each pair
    return (swapped - cos[:, None, :, None] * unit) * (coeffs[:, None, :] / norms)[..., None]


def _cosine_similarity_rows(projected: np.ndarray, labels: np.ndarray, mask: np.ndarray):
    """Mean squared residual between pair cosines and their binary labels.

    `projected` holds the pairs' projected rows, shape (stack, 2, pairs, d).
    """
    norms, unit, cos = _pair_cosines(projected, mask)
    n = np.sum(mask, axis=-1, keepdims=True)
    residual = np.where(mask, cos - labels, 0.0)
    loss = np.sum(residual**2, axis=-1, keepdims=True) / n
    return loss[:, 0], _cosine_grads(norms, unit, cos, 2.0 * residual / n)


def _cosine_sentence_rows(projected: np.ndarray, labels: np.ndarray, mask: np.ndarray, scale: float):
    """Ranking loss over all (lower-expected, higher-expected) pair combinations.

    log(1 + sum over negative pair i, positive pair j of
    exp(scale * (cos_i - cos_j))), on projected rows of shape (stack, 2, pairs, d).
    A batch without both a positive and a negative pair has no comparable
    combinations: it contributes zero loss and zero gradient, and its rows
    are not normalized.
    """
    pos = (labels == 1) & mask
    neg = (labels == 0) & mask
    comparable = pos.any(axis=-1) & neg.any(axis=-1)
    norms, unit, cos = _pair_cosines(projected, mask & comparable[:, None])
    pairs = neg[:, :, None] & pos[:, None, :]
    terms = np.exp(np.where(pairs, scale * (cos[:, :, None] - cos[:, None, :]), -np.inf))
    total = terms.sum(axis=(-2, -1))
    coeffs = scale * (terms.sum(axis=-1) - terms.sum(axis=-2)) / (1.0 + total)[:, None]
    return np.log1p(total), _cosine_grads(norms, unit, cos, coeffs)


def _triplet_rows(projected: np.ndarray, mask: np.ndarray, margin: float):
    """Mean hinge max(|a-p| - |a-n| + margin, 0) on unit adapter embeddings.

    `projected` holds the anchor, positive and negative rows, shape
    (stack, 3, triplets, d).  Euclidean distances; at a zero distance the
    corresponding direction term is taken as zero (a subgradient choice).
    """
    norms, unit = _normalize(projected, mask)
    ua, up, un = unit[:, 0], unit[:, 1], unit[:, 2]
    diff_ap = ua - up
    diff_an = ua - un
    d_ap = np.linalg.norm(diff_ap, axis=-1)
    d_an = np.linalg.norm(diff_an, axis=-1)
    hinge = d_ap - d_an + margin
    n = np.sum(mask, axis=-1, keepdims=True)
    active = (hinge > 0.0) & mask
    loss = np.sum(np.where(active, hinge, 0.0), axis=-1) / n[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        dir_ap = np.where(d_ap[..., None] > 0.0, diff_ap / d_ap[..., None], 0.0)
        dir_an = np.where(d_an[..., None] > 0.0, diff_an / d_an[..., None], 0.0)
    step = (active / n)[..., None]
    grad_u = np.stack([(dir_ap - dir_an) * step, -dir_ap * step, dir_an * step], axis=1)
    # chain through normalization: (I - u u^T) g / |p|
    tangent = grad_u - unit * np.sum(grad_u * unit, axis=-1)[..., None]
    return loss, tangent / norms[..., None]


def _through_matrix(weights: np.ndarray, bases, labels, mask, rows_loss) -> tuple:
    """A row-space loss on `bases` projected through `weights`, and its
    gradient with respect to `weights`: per matrix, the sum over sides of
    row_grad.T @ base.  A single matrix is run as a stack of one."""
    labels = None if labels is None else np.asarray(labels)
    single = weights.ndim == 2
    if single:
        weights, bases = weights[None], [base[None] for base in bases]
        labels = None if labels is None else labels[None]
    stacked = np.asarray(np.stack(bases, axis=1), dtype=np.float64)  # (stack, sides, examples, d)
    flat = stacked.reshape(len(stacked), -1, weights.shape[-1])
    if mask is None:
        mask = np.ones((len(stacked), stacked.shape[2]), dtype=bool)
    projected = np.matmul(flat, np.swapaxes(weights, -1, -2)).reshape(stacked.shape)
    loss, row_grads = rows_loss(projected, labels, mask)
    grad = np.matmul(np.swapaxes(row_grads.reshape(flat.shape), -1, -2), flat)
    return (float(loss[0]), grad[0]) if single else (loss, grad)


def cosine_similarity_loss(
    weights: np.ndarray,
    base_a: np.ndarray,
    base_b: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple:
    """`_cosine_similarity_rows` through the adapter matrices."""
    return _through_matrix(weights, (base_a, base_b), labels, mask, _cosine_similarity_rows)


def cosine_sentence_loss(
    weights: np.ndarray,
    base_a: np.ndarray,
    base_b: np.ndarray,
    labels: np.ndarray,
    scale: float = 1.0,
    mask: np.ndarray | None = None,
) -> tuple:
    """`_cosine_sentence_rows` through the adapter matrices."""
    return _through_matrix(
        weights, (base_a, base_b), labels, mask, lambda p, y, m: _cosine_sentence_rows(p, y, m, scale)
    )


def triplet_loss(
    weights: np.ndarray,
    base_anchor: np.ndarray,
    base_positive: np.ndarray,
    base_negative: np.ndarray,
    margin: float = 3.0,
    mask: np.ndarray | None = None,
) -> tuple:
    """`_triplet_rows` through the adapter matrices."""
    return _through_matrix(
        weights,
        (base_anchor, base_positive, base_negative),
        None,
        mask,
        lambda p, _, m: _triplet_rows(p, m, margin),
    )


def clip_gradient(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale a gradient down so its global (Frobenius) norm is at most
    max_norm; a stack of gradients is clipped matrix by matrix."""
    flat = grad.reshape(-1, grad.shape[-2] * grad.shape[-1])
    norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    over = norms > max_norm
    if not over.any():
        return grad
    scale = np.divide(max_norm, norms, out=np.ones_like(norms), where=over)
    return (flat * scale[:, None]).reshape(grad.shape)
