"""Training losses over adapter embeddings, with analytic gradients.

Each loss takes the adapter matrix plus batches of *base* embeddings,
one array per side with row i of each side belonging to example i, and
returns (scalar loss, gradient with respect to the matrix).  A private
row-space core per loss takes the batch's *projected* rows as one
(sides, examples, d) array and returns the loss and its gradient with
respect to those rows, differentiating through the re-normalization;
the public loss projects the stacked sides with one product and chains
the row gradients into the matrix's gradient with another.  Training
steps call the public losses.  All arithmetic is float64.
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


def _normalize(projected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(norms, unit rows) of projected rows, over the last axis.

    A zero or non-finite norm (a collapsed row, or weights that have
    diverged) raises FloatingPointError before any division.
    """
    norms = np.linalg.norm(projected, axis=-1)
    if not np.all((norms > 0.0) & (norms < np.inf)):
        raise FloatingPointError("adapter projected a batch row to a zero or non-finite vector")
    return norms, projected / norms[..., None]


def _pair_cosines(projected: np.ndarray):
    """(norms, unit rows, cosine of each pair) of projected rows of shape (2, pairs, d)."""
    norms, unit = _normalize(projected)
    return norms, unit, np.sum(unit[0] * unit[1], axis=1)


def _cosine_grads(norms: np.ndarray, unit: np.ndarray, cos: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Gradient of sum_i coeffs[i] * cos_i with respect to the projected rows.

    The chain rule through normalization gives d cos/d p_a = (u_b - cos * u_a) / |p_a|,
    and the same with a and b swapped.
    """
    return (unit[::-1] - cos[:, None] * unit) * (coeffs / norms)[..., None]


def _cosine_similarity_rows(projected: np.ndarray, labels: np.ndarray):
    """Mean squared residual between pair cosines and their binary labels.

    `projected` holds the pairs' projected rows, shape (2, pairs, d).
    """
    norms, unit, cos = _pair_cosines(projected)
    residual = cos - np.asarray(labels, dtype=np.float64)
    loss = float(np.mean(residual**2))
    return loss, _cosine_grads(norms, unit, cos, 2.0 * residual / len(residual))


def _cosine_sentence_rows(projected: np.ndarray, labels: np.ndarray, scale: float = 1.0):
    """Ranking loss over all (lower-expected, higher-expected) pair combinations.

    log(1 + sum over negative pair i, positive pair j of
    exp(scale * (cos_i - cos_j))), on projected rows of shape (2, pairs, d).
    A batch without both a positive and a negative pair has no comparable
    combinations: it contributes zero loss and zero gradient, and its rows
    are not normalized.
    """
    labels = np.asarray(labels)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        return 0.0, np.zeros_like(projected)
    norms, unit, cos = _pair_cosines(projected)
    terms = np.exp(scale * (cos[neg][:, None] - cos[pos][None, :]))
    total = float(terms.sum())
    loss = float(np.log1p(total))
    coeffs = np.zeros(len(labels), dtype=np.float64)
    coeffs[neg] = scale * terms.sum(axis=1) / (1.0 + total)
    coeffs[pos] = -scale * terms.sum(axis=0) / (1.0 + total)
    return loss, _cosine_grads(norms, unit, cos, coeffs)


def _triplet_rows(projected: np.ndarray, margin: float = 3.0):
    """Mean hinge max(|a-p| - |a-n| + margin, 0) on unit adapter embeddings.

    `projected` holds the anchor, positive and negative rows, shape
    (3, triplets, d).  Euclidean distances; at a zero distance the
    corresponding direction term is taken as zero (a subgradient choice).
    """
    n = projected.shape[1]
    norms, unit = _normalize(projected)
    ua, up, un = unit
    diff_ap = ua - up
    diff_an = ua - un
    d_ap = np.linalg.norm(diff_ap, axis=1)
    d_an = np.linalg.norm(diff_an, axis=1)
    hinge = d_ap - d_an + margin
    active = hinge > 0.0
    if not np.any(active):
        return 0.0, np.zeros_like(projected)
    loss = float(np.sum(hinge[active]) / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        dir_ap = np.where(d_ap[:, None] > 0.0, diff_ap / d_ap[:, None], 0.0)
        dir_an = np.where(d_an[:, None] > 0.0, diff_an / d_an[:, None], 0.0)
    mask = active[:, None] / n
    grad_u = np.stack([(dir_ap - dir_an) * mask, -dir_ap * mask, dir_an * mask])
    # chain through normalization: (I - u u^T) g / |p|
    tangent = grad_u - unit * np.sum(grad_u * unit, axis=-1)[..., None]
    return loss, tangent / norms[..., None]


def _through_matrix(weights: np.ndarray, bases, rows_loss) -> tuple[float, np.ndarray]:
    """A row-space loss on `bases` projected through `weights`, and its
    gradient with respect to `weights`, the sum over sides of row_grad.T @ base."""
    stacked = np.asarray(bases, dtype=np.float64)  # (sides, examples, d)
    flat = stacked.reshape(-1, weights.shape[1])
    loss, row_grads = rows_loss((flat @ weights.T).reshape(stacked.shape))
    return loss, row_grads.reshape(flat.shape).T @ flat


def cosine_similarity_loss(
    weights: np.ndarray, base_a: np.ndarray, base_b: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """`_cosine_similarity_rows` through the adapter matrix."""
    return _through_matrix(weights, (base_a, base_b), lambda p: _cosine_similarity_rows(p, labels))


def cosine_sentence_loss(
    weights: np.ndarray, base_a: np.ndarray, base_b: np.ndarray, labels: np.ndarray, scale: float = 1.0
) -> tuple[float, np.ndarray]:
    """`_cosine_sentence_rows` through the adapter matrix."""
    return _through_matrix(weights, (base_a, base_b), lambda p: _cosine_sentence_rows(p, labels, scale))


def triplet_loss(
    weights: np.ndarray,
    base_anchor: np.ndarray,
    base_positive: np.ndarray,
    base_negative: np.ndarray,
    margin: float = 3.0,
) -> tuple[float, np.ndarray]:
    """`_triplet_rows` through the adapter matrix."""
    return _through_matrix(
        weights,
        (base_anchor, base_positive, base_negative),
        lambda p: _triplet_rows(p, margin),
    )


def clip_gradient(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale the gradient down so its global (Frobenius) norm is at most max_norm."""
    norm = float(np.linalg.norm(grad))
    if norm > max_norm:
        return grad * (max_norm / norm)
    return grad
