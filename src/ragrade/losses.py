"""Training losses over adapter embeddings, with analytic gradients.

Every loss takes the adapter matrix plus batches of *base* embeddings and
differentiates through the projection and the re-normalization, returning
(scalar loss, gradient with respect to the matrix).  All arithmetic is
float64.  A gradient is the sum of two (three for triplets) d x d
products; given `out` and `scratch`, the sum is written into `out` and
each later product into `scratch`, so a loss allocates no d x d array.
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


def _project(weights: np.ndarray, base: np.ndarray):
    """Rows of base through W, with norms and unit rows.

    Returns (projected, norms, unit) where projected[i] = W @ base[i].
    A zero or non-finite norm (a collapsed row, or weights that have
    diverged) raises FloatingPointError before any division.
    """
    projected = base @ weights.T
    norms = np.linalg.norm(projected, axis=1)
    if not np.all((norms > 0.0) & (norms < np.inf)):
        raise FloatingPointError("adapter projected a batch row to a zero or non-finite vector")
    unit = projected / norms[:, None]
    return projected, norms, unit


def _coeff_grad(
    base_a: np.ndarray,
    base_b: np.ndarray,
    na: np.ndarray,
    ua: np.ndarray,
    nb: np.ndarray,
    ub: np.ndarray,
    cos: np.ndarray,
    coeffs: np.ndarray,
    out: np.ndarray | None,
    scratch: np.ndarray | None,
) -> np.ndarray:
    """Gradient of sum_i coeffs[i] * cos_i with respect to W, into `out`.

    cos_i is the cosine of the adapter embeddings (unit rows ua, ub with
    projection norms na, nb) of row i; the chain rule through
    normalization gives d cos/d p = (v - cos * u) / |p|.
    """
    ga = (ub - cos[:, None] * ua) * (coeffs / na)[:, None]
    gb = (ua - cos[:, None] * ub) * (coeffs / nb)[:, None]
    out = np.matmul(ga.T, base_a, out=out)
    out += np.matmul(gb.T, base_b, out=scratch)
    return out


def _zero_grad(weights: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """A zero gradient, in `out` when given."""
    if out is None:
        return np.zeros_like(weights)
    out.fill(0.0)
    return out


def cosine_similarity_loss(
    weights: np.ndarray,
    base_a: np.ndarray,
    base_b: np.ndarray,
    labels: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean squared residual between pair cosines and their binary labels.

    The gradient is written into `out` when given, else a new array.
    """
    base_a = np.asarray(base_a, dtype=np.float64)
    base_b = np.asarray(base_b, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n = base_a.shape[0]
    _, na, ua = _project(weights, base_a)
    _, nb, ub = _project(weights, base_b)
    cos = np.sum(ua * ub, axis=1)
    residual = cos - labels
    loss = float(np.mean(residual**2))
    coeffs = 2.0 * residual / n
    return loss, _coeff_grad(base_a, base_b, na, ua, nb, ub, cos, coeffs, out, scratch)


def cosine_sentence_loss(
    weights: np.ndarray,
    base_a: np.ndarray,
    base_b: np.ndarray,
    labels: np.ndarray,
    scale: float = 1.0,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Ranking loss over all (lower-expected, higher-expected) pair combinations.

    log(1 + sum over negative pair i, positive pair j of
    exp(scale * (cos_i - cos_j))).  A batch without both a positive and a
    negative pair has no comparable combinations and contributes zero
    loss and zero gradient.  The gradient is written into `out` when
    given, else a new array.
    """
    base_a = np.asarray(base_a, dtype=np.float64)
    base_b = np.asarray(base_b, dtype=np.float64)
    labels = np.asarray(labels)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        return 0.0, _zero_grad(weights, out)
    _, na, ua = _project(weights, base_a)
    _, nb, ub = _project(weights, base_b)
    cos = np.sum(ua * ub, axis=1)
    terms = np.exp(scale * (cos[neg][:, None] - cos[pos][None, :]))
    total = float(terms.sum())
    loss = float(np.log1p(total))
    coeffs = np.zeros(len(labels), dtype=np.float64)
    coeffs[neg] = scale * terms.sum(axis=1) / (1.0 + total)
    coeffs[pos] = -scale * terms.sum(axis=0) / (1.0 + total)
    return loss, _coeff_grad(base_a, base_b, na, ua, nb, ub, cos, coeffs, out, scratch)


def triplet_loss(
    weights: np.ndarray,
    base_anchor: np.ndarray,
    base_positive: np.ndarray,
    base_negative: np.ndarray,
    margin: float = 3.0,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean hinge max(|a-p| - |a-n| + margin, 0) on unit adapter embeddings.

    Euclidean distances; at a zero distance the corresponding direction
    term is taken as zero (a subgradient choice).  The gradient is
    written into `out` when given, else a new array.
    """
    base_anchor = np.asarray(base_anchor, dtype=np.float64)
    base_positive = np.asarray(base_positive, dtype=np.float64)
    base_negative = np.asarray(base_negative, dtype=np.float64)
    n = base_anchor.shape[0]
    _, na, ua = _project(weights, base_anchor)
    _, npos, up = _project(weights, base_positive)
    _, nneg, un = _project(weights, base_negative)
    diff_ap = ua - up
    diff_an = ua - un
    d_ap = np.linalg.norm(diff_ap, axis=1)
    d_an = np.linalg.norm(diff_an, axis=1)
    hinge = d_ap - d_an + margin
    active = hinge > 0.0
    loss = float(np.sum(hinge[active]) / n) if np.any(active) else 0.0

    grad = _zero_grad(weights, out)
    if np.any(active):
        with np.errstate(divide="ignore", invalid="ignore"):
            dir_ap = np.where(d_ap[:, None] > 0.0, diff_ap / d_ap[:, None], 0.0)
            dir_an = np.where(d_an[:, None] > 0.0, diff_an / d_an[:, None], 0.0)
        mask = active[:, None] / n
        grad_u_anchor = (dir_ap - dir_an) * mask
        grad_u_pos = -dir_ap * mask
        grad_u_neg = dir_an * mask
        for grad_u, unit, norms, base in (
            (grad_u_anchor, ua, na, base_anchor),
            (grad_u_pos, up, npos, base_positive),
            (grad_u_neg, un, nneg, base_negative),
        ):
            # chain through normalization: (I - u u^T) g / |p|
            tangent = grad_u - unit * np.sum(grad_u * unit, axis=1)[:, None]
            grad += np.matmul((tangent / norms[:, None]).T, base, out=scratch)
    return loss, grad


def clip_gradient(grad: np.ndarray, max_norm: float, out: np.ndarray | None = None) -> np.ndarray:
    """Scale the gradient down so its global (Frobenius) norm is at most max_norm.

    The result is written into `out` when given (`out=grad` clips in
    place); otherwise a clipped gradient is a new array.
    """
    norm = float(np.linalg.norm(grad))
    if norm > max_norm:
        return np.multiply(grad, max_norm / norm, out=out)
    if out is None or out is grad:
        return grad
    np.copyto(out, grad)
    return out
