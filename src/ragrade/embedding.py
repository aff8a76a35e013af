"""Text embedders and the trainable linear adapter.

The base embedder is pluggable: a deterministic feature-hashing embedder
works fully offline, and a remote HTTP embedder can stand in for any
hosted model.  A square adapter matrix is applied on top of base
embeddings and re-normalized, so retrieval similarity is always cosine
between unit vectors.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_DIM = 384


class EmbeddingError(Exception):
    pass


class BaseEmbedder:
    """Deterministic text -> unit vector mapping of fixed dimension."""

    dim: int
    embedder_id: str

    def embed(self, text: str) -> np.ndarray:
        raise NotImplementedError

    def embed_scoped(self, text: str, question_id: str | None = None) -> np.ndarray:
        """Embed with question context; the base ignores it."""
        return self.embed(text)

    def embed_many(self, texts: list[str]) -> np.ndarray:
        return np.stack([self.embed(t) for t in texts])


_TOKEN_RE = re.compile(r"[a-z0-9]+")


class HashEmbedder(BaseEmbedder):
    """Offline base embedder: hashed word and character-trigram features.

    Lowercased word tokens and boundary-padded character trigrams are
    hashed into dim buckets with a sign bit, accumulated, and
    L2-normalized.  Same text always maps to the same vector, across
    processes.
    """

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 2:
            raise ValueError("dim must be at least 2")
        self.dim = dim
        self.embedder_id = f"hash-{dim}"

    def embed(self, text: str) -> np.ndarray:
        tokens = _TOKEN_RE.findall(text.lower())
        if not tokens:
            raise EmbeddingError(f"text has no hashable features: {text!r}")
        vec = np.zeros(self.dim, dtype=np.float64)
        for token in tokens:
            self._add(vec, "w:" + token)
            padded = f"#{token}#"
            for i in range(len(padded) - 2):
                self._add(vec, "t:" + padded[i : i + 3])
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise EmbeddingError(f"text hashed to the zero vector: {text!r}")
        return vec / norm

    def _add(self, vec: np.ndarray, feature: str) -> None:
        digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        bucket = h % self.dim
        sign = 1.0 if (h >> 63) & 1 else -1.0
        vec[bucket] += sign


class RemoteEmbedder(BaseEmbedder):
    """HTTP base embedder: POST {"texts": [...]} -> {"vectors": [[...]]}.

    The response dimension is validated against the configured dim.
    """

    def __init__(self, endpoint: str, dim: int, timeout: float = 30.0, session=None):
        self.endpoint = endpoint
        self.dim = dim
        self.timeout = timeout
        self.embedder_id = f"remote:{endpoint}#{dim}"
        self._session = session

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: list[str]) -> np.ndarray:
        import requests

        poster = self._session.post if self._session is not None else requests.post
        resp = poster(self.endpoint, json={"texts": texts}, timeout=self.timeout)
        resp.raise_for_status()
        vectors = resp.json().get("vectors")
        if vectors is None or len(vectors) != len(texts):
            raise EmbeddingError(
                f"remote embedder returned {0 if vectors is None else len(vectors)} "
                f"vectors for {len(texts)} texts"
            )
        arr = np.asarray(vectors, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise EmbeddingError(
                f"remote embedder dimension {arr.shape[-1] if arr.ndim == 2 else '?'} "
                f"!= configured {self.dim}"
            )
        return arr


ADAPTER_FORMAT = "embedding-adapter"
ADAPTER_VERSION = 1


@dataclass
class Adapter:
    """Trainable square matrix applied to base embeddings.

    Outputs are re-normalized to unit length, so any positive rescaling
    of the matrix leaves retrieval unchanged.  Starts as the identity.
    """

    weights: np.ndarray
    trained_on: dict = field(default_factory=dict)

    @classmethod
    def identity(cls, dim: int) -> "Adapter":
        return cls(weights=np.eye(dim, dtype=np.float64))

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[0] != self.weights.shape[1]:
            raise ValueError(f"adapter weights must be square, got {self.weights.shape}")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("adapter weights contain non-finite entries")

    def apply(self, base_vec: np.ndarray) -> np.ndarray:
        projected = self.weights @ np.asarray(base_vec, dtype=np.float64)
        norm = np.linalg.norm(projected)
        if norm == 0.0:
            raise EmbeddingError("adapter projected the embedding to the zero vector")
        return projected / norm

    def save(self, path: str | Path) -> None:
        """JSON header line + row-major float64 little-endian payload."""
        header = {
            "format": ADAPTER_FORMAT,
            "version": ADAPTER_VERSION,
            "dim": self.dim,
            "trained_on": self.trained_on,
        }
        with Path(path).open("wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            fh.write(np.ascontiguousarray(self.weights, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "Adapter":
        with Path(path).open("rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
        header = json.loads(header_line.decode("utf-8"))
        if header.get("format") != ADAPTER_FORMAT:
            raise ValueError(f"{path}: not an adapter file")
        if header.get("version") != ADAPTER_VERSION:
            raise ValueError(f"{path}: unsupported adapter version {header.get('version')}")
        dim = header["dim"]
        expected = dim * dim * 8
        if len(payload) != expected:
            raise ValueError(
                f"{path}: payload length mismatch, expected {expected} bytes, got {len(payload)}"
            )
        weights = np.frombuffer(payload, dtype="<f8").reshape(dim, dim).copy()
        return cls(weights=weights, trained_on=header.get("trained_on", {}))


class AdaptedEmbedder(BaseEmbedder):
    """Base embedder composed with a single adapter."""

    def __init__(self, base: BaseEmbedder, adapter: Adapter):
        if adapter.dim != base.dim:
            raise ValueError(
                f"adapter dim {adapter.dim} != base embedder dim {base.dim}"
            )
        self.base = base
        self.adapter = adapter
        self.dim = base.dim
        self.embedder_id = f"adapted({base.embedder_id})"

    def embed(self, text: str) -> np.ndarray:
        return self.adapter.apply(self.base.embed(text))


class QuestionRoutedEmbedder(BaseEmbedder):
    """Base embedder with per-question adapters.

    embed_scoped picks the question's adapter when one exists and falls
    back to the plain base embedding otherwise (also for embed without a
    question id).
    """

    def __init__(self, base: BaseEmbedder, adapters: dict[str, Adapter]):
        for qid, adapter in adapters.items():
            if adapter.dim != base.dim:
                raise ValueError(
                    f"adapter for question {qid!r} has dim {adapter.dim}, base is {base.dim}"
                )
        self.base = base
        self.adapters = dict(adapters)
        self.dim = base.dim
        self.embedder_id = f"routed({base.embedder_id})"

    def embed(self, text: str) -> np.ndarray:
        return self.base.embed(text)

    def embed_scoped(self, text: str, question_id: str | None = None) -> np.ndarray:
        adapter = self.adapters.get(question_id) if question_id is not None else None
        if adapter is None:
            return self.base.embed(text)
        return adapter.apply(self.base.embed(text))
