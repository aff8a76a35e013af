"""Text embedders and the trainable linear adapter.

The base embedder is pluggable: a deterministic feature-hashing embedder
works fully offline, and a remote HTTP embedder can stand in for any
hosted model.  A square adapter matrix, kept in the low-rank factored
form training makes, is applied on top of base embeddings and
re-normalized, so retrieval similarity is always cosine between unit
vectors.  Adapter files hold the dense matrix.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np

from .glm import GlmError, post_json

DEFAULT_DIM = 384


class EmbeddingError(Exception):
    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row  # in an embed_many batch, the index of the text that failed


class BaseEmbedder:
    """Deterministic text -> unit vector mapping of fixed dimension, through
    its one method, embed_many; a single text is a one-text batch."""

    dim: int
    embedder_id: str

    def embed_many(self, texts: list[str], question_id: str | None = None) -> np.ndarray:
        """The texts' vectors, stacked; question_id scopes the batch, for the
        embedders that use it.  A failing text raises EmbeddingError with its row."""
        raise NotImplementedError


_TOKEN_RE = re.compile(r"[a-z0-9]+")
_FEATURE = np.dtype([("bucket", np.intp), ("sign", np.float64)])  # one hashed feature


class HashEmbedder(BaseEmbedder):
    """Offline base embedder: hashed word and character-trigram features.

    Lowercased word tokens and boundary-padded character trigrams are
    hashed into dim buckets with a sign bit, accumulated, and
    L2-normalized.  Same text always maps to the same vector, across
    processes.  Each distinct token's (buckets, signs) is hashed once
    and memoized on the instance.  embed, outside the interface, embeds
    one text, and embed_many passes it a one-text batch; a larger batch
    has its new tokens hashed in one pass and is summed and normalized
    at once.  Every bucket is a sum of +-1.0 and every squared norm a
    sum of squared integers, which are exact in any order, so neither
    the memo nor the batch ever changes a vector: embed_many's rows are
    bitwise embed's.
    """

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 2:
            raise ValueError("dim must be at least 2")
        self.dim = dim
        self.embedder_id = f"hash-{dim}"
        # token -> the raw bytes of its features' (bucket, sign) records
        self._features: dict[str, bytes] = {}

    def embed(self, text: str) -> np.ndarray:
        tokens = _TOKEN_RE.findall(text.lower())
        if not tokens:
            raise EmbeddingError(f"text has no hashable features: {text!r}")
        feats = np.frombuffer(
            b"".join([self._features.get(token) or self._hash([token])[0] for token in tokens]),
            _FEATURE,
        )
        vec = np.bincount(feats["bucket"], weights=feats["sign"], minlength=self.dim)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise EmbeddingError(f"text hashed to the zero vector: {text!r}")
        return vec / norm

    def embed_many(self, texts: list[str], question_id: str | None = None) -> np.ndarray:
        if len(texts) == 1:  # embed's path, which skips the batch's set-up
            return self.embed(texts[0])[None]
        token_lists = [_TOKEN_RE.findall(text.lower()) for text in texts]
        features = self._features
        self._hash(list(set().union(*token_lists).difference(features)))
        feats = np.frombuffer(
            b"".join([features[token] for tokens in token_lists for token in tokens]), _FEATURE
        )
        counts = [sum(map(len, tokens)) + len(tokens) for tokens in token_lists]  # features per row
        n, dim = len(texts), self.dim
        index = np.repeat(np.arange(n) * dim, counts) + feats["bucket"]
        sums = np.bincount(index, weights=feats["sign"], minlength=n * dim).reshape(n, dim)
        norms = np.sqrt(np.einsum("ij,ij->i", sums, sums))
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            row = int(zero[0])
            problem = "hashed to the zero vector" if token_lists[row] else "has no hashable features"
            raise EmbeddingError(f"text {problem}: {texts[row]!r}", row)
        return sums / norms[:, None]

    def _hash(self, tokens: list[str]) -> list[bytes]:
        """Memoize and return the features of each of the new, distinct tokens,
        hashing all of them in one pass."""
        features = []
        for token in tokens:
            padded = f"#{token}#"
            features.append("w:" + token)
            features += ["t:" + padded[i : i + 3] for i in range(len(padded) - 2)]
        digests = b"".join(
            [hashlib.blake2b(f.encode("utf-8"), digest_size=8).digest() for f in features]
        )
        h = np.frombuffer(digests, "<u8")
        records = np.empty(len(h), _FEATURE)
        records["bucket"] = h % np.uint64(self.dim)
        records["sign"] = np.where(h >> np.uint64(63), 1.0, -1.0)
        entries, start = [], 0
        for token in tokens:
            stop = start + len(token) + 1  # the word and one trigram per character
            entry = self._features[token] = records[start:stop].tobytes()
            entries.append(entry)
            start = stop
        return entries


class RemoteEmbedder(BaseEmbedder):
    """HTTP base embedder: POST {"texts": [...]} -> {"vectors": [[...]]}.

    Sent through glm.post_json's retries; the response dimension must be dim.
    """

    def __init__(self, endpoint: str, dim: int, timeout: float = 30.0, session=None):
        self.endpoint = endpoint
        self.dim = dim
        self.timeout = timeout
        self.embedder_id = f"remote:{endpoint}#{dim}"
        self._session = session

    def embed_many(self, texts: list[str], question_id: str | None = None) -> np.ndarray:
        where = f"remote embedder {self.endpoint}"
        try:
            resp = post_json(self.endpoint, {"texts": texts}, self.timeout, session=self._session)
        except GlmError as exc:
            raise EmbeddingError(f"{where}: {exc}") from None
        try:
            body = resp.json()
        except ValueError as exc:  # requests' JSONDecodeError is one
            raise EmbeddingError(f"{where}: response body is not JSON: {exc}") from None
        vectors = body.get("vectors") if isinstance(body, dict) else None
        if not isinstance(vectors, list):
            raise EmbeddingError(f"{where}: response is not a JSON object with a 'vectors' list")
        if len(vectors) != len(texts):
            raise EmbeddingError(f"{where} returned {len(vectors)} vectors for {len(texts)} texts")
        try:
            arr = np.asarray(vectors, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise EmbeddingError(f"{where}: vectors are not numeric: {exc}") from None
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise EmbeddingError(
                f"{where}: dimension {arr.shape[-1] if arr.ndim == 2 else '?'} "
                f"!= configured {self.dim}"
            )
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
        if bad.size:
            raise EmbeddingError(f"{where}: vector {bad[0]} is not finite", int(bad[0]))
        return arr


ADAPTER_FORMAT = "embedding-adapter"
ADAPTER_VERSION = 1


class AdapterFileError(EmbeddingError, ValueError):
    """An adapter file that does not load; a ValueError too, for existing callers."""


class Adapter:
    """Trainable square matrix W applied to base embeddings.

    Outputs are re-normalized to unit length, so any positive rescaling
    of the matrix leaves retrieval unchanged.  A trained question adapter
    keeps the factored form training computes, W = a*I + basis @ core @
    basis.T (a d x m orthonormal basis, an m x m core); a dense one
    (Adapter(weights), a loaded file) has basis None, core W and a 0.
    A factored adapter's dense `weights` is formed on each read, not kept.
    """

    def __init__(self, weights=None, trained_on: dict | None = None, *, a=0.0, basis=None, core=None):
        self.core = np.asarray(weights if core is None else core, dtype=np.float64)
        self.basis, self.a = basis, float(a)
        self.trained_on = {} if trained_on is None else trained_on
        if self.core.ndim != 2 or self.core.shape[0] != self.core.shape[1]:
            raise ValueError(f"adapter weights must be square, got {self.core.shape}")
        if not np.all(np.isfinite(self.core)):
            raise ValueError("adapter weights contain non-finite entries")

    @property
    def dim(self) -> int:
        return len(self.core if self.basis is None else self.basis)

    @property
    def weights(self) -> np.ndarray:
        """The dense W: basis @ core @ basis.T, then a added along the diagonal."""
        if self.basis is None:
            return self.core
        full = self.basis @ self.core @ self.basis.T
        full.flat[:: len(full) + 1] += self.a  # as one pass over the diagonal
        return full

    def apply(self, base_vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(base_vec, dtype=np.float64)
        if self.basis is None:
            projected = self.core @ vec
        else:  # two d x m products and one m x m product
            projected = self.basis @ (self.core @ (vec @ self.basis)) + self.a * vec
        norm = np.linalg.norm(projected)
        if norm == 0.0:
            raise EmbeddingError("adapter projected the embedding to the zero vector")
        return projected / norm

    def save(self, path: str | Path) -> None:
        """JSON header line + row-major float64 little-endian payload of the dense W."""
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
        """The dense adapter a file holds, or AdapterFileError naming the file."""
        with Path(path).open("rb") as fh:
            try:
                header = json.loads(fh.readline().decode("utf-8"))
            except ValueError:  # also bad UTF-8
                header = None
            if not isinstance(header, dict):
                raise AdapterFileError(f"{path}: adapter header is not a JSON object")
            if header.get("format") != ADAPTER_FORMAT:
                raise AdapterFileError(f"{path}: not an adapter file")
            if header.get("version") != ADAPTER_VERSION:
                raise AdapterFileError(f"{path}: unsupported adapter version {header.get('version')}")
            dim = header.get("dim")
            if type(dim) is not int or dim < 1:
                raise AdapterFileError(f"{path}: adapter header needs an integer dim >= 1, got {dim!r}")
            try:
                return cls(read_payload(fh, (dim, dim), "<f8"), header.get("trained_on", {}))
            except ValueError as exc:  # the payload's length, or a non-finite entry
                raise AdapterFileError(f"{path}: {exc}") from None


def read_payload(fh, shape: tuple[int, int], dtype: str) -> np.ndarray:
    """The rest of binary file `fh` as a new array of `shape`, or ValueError,
    which callers prefix with the file's name.  The remaining size is checked
    before the array is allocated, so sizes that disagree are never allocated."""
    expected = shape[0] * shape[1] * np.dtype(dtype).itemsize
    got = os.fstat(fh.fileno()).st_size - fh.tell()
    if got == expected:
        out = np.empty(shape, dtype)
        got = fh.readinto(out)  # short if the file shrank since
    if got != expected:
        raise ValueError(f"payload length mismatch, expected {expected} bytes, got {got}")
    return out


class AdaptedEmbedder(BaseEmbedder):
    """Base embedder composed with one adapter, or with one per question.

    A single adapter applies to every text.  With a question id ->
    adapter map, embed_many picks the batch's question's adapter and
    falls back to the plain base embedding for other questions and for
    no question.  It embeds the batch with the base's embed_many, then
    applies the adapter row by row.
    """

    def __init__(self, base: BaseEmbedder, adapters: Adapter | dict[str, Adapter]):
        single = isinstance(adapters, Adapter)
        for qid, adapter in ({None: adapters} if single else adapters).items():
            if adapter.dim != base.dim:
                where = "" if single else f" for question {qid!r}"
                raise ValueError(f"adapter{where} has dim {adapter.dim}, base has dim {base.dim}")
        self.base = base
        self.adapter = adapters if single else None  # applies to every question
        self.adapters = {} if single else dict(adapters)
        self.dim = base.dim
        self.embedder_id = f"{'adapted' if single else 'routed'}({base.embedder_id})"

    def embed_many(self, texts: list[str], question_id: str | None = None) -> np.ndarray:
        vectors = self.base.embed_many(texts)
        adapter = self.adapters.get(question_id, self.adapter)
        if adapter is None:
            return vectors
        rows = []
        for row, vec in enumerate(vectors):
            try:
                rows.append(adapter.apply(vec))
            except EmbeddingError as exc:
                exc.row = row
                raise
        return np.stack(rows)
