"""Vector store of embedded graded responses with exact cosine top-k.

A store is one read-only float32 (N, dim) matrix of unit row vectors
plus one metadata-only entry per row, holding the original response
text, its judgment and ids.  It is immutable once built: its constructor
(and so build_store, load and extended) checks the matrix's shape and
every row's unit norm in one vectorized pass and indexes the rows by
question_id, and every query reuses matrix and index.  build_store
and extended embed each run of same-question responses in one embed_many
batch and fill the matrix a batch at a time.  Retrieval is an exact matrix
product over the candidate rows, cast to float64 per query: no
approximation, descending score, ties broken by ascending row index.
Holding vectors in float32 makes save/load byte-stable.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

from .corpus import CorpusError, Label, Question, Response
from .embedding import BaseEmbedder, EmbeddingError, read_payload

STORE_VERSION = 1
REQUIRED_METADATA = ("response_text", "judgment")


class StoreError(Exception):
    pass


@dataclass(frozen=True)
class Entry:
    """The metadata of one store row; the row's vector lives in the store's matrix."""

    metadata: dict

    def __post_init__(self):
        for key in REQUIRED_METADATA:
            if key not in self.metadata:
                raise StoreError(f"entry metadata missing required key {key!r}")


@dataclass(frozen=True, eq=False)
class VectorStore:
    """Row i of vectors is the unit embedding of entries[i]."""

    dim: int
    embedder_id: str
    vectors: np.ndarray  # read-only float32 (N, dim)
    entries: tuple[Entry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        vectors = np.asarray(self.vectors, dtype=np.float32)
        if vectors.shape != (len(entries), self.dim):
            raise StoreError(f"vectors shape {vectors.shape} != ({len(entries)}, {self.dim})")
        # squared norms accumulate in float64 without a float64 copy of the matrix
        norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64))
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-6))  # also NaN
        if bad.size:
            row = int(bad[0])
            raise StoreError(f"row {row}: entry vector norm {norms[row]} is not unit")
        vectors.flags.writeable = False
        rows: dict[str | None, list[int]] = {}
        for i, e in enumerate(entries):
            rows.setdefault(e.metadata.get("question_id"), []).append(i)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_rows", {q: np.array(r, dtype=np.intp) for q, r in rows.items()})

    def __len__(self) -> int:
        return len(self.entries)

    def extended(self, responses: list[Response], embedder: BaseEmbedder) -> "VectorStore":
        """New store with the responses' rows appended as build_store embeds them; self unchanged."""
        if embedder.embedder_id != self.embedder_id:
            raise StoreError(f"store embedder {self.embedder_id!r} != {embedder.embedder_id!r}")
        vectors = np.concatenate([self.vectors, _embedded(responses, embedder)])
        entries = (*self.entries, *(Entry(_metadata(r)) for r in responses))
        return VectorStore(self.dim, self.embedder_id, vectors, entries)

    def save(self, path: str | Path) -> None:
        """Header JSON line, one metadata JSON line per entry, float32 payload."""
        header = {
            "version": STORE_VERSION,
            "dim": self.dim,
            "count": len(self.entries),
            "embedder_id": self.embedder_id,
        }
        with Path(path).open("wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for e in self.entries:
                fh.write(
                    json.dumps(e.metadata, sort_keys=True, ensure_ascii=False).encode("utf-8")
                    + b"\n"
                )
            fh.write(np.ascontiguousarray(self.vectors, dtype="<f4").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "VectorStore":
        """Read a saved store; any malformed line or row raises StoreError naming it."""
        path = Path(path)
        with path.open("rb") as fh:
            header = _json_object(path, 1, fh.readline())
            if header.get("version") != STORE_VERSION:
                raise StoreError(
                    f"{path}: unsupported store version {header.get('version')!r}"
                )
            dim, count = header.get("dim"), header.get("count")
            sizes_ok = type(dim) is int and dim >= 1 and type(count) is int and count >= 0
            if not sizes_ok or not isinstance(header.get("embedder_id"), str):
                raise StoreError(
                    f"{path}: line 1: header needs integer dim >= 1, count >= 0 and a string "
                    f"embedder_id, got dim {dim!r} and count {count!r}"
                )
            entries = [_entry(path, line, fh.readline()) for line in range(2, count + 2)]
            try:
                vectors = read_payload(fh, (count, dim), "<f4")
            except ValueError as exc:
                raise StoreError(f"{path}: {exc}") from None
        try:
            return cls(dim, header["embedder_id"], vectors, entries)
        except StoreError as exc:
            raise StoreError(f"{path}: {exc}") from None


def _entry(path: Path, line: int, raw: bytes) -> Entry:
    # every row repeats the same keys: keep one copy of each
    metadata = {sys.intern(key): value for key, value in _json_object(path, line, raw).items()}
    try:
        entry = Entry(metadata)
        Label.parse(metadata["judgment"])
    except (StoreError, CorpusError) as exc:
        raise StoreError(f"{path}: line {line}: {exc}") from None
    for key in ("response_text", "question_id"):
        if not isinstance(metadata.get(key, ""), str):
            raise StoreError(f"{path}: line {line}: {key} must be a string, got {metadata[key]!r}")
    return entry


def _json_object(path: Path, line: int, raw: bytes) -> dict:
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        obj = None
    if not isinstance(obj, dict):
        problem = "not a JSON object" if raw else "missing, the file is truncated"
        raise StoreError(f"{path}: line {line}: {problem}")
    return obj


@dataclass(frozen=True)
class RetrievalConfig:
    k: int = 5
    same_question_only: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")


def build_store(
    responses: list[Response],
    embedder: BaseEmbedder,
    questions: dict[str, Question] | None = None,
    include_question: bool = False,
    include_reference: bool = False,
) -> VectorStore:
    """Embed graded responses into a store, one row per response.

    Each run of consecutive same-question responses is one embed_many
    batch, scoped to that question; its rows' norms are checked and
    divided out in one pass.  Metadata always carries the response text,
    its judgment (canonical five-way string), and the response/question
    ids; question text and reference answer are included on request,
    which needs the question map.
    """
    if (include_question or include_reference) and questions is None:
        raise StoreError("question metadata requested but no question map given")
    vectors = _embedded(responses, embedder)
    entries = []
    for r in responses:
        metadata = _metadata(r)
        if include_question:
            metadata["question"] = questions[r.question_id].text
        if include_reference:
            refs = questions[r.question_id].reference_answers
            if refs:
                metadata["reference_answer"] = "\n".join(refs)
        entries.append(Entry(metadata))
    return VectorStore(embedder.dim, embedder.embedder_id, vectors, entries)


def _embedded(responses: list[Response], embedder: BaseEmbedder) -> np.ndarray:
    """The responses' unit float32 rows: one embed_many batch per run of
    same-question responses, its norms checked and divided out in one pass."""
    vectors = np.empty((len(responses), embedder.dim), np.float32)
    start = 0
    for question_id, run in groupby(responses, key=lambda r: r.question_id):
        block = list(run)
        try:
            emb = embedder.embed_many([r.text for r in block], question_id)
        except Exception as exc:
            row = (exc.row or 0) if isinstance(exc, EmbeddingError) else 0
            raise StoreError(f"embedding failed for response {block[row].id!r}: {exc}") from exc
        norms = np.sqrt(np.einsum("ij,ij->i", emb, emb))
        bad = np.flatnonzero(~((0.0 < norms) & (norms < np.inf)))  # also NaN
        if bad.size:
            row = int(bad[0])
            raise StoreError(
                f"response {block[row].id!r}: embedding norm {float(norms[row])} "
                "is not finite and positive"
            )
        vectors[start : start + len(block)] = emb / norms[:, None]
        start += len(block)
    return vectors


def entry_from_response(response: Response, embedder: BaseEmbedder) -> tuple[np.ndarray, Entry]:
    """One response's store row: its unit embedding, and an entry of its text,
    judgment and ids."""
    try:
        vec = embedder.embed_scoped(response.text, response.question_id)
    except Exception as exc:
        raise StoreError(f"embedding failed for response {response.id!r}: {exc}") from exc
    norm = _checked_norm(vec, f"response {response.id!r}: embedding")
    return np.asarray(vec) / norm, Entry(_metadata(response))


def _metadata(response: Response) -> dict:
    return {
        "response_text": response.text,
        "judgment": response.label.value,
        "response_id": response.id,
        "question_id": response.question_id,
    }


def _checked_norm(vec: np.ndarray, what: str) -> float:
    norm = float(np.linalg.norm(vec))
    if not 0.0 < norm < np.inf:  # also NaN
        raise StoreError(f"{what} norm {norm} is not finite and positive")
    return norm


def top_k(
    store: VectorStore,
    query_text: str,
    embedder: BaseEmbedder,
    config: RetrievalConfig,
    question_id: str | None = None,
) -> list[tuple[Entry, float]]:
    """Exact cosine top-k over the store's candidate rows, as (entry, score).

    With same_question_only, candidates are the store's indexed rows whose
    question_id matches the query's.  Scores are the product of the
    candidate rows, cast to float64, with the unit query vector, sorted
    descending with ascending-index tie-break.  Fewer than k candidates
    return them all; zero candidates is an error.
    """
    matrix, rows = store.vectors, None
    if config.same_question_only:
        if question_id is None:
            raise StoreError("same_question_only retrieval needs the query's question_id")
        rows = store._rows.get(question_id)
    if not len(matrix) or (config.same_question_only and rows is None):
        raise StoreError("no candidate entries after scope filtering")

    query = np.asarray(embedder.embed_scoped(query_text, question_id), dtype=np.float64)
    query = query / _checked_norm(query, "query embedding")

    if rows is not None:
        matrix = matrix[rows]
    scores = matrix.astype(np.float64) @ query
    order = np.argsort(-scores, kind="stable")[: config.k]
    picked = order if rows is None else rows[order]
    return [(store.entries[i], float(scores[j])) for i, j in zip(picked, order)]
