"""Vector store of embedded graded responses with exact cosine top-k.

Entries are unit vectors plus JSON metadata holding the original
response text and its judgment.  A store is immutable once built: its
constructor (and so build_store, load and extended) stacks the entry
vectors once into one contiguous read-only float32 (N, dim) matrix and
indexes the rows by question_id, and every query reuses both.
Retrieval is an exact matrix product over the candidate rows, cast to
float64 per query: no approximation, descending score, ties broken by
ascending entry index.  Holding vectors in float32 makes save/load
byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Question, Response
from .embedding import BaseEmbedder

STORE_VERSION = 1
REQUIRED_METADATA = ("response_text", "judgment")


class StoreError(Exception):
    pass


@dataclass(frozen=True)
class Entry:
    vector: np.ndarray  # unit norm, float32
    metadata: dict

    def __post_init__(self):
        for key in REQUIRED_METADATA:
            if key not in self.metadata:
                raise StoreError(f"entry metadata missing required key {key!r}")
        vec = np.asarray(self.vector, dtype=np.float32)
        norm = float(np.linalg.norm(vec.astype(np.float64)))
        if not abs(norm - 1.0) <= 1e-6:  # also rejects NaN
            raise StoreError(f"entry vector norm {norm} is not unit")
        object.__setattr__(self, "vector", vec)


@dataclass(frozen=True, eq=False)
class VectorStore:
    dim: int
    embedder_id: str
    entries: tuple[Entry, ...] = ()

    def __post_init__(self):
        for e in self.entries:
            if e.vector.shape != (self.dim,):
                raise StoreError(
                    f"entry vector shape {e.vector.shape} != store dim {self.dim}"
                )
        entries = tuple(self.entries)
        matrix = np.array([e.vector for e in entries], np.float32).reshape(len(entries), self.dim)
        matrix.flags.writeable = False
        rows: dict[str | None, list[int]] = {}
        for i, e in enumerate(entries):
            rows.setdefault(e.metadata.get("question_id"), []).append(i)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_rows", {q: np.array(r, dtype=np.intp) for q, r in rows.items()})

    def __len__(self) -> int:
        return len(self.entries)

    def matrix(self) -> np.ndarray:
        """Entry vectors as rows of the store's read-only float32 (N, dim) matrix."""
        return self._matrix

    def extended(self, extra: list[Entry]) -> "VectorStore":
        """New store with extra entries appended; self is unchanged."""
        return VectorStore(
            dim=self.dim, embedder_id=self.embedder_id, entries=(*self.entries, *extra)
        )

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
            fh.write(np.ascontiguousarray(self._matrix, dtype="<f4").tobytes())

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
            metadata = [_json_object(path, line, fh.readline()) for line in range(2, count + 2)]
            payload = fh.read()
        expected = count * dim * 4
        if len(payload) != expected:
            raise StoreError(
                f"{path}: vector payload length mismatch, expected {expected} bytes, "
                f"got {len(payload)}"
            )
        vectors = np.frombuffer(payload, dtype="<f4").reshape(count, dim)
        norms = np.linalg.norm(vectors.astype(np.float64), axis=1)
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-6))  # also NaN
        if bad.size:
            row = int(bad[0])
            raise StoreError(f"{path}: row {row}: entry vector norm {norms[row]} is not unit")
        entries = []
        for i in range(count):
            try:
                entries.append(Entry(vector=vectors[i], metadata=metadata[i]))
            except StoreError as exc:
                raise StoreError(f"{path}: row {i}: {exc}") from None
        return cls(dim=dim, embedder_id=header["embedder_id"], entries=entries)


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
            raise ValueError("k must be at least 1")


def build_store(
    responses: list[Response],
    embedder: BaseEmbedder,
    questions: dict[str, Question] | None = None,
    include_question: bool = False,
    include_reference: bool = False,
) -> VectorStore:
    """Embed graded responses into a store, one entry per response.

    Metadata always carries the response text, its judgment (canonical
    five-way string), and the response/question ids; question text and
    reference answer are included on request, which needs the question
    map.
    """
    if (include_question or include_reference) and questions is None:
        raise StoreError("question metadata requested but no question map given")
    entries = []
    for r in responses:
        entry = entry_from_response(r, embedder)
        if include_question:
            entry.metadata["question"] = questions[r.question_id].text
        if include_reference:
            refs = questions[r.question_id].reference_answers
            if refs:
                entry.metadata["reference_answer"] = "\n".join(refs)
        entries.append(entry)
    return VectorStore(dim=embedder.dim, embedder_id=embedder.embedder_id, entries=entries)


def entry_from_response(response: Response, embedder: BaseEmbedder) -> Entry:
    """One response's entry: unit embedding, text, judgment and ids (build_store may add more)."""
    try:
        vec = embedder.embed_scoped(response.text, response.question_id)
    except Exception as exc:
        raise StoreError(f"embedding failed for response {response.id!r}: {exc}") from exc
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise StoreError(f"embedding failed for response {response.id!r}: zero vector")
    metadata = {
        "response_text": response.text,
        "judgment": response.label.value,
        "response_id": response.id,
        "question_id": response.question_id,
    }
    return Entry(vector=np.asarray(vec) / norm, metadata=metadata)


def top_k(
    store: VectorStore,
    query_text: str,
    embedder: BaseEmbedder,
    config: RetrievalConfig,
    question_id: str | None = None,
) -> list[tuple[Entry, float]]:
    """Exact cosine top-k over the store's candidate entries.

    With same_question_only, candidates are the store's indexed rows whose
    question_id matches the query's.  Scores are the product of the
    candidate rows, cast to float64, with the unit query vector, sorted
    descending with ascending-index tie-break.  Fewer than k candidates
    return them all; zero candidates is an error.
    """
    matrix, rows = store._matrix, None
    if config.same_question_only:
        if question_id is None:
            raise StoreError("same_question_only retrieval needs the query's question_id")
        rows = store._rows.get(question_id)
    if not len(matrix) or (config.same_question_only and rows is None):
        raise StoreError("no candidate entries after scope filtering")

    query = np.asarray(embedder.embed_scoped(query_text, question_id), dtype=np.float64)
    norm = float(np.linalg.norm(query))
    if norm == 0.0:
        raise StoreError("query embedded to the zero vector")
    query = query / norm

    if rows is not None:
        matrix = matrix[rows]
    scores = matrix.astype(np.float64) @ query
    order = np.argsort(-scores, kind="stable")[: config.k]
    picked = order if rows is None else rows[order]
    return [(store.entries[i], float(scores[j])) for i, j in zip(picked, order)]
