import json

import numpy as np
import pytest

from conftest import make_corpus
from ragrade.corpus import Label
from ragrade.embedding import BaseEmbedder, HashEmbedder
from ragrade.vstore import (
    Entry,
    RetrievalConfig,
    StoreError,
    VectorStore,
    build_store,
    top_k,
)


def entry(vec, **metadata):
    merged = {"response_text": "t", "judgment": "correct"}
    merged.update(metadata)
    vec = np.asarray(vec, dtype=np.float64)
    return Entry(vector=vec / np.linalg.norm(vec), metadata=merged)


class FixedEmbedder(BaseEmbedder):
    """Returns preset vectors keyed by text."""

    def __init__(self, table, dim):
        self.table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}
        self.dim = dim
        self.embedder_id = f"fixed-{dim}"

    def embed(self, text):
        return self.table[text]


def brute_force_top_k(matrix, query, k):
    """Full sort with explicit (score desc, index asc) ordering.

    Scores are cosine: the query is unit-normalized, entry rows already are.
    """
    query = np.asarray(query, dtype=np.float64)
    query = query / np.linalg.norm(query)
    scores = matrix.astype(np.float64) @ query
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [(i, float(scores[i])) for i in order[:k]]


class TestBuild:
    def test_empty(self):
        store = build_store([], HashEmbedder(16))
        assert len(store) == 0
        assert store.matrix().shape == (0, 16)

    def test_entries_unit_norm_with_metadata(self):
        corpus = make_corpus(
            {"q": "Q?"},
            [
                ("a", "q", "train", Label.CORRECT, "the first answer"),
                ("b", "q", "train", Label.IRRELEVANT, "the second answer"),
            ],
            references={"q": ["the reference"]},
        )
        store = build_store(
            list(corpus.split("train")),
            HashEmbedder(32),
            corpus.questions,
            include_question=True,
            include_reference=True,
        )
        assert len(store) == 2
        for e in store.entries:
            assert abs(np.linalg.norm(e.vector.astype(np.float64)) - 1.0) < 1e-6
        meta = store.entries[0].metadata
        assert meta["response_text"] == "the first answer"
        assert meta["judgment"] == "correct"
        assert meta["question"] == "Q?"
        assert meta["reference_answer"] == "the reference"
        assert meta["response_id"] == "a"

    def test_metadata_policy_off_by_default(self):
        corpus = make_corpus({"q": "Q?"}, [("a", "q", "train", Label.CORRECT, "words here")])
        store = build_store(list(corpus.split("train")), HashEmbedder(16))
        assert "question" not in store.entries[0].metadata

    def test_embedding_failure_names_response(self):
        corpus = make_corpus({"q": "Q?"}, [("bad", "q", "train", Label.CORRECT, "???")])
        with pytest.raises(StoreError, match="'bad'"):
            build_store(list(corpus.split("train")), HashEmbedder(16))

    def test_required_metadata_enforced(self):
        with pytest.raises(StoreError, match="judgment"):
            Entry(vector=np.array([1.0, 0.0]), metadata={"response_text": "t"})

    def test_non_unit_vector_rejected(self):
        with pytest.raises(StoreError, match="not unit"):
            Entry(
                vector=np.array([1.0, 1.0]),
                metadata={"response_text": "t", "judgment": "correct"},
            )


class TestTopK:
    def setup_method(self):
        self.store = VectorStore(
            dim=2,
            embedder_id="fixed-2",
            entries=[entry([1.0, 0.0], response_id="e1"), entry([0.0, 1.0], response_id="e2")],
        )
        self.embedder = FixedEmbedder({"q": [1.0, 0.0]}, dim=2)

    def test_exact_match_first(self):
        results = top_k(self.store, "q", self.embedder, RetrievalConfig(k=1))
        assert len(results) == 1
        assert results[0][0].metadata["response_id"] == "e1"
        assert results[0][1] == pytest.approx(1.0)

    def test_k_clamped_to_store(self):
        results = top_k(self.store, "q", self.embedder, RetrievalConfig(k=5))
        assert [e.metadata["response_id"] for e, _ in results] == ["e1", "e2"]

    def test_tie_break_by_entry_index(self):
        store = VectorStore(
            dim=2,
            embedder_id="fixed-2",
            entries=[
                entry([0.0, 1.0], response_id="first"),
                entry([0.0, 1.0], response_id="second"),
                entry([0.0, 1.0], response_id="third"),
            ],
        )
        embedder = FixedEmbedder({"q": [0.6, 0.8]}, dim=2)
        results = top_k(store, "q", embedder, RetrievalConfig(k=3))
        assert [e.metadata["response_id"] for e, _ in results] == ["first", "second", "third"]

    def test_same_question_scope(self):
        store = VectorStore(
            dim=2,
            embedder_id="fixed-2",
            entries=[
                entry([1.0, 0.0], response_id="other", question_id="q2"),
                entry([0.0, 1.0], response_id="mine", question_id="q1"),
            ],
        )
        embedder = FixedEmbedder({"q": [1.0, 0.0]}, dim=2)
        results = top_k(
            store, "q", embedder, RetrievalConfig(k=2, same_question_only=True), question_id="q1"
        )
        assert [e.metadata["response_id"] for e, _ in results] == ["mine"]

    def test_scope_needs_question_id(self):
        with pytest.raises(StoreError, match="question_id"):
            top_k(self.store, "q", self.embedder, RetrievalConfig(k=1, same_question_only=True))

    def test_empty_candidates_error(self):
        with pytest.raises(StoreError, match="no candidate"):
            top_k(
                self.store,
                "q",
                self.embedder,
                RetrievalConfig(k=1, same_question_only=True),
                question_id="unknown",
            )

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        dim, n = 24, 400
        vectors = rng.normal(size=(n, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        entries = [entry(vectors[i], response_id=f"e{i}") for i in range(n)]
        store = VectorStore(dim=dim, embedder_id="fixed", entries=entries)
        for trial in range(20):
            q = rng.normal(size=dim)
            q /= np.linalg.norm(q)
            embedder = FixedEmbedder({"q": q}, dim=dim)
            results = top_k(store, "q", embedder, RetrievalConfig(k=10))
            expected = brute_force_top_k(store.matrix(), q, 10)
            got = [(int(e.metadata["response_id"][1:]), s) for e, s in results]
            assert [i for i, _ in got] == [i for i, _ in expected]
            assert [s for _, s in got] == [s for _, s in expected]

    def test_full_k_is_permutation(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(20, 8))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        store = VectorStore(
            dim=8,
            embedder_id="fixed",
            entries=[entry(vectors[i], response_id=f"e{i}") for i in range(20)],
        )
        q = rng.normal(size=8)
        embedder = FixedEmbedder({"q": q / np.linalg.norm(q)}, dim=8)
        results = top_k(store, "q", embedder, RetrievalConfig(k=20))
        assert {e.metadata["response_id"] for e, _ in results} == {f"e{i}" for i in range(20)}

    def test_rescaled_query_same_results(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=2)
        embedder = FixedEmbedder({"q": q}, dim=2)
        scaled = FixedEmbedder({"q": 7.3 * q}, dim=2)
        a = top_k(self.store, "q", embedder, RetrievalConfig(k=2))
        b = top_k(self.store, "q", scaled, RetrievalConfig(k=2))
        assert [(e.metadata["response_id"], pytest.approx(s)) for e, s in a] == [
            (e.metadata["response_id"], s) for e, s in b
        ]


def restacked_top_k(store, query, k, question_id=None):
    """The per-query formula top_k replaced: re-stack every entry vector, cast
    to float64, score the candidate rows, stable descending sort."""
    if question_id is None:
        candidates = list(range(len(store.entries)))
    else:
        candidates = [
            i for i, e in enumerate(store.entries) if e.metadata.get("question_id") == question_id
        ]
    query = np.asarray(query, dtype=np.float64)
    query = query / np.linalg.norm(query)
    matrix = np.stack([e.vector for e in store.entries]).astype(np.float64)[candidates]
    scores = matrix @ query
    order = np.argsort(-scores, kind="stable")[:k]
    return [(store.entries[candidates[i]], float(scores[i])) for i in order]


def mixed_store(seed, n=300, dim=24, questions=7):
    """Entries of interleaved questions; rows 200-219 duplicate rows 0-19, so scores tie."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dim))
    vectors[200:220] = vectors[:20]
    qids = rng.integers(questions, size=n)
    qids[200:220] = qids[:20]
    entries = [entry(vectors[i], response_id=f"e{i}", question_id=f"q{qids[i]}") for i in range(n)]
    return VectorStore(dim=dim, embedder_id="fixed", entries=entries), rng


class TestTopKMatchesRestacking:
    """top_k returns the very entries and bitwise the scores of the re-stacking formula."""

    K = 5

    def queries(self, store, rng):
        planted = [store.entries[i].vector.astype(np.float64) for i in range(0, 20, 4)]
        return planted + [rng.normal(size=store.dim) for _ in range(15)]

    def assert_same(self, store, rng):
        question_ids = sorted({e.metadata["question_id"] for e in store.entries})
        for n, q in enumerate(self.queries(store, rng)):
            embedder = FixedEmbedder({"q": q}, dim=store.dim)
            qid = question_ids[n % len(question_ids)]
            same = top_k(
                store, "q", embedder, RetrievalConfig(k=self.K, same_question_only=True),
                question_id=qid,
            )
            wide = top_k(store, "q", embedder, RetrievalConfig(k=self.K), question_id=qid)
            for got, expected in (
                (same, restacked_top_k(store, q, self.K, qid)),
                (wide, restacked_top_k(store, q, self.K)),
            ):
                assert [id(e) for e, _ in got] == [id(e) for e, _ in expected]
                assert [s for _, s in got] == [s for _, s in expected]

    def test_built_store(self):
        self.assert_same(*mixed_store(11))

    def test_planted_ties_reach_the_top(self):
        store, rng = mixed_store(12)
        q = store.entries[0].vector.astype(np.float64)
        results = top_k(store, "q", FixedEmbedder({"q": q}, dim=store.dim), RetrievalConfig(k=2))
        assert [e.metadata["response_id"] for e, _ in results] == ["e0", "e200"]
        assert results[0][1] == results[1][1]

    def test_extended_store(self):
        store, rng = mixed_store(13)
        extra, _ = mixed_store(14, n=240)
        self.assert_same(store.extended(list(extra.entries)), rng)

    def test_loaded_store(self, tmp_path):
        store, rng = mixed_store(15)
        path = tmp_path / "s.vdb"
        store.save(path)
        self.assert_same(VectorStore.load(path), rng)

    def test_queries_reuse_the_prebuilt_matrix_and_index(self, monkeypatch):
        """Neither the matrix nor the question index is rebuilt per query:
        top_k may index entries but never scan them, and stacks nothing."""

        class NoScan(tuple):
            def __iter__(self):
                raise AssertionError("top_k scanned every entry")

        store, rng = mixed_store(16)
        matrix = store.matrix()
        object.__setattr__(store, "entries", NoScan(store.entries))

        def no_stack(*args, **kwargs):
            raise AssertionError("top_k stacked vectors")

        monkeypatch.setattr(np, "stack", no_stack)
        for n in range(10):
            embedder = FixedEmbedder({"q": rng.normal(size=store.dim)}, dim=store.dim)
            top_k(store, "q", embedder, RetrievalConfig(k=3, same_question_only=True),
                  question_id=f"q{n % 7}")
            top_k(store, "q", embedder, RetrievalConfig(k=3))
        assert store.matrix() is matrix

    def test_store_is_immutable(self):
        store, _ = mixed_store(17)
        with pytest.raises(ValueError):
            store.matrix()[0, 0] = 0.0
        with pytest.raises(AttributeError):
            store.entries = ()


class TestSaveLoad:
    def test_empty_round_trip(self, tmp_path):
        store = VectorStore(dim=4, embedder_id="x")
        path = tmp_path / "s.vdb"
        store.save(path)
        again = VectorStore.load(path)
        assert len(again) == 0
        assert again.dim == 4
        assert again.embedder_id == "x"

    def test_scores_stable_across_round_trip(self, tmp_path):
        corpus = make_corpus(
            {"q": "Q?"},
            [
                ("a", "q", "train", Label.CORRECT, "alpha beta gamma"),
                ("b", "q", "train", Label.IRRELEVANT, "delta epsilon zeta"),
                ("c", "q", "train", Label.CONTRADICTORY, "eta theta iota"),
            ],
        )
        embedder = HashEmbedder(32)
        store = build_store(list(corpus.split("train")), embedder)
        path = tmp_path / "s.vdb"
        store.save(path)
        loaded = VectorStore.load(path)
        before = top_k(store, "alpha beta", embedder, RetrievalConfig(k=3))
        after = top_k(loaded, "alpha beta", embedder, RetrievalConfig(k=3))
        assert [(e.metadata["response_id"], s) for e, s in before] == [
            (e.metadata["response_id"], s) for e, s in after
        ]

    def test_reserialization_byte_equal(self, tmp_path):
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(50, 16))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        store = VectorStore(
            dim=16,
            embedder_id="fixed",
            entries=[entry(vectors[i], response_id=f"e{i}") for i in range(50)],
        )
        p1 = tmp_path / "one.vdb"
        p2 = tmp_path / "two.vdb"
        store.save(p1)
        VectorStore.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupted_payload_reports_byte_counts(self, tmp_path):
        store = VectorStore(dim=2, embedder_id="x", entries=[entry([1.0, 0.0])])
        path = tmp_path / "s.vdb"
        store.save(path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(StoreError, match=r"expected 8 bytes, got 5"):
            VectorStore.load(path)

    def test_version_mismatch(self, tmp_path):
        store = VectorStore(dim=2, embedder_id="x", entries=[entry([1.0, 0.0])])
        path = tmp_path / "s.vdb"
        store.save(path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b'"version": 1', b'"version": 9', 1))
        with pytest.raises(StoreError, match="version"):
            VectorStore.load(path)

    def test_metadata_preserved_in_order(self, tmp_path):
        store = VectorStore(
            dim=2,
            embedder_id="x",
            entries=[entry([1.0, 0.0], response_id=f"e{i}") for i in range(5)],
        )
        path = tmp_path / "s.vdb"
        store.save(path)
        loaded = VectorStore.load(path)
        assert [e.metadata["response_id"] for e in loaded.entries] == [f"e{i}" for i in range(5)]


class TestLoadRejectsMalformedFiles:
    """Every malformed store file fails as StoreError naming the path and line or row."""

    @pytest.fixture
    def saved(self, tmp_path):
        store = VectorStore(
            dim=2,
            embedder_id="x",
            entries=[entry([1.0, 0.0], response_id="a"), entry([0.0, 1.0], response_id="b")],
        )
        path = tmp_path / "s.vdb"
        store.save(path)
        return path

    @staticmethod
    def lines(path):
        data = path.read_bytes()
        header, meta_a, meta_b, payload = data.split(b"\n", 3)
        return header, meta_a, meta_b, payload

    def assert_rejected(self, path, where):
        with pytest.raises(StoreError, match=where) as info:
            VectorStore.load(path)
        assert str(path) in str(info.value)

    def test_truncated_metadata_section(self, saved):
        header, meta_a, _, _ = self.lines(saved)
        saved.write_bytes(header + b"\n" + meta_a + b"\n")
        self.assert_rejected(saved, "line 3")

    def test_bad_metadata_line(self, saved):
        header, _, meta_b, payload = self.lines(saved)
        saved.write_bytes(header + b"\n{not json\n" + meta_b + b"\n" + payload)
        self.assert_rejected(saved, "line 2")

    def test_header_without_dim(self, saved):
        header, meta_a, meta_b, payload = self.lines(saved)
        obj = json.loads(header)
        del obj["dim"]
        saved.write_bytes(b"\n".join([json.dumps(obj).encode(), meta_a, meta_b, payload]))
        self.assert_rejected(saved, "line 1.*dim")

    def test_header_that_is_a_list(self, saved):
        _, meta_a, meta_b, payload = self.lines(saved)
        saved.write_bytes(b"\n".join([b"[1, 2]", meta_a, meta_b, payload]))
        self.assert_rejected(saved, "line 1")

    def test_negative_count(self, saved):
        header, meta_a, meta_b, payload = self.lines(saved)
        header = header.replace(b'"count": 2', b'"count": -8')
        saved.write_bytes(b"\n".join([header, meta_a, meta_b, payload]))
        self.assert_rejected(saved, "line 1.*count")

    def test_non_unit_row(self, saved):
        header, meta_a, meta_b, _ = self.lines(saved)
        payload = np.array([[1.0, 0.0], [0.5, 0.5]], dtype="<f4").tobytes()
        saved.write_bytes(b"\n".join([header, meta_a, meta_b, payload]))
        self.assert_rejected(saved, "row 1.*not unit")

    def test_nan_row(self, saved):
        header, meta_a, meta_b, _ = self.lines(saved)
        payload = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype="<f4").tobytes()
        saved.write_bytes(b"\n".join([header, meta_a, meta_b, payload]))
        self.assert_rejected(saved, "row 0.*not unit")

    def test_several_bad_rows_name_the_first(self, tmp_path):
        store = VectorStore(
            dim=2, embedder_id="x", entries=[entry([1.0, 0.0], response_id=f"e{i}") for i in range(4)]
        )
        path = tmp_path / "s.vdb"
        store.save(path)
        data = path.read_bytes()
        payload = np.array([[1.0, 0.0], [0.5, 0.5], [np.nan, 0.0], [2.0, 0.0]], dtype="<f4")
        path.write_bytes(data[: -payload.nbytes] + payload.tobytes())
        self.assert_rejected(path, "row 1: .*not unit")

    def test_valid_file_still_loads_byte_stable(self, saved, tmp_path):
        again = tmp_path / "again.vdb"
        VectorStore.load(saved).save(again)
        assert again.read_bytes() == saved.read_bytes()
