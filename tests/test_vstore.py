import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import requests

from conftest import make_corpus
from ragrade.corpus import Label, Response
from ragrade.embedding import AdaptedEmbedder, Adapter, BaseEmbedder, HashEmbedder, RemoteEmbedder
from ragrade.glm import MAX_ATTEMPTS
from ragrade.vstore import (
    Entry,
    RetrievalConfig,
    StoreError,
    VectorStore,
    build_store,
    entry_from_response,
    top_k,
)


def row(vec, **metadata):
    """A (unit vector, entry) store row, as entry_from_response returns one."""
    merged = {"response_text": "t", "judgment": "correct"}
    merged.update(metadata)
    vec = np.asarray(vec, dtype=np.float64)
    return vec / np.linalg.norm(vec), Entry(metadata=merged)


def store_of(dim, embedder_id, rows):
    """A store of (vector, entry) rows, each vector cast to float32."""
    vectors = np.array([vec for vec, _ in rows], np.float32).reshape(len(rows), dim)
    return VectorStore(dim, embedder_id, vectors, [e for _, e in rows])


class FixedEmbedder(BaseEmbedder):
    """Returns preset vectors keyed by text."""

    def __init__(self, table, dim):
        self.table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}
        self.dim = dim
        self.embedder_id = f"fixed-{dim}"

    def embed(self, text):
        return self.table[text]


class OneAtATime(BaseEmbedder):
    """Hash embeddings through BaseEmbedder's default embed_many, one embed per text."""

    def __init__(self, dim):
        self.hash = HashEmbedder(dim)
        self.dim = dim
        self.embedder_id = f"one-at-a-time-{dim}"

    def embed(self, text):
        return self.hash.embed(text)


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
        assert store.vectors.shape == (0, 16)

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
        for vec in store.vectors:
            assert abs(np.linalg.norm(vec.astype(np.float64)) - 1.0) < 1e-6
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_non_finite_or_zero_embedding_names_response(self, bad):
        corpus = make_corpus({"q": "Q?"}, [("odd", "q", "train", Label.CORRECT, "text")])
        embedder = FixedEmbedder({"text": [bad, 0.0]}, dim=2)
        message = r"response 'odd': embedding norm .* is not finite and positive"
        with pytest.raises(StoreError, match=message):
            build_store(list(corpus.split("train")), embedder)

    @pytest.mark.parametrize("bad", [np.nan, 0.0])
    def test_bad_third_row_of_a_batch_names_its_response(self, bad):
        corpus = make_corpus({"q0": "Q0?", "q1": "Q1?"}, [
            ("a", "q0", "train", Label.CORRECT, "a"),
            *((rid, "q1", "train", Label.CORRECT, rid) for rid in "bcde"),
        ])
        table = {rid: [1.0, 2.0] for rid in "abce"} | {"d": [bad, 0.0]}
        message = r"^response 'd': embedding norm (nan|0\.0) is not finite and positive$"
        with pytest.raises(StoreError, match=message):
            build_store(list(corpus.split("train")), FixedEmbedder(table, dim=2))

    def test_failing_third_row_of_a_batch_names_its_response(self):
        texts = {"a": "a", "b": "the cell", "c": "wall", "d": "???", "e": "ohm"}
        qids = {"a": "q0", "b": "q1", "c": "q1", "d": "q1", "e": "q1"}
        corpus = make_corpus(
            {"q0": "Q0?", "q1": "Q1?"},
            [(rid, qids[rid], "train", Label.CORRECT, text) for rid, text in texts.items()],
        )
        responses = list(corpus.split("train"))
        for embedder in (HashEmbedder(16), OneAtATime(16)):
            with pytest.raises(StoreError, match=r"^embedding failed for response 'd': .*no hashable"):
                build_store(responses, embedder)
        # an adapter that sends d's base vector to zero
        base = FixedEmbedder({text: [1.0, 0.0] for text in texts.values()} | {"???": [0.0, 1.0]}, 2)
        routed = AdaptedEmbedder(base, {"q1": Adapter(np.diag([1.0, 0.0]))})
        with pytest.raises(StoreError, match=r"^embedding failed for response 'd': adapter projected"):
            build_store(responses, routed)

    def test_entry_embedding_failure_names_response(self):
        class Failing(BaseEmbedder):
            dim = 2
            embedder_id = "failing"

            def embed(self, text):
                raise RuntimeError("backend down")

        corpus = make_corpus({"q": "Q?"}, [("moved", "q", "uq", Label.CORRECT, "words")])
        with pytest.raises(StoreError, match=r"^embedding failed for response 'moved': backend down$"):
            entry_from_response(corpus.split("uq")[0], Failing())

    def test_required_metadata_enforced(self):
        with pytest.raises(StoreError, match="judgment"):
            Entry(metadata={"response_text": "t"})

    def test_non_unit_vector_rejected(self):
        meta = {"response_text": "t", "judgment": "correct"}
        with pytest.raises(StoreError, match="row 0: .*not unit"):
            VectorStore(2, "x", np.array([[1.0, 1.0]]), [Entry(meta)])

    def test_constructor_names_the_first_bad_row(self):
        meta = {"response_text": "t", "judgment": "correct"}
        vectors = np.array([[1.0, 0.0], [0.6, 0.8], [2.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(StoreError, match="row 2: .*not unit"):
            VectorStore(2, "x", vectors, [Entry(meta)] * 4)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (2,), (2, 2, 1)])
    def test_constructor_checks_the_shape(self, shape):
        meta = {"response_text": "t", "judgment": "correct"}
        with pytest.raises(StoreError, match="shape"):
            VectorStore(2, "x", np.full(shape, 0.5), [Entry(meta)] * 2)

    def test_entries_hold_only_metadata(self):
        """One copy of each vector: the store's matrix, which build_store filled."""
        assert [f.name for f in dataclasses.fields(Entry)] == ["metadata"]
        corpus = make_corpus({"q": "Q?"}, [(f"r{i}", "q", "train", Label.CORRECT) for i in range(5)])
        store = build_store(list(corpus.split("train")), HashEmbedder(16))
        assert store.vectors.dtype == np.float32 and store.vectors.shape == (5, 16)
        for e in store.entries:
            assert not any(isinstance(v, np.ndarray) for v in vars(e).values())
            assert not any(isinstance(v, np.ndarray) for v in e.metadata.values())


class TestTopK:
    def setup_method(self):
        self.store = store_of(
            2, "fixed-2", [row([1.0, 0.0], response_id="e1"), row([0.0, 1.0], response_id="e2")]
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
        store = store_of(
            2,
            "fixed-2",
            [
                row([0.0, 1.0], response_id="first"),
                row([0.0, 1.0], response_id="second"),
                row([0.0, 1.0], response_id="third"),
            ],
        )
        embedder = FixedEmbedder({"q": [0.6, 0.8]}, dim=2)
        results = top_k(store, "q", embedder, RetrievalConfig(k=3))
        assert [e.metadata["response_id"] for e, _ in results] == ["first", "second", "third"]

    def test_same_question_scope(self):
        store = store_of(
            2,
            "fixed-2",
            [
                row([1.0, 0.0], response_id="other", question_id="q2"),
                row([0.0, 1.0], response_id="mine", question_id="q1"),
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

    @pytest.mark.parametrize("query", [[np.nan, 1.0], [np.inf, 0.0], [np.nan, np.nan], [0.0, 0.0]])
    def test_non_finite_or_zero_query_rejected(self, query):
        embedder = FixedEmbedder({"q": query}, dim=2)
        with pytest.raises(StoreError, match="query embedding norm .* finite and positive"):
            top_k(self.store, "q", embedder, RetrievalConfig(k=1))

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
        store = store_of(dim, "fixed", [row(vectors[i], response_id=f"e{i}") for i in range(n)])
        for trial in range(20):
            q = rng.normal(size=dim)
            q /= np.linalg.norm(q)
            embedder = FixedEmbedder({"q": q}, dim=dim)
            results = top_k(store, "q", embedder, RetrievalConfig(k=10))
            expected = brute_force_top_k(store.vectors, q, 10)
            got = [(int(e.metadata["response_id"][1:]), s) for e, s in results]
            assert [i for i, _ in got] == [i for i, _ in expected]
            assert [s for _, s in got] == [s for _, s in expected]

    def test_full_k_is_permutation(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(20, 8))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        store = store_of(8, "fixed", [row(vectors[i], response_id=f"e{i}") for i in range(20)])
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
    """The per-query formula top_k replaced: re-stack every row vector, cast
    to float64, score the candidate rows, stable descending sort."""
    if question_id is None:
        candidates = list(range(len(store.entries)))
    else:
        candidates = [
            i for i, e in enumerate(store.entries) if e.metadata.get("question_id") == question_id
        ]
    query = np.asarray(query, dtype=np.float64)
    query = query / np.linalg.norm(query)
    matrix = np.stack(list(store.vectors)).astype(np.float64)[candidates]
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
    rows = [row(vectors[i], response_id=f"e{i}", question_id=f"q{qids[i]}") for i in range(n)]
    return store_of(dim, f"fixed-{dim}", rows), rng  # FixedEmbedder's id


class TestTopKMatchesRestacking:
    """top_k returns the very entries and bitwise the scores of the re-stacking formula."""

    K = 5

    def queries(self, store, rng):
        planted = [store.vectors[i].astype(np.float64) for i in range(0, 20, 4)]
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
        q = store.vectors[0].astype(np.float64)
        results = top_k(store, "q", FixedEmbedder({"q": q}, dim=store.dim), RetrievalConfig(k=2))
        assert [e.metadata["response_id"] for e, _ in results] == ["e0", "e200"]
        assert results[0][1] == results[1][1]

    def test_extended_store(self):
        store, rng = mixed_store(13)
        extra, _ = mixed_store(14, n=240)
        moved = [
            Response(e.metadata["response_id"], e.metadata["question_id"], f"text {i}", Label.CORRECT)
            for i, e in enumerate(extra.entries)
        ]
        embedder = FixedEmbedder({r.text: v for r, v in zip(moved, extra.vectors)}, store.dim)
        self.assert_same(store.extended(moved, embedder), rng)

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
        matrix = store.vectors
        object.__setattr__(store, "entries", NoScan(store.entries))

        def no_stack(*args, **kwargs):
            raise AssertionError("top_k stacked vectors")

        monkeypatch.setattr(np, "stack", no_stack)
        for n in range(10):
            embedder = FixedEmbedder({"q": rng.normal(size=store.dim)}, dim=store.dim)
            top_k(store, "q", embedder, RetrievalConfig(k=3, same_question_only=True),
                  question_id=f"q{n % 7}")
            top_k(store, "q", embedder, RetrievalConfig(k=3))
        assert store.vectors is matrix

    def test_store_is_immutable(self):
        store, _ = mixed_store(17)
        with pytest.raises(ValueError):
            store.vectors[0, 0] = 0.0
        with pytest.raises(AttributeError):
            store.entries = ()
        with pytest.raises(AttributeError):
            store.vectors = np.zeros((0, store.dim), np.float32)


class TestSaveLoad:
    def test_empty_round_trip(self, tmp_path):
        store = store_of(4, "x", [])
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
        store = store_of(16, "fixed", [row(vectors[i], response_id=f"e{i}") for i in range(50)])
        p1 = tmp_path / "one.vdb"
        p2 = tmp_path / "two.vdb"
        store.save(p1)
        VectorStore.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupted_payload_reports_byte_counts(self, tmp_path):
        store = store_of(2, "x", [row([1.0, 0.0])])
        path = tmp_path / "s.vdb"
        store.save(path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(StoreError, match=r"expected 8 bytes, got 5"):
            VectorStore.load(path)

    def test_version_mismatch(self, tmp_path):
        store = store_of(2, "x", [row([1.0, 0.0])])
        path = tmp_path / "s.vdb"
        store.save(path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b'"version": 1', b'"version": 9', 1))
        with pytest.raises(StoreError, match="version"):
            VectorStore.load(path)

    def test_metadata_preserved_in_order(self, tmp_path):
        store = store_of(2, "x", [row([1.0, 0.0], response_id=f"e{i}") for i in range(5)])
        path = tmp_path / "s.vdb"
        store.save(path)
        loaded = VectorStore.load(path)
        assert [e.metadata["response_id"] for e in loaded.entries] == [f"e{i}" for i in range(5)]


class TestLoadRejectsMalformedFiles:
    """Every malformed store file fails as StoreError naming the path and line or row."""

    @pytest.fixture
    def saved(self, tmp_path):
        store = store_of(
            2, "x", [row([1.0, 0.0], response_id="a"), row([0.0, 1.0], response_id="b")]
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
        store = store_of(2, "x", [row([1.0, 0.0], response_id=f"e{i}") for i in range(4)])
        path = tmp_path / "s.vdb"
        store.save(path)
        data = path.read_bytes()
        payload = np.array([[1.0, 0.0], [0.5, 0.5], [np.nan, 0.0], [2.0, 0.0]], dtype="<f4")
        path.write_bytes(data[: -payload.nbytes] + payload.tobytes())
        self.assert_rejected(path, "row 1: .*not unit")

    def test_metadata_without_judgment(self, saved):
        header, meta_a, meta_b, payload = self.lines(saved)
        meta = json.loads(meta_b)
        del meta["judgment"]
        saved.write_bytes(b"\n".join([header, meta_a, json.dumps(meta).encode(), payload]))
        self.assert_rejected(saved, "line 3: .*judgment")

    def test_unknown_judgment(self, saved):
        # refused at load, not when format_examples renders the row after retrieving it
        header, meta_a, meta_b, payload = self.lines(saved)
        meta = json.loads(meta_b)
        meta["judgment"] = "excellent"
        saved.write_bytes(b"\n".join([header, meta_a, json.dumps(meta).encode(), payload]))
        self.assert_rejected(saved, "line 3: unknown judgment string 'excellent'")

    @pytest.mark.parametrize("key", ["response_text", "question_id"])
    def test_non_string_text_or_question_id(self, saved, key):
        # a numeric question_id would drop the row out of its question's candidates
        header, meta_a, meta_b, payload = self.lines(saved)
        meta = json.loads(meta_a)
        meta[key] = 7
        saved.write_bytes(b"\n".join([header, json.dumps(meta).encode(), meta_b, payload]))
        self.assert_rejected(saved, f"line 2: {key} must be a string, got 7")

    def test_huge_dim_fails_before_allocating(self, saved):
        header, meta_a, meta_b, payload = self.lines(saved)
        header = header.replace(b'"dim": 2', b'"dim": 1099511627776')  # 2**40
        saved.write_bytes(b"\n".join([header, meta_a, meta_b, payload]))
        tracemalloc.start()
        try:
            self.assert_rejected(saved, "expected 8796093022208 bytes, got 16")
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    def test_valid_file_still_loads_byte_stable(self, saved, tmp_path):
        again = tmp_path / "again.vdb"
        VectorStore.load(saved).save(again)
        assert again.read_bytes() == saved.read_bytes()


def reference_store(responses, embedder, questions=None, include_question=False,
                    include_reference=False) -> VectorStore:
    """build_store one response at a time: embed_scoped, divide by the
    vector's np.linalg.norm, cast to float32."""
    vectors = np.empty((len(responses), embedder.dim), np.float32)
    entries = []
    for i, r in enumerate(responses):
        vec = embedder.embed_scoped(r.text, r.question_id)
        vectors[i] = vec / np.linalg.norm(vec)
        metadata = {
            "response_text": r.text,
            "judgment": r.label.value,
            "response_id": r.id,
            "question_id": r.question_id,
        }
        if include_question:
            metadata["question"] = questions[r.question_id].text
        if include_reference and questions[r.question_id].reference_answers:
            metadata["reference_answer"] = "\n".join(questions[r.question_id].reference_answers)
        entries.append(Entry(metadata))
    return VectorStore(embedder.dim, embedder.embedder_id, vectors, entries)


def saved(store, path) -> bytes:
    store.save(path)
    return path.read_bytes()


def batch_corpus(seed: int = 0):
    """Answers to 5 questions; q0 and q2 each come back after another question's answers."""
    rng = np.random.default_rng(seed)
    vocab = "the a current circuit bulb battery series parallel magnet iron water salt plant root sun".split()
    order = ["q0"] * 9 + ["q1"] * 7 + ["q0"] * 3 + ["q2"] * 12 + ["q3"] + ["q2"] * 2 + ["q4"] * 8
    rows = [
        (f"r{i}", qid, "train", list(Label)[i % len(Label)],
         " ".join(rng.choice(vocab, size=rng.integers(1, 25))) + f" word{i % 4}")
        for i, qid in enumerate(order)
    ]
    questions = {f"q{q}": f"question {q}?" for q in range(5)}
    return make_corpus(questions, rows, references={"q0": ["ref one", "ref two"], "q3": ["r"]})


class TestBuildMatchesRowByRow:
    """build_store's saved bytes equal those of reference_store, which embeds
    and normalizes one response at a time."""

    DIM = 24

    def embedder(self, kind, corpus):
        rng = np.random.default_rng(5)
        if kind == "hash":
            return HashEmbedder(self.DIM)
        if kind == "routed":
            adapters = {
                q: Adapter(np.eye(self.DIM) + 0.3 * rng.normal(size=(self.DIM, self.DIM)))
                for q in ("q0", "q2", "q3")
            }
            return AdaptedEmbedder(HashEmbedder(self.DIM), adapters)
        texts = {r.text for r in corpus.split("train")}
        return FixedEmbedder(  # non-unit vectors, so the store normalizes them
            {t: rng.normal(size=self.DIM) * rng.uniform(0.01, 100) for t in sorted(texts)},
            self.DIM,
        )

    @pytest.mark.parametrize("kind", ["hash", "routed", "fixed"])
    def test_saved_bytes_equal(self, kind, tmp_path):
        corpus = batch_corpus()
        responses = list(corpus.split("train"))
        embedder = self.embedder(kind, corpus)
        for options in ({}, {"include_question": True, "include_reference": True}):
            built = build_store(responses, embedder, corpus.questions, **options)
            expected = reference_store(responses, embedder, corpus.questions, **options)
            assert saved(built, tmp_path / "built") == saved(expected, tmp_path / "expected")


class CountingEmbedSession:
    """A remote embedder's session: answers each post with 3x the texts'
    hash embeddings and records the texts it got; a post holding one of
    the failing texts is answered 503 (only the first `fails` such posts,
    when fails is not negative)."""

    def __init__(self, dim, failing=(), fails=-1):
        self.base = HashEmbedder(dim)
        self.failing = set(failing)
        self.fails = fails
        self.posts = []

    def post(self, url, **kwargs):
        texts = kwargs["json"]["texts"]
        self.posts.append(texts)
        resp = requests.Response()
        resp.url = url
        if self.failing.intersection(texts) and self.fails != 0:
            self.fails -= 1
            resp.status_code, resp._content = 503, b"down"
        else:
            vectors = 3 * self.base.embed_many(texts)
            resp.status_code, resp._content = 200, json.dumps({"vectors": vectors.tolist()}).encode()
        return resp


class TestRemoteBuildBatches:
    ENDPOINT = "http://embed.invalid/v1"

    def test_one_request_per_question_run_and_the_same_store(self, tmp_path):
        corpus = batch_corpus()
        responses = list(corpus.split("train"))
        batched, single = CountingEmbedSession(16), CountingEmbedSession(16)
        built = build_store(responses, RemoteEmbedder(self.ENDPOINT, 16, session=batched))
        expected = reference_store(responses, RemoteEmbedder(self.ENDPOINT, 16, session=single))
        assert [len(texts) for texts in batched.posts] == [9, 7, 3, 12, 1, 2, 8]  # one per run
        assert [t for texts in batched.posts for t in texts] == [r.text for r in responses]
        assert len(single.posts) == len(responses)
        assert saved(built, tmp_path / "built") == saved(expected, tmp_path / "expected")

    def test_failed_batch_names_its_first_response(self, backoff_sleeps):
        corpus = batch_corpus()
        responses = list(corpus.split("train"))
        q1 = [r for r in responses if r.question_id == "q1"]
        session = CountingEmbedSession(16, failing=[q1[2].text])
        embedder = RemoteEmbedder(self.ENDPOINT, 16, session=session)
        with pytest.raises(StoreError, match=rf"^embedding failed for response '{q1[0].id}': .*503"):
            build_store(responses, embedder)
        assert len(session.posts) == 1 + MAX_ATTEMPTS  # q0's batch, then each attempt at q1's
        assert len(backoff_sleeps) == MAX_ATTEMPTS - 1

    def test_one_transient_failure_costs_nothing(self, tmp_path, backoff_sleeps):
        responses = list(batch_corpus().split("train"))
        q1 = [r for r in responses if r.question_id == "q1"]
        flaky, steady = CountingEmbedSession(16, [q1[2].text], fails=1), CountingEmbedSession(16)
        built = build_store(responses, RemoteEmbedder(self.ENDPOINT, 16, session=flaky))
        expected = build_store(responses, RemoteEmbedder(self.ENDPOINT, 16, session=steady))
        assert saved(built, tmp_path / "built") == saved(expected, tmp_path / "expected")
        assert len(flaky.posts) == len(steady.posts) + 1  # q1's batch, sent twice
        assert flaky.posts[1] == flaky.posts[2] == [r.text for r in q1]
        assert len(backoff_sleeps) == 1


class TestExtendedBatches:
    """extended embeds appended responses as build_store embeds a store's."""

    ENDPOINT = "http://embed.invalid/v1"

    def test_one_request_per_question_run_and_the_same_store(self, tmp_path):
        responses = list(batch_corpus().split("train"))
        head, moved = responses[:16], responses[16:]  # q0's second run starts the move
        session = CountingEmbedSession(16)
        embedder = RemoteEmbedder(self.ENDPOINT, 16, session=session)
        store = build_store(head, embedder)
        del session.posts[:]
        extended = store.extended(moved, embedder)
        assert [len(texts) for texts in session.posts] == [3, 12, 1, 2, 8]  # one per run
        assert [t for texts in session.posts for t in texts] == [r.text for r in moved]
        expected = reference_store(responses, RemoteEmbedder(self.ENDPOINT, 16, session=CountingEmbedSession(16)))
        assert saved(extended, tmp_path / "extended") == saved(expected, tmp_path / "expected")
        assert len(store) == 16  # unchanged

    def test_unembeddable_response_is_named(self):
        corpus = make_corpus(
            {"q": "Q?"},
            [("t", "q", "train", Label.CORRECT), ("m1", "q", "uq", Label.CORRECT),
             ("bad", "q", "uq", Label.CORRECT, "?!"), ("m2", "q", "uq", Label.CORRECT)],
        )
        embedder = HashEmbedder(16)
        store = build_store(list(corpus.split("train")), embedder)
        with pytest.raises(StoreError, match=r"^embedding failed for response 'bad': .*no hashable"):
            store.extended(list(corpus.split("uq")), embedder)

    def test_other_embedder_refused(self):
        corpus = batch_corpus()
        store = build_store(list(corpus.split("train"))[:5], HashEmbedder(16))
        with pytest.raises(StoreError, match=r"'hash-16'.*'adapted\(hash-16\)'"):
            store.extended(list(corpus.split("train"))[5:], AdaptedEmbedder(HashEmbedder(16), Adapter(np.eye(16))))


class TestOneCopyOfEachVector:
    """A store holds each vector once, in its float32 matrix: building or
    loading a 1,296 x 384 store (36 questions x 36 answers) allocates
    little beyond the matrix's 1.99 MB.  Per-entry vector copies and
    float64 transients of the matrix would each add about 2 MB or more."""

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(0)
        vocab = [f"word{i}" for i in range(600)]
        rows = [
            (f"q{q}-r{a}", f"q{q}", "train", list(Label)[(q + a) % len(Label)],
             " ".join(rng.choice(vocab, size=12)))
            for q in range(36) for a in range(36)
        ]
        return make_corpus({f"q{q}": f"question {q}?" for q in range(36)}, rows)

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_build_peak(self, corpus):
        responses = list(corpus.split("train"))
        embedder = HashEmbedder(384)
        for r in responses:  # warm the token memo, which is not the store's memory
            embedder.embed(r.text)
        store, peak = self.traced_peak(lambda: build_store(responses, embedder, corpus.questions))
        assert store.vectors.nbytes == 1296 * 384 * 4
        assert peak < 1.5 * store.vectors.nbytes  # 2.49 MB; 4.56 MB with per-entry copies

    def test_load_peak(self, corpus, tmp_path):
        path = tmp_path / "s.vdb"
        build_store(list(corpus.split("train")), HashEmbedder(384)).save(path)
        store, peak = self.traced_peak(lambda: VectorStore.load(path))
        assert len(store) == 1296
        # 2.90 MB; 5.04 MB reading the payload to the end first, 10.93 MB with a float64 norm pass
        assert peak < 1.5 * store.vectors.nbytes
