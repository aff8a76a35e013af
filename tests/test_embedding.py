import hashlib
import json
import random
import re
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
import requests

from ragrade.embedding import (
    AdaptedEmbedder,
    Adapter,
    AdapterFileError,
    EmbeddingError,
    HashEmbedder,
    RemoteEmbedder,
)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity u.v / (|u||v|), in [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise EmbeddingError("cosine of a zero-norm vector is undefined")
    return float(np.dot(u, v) / (nu * nv))


def adapter_embed(adapter: Adapter, base, text: str) -> np.ndarray:
    """normalize(W @ base.embed(text))."""
    return adapter.apply(base.embed(text))


class TestHashEmbedder:
    def test_deterministic(self):
        e = HashEmbedder(128)
        a = e.embed("abc")
        b = e.embed("abc")
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        e = HashEmbedder()
        for text in ("one", "a longer sentence with several words", "x y z"):
            assert abs(np.linalg.norm(e.embed(text)) - 1.0) < 1e-12

    def test_identical_text_cosine_one(self):
        e = HashEmbedder()
        assert cosine(e.embed("the cell wall"), e.embed("the cell wall")) == pytest.approx(1.0)

    def test_disjoint_vocabulary_near_orthogonal(self):
        e = HashEmbedder()  # default width
        u = e.embed("photosynthesis converts light energy into glucose")
        v = e.embed("ohms law relates voltage current resistance")
        assert abs(cosine(u, v)) <= 0.05

    def test_empty_text_error(self):
        with pytest.raises(EmbeddingError, match="no hashable features"):
            HashEmbedder().embed("   !!! ")

    def test_case_insensitive(self):
        e = HashEmbedder()
        assert np.array_equal(e.embed("The Cell Wall"), e.embed("the cell wall"))

    def test_stable_across_instances(self):
        assert np.array_equal(HashEmbedder(64).embed("stable"), HashEmbedder(64).embed("stable"))


def reference_embed(text: str, dim: int) -> np.ndarray:
    """Feature hashing one feature at a time, with no memo: the embedder's specification.

    Each word token and boundary-padded trigram adds +1 or -1 to one of
    dim buckets, chosen by the first 8 bytes of its blake2b digest read
    little-endian: the bucket is that number mod dim, the sign is + when
    its top bit is set.
    """
    tokens = re.findall(r"[a-z0-9]+", text.lower())
    if not tokens:
        raise EmbeddingError(f"text has no hashable features: {text!r}")
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        padded = f"#{token}#"
        for feature in ["w:" + token] + ["t:" + padded[i : i + 3] for i in range(len(padded) - 2)]:
            digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
            h = int.from_bytes(digest, "little")
            vec[h % dim] += 1.0 if h >> 63 else -1.0
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise EmbeddingError(f"text hashed to the zero vector: {text!r}")
    return vec / norm


def seeded_texts(seed: int, n: int) -> list[str]:
    """Texts mixing repeated and fresh tokens, digits, punctuation and non-ASCII."""
    rng = random.Random(seed)
    pool = "the cell cells cellular wall 42 420 x9 a ohm's law naïve café straße İstanbul ΣΊΣΥΦΟΣ 日本 b".split()
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789éü"
    texts = []
    for _ in range(n):
        words = []
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.7:
                words.append(rng.choice(pool))
            else:
                words.append("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8))))
        texts.append("".join(w + rng.choice([" ", ", ", "!? ", "-", "\n"]) for w in words))
    return texts


def outcome(embed, *args) -> bytes | str:
    """The bytes of embed(*args), or its EmbeddingError message."""
    try:
        return embed(*args).tobytes()
    except EmbeddingError as exc:
        return f"EmbeddingError: {exc}"


class TestMemoizedHashing:
    @pytest.mark.parametrize("dim", [2, 7, 384, 1024])
    def test_bitwise_equal_to_the_reference(self, dim):
        texts = seeded_texts(seed=dim, n=400)
        embedder = HashEmbedder(dim)
        for text in texts + texts:  # the second pass reads every token from the memo
            assert outcome(embedder.embed, text) == outcome(reference_embed, text, dim)

    def test_same_errors_for_no_tokens_and_cancelled_features(self):
        embedder = HashEmbedder(2)
        errors = set()
        for text in seeded_texts(seed=0, n=400) * 2:
            expected = outcome(reference_embed, text, 2)
            assert outcome(embedder.embed, text) == expected
            if isinstance(expected, str):
                errors.add(expected.split(":")[1].strip())
        # some texts have no tokens, and at dim 2 some have features that cancel
        assert errors == {"text has no hashable features", "text hashed to the zero vector"}

    def test_order_independent(self):
        a, b = "Cell walls protect the cell.", "the cell wall: 42 naïve cafés"
        first, second = HashEmbedder(64), HashEmbedder(64)
        forward = [first.embed(a).tobytes(), first.embed(b).tobytes()]
        backward = [second.embed(b).tobytes(), second.embed(a).tobytes()]
        assert forward == backward[::-1]

    def test_embedders_of_different_dims_share_no_memo(self):
        small, large = HashEmbedder(7), HashEmbedder(384)
        for text in seeded_texts(seed=3, n=200):
            for embedder in (small, large):
                assert outcome(embedder.embed, text) == outcome(reference_embed, text, embedder.dim)


def answer_texts(seed: int, n: int) -> list[str]:
    """SciEntsBank-shaped student answers: 1 to 40 words from a science
    vocabulary with repeated words, some one-word answers and some words
    seen in no other answer."""
    rng = random.Random(seed)
    vocab = (
        "the a of and is it because energy heat light current circuit bulb battery switch wire "
        "series parallel voltage resistance magnet iron nail compass north south pole force "
        "gravity mass weight water evaporate condense solution dissolve salt sugar mixture "
        "plant root stem leaf seed sun shadow moon earth rock mineral fossil sand clay soil "
        "sound vibrate pitch loud 2 10 100"
    ).split()
    texts = []
    for i in range(n):
        if i % 10 == 0:
            texts.append(rng.choice(vocab))
            continue
        words = [rng.choice(vocab) for _ in range(rng.randint(2, 40))]
        if i % 7 == 0:
            words += [words[0]] * rng.randint(1, 4)
        if i % 5 == 0:
            words.append(f"word{i}x")
        texts.append(" ".join(words).capitalize() + rng.choice([".", "", "!", " because."]))
    return texts


class TestEmbedMany:
    """embed_many hashes, sums and normalizes a whole batch at once;
    its rows are bitwise embed's, one text at a time."""

    @pytest.mark.parametrize("dim", [7, 384])
    def test_bitwise_equal_to_stacked_embed(self, dim):
        texts = answer_texts(seed=dim, n=1000)
        assert any(" " not in t.strip(".!") for t in texts)  # one-word answers
        stacked = np.stack([HashEmbedder(dim).embed(t) for t in texts])
        batched = HashEmbedder(dim).embed_many(texts)
        assert batched.dtype == stacked.dtype and batched.tobytes() == stacked.tobytes()

    def test_memo_filled_by_embed_or_by_a_batch(self):
        texts = answer_texts(seed=1, n=300)
        embedder = HashEmbedder(64)
        for text in texts[:150]:  # half the tokens come from embed's memo
            embedder.embed(text)
        first = embedder.embed_many(texts)
        again = embedder.embed_many(texts[::-1])[::-1]  # every token from the memo
        stacked = np.stack([HashEmbedder(64).embed(t) for t in texts])
        assert first.tobytes() == stacked.tobytes() == again.tobytes()

    @staticmethod
    def error_at_dim_2(text: str) -> str:
        """reference_embed's EmbeddingError message at dim 2, or '' if it embeds."""
        result = outcome(reference_embed, text, 2)
        return result if isinstance(result, str) else ""

    @pytest.mark.parametrize("problem", ["no hashable features", "the zero vector"])
    def test_error_is_embeds_and_carries_the_row(self, problem):
        texts = seeded_texts(seed=0, n=400)
        bad = next(t for t in texts if problem in self.error_at_dim_2(t))
        good = [t for t in texts if not self.error_at_dim_2(t)]
        with pytest.raises(EmbeddingError) as info:
            HashEmbedder(2).embed_many(good[:2] + [bad] + good[2:5])
        assert info.value.row == 2
        assert f"EmbeddingError: {info.value}" == self.error_at_dim_2(bad)

    def test_first_failing_row_is_reported(self):
        texts = seeded_texts(seed=0, n=400)
        cancelled = next(t for t in texts if "zero vector" in self.error_at_dim_2(t))
        with pytest.raises(EmbeddingError, match="zero vector") as info:
            HashEmbedder(2).embed_many(["cell", cancelled, "!!", "wall"])
        assert info.value.row == 1

    def test_empty_batch(self):
        assert HashEmbedder(16).embed_many([]).shape == (0, 16)

    def test_adapted_rows_are_embed_scoped(self):
        rng = np.random.default_rng(0)
        base = HashEmbedder(32)
        routed = AdaptedEmbedder(base, {"q1": Adapter(np.eye(32) + 0.2 * rng.normal(size=(32, 32)))})
        single = AdaptedEmbedder(base, Adapter(np.eye(32) + 0.2 * rng.normal(size=(32, 32))))
        texts = answer_texts(seed=2, n=50)
        for embedder, qid in ((routed, "q1"), (routed, "q2"), (routed, None), (single, "q1")):
            stacked = np.stack([embedder.embed_scoped(t, qid) for t in texts])
            assert embedder.embed_many(texts, qid).tobytes() == stacked.tobytes()


class TestCosine:
    def test_identity(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert cosine(e1, e1) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_forty_five_degrees(self):
        # closed form: (1*1 + 1*0) / (sqrt(2) * 1) = sqrt(2)/2
        assert cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(0.7071, abs=1e-4)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.normal(size=16)
            v = rng.normal(size=16)
            assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
            assert cosine(u, 3.7 * u) == pytest.approx(1.0)
            assert -1.0 - 1e-12 <= cosine(u, v) <= 1.0 + 1e-12

    def test_zero_norm_error(self):
        with pytest.raises(EmbeddingError, match="zero-norm"):
            cosine(np.zeros(3), np.array([1.0, 0.0, 0.0]))


class TestAdapter:
    def test_identity_keeps_base_embedding(self):
        base = HashEmbedder(32)
        adapter = Adapter(np.eye(32))
        vec = base.embed("some words")
        np.testing.assert_allclose(adapter_embed(adapter, base, "some words"), vec, atol=1e-12)

    def test_scaled_identity_is_identity_after_normalization(self):
        base = HashEmbedder(32)
        adapter = Adapter(weights=2.0 * np.eye(32))
        np.testing.assert_allclose(
            adapter_embed(adapter, base, "scale free"), base.embed("scale free"), atol=1e-12
        )

    def test_random_adapter_output_is_unit(self):
        rng = np.random.default_rng(3)
        base = HashEmbedder(48)
        adapter = Adapter(weights=rng.normal(size=(48, 48)))
        out = adapter_embed(adapter, base, "anything at all")
        assert abs(np.linalg.norm(out) - 1.0) < 1e-6

    def test_zero_projection_error(self):
        base = HashEmbedder(8)
        adapter = Adapter(weights=np.zeros((8, 8)))
        with pytest.raises(EmbeddingError, match="zero vector"):
            adapter_embed(adapter, base, "text")

    def test_non_finite_weights_rejected(self):
        weights = np.eye(4)
        weights[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Adapter(weights=weights)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        adapter = Adapter(weights=rng.normal(size=(16, 16)), trained_on={"loss": "triplet"})
        path = tmp_path / "w.adapter"
        adapter.save(path)
        again = Adapter.load(path)
        np.testing.assert_array_equal(again.weights, adapter.weights)
        assert again.trained_on == {"loss": "triplet"}

    def test_truncated_payload_rejected(self, tmp_path):
        adapter = Adapter(np.eye(8))
        path = tmp_path / "w.adapter"
        adapter.save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(ValueError, match="payload length mismatch"):
            Adapter.load(path)

    def test_non_finite_payload_names_the_file(self, tmp_path):
        path = tmp_path / "w.adapter"
        Adapter(np.eye(4)).save(path)
        path.write_bytes(path.read_bytes()[:-8] + np.array([np.nan], "<f8").tobytes())
        with pytest.raises(AdapterFileError, match=re.escape(f"{path}: ") + ".*non-finite entries$"):
            Adapter.load(path)

    def test_huge_dim_fails_before_allocating(self, tmp_path):
        path = tmp_path / "huge.adapter"
        header = {"format": "embedding-adapter", "version": 1, "dim": 2**20}
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(str(path)) + ".*expected 8796093022208 bytes, got 64"):
                Adapter.load(path)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "header",
        [
            b"not json\n",
            b"[1, 2]\n",
            json.dumps({"format": "embedding-adapter", "version": 1}).encode() + b"\n",
            json.dumps({"format": "embedding-adapter", "version": 1, "dim": "4"}).encode() + b"\n",
            json.dumps({"format": "embedding-adapter", "version": 1, "dim": 0}).encode() + b"\n",
        ],
        ids=["not-json", "not-object", "no-dim", "string-dim", "zero-dim"],
    )
    def test_malformed_header_rejected_naming_the_file(self, tmp_path, header):
        path = tmp_path / "bad.adapter"
        path.write_bytes(header)  # an empty payload fits dim 0
        with pytest.raises(ValueError, match=re.escape(str(path))):
            Adapter.load(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ({"format": "vector-store", "version": 1, "dim": 2}, "not an adapter file"),
            ({"format": "embedding-adapter", "version": 2, "dim": 2}, "unsupported adapter version 2"),
        ],
        ids=["other-format", "version-2"],
    )
    def test_foreign_header_rejected_naming_the_file(self, tmp_path, header, message):
        path = tmp_path / "other.adapter"
        path.write_bytes(json.dumps(header).encode() + b"\n" + np.eye(2).astype("<f8").tobytes())
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            Adapter.load(path)

    def test_mutated_files_fail_with_the_module_error(self, tmp_path):
        """Seeded fuzz: every adapter file that does not load fails with an
        error that is both EmbeddingError and ValueError."""
        rng = random.Random(9)
        path = tmp_path / "w.adapter"
        Adapter(np.eye(4) + 0.1, trained_on={"loss": "triplet"}).save(path)
        good = path.read_bytes()
        failures = 0
        for _ in range(300):
            data = bytearray(good)
            for _ in range(rng.randint(1, 3)):
                at, op = rng.randrange(len(data) + 1), rng.randrange(3)
                if op == 0:  # replace a byte
                    data[at : at + 1] = bytes([rng.randrange(256)])
                elif op == 1:  # truncate
                    del data[at:]
                else:  # insert a byte
                    data[at:at] = bytes([rng.randrange(256)])
            path.write_bytes(bytes(data))
            try:
                Adapter.load(path)
            except Exception as exc:
                assert isinstance(exc, EmbeddingError) and isinstance(exc, ValueError), repr(exc)
                failures += 1
        assert failures > 100

    def test_factored_apply_agrees_with_the_dense_weights(self):
        """a*x + basis @ (core @ (basis.T @ x)) rounds otherwise than weights @ x:
        unit outputs within 1e-12 per component (the tolerance in CHANGES.md)."""
        rng = np.random.default_rng(12)
        d, m = 384, 36
        basis, _ = np.linalg.qr(rng.normal(size=(d, m)))
        adapter = Adapter(a=0.9, basis=basis, core=0.3 * rng.normal(size=(m, m)))
        weights = adapter.weights
        assert adapter.dim == d and weights.shape == (d, d)
        np.testing.assert_array_equal(weights, adapter.weights)  # formed afresh on each read
        assert weights is not adapter.weights
        inputs = np.vstack([rng.normal(size=(20, d)), rng.normal(size=(20, m)) @ basis.T])  # in the span too
        for x in inputs / np.linalg.norm(inputs, axis=1, keepdims=True):
            dense = weights @ x
            np.testing.assert_allclose(adapter.apply(x), dense / np.linalg.norm(dense), rtol=0, atol=1e-12)

    def test_factored_weights_are_formed_as_training_formed_them(self, tmp_path):
        rng = np.random.default_rng(13)
        basis, _ = np.linalg.qr(rng.normal(size=(32, 5)))
        core = rng.normal(size=(5, 5))
        adapter = Adapter(a=0.7, basis=basis, core=core)
        expected = basis @ core @ basis.T
        expected.flat[::33] += 0.7
        assert adapter.weights.tobytes() == expected.tobytes()
        adapter.save(tmp_path / "w.adapter")
        again = Adapter.load(tmp_path / "w.adapter")
        assert again.basis is None and again.weights.tobytes() == expected.tobytes()

    def test_routed_embedder_falls_back(self):
        base = HashEmbedder(16)
        rng = np.random.default_rng(0)
        adapter = Adapter(weights=np.eye(16) + 0.5 * rng.normal(size=(16, 16)))
        routed = AdaptedEmbedder(base, {"q1": adapter})
        text = "shared words"
        assert not np.allclose(routed.embed_scoped(text, "q1"), base.embed(text))
        np.testing.assert_allclose(routed.embed_scoped(text, "q2"), base.embed(text))
        np.testing.assert_allclose(routed.embed(text), base.embed(text))

    def test_single_and_routed_adapters(self):
        base = HashEmbedder(16)
        rng = np.random.default_rng(1)
        adapter = Adapter(weights=np.eye(16) + 0.5 * rng.normal(size=(16, 16)))
        text = "shared words"
        plain, adapted = base.embed(text), adapter.apply(base.embed(text))
        single = AdaptedEmbedder(base, adapter)
        routed = AdaptedEmbedder(base, {"q1": adapter})
        assert single.embedder_id == "adapted(hash-16)"
        assert routed.embedder_id == "routed(hash-16)"
        for question_id in ("q1", "q2", None):
            np.testing.assert_array_equal(single.embed_scoped(text, question_id), adapted)
        np.testing.assert_array_equal(single.embed(text), adapted)
        np.testing.assert_array_equal(routed.embed_scoped(text, "q1"), adapted)
        for question_id in ("q2", None):
            np.testing.assert_array_equal(routed.embed_scoped(text, question_id), plain)
        np.testing.assert_array_equal(routed.embed(text), plain)

    def test_adapted_embedder_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            AdaptedEmbedder(HashEmbedder(16), Adapter(np.eye(8)))
        adapters = {"q1": Adapter(np.eye(16)), "q2": Adapter(np.eye(8))}
        with pytest.raises(ValueError, match="question 'q2' has dim 8"):
            AdaptedEmbedder(HashEmbedder(16), adapters)

    def test_retrieval_invariant_to_positive_rescaling(self):
        from ragrade.corpus import Label
        from ragrade.vstore import RetrievalConfig, build_store, top_k
        from conftest import make_corpus

        rng = np.random.default_rng(9)
        weights = np.eye(24) + 0.3 * rng.normal(size=(24, 24))
        base = HashEmbedder(24)
        corpus = make_corpus(
            {"q": "Q?"},
            [
                ("a", "q", "train", Label.CORRECT, "one answer about circuits"),
                ("b", "q", "train", Label.IRRELEVANT, "a different kind of text"),
                ("c", "q", "train", Label.CONTRADICTORY, "yet another response body"),
            ],
        )
        results = []
        for scale in (1.0, 42.5):
            embedder = AdaptedEmbedder(base, Adapter(weights=scale * weights))
            store = build_store(list(corpus.split("train")), embedder)
            hits = top_k(store, "circuits answer", embedder, RetrievalConfig(k=3))
            results.append([(e.metadata["response_id"], round(s, 9)) for e, s in hits])
        assert results[0] == results[1]


class _EmbedHandler(BaseHTTPRequestHandler):
    dim = 5

    def do_POST(self):
        length = int(self.headers["content-length"])
        texts = json.loads(self.rfile.read(length))["texts"]
        vectors = []
        for t in texts:
            raw = [float((hash(t) >> i) % 7 - 3) or 1.0 for i in range(self.dim)]
            norm = sum(x * x for x in raw) ** 0.5
            vectors.append([x / norm for x in raw])
        body = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("content-type", "application/json")
        self.send_header("content-length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    server = HTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()
    server.server_close()
    thread.join()


class TestRemoteEmbedder:
    def test_round_trip(self, embed_server):
        embedder = RemoteEmbedder(embed_server, dim=5)
        out = embedder.embed_many(["hello", "world"])
        assert out.shape == (2, 5)
        single = embedder.embed("hello")
        np.testing.assert_allclose(single, out[0])

    def test_dimension_mismatch(self, embed_server):
        embedder = RemoteEmbedder(embed_server, dim=9)
        with pytest.raises(EmbeddingError, match="dimension"):
            embedder.embed("hello")


class _CannedSession:
    """Answers the first posts with the (status, headers) pairs in before,
    one each, and every later post with the same status and raw body, or
    raises error; counts the posts."""

    def __init__(self, status=200, body=b"", error=None, before=()):
        self.status, self.body, self.error = status, body, error
        self.before = list(before)
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        if self.error is not None:
            raise self.error
        resp = requests.Response()
        resp.status_code, resp._content, resp.url = self.status, self.body, url
        if self.before:
            resp.status_code, extra = self.before.pop(0)
            resp.headers.update(extra)
        return resp


ENDPOINT = "http://embed.invalid/v1"


class TestRemoteEmbedderOutsideFailures:
    @pytest.mark.parametrize(
        "session, problem",
        [
            (_CannedSession(500, b"oops"), "giving up after 3 attempts; last failure: status 500"),
            (_CannedSession(error=requests.ConnectionError("refused")), "refused"),
            (_CannedSession(200, b"<html>"), "not JSON"),
            (_CannedSession(200, b"[[0.6, 0.8]]"), "not a JSON object with a 'vectors' list"),
            (_CannedSession(200, b'{"vectors": 3}'), "not a JSON object with a 'vectors' list"),
            (_CannedSession(200, b'{"vectors": [["a", "b"]]}'), "not numeric"),
            (_CannedSession(200, b'{"vectors": [[0.6, [0.8]]]}'), "not numeric"),
            (_CannedSession(200, b'{"vectors": [[0.6], [0.6, 0.8]]}'), "returned 2 vectors"),
            (_CannedSession(200, b'{"vectors": [[0.6, 0.8, 0.0]]}'), "dimension 3 != configured 2"),
            (_CannedSession(200, b'{"vectors": [[NaN, 0.8]]}'), "vector 0 is not finite"),
            (_CannedSession(200, b'{"vectors": [[Infinity, 0.8]]}'), "vector 0 is not finite"),
            (_CannedSession(200, b'{"vectors": [[0.6, null]]}'), "vector 0 is not finite"),
        ],
        ids=[
            "http-500", "connection-error", "not-json", "json-list", "vectors-not-a-list",
            "strings", "ragged", "count", "dimension", "nan", "infinity", "null",
        ],
    )
    def test_raises_embedding_error_naming_endpoint(self, session, problem, backoff_sleeps):
        embedder = RemoteEmbedder(ENDPOINT, dim=2, session=session)
        with pytest.raises(EmbeddingError) as info:
            embedder.embed("hello")
        assert ENDPOINT in str(info.value)
        assert problem in str(info.value)

    def test_good_body_still_embeds(self):
        session = _CannedSession(200, b'{"vectors": [[0.6, 0.8], [1, 0]]}')
        out = RemoteEmbedder(ENDPOINT, dim=2, session=session).embed_many(["a", "b"])
        np.testing.assert_array_equal(out, [[0.6, 0.8], [1.0, 0.0]])


class TestRemoteEmbedderRetries:
    """The embedder's posts follow glm.post_json's retry policy."""

    GOOD = b'{"vectors": [[0.6, 0.8]]}'

    @pytest.mark.parametrize("status", [401, 403])
    def test_auth_failure_not_retried(self, status, backoff_sleeps):
        session = _CannedSession(status, b"denied")
        with pytest.raises(EmbeddingError) as info:
            RemoteEmbedder(ENDPOINT, dim=2, session=session).embed("hello")
        assert str(info.value) == f"remote embedder {ENDPOINT}: authentication failed with status {status}"
        assert session.posts == 1 and backoff_sleeps == []

    def test_client_error_not_retried(self, backoff_sleeps):
        session = _CannedSession(404, b"no such model")
        with pytest.raises(EmbeddingError, match=f"{ENDPOINT}: unexpected status 404: no such model"):
            RemoteEmbedder(ENDPOINT, dim=2, session=session).embed("hello")
        assert session.posts == 1 and backoff_sleeps == []

    def test_transient_failures_then_success(self, backoff_sleeps):
        session = _CannedSession(200, self.GOOD, before=[(503, {}), (500, {})])
        out = RemoteEmbedder(ENDPOINT, dim=2, session=session).embed("hello")
        np.testing.assert_array_equal(out, [0.6, 0.8])
        assert session.posts == 3
        assert 0.5 <= backoff_sleeps[0] < 0.75 and 1.0 <= backoff_sleeps[1] < 1.5

    def test_retry_after_longer_than_backoff_is_honoured(self, backoff_sleeps):
        session = _CannedSession(200, self.GOOD, before=[(429, {"Retry-After": "7"})])
        out = RemoteEmbedder(ENDPOINT, dim=2, session=session).embed("hello")
        np.testing.assert_array_equal(out, [0.6, 0.8])
        assert session.posts == 2 and backoff_sleeps == [7.0]
