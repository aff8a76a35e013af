import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from ragrade.embedding import (
    AdaptedEmbedder,
    Adapter,
    EmbeddingError,
    HashEmbedder,
    QuestionRoutedEmbedder,
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
        adapter = Adapter.identity(32)
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
        adapter = Adapter.identity(8)
        path = tmp_path / "w.adapter"
        adapter.save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(ValueError, match="payload length mismatch"):
            Adapter.load(path)

    def test_routed_embedder_falls_back(self):
        base = HashEmbedder(16)
        rng = np.random.default_rng(0)
        adapter = Adapter(weights=np.eye(16) + 0.5 * rng.normal(size=(16, 16)))
        routed = QuestionRoutedEmbedder(base, {"q1": adapter})
        text = "shared words"
        assert not np.allclose(routed.embed_scoped(text, "q1"), base.embed(text))
        np.testing.assert_allclose(routed.embed_scoped(text, "q2"), base.embed(text))
        np.testing.assert_allclose(routed.embed(text), base.embed(text))

    def test_adapted_embedder_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            AdaptedEmbedder(HashEmbedder(16), Adapter.identity(8))

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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()


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
