import numpy as np
import pytest

from ragrade.embedding import HashEmbedder
from ragrade.losses import (
    LossKind,
    _project,
    clip_gradient,
    cosine_sentence_loss,
    cosine_similarity_loss,
    triplet_loss,
)
from ragrade.training import TrainConfig, TrainingError, train_adapter
from ragrade.pairs import Pair, Triplet


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def fd_gradient(fn, weights, h=1e-5):
    """Central finite differences over every matrix entry."""
    grad = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            plus = weights.copy()
            plus[i, j] += h
            minus = weights.copy()
            minus[i, j] -= h
            grad[i, j] = (fn(plus) - fn(minus)) / (2 * h)
    return grad


def rel_error(analytic, numeric):
    return np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)


class TestCosineSimilarityLoss:
    def test_perfect_pair_zero_loss(self):
        d = 4
        base = np.eye(d)[:1]
        loss, grad = cosine_similarity_loss(np.eye(d), base, base, np.array([1.0]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_orthogonal_pair_label_one(self):
        d = 4
        a = np.eye(d)[:1]
        b = np.eye(d)[1:2]
        loss, _ = cosine_similarity_loss(np.eye(d), a, b, np.array([1.0]))
        assert loss == pytest.approx(1.0)

    def test_batch_mean(self):
        d = 3
        a = np.vstack([np.eye(d)[0], np.eye(d)[0]])
        b = np.vstack([np.eye(d)[0], np.eye(d)[1]])
        loss, _ = cosine_similarity_loss(np.eye(d), a, b, np.array([1.0, 1.0]))
        assert loss == pytest.approx(0.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        d = 6
        for _ in range(10):
            weights = np.eye(d) + 0.4 * rng.normal(size=(d, d))
            a = unit_rows(rng, 8, d)
            b = unit_rows(rng, 8, d)
            labels = rng.integers(0, 2, size=8).astype(float)
            _, grad = cosine_similarity_loss(weights, a, b, labels)
            numeric = fd_gradient(lambda w: cosine_similarity_loss(w, a, b, labels)[0], weights)
            assert rel_error(grad, numeric) < 1e-4


class TestCosineSentenceLoss:
    def test_well_separated_batch_near_zero(self):
        # one positive pair at cosine 1, one negative at cosine -1: the
        # exponent is scale * (-2), far below zero
        d = 3
        a = np.vstack([np.eye(d)[0], np.eye(d)[1]])
        b = np.vstack([np.eye(d)[0], -np.eye(d)[1]])
        labels = np.array([1, 0])
        loss, _ = cosine_sentence_loss(np.eye(d), a, b, labels, scale=10.0)
        assert 0.0 < loss < 1e-8

    def test_equal_cosines_log_two(self):
        d = 3
        a = np.vstack([np.eye(d)[0], np.eye(d)[1]])
        b = np.vstack([np.eye(d)[0], np.eye(d)[1]])
        labels = np.array([1, 0])
        loss, _ = cosine_sentence_loss(np.eye(d), a, b, labels)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_no_comparable_pairs_zero(self):
        d = 3
        a = np.eye(d)[:2]
        b = np.eye(d)[1:]
        for labels in (np.array([1, 1]), np.array([0, 0])):
            loss, grad = cosine_sentence_loss(np.eye(d), a, b, labels)
            assert loss == 0.0
            np.testing.assert_array_equal(grad, 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        d = 6
        for _ in range(10):
            weights = np.eye(d) + 0.4 * rng.normal(size=(d, d))
            a = unit_rows(rng, 8, d)
            b = unit_rows(rng, 8, d)
            labels = np.array([1, 1, 1, 0, 0, 0, 1, 0])
            scale = float(rng.uniform(0.5, 3.0))
            _, grad = cosine_sentence_loss(weights, a, b, labels, scale=scale)
            numeric = fd_gradient(
                lambda w: cosine_sentence_loss(w, a, b, labels, scale=scale)[0], weights
            )
            assert rel_error(grad, numeric) < 1e-4


def triplet_hinges(weights, a, p, n, margin):
    _, _, ua = _project(weights, a)
    _, _, up = _project(weights, p)
    _, _, un = _project(weights, n)
    return np.linalg.norm(ua - up, axis=1) - np.linalg.norm(ua - un, axis=1) + margin


class TestTripletLoss:
    def test_clamped_to_zero(self):
        # anchor == positive, negative antipodal: hinge = 0 - 2 + 0.5 < 0
        d = 3
        a = np.eye(d)[:1]
        n = -np.eye(d)[:1]
        loss, grad = triplet_loss(np.eye(d), a, a, n, margin=0.5)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_active_hinge_value(self):
        # anchor == positive, |a - n| = 1 (60 degrees apart), margin 3 -> 2
        d = 3
        a = np.array([[1.0, 0.0, 0.0]])
        n = np.array([[0.5, np.sqrt(3) / 2, 0.0]])
        loss, _ = triplet_loss(np.eye(d), a, a, n, margin=3.0)
        assert loss == pytest.approx(2.0, abs=1e-12)

    def test_default_margin_keeps_hinge_active(self):
        # unit embeddings are at most 2 apart, so margin 3 never clamps
        rng = np.random.default_rng(8)
        d = 5
        a, p, n = (unit_rows(rng, 6, d) for _ in range(3))
        hinges = triplet_hinges(np.eye(d), a, p, n, margin=3.0)
        assert np.all(hinges > 0)

    def test_gradient_matches_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(23)
        d = 6
        checked = 0
        while checked < 10:
            weights = np.eye(d) + 0.4 * rng.normal(size=(d, d))
            a = unit_rows(rng, 8, d)
            p = unit_rows(rng, 8, d)
            n = unit_rows(rng, 8, d)
            margin = float(rng.uniform(0.2, 1.0))
            hinges = triplet_hinges(weights, a, p, n, margin)
            if np.any(np.abs(hinges) < 1e-3):
                continue
            _, grad = triplet_loss(weights, a, p, n, margin=margin)
            numeric = fd_gradient(lambda w: triplet_loss(w, a, p, n, margin=margin)[0], weights)
            assert rel_error(grad, numeric) < 1e-4
            checked += 1


class TestClipGradient:
    def test_large_gradient_scaled_to_max(self):
        rng = np.random.default_rng(1)
        grad = rng.normal(size=(20, 20)) * 100
        clipped = clip_gradient(grad, 3.0)
        assert np.linalg.norm(clipped) <= 3.0 + 1e-9
        np.testing.assert_allclose(clipped / np.linalg.norm(clipped), grad / np.linalg.norm(grad))

    def test_small_gradient_untouched(self):
        grad = np.full((4, 4), 0.01)
        np.testing.assert_array_equal(clip_gradient(grad, 3.0), grad)


def two_cluster_training_pairs(n_per=6):
    """Labeled pairs over two token families, plus matching texts."""
    texts = {}
    pairs = []
    ids_a, ids_b = [], []
    for i in range(n_per):
        texts[f"a{i}"] = f"magnet field coil winding probe{i}"
        texts[f"b{i}"] = f"enzyme protein substrate reaction vial{i}"
        ids_a.append(f"a{i}")
        ids_b.append(f"b{i}")
    all_ids = ids_a + ids_b
    for i in range(len(all_ids)):
        for j in range(i + 1, len(all_ids)):
            same = (all_ids[i][0]) == (all_ids[j][0])
            pairs.append(
                Pair(a_id=all_ids[i], b_id=all_ids[j], question_id="q", label=1 if same else 0)
            )
    return pairs, texts


class TestTrainAdapter:
    def test_zero_epochs_identity(self):
        pairs, texts = two_cluster_training_pairs()
        base = HashEmbedder(32)
        config = TrainConfig(loss=LossKind.COSINE_SIMILARITY, epochs=0, seed=1)
        result = train_adapter(config, pairs, texts, base)
        np.testing.assert_array_equal(result.adapter.weights, np.eye(32))
        assert result.batch_losses == []

    def test_loss_decreases_on_separable_fixture(self):
        pairs, texts = two_cluster_training_pairs()
        base = HashEmbedder(32)
        config = TrainConfig(
            loss=LossKind.COSINE_SIMILARITY, epochs=8, learning_rate=0.5, seed=1
        )
        result = train_adapter(config, pairs, texts, base)
        assert result.epoch_means[-1] < result.epoch_means[0]

    def test_fixed_seed_reproduces_trace_bitwise(self):
        pairs, texts = two_cluster_training_pairs()
        base = HashEmbedder(32)
        config = TrainConfig(loss=LossKind.COSINE_SENTENCE, epochs=3, learning_rate=0.1, seed=7)
        first = train_adapter(config, pairs, texts, base)
        second = train_adapter(config, pairs, texts, base)
        assert first.batch_losses == second.batch_losses
        np.testing.assert_array_equal(first.adapter.weights, second.adapter.weights)

    def test_empty_set_rejected(self):
        with pytest.raises(TrainingError, match="empty"):
            train_adapter(TrainConfig(), [], {}, HashEmbedder(8))

    def test_type_mismatch_rejected(self):
        pairs, texts = two_cluster_training_pairs()
        config = TrainConfig(loss=LossKind.TRIPLET)
        with pytest.raises(TrainingError, match="triplet"):
            train_adapter(config, pairs, texts, HashEmbedder(8))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        pairs, texts = two_cluster_training_pairs()
        base = HashEmbedder(16)
        config = TrainConfig(
            loss=LossKind.COSINE_SIMILARITY,
            epochs=60,
            learning_rate=1e12,
            max_grad_norm=1e12,
            seed=0,
        )
        with pytest.raises(TrainingError, match="epoch"):
            train_adapter(config, pairs, texts, base)

    def test_triplet_training_runs(self):
        texts = {
            "a0": "magnet coil field",
            "a1": "magnet winding field",
            "b0": "enzyme substrate protein",
            "b1": "enzyme reaction protein",
        }
        triplets = [
            Triplet(anchor_id="a0", positive_id="a1", negative_id="b0", question_id="q"),
            Triplet(anchor_id="b0", positive_id="b1", negative_id="a0", question_id="q"),
        ]
        config = TrainConfig(loss=LossKind.TRIPLET, epochs=2, learning_rate=0.1, seed=0)
        result = train_adapter(config, triplets, texts, HashEmbedder(16))
        assert len(result.epoch_means) == 2
        assert result.adapter.trained_on["kind"] == "triplets"

    def test_config_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(loss=LossKind.COSINE_SENTENCE, batch_size=1)
        with pytest.raises(ValueError, match="margin"):
            TrainConfig(margin=0.0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)

    def test_manifest_lists_every_field_in_order(self):
        config = TrainConfig(
            loss=LossKind.TRIPLET,
            batch_size=4,
            learning_rate=0.25,
            weight_decay=0.0,
            max_grad_norm=1.5,
            margin=0.5,
            epochs=7,
            seed=11,
            scale=2.0,
        )
        manifest = config.manifest()
        assert manifest == {
            "loss": "triplet",
            "batch_size": 4,
            "learning_rate": 0.25,
            "weight_decay": 0.0,
            "max_grad_norm": 1.5,
            "margin": 0.5,
            "epochs": 7,
            "seed": 11,
            "scale": 2.0,
        }
        assert list(manifest) == [
            "loss", "batch_size", "learning_rate", "weight_decay", "max_grad_norm",
            "margin", "epochs", "seed", "scale",
        ]


class TestTrainForCorpus:
    def corpus(self):
        from conftest import make_corpus
        from ragrade.corpus import Label

        return make_corpus(
            {"q1": "Q1?", "q2": "Q2?"},
            [
                ("a1", "q1", "train", Label.CORRECT, "magnet coil flux answer"),
                ("a2", "q1", "train", Label.CORRECT, "magnet winding flux reply"),
                ("a3", "q1", "train", Label.IRRELEVANT, "bananas are a yellow fruit"),
                ("b1", "q2", "train", Label.CORRECT, "enzyme protein substrate answer"),
                ("b2", "q2", "train", Label.CORRECT, "enzyme catalyst substrate reply"),
                ("b3", "q2", "train", Label.CONTRADICTORY, "rocks are not alive at all"),
            ],
        )

    def test_question_scope_yields_one_adapter_per_question(self):
        from ragrade.pairs import Scope, Strategy, build_training_sets
        from ragrade.training import train_for_corpus
        from ragrade.corpus import Scheme

        corpus = self.corpus()
        sets = build_training_sets(corpus, Scheme.TWO_WAY, Strategy.GENERAL, Scope.QUESTION, seed=2)
        config = TrainConfig(loss=LossKind.COSINE_SIMILARITY, epochs=2, learning_rate=0.2, seed=2)
        results = train_for_corpus(config, corpus, sets, HashEmbedder(32))
        assert set(results) == {"q1", "q2"}
        w1 = results["q1"].adapter.weights
        w2 = results["q2"].adapter.weights
        assert not np.array_equal(w1, w2)  # per-question seeds and data differ
        for result in results.values():
            assert result.adapter.trained_on["config"]["loss"] == "cosine_similarity"

    def test_global_scope_yields_single_adapter(self):
        from ragrade.pairs import Scope, Strategy, build_training_sets
        from ragrade.training import train_for_corpus
        from ragrade.corpus import Scheme

        corpus = self.corpus()
        sets = build_training_sets(corpus, Scheme.TWO_WAY, Strategy.GENERAL, Scope.GLOBAL, seed=2)
        config = TrainConfig(loss=LossKind.COSINE_SIMILARITY, epochs=1, learning_rate=0.2, seed=2)
        results = train_for_corpus(config, corpus, sets, HashEmbedder(32))
        assert list(results) == ["global"]
