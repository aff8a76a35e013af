import re
import threading
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ragrade.corpus import Scheme
from ragrade.embedding import HashEmbedder
from ragrade.losses import (
    LossKind,
    clip_gradient,
    cosine_sentence_loss,
    cosine_similarity_loss,
    triplet_loss,
)
import ragrade.training
from ragrade.training import TrainConfig, TrainingError, train_adapter, train_for_corpus
from ragrade.pairs import Pair, Scope, Strategy, TrainingSets, Triplet, build_training_sets, derive_seed


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


def _project(weights, base):
    """(projected, norms, unit) for rows of base through W; projected[i] = W @ base[i]."""
    projected = base @ weights.T
    norms = np.linalg.norm(projected, axis=-1)
    return projected, norms, projected / norms[..., None]


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

    @pytest.mark.parametrize("loss", [LossKind.COSINE_SIMILARITY, LossKind.COSINE_SENTENCE])
    def test_pair_loss_given_triplets_rejected(self, loss):
        with pytest.raises(TrainingError, match=f"{loss.value} loss needs a labeled pair set"):
            train_adapter(TrainConfig(loss=loss), TWO_TRIPLETS, FOUR_TEXTS, HashEmbedder(8))

    def test_pair_label_outside_zero_one_rejected(self):
        pairs = FOUR_PAIRS[:3] + [replace(FOUR_PAIRS[3], label=2)]
        with pytest.raises(TrainingError, match="pair labels must be 0 or 1"):
            train_adapter(TrainConfig(loss=LossKind.COSINE_SIMILARITY), pairs, FOUR_TEXTS, HashEmbedder(8))

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

    @pytest.mark.parametrize("loss", [LossKind.COSINE_SIMILARITY, LossKind.TRIPLET], ids=["cosine_similarity", "triplet"])
    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_rejected(self, loss, batch_size):
        with pytest.raises(ValueError, match=rf"batch_size must be >= 1, got {batch_size}$"):
            TrainConfig(loss=loss, batch_size=batch_size)

    @pytest.mark.parametrize("max_grad_norm", [0.0, -1.0, float("nan")])
    def test_max_grad_norm_must_be_positive(self, max_grad_norm):
        with pytest.raises(ValueError, match=rf"max_grad_norm must be positive, got {max_grad_norm}$"):
            TrainConfig(max_grad_norm=max_grad_norm)

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("learning_rate", float("nan"), "positive and finite"),
            ("learning_rate", float("inf"), "positive and finite"),
            ("learning_rate", -1.0, "positive and finite"),
            ("weight_decay", float("nan"), "non-negative and finite"),
            ("weight_decay", float("inf"), "non-negative and finite"),
            ("weight_decay", -1e-7, "non-negative and finite"),
            ("margin", float("nan"), "positive and finite"),
            ("margin", float("inf"), "positive and finite"),
            ("scale", 0.0, "positive and finite"),
            ("scale", -1.0, "positive and finite"),
            ("scale", float("nan"), "positive and finite"),
            ("scale", float("inf"), "positive and finite"),
            ("epochs", -1, "non-negative"),
            ("seed", -1, "non-negative"),
        ],
    )
    def test_out_of_range_field_rejected_by_name_and_value(self, field, value, rule):
        with pytest.raises(ValueError, match=rf"^{field} must be {rule}, got {value}$"):
            TrainConfig(**{field: value})

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


FOUR_TEXTS = {
    "a0": "magnet coil field",
    "a1": "magnet winding field",
    "b0": "enzyme substrate protein",
    "b1": "enzyme reaction protein",
}
FOUR_PAIRS = [
    Pair(a_id="a0", b_id="a1", question_id="q", label=1),
    Pair(a_id="b0", b_id="b1", question_id="q", label=1),
    Pair(a_id="a0", b_id="b0", question_id="q", label=0),
    Pair(a_id="a1", b_id="b1", question_id="q", label=0),
]
TWO_TRIPLETS = [
    Triplet(anchor_id="a0", positive_id="a1", negative_id="b0", question_id="q"),
    Triplet(anchor_id="b0", positive_id="b1", negative_id="a0", question_id="q"),
]


class TestNonFiniteWeights:
    """A step that leaves the weights non-finite ends training with a
    TrainingError that names where, and without a numpy RuntimeWarning."""

    @pytest.mark.parametrize(
        "loss, examples, lr",
        [
            (LossKind.COSINE_SENTENCE, FOUR_PAIRS, 1e200),
            (LossKind.COSINE_SIMILARITY, FOUR_PAIRS, 1e300),
            (LossKind.TRIPLET, TWO_TRIPLETS, 1e300),
        ],
        ids=["cosine_sentence", "cosine_similarity", "triplet"],
    )
    @pytest.mark.parametrize("epochs", [1, 2, 5])
    def test_training_error_names_epoch_and_batch(self, loss, examples, lr, epochs):
        config = TrainConfig(loss=loss, epochs=epochs, learning_rate=lr, batch_size=4, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingError, match=r"epoch \d+, batch \d+"):
                train_adapter(config, examples, FOUR_TEXTS, HashEmbedder(16))

    def test_triplet_weights_are_checked_although_the_hinge_reads_zero(self):
        # one batch per epoch: the first step's weight decay overflows, and
        # every later NaN hinge counts as inactive, so the loss alone reads 0.0
        config = TrainConfig(loss=LossKind.TRIPLET, epochs=3, learning_rate=1e300, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingError, match="non-finite.* after epoch 0, batch 0$"):
                train_adapter(config, TWO_TRIPLETS, FOUR_TEXTS, HashEmbedder(16))


def reference_train(config, examples, texts_by_id, base):
    """The dense d x d training loop, as `train_adapter` ran it before the
    in-place and representer-form steps: every step allocates its
    gradient, its clipped copy, lr * grad and lr * wd * weights.  Returns
    (weights, batch losses, gradient norm per step)."""
    triplet_mode = config.loss is LossKind.TRIPLET
    fields = ("anchor_id", "positive_id", "negative_id") if triplet_mode else ("a_id", "b_id")
    ids = sorted({getattr(e, f) for e in examples for f in fields})
    cache = dict(zip(ids, base.embed_many([texts_by_id[i] for i in ids])))
    sides = [np.stack([cache[getattr(e, f)] for e in examples]) for f in fields]
    labels = None if triplet_mode else np.array([e.label for e in examples], dtype=np.float64)
    weights = np.eye(base.dim, dtype=np.float64)
    rng = np.random.default_rng(config.seed)
    batch_losses, grad_norms = [], []
    for _ in range(config.epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(examples), config.batch_size):
            batch = order[start : start + config.batch_size]
            rows = [side[batch] for side in sides]
            if config.loss is LossKind.COSINE_SIMILARITY:
                loss, grad = cosine_similarity_loss(weights, *rows, labels[batch])
            elif config.loss is LossKind.COSINE_SENTENCE:
                loss, grad = cosine_sentence_loss(weights, *rows, labels[batch], scale=config.scale)
            else:
                loss, grad = triplet_loss(weights, *rows, margin=config.margin)
            grad_norms.append(float(np.linalg.norm(grad)))
            grad = clip_gradient(grad, config.max_grad_norm)
            weights -= config.learning_rate * grad
            weights -= config.learning_rate * config.weight_decay * weights
            batch_losses.append(loss)
    return weights, batch_losses, grad_norms


def two_family_corpus(questions=("q1", "q2", "q3"), reordered=False):
    """Questions with eight train answers each over two token families;
    `reordered` adds, per question, two more that repeat the words of an
    earlier one in reverse order, under another label."""
    from conftest import make_corpus
    from ragrade.corpus import Label

    rng = np.random.default_rng(5)
    families = (
        ["magnet", "coil", "flux", "winding", "field", "current"],
        ["enzyme", "protein", "substrate", "catalyst", "reaction", "vial"],
    )
    labels = [Label.CORRECT, Label.CONTRADICTORY, Label.IRRELEVANT]
    rows = []
    for q in questions:
        for i in range(8):
            label = labels[i % 3]
            words = rng.choice(families[label is Label.CORRECT], size=4)
            rows.append((f"{q}r{i}", q, "train", label, " ".join(words) + f" {q} n{i}"))
            if reordered and i in (1, 2):
                reverse = " ".join([f"n{i}", q, *words[::-1]])
                rows.append((f"{q}r{i}x", q, "train", labels[i - 1], reverse))
    return make_corpus({q: f"{q.upper()}?" for q in questions}, rows)


# per loss: a config whose steps clip some gradients and not others, and
# whose batches of two include single-label pair batches and triplet
# batches with no active hinge, so the zero-gradient paths run too
STEP_CONFIGS = {
    LossKind.COSINE_SIMILARITY: TrainConfig(
        loss=LossKind.COSINE_SIMILARITY, batch_size=2, learning_rate=0.3,
        weight_decay=1e-3, max_grad_norm=0.4, epochs=3, seed=4,
    ),
    LossKind.COSINE_SENTENCE: TrainConfig(
        loss=LossKind.COSINE_SENTENCE, batch_size=2, learning_rate=0.3,
        weight_decay=1e-3, max_grad_norm=0.8, epochs=3, seed=4, scale=2.0,
    ),
    LossKind.TRIPLET: TrainConfig(
        loss=LossKind.TRIPLET, batch_size=2, learning_rate=0.3,
        weight_decay=1e-3, max_grad_norm=0.7, margin=0.1, epochs=3, seed=4,
    ),
}
LOSS_IDS = [kind.value for kind in STEP_CONFIGS]

# The orthonormal-basis step and the dense step are the same descent in
# different floating-point orders: adapters agree to max |dW| <=
# WEIGHT_RTOL * max |W - I| + WEIGHT_ATOL, batch losses to LOSS_ATOL.
WEIGHT_RTOL, WEIGHT_ATOL, LOSS_ATOL = 1e-9, 1e-15, 1e-12


def distinct_texts(examples):
    fields = ("anchor_id", "positive_id", "negative_id") if isinstance(examples[0], Triplet) else ("a_id", "b_id")
    return len({getattr(e, f) for e in examples for f in fields})


class TestRepresenterStepMatchesReference:
    """Training in the span of the texts gives the weights and losses of the
    dense allocate-per-step loop in `reference_train`, to rounding."""

    @pytest.mark.parametrize("loss", list(STEP_CONFIGS), ids=LOSS_IDS)
    @pytest.mark.parametrize("learning_rate", [6e-6, 0.3])
    @pytest.mark.parametrize("scope", [Scope.QUESTION, Scope.GLOBAL], ids=["question", "global"])
    def test_weights_and_losses_match_to_rounding(self, loss, learning_rate, scope):
        corpus = two_family_corpus()
        texts = {r.id: r.text for r in corpus.split("train")}
        sets = build_training_sets(corpus, Scheme.THREE_WAY, Strategy.GENERAL, scope, seed=3)
        config = replace(STEP_CONFIGS[loss], learning_rate=learning_rate)
        d = 24
        base = HashEmbedder(d)
        results = train_for_corpus(config, corpus, sets, base)
        if scope is Scope.GLOBAL:
            merged = sets.merged_triplets() if loss is LossKind.TRIPLET else sets.merged_pairs()
            jobs = {"global": (config, merged)}
        else:
            source = sets.triplet_sets if loss is LossKind.TRIPLET else sets.pair_sets
            jobs = {
                qid: (replace(config, seed=derive_seed(config.seed, qid, "train")), examples)
                for qid, examples in source.items()
            }
        assert list(results) == list(jobs)
        norms = []
        for key, (job_config, examples) in jobs.items():
            # questions train in the span of their texts, the global adapter in the identity's
            assert (distinct_texts(examples) < d) == (scope is Scope.QUESTION)
            weights, batch_losses, grad_norms = reference_train(job_config, examples, texts, base)
            drift = np.max(np.abs(weights - np.eye(d)))
            assert drift > 0.0
            error = np.max(np.abs(results[key].adapter.weights - weights))
            assert error <= WEIGHT_RTOL * drift + WEIGHT_ATOL
            assert len(results[key].batch_losses) == len(batch_losses)
            np.testing.assert_allclose(results[key].batch_losses, batch_losses, rtol=0, atol=LOSS_ATOL)
            norms += grad_norms
        assert any(n > config.max_grad_norm for n in norms)  # clipping active
        assert any(0.0 < n <= config.max_grad_norm for n in norms)  # and inactive
        if loss is not LossKind.COSINE_SIMILARITY:
            assert 0.0 in norms  # a single-label pair batch, or no active hinge

    @pytest.mark.parametrize("loss", list(STEP_CONFIGS), ids=LOSS_IDS)
    @pytest.mark.parametrize("learning_rate", [6e-6, 0.3])
    def test_rank_deficient_span_matches(self, loss, learning_rate):
        """Answers with the same words in another order embed to the same
        vector, so a question's texts span fewer dimensions than there are
        texts; a basis from their Gram matrix's Cholesky factor fails here."""
        corpus = two_family_corpus(("q1",), reordered=True)
        texts = {r.id: r.text for r in corpus.split("train")}
        sets = build_training_sets(corpus, Scheme.THREE_WAY, Strategy.GENERAL, Scope.QUESTION, seed=3)
        config = replace(STEP_CONFIGS[loss], learning_rate=learning_rate)
        examples = (sets.triplet_sets if loss is LossKind.TRIPLET else sets.pair_sets)["q1"]
        base = HashEmbedder(24)
        assert distinct_texts(examples) == len(texts) == 10
        assert np.linalg.matrix_rank(base.embed_many(list(texts.values()))) == 8
        result = train_adapter(config, examples, texts, base)
        weights, batch_losses, _ = reference_train(config, examples, texts, base)
        drift = np.max(np.abs(weights - np.eye(24)))
        assert drift > 0.0
        assert np.max(np.abs(result.adapter.weights - weights)) <= WEIGHT_RTOL * drift + WEIGHT_ATOL
        np.testing.assert_allclose(result.batch_losses, batch_losses, rtol=0, atol=LOSS_ATOL)

    @pytest.mark.parametrize("loss", list(STEP_CONFIGS), ids=LOSS_IDS)
    @pytest.mark.parametrize("learning_rate", [6e-6, 0.3])
    def test_global_scope_is_the_dense_loop_bitwise(self, loss, learning_rate):
        """With at least d texts the basis is the identity, and the steps are
        `reference_train`'s own."""
        corpus = two_family_corpus()
        texts = {r.id: r.text for r in corpus.split("train")}
        sets = build_training_sets(corpus, Scheme.THREE_WAY, Strategy.GENERAL, Scope.GLOBAL, seed=3)
        config = replace(STEP_CONFIGS[loss], learning_rate=learning_rate)
        examples = sets.merged_triplets() if loss is LossKind.TRIPLET else sets.merged_pairs()
        base = HashEmbedder(24)
        assert distinct_texts(examples) >= base.dim
        result = train_for_corpus(config, corpus, sets, base)["global"]
        weights, batch_losses, _ = reference_train(config, examples, texts, base)
        assert not np.array_equal(weights, np.eye(base.dim))
        assert np.array_equal(result.adapter.weights, weights)
        assert np.array_equal(result.batch_losses, batch_losses)

    @pytest.mark.parametrize("loss", list(STEP_CONFIGS), ids=LOSS_IDS)
    def test_every_step_calls_the_loss_by_name(self, loss, monkeypatch):
        """A wrapper installed on `ragrade.training` sees every step, as
        perfbench's tracer needs: question scope makes one call per step of
        the longest schedule, on the stack of the questions that still have
        a batch, so the stacks add up to every question's steps."""
        name = f"{loss.value}_loss"
        real = getattr(ragrade.training, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(ragrade.training, name, counting)
        corpus = two_family_corpus()
        sets = build_training_sets(corpus, Scheme.THREE_WAY, Strategy.GENERAL, Scope.QUESTION, seed=3)
        results = train_for_corpus(STEP_CONFIGS[loss], corpus, sets, HashEmbedder(24))
        steps = [len(r.batch_losses) for r in results.values()]
        assert sum(shape[0] for shape in calls) == sum(steps) > 0
        assert len(calls) == max(steps)
        assert all(len(shape) == 3 and shape[-1] < 24 for shape in calls)  # in each set's coordinates

    @pytest.mark.parametrize("n, d", [(1, 8), (7, 8), (8, 8), (9, 8), (36, 384), (384, 384), (500, 384)])
    def test_basis_is_orthonormal_below_the_dimension(self, n, d):
        emb = unit_rows(np.random.default_rng(n), n, d)
        basis, x = ragrade.training._coordinates(emb)
        if n < d:
            assert basis.shape == (d, n) and x.shape == (n, n)
            np.testing.assert_allclose(basis.T @ basis, np.eye(n), rtol=0, atol=1e-14)
            np.testing.assert_allclose(x @ x.T, emb @ emb.T, rtol=0, atol=1e-14)
            np.testing.assert_allclose(x @ basis.T, emb, rtol=0, atol=1e-14)
        else:
            assert basis is None and x is emb  # the identity basis

    @pytest.mark.parametrize("loss", list(STEP_CONFIGS), ids=LOSS_IDS)
    def test_weights_outside_the_span_only_decay(self, loss):
        """For v orthogonal to the texts, W v = a v with a = (1 - lr*wd)^steps."""
        corpus = two_family_corpus(("q1",))
        texts = {r.id: r.text for r in corpus.split("train")}
        sets = build_training_sets(corpus, Scheme.THREE_WAY, Strategy.GENERAL, Scope.QUESTION, seed=3)
        examples = (sets.triplet_sets if loss is LossKind.TRIPLET else sets.pair_sets)["q1"]
        config = STEP_CONFIGS[loss]
        d = 24
        base = HashEmbedder(d)
        result = train_adapter(config, examples, texts, base)
        emb = base.embed_many(sorted(texts.values()))
        v = np.random.default_rng(0).normal(size=(d, 5))
        v -= emb.T @ np.linalg.lstsq(emb.T, v, rcond=None)[0]  # the part orthogonal to the texts
        assert np.max(np.abs(emb @ v)) < 1e-12 and np.min(np.linalg.norm(v, axis=0)) > 0.1
        a = (1 - config.learning_rate * config.weight_decay) ** len(result.batch_losses)
        assert a < 1.0
        np.testing.assert_allclose(result.adapter.weights @ v, a * v, rtol=0, atol=1e-13)


def unequal_corpus(sizes):
    """Questions with the given numbers of train answers over two token
    families, labels cycling through three categories."""
    from conftest import make_corpus
    from ragrade.corpus import Label

    rng = np.random.default_rng(11)
    families = (
        ["magnet", "coil", "flux", "winding", "field", "current"],
        ["enzyme", "protein", "substrate", "catalyst", "reaction", "vial"],
    )
    labels = [Label.CORRECT, Label.CONTRADICTORY, Label.IRRELEVANT]
    rows = []
    for q, n in sizes.items():
        for i in range(n):
            label = labels[i % 3]
            words = rng.choice(families[label is Label.CORRECT], size=4)
            rows.append((f"{q}r{i}", q, "train", label, " ".join(words) + f" {q} n{i}"))
    return make_corpus({q: f"{q.upper()}?" for q in sizes}, rows)


class TestLockstepStack:
    """Questions of different sizes step together: each is the dense loop's
    descent to rounding, and the same inside the stack as alone."""

    SIZES = {"q1": 5, "q2": 13, "q3": 8}

    @pytest.mark.parametrize("loss", list(STEP_CONFIGS), ids=LOSS_IDS)
    @pytest.mark.parametrize("learning_rate", [6e-6, 0.3])
    def test_unequal_questions_match_reference_and_alone(self, loss, learning_rate):
        corpus = unequal_corpus(self.SIZES)
        texts = {r.id: r.text for r in corpus.split("train")}
        sets = build_training_sets(corpus, Scheme.THREE_WAY, Strategy.GENERAL, Scope.QUESTION, seed=3)
        source = sets.triplet_sets if loss is LossKind.TRIPLET else sets.pair_sets
        config = replace(STEP_CONFIGS[loss], learning_rate=learning_rate, batch_size=3)
        d = 24
        base = HashEmbedder(d)
        results = train_for_corpus(config, corpus, sets, base)
        assert list(results) == list(self.SIZES)
        # spans, schedules and short final batches all differ
        assert len({distinct_texts(source[q]) for q in self.SIZES}) == 3
        assert len({len(r.batch_losses) for r in results.values()}) == 3
        assert any(len(source[q]) % config.batch_size for q in self.SIZES)
        for qid, result in results.items():
            qconfig = replace(config, seed=derive_seed(config.seed, qid, "train"))
            weights, batch_losses, _ = reference_train(qconfig, source[qid], texts, base)
            drift = np.max(np.abs(weights - np.eye(d)))
            assert drift > 0.0
            assert np.max(np.abs(result.adapter.weights - weights)) <= WEIGHT_RTOL * drift + WEIGHT_ATOL
            assert len(result.batch_losses) == len(batch_losses)
            np.testing.assert_allclose(result.batch_losses, batch_losses, rtol=0, atol=LOSS_ATOL)
            alone_sets = replace(sets, pair_sets={qid: sets.pair_sets[qid]}, triplet_sets={qid: sets.triplet_sets[qid]})
            for alone in (
                train_for_corpus(config, corpus, alone_sets, base)[qid],
                train_adapter(qconfig, source[qid], texts, base),
            ):
                assert np.max(np.abs(result.adapter.weights - alone.adapter.weights)) <= WEIGHT_RTOL * drift + WEIGHT_ATOL
                np.testing.assert_allclose(result.batch_losses, alone.batch_losses, rtol=0, atol=LOSS_ATOL)
                np.testing.assert_allclose(result.epoch_means, alone.epoch_means, rtol=0, atol=LOSS_ATOL)
                assert result.adapter.trained_on == alone.adapter.trained_on

    def test_questions_stack_by_power_of_two_span(self, monkeypatch):
        """Spans 5 and 8 share a stack, 13 stacks alone, and a question of
        at least d texts, whose basis is the identity, pads no other to d:
        each stack makes one call per step of its longest schedule, padded
        to its largest span."""
        sizes = {"q1": 5, "q2": 13, "q3": 8, "q4": 30}
        corpus = unequal_corpus(sizes)
        texts = {r.id: r.text for r in corpus.split("train")}
        sets = build_training_sets(corpus, Scheme.THREE_WAY, Strategy.GENERAL, Scope.QUESTION, seed=3)
        config = replace(STEP_CONFIGS[LossKind.COSINE_SENTENCE], batch_size=3)
        d = 24
        spans = {q: min(distinct_texts(sets.pair_sets[q]), d) for q in sizes}
        assert spans == {"q1": 5, "q2": 13, "q3": 8, "q4": d}
        calls = []
        real = ragrade.training.cosine_sentence_loss

        def counting(weights, *args, **kwargs):
            calls.append(weights.shape[-1])
            return real(weights, *args, **kwargs)

        monkeypatch.setattr(ragrade.training, "cosine_sentence_loss", counting)
        base = HashEmbedder(d)
        results = train_for_corpus(config, corpus, sets, base)
        steps = {q: len(r.batch_losses) for q, r in results.items()}
        assert Counter(calls) == {
            8: max(steps["q1"], steps["q3"]), 13: steps["q2"], d: steps["q4"]
        }
        qconfig = replace(config, seed=derive_seed(config.seed, "q4", "train"))
        weights, batch_losses, _ = reference_train(qconfig, sets.pair_sets["q4"], texts, base)
        drift = np.max(np.abs(weights - np.eye(d)))
        assert np.max(np.abs(results["q4"].adapter.weights - weights)) <= WEIGHT_RTOL * drift + WEIGHT_ATOL
        np.testing.assert_allclose(results["q4"].batch_losses, batch_losses, rtol=0, atol=LOSS_ATOL)

    @pytest.mark.parametrize(
        "loss, lr",
        [(LossKind.COSINE_SENTENCE, 1e200), (LossKind.COSINE_SIMILARITY, 1e300), (LossKind.TRIPLET, 1e300)],
        ids=["cosine_sentence", "cosine_similarity", "triplet"],
    )
    @pytest.mark.parametrize("epochs", [1, 2, 5])
    @pytest.mark.parametrize("first", ["q1", "q2"])
    def test_each_question_fails_where_it_fails_alone(self, loss, lr, epochs, first):
        """Diverging questions of different sizes stop at the step, and with
        the message, of the one-set loop; the first in question order is raised."""
        from conftest import make_corpus
        from ragrade.corpus import Label

        texts = {**FOUR_TEXTS, **{f"c{k}": f"{v} extra" for k, v in FOUR_TEXTS.items()}}
        corpus = make_corpus(
            {"q1": "Q1?", "q2": "Q2?"},
            [(rid, "q2" if rid.startswith("c") else "q1", "train", Label.CORRECT, text) for rid, text in texts.items()],
        )
        renamed = lambda e, **kw: replace(e, question_id="q2", **{f: "c" + getattr(e, f) for f in kw})
        if loss is LossKind.TRIPLET:
            q2 = [renamed(t, anchor_id=1, positive_id=1, negative_id=1) for t in TWO_TRIPLETS + TWO_TRIPLETS[:1]]
            source = {"q1": TWO_TRIPLETS, "q2": q2}
        else:
            source = {"q1": FOUR_PAIRS, "q2": [renamed(p, a_id=1, b_id=1) for p in FOUR_PAIRS[:3]]}
        source = {q: source[q] for q in (first, *({"q1", "q2"} - {first}))}
        pair_sets, triplet_sets = ({}, source) if loss is LossKind.TRIPLET else (source, {})
        sets = TrainingSets(Scheme.THREE_WAY, Strategy.GENERAL, Scope.QUESTION, 0, pair_sets, triplet_sets)
        config = TrainConfig(loss=loss, epochs=epochs, learning_rate=lr, batch_size=2, seed=0)
        base = HashEmbedder(16)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingError) as alone:
                train_adapter(replace(config, seed=derive_seed(0, first, "train")), source[first], texts, base)
            with pytest.raises(TrainingError) as together:
                train_for_corpus(config, corpus, sets, base)
        assert re.search(r"epoch \d+, batch \d+$", str(alone.value))
        assert str(together.value) == f"question {first!r}: {alone.value}"

    def test_a_non_finite_loss_names_its_question_and_step(self, monkeypatch):
        """Labels that rank every negative pair above every positive one make
        exp(scale * (cos_neg - cos_pos)) overflow: q2 fails at its first step
        while q1 trains on, and q2's error is the one-set loop's."""
        from conftest import make_corpus
        from ragrade.corpus import Label

        texts = {**FOUR_TEXTS, **{f"c{k}": f"{v} extra" for k, v in FOUR_TEXTS.items()}}
        corpus = make_corpus(
            {"q1": "Q1?", "q2": "Q2?"},
            [(rid, "q2" if rid.startswith("c") else "q1", "train", Label.CORRECT, text) for rid, text in texts.items()],
        )
        flipped = [Pair(a_id="c" + p.a_id, b_id="c" + p.b_id, question_id="q2", label=1 - p.label) for p in FOUR_PAIRS]
        sets = TrainingSets(
            Scheme.THREE_WAY, Strategy.GENERAL, Scope.QUESTION, 0, {"q1": FOUR_PAIRS, "q2": flipped}, {}
        )
        config = TrainConfig(loss=LossKind.COSINE_SENTENCE, epochs=2, learning_rate=0.1, batch_size=4, scale=1e308)
        base = HashEmbedder(16)
        qconfig = replace(config, seed=derive_seed(0, "q2", "train"))
        with pytest.raises(TrainingError, match="^non-finite loss inf at epoch 0, batch 0$") as alone:
            train_adapter(qconfig, flipped, texts, base)
        stacks = []
        real = ragrade.training.cosine_sentence_loss

        def counting(weights, *args, **kwargs):
            stacks.append(len(weights))
            return real(weights, *args, **kwargs)

        monkeypatch.setattr(ragrade.training, "cosine_sentence_loss", counting)
        with pytest.raises(TrainingError) as together:
            train_for_corpus(config, corpus, sets, base)
        assert str(together.value) == f"question 'q2': {alone.value}"
        assert stacks == [2, 1, 1]  # q2 is dropped at its first step, q1 takes both of its own

    @pytest.mark.parametrize("loss", list(STEP_CONFIGS), ids=LOSS_IDS)
    def test_masked_rows_add_exactly_nothing(self, loss):
        """A stacked call equals each batch's own call to rounding; masked
        rows, zero or not, change no bit of the losses or gradients and are
        never normalized."""
        rng = np.random.default_rng(4)
        sides = 3 if loss is LossKind.TRIPLET else 2
        call = {
            LossKind.COSINE_SIMILARITY: lambda w, b, y, m=None: cosine_similarity_loss(w, *b, y, mask=m),
            LossKind.COSINE_SENTENCE: lambda w, b, y, m=None: cosine_sentence_loss(w, *b, y, scale=2.0, mask=m),
            LossKind.TRIPLET: lambda w, b, y, m=None: triplet_loss(w, *b, margin=0.5, mask=m),
        }[loss]
        dim, bs = 9, 6
        sizes = [(9, 6), (5, 2), (7, 4), (3, 1)]  # (span, valid rows) per batch
        weights = np.tile(np.eye(dim), (len(sizes), 1, 1))
        batches = np.zeros((sides, len(sizes), bs, dim))
        labels = np.zeros((len(sizes), bs))
        mask = np.zeros((len(sizes), bs), dtype=bool)
        for q, (m, n) in enumerate(sizes):
            weights[q, :m, :m] += rng.normal(scale=0.3, size=(m, m))
            batches[:, q, :n, :m] = rng.normal(size=(sides, n, m))
            labels[q, :n] = np.arange(n) % 2
            mask[q, :n] = True
        losses, grads = call(weights, batches, labels, mask)
        assert losses.shape == (len(sizes),) and grads.shape == weights.shape
        for q, (m, n) in enumerate(sizes):
            loss_q, grad_q = call(weights[q, :m, :m], batches[:, q, :n, :m], labels[q, :n])
            assert abs(losses[q] - loss_q) <= 1e-12
            np.testing.assert_allclose(grads[q, :m, :m], grad_q, rtol=0, atol=1e-12)
            assert not grads[q, m:].any() and not grads[q, :, m:].any()
        noisy = batches.copy()
        noisy[:, ~mask] = rng.normal(size=(sides, int((~mask).sum()), dim))
        noisy_losses, noisy_grads = call(weights, noisy, labels, mask)
        assert np.array_equal(noisy_losses, losses) and np.array_equal(noisy_grads, grads)

    @np.errstate(over="ignore", invalid="ignore")  # as in training
    def test_a_batch_without_both_labels_is_not_normalized(self):
        """As in the plain call, a stacked cosine_sentence batch with one
        label adds exactly nothing, even when one of its rows projects to
        zero or its matrix has diverged."""
        rng = np.random.default_rng(5)
        weights = np.tile(np.eye(4), (3, 1, 1))
        weights[2] *= 1e300  # squared norms overflow
        batches = rng.normal(size=(2, 3, 3, 4))
        batches[0, 1, 0] = 0.0
        labels = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        mask = np.ones((3, 3), dtype=bool)
        losses, grads = cosine_sentence_loss(weights, *batches, labels, mask=mask)
        assert np.array_equal(losses[1:], [0.0, 0.0]) and not grads[1:].any()
        for q in (1, 2):
            assert cosine_sentence_loss(weights[q], *batches[:, q], labels[q])[0] == 0.0
        loss_0, grad_0 = cosine_sentence_loss(weights[0], *batches[:, 0], labels[0])
        assert abs(losses[0] - loss_0) <= 1e-12
        with pytest.raises(FloatingPointError) as info:  # batch 1's zero row is normalized now
            cosine_sentence_loss(weights, *batches, labels[[1, 0, 2]], mask=mask)
        assert info.value.batches.tolist() == [1]

    def test_clip_gradient_clips_each_matrix_of_a_stack(self):
        grads = np.stack([np.full((3, 3), 1.0), np.full((3, 3), 0.1), np.zeros((3, 3))])
        clipped = clip_gradient(grads, 1.5)
        for got, grad in zip(clipped, grads):
            np.testing.assert_allclose(got, clip_gradient(grad, 1.5), rtol=1e-15, atol=0)
        assert np.array_equal(clipped[1:], grads[1:])


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

    def test_question_scope_error_names_the_question(self):
        corpus = self.corpus()
        sets = build_training_sets(corpus, Scheme.TWO_WAY, Strategy.GENERAL, Scope.QUESTION, seed=2)
        config = TrainConfig(loss=LossKind.TRIPLET, epochs=2, learning_rate=1e300, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingError, match=r"question 'q1'.*epoch \d+, batch \d+"):
                train_for_corpus(config, corpus, sets, HashEmbedder(32))


FIVE_QUESTIONS = ("q1", "q2", "q3", "q4", "q5")


class TestInlineTraining:
    """Question-scope training runs on the calling thread and raises the
    first failing question in question order."""

    def test_first_error_in_question_order(self):
        """q2 and q4 each hold a text that embeds to the zero vector.  q4
        fails at its first step and q2 some tens of steps in; the error
        raised is q2's."""
        from conftest import make_corpus
        from ragrade.corpus import Label

        class ZeroForPoison(HashEmbedder):
            def embed(self, text):
                return np.zeros(self.dim) if "poison" in text else super().embed(text)

            def embed_many(self, texts, question_id=None):
                vectors = super().embed_many(texts, question_id)
                vectors[["poison" in text for text in texts]] = 0.0
                return vectors

        sizes = {"q1": 2, "q2": 16, "q3": 2, "q4": 1}
        texts = {f"{q}t{i}": f"answer {i} about {q} field coil" for q, n in sizes.items() for i in range(n)}
        texts["q2bad"] = texts["q4bad"] = "poison"
        corpus = make_corpus(
            {q: f"{q}?" for q in sizes},
            [(rid, rid[:2], "train", Label.CORRECT, text) for rid, text in texts.items()],
        )
        pair_sets = {
            q: [
                Pair(a_id=f"{q}t{i}", b_id=f"{q}t{j}", question_id=q, label=(i + j) % 2)
                for i in range(n) for j in range(i + 1, n)
            ]
            for q, n in sizes.items()
        }
        pair_sets["q2"].append(Pair(a_id="q2t0", b_id="q2bad", question_id="q2", label=0))
        pair_sets["q4"] = [Pair(a_id="q4t0", b_id="q4bad", question_id="q4", label=0)]
        sets = TrainingSets(Scheme.THREE_WAY, Strategy.GENERAL, Scope.QUESTION, 0, pair_sets, {})
        config = TrainConfig(loss=LossKind.COSINE_SIMILARITY, batch_size=2, learning_rate=0.1, epochs=2)
        with pytest.raises(TrainingError) as info:
            train_for_corpus(config, corpus, sets, ZeroForPoison(16))
        message = str(info.value)
        assert message.startswith("question 'q2': adapter projected a batch row to a zero")
        failed_at = int(re.search(r"after epoch 0, batch (\d+)$", message).group(1))
        assert failed_at >= 20

    def test_each_text_embedded_once_on_the_calling_thread(self):
        class Spy(HashEmbedder):
            def __init__(self, dim):
                super().__init__(dim)
                self.calls = []

            def embed(self, text):
                self.calls.append((text, threading.get_ident()))
                return super().embed(text)

            def embed_many(self, texts, question_id=None):
                self.calls += [(text, threading.get_ident()) for text in texts]
                return super().embed_many(texts, question_id)

        corpus = two_family_corpus(FIVE_QUESTIONS)
        sets = build_training_sets(corpus, Scheme.THREE_WAY, Strategy.GENERAL, Scope.QUESTION, seed=3)
        spy = Spy(24)
        train_for_corpus(STEP_CONFIGS[LossKind.COSINE_SENTENCE], corpus, sets, spy)
        texts = {r.id: r.text for r in corpus.split("train")}
        wanted = {texts[i] for pairs in sets.pair_sets.values() for p in pairs for i in (p.a_id, p.b_id)}
        embedded = Counter(text for text, _ in spy.calls)
        assert set(embedded) == wanted
        assert set(embedded.values()) == {1}
        assert {ident for _, ident in spy.calls} == {threading.get_ident()}


class TestFactoredQuestionAdapters:
    """Question adapters stay factored, and training on pairs builds no triplet set."""

    def test_peak_memory_at_scientsbank_scale(self):
        """135 questions of 36 distinct answers at d = 384: dense adapters
        alone would take 152 MiB."""
        import tracemalloc

        from conftest import make_corpus
        from ragrade.corpus import Label

        rng = np.random.default_rng(5)
        labels = list(Label)
        drawn = rng.choice(len(labels), size=135 * 36, p=[0.40, 0.27, 0.11, 0.21, 0.01])
        rows = [(f"r{k:04d}", f"q{k // 36:03d}", "train", labels[i]) for k, i in enumerate(drawn)]
        corpus = make_corpus({f"q{q:03d}": f"question {q}" for q in range(135)}, rows)
        sets = build_training_sets(corpus, Scheme.THREE_WAY, Strategy.GENERAL, Scope.QUESTION, seed=0)
        base = HashEmbedder(384)
        base.embed_many([r.text for r in corpus.split("train")])  # the memo is not training's
        tracemalloc.start()
        try:
            results = train_for_corpus(TrainConfig(), corpus, sets, base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == 135
        assert all(r.adapter.basis is not None and r.adapter.core.shape == (36, 36) for r in results.values())
        assert peak < 40 * 2**20

    @pytest.mark.parametrize("loss", [LossKind.COSINE_SENTENCE, LossKind.COSINE_SIMILARITY, LossKind.TRIPLET])
    @pytest.mark.parametrize("scope", [Scope.QUESTION, Scope.GLOBAL])
    def test_triplet_sets_are_built_only_for_the_triplet_loss(self, monkeypatch, loss, scope):
        import ragrade.pairs

        built, original = [], ragrade.pairs.build_triplets

        def counting(responses, *args):
            built.append(responses)
            return original(responses, *args)

        monkeypatch.setattr(ragrade.pairs, "build_triplets", counting)
        corpus = two_family_corpus()
        sets = build_training_sets(corpus, Scheme.THREE_WAY, Strategy.GENERAL, scope, seed=3)
        assert built == []
        train_for_corpus(STEP_CONFIGS[loss], corpus, sets, HashEmbedder(24))
        assert len(built) == (3 if loss is LossKind.TRIPLET else 0)
        sets.manifest()
        sets.manifest()
        assert len(built) == 3  # each question's set once, when first read

    def test_lazy_triplet_sets_equal_eager_ones(self):
        from ragrade.pairs import build_triplets

        corpus = two_family_corpus()
        sets = build_training_sets(corpus, Scheme.THREE_WAY, Strategy.GENERAL, Scope.QUESTION, seed=3)
        eager = {
            qid: build_triplets(responses, Scheme.THREE_WAY, derive_seed(3, qid, "triplets"))
            for qid, responses in corpus.by_question("train").items()
        }
        assert sets.triplet_sets["q3"] == eager["q3"]  # read out of order: the same seed
        assert list(sets.triplet_sets) == list(eager)
        assert dict(sets.triplet_sets) == eager and len(sets.triplet_sets) == 3
        with pytest.raises(KeyError):
            sets.triplet_sets["q9"]
        with pytest.raises(TypeError):
            sets.triplet_sets["q9"] = []

    def test_sets_of_at_least_d_texts_train_a_dense_adapter(self):
        corpus = two_family_corpus()
        sets = build_training_sets(corpus, Scheme.THREE_WAY, Strategy.GENERAL, Scope.GLOBAL, seed=3)
        config = STEP_CONFIGS[LossKind.COSINE_SENTENCE]
        (result,) = train_for_corpus(config, corpus, sets, HashEmbedder(4)).values()
        assert result.adapter.basis is None and result.adapter.a == 0.0
        assert result.adapter.weights is result.adapter.core
