"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each criterion prints a PASS/FAIL/SKIP line in the terminal summary (see
conftest).  Expected values come from independent oracles implemented
here: brute-force metric loops, elementwise central finite differences,
full-sort retrieval, hand enumeration, and a standalone 1-NN classifier.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import ACCEPTANCE_RESULTS, make_corpus
from ragrade.corpus import (
    Corpus,
    Label,
    Question,
    Response,
    Scheme,
    collapse_label,
    parse_jsonl,
    parse_semeval_xml,
)
from ragrade.embedding import AdaptedEmbedder, HashEmbedder
from ragrade.glm import ScriptedBackend
from ragrade.harness import ExperimentConfig, Grader, rag_fraction_experiment, run_scenario
from ragrade.losses import (
    LossKind,
    cosine_sentence_loss,
    cosine_similarity_loss,
    triplet_loss,
)
from ragrade.metrics import ConfusionMatrix, accuracy, macro_f1, weighted_f1
from ragrade.optimize import OptimizerConfig, PromptEvaluator, optimize
from ragrade.pairs import (
    Pair,
    Scope,
    Strategy,
    balance,
    build_training_sets,
    build_triplets,
    enumerate_pairs,
    label_pairs,
)
from ragrade.prompts import PromptBindings, available_templates, load_template, render
from ragrade.training import TrainConfig, train_adapter
from ragrade.vstore import Entry, RetrievalConfig, VectorStore, build_store, top_k

DATASET_ENV = "RAGRADE_SEMEVAL_ROOT"


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        ACCEPTANCE_RESULTS.append((name, "FAIL"))
        raise
    ACCEPTANCE_RESULTS.append((name, "PASS"))


# -----------------------------------------------------------------------
# 1. Metric oracle equivalence
# -----------------------------------------------------------------------


def brute_force_metrics(gold, predicted):
    labels = sorted(set(gold) | set(predicted))
    f1s = {}
    for label in labels:
        tp = sum(1 for g, p in zip(gold, predicted) if g == label and p == label)
        fp = sum(1 for g, p in zip(gold, predicted) if g != label and p == label)
        fn = sum(1 for g, p in zip(gold, predicted) if g == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s[label] = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    acc = sum(1 for g, p in zip(gold, predicted) if g == p) / len(gold)
    m_f1 = sum(f1s.values()) / len(labels)
    w_f1 = sum(f1s[label] * gold.count(label) / len(gold) for label in labels)
    return acc, m_f1, w_f1


def test_criterion_1_metric_oracle_equivalence():
    with criterion("1 metric oracle equivalence (1000 random matrices, 1e-9)"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 1000:
            n_classes = int(rng.choice([2, 3, 5]))
            labels = [f"c{i}" for i in range(n_classes)]
            size = int(rng.integers(1, 80))
            gold = [labels[i] for i in rng.integers(n_classes, size=size)]
            predicted = [labels[i] for i in rng.integers(n_classes, size=size)]
            cm = ConfusionMatrix.from_pairs(gold, predicted)
            acc, m_f1, w_f1 = brute_force_metrics(gold, predicted)
            assert abs(accuracy(cm) - acc) < 1e-9
            assert abs(macro_f1(cm) - m_f1) < 1e-9
            assert abs(weighted_f1(cm) - w_f1) < 1e-9
            checked += 1
        # worked 3-sample example: gold AAB, predicted ABB
        cm = ConfusionMatrix.from_pairs(["A", "A", "B"], ["A", "B", "B"])
        for metric in (accuracy, macro_f1, weighted_f1):
            assert abs(metric(cm) - 2 / 3) < 1e-9
        assert time.perf_counter() - start < 5.0


# -----------------------------------------------------------------------
# 2. Gradient correctness
# -----------------------------------------------------------------------


def _project(weights, base):
    """(projected, norms, unit) for rows of base through W; projected[i] = W @ base[i]."""
    projected = base @ weights.T
    norms = np.linalg.norm(projected, axis=-1)
    return projected, norms, projected / norms[..., None]


def elementwise_fd(fn, weights, h=1e-5):
    grad = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            plus = weights.copy()
            plus[i, j] += h
            minus = weights.copy()
            minus[i, j] -= h
            grad[i, j] = (fn(plus) - fn(minus)) / (2 * h)
    return grad


def test_criterion_2_gradient_correctness():
    with criterion("2 analytic gradients vs central differences (<1e-4 rel)"):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        d, batch = 6, 8

        def unit(n):
            m = rng.normal(size=(n, d))
            return m / np.linalg.norm(m, axis=1, keepdims=True)

        def check(analytic, fn, weights):
            numeric = elementwise_fd(fn, weights)
            denom = max(np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom < 1e-4

        for _ in range(100):
            weights = np.eye(d) + 0.4 * rng.normal(size=(d, d))
            a, b = unit(batch), unit(batch)
            labels = rng.integers(0, 2, size=batch).astype(float)
            _, grad = cosine_similarity_loss(weights, a, b, labels)
            check(grad, lambda w: cosine_similarity_loss(w, a, b, labels)[0], weights)

        for _ in range(100):
            weights = np.eye(d) + 0.4 * rng.normal(size=(d, d))
            a, b = unit(batch), unit(batch)
            labels = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=float)
            scale = float(rng.uniform(0.5, 2.5))
            _, grad = cosine_sentence_loss(weights, a, b, labels, scale=scale)
            check(grad, lambda w: cosine_sentence_loss(w, a, b, labels, scale=scale)[0], weights)

        checked = 0
        while checked < 100:
            weights = np.eye(d) + 0.4 * rng.normal(size=(d, d))
            a, p, n = unit(batch), unit(batch), unit(batch)
            margin = float(rng.uniform(0.2, 1.2))
            _, _, ua = _project(weights, a)
            _, _, up = _project(weights, p)
            _, _, un = _project(weights, n)
            hinge = (
                np.linalg.norm(ua - up, axis=1) - np.linalg.norm(ua - un, axis=1) + margin
            )
            if np.any(np.abs(hinge) < 1e-3):  # exclude hinge kinks
                continue
            _, grad = triplet_loss(weights, a, p, n, margin=margin)
            check(grad, lambda w: triplet_loss(w, a, p, n, margin=margin)[0], weights)
            checked += 1

        assert time.perf_counter() - start < 30.0


# -----------------------------------------------------------------------
# 3. Retrieval exactness
# -----------------------------------------------------------------------


def test_criterion_3_retrieval_exactness():
    with criterion("3 exact top-k vs full-sort oracle (10k x 100 x k=25)"):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        dim, n, k = 32, 10_000, 25
        vectors = rng.normal(size=(n, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        vectors[6000:6100] = vectors[:100]  # planted duplicates force ties
        entries = [Entry(metadata={"response_text": "t", "judgment": "correct"}) for _ in range(n)]
        store = VectorStore(dim=dim, embedder_id="fixed", vectors=vectors, entries=entries)
        matrix = store.vectors.astype(np.float64)

        queries = [rng.normal(size=dim) for _ in range(90)]
        # ten queries equal to duplicated entries, so ties reach the top
        queries += [vectors[i].astype(np.float64) for i in range(0, 100, 10)]

        class OneShot:
            dim_ = dim

            def __init__(self, vec):
                self.vec = vec
                self.dim = dim
                self.embedder_id = "fixed"

            def embed_many(self, texts, question_id=None):
                return np.array([self.vec for _ in texts])

        position = {id(e): i for i, e in enumerate(store.entries)}
        for q in queries:
            got = top_k(store, "q", OneShot(q), RetrievalConfig(k=k))
            unit_q = np.asarray(q, dtype=np.float64)
            unit_q = unit_q / np.linalg.norm(unit_q)
            scores = matrix @ unit_q
            expected = sorted(range(n), key=lambda i: (-scores[i], i))[:k]
            assert [position[id(e)] for e, _ in got] == expected
            assert [s for _, s in got] == [float(scores[i]) for i in expected]

        assert time.perf_counter() - start < 10.0


# -----------------------------------------------------------------------
# 4. Pair-mining correctness
# -----------------------------------------------------------------------


def test_criterion_4_pair_mining_hand_oracle():
    with criterion("4 pair mining matches hand enumeration"):
        labels = [Label.CORRECT, Label.CORRECT, Label.CONTRADICTORY, Label.IRRELEVANT]
        responses = [
            Response(id=f"r{i}", question_id="q", text=f"text {i}", label=labels[i])
            for i in range(4)
        ]
        by_id = {r.id: r for r in responses}
        pairs = enumerate_pairs(responses)
        assert len(pairs) == 6  # C(4,2)
        assert {(p.a_id, p.b_id) for p in pairs} == {
            ("r0", "r1"), ("r0", "r2"), ("r0", "r3"),
            ("r1", "r2"), ("r1", "r3"), ("r2", "r3"),
        }

        # hand labels, 3-way: correct/contradictory/incorrect
        general = {
            (p.a_id, p.b_id): p.label
            for p in label_pairs(pairs, by_id, Scheme.THREE_WAY, Strategy.GENERAL)
        }
        assert general == {
            ("r0", "r1"): 1,  # correct + correct
            ("r0", "r2"): 0, ("r0", "r3"): 0,
            ("r1", "r2"): 0, ("r1", "r3"): 0,
            ("r2", "r3"): 0,  # contradictory + incorrect
        }
        strict = {
            (p.a_id, p.b_id): p.label
            for p in label_pairs(pairs, by_id, Scheme.THREE_WAY, Strategy.STRICT)
        }
        assert strict == general  # no non-privileged same-category pair here

        # strict vs general diverge on a contradictory pair
        cc = [
            Response(id="c1", question_id="q", text="x", label=Label.CONTRADICTORY),
            Response(id="c2", question_id="q", text="y", label=Label.CONTRADICTORY),
        ]
        cc_by_id = {r.id: r for r in cc}
        cc_pairs = enumerate_pairs(cc)
        assert label_pairs(cc_pairs, cc_by_id, Scheme.THREE_WAY, Strategy.GENERAL)[0].label == 1
        assert label_pairs(cc_pairs, cc_by_id, Scheme.THREE_WAY, Strategy.STRICT)[0].label == 0

        # balancing: 1 positive, 5 negatives -> 1 + 1 (all positives kept)
        labeled = label_pairs(pairs, by_id, Scheme.THREE_WAY, Strategy.GENERAL)
        balanced = balance(labeled, seed=0)
        assert sum(p.label for p in balanced) == 1
        assert sum(1 - p.label for p in balanced) == 1

        # triplets: 2 correct + 1 incorrect -> exactly two forced triplets
        trio = [
            Response(id="a", question_id="q", text="x", label=Label.CORRECT),
            Response(id="b", question_id="q", text="y", label=Label.CORRECT),
            Response(id="c", question_id="q", text="z", label=Label.IRRELEVANT),
        ]
        triplets = build_triplets(trio, Scheme.TWO_WAY, seed=0)
        assert sorted((t.anchor_id, t.positive_id, t.negative_id) for t in triplets) == [
            ("a", "b", "c"),
            ("b", "a", "c"),
        ]
        cat = {r.id: collapse_label(r.label, Scheme.TWO_WAY) for r in trio}
        for t in triplets:
            assert cat[t.anchor_id] == cat[t.positive_id]
            assert cat[t.anchor_id] != cat[t.negative_id]


# -----------------------------------------------------------------------
# 5. End-to-end oracle equivalence (mock backend == 1-NN)
# -----------------------------------------------------------------------


def independent_1nn(query_texts, query_qids, stored, embedder, scheme, same_question=None):
    """Standalone top-1 cosine classifier: numpy only, no store machinery.

    stored: list of (text, question_id, five_way_label) in entry order.
    Vectors are float32-quantized exactly like the store payload.
    """
    matrix = np.stack(
        [embedder.embed(text).astype(np.float32).astype(np.float64) for text, _, _ in stored]
    )
    out = []
    for text, qid in zip(query_texts, query_qids):
        if same_question:
            candidates = [i for i, (_, sq, _) in enumerate(stored) if sq == qid]
        else:
            candidates = list(range(len(stored)))
        q = embedder.embed(text)
        q = q / np.linalg.norm(q)
        scores = matrix[candidates] @ q
        best = min(range(len(candidates)), key=lambda i: (-scores[i], i))
        label = stored[candidates[best]][2]
        out.append(collapse_label(label, scheme))
    return out


def fixtures_for_equivalence():
    tiny = parse_jsonl(os.path.join(os.path.dirname(__file__), "fixtures", "tiny.jsonl"))
    mixed = make_corpus(
        {"q1": "Q1?", "q2": "Q2?"},
        [
            ("t1", "q1", "train", Label.CORRECT, "electrons circle the closed loop"),
            ("t2", "q1", "train", Label.CONTRADICTORY, "the loop must stay open"),
            ("t3", "q1", "train", Label.IRRELEVANT, "copper mines run deep"),
            ("t4", "q2", "train", Label.CORRECT, "plants breathe in carbon dioxide"),
            ("t5", "q2", "train", Label.NON_DOMAIN, "ask someone else please"),
            ("u1", "q1", "ua", Label.CORRECT, "electrons travel the closed loop"),
            ("u2", "q1", "ua", Label.CONTRADICTORY, "the loop has to stay open"),
            ("u3", "q2", "ua", Label.PC_INCOMPLETE, "plants breathe something in"),
            ("u4", "q2", "ua", Label.IRRELEVANT, "mushrooms are not plants at all"),
        ],
        references={"q1": ["closed loop"], "q2": ["carbon dioxide"]},
    )
    return [("tiny", tiny), ("mixed", mixed)]


def test_criterion_5_end_to_end_oracle_equivalence():
    with criterion("5 mock pipeline == independent 1-NN classifier"):
        dim = 64
        for name, corpus in fixtures_for_equivalence():
            for scheme in (Scheme.THREE_WAY, Scheme.TWO_WAY, Scheme.FIVE_WAY):
                config = ExperimentConfig(scheme=scheme, seeds=(1,), k=4, embed_dim=dim)
                report = run_scenario(corpus, "ua", config)
                embedder = HashEmbedder(dim)
                stored = [
                    (r.text, r.question_id, r.label) for r in corpus.split("train")
                ]
                queries = list(corpus.split("ua"))
                expected = independent_1nn(
                    [r.text for r in queries],
                    [r.question_id for r in queries],
                    stored,
                    embedder,
                    scheme,
                    same_question=True,
                )
                assert report.per_run[0]["predictions"] == expected, (name, scheme)

        # rag-fraction runs: corpus-wide candidates over train + moved entries
        rng = np.random.default_rng(0)
        rows = [("t0", "qt", "train", Label.CORRECT, "a train answer about momentum")]
        label_cycle = [Label.CORRECT, Label.CONTRADICTORY, Label.IRRELEVANT]
        for i in range(24):
            label = label_cycle[i % 3]
            words = " ".join(f"tok{int(rng.integers(40))}" for _ in range(6))
            rows.append((f"s{i:02d}", "qs", "uq", label, f"{words} item {i}"))
        corpus = make_corpus(
            {"qt": "T?", "qs": "S?"}, rows, references={"qt": ["r"], "qs": ["r"]}
        )
        for seed in (1, 2):
            config = ExperimentConfig(
                scheme=Scheme.THREE_WAY, seeds=(seed,), k=3, embed_dim=dim
            )
            report = rag_fraction_experiment(corpus, "uq", 0.4, config)
            run = report.per_run[0]
            by_id = {r.id: r for r in corpus.split("uq")}
            embedder = HashEmbedder(dim)
            stored = [(r.text, r.question_id, r.label) for r in corpus.split("train")]
            stored += [
                (by_id[rid].text, by_id[rid].question_id, by_id[rid].label)
                for rid in run["moved_ids"]
            ]
            held_out = [by_id[rid] for rid in run["response_ids"]]
            expected = independent_1nn(
                [r.text for r in held_out],
                [r.question_id for r in held_out],
                stored,
                embedder,
                Scheme.THREE_WAY,
                same_question=False,
            )
            assert run["predictions"] == expected


# -----------------------------------------------------------------------
# 6. Template fidelity
# -----------------------------------------------------------------------


def test_criterion_6_template_fidelity():
    with criterion("6 templates hash-match and render reversibly"):
        import hashlib

        from ragrade.prompts import _template_dir

        rows = available_templates()
        assert len(rows) == 8
        sentinels = {
            "QUESTION": "@@Q@@",
            "REFERENCE_ANSWER": "@@R@@",
            "EXAMPLES": "@@E@@",
            "NEW_ANSWER": "@@N@@",
        }
        for row in rows:
            body = (_template_dir() / row["path"]).read_text(encoding="utf-8")
            assert hashlib.sha256(body.encode("utf-8")).hexdigest() == row["sha256"]
            template = load_template(row["task"], row["scenario"], row["style"])
            rendered = render(
                template,
                PromptBindings(
                    new_answer=sentinels["NEW_ANSWER"],
                    question=sentinels["QUESTION"],
                    reference_answer=sentinels["REFERENCE_ANSWER"],
                    examples=sentinels["EXAMPLES"]
                    if row["scenario"] == "with_examples"
                    else None,
                ),
            )
            assert "{{" not in rendered
            recovered = rendered
            for key, sentinel in sentinels.items():
                recovered = recovered.replace(sentinel, "{{" + key + "}}")
            assert recovered == template.body


# -----------------------------------------------------------------------
# 7. Training efficacy
# -----------------------------------------------------------------------

CLUSTER_SIGNALS = {
    "a": ("flux", "coil", "magnet", "winding", "solenoid"),
    "b": ("enzyme", "protein", "substrate", "catalyst", "peptide"),
}
NOISE_POOL = [f"word{j:02d}" for j in range(40)]


def synthetic_two_cluster_corpus(n_train=20, n_eval=15, seed=0):
    """Signal word decides the cluster; eight shared noise words bury it.

    Under the raw hash embedding, ranking is noise-overlap driven; a
    linear map that amplifies the signal dimensions separates the
    clusters.
    """
    rng = np.random.default_rng(seed)

    def text(cluster):
        signals = CLUSTER_SIGNALS[cluster]
        sig = signals[rng.integers(len(signals))]
        noise = " ".join(rng.choice(NOISE_POOL, size=8, replace=False))
        return f"{sig} {noise}"

    train, eval_ = [], []
    for cluster, label in (("a", Label.CORRECT), ("b", Label.CONTRADICTORY)):
        for i in range(n_train):
            train.append(
                Response(id=f"t{cluster}{i}", question_id="q", text=text(cluster), label=label)
            )
        for i in range(n_eval):
            eval_.append(
                Response(id=f"e{cluster}{i}", question_id="q", text=text(cluster), label=label)
            )
    corpus = Corpus(
        name="synth",
        questions={"q": Question(id="q", text="Q?")},
        splits={"train": tuple(train), "ua": tuple(eval_)},
    )
    return corpus, train, eval_


def precision_at_5(embedder, train_rows, eval_rows):
    store = build_store(train_rows, embedder)
    total = 0.0
    for r in eval_rows:
        results = top_k(store, r.text, embedder, RetrievalConfig(k=5), question_id=r.question_id)
        hits = sum(
            1 for e, _ in results if e.metadata["response_id"][1] == r.id[1]
        )
        total += hits / 5
    return total / len(eval_rows)


def test_criterion_7_training_efficacy():
    with criterion("7 adapter training lifts retrieval precision@5 by >=20%"):
        start = time.perf_counter()
        corpus, train_rows, eval_rows = synthetic_two_cluster_corpus()
        base = HashEmbedder(96)
        texts = {r.id: r.text for r in train_rows}
        sets = build_training_sets(
            corpus, Scheme.TWO_WAY, Strategy.GENERAL, Scope.GLOBAL, seed=3
        )
        baseline = precision_at_5(base, train_rows, eval_rows)
        assert baseline < 1.0  # the raw embedding must be confusable

        plans = [
            (LossKind.COSINE_SIMILARITY, dict(learning_rate=2.0, epochs=30), sets.merged_pairs()),
            (LossKind.COSINE_SENTENCE, dict(learning_rate=1.0, epochs=30), sets.merged_pairs()),
            (LossKind.TRIPLET, dict(learning_rate=2.0, epochs=30, margin=3.0), sets.merged_triplets()),
        ]
        for loss, kwargs, examples in plans:
            config = TrainConfig(loss=loss, seed=5, **kwargs)
            result = train_adapter(config, examples, texts, base)
            assert result.epoch_means[-1] < result.epoch_means[0], loss
            trained = precision_at_5(AdaptedEmbedder(base, result.adapter), train_rows, eval_rows)
            assert trained >= 1.2 * baseline, (loss, baseline, trained)
        assert time.perf_counter() - start < 60.0


# -----------------------------------------------------------------------
# 8. Optimizer monotonicity
# -----------------------------------------------------------------------


def test_criterion_8_optimizer_monotonicity():
    with criterion("8 optimizer trace matches hand-simulated rank-and-retain"):
        draft = load_template("SB3", "without_examples", "cpg")
        gold = ["correct"] * 5 + ["incorrect"] * 5
        rows = [
            (f"d{i}", "q", "ua", Label.CORRECT if g == "correct" else Label.IRRELEVANT, f"dev answer {i}")
            for i, g in enumerate(gold)
        ]
        corpus = make_corpus({"q": "Q?"}, rows, references={"q": ["ref"]})

        def completions(hits):
            out = []
            for i, g in enumerate(gold):
                verdict = g if i < hits else ("incorrect" if g == "correct" else "correct")
                out.append(f"<judgment>{verdict}</judgment>")
            return out

        # draft scores 0.4; proposals score 0.5, 0.7, 0.6
        task = ScriptedBackend(
            completions(4) + completions(5) + completions(7) + completions(6)
        )
        evaluator = PromptEvaluator(
            corpus.split("ua"),
            Grader(corpus.questions, Scheme.THREE_WAY, draft, task),
            metric="accuracy",
        )
        bodies = [
            f"Variant {i}: {{{{QUESTION}}}} | {{{{REFERENCE_ANSWER}}}} | "
            f"{{{{NEW_ANSWER}}}} -> <judgment></judgment>"
            for i in range(3)
        ]
        critic = ScriptedBackend([f"<template>\n{b}\n</template>" for b in bodies])
        result = optimize(OptimizerConfig(steps=3, beam=1), draft, evaluator, critic)
        assert result.best_trace == pytest.approx([0.4, 0.5, 0.7, 0.7])
        assert all(
            a <= b + 1e-12 for a, b in zip(result.best_trace, result.best_trace[1:])
        )
        assert abs(result.best.score - 0.7) < 1e-12


# -----------------------------------------------------------------------
# 9. Dataset-conditional label counts
# -----------------------------------------------------------------------

PUBLISHED_COUNTS = {
    # corpus subdir hint -> split -> canonical label -> count
    "beetle": {"train": {"correct": 1665, "partially correct but incomplete": 919,
                         "contradictory": 1049, "irrelevant": 113, "non-domain": 195}},
    "scientsbank": {
        "train": {"correct": 2008, "partially correct but incomplete": 1324,
                  "contradictory": 499, "irrelevant": 1115, "non-domain": 23},
        "ua": {"correct": 233, "partially correct but incomplete": 113,
               "contradictory": 58, "irrelevant": 133, "non-domain": 3},
    },
}


def test_criterion_9_dataset_label_counts():
    root = os.environ.get(DATASET_ENV)
    if not root:
        ACCEPTANCE_RESULTS.append(
            ("9 dataset label counts (set RAGRADE_SEMEVAL_ROOT to run)", "SKIP")
        )
        pytest.skip(f"{DATASET_ENV} not set; dataset-conditional check skipped")
    with criterion("9 dataset label counts match the published distribution"):
        import pathlib

        for hint, expectations in PUBLISHED_COUNTS.items():
            matches = [
                p
                for p in pathlib.Path(root).iterdir()
                if p.is_dir() and hint in p.name.lower().replace("_", "")
            ]
            assert matches, f"no {hint} directory under {root}"
            corpus = parse_semeval_xml(matches[0])
            for split, expected in expectations.items():
                got = corpus.label_counts(split)
                assert got == expected, (hint, split, got)


# -----------------------------------------------------------------------
# 10. Determinism
# -----------------------------------------------------------------------


def test_criterion_10_determinism():
    with criterion("10 every seeded operation reproduces bitwise"):
        # balancing
        pairs = [
            Pair(a_id=f"a{i}", b_id=f"b{i}", question_id="q", label=int(i < 20))
            for i in range(100)
        ]
        assert balance(pairs, seed=11) == balance(pairs, seed=11)

        # triplet mining
        labels = [Label.CORRECT] * 6 + [Label.IRRELEVANT] * 5
        responses = [
            Response(id=f"r{i}", question_id="q", text=f"t {i}", label=labels[i])
            for i in range(11)
        ]
        assert build_triplets(responses, Scheme.TWO_WAY, seed=9) == build_triplets(
            responses, Scheme.TWO_WAY, seed=9
        )

        # training trace
        corpus, train_rows, _ = synthetic_two_cluster_corpus(n_train=8, n_eval=2)
        base = HashEmbedder(48)
        texts = {r.id: r.text for r in train_rows}
        sets = build_training_sets(corpus, Scheme.TWO_WAY, Strategy.GENERAL, Scope.GLOBAL, seed=3)
        config = TrainConfig(loss=LossKind.COSINE_SIMILARITY, epochs=3, learning_rate=0.5, seed=17)
        first = train_adapter(config, sets.merged_pairs(), texts, base)
        second = train_adapter(config, sets.merged_pairs(), texts, base)
        assert first.batch_losses == second.batch_losses
        assert first.adapter.weights.tobytes() == second.adapter.weights.tobytes()

        # mock scoring and rag-fraction sampling
        corpus, _, _ = synthetic_two_cluster_corpus()
        run_config = ExperimentConfig(scheme=Scheme.TWO_WAY, seeds=(4,), k=3, embed_dim=48)
        a = run_scenario(corpus, "ua", run_config)
        b = run_scenario(corpus, "ua", run_config)
        assert a.per_run == b.per_run
        assert a.metrics == b.metrics

        shifted = make_corpus(
            {"qt": "T?", "qs": "S?"},
            [("t0", "qt", "train", Label.CORRECT, "momentum answer")]
            + [
                (f"s{i}", "qs", "uq", [Label.CORRECT, Label.CONTRADICTORY][i % 2], f"uq answer {i}")
                for i in range(12)
            ],
            references={"qt": ["r"], "qs": ["r"]},
        )
        rag_config = ExperimentConfig(scheme=Scheme.TWO_WAY, seeds=(6,), k=2, embed_dim=48)
        x = rag_fraction_experiment(shifted, "uq", 0.4, rag_config)
        y = rag_fraction_experiment(shifted, "uq", 0.4, rag_config)
        assert x.per_run == y.per_run
        assert x.per_run[0]["moved_ids"] == y.per_run[0]["moved_ids"]
