import dataclasses
import gc
import json
import re
import sys
import threading
import time
import weakref

import numpy as np
import pytest
import requests

import ragrade.harness
from conftest import make_corpus
from ragrade.corpus import Label, Scheme, collapse_label
from ragrade.embedding import Adapter, HashEmbedder
from ragrade.glm import (
    AuthError,
    GenParams,
    GlmError,
    MockBackend,
    NonRetryableError,
    RateLimiter,
    RemoteBackend,
    ReplayBackend,
    ScriptedBackend,
)
from ragrade.harness import (
    ExperimentConfig,
    Grader,
    HarnessError,
    format_report_table,
    grade_responses,
    rag_fraction_experiment,
    run_scenario,
    seed_grader,
)
from ragrade.losses import LossKind
from ragrade.pairs import Scope, Strategy
from ragrade.prompts import load_template
from ragrade.training import TrainingError
from ragrade.vstore import RetrievalConfig, VectorStore, build_store, entry_from_response, top_k


def nearest_neighbor_predictions(
    responses, store, embedder, scheme, same_question_only=False
) -> list[str]:
    """Top-1 cosine neighbor's collapsed judgment for each response.

    This is what the mock-backend pipeline must reproduce exactly.
    """
    retrieval = RetrievalConfig(k=1, same_question_only=same_question_only)
    out = []
    for r in responses:
        (entry, _score), = top_k(store, r.text, embedder, retrieval, question_id=r.question_id)
        out.append(collapse_label(Label.parse(entry.metadata["judgment"]), scheme))
    return out


def oracle_corpus(extra=()):
    """ua texts repeat train texts exactly, so the 1-NN label always matches gold;
    `extra` rows are appended."""
    rows = [
        ("t1", "q1", "train", Label.CORRECT, "electrons circle the closed loop"),
        ("t2", "q1", "train", Label.CONTRADICTORY, "the loop must stay open to light it"),
        ("t3", "q1", "train", Label.IRRELEVANT, "copper mines are deep underground"),
        ("t4", "q2", "train", Label.CORRECT, "plants breathe in carbon dioxide gas"),
        ("t5", "q2", "train", Label.IRRELEVANT, "summer days are long and warm"),
        ("u1", "q1", "ua", Label.CORRECT, "electrons circle the closed loop"),
        ("u2", "q1", "ua", Label.CONTRADICTORY, "the loop must stay open to light it"),
        ("u3", "q2", "ua", Label.CORRECT, "plants breathe in carbon dioxide gas"),
        ("u4", "q2", "ua", Label.IRRELEVANT, "summer days are long and warm"),
        *extra,
    ]
    return make_corpus(
        {"q1": "Why does the bulb light?", "q2": "What do plants absorb?"},
        rows,
        references={"q1": ["closed loop carries current"], "q2": ["carbon dioxide"]},
    )


def shifted_corpus(n=30, seed=0):
    """uq corpus whose questions never appear in train."""
    rng = np.random.default_rng(seed)
    words_by_label = {
        Label.CORRECT: "gravity pulls objects downward toward earth",
        Label.CONTRADICTORY: "gravity pushes objects upward into space",
        Label.IRRELEVANT: "the sky looks blue on clear days",
    }
    rows = [("t0", "qt", "train", Label.CORRECT, "a train answer about momentum")]
    labels = list(words_by_label)
    for i in range(n):
        label = labels[int(rng.integers(3))]
        rows.append(
            (f"s{i:02d}", "qs", "uq", label, f"{words_by_label[label]} sample {i}")
        )
    return make_corpus(
        {"qt": "Train question?", "qs": "What does gravity do?"},
        rows,
        references={"qt": ["momentum"], "qs": ["it pulls things down"]},
    )


CFG = ExperimentConfig(scheme=Scheme.THREE_WAY, seeds=(1,), k=3, embed_dim=64)


class TestGradeResponses:
    def test_mock_equals_nearest_neighbor(self, tiny_corpus):
        embedder = HashEmbedder(64)
        store = build_store(list(tiny_corpus.split("train")), embedder)
        template = load_template("SB3", "with_examples", "cpg")
        grader = Grader(
            tiny_corpus.questions,
            Scheme.THREE_WAY,
            template,
            MockBackend(),
            embedder=embedder,
            store=store,
            retrieval=RetrievalConfig(k=3, same_question_only=True),
        )
        outcome = grade_responses([(grader, list(tiny_corpus.split("ua")))], grader.backend)[0]
        expected = nearest_neighbor_predictions(
            list(tiny_corpus.split("ua")),
            store,
            embedder,
            Scheme.THREE_WAY,
            same_question_only=True,
        )
        assert outcome.predictions == expected
        assert outcome.parse_failures == 0

    def test_without_examples_needs_no_store(self, tiny_corpus):
        template = load_template("SB3", "without_examples", "cpg")
        grader = Grader(tiny_corpus.questions, Scheme.THREE_WAY, template, MockBackend())
        outcome = grade_responses([(grader, list(tiny_corpus.split("uq")))], grader.backend)[0]
        # mock has no examples to echo: every verdict is "incorrect"
        assert set(outcome.predictions) == {"incorrect"}

    def test_with_examples_needs_a_store(self, tiny_corpus):
        template = load_template("SB3", "with_examples", "cpg")
        grader = Grader(
            tiny_corpus.questions, Scheme.THREE_WAY, template, MockBackend(), embedder=HashEmbedder(64)
        )
        with pytest.raises(HarnessError, match="with_examples grading needs a store and an embedder"):
            grade_responses([(grader, list(tiny_corpus.split("ua")))], grader.backend)[0]

    def test_parse_failures_fall_back_and_count(self, tiny_corpus):
        class Mumbler:
            def complete(self, prompt, params):
                return "hmm, tricky one"

        template = load_template("SB3", "without_examples", "cpg")
        grader = Grader(
            tiny_corpus.questions, Scheme.THREE_WAY, template, Mumbler(), fallback_label="incorrect"
        )
        outcome = grade_responses([(grader, list(tiny_corpus.split("uq")))], grader.backend)[0]
        assert outcome.parse_failures == len(tiny_corpus.split("uq"))
        assert set(outcome.predictions) == {"incorrect"}

    def test_five_way_parse_failures_use_scheme_fallback(self, tiny_corpus):
        # the five-way label set has no "incorrect"; the default fallback
        # must still land inside the scheme so tallying works
        class Mumbler:
            def complete(self, prompt, params):
                return "no verdict here"

        template = load_template("BEETLE5", "without_examples", "cpg")
        grader = Grader(tiny_corpus.questions, Scheme.FIVE_WAY, template, Mumbler())
        outcome = grade_responses([(grader, list(tiny_corpus.split("uq")))], grader.backend)[0]
        assert set(outcome.predictions) == {"non-domain"}
        from ragrade.metrics import ConfusionMatrix

        cm = ConfusionMatrix.from_pairs(
            outcome.gold, outcome.predictions, labels=Scheme.FIVE_WAY.labels()
        )
        assert cm.total == len(tiny_corpus.split("uq"))


class TestRunScenario:
    def test_perfect_store_gives_perfect_metrics(self):
        report = run_scenario(oracle_corpus(), "ua", CFG)
        assert report.metrics["acc"] == 1.0
        assert report.metrics["m_f1"] == 1.0
        assert report.metrics["w_f1"] == 1.0
        assert report.parse_failures == 0

    def test_predictions_equal_independent_nearest_neighbor(self, tiny_corpus):
        config = ExperimentConfig(scheme=Scheme.THREE_WAY, seeds=(1,), k=5, embed_dim=64)
        report = run_scenario(tiny_corpus, "ua", config)
        embedder = HashEmbedder(64)
        store = build_store(list(tiny_corpus.split("train")), embedder)
        expected = nearest_neighbor_predictions(
            list(tiny_corpus.split("ua")), store, embedder, Scheme.THREE_WAY, same_question_only=True
        )
        gold = [collapse_label(r.label, Scheme.THREE_WAY) for r in tiny_corpus.split("ua")]
        expected_acc = sum(g == p for g, p in zip(gold, expected)) / len(gold)
        assert report.metrics["acc"] == pytest.approx(expected_acc)

    def test_identical_seeds_average_equals_single(self):
        corpus = oracle_corpus()
        single = run_scenario(corpus, "ua", CFG)
        triple = run_scenario(
            corpus, "ua", ExperimentConfig(scheme=Scheme.THREE_WAY, seeds=(1, 1, 1), k=3, embed_dim=64)
        )
        for key in ("acc", "m_f1", "w_f1"):
            assert triple.metrics[key] == pytest.approx(single.metrics[key], abs=1e-12)
        assert triple.runs == 3

    def test_mean_is_arithmetic_mean_of_runs(self):
        corpus = shifted_corpus()
        config = ExperimentConfig(scheme=Scheme.THREE_WAY, seeds=(1, 2, 3), embed_dim=64)
        report = rag_fraction_experiment(corpus, "uq", 0.4, config)
        for key in ("acc", "m_f1", "w_f1"):
            per_run = [row[key] for row in report.per_run]
            assert report.metrics[key] == pytest.approx(float(np.mean(per_run)), abs=1e-12)

    def test_uq_uses_no_examples_template(self):
        corpus = shifted_corpus()
        report = run_scenario(corpus, "uq", ExperimentConfig(scheme=Scheme.THREE_WAY, seeds=(1,), embed_dim=64))
        assert report.manifest["template"] == "sb3-uqud-cpg"

    @pytest.mark.parametrize("scenario", ["ua", "uq"])
    def test_mock_grades_dspy_templates_as_it_grades_cpg(self, tiny_corpus, scenario):
        reports = {
            style: run_scenario(tiny_corpus, scenario, ExperimentConfig(template_style=style, seeds=(1,)))
            for style in ("cpg", "dspy")
        }
        assert reports["dspy"].per_run[0]["predictions"] == reports["cpg"].per_run[0]["predictions"]
        assert reports["dspy"].parse_failures == 0

    def test_unknown_scenario(self, tiny_corpus):
        with pytest.raises(HarnessError, match="unknown scenario"):
            run_scenario(tiny_corpus, "test", CFG)

    def test_missing_split(self):
        corpus = oracle_corpus()  # no ud split
        with pytest.raises(HarnessError, match="no ud split"):
            run_scenario(corpus, "ud", CFG)

    def test_trained_question_scope_run(self, tiny_corpus):
        config = ExperimentConfig(
            scheme=Scheme.THREE_WAY,
            seeds=(5,),
            k=3,
            embed_dim=48,
            train_adapter=True,
            epochs=2,
            learning_rate=0.05,
            strategy=Strategy.GENERAL,
            scope=Scope.QUESTION,
            loss=LossKind.COSINE_SIMILARITY,
        )
        report = run_scenario(tiny_corpus, "ua", config)
        assert 0.0 <= report.metrics["acc"] <= 1.0
        assert report.manifest["train_adapter"] is True

    def test_report_json_schema(self, tiny_corpus, tmp_path):
        report = run_scenario(tiny_corpus, "ua", CFG)
        path = tmp_path / "report.json"
        report.write_json(path)
        import json

        obj = json.loads(path.read_text())
        assert set(obj["metrics"]) == {"acc", "m_f1", "w_f1", "micro_f1"}
        for key in ("scenario", "scheme", "per_class", "parse_failures", "runs", "seeds", "manifest"):
            assert key in obj
        assert obj["manifest"]["k"] == 3


# punctuation only: the hash embedder finds no token in it
UNHASHABLE = "\u00bf\u2026?"


class TestUnembeddableAnswer:
    """An answer the embedder rejects ends the run with an error naming it."""

    def test_graded_answer_names_the_response(self):
        corpus = oracle_corpus([("u5", "q2", "ua", Label.CORRECT, UNHASHABLE)])
        with pytest.raises(HarnessError, match=r"^response 'u5': .*no hashable features"):
            run_scenario(corpus, "ua", CFG)

    def test_rag_fraction_graded_answer_names_the_response(self):
        corpus = shifted_corpus(n=10)
        bad = dataclasses.replace(corpus.split("uq")[3], text=UNHASHABLE)
        uq = tuple(bad if r.id == bad.id else r for r in corpus.split("uq"))
        corpus = dataclasses.replace(corpus, splits={**corpus.splits, "uq": uq})
        # a fraction of 0.05 moves none of the 10 answers, so every one is graded
        with pytest.raises(HarnessError, match=rf"^response '{bad.id}': .*no hashable features"):
            rag_fraction_experiment(corpus, "uq", 0.05, CFG)

    def test_train_answer_names_the_question(self):
        corpus = oracle_corpus([("t6", "q2", "train", Label.CORRECT, UNHASHABLE)])
        config = dataclasses.replace(CFG, train_adapter=True, epochs=1)
        with pytest.raises(TrainingError, match=r"^question 'q2': .*no hashable features"):
            run_scenario(corpus, "ua", config)


class ZeroOn(HashEmbedder):
    """Hash embedder that embeds one text to the zero vector, alone or in a batch."""

    def __init__(self, dim, text):
        super().__init__(dim)
        self.text = text

    def embed(self, text):
        return np.zeros(self.dim) if text == self.text else super().embed(text)

    def embed_many(self, texts, question_id=None):
        vectors = super().embed_many(texts, question_id)
        vectors[[text == self.text for text in texts]] = 0.0
        return vectors


class TestZeroQueryEmbedding:
    def test_graded_answer_names_the_response(self, tiny_corpus):
        answer = tiny_corpus.split("ua")[1]
        with pytest.raises(
            HarnessError,
            match=rf"^response '{answer.id}': query embedding norm 0\.0 is not finite and positive$",
        ):
            run_scenario(tiny_corpus, "ua", CFG, base=ZeroOn(CFG.embed_dim, answer.text))


class TestRagFraction:
    def test_store_counts(self):
        corpus = shifted_corpus(n=30)
        config = ExperimentConfig(scheme=Scheme.THREE_WAY, seeds=(1,), embed_dim=64)
        report = rag_fraction_experiment(corpus, "uq", 0.4, config)
        assert report.per_run[0]["moved_to_store"] == 12
        assert report.per_run[0]["scored"] == 18

    def test_oracle_fixture_reaches_one(self):
        # each uq response has an identical-text twin with the same label;
        # seed 14 moves exactly one twin from every pair into the store, so
        # every held-out response retrieves its twin at cosine 1.0
        rows = [("t0", "qt", "train", Label.CORRECT, "a train answer about momentum")]
        for i in range(10):
            label = [Label.CORRECT, Label.CONTRADICTORY][(i // 2) % 2]
            text = f"twinned answer text number {i // 2}"
            rows.append((f"s{i}", "qs", "uq", label, text))
        corpus = make_corpus(
            {"qt": "T?", "qs": "S?"},
            rows,
            references={"qt": ["r"], "qs": ["r"]},
        )
        config = ExperimentConfig(scheme=Scheme.THREE_WAY, seeds=(14,), k=1, embed_dim=64)
        report = rag_fraction_experiment(corpus, "uq", 0.5, config)
        assert report.per_run[0]["moved_to_store"] == 5
        assert report.metrics["acc"] == 1.0
        assert report.metrics["m_f1"] == 1.0
        assert report.metrics["w_f1"] == 1.0

    def test_same_seed_reproduces_report(self):
        corpus = shifted_corpus()
        config = ExperimentConfig(scheme=Scheme.THREE_WAY, seeds=(7,), embed_dim=64)
        a = rag_fraction_experiment(corpus, "uq", 0.4, config)
        b = rag_fraction_experiment(corpus, "uq", 0.4, config)
        assert a.metrics == b.metrics
        assert a.per_run == b.per_run

    def test_adapter_never_mutated(self):
        corpus = shifted_corpus()
        rng = np.random.default_rng(0)
        adapter = Adapter(weights=np.eye(64) + 0.1 * rng.normal(size=(64, 64)))
        before = adapter.weights.tobytes()
        config = ExperimentConfig(scheme=Scheme.THREE_WAY, seeds=(1,), embed_dim=64)
        rag_fraction_experiment(corpus, "uq", 0.3, config, adapters=adapter)
        assert adapter.weights.tobytes() == before

    @pytest.mark.parametrize("kind", ["hash", "adapted", "routed"])
    def test_moved_rows_equal_the_row_by_row_move(self, monkeypatch, kind):
        """The batched move's store holds bitwise the rows of the per-row one:
        entry_from_response for each moved response, cast to float32 and
        concatenated below the base store's rows."""
        rng = np.random.default_rng(8)
        vocab = "gravity pulls pushes objects down up earth space mass moon sky blue".split()
        order = ["qa"] * 7 + ["qb"] * 5 + ["qa"] * 4 + ["qc"] * 8 + ["qb"] * 3
        rows = [("t0", "qt", "train", Label.CORRECT, "a train answer about momentum")] + [
            (f"s{i:02d}", qid, "uq", list(Label)[i % len(Label)],
             " ".join(rng.choice(vocab, size=rng.integers(2, 12))))
            for i, qid in enumerate(order)
        ]
        corpus = make_corpus({q: f"{q}?" for q in ("qt", "qa", "qb", "qc")}, rows)

        def adapter():
            return Adapter(np.eye(32) + 0.3 * rng.normal(size=(32, 32)))

        adapters = {"hash": None, "adapted": adapter(), "routed": {"qa": adapter(), "qc": adapter()}}
        moves, real = [], VectorStore.extended

        def spy(store, moved, embedder):
            moves.append((store, moved, embedder, real(store, moved, embedder)))
            return moves[-1][-1]

        monkeypatch.setattr(VectorStore, "extended", spy)
        config = ExperimentConfig(scheme=Scheme.THREE_WAY, seeds=(1, 2, 3), embed_dim=32)
        rag_fraction_experiment(corpus, "uq", 0.5, config, adapters=adapters[kind])
        assert len(moves) == 3
        for store, moved, embedder, extended in moves:
            per_row = [entry_from_response(r, embedder) for r in moved]
            vectors = np.concatenate([store.vectors, np.array([v for v, _ in per_row], np.float32)])
            entries = [*store.entries, *(e for _, e in per_row)]
            assert extended.vectors.tobytes() == vectors.tobytes()
            assert json.dumps([e.metadata for e in extended.entries]) == json.dumps([e.metadata for e in entries])

    def test_fraction_bounds(self):
        corpus = shifted_corpus()
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="rag_fraction must lie strictly between 0 and 1"):
                rag_fraction_experiment(corpus, "uq", bad, CFG)

    def test_rejects_ua_scenario(self):
        with pytest.raises(HarnessError, match="uq or ud"):
            rag_fraction_experiment(oracle_corpus(), "ua", 0.4, CFG)

    def test_uses_with_examples_template(self):
        corpus = shifted_corpus()
        config = ExperimentConfig(scheme=Scheme.THREE_WAY, seeds=(1,), embed_dim=64)
        report = rag_fraction_experiment(corpus, "uq", 0.4, config)
        assert report.manifest["template"] == "sb3-ua-cpg"

    def test_run_scenario_delegates_when_fraction_configured(self):
        corpus = shifted_corpus()
        config = ExperimentConfig(
            scheme=Scheme.THREE_WAY, seeds=(3,), embed_dim=64, rag_fraction=0.4
        )
        via_scenario = run_scenario(corpus, "uq", config)
        direct = rag_fraction_experiment(corpus, "uq", 0.4, config)
        assert via_scenario.metrics == direct.metrics
        assert via_scenario.per_run[0]["moved_to_store"] == direct.per_run[0]["moved_to_store"]

    @pytest.mark.parametrize("train", [False, True], ids=["plain", "trained"])
    def test_experiment_is_run_scenario_with_the_fraction_set(self, tiny_corpus, train):
        config = ExperimentConfig(
            scheme=Scheme.THREE_WAY,
            seeds=(1, 2),
            embed_dim=32,
            train_adapter=train,
            epochs=1,
            learning_rate=0.5,
            scope=Scope.GLOBAL,
            loss=LossKind.COSINE_SIMILARITY,
        )
        direct = rag_fraction_experiment(tiny_corpus, "uq", 0.4, config)
        via_scenario = run_scenario(
            tiny_corpus, "uq", dataclasses.replace(config, rag_fraction=0.4)
        )
        assert json.dumps(direct.as_dict()) == json.dumps(via_scenario.as_dict())


def _train_spy(monkeypatch) -> list[int]:
    """Seeds of every train_for_corpus call the harness makes."""
    seeds = []
    real = ragrade.harness.train_for_corpus

    def spy(config, *args, **kwargs):
        seeds.append(config.seed)
        return real(config, *args, **kwargs)

    monkeypatch.setattr(ragrade.harness, "train_for_corpus", spy)
    return seeds


class TestAdapterTraining:
    @pytest.mark.parametrize(
        "scenario, rag_fraction, trained_seeds",
        [("uq", None, []), ("ua", None, [1, 2, 3]), ("uq", 0.5, [1, 2, 3])],
        ids=["uq", "ua", "uq-rag-fraction"],
    )
    def test_trains_only_for_graders_that_retrieve(
        self, tiny_corpus, monkeypatch, scenario, rag_fraction, trained_seeds
    ):
        seeds = _train_spy(monkeypatch)
        config = ExperimentConfig(
            seeds=(1, 2, 3), embed_dim=32, train_adapter=True, epochs=1, rag_fraction=rag_fraction
        )
        run_scenario(tiny_corpus, scenario, config)
        assert seeds == trained_seeds


class TestOneBaseEmbedderPerRun:
    """run_scenario makes one base embedder and hands it to every seed, so
    its memo hashes each distinct token once per run."""

    @pytest.mark.parametrize(
        "scenario, train, rag_fraction",
        [("ua", False, None), ("ua", True, None), ("uq", False, 0.5)],
        ids=["ua", "ua-trained", "uq-rag-fraction"],
    )
    def test_each_token_hashed_once_over_three_seeds(self, tiny_corpus, monkeypatch, scenario, train, rag_fraction):
        hashed = []
        real = HashEmbedder._hash

        def counting(self, tokens):
            hashed.extend(tokens)
            return real(self, tokens)

        monkeypatch.setattr(HashEmbedder, "_hash", counting)
        config = ExperimentConfig(
            seeds=(1, 2, 3), embed_dim=32, train_adapter=train, epochs=1, rag_fraction=rag_fraction
        )
        report = run_scenario(tiny_corpus, scenario, config)
        assert report.runs == 3 and hashed
        assert len(hashed) == len(set(hashed))


class _FakeResponse:
    def __init__(self, status_code, text=""):
        self.status_code = status_code
        self.text = text

    def json(self):
        return {"text": self.text}


_NEW_ANSWER_RE = re.compile(r"<new_answer>\n\n(.*?)\n\n</new_answer>", re.DOTALL)


def answer_of(prompt: str) -> str:
    """The answer text a cpg grading prompt asks about."""
    return _NEW_ANSWER_RE.search(prompt).group(1)


class _OnePromptDown:
    """Session that answers like the mock model, except 503 to the prompts about one answer."""

    def __init__(self, doomed_answer: str):
        self.doomed_answer = doomed_answer

    def post(self, url, json=None, headers=None, timeout=None):
        prompt = json["prompt"]
        if answer_of(prompt) == self.doomed_answer:
            return _FakeResponse(503)
        return _FakeResponse(200, MockBackend().complete(prompt, GenParams()))


class TestBackendFailures:
    def test_retry_exhausted_costs_one_verdict_not_the_run(self, tiny_corpus):
        backend = RemoteBackend(
            "http://fake.invalid/complete",
            session=_OnePromptDown(tiny_corpus.split("ua")[0].text),
            sleep=lambda s: None,
            limiter=RateLimiter(requests_per_second=1e6),
        )
        config = ExperimentConfig(scheme=Scheme.THREE_WAY, seeds=(1, 2, 3), k=3, embed_dim=64)
        report = run_scenario(tiny_corpus, "ua", config, backend=backend)
        clean = run_scenario(tiny_corpus, "ua", config)
        assert report.backend_failures == 3
        assert report.parse_failures == 0
        for row, clean_row in zip(report.per_run, clean.per_run):
            assert row["backend_failures"] == 1
            assert row["predictions"][0] == "incorrect"  # the scheme's fallback
            assert row["predictions"][1:] == clean_row["predictions"][1:]
        assert clean.backend_failures == 0

    @pytest.mark.parametrize("error", [AuthError, NonRetryableError])
    def test_other_backend_errors_still_raise(self, tiny_corpus, error):
        class Refuses:
            def complete(self, prompt, params):
                raise error("no")

        with pytest.raises(error):
            run_scenario(tiny_corpus, "ua", CFG, backend=Refuses())


def many_corpus(n_questions=3, per_question=10, uq_questions=0):
    """30 ua answers, each a train answer of its question plus one word;
    uq_questions more questions with per_question uq answers each."""
    words = "amber basalt cobalt dune ember fjord garnet harbor iris jade".split()
    labels = [Label.CORRECT, Label.CONTRADICTORY, Label.IRRELEVANT]
    rows = []
    for q in range(n_questions + uq_questions):
        for j in range(per_question):
            text = f"question {q} answer {words[j]} {words[(3 * j + q) % len(words)]}"
            if q >= n_questions:
                rows.append((f"s{q}-{j}", f"q{q}", "uq", labels[(j + q) % 3], text))
                continue
            rows.append((f"t{q}-{j}", f"q{q}", "train", labels[(j + q) % 3], text))
            rows.append((f"u{q}-{j}", f"q{q}", "ua", labels[j % 3], f"{text} indeed"))
    n = n_questions + uq_questions
    return make_corpus(
        {f"q{q}": f"Question {q}?" for q in range(n)},
        rows,
        references={f"q{q}": [f"reference {q}"] for q in range(n)},
    )


class _MockModel:
    """Thread-safe session that answers like the mock model.

    faults maps an answer text to what its first posts get at once instead
    of an answer: a response, or an exception to raise.  delay(n) is how
    long the n-th post (counting from 0) takes to answer otherwise.
    """

    def __init__(self, faults=None, delay=lambda n: 0.0):
        self.faults = {text: list(fs) for text, fs in (faults or {}).items()}
        self.delay = delay
        self.lock = threading.Lock()
        self.arrived: list[str] = []  # answer texts in arrival order
        self.answered: list[str] = []  # and in the order their posts returned
        self.in_flight = self.peak = 0

    def post(self, url, json=None, headers=None, timeout=None):
        prompt = json["prompt"]
        text = answer_of(prompt)
        with self.lock:
            n = len(self.arrived)
            self.arrived.append(text)
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            faults = self.faults.get(text)
            fault = faults.pop(0) if faults else None
        try:
            if isinstance(fault, Exception):
                raise fault
            if fault is not None:
                return fault
            time.sleep(self.delay(n))
            return _FakeResponse(200, MockBackend().complete(prompt, GenParams()))
        finally:
            with self.lock:
                self.in_flight -= 1
                self.answered.append(text)


def remote(session, max_in_flight=4, sleeps=None, **kwargs):
    return RemoteBackend(
        "http://fake.invalid/complete",
        session=session,
        sleep=sleeps.append if sleeps is not None else lambda s: None,
        limiter=RateLimiter(requests_per_second=1e6, max_in_flight=max_in_flight),
        **kwargs,
    )


def _with_retry_after(status, seconds):
    response = _FakeResponse(status)
    response.headers = {"Retry-After": seconds}
    return response


class _SampledVerdicts:
    """Session that samples its verdicts, as a model at temperature 0.7 would:
    the n-th post of a prompt gets the n-th label of a fixed cycle."""

    LABELS = ("correct", "incorrect", "contradictory")

    def __init__(self):
        self.lock = threading.Lock()
        self.posts: dict[str, int] = {}

    def post(self, url, json=None, headers=None, timeout=None):
        with self.lock:
            n = self.posts[json["prompt"]] = self.posts.get(json["prompt"], -1) + 1
        return _FakeResponse(200, f"<judgment>{self.LABELS[n % 3]}</judgment>")


class TestReplayOfASampledRun:
    def test_a_key_with_two_completions_is_refused_naming_both_lines(self, tiny_corpus, tmp_path):
        log = tmp_path / "log.jsonl"
        config = ExperimentConfig(scheme=Scheme.THREE_WAY, seeds=(1, 2, 3), k=3, embed_dim=64, temperature=0.7)
        n = len(tiny_corpus.split("ua"))
        # one request in flight, so the log's lines come in (seed, response) order
        run_scenario(tiny_corpus, "ua", config, backend=remote(_SampledVerdicts(), 1, log_path=log))
        prompts = [json.loads(line)["prompt_sha256"] for line in log.read_text().splitlines()]
        assert len(prompts) == 3 * n and prompts[:n] == prompts[n : 2 * n]  # the seeds send the same prompts
        with pytest.raises(GlmError) as caught:
            ReplayBackend(log)
        assert str(caught.value).startswith(f"{log}:{n + 1}: ")
        assert "line 1" in str(caught.value)


class TestPipelinedGrading:
    """A RemoteBackend keeps max_in_flight requests in flight; verdicts stay in response order."""

    def test_order_holds_when_early_prompts_answer_last(self):
        corpus = many_corpus()
        session = _MockModel(delay=lambda n: 0.004 * (7 - n % 8))
        report = run_scenario(corpus, "ua", CFG, backend=remote(session))
        inline = run_scenario(corpus, "ua", CFG)
        assert 1 < session.peak <= 4
        assert session.answered != session.arrived  # completions really came out of order
        assert json.dumps(report.as_dict()) == json.dumps(inline.as_dict())

    def test_retry_exhausted_costs_one_verdict(self):
        corpus = many_corpus()
        ua = list(corpus.split("ua"))
        session = _MockModel(faults={ua[5].text: [_FakeResponse(503)] * 3})
        report = run_scenario(corpus, "ua", CFG, backend=remote(session))
        inline = run_scenario(corpus, "ua", CFG)
        predictions, expected = report.per_run[0]["predictions"], inline.per_run[0]["predictions"]
        assert report.backend_failures == 1 and report.parse_failures == 0
        assert predictions[5] == "incorrect"  # the scheme's fallback
        assert predictions[:5] + predictions[6:] == expected[:5] + expected[6:]

    @pytest.mark.parametrize("i", [0, 3, 17])
    def test_auth_error_stops_the_requests_within_the_window(self, i):
        corpus = many_corpus()
        text = corpus.split("ua")[i].text
        session = _MockModel(faults={text: [_FakeResponse(401)]})
        with pytest.raises(AuthError):
            run_scenario(corpus, "ua", CFG, backend=remote(session))
        assert text in session.arrived
        assert len(session.arrived) <= i + 1 + 2 * 4

    def test_auth_error_cancels_the_requests_not_yet_started(self):
        # the first answer fails at once; the next four hold all the workers
        # until the error reaches the caller, and the three queued behind
        # them must never be posted
        corpus = many_corpus()
        session = _MockModel(faults={corpus.split("ua")[0].text: [_FakeResponse(401)]},
                             delay=lambda n: 0.3)
        with pytest.raises(AuthError):
            run_scenario(corpus, "ua", CFG, backend=remote(session))
        assert len(session.arrived) <= 1 + 4

    def test_transient_failures_give_the_same_predictions_at_one_and_four_in_flight(self):
        corpus = many_corpus()
        ua = list(corpus.split("ua"))
        runs = {}
        for max_in_flight in (1, 4):
            faults = {
                ua[2].text: [_with_retry_after(429, "2")],
                ua[7].text: [requests.Timeout("read timed out")],
                ua[11].text: [_FakeResponse(503)],
            }
            session, sleeps = _MockModel(faults=faults), []
            backend = remote(session, max_in_flight, sleeps)
            runs[max_in_flight] = run_scenario(corpus, "ua", CFG, backend=backend)
            assert len(session.arrived) == len(ua) + 3
            assert len(sleeps) == 3 and 2.0 in sleeps  # the Retry-After outweighed the backoff
        inline = run_scenario(corpus, "ua", CFG)
        assert runs[1].backend_failures == runs[4].backend_failures == 0
        assert runs[1].per_run == runs[4].per_run == inline.per_run

    def test_stress_sixteen_workers_log_every_completion_whole(self, tmp_path):
        corpus = many_corpus(n_questions=4)
        config = dataclasses.replace(CFG, seeds=(1, 2, 3))
        log = tmp_path / "log.jsonl"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.monotonic()
            report = run_scenario(
                corpus, "ua", config, backend=remote(_MockModel(), 16, log_path=log)
            )
            assert time.monotonic() - start < 60
        finally:
            sys.setswitchinterval(interval)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(records) == 3 * len(corpus.split("ua"))
        replayed = run_scenario(corpus, "ua", config, backend=ReplayBackend(log))
        assert report.per_run == replayed.per_run == run_scenario(corpus, "ua", config).per_run

    @pytest.mark.parametrize("kind", ["mock", "replay", "scripted"])
    def test_inline_backends_run_on_the_calling_thread(self, kind, tmp_path):
        corpus = many_corpus()
        if kind == "replay":
            log = tmp_path / "log.jsonl"
            run_scenario(corpus, "ua", CFG, backend=remote(_MockModel(), log_path=log))
            base, args = ReplayBackend, (log,)
        else:
            base, args = {"mock": (MockBackend, ()), "scripted": (ScriptedBackend, (["x"],))}[kind]
        threads = set()

        class Recording(base):
            def complete(self, prompt, params):
                threads.add(threading.get_ident())
                return super().complete(prompt, params)

        report = run_scenario(corpus, "ua", CFG, backend=Recording(*args))
        assert threads == {threading.get_ident()}
        if kind == "replay":  # a log written in completion order replays in response order
            assert report.per_run == run_scenario(corpus, "ua", CFG).per_run

    def test_an_aborted_grading_frees_the_store_without_gc(self):
        # A future left reachable from the frames of the raised error forms a
        # cycle through its stored exception, which only gc would break.
        corpus = many_corpus()
        responses = list(corpus.split("ua"))
        session = _MockModel(faults={responses[3].text: [_FakeResponse(401)]})
        grader = seed_grader(corpus, "ua", CFG, 1, remote(session))
        store = weakref.ref(grader.store)
        gc.collect()
        gc.disable()
        try:
            try:
                grade_responses([(grader, responses)], grader.backend)[0]
            except AuthError:
                pass
            else:
                pytest.fail("AuthError was not raised")
            del grader
            assert store() is None
        finally:
            gc.enable()


class _HeldUntil(_MockModel):
    """_MockModel whose first post about each held answer first waits for
    event, for at most 5 s; waits records whether each wait saw it set."""

    def __init__(self, held, event):
        super().__init__()
        self.held, self.event, self.waits = set(held), event, []

    def post(self, url, json=None, headers=None, timeout=None):
        text = answer_of(json["prompt"])
        with self.lock:
            first = text not in self.arrived
        if first and text in self.held:
            self.waits.append(self.event.wait(5))
        return super().post(url, json=json, headers=headers, timeout=timeout)


def _seed_grader_spy(monkeypatch, on_entry=lambda seed: None, on_exit=lambda grader: None):
    """Wrap harness.seed_grader, which run_scenario calls positionally."""
    real = ragrade.harness.seed_grader

    def spy(*args):
        on_entry(args[3])
        grader = real(*args)
        on_exit(grader)
        return grader

    monkeypatch.setattr(ragrade.harness, "seed_grader", spy)


SEEDS3 = dataclasses.replace(CFG, seeds=(1, 2, 3))


class TestOneStreamPerRun:
    """run_scenario grades every seed as one stream of prompts over one pool."""

    def test_next_seed_sets_up_while_the_last_requests_are_in_flight(self, monkeypatch):
        corpus = many_corpus()
        ua = list(corpus.split("ua"))
        entered = threading.Event()
        _seed_grader_spy(monkeypatch, on_entry=lambda seed: seed == 2 and entered.set())
        session = _HeldUntil({r.text for r in ua[-4:]}, entered)
        report = run_scenario(corpus, "ua", SEEDS3, backend=remote(session))
        assert session.waits == [True] * 4  # seed 2's set-up began while they were held
        assert json.dumps(report.as_dict()) == json.dumps(run_scenario(corpus, "ua", SEEDS3).as_dict())

    @pytest.mark.parametrize("max_in_flight", [1, 4])
    @pytest.mark.parametrize("kind", ["ua-adapters", "ua-trained", "uq", "uq-rag-fraction"])
    def test_report_equals_the_inline_mock_run(self, kind, max_in_flight):
        corpus = many_corpus(uq_questions=2)
        config = dataclasses.replace(
            SEEDS3,
            train_adapter=kind == "ua-trained",
            epochs=1,
            rag_fraction=0.5 if kind == "uq-rag-fraction" else None,
        )
        adapters = None
        if kind == "ua-adapters":
            rng = np.random.default_rng(0)
            adapters = {
                qid: Adapter(weights=np.eye(64) + 0.1 * rng.normal(size=(64, 64)))
                for qid in corpus.questions
            }
        scenario = kind.split("-")[0]
        session = _MockModel()
        report = run_scenario(
            corpus, scenario, config, backend=remote(session, max_in_flight), adapters=adapters
        )
        inline = run_scenario(corpus, scenario, config, adapters=adapters)
        assert len(session.arrived) == sum(len(row["predictions"]) for row in report.per_run)
        assert json.dumps(report.as_dict()) == json.dumps(inline.as_dict())

    def test_auth_error_on_a_seeds_last_answer_stops_the_stream_within_the_window(self):
        corpus = many_corpus()
        session = _MockModel(faults={corpus.split("ua")[-1].text: [_FakeResponse(401)]})
        with pytest.raises(AuthError):
            run_scenario(corpus, "ua", SEEDS3, backend=remote(session))
        posts = [session.arrived.count(text) for text in set(session.arrived)]
        assert max(posts) <= 2  # no seed-3 prompt was posted
        assert posts.count(2) <= 2 * 4  # nor more seed-2 prompts than the window

    def test_retry_exhausted_on_a_later_seed_costs_that_verdict_only(self):
        corpus = many_corpus()
        ua = list(corpus.split("ua"))
        # the first post about ua[5] is seed 1's, answered; the next three are seed 2's tries
        session = _MockModel(faults={ua[5].text: [None] + [_FakeResponse(503)] * 3})
        report = run_scenario(corpus, "ua", SEEDS3, backend=remote(session))
        inline = run_scenario(corpus, "ua", SEEDS3)
        assert [row["backend_failures"] for row in report.per_run] == [0, 1, 0]
        assert report.parse_failures == 0
        second, expected = report.per_run[1]["predictions"], inline.per_run[1]["predictions"]
        assert second[5] == "incorrect"  # the scheme's fallback
        assert second[:5] + second[6:] == expected[:5] + expected[6:]
        assert report.per_run[0] == inline.per_run[0] and report.per_run[2] == inline.per_run[2]

    def test_finished_seeds_stores_are_freed_before_the_next_set_up_without_gc(self, monkeypatch):
        stores, dead_at_seed_3 = [], []
        _seed_grader_spy(
            monkeypatch,
            on_entry=lambda seed: seed == 3 and dead_at_seed_3.extend(s() is None for s in stores),
            on_exit=lambda grader: stores.append(weakref.ref(grader.store)),
        )
        corpus = many_corpus()
        gc.collect()
        gc.disable()
        try:
            run_scenario(corpus, "ua", SEEDS3, backend=remote(_MockModel()))
        finally:
            gc.enable()
        assert dead_at_seed_3 == [True, True]


class TestConfig:
    def test_round_trip_via_json(self, tmp_path):
        config = ExperimentConfig(scheme=Scheme.TWO_WAY, seeds=(4, 5), k=7)
        path = tmp_path / "config.json"
        import json

        path.write_text(json.dumps(config.manifest()))
        again = ExperimentConfig.from_json(path)
        assert again == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            ExperimentConfig.from_dict({"wat": 1})

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be at least 1, got 0"):
            ExperimentConfig(k=0)

    def test_float_fields_take_integers(self):
        config = ExperimentConfig.from_dict({"learning_rate": 1, "temperature": 0})
        assert config.learning_rate == 1 and config.temperature == 0

    def test_null_clears_an_optional_field(self):
        assert ExperimentConfig.from_dict({"model_id": None, "corpus": None}).model_id is None

    def test_fallback_label_must_exist(self):
        with pytest.raises(ValueError, match="fallback"):
            ExperimentConfig(scheme=Scheme.TWO_WAY, fallback_label="contradictory")

    def test_rag_fraction_bounds(self):
        with pytest.raises(ValueError, match="rag_fraction"):
            ExperimentConfig(rag_fraction=1.0)


class TestReportTable:
    def test_table_layout(self, tiny_corpus):
        report = run_scenario(tiny_corpus, "ua", CFG)
        table = format_report_table([report])
        lines = table.splitlines()
        assert lines[0].split() == ["Scenario", "Acc", "M-F1", "W-F1"]
        assert lines[2].startswith("UA")
        assert len(lines[2].split()) == 4
