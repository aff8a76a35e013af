import dataclasses
import json

import numpy as np
import pytest

import ragrade.harness
from conftest import make_corpus
from ragrade.corpus import Label, Scheme, collapse_label
from ragrade.embedding import Adapter, HashEmbedder
from ragrade.glm import (
    AuthError,
    GenParams,
    MockBackend,
    NonRetryableError,
    RateLimiter,
    RemoteBackend,
)
from ragrade.harness import (
    ExperimentConfig,
    Grader,
    HarnessError,
    format_report_table,
    grade_responses,
    nearest_neighbor_predictions,
    rag_fraction_experiment,
    run_scenario,
)
from ragrade.losses import LossKind
from ragrade.pairs import Scope, Strategy
from ragrade.prompts import load_template
from ragrade.vstore import build_store


def oracle_corpus():
    """ua texts repeat train texts exactly, so the 1-NN label always matches gold."""
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
            k=3,
            same_question_only=True,
        )
        outcome = grade_responses(grader, list(tiny_corpus.split("ua")))
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
        outcome = grade_responses(grader, list(tiny_corpus.split("uq")))
        # mock has no examples to echo: every verdict is "incorrect"
        assert set(outcome.predictions) == {"incorrect"}

    def test_parse_failures_fall_back_and_count(self, tiny_corpus):
        class Mumbler:
            def complete(self, prompt, params):
                return "hmm, tricky one"

        template = load_template("SB3", "without_examples", "cpg")
        grader = Grader(
            tiny_corpus.questions, Scheme.THREE_WAY, template, Mumbler(), fallback_label="incorrect"
        )
        outcome = grade_responses(grader, list(tiny_corpus.split("uq")))
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
        outcome = grade_responses(grader, list(tiny_corpus.split("uq")))
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

    def test_fraction_bounds(self):
        corpus = shifted_corpus()
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(HarnessError, match="fraction"):
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


class _FakeResponse:
    def __init__(self, status_code, text=""):
        self.status_code = status_code
        self.text = text

    def json(self):
        return {"text": self.text}


class _OnePromptDown:
    """Session that answers like the mock model, except 503 to one prompt."""

    def __init__(self):
        self.doomed = None

    def post(self, url, json=None, headers=None, timeout=None):
        prompt = json["prompt"]
        self.doomed = self.doomed or prompt
        if prompt == self.doomed:
            return _FakeResponse(503)
        return _FakeResponse(200, MockBackend().complete(prompt, GenParams()))


class TestBackendFailures:
    def test_retry_exhausted_costs_one_verdict_not_the_run(self, tiny_corpus):
        backend = RemoteBackend(
            "http://fake.invalid/complete",
            session=_OnePromptDown(),
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
