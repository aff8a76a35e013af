import json

import pytest

from conftest import make_corpus
from ragrade.corpus import Label, Scheme
from ragrade.embedding import HashEmbedder
from ragrade.glm import GlmBackend, MockBackend, ScriptedBackend
from ragrade.harness import Grader
from ragrade.optimize import (
    Candidate,
    OptimizerConfig,
    PromptEvaluator,
    optimize,
    propose,
)
from ragrade.prompts import PromptTemplate, load_template
from ragrade.vstore import RetrievalConfig, build_store

DRAFT = load_template("SB3", "without_examples", "cpg")


def wrap(body):
    return f"some preamble\n<template>\n{body}\n</template>"


def variant_body(tag):
    return (
        f"Grade variant {tag}.\n\nQuestion: {{{{QUESTION}}}}\n\n"
        f"Reference: {{{{REFERENCE_ANSWER}}}}\n\nAnswer: {{{{NEW_ANSWER}}}}\n\n"
        "Reply <judgment>...</judgment>."
    )


def corpus_with_dev(gold_labels):
    rows = []
    for i, label in enumerate(gold_labels):
        rows.append((f"d{i:02d}", "q", "ua", label, f"distinct dev answer number {i}"))
    rows.append(("t0", "q", "train", Label.CORRECT, "train answer zero"))
    return make_corpus({"q": "Q?"}, rows, references={"q": ["the reference"]})


def completions_for_hits(gold, hits):
    """Scripted task completions producing exactly `hits` correct verdicts."""
    out = []
    for i, g in enumerate(gold):
        if i < hits:
            out.append(f"<judgment>{g}</judgment>")
        else:
            wrong = "incorrect" if g != "incorrect" else "contradictory"
            out.append(f"<judgment>{wrong}</judgment>")
    return out


GOLD_10 = [Label.CORRECT] * 5 + [Label.IRRELEVANT] * 5


def evaluator_with_script(completion_lists, gold=GOLD_10):
    corpus = corpus_with_dev(gold)
    flat = [c for chunk in completion_lists for c in chunk]
    backend = ScriptedBackend(flat)
    evaluator = PromptEvaluator(
        corpus.split("ua"),
        Grader(corpus.questions, Scheme.THREE_WAY, DRAFT, backend),
        metric="accuracy",
    )
    return evaluator, backend


class RecordingBackend(GlmBackend):
    """Records every prompt and grades it correct."""

    def __init__(self):
        self.prompts = []

    def complete(self, prompt, params):
        self.prompts.append(prompt)
        return "<judgment>correct</judgment>"


class TestPropose:
    def test_draft_verbatim_roundtrip(self):
        critic = ScriptedBackend([wrap(DRAFT.body)])
        proposals = propose(critic, [Candidate(template=DRAFT, step=0)], 1)
        assert len(proposals) == 1
        assert proposals[0].body == DRAFT.body

    def test_invalid_body_rerequested(self):
        bad = "Missing the answer slot {{QUESTION}} {{REFERENCE_ANSWER}}"
        critic = ScriptedBackend([wrap(bad), wrap(variant_body("ok"))])
        proposals = propose(critic, [Candidate(template=DRAFT, step=0)], 1)
        assert critic.calls == 2
        assert len(proposals) == 1
        assert "variant ok" in proposals[0].body

    def test_gives_up_after_reproposals(self):
        critic = ScriptedBackend([wrap("nothing here")])
        proposals = propose(critic, [Candidate(template=DRAFT, step=0)], 2)
        assert proposals == []
        assert critic.calls == 6  # 3 attempts per requested candidate

    def test_critic_samples_hot_and_long(self):
        seen = []

        class Critic(GlmBackend):
            def complete(self, prompt, params):
                seen.append(params)
                return wrap(variant_body("hot"))

        propose(Critic(), [Candidate(template=DRAFT, step=0)], 2)
        assert [(p.temperature, p.max_tokens) for p in seen] == [(0.9, 2048)] * 2

    def test_multiple_distinct_candidates(self):
        critic = ScriptedBackend([wrap(variant_body("a")), wrap(variant_body("b"))])
        proposals = propose(critic, [Candidate(template=DRAFT, step=0)], 2)
        assert len(proposals) == 2
        assert proposals[0].body != proposals[1].body

    def test_placeholder_set_must_match_parent(self):
        # adding an examples slot to a no-examples parent is invalid
        extra = variant_body("x") + "\n{{EXAMPLES}}"
        critic = ScriptedBackend([wrap(extra)])
        proposals = propose(critic, [Candidate(template=DRAFT, step=0)], 1)
        assert proposals == []


class TestEvaluator:
    def test_perfect_nearest_neighbor_scores_one(self):
        corpus = make_corpus(
            {"q": "Q?"},
            [
                ("t1", "q", "train", Label.CORRECT, "electrons flow around the loop"),
                ("t2", "q", "train", Label.IRRELEVANT, "bananas are yellow fruit"),
                ("d1", "q", "ua", Label.CORRECT, "electrons flow around the loop"),
                ("d2", "q", "ua", Label.IRRELEVANT, "bananas are yellow fruit"),
            ],
            references={"q": ["ref"]},
        )
        embedder = HashEmbedder(64)
        store = build_store(list(corpus.split("train")), embedder)
        template = load_template("SB3", "with_examples", "cpg")
        grader = Grader(
            corpus.questions,
            Scheme.THREE_WAY,
            template,
            MockBackend(),
            embedder=embedder,
            store=store,
            retrieval=RetrievalConfig(k=3, same_question_only=True),
        )
        evaluator = PromptEvaluator(corpus.split("ua"), grader)
        assert evaluator.score(template) == 1.0

    @pytest.mark.parametrize("same_question_only", [True, False])
    def test_grades_with_the_scored_template_and_the_graders_retrieval(self, same_question_only):
        corpus = make_corpus(
            {"q1": "Q1?", "q2": "Q2?"},
            [
                ("a1", "q1", "train", Label.CORRECT, "electrons flow around the loop"),
                ("a2", "q1", "train", Label.IRRELEVANT, "bananas are yellow fruit"),
                ("a3", "q1", "train", Label.CORRECT, "a battery pushes charge"),
                ("b1", "q2", "train", Label.CONTRADICTORY, "electrons flow around the loop twice"),
                ("d1", "q1", "ua", Label.CORRECT, "electrons flow around the loop"),
            ],
            references={"q1": ["ref"], "q2": ["ref"]},
        )
        embedder = HashEmbedder(64)
        backend = RecordingBackend()
        own = PromptTemplate(
            "own", "SB3", "with_examples", "cpg",
            "Own template {{QUESTION}} {{REFERENCE_ANSWER}} {{EXAMPLES}} {{NEW_ANSWER}}",
        )
        grader = Grader(
            corpus.questions,
            Scheme.THREE_WAY,
            own,  # scoring must use the template it is given instead
            backend,
            embedder=embedder,
            store=build_store(list(corpus.split("train")), embedder),
            retrieval=RetrievalConfig(k=2, same_question_only=same_question_only),
        )
        template = load_template("SB3", "with_examples", "cpg")
        PromptEvaluator(corpus.split("ua"), grader).score(template)
        [prompt] = backend.prompts
        assert prompt.startswith(template.body.split("{{")[0])
        assert "Own template" not in prompt
        assert prompt.count("\nAnswer: ") == 2  # k retrieved examples
        assert ("twice" in prompt) is not same_question_only

    def test_cache_hits_skip_backend(self):
        evaluator, backend = evaluator_with_script([completions_for_hits(
            ["correct"] * 5 + ["incorrect"] * 5, 7
        )])
        first = evaluator.score(DRAFT)
        calls_after_first = backend.calls
        second = evaluator.score(DRAFT)
        assert first == second == pytest.approx(0.7)
        assert backend.calls == calls_after_first
        assert evaluator.evaluations == 1

    def test_six_item_dev_set_two_thirds(self):
        gold6 = [Label.CORRECT] * 3 + [Label.CONTRADICTORY] * 3
        collapsed = ["correct"] * 3 + ["contradictory"] * 3
        evaluator, _ = evaluator_with_script(
            [completions_for_hits(collapsed, 4)], gold=gold6
        )
        assert evaluator.score(DRAFT) == pytest.approx(0.6667, abs=1e-4)
        assert evaluator.score(DRAFT) == pytest.approx(2 / 3, abs=1e-9)


def run_three_step_trace(scores):
    """Scripted optimize run: draft at 0.4, one proposal per step."""
    gold = ["correct"] * 5 + ["incorrect"] * 5
    chunks = [completions_for_hits(gold, 4)]
    for s in scores:
        chunks.append(completions_for_hits(gold, int(round(10 * s))))
    evaluator, backend = evaluator_with_script(chunks)
    critic = ScriptedBackend([wrap(variant_body(f"step{i}")) for i in range(len(scores))])
    config = OptimizerConfig(steps=len(scores), beam=1)
    return optimize(config, DRAFT, evaluator, critic)


class TestOptimize:
    def test_worse_candidate_keeps_draft(self):
        result = run_three_step_trace([0.2])
        assert result.best.template.body == DRAFT.body
        assert result.best_trace == [pytest.approx(0.4), pytest.approx(0.4)]

    def test_better_candidate_wins(self):
        result = run_three_step_trace([0.8])
        assert "variant step0" in result.best.template.body
        assert result.best_trace == [pytest.approx(0.4), pytest.approx(0.8)]

    def test_hand_simulated_trace(self):
        result = run_three_step_trace([0.5, 0.7, 0.6])
        assert result.best_trace == [
            pytest.approx(0.4),
            pytest.approx(0.5),
            pytest.approx(0.7),
            pytest.approx(0.7),
        ]
        assert "variant step1" in result.best.template.body

    def test_trace_monotone_nondecreasing(self):
        result = run_three_step_trace([0.5, 0.3, 0.9, 0.1])
        trace = result.best_trace
        assert all(a <= b + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_retained_bounded_and_scored(self):
        gold = ["correct"] * 5 + ["incorrect"] * 5
        chunks = [completions_for_hits(gold, 4)]
        for hits in (5, 6, 7, 8):
            chunks.append(completions_for_hits(gold, hits))
        evaluator, _ = evaluator_with_script(chunks)
        critic = ScriptedBackend(
            [wrap(variant_body(f"v{i}")) for i in range(4)]
        )
        result = optimize(OptimizerConfig(steps=2, beam=2), DRAFT, evaluator, critic)
        assert len(result.retained) <= 2
        assert all(c.score is not None for c in result.retained)
        assert all(c.score is not None for c in result.history)

    def test_all_invalid_step_is_noop(self):
        gold = ["correct"] * 5 + ["incorrect"] * 5
        evaluator, _ = evaluator_with_script([completions_for_hits(gold, 4)])
        critic = ScriptedBackend([wrap("no placeholders at all")])
        result = optimize(OptimizerConfig(steps=1, beam=1), DRAFT, evaluator, critic)
        assert result.best.template.body == DRAFT.body
        assert result.best_trace == [pytest.approx(0.4), pytest.approx(0.4)]

    def test_tie_broken_by_earlier_lineage(self):
        # candidate ties the draft score: draft (earlier) stays best
        result = run_three_step_trace([0.4])
        assert result.best.template.body == DRAFT.body

    def test_reproducible_history(self):
        first = run_three_step_trace([0.5, 0.7, 0.6])
        second = run_three_step_trace([0.5, 0.7, 0.6])
        assert [c.sha for c in first.history] == [c.sha for c in second.history]
        assert [c.score for c in first.history] == [c.score for c in second.history]

    def test_history_jsonl(self, tmp_path):
        result = run_three_step_trace([0.5, 0.7, 0.6])
        path = tmp_path / "history.jsonl"
        result.write_history_jsonl(path, "accuracy", "dev0")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 4
        assert rows[0]["step"] == 0
        assert rows[0]["parent_sha"] is None
        assert all(r["metric"] == "accuracy" for r in rows)
        assert rows[1]["parent_sha"] == rows[0]["candidate_sha"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(steps=0)
        with pytest.raises(TypeError):  # the metric is the evaluator's alone
            OptimizerConfig(metric="accuracy")

    def test_evaluator_refuses_unknown_metric(self):
        with pytest.raises(ValueError, match=r"unknown metric 'nope' \(have \['accuracy', "):
            PromptEvaluator([], None, metric="nope")
