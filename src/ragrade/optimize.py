"""Iterative prompt optimization: propose, evaluate, rank, retain.

A high-temperature critic backend rewrites the current best template; a
low-temperature task backend scores every candidate on the full dev set.
Each step keeps the top B of (retained union new), so the best retained
score can never regress.  Scores are cached by template digest and dev
set, and the draft is seeded into the retained set so it is never lost.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .corpus import Corpus, Scheme
from .embedding import BaseEmbedder
from .glm import GenParams, GlmBackend
from .harness import Grader, grade_responses
from .metrics import accuracy, macro_f1, weighted_f1
from .prompts import PromptError, PromptTemplate, load_critic_meta_prompt
from .vstore import VectorStore

METRICS = {"accuracy": accuracy, "macro_f1": macro_f1, "weighted_f1": weighted_f1}


class OptimizerError(Exception):
    pass


@dataclass
class OptimizerConfig:
    steps: int = 3  # optimization steps
    beam: int = 4  # candidates proposed per step and retained-set size
    metric: str = "accuracy"
    critic_params: GenParams = field(default_factory=lambda: GenParams(temperature=0.9, max_tokens=2048))
    seed: int = 0
    max_reproposals: int = 3

    def __post_init__(self):
        if self.steps < 1 or self.beam < 1:
            raise ValueError("steps and beam must be at least 1")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r} (have {sorted(METRICS)})")


@dataclass
class Candidate:
    template: PromptTemplate
    step: int
    order: int  # insertion counter; earlier wins score ties
    parent_sha: str | None = None
    score: float | None = None

    @property
    def sha(self) -> str:
        return self.template.sha256


_TEMPLATE_TAG_RE = re.compile(r"<template>(.*?)</template>", re.DOTALL)


def _extract_template_body(raw: str) -> str:
    match = _TEMPLATE_TAG_RE.search(raw)
    body = match.group(1) if match else raw
    # trim only the newlines that hug the tags, not the body's own edges
    if body.startswith("\n"):
        body = body[1:]
    if body.endswith("\n"):
        body = body[:-1]
    return body


def propose(
    critic: GlmBackend,
    history: list[Candidate],
    beam: int,
    params: GenParams,
    max_reproposals: int = 3,
) -> list[PromptTemplate]:
    """Ask the critic for beam new template bodies based on the history.

    A proposal must keep the parent's placeholder set exactly; invalid
    proposals are re-requested up to max_reproposals times and then
    skipped, so fewer than beam templates may come back.
    """
    if not history:
        raise OptimizerError("history must contain at least the draft template")
    parent = history[0].template
    meta = load_critic_meta_prompt()
    history_lines = "\n".join(
        f"- step {c.step}, score {c.score:.4f}" if c.score is not None else f"- step {c.step}, unscored"
        for c in history
    )
    prompt = meta.replace("{{HISTORY}}", history_lines).replace("{{PARENT}}", parent.body)

    proposals: list[PromptTemplate] = []
    for i in range(beam):
        template = None
        for _attempt in range(max_reproposals):
            raw = critic.complete(prompt, params)
            body = _extract_template_body(raw)
            try:
                candidate = PromptTemplate(
                    id=f"{parent.id}-p{i}",
                    task=parent.task,
                    scenario=parent.scenario,
                    style=parent.style,
                    body=body,
                )
            except PromptError:
                continue
            if candidate.placeholders != parent.placeholders:
                continue
            template = candidate
            break
        if template is not None:
            proposals.append(template)
    return proposals


class PromptEvaluator:
    """Scores a template by grading the whole dev set with it.

    Results are cached by (template sha256, dev set id); re-evaluating an
    unchanged candidate never re-queries the backend.
    """

    def __init__(
        self,
        dev_set,
        corpus: Corpus,
        scheme: Scheme,
        backend: GlmBackend,
        metric: str = "accuracy",
        embedder: BaseEmbedder | None = None,
        store: VectorStore | None = None,
        k: int = 5,
        same_question_only: bool = True,
        params: GenParams | None = None,
        fallback_label: str | None = None,
        dev_set_id: str | None = None,
    ):
        self.dev_set = list(dev_set)
        self.grader = Grader(
            questions=corpus.questions,
            scheme=scheme,
            template=None,  # each score() grades with its own template
            backend=backend,
            embedder=embedder,
            store=store,
            k=k,
            same_question_only=same_question_only,
            params=params,
            fallback_label=fallback_label,
        )
        self.metric_name = metric
        self.metric = METRICS[metric]
        self.dev_set_id = dev_set_id or self._digest_dev_set()
        self.cache: dict[tuple[str, str], float] = {}
        self.evaluations = 0  # backend-hitting evaluations, for tests

    def _digest_dev_set(self) -> str:
        h = hashlib.sha256()
        for r in self.dev_set:
            h.update(f"{r.id}\x00{r.text}\x00{r.label.value}\x00".encode("utf-8"))
        return h.hexdigest()

    def score(self, template: PromptTemplate) -> float:
        key = (template.sha256, self.dev_set_id)
        if key in self.cache:
            return self.cache[key]
        outcome = grade_responses(replace(self.grader, template=template), self.dev_set)
        value = float(self.metric(outcome.confusion(self.grader.scheme)))
        self.cache[key] = value
        self.evaluations += 1
        return value


@dataclass
class OptimizationResult:
    best: Candidate
    retained: list[Candidate]
    history: list[Candidate]
    best_trace: list[float]  # best retained score after step 0, 1, ..., D

    def write_history_jsonl(self, path: str | Path, metric: str, dev_set_id: str) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for c in self.history:
                fh.write(
                    json.dumps(
                        {
                            "step": c.step,
                            "candidate_sha": c.sha,
                            "parent_sha": c.parent_sha,
                            "score": c.score,
                            "metric": metric,
                            "dev_set_id": dev_set_id,
                        }
                    )
                    + "\n"
                )


def optimize(
    config: OptimizerConfig,
    draft: PromptTemplate,
    evaluator: PromptEvaluator,
    critic: GlmBackend,
) -> OptimizationResult:
    """Run the propose/evaluate/rank loop for config.steps steps.

    The union of retained and new candidates is ranked by score (ties:
    earlier insertion wins) and truncated to the beam; the draft scores
    at step 0.  The best retained score is non-decreasing by
    construction.  A step whose proposals are all invalid is a no-op.
    """
    counter = 0
    draft_candidate = Candidate(template=draft, step=0, order=counter)
    draft_candidate.score = evaluator.score(draft)
    retained = [draft_candidate]
    history = [draft_candidate]
    best_trace = [draft_candidate.score]

    for step in range(1, config.steps + 1):
        bodies = propose(
            critic, retained, config.beam, config.critic_params, config.max_reproposals
        )
        new_candidates = []
        for template in bodies:
            counter += 1
            candidate = Candidate(
                template=template,
                step=step,
                order=counter,
                parent_sha=retained[0].sha,
            )
            candidate.score = evaluator.score(template)
            new_candidates.append(candidate)
        history.extend(new_candidates)
        pool = retained + new_candidates
        pool.sort(key=lambda c: (-c.score, c.order))
        retained = pool[: config.beam]
        best_trace.append(retained[0].score)

    return OptimizationResult(
        best=retained[0], retained=retained, history=history, best_trace=best_trace
    )
