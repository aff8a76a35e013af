"""Iterative prompt optimization: propose, evaluate, rank, retain.

A high-temperature critic backend rewrites the current best template; a
low-temperature task backend scores every candidate on the full dev set.
Each step keeps the top B of (retained union new), so the best retained
score can never regress.  Scores are cached by template digest, and the
draft is seeded into the retained set so it is never lost.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path

from .glm import GenParams, GlmBackend
from .harness import Grader, grade_responses
from .metrics import accuracy, macro_f1, weighted_f1
from .prompts import PromptError, PromptTemplate, load_critic_meta_prompt

METRICS = {"accuracy": accuracy, "macro_f1": macro_f1, "weighted_f1": weighted_f1}
CRITIC_PARAMS = GenParams(temperature=0.9, max_tokens=2048)
MAX_REPROPOSALS = 3  # critic requests per proposal before it is skipped


class OptimizerError(Exception):
    pass


@dataclass
class OptimizerConfig:
    steps: int = 3  # optimization steps
    beam: int = 4  # candidates proposed per step and retained-set size

    def __post_init__(self):
        if self.steps < 1 or self.beam < 1:
            raise ValueError("steps and beam must be at least 1")


@dataclass
class Candidate:
    template: PromptTemplate
    step: int
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


def propose(critic: GlmBackend, history: list[Candidate], beam: int) -> list[PromptTemplate]:
    """Ask the critic for beam new template bodies based on the history.

    A proposal must keep the parent's placeholder set exactly; invalid
    proposals are re-requested up to MAX_REPROPOSALS times and then
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
        for _attempt in range(MAX_REPROPOSALS):
            raw = critic.complete(prompt, CRITIC_PARAMS)
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

    Each score grades with the grader's settings and the template passed
    to it; the grader's own template is not used.  Scores are cached by
    template sha256, so re-evaluating an unchanged candidate never
    re-queries the backend.  dev_set_id is a digest of the dev set.
    """

    metric = "accuracy"  # the default; an instance holds the name of its own

    def __init__(self, dev_set, grader: Grader, metric: str = metric):
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r} (have {sorted(METRICS)})")
        self.dev_set = list(dev_set)
        self.grader = grader
        self.metric = metric
        h = hashlib.sha256()
        for r in self.dev_set:
            h.update(f"{r.id}\x00{r.text}\x00{r.label.value}\x00".encode("utf-8"))
        self.dev_set_id = h.hexdigest()
        self.cache: dict[str, float] = {}
        self.evaluations = 0  # backend-hitting evaluations, for tests

    def score(self, template: PromptTemplate) -> float:
        if template.sha256 in self.cache:
            return self.cache[template.sha256]
        runs = [(replace(self.grader, template=template), self.dev_set)]
        outcome = grade_responses(runs, self.grader.backend)[0]
        value = float(METRICS[self.metric](outcome.confusion(self.grader.scheme)))
        self.cache[template.sha256] = value
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
    earlier insertion wins) and truncated to the beam; step 0 scores the
    draft alone, and each later step scores the critic's proposals.  The
    best retained score is non-decreasing by construction.  A step whose
    proposals are all invalid is a no-op.
    """
    retained: list[Candidate] = []
    history: list[Candidate] = []
    best_trace: list[float] = []

    for step in range(config.steps + 1):
        templates = propose(critic, retained, config.beam) if step else [draft]
        parent_sha = retained[0].sha if retained else None
        new_candidates = []
        for template in templates:
            candidate = Candidate(template=template, step=step, parent_sha=parent_sha)
            candidate.score = evaluator.score(template)
            new_candidates.append(candidate)
        history.extend(new_candidates)
        pool = retained + new_candidates
        # retained is in rank order and new candidates follow in proposal order,
        # so a stable sort on score alone lets the earlier insertion win ties
        pool.sort(key=lambda c: -c.score)
        retained = pool[: config.beam]
        best_trace.append(retained[0].score)

    return OptimizationResult(
        best=retained[0], retained=retained, history=history, best_trace=best_trace
    )
