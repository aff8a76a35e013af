"""Iterative prompt optimization with a critic backend.

A high-temperature critic proposes template rewrites; every candidate is
scored on the full dev set by the task backend; each step keeps the top
candidates, so the best retained score never regresses.  Here both
backends are scripted so the run is fully reproducible: proposals score
0.5, 0.7, then 0.6 against a 0.4 draft.
"""

from ragrade import Corpus, Grader, Label, Question, Response, Scheme
from ragrade.glm import ScriptedBackend
from ragrade.optimize import OptimizerConfig, PromptEvaluator, optimize
from ragrade.prompts import load_template

GOLD = ["correct"] * 5 + ["incorrect"] * 5
dev = tuple(
    Response(
        f"d{i}",
        "q",
        f"dev answer number {i}",
        Label.CORRECT if g == "correct" else Label.IRRELEVANT,
    )
    for i, g in enumerate(GOLD)
)
corpus = Corpus(
    name="dev",
    questions={"q": Question(id="q", text="Q?", reference_answers=("ref",))},
    splits={"ua": dev},
)


def completions_scoring(hits):
    """Task-backend script: exactly `hits` of the 10 verdicts are right."""
    out = []
    for i, g in enumerate(GOLD):
        verdict = g if i < hits else ("incorrect" if g == "correct" else "correct")
        out.append(f"<judgment>{verdict}</judgment>")
    return out


# the draft is evaluated first (4/10), then one proposal per step
task = ScriptedBackend(
    completions_scoring(4) + completions_scoring(5) + completions_scoring(7) + completions_scoring(6)
)
proposal_bodies = [
    f"Rewrite {i}: compare {{{{NEW_ANSWER}}}} with {{{{REFERENCE_ANSWER}}}} "
    f"for {{{{QUESTION}}}} and reply inside <judgment></judgment> tags."
    for i in range(3)
]
critic = ScriptedBackend([f"<template>\n{b}\n</template>" for b in proposal_bodies])

draft = load_template("SB3", "without_examples", "cpg")
# the grader's settings grade every candidate; score() swaps in the candidate's template
grader = Grader(corpus.questions, Scheme.THREE_WAY, draft, task)
evaluator = PromptEvaluator(corpus.split("ua"), grader, metric="accuracy")
result = optimize(OptimizerConfig(steps=3, beam=1), draft, evaluator, critic)

print("candidate history (step, score):")
for c in result.history:
    kind = "draft" if c.step == 0 else f"proposal {c.step}"
    print(f"  step {c.step}: {c.score:.2f}  ({kind})")

print("\nbest retained score after each step:", [round(s, 2) for s in result.best_trace])
print("the trace is non-decreasing: rank-and-retain can never lose the best candidate")
print(f"\nwinning template starts: {result.best.template.body.splitlines()[0]!r}")
print(f"backend evaluations actually run: {evaluator.evaluations} (cache absorbs repeats)")
