"""The benchmark's workloads: corpus shape, one round, and its output check.

A round is one whole user-level job, from parsing the corpus file to the
last verdict: what `ragrade evaluate` (or `train-embedder` followed by
`evaluate --adapter`, or `rag-fraction`) does in one process.  Rounds call
ragrade through module attributes, so that a tracer can wrap them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

import ragrade.corpus
import ragrade.glm
import ragrade.harness
import ragrade.pairs
import ragrade.training
from ragrade.corpus import Scheme
from ragrade.embedding import HashEmbedder
from ragrade.harness import ExperimentConfig
from ragrade.losses import LossKind
from ragrade.pairs import Scope, Strategy

import fakeglm
import gen
import oracle

SEEDS = (1, 2, 3)
K = 5
RAG_FRACTION = 0.5
# a limiter that never binds: the default 10 req/s would be what gets measured
LIMITER_RPS = 1e6
TRAIN_SEED = 0  # train-embedder's default --seed
TRAIN_CONFIG = ragrade.training.TrainConfig(loss=LossKind.COSINE_SENTENCE, seed=TRAIN_SEED)

CONFIG = ExperimentConfig(scheme=Scheme.THREE_WAY, seeds=SEEDS, k=K, backend="remote")
# one seed: a rag-fraction seed grades half of a large split, which is
# as many requests as the ua workload makes over all three seeds
RAGFRAC_CONFIG = dataclasses.replace(CONFIG, seeds=(1,))


@dataclass
class Outcome:
    report: ragrade.harness.EvalReport
    graded: int
    weights: dict | None = None  # question id -> trained adapter matrix


@dataclass(frozen=True)
class Workload:
    name: str
    shape: gen.Shape
    run_round: Callable[[str, fakeglm.FakeSession], Outcome]
    # records -> check of one round's outcome, returning the wrong outputs
    checker: Callable[[list[dict]], Callable[[Outcome], int]]
    expected_grades: Callable[[gen.Shape], int]


def backend(session: fakeglm.FakeSession) -> ragrade.glm.RemoteBackend:
    return ragrade.glm.RemoteBackend(
        endpoint=fakeglm.ENDPOINT,
        session=session,
        limiter=ragrade.glm.RateLimiter(requests_per_second=LIMITER_RPS),
    )


def _graded(report) -> int:
    return sum(len(run["predictions"]) for run in report.per_run)


def _scenario(scenario: str, path: str, session, adapters=None) -> Outcome:
    corpus = ragrade.corpus.parse_jsonl(path)
    report = ragrade.harness.run_scenario(
        corpus, scenario, CONFIG, backend=backend(session), adapters=adapters
    )
    return Outcome(report, _graded(report))


def ua_remote(path, session) -> Outcome:
    return _scenario("ua", path, session)


def uq_remote(path, session) -> Outcome:
    return _scenario("uq", path, session)


def uq_ragfrac(path, session) -> Outcome:
    corpus = ragrade.corpus.parse_jsonl(path)
    report = ragrade.harness.rag_fraction_experiment(
        corpus, "uq", RAG_FRACTION, RAGFRAC_CONFIG, backend=backend(session)
    )
    return Outcome(report, _graded(report))


def ua_train(path, session) -> Outcome:
    """train-embedder (question scope, defaults), then evaluate --adapter."""
    corpus = ragrade.corpus.parse_jsonl(path)
    sets = ragrade.pairs.build_training_sets(
        corpus, Scheme.THREE_WAY, Strategy.GENERAL, Scope.QUESTION, TRAIN_SEED
    )
    results = ragrade.training.train_for_corpus(TRAIN_CONFIG, corpus, sets, HashEmbedder())
    adapters = {qid: res.adapter for qid, res in results.items()}
    report = ragrade.harness.run_scenario(
        corpus, "ua", CONFIG, backend=backend(session), adapters=adapters
    )
    return Outcome(report, _graded(report), {q: a.weights for q, a in adapters.items()})


def _on_report(make_check):
    """Checker of outcomes from a checker of reports."""

    def checker(records):
        check = make_check(records)
        return lambda outcome: check(outcome.report)

    return checker


def train_checker(records):
    """The first round's adapters must pass the adapter check, every later
    round must train the very same ones, and predictions must equal the
    1-NN computed with them."""
    first: dict = {}

    def check(outcome) -> int:
        if not first:
            c = TRAIN_CONFIG
            first["weights"] = outcome.weights
            first["bad"] = oracle.check_adapters(
                records, outcome.weights, c.epochs, c.batch_size, c.learning_rate,
                c.max_grad_norm, c.weight_decay,
            )
            # without trustworthy weights there is no expected neighbour to compare with
            first["ua"] = None if first["bad"] else oracle.ua_checker(records, outcome.weights)
        weights = first["weights"]
        changed = len(set(weights) ^ set(outcome.weights)) + sum(
            not np.array_equal(w, weights.get(q)) for q, w in outcome.weights.items()
        )
        if first["bad"] or changed:
            return first["bad"] + changed
        return first["ua"](outcome.report)

    return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ua-remote",
            gen.Shape(train_questions=36, train_per_question=36, ua_per_question=4,
                      uq_questions=0, uq_per_question=0),
            ua_remote,
            _on_report(oracle.ua_checker),
            lambda s: len(SEEDS) * s.train_questions * s.ua_per_question,
        ),
        Workload(
            "uq-remote",
            gen.Shape(train_questions=36, train_per_question=36, ua_per_question=4,
                      uq_questions=4, uq_per_question=45),
            uq_remote,
            _on_report(oracle.uq_checker),
            lambda s: len(SEEDS) * s.uq_questions * s.uq_per_question,
        ),
        Workload(
            "uq-ragfrac",
            gen.Shape(train_questions=5, train_per_question=36, ua_per_question=0,
                      uq_questions=20, uq_per_question=40),
            uq_ragfrac,
            _on_report(lambda records: oracle.ragfrac_checker(records, RAG_FRACTION)),
            lambda s: len(RAGFRAC_CONFIG.seeds) * (
                s.uq_questions * s.uq_per_question
                - int(RAG_FRACTION * s.uq_questions * s.uq_per_question)),
        ),
        Workload(
            "ua-train",
            gen.Shape(train_questions=6, train_per_question=36, ua_per_question=4,
                      uq_questions=0, uq_per_question=0),
            ua_train,
            train_checker,
            lambda s: len(SEEDS) * s.train_questions * s.ua_per_question,
        ),
    )
}
