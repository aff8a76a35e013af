"""Scenario evaluation: the grading pipeline, ablations, and reports.

One test response flows embed -> exact top-k -> prompt render -> backend
completion -> verdict parse -> confusion tally.  Unseen-answer runs grade
with retrieved examples; unseen-question/domain runs grade without, unless
a fraction of the test split is moved into the store first (the
rag-fraction experiment).  Metrics are averaged over the configured seeds.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, Label, Question, Response, Scheme, collapse_label
from .embedding import (
    DEFAULT_DIM,
    AdaptedEmbedder,
    Adapter,
    BaseEmbedder,
    HashEmbedder,
    QuestionRoutedEmbedder,
)
from .glm import GenParams, GlmBackend, ParseFailure, make_backend, parse_judgment
from .losses import LossKind
from .metrics import ConfusionMatrix, per_class_stats, summarize
from .pairs import Scope, Strategy, build_training_sets
from .prompts import (
    PromptBindings,
    PromptTemplate,
    format_examples,
    load_template,
    render,
    scheme_task,
)
from .training import TrainConfig, train_for_corpus
from .vstore import RetrievalConfig, VectorStore, build_store, entry_from_response, top_k

SCENARIOS = ("ua", "uq", "ud")


class HarnessError(Exception):
    pass


def default_fallback(scheme: Scheme) -> str:
    """Verdict charged to unparseable completions.

    "incorrect" for the collapsed schemes; the five-way label set has no
    incorrect class, so contentless output lands in "non-domain" there.
    """
    return "incorrect" if "incorrect" in scheme.labels() else "non-domain"


@dataclass
class ExperimentConfig:
    """Everything a scoring run needs, serializable as one JSON object."""

    corpus: str | None = None
    scheme: Scheme = Scheme.THREE_WAY
    strategy: Strategy = Strategy.GENERAL
    scope: Scope = Scope.QUESTION
    loss: LossKind = LossKind.COSINE_SENTENCE
    k: int = 5
    template_style: str = "cpg"
    backend: str = "mock"
    seeds: tuple[int, ...] = (1, 2, 3)
    rag_fraction: float | None = None
    embed_dim: int = DEFAULT_DIM
    # verdict used when parsing fails; None picks the scheme default
    fallback_label: str | None = None
    train_adapter: bool = False
    epochs: int = 3
    learning_rate: float = 6e-6
    batch_size: int = 8
    temperature: float = 0.0
    max_tokens: int = 64
    # None sends $RAGRADE_GLM_MODEL, or "default" when that is unset
    model_id: str | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.rag_fraction is not None and not (0.0 < self.rag_fraction < 1.0):
            raise ValueError("rag_fraction must lie strictly between 0 and 1")
        if self.fallback_label is not None and self.fallback_label not in self.scheme.labels():
            raise ValueError(
                f"fallback label {self.fallback_label!r} not in scheme {self.scheme.value}"
            )

    def gen_params(self) -> GenParams:
        return GenParams(
            temperature=self.temperature, max_tokens=self.max_tokens, model_id=self.model_id
        )

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            loss=self.loss,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            seed=seed,
        )

    def manifest(self) -> dict:
        out = dataclasses.asdict(self)
        out["scheme"] = self.scheme.value
        out["strategy"] = self.strategy.value
        out["scope"] = self.scope.value
        out["loss"] = self.loss.value
        out["seeds"] = list(self.seeds)
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        data = dict(obj)
        if "scheme" in data:
            data["scheme"] = Scheme.parse(data["scheme"])
        if "strategy" in data:
            data["strategy"] = Strategy.parse(data["strategy"])
        if "scope" in data:
            data["scope"] = Scope.parse(data["scope"])
        if "loss" in data:
            data["loss"] = LossKind.parse(data["loss"])
        if "seeds" in data:
            data["seeds"] = tuple(data["seeds"])
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class GradingOutcome:
    predictions: list[str]
    gold: list[str]
    parse_failures: int
    raw_completions: list[str] = field(default_factory=list)

    def confusion(self, scheme: Scheme) -> ConfusionMatrix:
        return ConfusionMatrix.from_pairs(
            self.gold,
            self.predictions,
            labels=scheme.labels(),
            parse_failures=self.parse_failures,
        )


def grade_responses(
    responses: list[Response],
    questions: dict[str, Question],
    scheme: Scheme,
    template: PromptTemplate,
    backend: GlmBackend,
    embedder: BaseEmbedder | None = None,
    store: VectorStore | None = None,
    k: int = 5,
    same_question_only: bool = False,
    params: GenParams | None = None,
    fallback_label: str | None = None,
) -> GradingOutcome:
    """Grade responses through the full pipeline against gold labels.

    Templates with an examples slot retrieve top-k from the store first;
    templates without grade on question and reference alone.  Verdicts
    that cannot be parsed fall back to fallback_label (scheme default
    when None) and are counted.
    """
    with_examples = template.scenario == "with_examples"
    if with_examples and (store is None or embedder is None):
        raise HarnessError("with_examples grading needs a store and an embedder")
    params = params or GenParams()
    fallback_label = fallback_label or default_fallback(scheme)
    retrieval = RetrievalConfig(k=k, same_question_only=same_question_only)

    outcome = GradingOutcome(predictions=[], gold=[], parse_failures=0)
    for r in responses:
        question = questions[r.question_id]
        examples = None
        if with_examples:
            retrieved = top_k(store, r.text, embedder, retrieval, question_id=r.question_id)
            examples = format_examples(retrieved, scheme)
        bindings = PromptBindings(
            new_answer=r.text,
            question=question.text,
            reference_answer="\n".join(question.reference_answers),
            examples=examples,
        )
        prompt = render(template, bindings)
        raw = backend.complete(prompt, params)
        outcome.raw_completions.append(raw)
        try:
            outcome.predictions.append(parse_judgment(raw, scheme, template.style).label)
        except ParseFailure:
            outcome.predictions.append(fallback_label)
            outcome.parse_failures += 1
        outcome.gold.append(collapse_label(r.label, scheme))
    return outcome


@dataclass
class EvalReport:
    scenario: str
    scheme: str
    metrics: dict
    per_class: list[dict]
    parse_failures: int
    runs: int
    seeds: list[int]
    manifest: dict
    per_run: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.as_dict(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )


def _mean_reports(
    scenario: str,
    config: ExperimentConfig,
    corpus: Corpus,
    template: PromptTemplate,
    run_outcomes: list[tuple[int, ConfusionMatrix, dict]],
    **manifest_extra,
) -> EvalReport:
    """Average per-run metrics and per-class stats into one report."""
    per_run = []
    for seed, cm, extra in run_outcomes:
        stats = per_class_stats(cm)
        row = {
            "seed": seed,
            **summarize(cm),
            "parse_failures": cm.parse_failures,
            "per_class": [s.as_dict() for s in stats],
        }
        row.update(extra)
        per_run.append(row)
    keys = ("acc", "m_f1", "w_f1", "micro_f1")
    metrics = {key: float(np.mean([row[key] for row in per_run])) for key in keys}
    per_class = []
    for i, label in enumerate(config.scheme.labels()):
        entry = {"label": label}
        for key in ("precision", "recall", "f1", "support"):
            entry[key] = float(np.mean([row["per_class"][i][key] for row in per_run]))
        per_class.append(entry)
    manifest = config.manifest()
    manifest.update({"corpus_name": corpus.name, "template": template.id, **manifest_extra})
    return EvalReport(
        scenario=scenario,
        scheme=config.scheme.value,
        metrics=metrics,
        per_class=per_class,
        parse_failures=int(sum(row["parse_failures"] for row in per_run)),
        runs=len(per_run),
        seeds=[seed for seed, _, _ in run_outcomes],
        manifest=manifest,
        per_run=per_run,
    )


def resolve_embedder(
    base: BaseEmbedder,
    adapters: dict[str, Adapter] | Adapter | None = None,
) -> BaseEmbedder:
    """Base embedder wrapped with a single or per-question adapter set."""
    if adapters is None:
        return base
    if isinstance(adapters, Adapter):
        return AdaptedEmbedder(base, adapters)
    return QuestionRoutedEmbedder(base, adapters)


@dataclass
class Grader:
    """Everything grading needs besides the responses; see grade_responses."""

    questions: dict[str, Question]
    scheme: Scheme
    template: PromptTemplate
    backend: GlmBackend
    embedder: BaseEmbedder | None = None
    store: VectorStore | None = None
    k: int = 5
    same_question_only: bool = False
    params: GenParams | None = None
    fallback_label: str | None = None

    def grade(self, responses: list[Response]) -> GradingOutcome:
        return grade_responses(
            responses,
            self.questions,
            self.scheme,
            self.template,
            self.backend,
            embedder=self.embedder,
            store=self.store,
            k=self.k,
            same_question_only=self.same_question_only,
            params=self.params,
            fallback_label=self.fallback_label,
        )


def seed_grader(
    corpus: Corpus,
    scenario: str,
    config: ExperimentConfig,
    seed: int,
    backend: GlmBackend,
    base: BaseEmbedder | None = None,
    adapters: dict[str, Adapter] | Adapter | None = None,
    store: VectorStore | None = None,
    rag: bool = False,
) -> Grader:
    """One seed's grader for a scenario under config.

    ua retrieves same-question examples from the train-split store, a
    rag-fraction run (rag) retrieves corpus-wide, and uq/ud grade
    without examples.  Adapters not passed in are trained for this seed
    when config.train_adapter is set; a store not passed in is built
    with this seed's embedder.
    """
    with_examples = scenario == "ua" or rag
    template = load_template(
        scheme_task(config.scheme),
        "with_examples" if with_examples else "without_examples",
        config.template_style,
    )
    base = base or HashEmbedder(config.embed_dim)
    if adapters is None and config.train_adapter:
        sets = build_training_sets(corpus, config.scheme, config.strategy, config.scope, seed)
        results = train_for_corpus(config.train_config(seed), corpus, sets, base)
        if config.scope is Scope.GLOBAL:
            adapters = results["global"].adapter
        else:
            adapters = {qid: res.adapter for qid, res in results.items()}
    embedder = resolve_embedder(base, adapters)
    if with_examples and store is None:
        store = build_store(list(corpus.split("train")), embedder, corpus.questions)
    return Grader(
        questions=corpus.questions,
        scheme=config.scheme,
        template=template,
        backend=backend,
        embedder=embedder,
        store=store,
        k=config.k,
        same_question_only=scenario == "ua",
        params=config.gen_params(),
        fallback_label=config.fallback_label,
    )


def run_scenario(
    corpus: Corpus,
    scenario: str,
    config: ExperimentConfig,
    backend: GlmBackend | None = None,
    base: BaseEmbedder | None = None,
    adapters: dict[str, Adapter] | Adapter | None = None,
    store: VectorStore | None = None,
) -> EvalReport:
    """Evaluate one test scenario, averaging metrics across config.seeds.

    ua grades with retrieved examples against the train-split store
    (same-question candidates); uq and ud grade without examples, or as
    a rag-fraction experiment when config.rag_fraction is set.  Any
    artifact not passed in is built on demand, once per seed.
    """
    scenario = scenario.lower()
    if scenario not in SCENARIOS:
        raise HarnessError(f"unknown scenario {scenario!r}")
    if config.rag_fraction is not None and scenario in ("uq", "ud"):
        return rag_fraction_experiment(
            corpus,
            scenario,
            config.rag_fraction,
            config,
            backend=backend,
            base=base,
            adapters=adapters,
            store=store,
        )
    responses = list(corpus.split(scenario))
    if not responses:
        raise HarnessError(f"corpus has no {scenario} split")
    backend = backend or make_backend(config.backend)
    run_outcomes = []
    for seed in config.seeds:
        grader = seed_grader(corpus, scenario, config, seed, backend, base, adapters, store)
        outcome = grader.grade(responses)
        extra = {
            "response_ids": [r.id for r in responses],
            "predictions": outcome.predictions,
        }
        run_outcomes.append((seed, outcome.confusion(config.scheme), extra))
        template = grader.template
        del grader  # free this seed's store before the next seed builds one
    return _mean_reports(scenario, config, corpus, template, run_outcomes)


def rag_fraction_experiment(
    corpus: Corpus,
    scenario: str,
    fraction: float,
    config: ExperimentConfig,
    backend: GlmBackend | None = None,
    base: BaseEmbedder | None = None,
    adapters: dict[str, Adapter] | Adapter | None = None,
    store: VectorStore | None = None,
) -> EvalReport:
    """Move a seeded fraction of a shifted test split into the store, then grade.

    floor(fraction * |split|) responses are sampled uniformly per seed and
    added to the store with their gold judgments; the remainder is graded
    with the with-examples template over corpus-wide candidates.  The
    adapter is never retrained on the moved fraction.
    """
    scenario = scenario.lower()
    if scenario not in ("uq", "ud"):
        raise HarnessError("rag-fraction experiments run on the uq or ud scenario")
    if not (0.0 < fraction < 1.0):
        raise HarnessError("fraction must lie strictly between 0 and 1")
    responses = list(corpus.split(scenario))
    if not responses:
        raise HarnessError(f"corpus has no {scenario} split")
    backend = backend or make_backend(config.backend)
    # only trained adapters tie the store to a seed; otherwise it is built once
    trains = adapters is None and config.train_adapter
    shared = None if trains else seed_grader(
        corpus, scenario, config, config.seeds[0], backend, base, adapters, store, rag=True
    )
    run_outcomes = []
    for seed in config.seeds:
        grader = shared or seed_grader(
            corpus, scenario, config, seed, backend, base, adapters, store, rag=True
        )
        rng = np.random.default_rng(seed)
        n_moved = int(fraction * len(responses))
        moved_idx = set(rng.choice(len(responses), size=n_moved, replace=False).tolist())
        moved = [r for i, r in enumerate(responses) if i in moved_idx]
        held_out = [r for i, r in enumerate(responses) if i not in moved_idx]
        extended = grader.store.extended([entry_from_response(r, grader.embedder) for r in moved])
        outcome = dataclasses.replace(grader, store=extended).grade(held_out)
        extra = {
            "moved_to_store": len(moved),
            "scored": len(held_out),
            "moved_ids": [r.id for r in moved],
            "response_ids": [r.id for r in held_out],
            "predictions": outcome.predictions,
        }
        run_outcomes.append((seed, outcome.confusion(config.scheme), extra))
        template, base_entries = grader.template, len(grader.store)
        del grader, extended  # free a trained seed's store before the next one
    return _mean_reports(
        scenario,
        config,
        corpus,
        template,
        run_outcomes,
        rag_fraction=fraction,
        base_store_entries=base_entries,
    )


def format_report_table(reports: list[EvalReport]) -> str:
    """Aligned text table, one row per scenario, metrics in percent."""
    header = f"{'Scenario':<10} {'Acc':>7} {'M-F1':>7} {'W-F1':>7}"
    lines = [header, "-" * len(header)]
    for rep in reports:
        m = rep.metrics
        lines.append(
            f"{rep.scenario.upper():<10} {100 * m['acc']:>7.2f} "
            f"{100 * m['m_f1']:>7.2f} {100 * m['w_f1']:>7.2f}"
        )
    return "\n".join(lines)


def nearest_neighbor_predictions(
    responses: list[Response],
    store: VectorStore,
    embedder: BaseEmbedder,
    scheme: Scheme,
    same_question_only: bool = False,
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
