"""Scenario evaluation: the grading pipeline, ablations, and reports.

One test response flows embed -> exact top-k -> prompt render -> backend
completion -> verdict parse -> confusion tally.  Unseen-answer runs grade
with retrieved examples; unseen-question/domain runs grade without, unless
a fraction of the test split is moved into the store first (the
rag-fraction experiment), embedded in batches as the store's own rows
are.  Metrics are averaged over the configured seeds,
which are graded as one stream of prompts: each seed is set up when the
stream reaches it, while the previous seed's last requests are in flight.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .corpus import Corpus, Question, Response, Scheme, collapse_label
from .embedding import DEFAULT_DIM, AdaptedEmbedder, Adapter, BaseEmbedder, EmbeddingError, HashEmbedder
from .glm import (
    GenParams,
    GlmBackend,
    ParseFailure,
    RetryExhausted,
    make_backend,
    parse_judgment,
)
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
from .training import TrainConfig, json_fields, train_for_corpus
from .vstore import RetrievalConfig, StoreError, VectorStore, build_store, top_k
from .vstore import entry_from_response  # noqa: F401  unused here; perfbench's tracer wraps it by name

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
    k: int = RetrievalConfig.k
    template_style: str = "cpg"
    backend: str = "mock"
    seeds: tuple[int, ...] = (1, 2, 3)
    rag_fraction: float | None = None
    embed_dim: int = DEFAULT_DIM
    # verdict used when parsing fails; None picks the scheme default
    fallback_label: str | None = None
    train_adapter: bool = False
    epochs: int = TrainConfig.epochs
    learning_rate: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    temperature: float = GenParams.temperature
    max_tokens: int = GenParams.max_tokens
    model_id: str | None = GenParams.model_id

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {min(self.seeds)}")
        if self.rag_fraction is not None and not (0.0 < self.rag_fraction < 1.0):
            raise ValueError("rag_fraction must lie strictly between 0 and 1")
        if self.fallback_label is not None and self.fallback_label not in self.scheme.labels():
            raise ValueError(
                f"fallback label {self.fallback_label!r} not in scheme {self.scheme.value}"
            )
        RetrievalConfig(self.k)  # the owners' own checks, before any set-up
        self.gen_params()
        self.train_config(0)

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
        return json_fields(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        """A config from JSON values; a value of the wrong type raises ValueError naming its field."""
        if not isinstance(obj, dict):
            raise ValueError(f"config must be a JSON object, got {type(obj).__name__}")
        types = typing.get_type_hints(cls)
        unknown = set(obj) - set(types)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        data = {}
        for name, value in obj.items():
            try:
                data[name] = _from_json(types[name], value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config field {name!r}: {exc}") from None
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _from_json(kind, value):
    """A JSON value as a config field of type kind, as json_fields writes it: an
    enum parses a string, seeds are a list of integers, a float also takes an int."""
    if kind == tuple[int, ...]:
        return tuple(_from_json(int, v) for v in _from_json(list, value))
    parse = getattr(kind, "parse", None)
    if parse is not None:
        return parse(_from_json(str, value))
    allowed = typing.get_args(kind) or (kind,)
    if float in allowed:
        allowed += (int,)
    if isinstance(value, allowed) and (bool in allowed or not isinstance(value, bool)):
        return value
    raise TypeError(f"expected {' or '.join(t.__name__ for t in allowed)}, got {value!r}")


@dataclass
class GradingOutcome:
    predictions: list[str]
    gold: list[str]
    parse_failures: int = 0
    backend_failures: int = 0

    def confusion(self, scheme: Scheme) -> ConfusionMatrix:
        return ConfusionMatrix.from_pairs(
            self.gold,
            self.predictions,
            labels=scheme.labels(),
            parse_failures=self.parse_failures,
        )


@dataclass
class Grader:
    """Everything grading needs besides the responses; see grade_responses."""

    questions: dict[str, Question]
    scheme: Scheme
    template: PromptTemplate
    backend: GlmBackend
    embedder: BaseEmbedder | None = None
    store: VectorStore | None = None
    retrieval: RetrievalConfig = RetrievalConfig()
    params: GenParams = GenParams()
    fallback_label: str | None = None


def grade_responses(runs) -> list[GradingOutcome]:
    """Grade each (grader, responses) of runs through the full pipeline against gold labels.

    Templates with an examples slot retrieve top-k from the store first;
    templates without grade on question and reference alone.  Verdicts
    that cannot be parsed, and responses whose backend call ran out of
    retries, fall back to fallback_label (scheme default when None) and
    are counted apart.  Any other backend error ends the grading.

    The runs are one stream over one pool, which the first grader's
    backend sizes, and which every later grader shares: runs may be a
    generator that builds each grader when the stream reaches it.
    Retrieval and rendering run on the calling thread; up to
    backend.concurrency prompts complete and parse at once.  Verdicts are
    taken in (run, response) order, so the outcomes equal a one-at-a-time
    run's, and the first backend error in that order is raised; a
    retrieval or render error is raised when it occurs, a failed
    retrieval as a HarnessError naming the response.  One run is
    grade_responses([(grader, responses)])[0]; perfbench wraps this name.
    """
    outcomes = []

    def prompt_for(g: Grader, r: Response) -> str:
        question = g.questions[r.question_id]
        examples = None
        if g.template.scenario == "with_examples":
            try:
                retrieved = top_k(g.store, r.text, g.embedder, g.retrieval, question_id=r.question_id)
            except (EmbeddingError, StoreError) as exc:
                raise HarnessError(f"response {r.id!r}: {exc}") from exc
            examples = format_examples(retrieved, g.scheme)
        bindings = PromptBindings(
            new_answer=r.text,
            question=question.text,
            reference_answer="\n".join(question.reference_answers),
            examples=examples,
        )
        return render(g.template, bindings)

    def judge(outcome, backend, params, scheme, style, fallback_label, prompt):
        """outcome, the verdict, and the type of the failure that made it the fallback."""
        try:
            raw = backend.complete(prompt, params)
            return outcome, parse_judgment(raw, scheme, style).label, None
        except (RetryExhausted, ParseFailure) as exc:
            return outcome, fallback_label or default_fallback(scheme), type(exc)

    def calls(run):
        while run is not None:
            g, responses = run
            del run
            if g.template.scenario == "with_examples" and (g.store is None or g.embedder is None):
                raise HarnessError("with_examples grading needs a store and an embedder")
            outcome = GradingOutcome(predictions=[], gold=[])
            outcomes.append(outcome)
            state = (outcome, g.backend, g.params, g.scheme, g.template.style, g.fallback_label)
            for r in responses:
                outcome.gold.append(collapse_label(r.label, g.scheme))
                yield partial(judge, *state, prompt_for(g, r))
            del g  # queued tasks never hold the grader: free it before the next run is drawn
            run = next(runs, None)

    runs = iter(runs)
    first = next(runs, None)  # set up before the pool exists, which starts no thread before a submit
    workers = getattr(first[0].backend, "concurrency", 1) if first else 1
    stream = calls(first)
    del first  # from here only the stream holds the first run, which it frees as the others
    verdicts = (call() for call in stream) if workers <= 1 else _in_order(stream, workers)
    for outcome, label, failure in verdicts:
        outcome.backend_failures += failure is RetryExhausted
        outcome.parse_failures += failure is ParseFailure
        outcome.predictions.append(label)
    return outcomes


def _in_order(calls, workers: int):
    """call() for each of calls on a pool of workers, yielded in call order.

    Calls are drawn lazily on the calling thread, at most 2 * workers
    ahead of the result being waited for.  When a call raises, the calls
    not yet started are cancelled and the error propagates once the
    running ones finish.
    """
    # No local variable may name a future whose result is being read: the
    # error it raises holds this frame, and the frame would hold the future
    # that holds the error, a cycle that keeps the caller's data alive
    # until the garbage collector runs.
    pending = deque()
    pool = ThreadPoolExecutor(workers)
    try:
        for call in calls:
            pending.append(pool.submit(call))
            if len(pending) >= 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass
class EvalReport:
    scenario: str
    scheme: str
    metrics: dict
    per_class: list[dict]
    parse_failures: int
    backend_failures: int
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
    extras: list[dict],
    outcomes: list[GradingOutcome],
    **manifest_extra,
) -> EvalReport:
    """Average per-run metrics and per-class stats into one report."""
    per_run = []
    for seed, extra, outcome in zip(config.seeds, extras, outcomes, strict=True):
        cm = outcome.confusion(config.scheme)
        row = {
            "seed": seed,
            **summarize(cm),
            "parse_failures": cm.parse_failures,
            "backend_failures": outcome.backend_failures,
            "per_class": [dataclasses.asdict(s) for s in per_class_stats(cm)],
        }
        row.update(extra, predictions=outcome.predictions)
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
        backend_failures=int(sum(row["backend_failures"] for row in per_run)),
        runs=len(per_run),
        seeds=list(config.seeds),
        manifest=manifest,
        per_run=per_run,
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
) -> Grader:
    """One seed's grader for a scenario under config.

    ua retrieves same-question examples from the train-split store, a
    rag-fraction run (config.rag_fraction set) retrieves corpus-wide,
    and uq/ud grade without examples.  A grader that retrieves examples
    trains the adapters not passed in for this seed when
    config.train_adapter is set, and builds a store not passed in with
    this seed's embedder; a store passed in must have been built by an
    embedder of the same id.
    """
    with_examples = scenario == "ua" or config.rag_fraction is not None
    template = load_template(
        scheme_task(config.scheme),
        "with_examples" if with_examples else "without_examples",
        config.template_style,
    )
    base = base or HashEmbedder(config.embed_dim)
    if with_examples and adapters is None and config.train_adapter:
        sets = build_training_sets(corpus, config.scheme, config.strategy, config.scope, seed)
        results = train_for_corpus(config.train_config(seed), corpus, sets, base)
        if config.scope is Scope.GLOBAL:
            adapters = results["global"].adapter
        else:
            adapters = {qid: res.adapter for qid, res in results.items()}
    embedder = base if adapters is None else AdaptedEmbedder(base, adapters)
    if with_examples and store is None:
        store = build_store(list(corpus.split("train")), embedder)
    elif with_examples and store.embedder_id != embedder.embedder_id:
        raise HarnessError(
            f"the store was built with embedder {store.embedder_id!r} "
            f"but this run embeds with {embedder.embedder_id!r}"
        )
    return Grader(
        questions=corpus.questions,
        scheme=config.scheme,
        template=template,
        backend=backend,
        embedder=embedder,
        store=store,
        retrieval=RetrievalConfig(config.k, same_question_only=scenario == "ua"),
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
    (same-question candidates); uq and ud grade without examples.  With
    config.rag_fraction set, which a ua run rejects, a uq/ud run is the
    rag-fraction experiment: each seed samples floor(fraction * |split|)
    responses uniformly and adds them to the store with their gold
    judgments, embedded in batches by VectorStore.extended, and the
    remainder is graded with examples over corpus-wide candidates; the
    adapter is never retrained on the moved fraction.  Any artifact not
    passed in is built on demand, once per seed, except that a
    rag-fraction store no trained adapter ties to a seed is built once,
    and the base embedder, whose token memo every seed then shares, once
    per run.

    The seeds are graded as one grade_responses stream over one pool: a
    seed's set-up runs on the calling thread when the stream first asks
    for its first prompt, overlapping the previous seed's last requests,
    and the previous seed's grader is freed first.
    Verdicts are read in (seed, response) order; an error in a seed's
    set-up is raised when it occurs, and of the backend errors the first
    in that order is raised.
    """
    scenario = scenario.lower()
    if scenario not in SCENARIOS:
        raise HarnessError(f"unknown scenario {scenario!r}")
    rag = config.rag_fraction is not None
    if rag and scenario == "ua":
        raise HarnessError("rag-fraction experiments run on the uq or ud scenario")
    responses = list(corpus.split(scenario))
    if not responses:
        raise HarnessError(f"corpus has no {scenario} split")
    backend = backend or make_backend(config.backend)
    base = base or HashEmbedder(config.embed_dim)

    def grader_for(seed: int) -> Grader:
        return seed_grader(corpus, scenario, config, seed, backend, base, adapters, store)

    # only trained adapters tie a rag-fraction store to a seed; otherwise it is built once
    trains = adapters is None and config.train_adapter
    shared = grader_for(config.seeds[0]) if rag and not trains else None
    extras, manifest_extra, template = [], {}, None

    def runs():
        nonlocal manifest_extra, template
        for seed in config.seeds:
            grader = shared or grader_for(seed)
            graded, extra = responses, {}
            if rag:
                rng = np.random.default_rng(seed)
                n_moved = int(config.rag_fraction * len(responses))
                moved_idx = set(rng.choice(len(responses), size=n_moved, replace=False).tolist())
                moved = [r for i, r in enumerate(responses) if i in moved_idx]
                graded = [r for i, r in enumerate(responses) if i not in moved_idx]
                manifest_extra = {"base_store_entries": len(grader.store)}
                grader = dataclasses.replace(grader, store=grader.store.extended(moved, grader.embedder))
                extra = {
                    "moved_to_store": len(moved),
                    "scored": len(graded),
                    "moved_ids": [r.id for r in moved],
                }
            extras.append({**extra, "response_ids": [r.id for r in graded]})
            template = grader.template
            yield grader, graded
            del grader  # free this seed's store before the next seed builds one

    outcomes = grade_responses(runs())
    return _mean_reports(scenario, config, corpus, template, extras, outcomes, **manifest_extra)


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
    """run_scenario on a uq or ud split with config.rag_fraction set to fraction."""
    return run_scenario(
        corpus,
        scenario,
        dataclasses.replace(config, rag_fraction=fraction),
        backend=backend,
        base=base,
        adapters=adapters,
        store=store,
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

