"""Spans recorded around the program's public functions, from outside it.

`Tracer.installed()` replaces module attributes and class methods of
ragrade (and the fake session's `post`) with wrappers that record one
span per call: name, round, parent span, start and end in nanoseconds,
and a few attributes read from the arguments or the result after the
span has ended.  Spans stay in memory; `write` dumps them as JSONL and
`layer_metrics` folds them into the per-layer metrics.

A layer's self time is its span minus the spans of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from statistics import median

import numpy as np


def _top_k_note(tracer, args, kwargs, result):
    store, config = args[0], args[3]
    qid = kwargs.get("question_id", args[4] if len(args) > 4 else None)
    if config.same_question_only:
        key = id(store)
        if key not in tracer._store_counts:
            # keep the store alive so its id is not reused by another store
            counts = Counter(e.metadata.get("question_id") for e in store.entries)
            tracer._store_counts[key] = (store, counts)
        candidates = tracer._store_counts[key][1][qid]
    else:
        candidates = len(store)
    return {"rows": len(store), "candidates": candidates}


def _targets():
    """(owner, attribute, span name, note) for every wrapped callable."""
    import ragrade.corpus
    import ragrade.embedding
    import ragrade.glm
    import ragrade.harness
    import ragrade.pairs
    import ragrade.training
    import ragrade.vstore
    from fakeglm import FakeSession

    harness = ragrade.harness
    training = ragrade.training
    return [
        (ragrade.corpus, "parse_jsonl", "corpus.parse", None),
        (ragrade.embedding.HashEmbedder, "embed", "embedding.embed", None),
        (ragrade.embedding.Adapter, "apply", "embedding.adapter_apply", None),
        (harness, "run_scenario", "harness.run", None),
        (harness, "rag_fraction_experiment", "harness.run", None),
        (harness, "grade_responses", "harness.grade", None),
        (harness, "build_store", "vstore.build", None),
        (harness, "top_k", "vstore.top_k", _top_k_note),
        (harness, "entry_from_response", "vstore.extend", None),
        (ragrade.vstore.VectorStore, "extended", "vstore.extend", None),
        (harness, "load_template", "prompts.load_template", None),
        (harness, "render", "prompts.render", lambda t, a, k, r: {"bytes": len(r.encode("utf-8"))}),
        (harness, "parse_judgment", "glm.parse", None),
        (ragrade.glm.RemoteBackend, "complete", "glm.complete", None),
        (ragrade.glm.RateLimiter, "__enter__", "glm.limiter", None),
        (FakeSession, "post", "glm.post", None),
        (ragrade.pairs, "build_training_sets", "pairs.mine",
         lambda t, a, k, r: {"pairs": sum(len(v) for v in r.pair_sets.values())}),
        (training, "train_for_corpus", "training.train", lambda t, a, k, r: {"adapters": len(r)}),
        (training, "cosine_similarity_loss", "losses.step", None),
        (training, "cosine_sentence_loss", "losses.step", None),
        (training, "triplet_loss", "losses.step", None),
    ]


class Span:
    __slots__ = ("name", "round", "parent", "start", "end", "child_ns", "attrs", "error")

    def __init__(self, name, round_, parent):
        self.name = name
        self.round = round_
        self.parent = parent
        self.child_ns = 0
        self.attrs = None
        self.error = None

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self._stack: list[Span] = []
        self._store_counts: dict = {}

    def _wrap(self, fn, name, note):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, tracer.round, parent)
            tracer._stack.append(span)
            result = None
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_ns += span.end - span.start
                tracer.spans.append(span)
                if note is not None and span.error is None:
                    span.attrs = note(tracer, args, kwargs, result)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, note in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": s.name,
                    "round": s.round,
                    "parent": ids.get(id(s.parent)),
                    "start_ns": s.start,
                    "end_ns": s.end,
                    "self_ns": s.self_ns,
                }
                if s.attrs:
                    record["attrs"] = s.attrs
                if s.error:
                    record["error"] = s.error
                fh.write(json.dumps(record) + "\n")


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: counts and totals are medians over rounds,
    percentiles pool the samples of all rounds."""
    rounds = sorted({s.round for s in spans}) or [0]
    per_round = {r: {} for r in rounds}
    for s in spans:
        per_round[s.round].setdefault(s.name, []).append(s)

    def by_round(fn):
        return float(median(fn(per_round[r]) for r in rounds))

    def count(name):
        return by_round(lambda g: len(g.get(name, ())))

    def total_s(name, self_time=False):
        return by_round(
            lambda g: sum((s.self_ns if self_time else s.ns) for s in g.get(name, ())) / 1e9
        )

    def mean_attr(name, key):
        def one(g):
            vals = [s.attrs[key] for s in g.get(name, ()) if s.attrs]
            return sum(vals) / len(vals) if vals else 0.0

        return by_round(one)

    def sum_attr(name, key):
        return by_round(lambda g: sum(s.attrs[key] for s in g.get(name, ()) if s.attrs))

    def samples(name, self_time=False):
        return [(s.self_ns if self_time else s.ns) for s in spans if s.name == name]

    def errors(name, error):
        return by_round(lambda g: sum(s.error == error for s in g.get(name, ())))

    us, ms = 1e-3, 1e-6
    return {
        "corpus.parse_s": (total_s("corpus.parse"), "s"),
        "embedding.embed_calls": (count("embedding.embed"), "count"),
        "embedding.embed_us_p50": (_pct(samples("embedding.embed"), 50) * us, "us"),
        "embedding.embed_s": (total_s("embedding.embed"), "s"),
        "embedding.adapter_apply_s": (total_s("embedding.adapter_apply"), "s"),
        "vstore.build_calls": (count("vstore.build"), "count"),
        "vstore.build_s": (total_s("vstore.build"), "s"),
        "vstore.top_k_calls": (count("vstore.top_k"), "count"),
        "vstore.top_k_us_p50": (_pct(samples("vstore.top_k"), 50) * us, "us"),
        "vstore.top_k_us_p99": (_pct(samples("vstore.top_k"), 99) * us, "us"),
        "vstore.top_k_self_us_p50": (_pct(samples("vstore.top_k", True), 50) * us, "us"),
        "vstore.candidates_mean": (mean_attr("vstore.top_k", "candidates"), "count"),
        "vstore.rows": (mean_attr("vstore.top_k", "rows"), "count"),
        "vstore.extend_s": (total_s("vstore.extend"), "s"),
        "prompts.render_calls": (count("prompts.render"), "count"),
        "prompts.render_us_p50": (_pct(samples("prompts.render"), 50) * us, "us"),
        "prompts.prompt_bytes_mean": (mean_attr("prompts.render", "bytes"), "bytes"),
        "glm.complete_calls": (count("glm.complete"), "count"),
        "glm.posts": (count("glm.post"), "count"),
        "glm.complete_ms_p50": (_pct(samples("glm.complete"), 50) * ms, "ms"),
        "glm.complete_ms_p99": (_pct(samples("glm.complete"), 99) * ms, "ms"),
        "glm.client_self_us_p50": (_pct(samples("glm.complete", True), 50) * us, "us"),
        "glm.wait_s": (total_s("glm.post"), "s"),
        "glm.limiter_wait_s": (total_s("glm.limiter"), "s"),
        "glm.parse_us_p50": (_pct(samples("glm.parse"), 50) * us, "us"),
        "glm.parse_failures": (errors("glm.parse", "ParseFailure"), "count"),
        "harness.grade_self_s": (total_s("harness.grade", self_time=True), "s"),
        "harness.run_self_s": (total_s("harness.run", self_time=True), "s"),
        "pairs.mine_s": (total_s("pairs.mine"), "s"),
        "pairs.pairs": (sum_attr("pairs.mine", "pairs"), "count"),
        "training.train_s": (total_s("training.train"), "s"),
        "training.adapters": (sum_attr("training.train", "adapters"), "count"),
        "losses.steps": (count("losses.step"), "count"),
        "losses.step_us_p50": (_pct(samples("losses.step"), 50) * us, "us"),
    }
