"""Pair and triplet training sets mined from a corpus.

Pairs are unordered, never cross question boundaries, and carry a binary
same-category label under a strict or general rule.  Triplets assign each
response the anchor role in turn with round-robin positive/negative
cycling.  Balanced sets keep every positive pair and down-sample the
negatives to match.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, Response, Scheme, collapse_label


class Strategy(enum.Enum):
    """Pair labeling rule.

    STRICT: 1 only when both answers are correct or both incorrect;
    same-category pairs of any other category get 0.
    GENERAL: 1 whenever both answers share a collapsed category.
    """

    STRICT = "strict"
    GENERAL = "general"

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        return cls(text.lower().strip())


class Scope(enum.Enum):
    """Per-question training sets vs. a single merged set."""

    QUESTION = "question"
    GLOBAL = "global"

    @classmethod
    def parse(cls, text: str) -> "Scope":
        key = text.lower().strip()
        if key in ("question", "question-specific", "question_specific"):
            return cls.QUESTION
        if key == "global":
            return cls.GLOBAL
        raise ValueError(f"unknown scope {text!r}")


@dataclass(frozen=True)
class Pair:
    """Unordered response pair; a_id < b_id canonically."""

    a_id: str
    b_id: str
    question_id: str
    label: int | None = None

    def __post_init__(self):
        if self.a_id == self.b_id:
            raise ValueError(f"pair of a response with itself: {self.a_id!r}")
        if self.a_id > self.b_id:
            a, b = self.a_id, self.b_id
            object.__setattr__(self, "a_id", b)
            object.__setattr__(self, "b_id", a)


@dataclass(frozen=True)
class Triplet:
    anchor_id: str
    positive_id: str
    negative_id: str
    question_id: str

    def __post_init__(self):
        ids = (self.anchor_id, self.positive_id, self.negative_id)
        if len(set(ids)) != 3:
            raise ValueError(f"triplet ids must be distinct: {ids}")


def derive_seed(base_seed: int, *parts: str) -> int:
    """Stable per-key seed so parallel per-question work stays reproducible."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(base_seed).encode())
    for part in parts:
        h.update(b"\x00" + part.encode())
    return int.from_bytes(h.digest(), "little")


def enumerate_pairs(responses: list[Response]) -> list[Pair]:
    """All unordered, unique pairs of responses to one question: n(n-1)/2."""
    _one_question(responses)
    return [Pair(a.id, b.id, a.question_id) for a, b in itertools.combinations(responses, 2)]


def _one_question(responses: list[Response]) -> None:
    qids = {r.question_id for r in responses}
    if len(qids) > 1:
        raise ValueError(f"responses span multiple questions: {sorted(qids)}")


def label_pairs(
    pairs: list[Pair],
    by_id: dict[str, Response],
    scheme: Scheme,
    strategy: Strategy,
) -> list[Pair]:
    """Label each pair under the scheme's collapsed categories.

    A pair gets 1 when both answers share a category (GENERAL), and under
    STRICT only when that shared category is correct or incorrect.  Under
    5-way there is no "incorrect" category, so strict labeling privileges
    only "correct" there.
    """
    ids = {i for p in pairs for i in (p.a_id, p.b_id)}
    category = {i: collapse_label(by_id[i].label, scheme) for i in ids}
    labels = _pair_labels(
        np.array([category[p.a_id] for p in pairs]), np.array([category[p.b_id] for p in pairs]), strategy
    )
    return [
        Pair(a_id=p.a_id, b_id=p.b_id, question_id=p.question_id, label=int(label))
        for p, label in zip(pairs, labels)
    ]


def _pair_labels(first: np.ndarray, second: np.ndarray, strategy: Strategy) -> np.ndarray:
    """label_pairs' rule on the category pairs (first[i], second[i])."""
    same = first == second
    if strategy is Strategy.STRICT:
        same &= np.isin(first, ("correct", "incorrect"))
    return same


def balance(pairs: list[Pair], seed: int) -> list[Pair]:
    """Keep all 1-labeled pairs; down-sample 0-labeled pairs to match.

    Sampling is uniform without replacement and deterministic under the
    seed.  If there are fewer negatives than positives, all negatives are
    kept and the set stays imbalanced.  Input order is preserved.
    """
    return [pairs[i] for i in _balanced(np.array([p.label for p in pairs]), seed)]


def _balanced(labels: np.ndarray, seed: int) -> np.ndarray:
    """The ascending indices balance keeps of pairs with these labels."""
    positives = np.flatnonzero(labels == 1)
    negatives = np.flatnonzero(labels == 0)
    rng = np.random.default_rng(seed)
    n_keep = min(len(positives), len(negatives))
    kept_neg = rng.choice(len(negatives), size=n_keep, replace=False)
    return np.sort(np.concatenate([positives, negatives[kept_neg]]))


def build_triplets(responses: list[Response], scheme: Scheme, seed: int) -> list[Triplet]:
    """Round-robin triplets over responses to a single question.

    Each response anchors in turn; same-category peers and other-category
    responses are shuffled once per anchor and cycled.  Anchors without a
    peer or without a negative are skipped.  The per-anchor count is
    capped at max(1, peers // 2), which also guarantees no duplicate
    triplets.
    """
    _one_question(responses)
    rng = np.random.default_rng(seed)
    categories = {r.id: collapse_label(r.label, scheme) for r in responses}
    triplets = []
    for anchor in responses:
        peers = [r for r in responses if r.id != anchor.id and categories[r.id] == categories[anchor.id]]
        others = [r for r in responses if categories[r.id] != categories[anchor.id]]
        if not peers or not others:
            continue
        peers = [peers[i] for i in rng.permutation(len(peers))]
        others = [others[i] for i in rng.permutation(len(others))]
        for i in range(min(max(1, len(peers) // 2), len(peers) * len(others))):
            triplets.append(
                Triplet(
                    anchor_id=anchor.id,
                    positive_id=peers[i % len(peers)].id,
                    negative_id=others[i % len(others)].id,
                    question_id=anchor.question_id,
                )
            )
    return triplets


@dataclass
class TrainingSets:
    """Balanced pair sets and triplet sets, per question or merged."""

    scheme: Scheme
    strategy: Strategy
    scope: Scope
    seed: int
    pair_sets: dict[str, list[Pair]]
    triplet_sets: Mapping[str, list[Triplet]]  # build_training_sets' builds a set on first lookup

    def merged_pairs(self) -> list[Pair]:
        """Concatenation of per-question balanced sets, in sorted question order."""
        return [p for qid in sorted(self.pair_sets) for p in self.pair_sets[qid]]

    def merged_triplets(self) -> list[Triplet]:
        return [t for qid in sorted(self.triplet_sets) for t in self.triplet_sets[qid]]

    def manifest(self) -> dict:
        imbalanced = [
            qid
            for qid, pairs in self.pair_sets.items()
            if sum(p.label for p in pairs) != sum(1 - p.label for p in pairs)
        ]
        return {
            "scheme": self.scheme.value,
            "strategy": self.strategy.value,
            "scope": self.scope.value,
            "seed": self.seed,
            "questions": len(self.pair_sets),
            "pairs": sum(len(v) for v in self.pair_sets.values()),
            "pairs_positive": sum(
                1 for v in self.pair_sets.values() for p in v if p.label == 1
            ),
            # questions whose negatives ran out before matching the positives
            "imbalanced_questions": sorted(imbalanced),
            "triplets": sum(len(v) for v in self.triplet_sets.values()),
        }


def build_training_sets(
    corpus: Corpus,
    scheme: Scheme,
    strategy: Strategy,
    scope: Scope,
    seed: int,
) -> TrainingSets:
    """Mine, label, and balance train-split pair sets (and triplet sets) per question.

    Balancing happens before any merging, so the global set is exactly
    the union of the per-question balanced sets.  Per-question seeds are
    derived from the base seed and the question id.  A question's triplet
    set is built when it is first read (`_Triplets`); the seed it is built
    with does not depend on when that is.
    """
    pair_sets: dict[str, list[Pair]] = {}
    by_question = corpus.by_question("train")
    for qid, responses in by_question.items():
        # enumerate_pairs' order, labeled and balanced as indices: a Pair only for each kept pair
        categories = np.array([collapse_label(r.label, scheme) for r in responses])
        first, second = np.triu_indices(len(responses), 1)
        labels = _pair_labels(categories[first], categories[second], strategy)
        keep = _balanced(labels, derive_seed(seed, qid))
        ids = [r.id for r in responses]
        kept = zip(first[keep].tolist(), second[keep].tolist(), labels[keep].astype(int).tolist())
        pair_sets[qid] = [Pair(ids[i], ids[j], qid, label) for i, j, label in kept]
    return TrainingSets(
        scheme=scheme,
        strategy=strategy,
        scope=scope,
        seed=seed,
        pair_sets=pair_sets,
        triplet_sets=_Triplets(by_question, scheme, seed),
    )


class _Triplets(Mapping):
    """Read-only question id -> triplet set, each set built with its derived
    seed on first lookup, so that training on pairs never builds one."""

    def __init__(self, by_question: dict[str, list[Response]], scheme: Scheme, seed: int):
        self._by_question, self._scheme, self._seed = by_question, scheme, seed
        self._built: dict[str, list[Triplet]] = {}

    def __getitem__(self, qid: str) -> list[Triplet]:
        if qid not in self._built:
            seed = derive_seed(self._seed, qid, "triplets")
            self._built[qid] = build_triplets(self._by_question[qid], self._scheme, seed)
        return self._built[qid]

    def __iter__(self):
        return iter(self._by_question)

    def __len__(self) -> int:
        return len(self._by_question)


def write_pairs_jsonl(pairs: list[Pair], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(json.dumps({"a": p.a_id, "b": p.b_id, "label": p.label, "qid": p.question_id}) + "\n")


def write_triplets_jsonl(triplets: list[Triplet], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for t in triplets:
            row = {"anchor": t.anchor_id, "pos": t.positive_id, "neg": t.negative_id, "qid": t.question_id}
            fh.write(json.dumps(row) + "\n")
