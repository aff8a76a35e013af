"""Output checks computed apart from the program.

A checker is built once from the generated corpus records, works out
what it expects once, and then returns for each of the program's reports
how many predictions disagree, so that 0 means correct.  The checkers
embed texts with their own copy of the feature-hashing spec, pick nearest
neighbours with plain numpy, and never call into ragrade.

Vectors are quantised the way the store keeps them: unit length, then
float32, then float64 for scoring.  Ties go to the lowest row index,
which is the store's documented tie-break.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np

DIM = 384
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def collapse3(label: str) -> str:
    """Five-way gold label folded onto the 3-way scheme."""
    return label if label in ("correct", "contradictory") else "incorrect"


def hash_embed(text: str) -> np.ndarray:
    """Signed feature hashing of word tokens and boundary-padded trigrams.

    Each feature adds +1 or -1 to one of DIM buckets, chosen by the first
    8 bytes of its blake2b digest read little-endian: the bucket is that
    number mod DIM, the sign is + when its top bit is set.
    """
    vec = np.zeros(DIM, dtype=np.float64)
    for token in _TOKEN_RE.findall(text.lower()):
        padded = f"#{token}#"
        features = ["w:" + token] + ["t:" + padded[i : i + 3] for i in range(len(padded) - 2)]
        for feature in features:
            h = int.from_bytes(
                hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest(), "little"
            )
            vec[h % DIM] += 1.0 if h >> 63 else -1.0
    return vec / np.linalg.norm(vec)


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / float(np.linalg.norm(vec))


def nearest_labels(queries, stored, same_question: bool, weights=None) -> list[str]:
    """Collapsed label of each query's top-1 cosine neighbour among stored.

    queries and stored are corpus response records; weights maps a
    question id to an adapter matrix applied before normalising.
    """

    def embed(rec):
        vec = hash_embed(rec["text"])
        if weights is not None and rec["question_id"] in weights:
            vec = _unit(weights[rec["question_id"]] @ vec)
        return vec

    rows = np.stack([_unit(embed(rec)).astype(np.float32) for rec in stored]).astype(np.float64)
    by_question: dict[str, list[int]] = {}
    for i, rec in enumerate(stored):
        by_question.setdefault(rec["question_id"], []).append(i)
    by_question = {qid: np.array(idx) for qid, idx in by_question.items()}
    out = []
    for rec in queries:
        query = _unit(embed(rec))
        if same_question:
            candidates = by_question[rec["question_id"]]
            best = int(candidates[int(np.argmax(rows[candidates] @ query))])
        else:
            best = int(np.argmax(rows @ query))
        out.append(collapse3(stored[best]["label"]))
    return out


def _split(records, name):
    return [r for r in records if r.get("split") == name]


def _mismatches(run: dict, ids: list[str], expected: list[str]) -> int:
    """Predictions that differ from expected; a wrong id order fails them all."""
    if run["response_ids"] != ids or len(run["predictions"]) != len(expected):
        return len(expected)
    return sum(p != e for p, e in zip(run["predictions"], expected))


def ua_checker(records, weights=None):
    """Check of a ua report: every seed's predictions equal the
    same-question 1-NN over train."""
    ua, train = _split(records, "ua"), _split(records, "train")
    ids = [r["id"] for r in ua]
    expected = nearest_labels(ua, train, same_question=True, weights=weights)
    return lambda report: sum(_mismatches(run, ids, expected) for run in report.per_run)


def uq_checker(records):
    """Check of a uq report: every prediction equals the collapsed gold label."""
    uq = _split(records, "uq")
    ids = [r["id"] for r in uq]
    expected = [collapse3(r["label"]) for r in uq]
    return lambda report: sum(_mismatches(run, ids, expected) for run in report.per_run)


def ragfrac_checker(records, fraction: float):
    """Check of a rag-fraction report.

    Each seed's moved and held-out ids must split uq with floor(fraction
    * n) moved, both in corpus order, and the predictions must equal the
    corpus-wide 1-NN over train followed by the moved answers.
    """
    uq, train = _split(records, "uq"), _split(records, "train")
    by_id = {r["id"]: r for r in uq}
    uq_ids = [r["id"] for r in uq]
    expected_by_moved: dict[tuple, list[str]] = {}

    def check(report) -> int:
        bad = 0
        for run in report.per_run:
            moved, held = run["moved_ids"], run["response_ids"]
            moved_set = set(moved)
            if not (
                len(moved) == math.floor(fraction * len(uq))
                and len(moved_set) == len(moved)
                and moved == [i for i in uq_ids if i in moved_set]
                and held == [i for i in uq_ids if i not in moved_set]
            ):
                bad += len(uq) - math.floor(fraction * len(uq))
                continue
            key = tuple(moved)
            if key not in expected_by_moved:
                expected_by_moved[key] = nearest_labels(
                    [by_id[i] for i in held], train + [by_id[i] for i in moved], False
                )
            bad += _mismatches(run, held, expected_by_moved[key])
        return bad

    return check


def balanced_pair_count(labels: list[str]) -> int:
    """Size of one question's balanced pair set under the general rule.

    Pairs of answers in the same collapsed category are positives; all
    positives are kept and negatives are down-sampled to match them.
    """
    counts: dict[str, int] = {}
    for label in labels:
        counts[collapse3(label)] = counts.get(collapse3(label), 0) + 1
    n = len(labels)
    positives = sum(c * (c - 1) // 2 for c in counts.values())
    negatives = n * (n - 1) // 2 - positives
    return positives + min(positives, negatives)


def check_adapters(records, weights, epochs, batch_size, lr, clip, weight_decay) -> int:
    """Adapters that are non-finite, cover the wrong questions or drift wrongly.

    Drift ||W - I||_F must be above 0 and within what steps gradient steps
    of size lr * (clip + weight_decay * max ||W||) can travel.
    """
    train = _split(records, "train")
    labels_by_q: dict[str, list[str]] = {}
    for r in train:
        labels_by_q.setdefault(r["question_id"], []).append(r["label"])
    bad = 0 if set(weights) == set(labels_by_q) else len(labels_by_q)
    eye = np.eye(DIM)
    for qid, w in weights.items():
        if qid not in labels_by_q or w.shape != (DIM, DIM) or not np.all(np.isfinite(w)):
            bad += 1
            continue
        steps = epochs * math.ceil(balanced_pair_count(labels_by_q[qid]) / batch_size)
        max_norm = (math.sqrt(DIM) + steps * lr * clip) / (1 - steps * lr * weight_decay)
        bound = steps * lr * (clip + weight_decay * max_norm)
        drift = float(np.linalg.norm(w - eye))
        bad += not (0.0 < drift <= bound)
    return bad
