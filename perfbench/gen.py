"""Seeded synthetic grading corpora, written as canonical ragrade JSONL.

Every text is made of pseudo-words drawn from a seeded vocabulary, so the
same seed always writes the same bytes and nothing has to be downloaded.

Each question owns a topic of key words, and its reference answer is a
sentence over those key words.  A student answer is built from its gold
label:

- correct: most of the key words, shuffled, with a few function words;
- partially correct but incomplete: a third to a half of the key words;
- contradictory: about half of the key words plus a negation word;
- irrelevant: key words of another question;
- non-domain: one of a few stock non-answers plus vocabulary noise.

Gold labels follow the five-way mix of the SciEntsBank train split
(40 / 27 / 11 / 21 / 1 percent).  Answers are unique within a corpus and
never contain a newline, so a prompt carries each one on a line of its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LABELS = (
    "correct",
    "partially correct but incomplete",
    "contradictory",
    "irrelevant",
    "non-domain",
)
LABEL_MIX = (0.40, 0.27, 0.11, 0.21, 0.01)

_SYLLABLES = (
    "ba be bi bo bu ca ce ci co cu da de di do du fa fe fi fo fu ga ge gi go "
    "la le li lo lu ma me mi mo mu na ne ni no nu pa pe pi po pu ra re ri ro "
    "ru sa se si so su ta te ti to tu va ve vi vo vu za ze zi zo zu"
).split()
_FUNCTION_WORDS = (
    "the a of is it because when and to in more less so that this will "
    "then from with by"
).split()
_NEGATIONS = ("not", "never", "no", "opposite", "cannot")
_NON_ANSWERS = ("i do not know", "no idea", "skip this one", "what is the answer")
KEY_WORDS = 10  # per question


@dataclass(frozen=True)
class Shape:
    """How many questions and answers each split of a corpus gets."""

    train_questions: int  # questions with train (and ua) answers
    train_per_question: int
    ua_per_question: int
    uq_questions: int  # questions absent from train
    uq_per_question: int


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    words: set[str] = set()
    out = []
    while len(out) < size:
        n = int(rng.integers(2, 5))
        word = "".join(_SYLLABLES[int(i)] for i in rng.integers(len(_SYLLABLES), size=n))
        if word not in words:
            words.add(word)
            out.append(word)
    return out


def _pick(rng, items, n):
    n = max(1, min(n, len(items)))
    return [items[int(i)] for i in rng.choice(len(items), size=n, replace=False)]


def _answer(rng, label, keys, other_keys, noise):
    k = len(keys)
    if label == "correct":
        words = _pick(rng, keys, int(rng.integers(k * 6 // 10, k + 1)))
    elif label == "partially correct but incomplete":
        words = _pick(rng, keys, int(rng.integers(k // 3, k // 2 + 1)))
    elif label == "contradictory":
        words = _pick(rng, keys, k // 2) + [_NEGATIONS[int(rng.integers(len(_NEGATIONS)))]]
    elif label == "irrelevant":
        words = _pick(rng, other_keys, int(rng.integers(3, 8)))
    else:
        words = _NON_ANSWERS[int(rng.integers(len(_NON_ANSWERS)))].split()
    words = words + _pick(rng, _FUNCTION_WORDS, int(rng.integers(2, 6)))
    words = words + _pick(rng, noise, int(rng.integers(1, 4)))
    order = rng.permutation(len(words))
    return " ".join(words[int(i)] for i in order)


def generate(shape: Shape, seed: int) -> list[dict]:
    """Corpus records in canonical JSONL order (questions precede responses)."""
    rng = np.random.default_rng(seed)
    n_questions = shape.train_questions + shape.uq_questions
    vocab = _vocabulary(rng, n_questions * KEY_WORDS + 400)
    noise = vocab[n_questions * KEY_WORDS :]
    topics = [vocab[i * KEY_WORDS : (i + 1) * KEY_WORDS] for i in range(n_questions)]
    records = []
    for qi, keys in enumerate(topics):
        records.append(
            {
                "kind": "question",
                "id": f"q{qi:03d}",
                "text": "why does the " + " ".join(keys[:3]) + " change",
                "references": [" ".join(keys) + " because of the " + keys[0]],
            }
        )
    seen: set[str] = set()
    counter = 0

    def responses(qi, split, count):
        nonlocal counter
        other = topics[(qi + 1 + int(rng.integers(n_questions - 1))) % n_questions]
        for _ in range(count):
            label = LABELS[int(rng.choice(len(LABELS), p=LABEL_MIX))]
            text = _answer(rng, label, topics[qi], other, noise)
            while text in seen:
                text = text + " " + noise[int(rng.integers(len(noise)))]
            seen.add(text)
            counter += 1
            records.append(
                {
                    "kind": "response",
                    "id": f"r{counter:05d}",
                    "question_id": f"q{qi:03d}",
                    "split": split,
                    "text": text,
                    "label": label,
                }
            )

    for qi in range(shape.train_questions):
        responses(qi, "train", shape.train_per_question)
        responses(qi, "ua", shape.ua_per_question)
    for qi in range(shape.train_questions, n_questions):
        responses(qi, "uq", shape.uq_per_question)
    return records


def write(records: list[dict], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
