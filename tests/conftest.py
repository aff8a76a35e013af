import json
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from ragrade.corpus import Corpus, Label, Question, Response

FIXTURES = Path(__file__).parent / "fixtures"

# filled by test_acceptance, printed after the run
ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, status in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{status:<5} {name}")


def make_corpus(
    questions: dict[str, str],
    responses: list[tuple[str, str, str, Label]],
    references: dict[str, list[str]] | None = None,
    name: str = "test",
) -> Corpus:
    """Corpus from (response_id, question_id, split, label) rows.

    Response text defaults to a distinct token sequence per id so hash
    embeddings are distinguishable; pass a 5-tuple with explicit text to
    control similarity structure.
    """
    references = references or {}
    qmap = {
        qid: Question(id=qid, text=text, reference_answers=tuple(references.get(qid, ())))
        for qid, text in questions.items()
    }
    splits: dict[str, list[Response]] = {}
    for row in responses:
        if len(row) == 4:
            rid, qid, split, label = row
            text = f"answer tokens {rid} {qid}"
        else:
            rid, qid, split, label, text = row
        splits.setdefault(split, []).append(
            Response(id=rid, question_id=qid, text=text, label=label)
        )
    return Corpus(
        name=name, questions=qmap, splits={s: tuple(rs) for s, rs in splits.items()}
    )


# the directory each split's question files go to in a SemEval-shaped tree
SEMEVAL_DIRS = {
    "train": "train",
    "ua": "test-unseen-answers",
    "uq": "test-unseen-questions",
    "ud": "test-unseen-domains",
}


def semeval_records(
    seed: int,
    train_questions: int = 135,
    train: int = 4969,
    ua: int = 540,
    uq_questions: int = 15,
    uq: int = 733,
    ud_questions: int = 46,
    ud: int = 4562,
) -> list[dict]:
    """Seeded JSONL-schema records, by default at SciEntsBank's shape.

    Answers are spread evenly over their split's questions, and each
    question's answers in a split are contiguous.  ua uses the train
    questions.  Questions come in the order a sorted SemEval tree first
    names them: train (every one has ua answers), then ud, then uq.
    Texts hold XML-special and non-ASCII characters but no surrounding or
    line-breaking whitespace, which XML does not keep.
    """
    rng = np.random.default_rng(seed)
    words = ["volt", "bulb", "loop", "café", "naïve", "a<b", "R&D", '"so"', "it's", "¿qué?"]
    # spellings the XML release uses
    labels = ["correct", "partially_correct_incomplete", "contradictory", "irrelevant",
              "non_domain"]

    def text(n):
        return " ".join(rng.choice(words, n))

    groups = {
        "train": [f"t{i:03d}" for i in range(train_questions)],
        "ud": [f"d{i:03d}" for i in range(ud_questions)],
        "uq": [f"u{i:03d}" for i in range(uq_questions)],
    }
    records = [
        {"kind": "question", "id": qid, "text": text(5),
         "references": [text(4) for _ in range(i % 3)]}
        for qids in groups.values()
        for i, qid in enumerate(qids)
    ]
    groups["ua"] = groups["train"]
    for split, count in (("train", train), ("ua", ua), ("uq", uq), ("ud", ud)):
        for qid, chunk in zip(groups[split], np.array_split(np.arange(count), len(groups[split]))):
            records += [
                {
                    "kind": "response",
                    "id": f"{split}{n:05d}",
                    "question_id": qid,
                    "split": split,
                    "text": text(int(rng.integers(1, 9))),
                    "label": labels[int(rng.integers(len(labels)))],
                }
                for n in chunk
            ]
    return records


def write_records(path: Path, records: list[dict]) -> Path:
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    return path


def write_semeval_tree(root: Path, records: list[dict]) -> Path:
    """Write JSONL-schema records as a tree of per-question SemEval XML files.

    Each split's responses to one question go to one file in the split's
    SEMEVAL_DIRS directory, with the question's text and references.  A
    file is named by the position of its first response, so sorted file
    order is record order; a split's responses to one question must be
    contiguous.
    """
    questions = {rec["id"]: rec for rec in records if rec["kind"] == "question"}
    files: dict[tuple[str, str], tuple[int, list[dict]]] = {}
    last: dict[str, str] = {}  # split -> question of its latest response
    for n, rec in enumerate(records):
        if rec["kind"] == "response":
            split, qid = key = rec["split"], rec["question_id"]
            assert key not in files or last[split] == qid, f"{key}: responses not contiguous"
            last[split] = qid
            files.setdefault(key, (n, []))[1].append(rec)
    for (split, qid), (first, answers) in files.items():
        question = questions[qid]
        node = ET.Element("question", id=qid)
        ET.SubElement(node, "questionText").text = question["text"]
        refs = ET.SubElement(node, "referenceAnswers")
        for i, ref in enumerate(question.get("references", [])):
            ET.SubElement(refs, "referenceAnswer", id=f"{qid}.ref{i}").text = ref
        students = ET.SubElement(node, "studentAnswers")
        for rec in answers:
            answer = ET.SubElement(students, "studentAnswer", id=rec["id"], accuracy=rec["label"])
            answer.text = rec["text"]
        path = root / SEMEVAL_DIRS[split] / f"{first:06d}-{qid}.xml"
        path.parent.mkdir(parents=True, exist_ok=True)
        ET.ElementTree(node).write(path, encoding="utf-8", xml_declaration=True)
    return root


@pytest.fixture
def tiny_corpus_path() -> Path:
    return FIXTURES / "tiny.jsonl"


@pytest.fixture
def tiny_corpus(tiny_corpus_path):
    from ragrade.corpus import parse_jsonl

    return parse_jsonl(tiny_corpus_path)


@pytest.fixture
def backoff_sleeps(monkeypatch):
    """Records the seconds each remote retry would sleep, instead of sleeping.

    glm.post_json looks up time.sleep on each retry when its caller passes
    no sleep, as RemoteEmbedder does."""
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    return sleeps
