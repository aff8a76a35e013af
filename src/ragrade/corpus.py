"""Answer corpora: labels, collapse schemes, parsing, and validation.

A corpus holds questions (with reference answers) and student responses
split into train / unseen-answers (ua) / unseen-questions (uq) /
unseen-domains (ud) partitions.  Every response carries a five-way gold
judgment; three-way and two-way views are derived by collapsing.
"""

from __future__ import annotations

import enum
import json
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

SPLITS = ("train", "ua", "uq", "ud")


class Label(enum.Enum):
    """Five-way gold judgment of a student response."""

    CORRECT = "correct"
    PC_INCOMPLETE = "partially correct but incomplete"
    CONTRADICTORY = "contradictory"
    IRRELEVANT = "irrelevant"
    NON_DOMAIN = "non-domain"

    @classmethod
    def parse(cls, text: str) -> "Label":
        """Resolve a judgment string to a Label.

        Matching is case-insensitive and tolerant of underscore/hyphen/
        whitespace variants ("non_domain" == "non-domain").  Raises
        UnknownLabelError for anything unrecognized, a non-string too.
        """
        if isinstance(text, str):
            # every alias is its own normal form, so only a miss normalizes
            label = _LABEL_ALIASES.get(text) or _LABEL_ALIASES.get(_normalize_label_text(text))
            if label is not None:
                return label
        raise UnknownLabelError(text)


def _normalize_label_text(text: str) -> str:
    text = text.lower().replace("_", " ").replace("-", " ")
    text = re.sub(r"[^a-z0-9 ]+", " ", text)
    return re.sub(r"\s+", " ", text).strip()


_LABEL_ALIASES: dict[str, Label] = {}
for _label in Label:
    _LABEL_ALIASES[_normalize_label_text(_label.value)] = _label
for _alias, _label in [
    ("partially correct incomplete", Label.PC_INCOMPLETE),
    ("pc incomplete", Label.PC_INCOMPLETE),
    ("pc inc", Label.PC_INCOMPLETE),
    ("contra", Label.CONTRADICTORY),
    ("nondomain", Label.NON_DOMAIN),
]:
    _LABEL_ALIASES[_alias] = _label


class Scheme(enum.Enum):
    """Classification granularity: 5-way, 3-way, or 2-way."""

    FIVE_WAY = "5way"
    THREE_WAY = "3way"
    TWO_WAY = "2way"

    @classmethod
    def parse(cls, text: str) -> "Scheme":
        key = text.lower().replace("-", "").replace("_", "").strip()
        for scheme in cls:
            if key == scheme.value:
                return scheme
        raise ValueError(f"unknown scheme {text!r} (expected 5way, 3way, or 2way)")

    def labels(self) -> tuple[str, ...]:
        """Canonical label strings of this scheme, in report order."""
        if self is Scheme.FIVE_WAY:
            return tuple(label.value for label in Label)
        if self is Scheme.THREE_WAY:
            return ("correct", "incorrect", "contradictory")
        return ("correct", "incorrect")


def collapse_label(label: Label, scheme: Scheme) -> str:
    """Map a five-way label onto the scheme's label set.

    3-way keeps "correct" and "contradictory" and folds everything else
    (partially correct, irrelevant, non-domain) into "incorrect".  2-way
    keeps "correct" and folds the rest into "incorrect".
    """
    if scheme is Scheme.FIVE_WAY:
        return label.value
    if scheme is Scheme.THREE_WAY:
        if label is Label.CORRECT:
            return "correct"
        if label is Label.CONTRADICTORY:
            return "contradictory"
        return "incorrect"
    return "correct" if label is Label.CORRECT else "incorrect"


class CorpusError(Exception):
    """Raised when corpus input cannot be parsed into a valid corpus."""


class UnknownLabelError(CorpusError):
    def __init__(self, text: str):
        super().__init__(f"unknown judgment string {text!r}")
        self.text = text


@dataclass(frozen=True)
class Question:
    id: str
    text: str
    reference_answers: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.text.strip():
            raise CorpusError(f"question {self.id!r} has empty text")


@dataclass(frozen=True)
class Response:
    """A student answer with its five-way gold judgment."""

    id: str
    question_id: str
    text: str
    label: Label

    def __post_init__(self):
        if not self.text.strip():
            raise CorpusError(f"response {self.id!r} has empty text")


@dataclass(frozen=True)
class Corpus:
    """Immutable bundle of questions and split response lists.

    Construction enforces referential integrity (unique ids, resolvable
    question ids).  Split-level constraints (ua questions must appear in
    train, uq/ud questions must not) are checked by validate_corpus,
    which reports rather than raises.
    """

    name: str
    questions: dict[str, Question]
    splits: dict[str, tuple[Response, ...]] = field(default_factory=dict)

    def __post_init__(self):
        seen: set[str] = set()
        for split, responses in self.splits.items():
            if split not in SPLITS:
                raise CorpusError(f"unknown split {split!r}")
            for r in responses:
                if r.id in seen:
                    raise CorpusError(f"duplicate response id {r.id!r}")
                seen.add(r.id)
                if r.question_id not in self.questions:
                    raise CorpusError(
                        f"response {r.id!r} references unknown question {r.question_id!r}"
                    )

    def split(self, name: str) -> tuple[Response, ...]:
        return self.splits.get(name, ())

    def question_ids(self, split: str) -> set[str]:
        return {r.question_id for r in self.split(split)}

    def by_question(self, split: str) -> dict[str, list[Response]]:
        """Responses of a split grouped by question id (insertion order)."""
        groups: dict[str, list[Response]] = {}
        for r in self.split(split):
            groups.setdefault(r.question_id, []).append(r)
        return groups

    def label_counts(self, split: str) -> dict[str, int]:
        counts = {label.value: 0 for label in Label}
        for r in self.split(split):
            counts[r.label.value] += 1
        return counts


@dataclass
class ValidationReport:
    violations: list[str]
    counts: dict[str, dict[str, int]]  # split -> label -> count

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_corpus(corpus: Corpus) -> ValidationReport:
    """Check split-level invariants and tally per-split label counts."""
    violations = []
    train_qids = corpus.question_ids("train")
    for qid in sorted(corpus.question_ids("ua") - train_qids):
        violations.append(f"ua split uses question {qid!r} absent from train")
    for split in ("uq", "ud"):
        for qid in sorted(corpus.question_ids(split) & train_qids):
            violations.append(f"{split} split shares question {qid!r} with train")
    counts = {
        split: corpus.label_counts(split) for split in SPLITS if corpus.split(split)
    }
    return ValidationReport(violations=violations, counts=counts)


# ---------------------------------------------------------------------------
# JSONL canonical format
#
# One JSON object per line, blank lines skipped; every value shown as ...
# is a string, and "references" an array of strings:
#   {"kind": "question", "id": ..., "text": ..., "references": [...]}
#   {"kind": "response", "id": ..., "question_id": ..., "split": ...,
#    "text": ..., "label": ...}
# ---------------------------------------------------------------------------


_DECODER = json.JSONDecoder()

# the JSON name of each type the decoder returns, for error messages
_JSON_TYPES = {
    dict: "object",
    list: "array",
    str: "string",
    int: "number",
    float: "number",
    bool: "boolean",
    type(None): "null",
}


def parse_jsonl(path: str | Path, name: str | None = None) -> Corpus:
    """Parse the canonical JSONL corpus format.

    One streamed pass: each non-blank line is decoded, checked and built
    into its Question or Response before the next is read.  A line that
    breaks the schema raises CorpusError naming path:line and the field.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"corpus file not found: {path}")
    questions: dict[str, Question] = {}
    responses: dict[str, list[Response]] = {s: [] for s in SPLITS}
    seen_r: set[str] = set()

    def need(lineno: int, obj: dict, key: str, string: bool = True):
        if key not in obj:
            raise CorpusError(f"{path}:{lineno}: missing field {key!r}")
        value = obj[key]
        if string and not isinstance(value, str):
            raise CorpusError(
                f"{path}:{lineno}: field {key!r} must be a string, got {_JSON_TYPES[type(value)]}"
            )
        return value

    with path.open(encoding="utf-8") as fh:
        for lineno, line in _lines(fh, path):
            try:
                obj, end = _DECODER.raw_decode(line)
            except json.JSONDecodeError:
                end = -1
            if end != len(line):
                # json.loads rejects the line with its own message: a leading
                # BOM, trailing data, or the raw decoder's error
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise CorpusError(
                    f"{path}:{lineno}: expected a JSON object, got {_JSON_TYPES[type(obj)]}"
                )
            kind = need(lineno, obj, "kind", string=False)
            if kind == "question":
                qid = need(lineno, obj, "id")
                if qid in questions:
                    raise CorpusError(f"{path}:{lineno}: duplicate question id {qid!r}")
                references = obj.get("references", [])
                if not isinstance(references, list):
                    raise CorpusError(
                        f"{path}:{lineno}: field 'references' must be an array of strings, "
                        f"got {_JSON_TYPES[type(references)]}"
                    )
                for ref in references:
                    if not isinstance(ref, str):
                        raise CorpusError(
                            f"{path}:{lineno}: field 'references' must be an array of strings, "
                            f"got an array holding a {_JSON_TYPES[type(ref)]}"
                        )
                questions[qid] = Question(
                    id=qid, text=need(lineno, obj, "text"), reference_answers=tuple(references)
                )
            elif kind == "response":
                rid = need(lineno, obj, "id")
                if rid in seen_r:
                    raise CorpusError(f"{path}:{lineno}: duplicate response id {rid!r}")
                seen_r.add(rid)
                split = need(lineno, obj, "split", string=False)
                if split not in SPLITS:
                    raise CorpusError(f"{path}:{lineno}: unknown split {split!r}")
                try:
                    label = Label.parse(need(lineno, obj, "label"))
                except UnknownLabelError as exc:
                    raise CorpusError(f"{path}:{lineno}: {exc}") from None
                qid = need(lineno, obj, "question_id")
                if qid not in questions:
                    raise CorpusError(
                        f"{path}:{lineno}: response {rid!r} references unknown "
                        f"question {qid!r} (questions must precede responses)"
                    )
                responses[split].append(
                    Response(id=rid, question_id=qid, text=need(lineno, obj, "text"), label=label)
                )
            else:
                raise CorpusError(f"{path}:{lineno}: unknown kind {kind!r}")

    return Corpus(
        name=name or path.stem,
        questions=questions,
        splits={s: tuple(rs) for s, rs in responses.items() if rs},
    )


def _lines(fh, path: Path):
    """(line number, stripped line) of each non-blank line of the UTF-8 text fh reads."""
    try:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield lineno, line
    except UnicodeDecodeError:
        # the text layer decodes ahead of the lines it hands out, so the
        # undecodable byte's line is found in the raw bytes
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[: exc.start].decode("utf-8")
            lineno = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
            raise CorpusError(f"{path}:{lineno}: invalid UTF-8 ({exc})") from None
        raise


def write_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the canonical JSONL format (UTF-8, one object per line)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for q in corpus.questions.values():
            fh.write(
                json.dumps(
                    {
                        "kind": "question",
                        "id": q.id,
                        "text": q.text,
                        "references": list(q.reference_answers),
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
        for split in SPLITS:
            for r in corpus.split(split):
                fh.write(
                    json.dumps(
                        {
                            "kind": "response",
                            "id": r.id,
                            "question_id": r.question_id,
                            "split": split,
                            "text": r.text,
                            "label": r.label.value,
                        },
                        ensure_ascii=False,
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# SemEval-2013 task 7 XML release
# ---------------------------------------------------------------------------

_SPLIT_MARKERS = (
    ("unseen-answers", "ua"),
    ("unseen_answers", "ua"),
    ("unseen-questions", "uq"),
    ("unseen_questions", "uq"),
    ("unseen-domains", "ud"),
    ("unseen_domains", "ud"),
    ("train", "train"),
)

# The student-answer judgment attribute has shifted names across release
# variants; probe them in order.
_JUDGMENT_ATTRS = ("accuracy", "judgment", "category", "label")


def _split_for(path: Path, root: Path) -> str:
    for part in path.relative_to(root).parts:
        low = part.lower()
        for marker, split in _SPLIT_MARKERS:
            if marker in low:
                return split
    return "train"


def parse_semeval_xml(root_path: str | Path, name: str | None = None) -> Corpus:
    """Parse a directory tree of per-question XML files.

    Splits are inferred from path components (train / unseen-answers /
    unseen-questions / unseen-domains); files without a marker are
    treated as train.  Question text, reference answers, and student
    answers with their judgment attribute are extracted from each file.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise CorpusError(f"dataset directory not found: {root}")
    files = sorted(root.rglob("*.xml"))
    if not files:
        raise CorpusError(f"no question files found under {root}")

    questions: dict[str, Question] = {}
    responses: dict[str, list[Response]] = {s: [] for s in SPLITS}
    seen_r: set[str] = set()
    for path in files:
        split = _split_for(path, root)
        try:
            tree = ET.parse(path)
        except ET.ParseError as exc:
            raise CorpusError(f"{path}: malformed XML ({exc})") from None
        node = tree.getroot()
        qid = node.get("id") or path.stem
        qtext_node = node.find("questionText")
        qtext = (qtext_node.text or "").strip() if qtext_node is not None else ""
        references = tuple(
            (ref.text or "").strip()
            for ref in node.iter("referenceAnswer")
            if (ref.text or "").strip()
        )
        if qid not in questions:
            questions[qid] = Question(
                id=qid, text=qtext or qid, reference_answers=references
            )
        for i, ans in enumerate(node.iter("studentAnswer")):
            raw_label = next(
                (ans.get(attr) for attr in _JUDGMENT_ATTRS if ans.get(attr)), None
            )
            if raw_label is None:
                raise CorpusError(f"{path}: studentAnswer without judgment attribute")
            try:
                label = Label.parse(raw_label)
            except UnknownLabelError:
                raise CorpusError(
                    f"{path}: unknown judgment string {raw_label!r}"
                ) from None
            rid = ans.get("id") or f"{qid}.{split}.{i}"
            if rid in seen_r:
                rid = f"{rid}.{split}.{i}"
            seen_r.add(rid)
            text = (ans.text or "").strip()
            if not text:
                continue
            responses[split].append(
                Response(id=rid, question_id=qid, text=text, label=label)
            )

    return Corpus(
        name=name or root.name,
        questions=questions,
        splits={s: tuple(rs) for s, rs in responses.items() if rs},
    )
