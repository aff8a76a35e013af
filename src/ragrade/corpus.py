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

    One streamed pass: _jsonl_records decodes each non-blank line, and
    _build_corpus checks it and builds its Question or Response before the
    next is read.  A line that breaks the schema raises CorpusError naming
    path:line and the field.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"corpus file not found: {path}")
    with path.open(encoding="utf-8") as fh:
        return _build_corpus(_jsonl_records(fh, path), lambda n: f"{path}:{n}", name or path.stem)


def _jsonl_records(fh, path: Path):
    """(line number, decoded value) of each non-blank line of the UTF-8 text fh reads."""
    try:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
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
            yield lineno, obj
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


def _build_corpus(records, where, name: str) -> Corpus:
    """Check (location, record) pairs in the JSONL schema and build their Corpus.

    Both corpus formats feed this one loop.  A record that breaks the
    schema raises CorpusError prefixed with where(location), which is
    called only then.
    """
    questions: dict[str, Question] = {}
    responses: dict[str, list[Response]] = {s: [] for s in SPLITS}
    seen_r: set[str] = set()

    def fail(loc, message) -> CorpusError:
        return CorpusError(f"{where(loc)}: {message}")

    def need(loc, obj: dict, key: str, string: bool = True):
        if key not in obj:
            raise fail(loc, f"missing field {key!r}")
        value = obj[key]
        if string and not isinstance(value, str):
            raise fail(loc, f"field {key!r} must be a string, got {_JSON_TYPES[type(value)]}")
        return value

    for loc, obj in records:
        if not isinstance(obj, dict):
            raise fail(loc, f"expected a JSON object, got {_JSON_TYPES[type(obj)]}")
        kind = need(loc, obj, "kind", string=False)
        if kind == "question":
            qid = need(loc, obj, "id")
            if qid in questions:
                raise fail(loc, f"duplicate question id {qid!r}")
            references = obj.get("references", [])
            if not isinstance(references, list):
                got = _JSON_TYPES[type(references)]
                raise fail(loc, f"field 'references' must be an array of strings, got {got}")
            for ref in references:
                if not isinstance(ref, str):
                    got = f"an array holding a {_JSON_TYPES[type(ref)]}"
                    raise fail(loc, f"field 'references' must be an array of strings, got {got}")
            text = need(loc, obj, "text")
            try:
                questions[qid] = Question(id=qid, text=text, reference_answers=tuple(references))
            except CorpusError as exc:  # empty text
                raise fail(loc, exc) from None
        elif kind == "response":
            rid = need(loc, obj, "id")
            if rid in seen_r:
                raise fail(loc, f"duplicate response id {rid!r}")
            seen_r.add(rid)
            split = need(loc, obj, "split", string=False)
            if split not in SPLITS:
                raise fail(loc, f"unknown split {split!r}")
            try:
                label = Label.parse(need(loc, obj, "label"))
            except UnknownLabelError as exc:
                raise fail(loc, exc) from None
            qid = need(loc, obj, "question_id")
            if qid not in questions:
                raise fail(
                    loc,
                    f"response {rid!r} references unknown question {qid!r} "
                    "(questions must precede responses)",
                )
            text = need(loc, obj, "text")
            try:
                responses[split].append(Response(id=rid, question_id=qid, text=text, label=label))
            except CorpusError as exc:  # empty text
                raise fail(loc, exc) from None
        else:
            raise fail(loc, f"unknown kind {kind!r}")

    splits = {s: tuple(rs) for s, rs in responses.items() if rs}
    # every split and id was checked record by record above, so Corpus.__post_init__'s pass is skipped
    corpus = object.__new__(Corpus)
    corpus.__dict__.update(name=name, questions=questions, splits=splits)
    return corpus


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

# A file's split is that of the first folder below the root holding one of
# these markers, read lowercased with "_" as "-"; a file under none is train.
_SPLIT_MARKERS = (
    ("unseen-answers", "ua"),
    ("unseen-questions", "uq"),
    ("unseen-domains", "ud"),
)

# The student-answer judgment attribute has shifted names across release
# variants; probe them in order.
_JUDGMENT_ATTRS = ("accuracy", "judgment", "category", "label")


def _split_for(path: Path, root: Path) -> str:
    for part in path.relative_to(root).parent.parts:
        low = part.lower().replace("_", "-")
        for marker, split in _SPLIT_MARKERS:
            if marker in low:
                return split
    return "train"


def parse_semeval_xml(root_path: str | Path, name: str | None = None) -> Corpus:
    """Parse a directory tree of per-question XML files.

    Each file is turned into JSONL-schema records, which _build_corpus
    checks as it does parse_jsonl's.  Splits are inferred from the folders
    below the root, not the file name (see _SPLIT_MARKERS).  A question is
    emitted from the first file that holds it, with that file's text (its
    id when blank) and reference answers.  A blank student answer is
    dropped, and an answer id seen before becomes <id>.<split>.<i>.  Errors
    name the file and the answer id.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise CorpusError(f"dataset directory not found: {root}")
    files = sorted(root.rglob("*.xml"))
    if not files:
        raise CorpusError(f"no question files found under {root}")
    return _build_corpus(_xml_records(root, files), _xml_where, name or root.name)


def _xml_where(loc: tuple[Path, str | None]) -> str:
    path, answer = loc
    return str(path) if answer is None else f"{path}: answer {answer!r}"


def _xml_records(root: Path, files: list[Path]):
    """((file, answer id or None), record) of each file's question and answers."""
    emitted: set[str] = set()
    seen: set[str] = set()
    for path in files:
        split = _split_for(path, root)
        try:
            node = ET.parse(path).getroot()
        except ET.ParseError as exc:
            raise CorpusError(f"{path}: malformed XML ({exc})") from None
        qid = node.get("id") or path.stem
        if qid not in emitted:
            emitted.add(qid)
            refs = [t for r in node.iter("referenceAnswer") if (t := (r.text or "").strip())]
            text = node.findtext("questionText", "").strip() or qid
            yield (path, None), dict(kind="question", id=qid, text=text, references=refs)
        for i, ans in enumerate(node.iter("studentAnswer")):
            rid = ans.get("id") or f"{qid}.{split}.{i}"
            loc = (path, rid)
            if rid in seen:
                rid = f"{rid}.{split}.{i}"
            seen.add(rid)
            text = (ans.text or "").strip()
            if not text:
                continue
            record = dict(kind="response", id=rid, question_id=qid, split=split, text=text)
            label = next(filter(None, map(ans.get, _JUDGMENT_ATTRS)), None)
            if label is not None:  # else the loop reports the missing field
                record["label"] = label
            yield loc, record
