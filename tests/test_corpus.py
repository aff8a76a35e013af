import json
import re
from pathlib import Path

import numpy as np
import pytest

from ragrade.corpus import (
    _LABEL_ALIASES,
    SPLITS,
    Corpus,
    CorpusError,
    Label,
    Question,
    Response,
    Scheme,
    UnknownLabelError,
    _normalize_label_text,
    collapse_label,
    parse_jsonl,
    parse_semeval_xml,
    validate_corpus,
    write_jsonl,
)
from conftest import FIXTURES, make_corpus, semeval_records, write_records, write_semeval_tree


def reference_label(text: str) -> Label:
    """Label resolution by normalizing every string."""
    try:
        return _LABEL_ALIASES[_normalize_label_text(text)]
    except KeyError:
        raise UnknownLabelError(text) from None


def reference_parse_jsonl(path, name=None) -> Corpus:
    """Two passes: decode every line into a list, then validate and build.

    The streamed parser must return equal corpora and raise the same
    CorpusError messages wherever this one raises CorpusError.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"corpus file not found: {path}")
    questions: dict[str, Question] = {}
    rows: list[tuple[int, dict]] = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            rows.append((lineno, obj))

    def need(lineno: int, obj: dict, key: str):
        if key not in obj:
            raise CorpusError(f"{path}:{lineno}: missing field {key!r}")
        return obj[key]

    responses: dict[str, list[Response]] = {s: [] for s in SPLITS}
    seen_q: set[str] = set()
    seen_r: set[str] = set()
    for lineno, obj in rows:
        kind = need(lineno, obj, "kind")
        if kind == "question":
            qid = need(lineno, obj, "id")
            if qid in seen_q:
                raise CorpusError(f"{path}:{lineno}: duplicate question id {qid!r}")
            seen_q.add(qid)
            text = need(lineno, obj, "text")
            try:
                questions[qid] = Question(
                    id=qid, text=text, reference_answers=tuple(obj.get("references", ()))
                )
            except CorpusError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
        elif kind == "response":
            rid = need(lineno, obj, "id")
            if rid in seen_r:
                raise CorpusError(f"{path}:{lineno}: duplicate response id {rid!r}")
            seen_r.add(rid)
            split = need(lineno, obj, "split")
            if split not in SPLITS:
                raise CorpusError(f"{path}:{lineno}: unknown split {split!r}")
            try:
                label = reference_label(need(lineno, obj, "label"))
            except UnknownLabelError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
            qid = need(lineno, obj, "question_id")
            if qid not in questions:
                raise CorpusError(
                    f"{path}:{lineno}: response {rid!r} references unknown "
                    f"question {qid!r} (questions must precede responses)"
                )
            text = need(lineno, obj, "text")
            try:
                responses[split].append(Response(id=rid, question_id=qid, text=text, label=label))
            except CorpusError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
        else:
            raise CorpusError(f"{path}:{lineno}: unknown kind {kind!r}")

    return Corpus(
        name=name or path.stem,
        questions=questions,
        splits={s: tuple(rs) for s, rs in responses.items() if rs},
    )


class TestLabelParsing:
    def test_canonical_forms(self):
        assert Label.parse("correct") is Label.CORRECT
        assert Label.parse("partially correct but incomplete") is Label.PC_INCOMPLETE
        assert Label.parse("contradictory") is Label.CONTRADICTORY
        assert Label.parse("irrelevant") is Label.IRRELEVANT
        assert Label.parse("non-domain") is Label.NON_DOMAIN

    def test_variant_forms(self):
        assert Label.parse("NON_DOMAIN") is Label.NON_DOMAIN
        assert Label.parse("non domain") is Label.NON_DOMAIN
        assert Label.parse("partially_correct_incomplete") is Label.PC_INCOMPLETE
        assert Label.parse("  Contradictory ") is Label.CONTRADICTORY
        assert Label.parse("pc inc") is Label.PC_INCOMPLETE

    def test_unknown_label(self):
        with pytest.raises(CorpusError, match="bogus"):
            Label.parse("bogus")

    @pytest.mark.parametrize("value", [5, None, ["correct"], {"correct": 1}])
    def test_non_string_is_unknown(self, value):
        with pytest.raises(UnknownLabelError, match="unknown judgment string"):
            Label.parse(value)

    def test_every_alias_is_its_own_normal_form(self):
        # Label.parse looks a string up as it is before normalizing it
        for key in _LABEL_ALIASES:
            assert _normalize_label_text(key) == key


class TestCollapse:
    def test_three_way(self):
        assert collapse_label(Label.NON_DOMAIN, Scheme.THREE_WAY) == "incorrect"
        assert collapse_label(Label.PC_INCOMPLETE, Scheme.THREE_WAY) == "incorrect"
        assert collapse_label(Label.IRRELEVANT, Scheme.THREE_WAY) == "incorrect"
        assert collapse_label(Label.CORRECT, Scheme.THREE_WAY) == "correct"
        assert collapse_label(Label.CONTRADICTORY, Scheme.THREE_WAY) == "contradictory"

    def test_two_way(self):
        assert collapse_label(Label.CORRECT, Scheme.TWO_WAY) == "correct"
        for label in (Label.PC_INCOMPLETE, Label.CONTRADICTORY, Label.IRRELEVANT, Label.NON_DOMAIN):
            assert collapse_label(label, Scheme.TWO_WAY) == "incorrect"

    def test_five_way_is_identity(self):
        for label in Label:
            assert collapse_label(label, Scheme.FIVE_WAY) == label.value

    def test_collapse_is_total_and_lands_in_scheme(self):
        for scheme in Scheme:
            targets = set(scheme.labels())
            for label in Label:
                assert collapse_label(label, scheme) in targets

    def test_class_counts(self):
        assert len(set(Scheme.TWO_WAY.labels())) == 2
        assert len(set(Scheme.THREE_WAY.labels())) == 3
        assert len(set(Scheme.FIVE_WAY.labels())) == 5

    def test_collapsed_values_are_fixed_points(self):
        # a value already in a scheme's vocabulary collapses to itself
        for scheme in Scheme:
            for value in scheme.labels():
                try:
                    label = Label.parse(value)
                except CorpusError:
                    continue  # "incorrect" has no five-way origin
                assert collapse_label(label, scheme) == value

    def test_multiset_size_preserved(self, tiny_corpus):
        for scheme in Scheme:
            collapsed = [collapse_label(r.label, scheme) for r in tiny_corpus.split("train")]
            assert len(collapsed) == len(tiny_corpus.split("train"))


class TestJsonl:
    def test_three_line_fixture(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            "\n".join(
                [
                    json.dumps({"kind": "question", "id": "q", "text": "Q?", "references": ["ref"]}),
                    json.dumps({"kind": "response", "id": "a", "question_id": "q", "split": "train", "text": "t1", "label": "correct"}),
                    json.dumps({"kind": "response", "id": "b", "question_id": "q", "split": "train", "text": "t2", "label": "irrelevant"}),
                    json.dumps({"kind": "response", "id": "c", "question_id": "q", "split": "train", "text": "t3", "label": "contradictory"}),
                ]
            )
        )
        corpus = parse_jsonl(path)
        assert len(corpus.split("train")) == 3
        assert corpus.questions["q"].reference_answers == ("ref",)

    def test_duplicate_response_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [
            {"kind": "question", "id": "q", "text": "Q?"},
            {"kind": "response", "id": "a", "question_id": "q", "split": "train", "text": "t", "label": "correct"},
            {"kind": "response", "id": "a", "question_id": "q", "split": "ua", "text": "t2", "label": "correct"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        with pytest.raises(CorpusError, match="duplicate response id"):
            parse_jsonl(path)

    def test_unknown_question_reference(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [
            {"kind": "question", "id": "q", "text": "Q?"},
            {"kind": "response", "id": "a", "question_id": "nope", "split": "ua", "text": "t", "label": "correct"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        with pytest.raises(CorpusError, match="unknown question"):
            parse_jsonl(path)

    def test_error_reports_line_and_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [
            {"kind": "question", "id": "q", "text": "Q?"},
            {"kind": "response", "id": "a", "question_id": "q", "split": "train", "label": "correct"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        with pytest.raises(CorpusError, match=r":2: missing field 'text'"):
            parse_jsonl(path)

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [
            {"kind": "question", "id": "q", "text": "Q?"},
            {"kind": "response", "id": "a", "question_id": "q", "split": "train", "text": "t", "label": "meh"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        with pytest.raises(CorpusError, match=r":2: unknown judgment"):
            parse_jsonl(path)

    def test_round_trip(self, tiny_corpus, tmp_path):
        out = tmp_path / "copy.jsonl"
        write_jsonl(tiny_corpus, out)
        again = parse_jsonl(out, name=tiny_corpus.name)
        assert again.questions == tiny_corpus.questions
        assert again.splits == tiny_corpus.splits


# spellings Label.parse resolves, exact aliases and variants alike
LABEL_SPELLINGS = [
    "correct", "partially correct but incomplete", "contradictory", "irrelevant",
    "non-domain", "NON_DOMAIN", "non domain", "partially_correct_incomplete",
    "  Contradictory ", "pc inc", "PC-Incomplete", "contra", "nondomain", "Correct",
    "IRRELEVANT", "partially-correct  but\tincomplete",
]


def generated_corpus_text(seed: int) -> str:
    """A seeded corpus file with blank lines, mixed line endings, U+2028
    inside texts, escaped and raw non-ASCII, and variant label spellings."""
    rng = np.random.default_rng(seed)
    words = ["volt", "bulb", "loop", "café", "naïve", "line sep", "gas", "¿qué?"]
    lines = []

    def emit(row):
        text = json.dumps(row, ensure_ascii=bool(rng.integers(2)))
        lines.append(text if rng.random() < 0.7 else f"  {text}\t")
        if rng.random() < 0.2:
            lines.append(" " * int(rng.integers(3)))

    qids = [f"q{i}" for i in range(int(rng.integers(2, 6)))]
    for qid in qids:
        row = {"kind": "question", "id": qid, "text": " ".join(rng.choice(words, 4))}
        if rng.random() < 0.8:
            row["references"] = [" ".join(rng.choice(words, 3)) for _ in range(int(rng.integers(3)))]
        emit(row)
    for i in range(int(rng.integers(20, 60))):
        emit({
            "kind": "response",
            "id": f"r{i}",
            "question_id": str(rng.choice(qids)),
            "split": str(rng.choice(SPLITS)),
            "text": " ".join(rng.choice(words, int(rng.integers(1, 6)))),
            "label": str(rng.choice(LABEL_SPELLINGS)),
        })
    return "".join(line + str(rng.choice(["\n", "\r\n", "\r"])) for line in lines)


def write_text(path, text: str):
    """Write text with its line endings as given."""
    path.write_bytes(text.encode("utf-8"))
    return path


def parse_error(parse, path) -> str:
    with pytest.raises(CorpusError) as info:
        parse(path)
    return str(info.value)


Q = {"kind": "question", "id": "q", "text": "Q?"}
R = {"kind": "response", "id": "a", "question_id": "q", "split": "train", "text": "t", "label": "correct"}


def without(row, key):
    return {k: v for k, v in row.items() if k != key}


# files on which the two-pass parser raised CorpusError; the messages stay
ERROR_FILES = {
    "missing kind": [Q, without(R, "kind")],
    "missing question id": [without(Q, "id")],
    "missing question text": [without(Q, "text")],
    "missing response id": [Q, without(R, "id")],
    "missing split": [Q, without(R, "split")],
    "missing label": [Q, without(R, "label")],
    "missing question_id": [Q, without(R, "question_id")],
    "missing response text": [Q, without(R, "text")],
    "duplicate question": [Q, R, Q],
    "duplicate response": [Q, R, {**R, "split": "ua"}],
    "duplicate before missing split": [Q, R, without(R, "split")],
    "unknown split": [Q, {**R, "split": "dev"}],
    "unknown label": [Q, {**R, "label": "meh"}],
    "unknown question": [Q, {**R, "question_id": "nope"}],
    "response before question": [R, Q],
    "unknown kind": [Q, {**R, "kind": "answer"}],
    "numeric kind": [{**Q, "kind": 3}],
    "empty question text": [{**Q, "text": "  "}],
    "empty response text": [Q, {**R, "text": ""}],
    "truncated": [Q, '{"kind": "response", "id": "a"'],
    "trailing object": [Q, "{} {}"],
    "trailing word": [Q, json.dumps(R) + " x"],
    "leading BOM": ["\ufeff" + json.dumps(Q)],
    "BOM on a later line": [Q, "\ufeff" + json.dumps(R)],
    "not JSON": [Q, "kind: response"],
    "single quotes": ["{'kind': 'question'}"],
}


class TestOnePassMatchesReference:
    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.jsonl")), ids=lambda p: p.name)
    def test_fixtures(self, path):
        assert parse_jsonl(path) == reference_parse_jsonl(path)

    @pytest.mark.parametrize("seed", range(8))
    def test_generated(self, tmp_path, seed):
        path = write_text(tmp_path / "gen.jsonl", generated_corpus_text(seed))
        assert parse_jsonl(path) == reference_parse_jsonl(path)
        assert parse_jsonl(path, name="x") == reference_parse_jsonl(path, name="x")

    def test_generated_files_hold_each_variant(self, tmp_path):
        for seed in range(8):
            text = generated_corpus_text(seed)
            assert re.search("(?<!\r)\n", text) and "\r\n" in text and re.search("\r(?!\n)", text)
            lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            assert any(line and not line.strip() for line in lines)
            corpus = parse_jsonl(write_text(tmp_path / "gen.jsonl", text))
            assert any("\u2028" in r.text for split in corpus.splits.values() for r in split)
            spellings = {json.loads(line)["label"] for line in lines if '"label"' in line}
            assert spellings - {label.value for label in Label}

    @pytest.mark.parametrize("rows", ERROR_FILES.values(), ids=ERROR_FILES.keys())
    def test_error_messages_are_unchanged(self, tmp_path, rows):
        text = "\n".join(row if isinstance(row, str) else json.dumps(row) for row in rows)
        path = write_text(tmp_path / "bad.jsonl", text + "\n")
        assert parse_error(parse_jsonl, path) == parse_error(reference_parse_jsonl, path)

    def test_missing_file_message_is_unchanged(self, tmp_path):
        path = tmp_path / "nope.jsonl"
        assert parse_error(parse_jsonl, path) == parse_error(reference_parse_jsonl, path)


# a second line that breaks the schema's types, and the error it raises
TYPED_CASES = {
    "number line": ("5", "expected a JSON object, got number"),
    "array line": ('["kind"]', "expected a JSON object, got array"),
    "string line": ('"kind"', "expected a JSON object, got string"),
    "null line": ("null", "expected a JSON object, got null"),
    "number label": (json.dumps({**R, "label": 5}), "field 'label' must be a string, got number"),
    "null label": (json.dumps({**R, "label": None}), "field 'label' must be a string, got null"),
    "null response text": (json.dumps({**R, "text": None}), "field 'text' must be a string, got null"),
    "array response id": (json.dumps({**R, "id": ["r"]}), "field 'id' must be a string, got array"),
    "number response id": (json.dumps({**R, "id": 7}), "field 'id' must be a string, got number"),
    "array question_id": (
        json.dumps({**R, "question_id": ["q"]}),
        "field 'question_id' must be a string, got array",
    ),
    "array question id": (json.dumps({**Q, "id": ["p"]}), "field 'id' must be a string, got array"),
    "null question text": (
        json.dumps({**Q, "id": "p", "text": None}),
        "field 'text' must be a string, got null",
    ),
    "object question text": (
        json.dumps({**Q, "id": "p", "text": {"en": "Q?"}}),
        "field 'text' must be a string, got object",
    ),
    "string references": (
        json.dumps({**Q, "id": "p", "references": "abc"}),
        "field 'references' must be an array of strings, got string",
    ),
    "null references": (
        json.dumps({**Q, "id": "p", "references": None}),
        "field 'references' must be an array of strings, got null",
    ),
    "boolean reference": (
        json.dumps({**Q, "id": "p", "references": ["ok", True]}),
        "field 'references' must be an array of strings, got an array holding a boolean",
    ),
    "blank question text": (json.dumps({**Q, "id": "p", "text": " \t"}), "question 'p' has empty text"),
    "empty response text": (json.dumps({**R, "text": ""}), "response 'a' has empty text"),
}


class TestTypedInput:
    """Malformed values fail as CorpusError naming path:line and the field."""

    @pytest.mark.parametrize("line, message", TYPED_CASES.values(), ids=TYPED_CASES.keys())
    def test_malformed_value_names_line_and_field(self, tmp_path, line, message):
        path = write_text(tmp_path / "bad.jsonl", json.dumps(Q) + "\n" + line + "\n")
        assert parse_error(parse_jsonl, path) == f"{path}:2: {message}"

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("bad_line", [1, 3, 700])
    def test_non_utf8_bytes_name_the_line(self, tmp_path, ending, bad_line):
        # the bad byte may lie far past the lines decoded so far
        rows = [json.dumps(Q)] + [json.dumps({**R, "id": f"r{i}"}) for i in range(1, 800)]
        raw = [row.encode() for row in rows]
        raw[bad_line - 1] = raw[bad_line - 1][:5] + b"\xff" + raw[bad_line - 1][5:]
        path = tmp_path / "bad.jsonl"
        path.write_bytes(ending.encode().join(raw) + ending.encode())
        message = parse_error(parse_jsonl, path)
        assert message.startswith(f"{path}:{bad_line}: invalid UTF-8 (")
        assert "0xff" in message


class TestValidate:
    def test_well_formed(self, tiny_corpus):
        report = validate_corpus(tiny_corpus)
        assert report.ok
        assert report.violations == []
        assert report.counts["train"]["correct"] == 4

    def test_uq_sharing_train_question(self):
        corpus = make_corpus(
            {"q1": "Q1?", "q2": "Q2?"},
            [
                ("a", "q1", "train", Label.CORRECT),
                ("b", "q1", "uq", Label.CORRECT),
                ("c", "q2", "uq", Label.CORRECT),
            ],
        )
        report = validate_corpus(corpus)
        assert len(report.violations) == 1
        assert "q1" in report.violations[0]

    def test_ua_question_missing_from_train(self):
        corpus = make_corpus(
            {"q1": "Q1?", "q2": "Q2?"},
            [
                ("a", "q1", "train", Label.CORRECT),
                ("b", "q2", "ua", Label.CORRECT),
            ],
        )
        report = validate_corpus(corpus)
        assert len(report.violations) == 1
        assert "ua" in report.violations[0]


def _write_question_xml(path, qid, answers, question_text="Is it so?", judgment_attr="accuracy"):
    refs = "<referenceAnswers><referenceAnswer id=\"ref1\">the reference</referenceAnswer></referenceAnswers>"
    students = "".join(
        f'<studentAnswer id="{qid}.a{i}" {judgment_attr}="{label}">{text}</studentAnswer>'
        for i, (text, label) in enumerate(answers)
    )
    path.write_text(
        f'<question id="{qid}"><questionText>{question_text}</questionText>'
        f"{refs}<studentAnswers>{students}</studentAnswers></question>"
    )


class TestSemevalXml:
    def test_parses_splits_and_labels(self, tmp_path):
        (tmp_path / "train" / "beetle").mkdir(parents=True)
        (tmp_path / "test-unseen-answers" / "beetle").mkdir(parents=True)
        _write_question_xml(
            tmp_path / "train" / "beetle" / "q1.xml",
            "q1",
            [("yes", "correct"), ("no", "contradictory"), ("dunno", "non_domain")],
        )
        _write_question_xml(
            tmp_path / "test-unseen-answers" / "beetle" / "q1b.xml",
            "q1",
            [("yes indeed", "correct")],
        )
        corpus = parse_semeval_xml(tmp_path)
        assert len(corpus.split("train")) == 3
        assert len(corpus.split("ua")) == 1
        counts = corpus.label_counts("train")
        assert counts["correct"] == 1
        assert counts["non-domain"] == 1
        assert corpus.questions["q1"].reference_answers == ("the reference",)

    def test_tolerates_attribute_variants(self, tmp_path):
        (tmp_path / "train").mkdir()
        _write_question_xml(
            tmp_path / "train" / "q2.xml",
            "q2",
            [("an answer", "partially_correct_incomplete")],
            judgment_attr="category",
        )
        corpus = parse_semeval_xml(tmp_path)
        assert corpus.split("train")[0].label is Label.PC_INCOMPLETE

    def test_empty_directory(self, tmp_path):
        with pytest.raises(CorpusError, match="no question files found"):
            parse_semeval_xml(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            parse_semeval_xml(tmp_path / "nope")

    def test_malformed_xml(self, tmp_path):
        (tmp_path / "train").mkdir()
        (tmp_path / "train" / "broken.xml").write_text("<question><oops></question>")
        with pytest.raises(CorpusError, match="malformed XML"):
            parse_semeval_xml(tmp_path)

    def test_unknown_judgment_names_file_and_value(self, tmp_path):
        (tmp_path / "train").mkdir()
        _write_question_xml(tmp_path / "train" / "q3.xml", "q3", [("something", "excellent")])
        with pytest.raises(CorpusError, match=r"q3\.xml.*'excellent'"):
            parse_semeval_xml(tmp_path)

    def test_missing_judgment_names_file_and_answer(self, tmp_path):
        path = tmp_path / "train" / "q4.xml"
        path.parent.mkdir()
        path.write_text('<question id="q4"><studentAnswer id="s1">yes</studentAnswer></question>')
        message = parse_error(parse_semeval_xml, tmp_path)
        assert message == f"{path}: answer 's1': missing field 'label'"

    @pytest.mark.parametrize(
        "folder, split",
        [
            ("constrained/test-unseen-questions", "uq"),
            ("retrained-2013/test-unseen-answers", "ua"),
            ("Test_Unseen_Domains", "ud"),
            ("sciEntsBank/TEST-UNSEEN_ANSWERS", "ua"),
            ("training/2way", "train"),
            ("train", "train"),
            ("beetle", "train"),
        ],
    )
    def test_split_from_unseen_markers_else_train(self, tmp_path, folder, split):
        (tmp_path / folder).mkdir(parents=True)
        _write_question_xml(tmp_path / folder / "q.xml", "q", [("yes", "correct")])
        assert list(parse_semeval_xml(tmp_path).splits) == [split]

    @pytest.mark.parametrize(
        "path, split",
        [
            ("train/unseen-answers-notes.xml", "train"),
            ("test-unseen-questions.xml", "train"),
            ("test-unseen-answers/unseen-domains-q.xml", "ua"),
        ],
    )
    def test_split_read_from_folders_not_the_file_name(self, tmp_path, path, split):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        _write_question_xml(tmp_path / path, "q", [("yes", "correct")])
        assert list(parse_semeval_xml(tmp_path).splits) == [split]

    def test_renamed_id_colliding_with_an_earlier_id_names_file_and_id(self, tmp_path):
        q = {"kind": "question", "id": "q", "text": "Q?"}
        ua = {"kind": "response", "question_id": "q", "split": "ua", "text": "t", "label": "correct"}
        # the train file's "a" is renamed to "a.train.0", which the ua file already holds
        write_semeval_tree(
            tmp_path,
            [q, {**ua, "id": "a"}, {**ua, "id": "a.train.0"}, {**ua, "id": "a", "split": "train"}],
        )
        message = parse_error(parse_semeval_xml, tmp_path)
        path = tmp_path / "train" / "000003-q.xml"
        assert message == f"{path}: answer 'a': duplicate response id 'a.train.0'"

    def test_blank_answer_dropped_and_first_file_question_wins(self, tmp_path):
        for folder, text in [("test-unseen-answers", "First?"), ("train", "Second?")]:
            (tmp_path / folder).mkdir()
            answers = [("  ", "correct"), ("yes", "correct")]
            _write_question_xml(tmp_path / folder / "q.xml", "q", answers, question_text=text)
        corpus = parse_semeval_xml(tmp_path)
        assert corpus.questions["q"].text == "First?"
        assert [r.id for r in corpus.split("ua")] == ["q.a1"]

    def test_agrees_with_jsonl_at_scientsbank_scale(self, tmp_path):
        records = semeval_records(seed=16)
        corpus = parse_jsonl(write_records(tmp_path / "sb.jsonl", records))
        assert {s: len(rs) for s, rs in corpus.splits.items()} == {
            "train": 4969, "ua": 540, "uq": 733, "ud": 4562
        }
        assert parse_semeval_xml(write_semeval_tree(tmp_path / "tree", records), name="sb") == corpus


class TestCorpusInvariants:
    def test_duplicate_id_rejected_at_construction(self):
        q = {"q": Question(id="q", text="Q?")}
        r = Response(id="a", question_id="q", text="t", label=Label.CORRECT)
        with pytest.raises(CorpusError, match="duplicate"):
            Corpus(name="x", questions=q, splits={"train": (r, r)})

    def test_unknown_split_rejected_at_construction(self):
        q = {"q": Question(id="q", text="Q?")}
        r = Response(id="a", question_id="q", text="t", label=Label.CORRECT)
        with pytest.raises(CorpusError, match="unknown split 'dev'"):
            Corpus(name="x", questions=q, splits={"dev": (r,)})

    def test_missing_question_rejected_at_construction(self):
        q = {"q": Question(id="q", text="Q?")}
        r = Response(id="a", question_id="gone", text="t", label=Label.CORRECT)
        with pytest.raises(CorpusError, match="response 'a' references unknown question 'gone'"):
            Corpus(name="x", questions=q, splits={"train": (r,)})

    def test_empty_text_rejected(self):
        with pytest.raises(CorpusError, match="empty"):
            Response(id="a", question_id="q", text="   ", label=Label.CORRECT)
