import hashlib
import json

import pytest

from ragrade.corpus import Scheme
from ragrade.prompts import (
    PLACEHOLDERS,
    PromptBindings,
    PromptError,
    PromptTemplate,
    available_templates,
    format_examples,
    load_critic_meta_prompt,
    load_template,
    render,
)
from ragrade.vstore import Entry

ALL_COMBOS = [
    ("SB3", "with_examples", "cpg"),
    ("SB3", "without_examples", "cpg"),
    ("SB3", "with_examples", "dspy"),
    ("SB3", "without_examples", "dspy"),
    ("SB2", "with_examples", "cpg"),
    ("SB2", "without_examples", "cpg"),
    ("BEETLE5", "with_examples", "cpg"),
    ("BEETLE5", "without_examples", "cpg"),
]


def unit_entry(text, judgment):
    return Entry(metadata={"response_text": text, "judgment": judgment})


class TestLoadTemplate:
    @pytest.mark.parametrize("task,scenario,style", ALL_COMBOS)
    def test_all_bundled_combos_load(self, task, scenario, style):
        template = load_template(task, scenario, style)
        assert template.task == task
        assert template.scenario == scenario
        assert template.style == style

    def test_sb3_cpg_has_judgment_tags(self):
        assert "<judgment>" in load_template("SB3", "with_examples", "cpg").body

    def test_sb3_without_examples_lacks_placeholder(self):
        assert "{{EXAMPLES}}" not in load_template("SB3", "without_examples", "cpg").body

    def test_sb3_dspy_has_field_marker(self):
        assert "Judgment of the New Answer:" in load_template("SB3", "with_examples", "dspy").body

    def test_unknown_combination(self):
        with pytest.raises(PromptError, match="no bundled template"):
            load_template("SB2", "with_examples", "dspy")

    def test_checksums_in_index_match_bodies(self):
        from ragrade.prompts import _template_dir

        for row in available_templates():
            body = (_template_dir() / row["path"]).read_text(encoding="utf-8")
            assert hashlib.sha256(body.encode()).hexdigest() == row["sha256"]

    def test_tampered_body_fails_checksum(self, tmp_path, monkeypatch):
        import ragrade.prompts as prompts

        src = prompts._template_dir()
        for row in json.loads((src / "index.json").read_text()):
            (tmp_path / row["path"]).write_text(
                (src / row["path"]).read_text(encoding="utf-8"), encoding="utf-8"
            )
        (tmp_path / "index.json").write_text((src / "index.json").read_text())
        body_path = tmp_path / "sb3_ua_cpg.txt"
        body_path.write_text(body_path.read_text() + "tampered", encoding="utf-8")
        monkeypatch.setattr(prompts, "_template_dir", lambda: tmp_path)
        with pytest.raises(PromptError, match="checksum"):
            load_template("SB3", "with_examples", "cpg")

    def test_scenario_placeholder_consistency(self):
        for task, scenario, style in ALL_COMBOS:
            t = load_template(task, scenario, style)
            assert ("EXAMPLES" in t.placeholders) == (scenario == "with_examples")
            assert {"QUESTION", "REFERENCE_ANSWER", "NEW_ANSWER"} <= t.placeholders

    def test_critic_meta_prompt_loads(self):
        meta = load_critic_meta_prompt()
        assert "{{PARENT}}" in meta and "{{HISTORY}}" in meta


class TestFormatExamples:
    def test_empty(self):
        assert format_examples([], Scheme.FIVE_WAY) == ""

    def test_single_entry_exact(self):
        out = format_examples([(unit_entry("x", "correct"), 0.9)], Scheme.FIVE_WAY)
        assert out == "Example 1:\nAnswer: x\nJudgment: correct\n"

    def test_rank_order_preserved(self):
        out = format_examples(
            [
                (unit_entry("first", "correct"), 0.9),
                (unit_entry("second", "irrelevant"), 0.8),
                (unit_entry("third", "contradictory"), 0.7),
            ],
            Scheme.FIVE_WAY,
        )
        assert out.index("Example 1") < out.index("Example 2") < out.index("Example 3")
        assert "Answer: first" in out.split("Example 2")[0]

    def test_line_count(self):
        for n in (1, 2, 5):
            entries = [(unit_entry(f"t{i}", "correct"), 0.5) for i in range(n)]
            lines = format_examples(entries, Scheme.FIVE_WAY).split("\n")
            # 3 content lines per block, one blank separator between blocks,
            # plus the trailing newline of the last block
            assert len(lines) == 3 * n + (n - 1) + 1

    def test_judgments_collapse_to_scheme(self):
        out = format_examples(
            [(unit_entry("x", "non-domain"), 0.5)], scheme=Scheme.THREE_WAY
        )
        assert "Judgment: incorrect" in out
        out5 = format_examples([(unit_entry("x", "non-domain"), 0.5)], scheme=Scheme.FIVE_WAY)
        assert "Judgment: non-domain" in out5


SENTINELS = {
    "QUESTION": "@@Q-SENTINEL@@",
    "REFERENCE_ANSWER": "@@R-SENTINEL@@",
    "EXAMPLES": "@@E-SENTINEL@@",
    "NEW_ANSWER": "@@N-SENTINEL@@",
}


class TestRender:
    def full_bindings(self):
        return PromptBindings(
            new_answer="the new answer",
            question="the question",
            reference_answer="the reference",
            examples=format_examples([(unit_entry("an answer", "correct"), 1.0)], Scheme.FIVE_WAY),
        )

    def test_new_answer_lands_between_tags(self):
        template = load_template("SB3", "with_examples", "cpg")
        out = render(template, self.full_bindings())
        assert "<new_answer>\n\nthe new answer\n\n</new_answer>" in out
        assert "{{" not in out

    def test_examples_ignored_with_warning_when_no_slot(self):
        template = load_template("SB3", "without_examples", "cpg")
        with pytest.warns(UserWarning, match="ignored"):
            out = render(template, self.full_bindings())
        assert "an answer" not in out

    def test_single_pass_no_reexpansion(self):
        template = load_template("SB3", "without_examples", "cpg")
        bindings = PromptBindings(
            new_answer="contains a literal {{QUESTION}} token",
            question="q text",
            reference_answer="r text",
        )
        out = render(template, bindings)
        assert "contains a literal {{QUESTION}} token" in out

    def test_missing_binding(self):
        template = load_template("SB3", "with_examples", "cpg")
        bindings = PromptBindings(new_answer="x", question="q")  # no reference, no examples
        with pytest.raises(PromptError, match="REFERENCE_ANSWER"):
            render(template, bindings)

    def test_empty_new_answer_rejected(self):
        with pytest.raises(PromptError, match="non-empty"):
            PromptBindings(new_answer="  ")

    @pytest.mark.parametrize("task,scenario,style", ALL_COMBOS)
    def test_sentinel_reverse_substitution_recovers_body(self, task, scenario, style):
        template = load_template(task, scenario, style)
        rendered = render(
            template,
            PromptBindings(
                new_answer=SENTINELS["NEW_ANSWER"],
                question=SENTINELS["QUESTION"],
                reference_answer=SENTINELS["REFERENCE_ANSWER"],
                examples=SENTINELS["EXAMPLES"] if scenario == "with_examples" else None,
            ),
        )
        assert "{{" not in rendered
        recovered = rendered
        for name, sentinel in SENTINELS.items():
            recovered = recovered.replace(sentinel, "{{" + name + "}}")
        assert recovered == template.body

    def test_unknown_placeholder_rejected_at_construction(self):
        with pytest.raises(PromptError, match="unknown placeholders"):
            PromptTemplate(
                id="x", task="SB3", scenario="without_examples", style="cpg", body="{{WHAT}}"
            )

    def test_scenario_consistency_enforced(self):
        with pytest.raises(PromptError, match="lacks"):
            PromptTemplate(
                id="x", task="SB3", scenario="with_examples", style="cpg", body="{{NEW_ANSWER}}"
            )
        with pytest.raises(PromptError, match="claims no examples"):
            PromptTemplate(
                id="x",
                task="SB3",
                scenario="without_examples",
                style="cpg",
                body="{{EXAMPLES}} {{NEW_ANSWER}}",
            )

    def test_placeholder_set_constant(self):
        assert set(PLACEHOLDERS) == {"QUESTION", "REFERENCE_ANSWER", "EXAMPLES", "NEW_ANSWER"}
