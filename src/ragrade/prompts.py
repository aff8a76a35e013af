"""Grading prompt templates: bundled bodies, example formatting, rendering.

Eight templates ship with the package, indexed by task (SB3 / SB2 /
BEETLE5), scenario (with or without retrieved examples), and style
(structured cpg steps vs. dspy field list).  Bodies are checksummed at
load.  Rendering is strict single-pass substitution: placeholder tokens
come only from the template, never from substituted values.
"""

from __future__ import annotations

import hashlib
import json
import re
import warnings
from dataclasses import dataclass
from importlib import resources

from .corpus import Label, Scheme, collapse_label

PLACEHOLDERS = ("QUESTION", "REFERENCE_ANSWER", "EXAMPLES", "NEW_ANSWER")
STYLES = ("cpg", "dspy")

_PLACEHOLDER_RE = re.compile(r"\{\{([A-Z_]+)\}\}")


class PromptError(Exception):
    pass


def scheme_task(scheme: Scheme) -> str:
    return {Scheme.THREE_WAY: "SB3", Scheme.TWO_WAY: "SB2", Scheme.FIVE_WAY: "BEETLE5"}[scheme]


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    task: str
    scenario: str
    style: str
    body: str

    def __post_init__(self):
        found = set(_PLACEHOLDER_RE.findall(self.body))
        unknown = found - set(PLACEHOLDERS)
        if unknown:
            raise PromptError(f"template {self.id!r} has unknown placeholders {sorted(unknown)}")
        if self.scenario == "with_examples" and "EXAMPLES" not in found:
            raise PromptError(f"template {self.id!r} claims examples but lacks {{{{EXAMPLES}}}}")
        if self.scenario == "without_examples" and "EXAMPLES" in found:
            raise PromptError(f"template {self.id!r} claims no examples but has {{{{EXAMPLES}}}}")

    @property
    def placeholders(self) -> frozenset[str]:
        return frozenset(_PLACEHOLDER_RE.findall(self.body))

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.body.encode("utf-8")).hexdigest()


@dataclass
class PromptBindings:
    new_answer: str
    question: str | None = None
    reference_answer: str | None = None
    # the block format_examples made from a top_k result
    examples: str | None = None

    def __post_init__(self):
        if not self.new_answer.strip():
            raise PromptError("new_answer binding must be non-empty")


def _template_dir():
    return resources.files("ragrade") / "templates"


def available_templates() -> list[dict]:
    """Index rows of all bundled templates."""
    with (_template_dir() / "index.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def load_template(task: str, scenario: str, style: str = "cpg") -> PromptTemplate:
    """Load a bundled template, verifying its recorded checksum."""
    for row in available_templates():
        if (row["task"], row["scenario"], row["style"]) == (task, scenario, style):
            body = (_template_dir() / row["path"]).read_text(encoding="utf-8")
            digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
            if digest != row["sha256"]:
                raise PromptError(
                    f"template {row['id']!r} failed its checksum: "
                    f"expected {row['sha256']}, got {digest}"
                )
            return PromptTemplate(
                id=row["id"], task=task, scenario=scenario, style=style, body=body
            )
    raise PromptError(f"no bundled template for task={task!r} scenario={scenario!r} style={style!r}")


def load_critic_meta_prompt() -> str:
    return (_template_dir() / "critic_rewrite.txt").read_text(encoding="utf-8")


def format_examples(retrieved: list[tuple], scheme: Scheme) -> str:
    """Render retrieved (entry, score) pairs as numbered example blocks.

    Rank order is preserved.  Each block is three lines (Example i: /
    Answer: / Judgment:) and blocks are separated by a blank line.
    Stored five-way judgments are collapsed to the scheme's vocabulary.
    """
    blocks = []
    for i, (entry, _score) in enumerate(retrieved, start=1):
        judgment = collapse_label(Label.parse(entry.metadata["judgment"]), scheme)
        text = entry.metadata["response_text"]
        blocks.append(f"Example {i}:\nAnswer: {text}\nJudgment: {judgment}\n")
    return "\n".join(blocks)


_EXAMPLE1_RE = re.compile(r"Example 1:\nAnswer: .*?\nJudgment: (.*?)\n", re.DOTALL)


def first_example_judgment(prompt: str) -> str | None:
    """The judgment of the first block format_examples wrote into prompt, if any."""
    match = _EXAMPLE1_RE.search(prompt)
    return match.group(1) if match else None


def render(template: PromptTemplate, bindings: PromptBindings) -> str:
    """Substitute every placeholder exactly once, single pass.

    Values are never re-scanned for placeholder syntax, so a literal
    "{{QUESTION}}" inside a student answer survives verbatim.  A binding
    required by the template must be present; examples supplied to a
    template without an examples slot are ignored with a warning.
    """
    values = {
        "QUESTION": bindings.question,
        "REFERENCE_ANSWER": bindings.reference_answer,
        "NEW_ANSWER": bindings.new_answer,
        "EXAMPLES": bindings.examples,
    }
    needed = template.placeholders
    if bindings.examples is not None and "EXAMPLES" not in needed:
        warnings.warn(
            f"template {template.id!r} has no examples slot; retrieved examples ignored",
            stacklevel=2,
        )

    out = []
    last = 0
    for match in _PLACEHOLDER_RE.finditer(template.body):
        name = match.group(1)
        value = values.get(name)
        if value is None:
            raise PromptError(f"missing binding for placeholder {{{{{name}}}}}")
        out.append(template.body[last : match.start()])
        out.append(value)
        last = match.end()
    out.append(template.body[last:])
    return "".join(out)
