"""The full grading pipeline on the unseen-answers scenario.

Each test answer is embedded, the most similar graded answers are
retrieved, a prompt is composed from the bundled template, and the
backend's verdict is parsed and tallied.  The deterministic mock backend
echoes the top retrieved judgment, which makes the whole pipeline a
1-nearest-neighbor classifier.
"""

from pathlib import Path

from ragrade import ExperimentConfig, Scheme, format_report_table, parse_jsonl, run_scenario
from ragrade.glm import MockBackend
from ragrade.embedding import HashEmbedder
from ragrade.prompts import PromptBindings, format_examples, load_template, render
from ragrade.vstore import RetrievalConfig, build_store, top_k

FIXTURE = Path(__file__).parent.parent / "tests" / "fixtures" / "tiny.jsonl"
corpus = parse_jsonl(FIXTURE)

# peek at one composed prompt first
embedder = HashEmbedder(128)
store = build_store(list(corpus.split("train")), embedder)
query = corpus.split("ua")[0]
retrieved = top_k(
    store,
    query.text,
    embedder,
    RetrievalConfig(k=2, same_question_only=True),
    question_id=query.question_id,
)
template = load_template("SB3", "with_examples", "cpg")
prompt = render(
    template,
    PromptBindings(
        new_answer=query.text,
        question=corpus.questions[query.question_id].text,
        reference_answer="\n".join(corpus.questions[query.question_id].reference_answers),
        examples=format_examples(retrieved, Scheme.THREE_WAY),
    ),
)
print("=== one composed grading prompt " + "=" * 40)
print(prompt[:800] + ("..." if len(prompt) > 800 else ""))
print("=" * 72)
print("mock verdict:", MockBackend().complete(prompt, None))

# now the whole scenario, three averaged runs
config = ExperimentConfig(scheme=Scheme.THREE_WAY, seeds=(1, 2, 3), k=3, embed_dim=128)
report = run_scenario(corpus, "ua", config)
print("\n" + format_report_table([report]))
print(f"parse failures: {report.parse_failures}")
print("per-class:")
for row in report.per_class:
    print(
        f"  {row['label']:>13}: precision {row['precision']:.2f} "
        f"recall {row['recall']:.2f} f1 {row['f1']:.2f} support {row['support']:.0f}"
    )
