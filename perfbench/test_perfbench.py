"""Tests of the benchmark itself: run with `python -m pytest perfbench -q`.

Each output check must pass on the program's real output and fail on a
planted wrong one; the generator must be seeded; the checks' own feature
hashing must agree with the program's embedder bit for bit.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import fakeglm  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ragrade.embedding import HashEmbedder  # noqa: E402

SMALL = gen.Shape(train_questions=3, train_per_question=12, ua_per_question=3,
                  uq_questions=2, uq_per_question=10)


def _round(tmp_path, fn, seed=5):
    records = gen.generate(SMALL, seed)
    path = tmp_path / "corpus.jsonl"
    gen.write(records, path)
    gold = {r["text"]: oracle.collapse3(r["label"]) for r in records if r["kind"] == "response"}
    return records, fn(str(path), fakeglm.FakeSession(gold))


def _flip(label):
    return "correct" if label != "correct" else "incorrect"


def test_generator_is_seeded_and_unique():
    a, b, c = gen.generate(SMALL, 1), gen.generate(SMALL, 1), gen.generate(SMALL, 2)
    assert a == b and a != c
    texts = [r["text"] for r in a if r["kind"] == "response"]
    assert len(texts) == len(set(texts)) and not any("\n" in t for t in texts)


def test_hash_embed_matches_program():
    embedder = HashEmbedder()
    for rec in gen.generate(SMALL, 3)[:40]:
        text = rec["text"]
        assert np.array_equal(oracle.hash_embed(text), embedder.embed(text))


def _check(name, records, outcome):
    return workloads.WORKLOADS[name].checker(records)(outcome)


def test_ua_check_catches_wrong_prediction_and_order(tmp_path):
    records, outcome = _round(tmp_path, workloads.ua_remote)
    assert _check("ua-remote", records, outcome) == 0
    wrong = copy.deepcopy(outcome)
    run = wrong.report.per_run[1]
    run["predictions"][0] = _flip(run["predictions"][0])
    assert _check("ua-remote", records, wrong) == 1
    wrong = copy.deepcopy(outcome)
    ids = wrong.report.per_run[0]["response_ids"]
    ids[0], ids[1] = ids[1], ids[0]
    assert _check("ua-remote", records, wrong) > 0


def test_uq_check_catches_wrong_prediction(tmp_path):
    records, outcome = _round(tmp_path, workloads.uq_remote)
    assert _check("uq-remote", records, outcome) == 0
    wrong = copy.deepcopy(outcome)
    run = wrong.report.per_run[2]
    run["predictions"][-1] = _flip(run["predictions"][-1])
    assert _check("uq-remote", records, wrong) == 1


def test_ragfrac_check_catches_wrong_split_and_prediction(tmp_path):
    records, outcome = _round(tmp_path, workloads.uq_ragfrac)
    assert _check("uq-ragfrac", records, outcome) == 0
    wrong = copy.deepcopy(outcome)
    run = wrong.report.per_run[0]
    run["predictions"][0] = _flip(run["predictions"][0])
    assert _check("uq-ragfrac", records, wrong) == 1
    wrong = copy.deepcopy(outcome)
    run = wrong.report.per_run[0]
    run["moved_ids"].append(run["response_ids"].pop())  # one too many moved
    run["predictions"].pop()
    assert _check("uq-ragfrac", records, wrong) > 0
    wrong = copy.deepcopy(outcome)
    run = wrong.report.per_run[0]
    run["moved_ids"][0] = run["response_ids"][0]  # overlapping split
    assert _check("uq-ragfrac", records, wrong) > 0


def test_train_check_catches_bad_adapters_and_predictions(tmp_path):
    records, outcome = _round(tmp_path, workloads.ua_train)
    check = workloads.train_checker(records)
    assert check(outcome) == 0
    qid = sorted(outcome.weights)[0]
    nan = np.full((oracle.DIM, oracle.DIM), np.nan)
    for planted in (np.eye(oracle.DIM), outcome.weights[qid] * 1.01, nan):
        wrong = copy.deepcopy(outcome)
        wrong.weights[qid] = planted
        assert workloads.train_checker(records)(wrong) > 0  # as the first round
        assert check(wrong) > 0  # as a later round that trained other adapters
    wrong = copy.deepcopy(outcome)
    run = wrong.report.per_run[0]
    run["predictions"][0] = _flip(run["predictions"][0])
    assert check(wrong) == 1


def test_traced_round_reports_layers(tmp_path):
    tracer = spans.Tracer()
    with tracer.installed():
        _, outcome = _round(tmp_path, workloads.ua_remote)
    metrics = spans.layer_metrics(tracer.spans)
    n_ua = SMALL.train_questions * SMALL.ua_per_question * len(workloads.SEEDS)
    assert metrics["vstore.build_calls"][0] == len(workloads.SEEDS)
    assert metrics["vstore.top_k_calls"][0] == n_ua == outcome.graded
    assert metrics["glm.posts"][0] == metrics["glm.complete_calls"][0] == n_ua
    assert metrics["vstore.candidates_mean"][0] == SMALL.train_per_question
    assert 0 < metrics["vstore.top_k_self_us_p50"][0] < metrics["vstore.top_k_us_p50"][0]
    assert HashEmbedder.embed.__name__ == "embed"  # the wrappers are gone


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uq-remote", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == set(spans.layer_metrics([]))
