import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ragrade.cli
import ragrade.glm
import ragrade.harness
from ragrade.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, cli
from ragrade.corpus import Label, Response, parse_jsonl, write_jsonl
from ragrade.embedding import Adapter
from conftest import semeval_records, write_records, write_semeval_tree

# a global adapter this strong moves one ua verdict on the tiny corpus, so
# grading with and without training can be told apart
TRAINED = {
    "seeds": [1],
    "embed_dim": 32,
    "train_adapter": True,
    "scope": "global",
    "loss": "cosine_similarity",
    "learning_rate": 1.0,
}


@pytest.fixture
def corpus_arg(tiny_corpus_path):
    return str(tiny_corpus_path)


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert cli(["frobnicate"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert cli(["validate", "--what"]) == EXIT_USAGE

    def test_no_subcommand_prints_help(self, capsys):
        assert cli([]) == EXIT_USAGE
        assert "COMMAND" in capsys.readouterr().out

    def test_missing_required_flag(self):
        assert cli(["validate"]) == EXIT_USAGE


def run_module(*args, cwd):
    """`python -m ragrade.cli ARGS` in a child process, importing this checkout's package."""
    src = str(Path(ragrade.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "ragrade.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


class TestModuleEntry:
    def test_help_prints_usage(self, tmp_path):
        done = run_module("--help", cwd=tmp_path)
        assert done.returncode == 0
        assert done.stdout.startswith("usage:")
        assert "train-embedder" in done.stdout

    def test_bad_replay_path_exits_non_zero(self, corpus_arg, tmp_path):
        done = run_module(
            "evaluate", "--corpus", corpus_arg, "--backend", f"replay:{tmp_path / 'bad.jsonl'}",
            cwd=tmp_path,
        )
        assert done.returncode == EXIT_RUNTIME
        assert done.stderr.startswith("error:")

    @pytest.mark.parametrize(
        "split, train, named",
        [("ua", False, "response 'bad'"), ("train", True, "question 'q1'")],
        ids=["graded", "trained"],
    )
    def test_unembeddable_answer_is_named(self, tiny_corpus, tmp_path, split, train, named):
        bad = Response(id="bad", question_id="q1", text="\u00bf\u2026?", label=Label.CONTRADICTORY)
        splits = {**tiny_corpus.splits, split: (*tiny_corpus.split(split), bad)}
        path = tmp_path / "corpus.jsonl"
        write_jsonl(dataclasses.replace(tiny_corpus, splits=splits), path)
        argv = ["evaluate", "--corpus", str(path), "--seeds", "1", "--dim", "32"]
        done = run_module(*argv, *(["--train"] if train else []), cwd=tmp_path)
        assert done.returncode == EXIT_RUNTIME
        assert done.stderr.startswith(f"error: {named}: ")
        assert "no hashable features" in done.stderr

    def test_diverging_training_names_the_question_without_warnings(self, corpus_arg, tmp_path):
        done = run_module(
            "train-embedder", "--corpus", corpus_arg, "--loss", "triplet", "--lr", "1e300",
            "--dim", "32", "--out-dir", str(tmp_path / "adapters"),
            cwd=tmp_path,
        )
        assert done.returncode == EXIT_RUNTIME
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr  # no RuntimeWarning from numpy
        assert lines[0].startswith("error: question ")
        assert "non-finite" in lines[0] and "after epoch 0, batch 0" in lines[0]


    @pytest.mark.parametrize("batch_size", ["0", "-3"])
    def test_batch_size_below_one_exits_runtime_and_writes_nothing(self, corpus_arg, tmp_path, batch_size):
        out = tmp_path / "adapters"
        done = run_module(
            "train-embedder", "--corpus", corpus_arg, "--loss", "cosine_similarity",
            "--batch-size", batch_size, "--dim", "16", "--out-dir", str(out),
            cwd=tmp_path,
        )
        assert done.returncode == EXIT_RUNTIME
        assert done.stderr == f"error: batch_size must be >= 1, got {batch_size}\n"
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-0.5"])
    def test_unusable_learning_rate_exits_runtime_and_writes_nothing(self, corpus_arg, tmp_path, capsys, lr):
        out = tmp_path / "adapters"
        argv = ["train-embedder", "--corpus", corpus_arg, "--lr", lr, "--dim", "16", "--out-dir", str(out)]
        assert cli(argv) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: learning_rate must be positive and finite, got {float(lr)}\n"
        assert not out.exists()


class TestValidate:
    def test_ok(self, corpus_arg, capsys):
        assert cli(["validate", "--corpus", corpus_arg]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["violations"] == []
        assert out["counts"]["train"]["correct"] == 4

    def test_violations_exit_one(self, tmp_path, capsys):
        rows = [
            {"kind": "question", "id": "q", "text": "Q?"},
            {"kind": "response", "id": "a", "question_id": "q", "split": "train", "text": "t", "label": "correct"},
            {"kind": "response", "id": "b", "question_id": "q", "split": "uq", "text": "t2", "label": "correct"},
        ]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows))
        assert cli(["validate", "--corpus", str(path)]) == EXIT_VALIDATION

    def test_missing_file_runtime_error(self, tmp_path):
        assert cli(["validate", "--corpus", str(tmp_path / "nope.jsonl")]) == EXIT_RUNTIME

    @pytest.mark.parametrize(
        "second, message",
        [
            (b'{"kind": "response", "id": "a", "question_id": "q", "split": "train", "text": "t", "label": 5}',
             "field 'label' must be a string, got number"),
            (b"[5]", "expected a JSON object, got array"),
            (b'{"kind": "question", "id": "p", "text": "P\xff?"}', "invalid UTF-8 ("),
        ],
        ids=["number label", "array line", "non-UTF-8 bytes"],
    )
    def test_malformed_line_exits_runtime_naming_it(self, tmp_path, second, message):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"kind": "question", "id": "q", "text": "Q?"}\n' + second + b"\n")
        done = run_module("validate", "--corpus", str(path), cwd=tmp_path)
        assert done.returncode == EXIT_RUNTIME
        assert done.stderr.startswith(f"error: {path}:2: {message}")
        assert len(done.stderr.splitlines()) == 1, done.stderr  # no traceback


class TestIngest:
    def test_jsonl_round_trip(self, corpus_arg, tmp_path):
        out = tmp_path / "copy.jsonl"
        assert cli(["ingest", "--jsonl", corpus_arg, "--out", str(out)]) == EXIT_OK
        assert out.exists()
        assert cli(["validate", "--corpus", str(out)]) == EXIT_OK

    def test_xml_tree_writes_the_jsonl_bytes_of_its_records(self, tmp_path):
        records = semeval_records(
            seed=5, train_questions=3, train=12, ua=4, uq_questions=2, uq=5, ud_questions=2, ud=6
        )
        expected = tmp_path / "expected.jsonl"
        write_jsonl(parse_jsonl(write_records(tmp_path / "records.jsonl", records)), expected)
        tree = write_semeval_tree(tmp_path / "tree", records)
        out = tmp_path / "out.jsonl"
        assert cli(["ingest", "--xml-root", str(tree), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == expected.read_bytes()

    def test_needs_exactly_one_source(self, corpus_arg, tmp_path):
        assert cli(["ingest", "--out", str(tmp_path / "x.jsonl")]) == EXIT_USAGE
        assert (
            cli(
                [
                    "ingest",
                    "--jsonl",
                    corpus_arg,
                    "--xml-root",
                    "somewhere",
                    "--out",
                    str(tmp_path / "x.jsonl"),
                ]
            )
            == EXIT_USAGE
        )


class TestBuildPairs:
    def test_writes_sets_and_manifest(self, corpus_arg, tmp_path, capsys):
        out = tmp_path / "sets"
        code = cli(
            [
                "build-pairs",
                "--corpus",
                corpus_arg,
                "--strategy",
                "strict",
                "--scope",
                "question",
                "--seed",
                "3",
                "--out-dir",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert (out / "pairs.jsonl").exists()
        assert (out / "triplets.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["strategy"] == "strict"
        assert manifest["seed"] == 3
        assert manifest["pairs"] > 0


# sha256 of the files train-embedder and build-pairs write for tests/fixtures/tiny.jsonl,
# taken before question adapters were kept factored and triplet sets built on first read
TRAINED_FILES = {
    (): {
        "manifest.json": "5c84733d738db62d2ec5dbf0b4e4626c1dd9724a3baa9b272420daca1943f39c",
        "q1.adapter": "c699cfad5ceb636bf2ad48657d53a7b67eec3b922e69f1c29f990d0393406fc9",
        "q2.adapter": "7871327446a071447b60f241899be924885e5b0e11cbf976bb6e14c87c06cb22",
    },
    ("--loss", "triplet"): {
        "manifest.json": "bc94d08c04b4f3c47844bcdcd252a98793c62ebb193b76a3a680ed25997fedf1",
        "q1.adapter": "2e0468f079d247d9325dea3735692b9a5d2cd5db6cc630c327660ccd8f9b014e",
        "q2.adapter": "a38f92828a87f11fc043cfc82b44ace3648d7db33cf396537ca2e676520f58e1",
    },
    ("--scope", "global"): {
        "global.adapter": "5002b0d6a49be964fcabad841b8e5d2f2b3996a1c36bd1a5d5055957db8c94b3",
        "manifest.json": "131f1f527fc65b609bbaba914f8d3f40ce3b691d9ad5a5a9d3f219de52c5f782",
    },
}
PAIR_FILES = {
    "manifest.json": "c6adae97e7648e26db84d17f7ad076dcc01eed4b2997e409a6adfb8359fefa8e",
    "pairs.jsonl": "703cc598cf8797e2ae7be184861d978911aefe7362f68403f20aef80fd3af414",
    "triplets.jsonl": "8d57c71f532c8895d7d3f67e6ea4c5476bf190fbbdfd790aaa83ff80091b694b",
}


def digests(out: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


class TestStableFiles:
    """The files are byte-identical to those of the dense-adapter, eager-triplet code."""

    @pytest.mark.parametrize("extra", list(TRAINED_FILES), ids=["default", "triplet", "global"])
    def test_train_embedder_files(self, corpus_arg, tmp_path, capsys, extra):
        out = tmp_path / "adapters"
        assert cli(["train-embedder", "--corpus", corpus_arg, *extra, "--out-dir", str(out)]) == EXIT_OK
        assert digests(out) == TRAINED_FILES[extra]

    def test_build_pairs_files(self, corpus_arg, tmp_path, capsys):
        out = tmp_path / "sets"
        assert cli(["build-pairs", "--corpus", corpus_arg, "--out-dir", str(out)]) == EXIT_OK
        assert digests(out) == PAIR_FILES


class TestTrainAndStoreArtifacts:
    def test_train_then_build_vdb_then_evaluate(self, corpus_arg, tmp_path, capsys):
        adapters = tmp_path / "adapters"
        code = cli(
            [
                "train-embedder",
                "--corpus",
                corpus_arg,
                "--scope",
                "global",
                "--loss",
                "cosine_similarity",
                "--epochs",
                "1",
                "--lr",
                "0.1",
                "--dim",
                "48",
                "--out-dir",
                str(adapters),
            ]
        )
        assert code == EXIT_OK
        assert (adapters / "global.adapter").exists()

        store_path = tmp_path / "train.vdb"
        code = cli(
            [
                "build-vdb",
                "--corpus",
                corpus_arg,
                "--dim",
                "48",
                "--adapter",
                str(adapters / "global.adapter"),
                "--out",
                str(store_path),
            ]
        )
        assert code == EXIT_OK
        assert store_path.exists()

        report_path = tmp_path / "report.json"
        code = cli(
            [
                "evaluate",
                "--corpus",
                corpus_arg,
                "--scheme",
                "3way",
                "--backend",
                "mock",
                "--k",
                "5",
                "--runs",
                "3",
                "--seeds",
                "1,2,3",
                "--dim",
                "48",
                "--adapter",
                str(adapters / "global.adapter"),
                "--store",
                str(store_path),
                "--out",
                str(report_path),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert set(report["metrics"]) == {"acc", "m_f1", "w_f1", "micro_f1"}
        assert report["runs"] == 3
        out = capsys.readouterr().out
        assert "Acc" in out and "M-F1" in out

    def test_global_adapter_directory_loads_as_the_single_adapter(self, corpus_arg, tmp_path):
        adapters = tmp_path / "adapters"
        train = ["train-embedder", "--corpus", corpus_arg, "--scope", "global", "--lr", "0.5"]
        assert cli(train + ["--dim", "48", "--out-dir", str(adapters)]) == EXIT_OK
        stores = []
        for adapter in (adapters, adapters / "global.adapter"):
            stores.append(tmp_path / f"{adapter.name}.vdb")
            build = ["build-vdb", "--corpus", corpus_arg, "--dim", "48", "--adapter", str(adapter)]
            assert cli(build + ["--out", str(stores[-1])]) == EXIT_OK
        assert stores[0].read_bytes() == stores[1].read_bytes()

    @pytest.mark.parametrize(
        "files, message",
        [([], "no *.adapter files"), (["global", "q1"], "global.adapter beside")],
        ids=["empty", "global-beside-question"],
    )
    def test_adapter_directory_layout_checked(self, corpus_arg, tmp_path, capsys, files, message):
        adapters = tmp_path / "adapters"
        adapters.mkdir()
        for name in files:
            Adapter(np.eye(48)).save(adapters / f"{name}.adapter")
        build = ["build-vdb", "--corpus", corpus_arg, "--dim", "48", "--adapter", str(adapters)]
        assert cli(build + ["--out", str(tmp_path / "train.vdb")]) == EXIT_RUNTIME
        assert f"{adapters}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "train.vdb").exists()

    @pytest.mark.parametrize(
        "qid, scope, altsep",
        [
            ("", "question", None),
            (".hidden", "question", None),
            ("..", "question", None),
            ("../escaped", "question", None),
            ("a/b", "question", None),
            ("a\\b", "question", "\\"),
            ("a\0b", "question", None),
            ("global", "question", None),
            ("../escaped", "global", None),
        ],
        ids=["empty", "dot", "dotdot", "parent", "slash", "altsep", "nul", "global", "parent-in-global-scope"],
    )
    def test_question_id_that_cannot_name_an_adapter_file_is_refused(
        self, tiny_corpus_path, tmp_path, monkeypatch, capsys, qid, scope, altsep
    ):
        monkeypatch.setattr(os, "altsep", altsep)
        corpus = tmp_path / "work" / "corpus.jsonl"
        corpus.parent.mkdir()
        corpus.write_text(tiny_corpus_path.read_text().replace('"q1"', json.dumps(qid)))
        out = corpus.parent / "adapters"
        trained = []
        monkeypatch.setattr(ragrade.cli, "train_for_corpus", lambda *a: trained.append(a))
        argv = ["train-embedder", "--corpus", str(corpus), "--scope", scope, "--dim", "16"]
        assert cli(argv + ["--out-dir", str(out)]) == EXIT_RUNTIME
        assert f"question id {qid!r}" in capsys.readouterr().err
        assert not trained
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["corpus.jsonl", "work"]

    def test_question_named_global_trains_in_global_scope(self, tiny_corpus_path, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(tiny_corpus_path.read_text().replace('"q1"', '"global"'))
        out = tmp_path / "adapters"
        argv = ["train-embedder", "--corpus", str(corpus), "--scope", "global", "--dim", "16"]
        assert cli(argv + ["--out-dir", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["global.adapter", "manifest.json"]


class TestEvaluate:
    def test_smoke(self, corpus_arg, tmp_path, capsys):
        code = cli(
            [
                "evaluate",
                "--corpus",
                corpus_arg,
                "--scheme",
                "3way",
                "--backend",
                "mock",
                "--k",
                "5",
                "--runs",
                "3",
                "--seeds",
                "1,2,3",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "UA" in out

    @pytest.mark.parametrize(
        "build, evaluate, store_id, run_id",
        [
            (["--dim", "64"], [], "hash-64", "hash-384"),
            (["--dim", "64", "--adapter", "ADAPTERS"], ["--dim", "64"], "routed(hash-64)", "hash-64"),
        ],
        ids=["other-dim", "adapter-at-build-only"],
    )
    def test_store_of_another_embedder_is_refused(
        self, corpus_arg, tmp_path, capsys, build, evaluate, store_id, run_id
    ):
        adapters = tmp_path / "adapters"
        adapters.mkdir()
        for qid in ("q1", "q2", "q3", "q4"):
            Adapter(np.eye(64)).save(adapters / f"{qid}.adapter")
        build = [str(adapters) if arg == "ADAPTERS" else arg for arg in build]
        store = tmp_path / "train.vdb"
        assert cli(["build-vdb", "--corpus", corpus_arg, "--out", str(store)] + build) == EXIT_OK
        evaluate = ["evaluate", "--corpus", corpus_arg, "--store", str(store), "--seeds", "1"] + evaluate
        assert cli(evaluate) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert repr(store_id) in err and repr(run_id) in err

    def test_rag_fraction_in_config_is_refused_for_ua(self, corpus_arg, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"rag_fraction": 0.4, "seeds": [1]}))
        assert cli(["evaluate", "--corpus", corpus_arg, "--config", str(config_path)]) == EXIT_RUNTIME
        assert "rag-fraction experiments run on the uq or ud scenario" in capsys.readouterr().err

    def test_runs_seed_mismatch(self, corpus_arg):
        assert (
            cli(
                ["evaluate", "--corpus", corpus_arg, "--runs", "2", "--seeds", "1,2,3"]
            )
            == EXIT_USAGE
        )

    def test_scheme_5way(self, corpus_arg):
        assert (
            cli(["evaluate", "--corpus", corpus_arg, "--scheme", "5way", "--seeds", "1"])
            == EXIT_OK
        )

    def test_config_file_with_flag_overrides(self, corpus_arg, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"scheme": "2way", "k": 7, "seeds": [5]}))
        report_path = tmp_path / "report.json"
        code = cli(
            [
                "evaluate",
                "--corpus",
                corpus_arg,
                "--config",
                str(config_path),
                "--out",
                str(report_path),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["scheme"] == "2way"
        assert report["manifest"]["k"] == 7
        assert report["seeds"] == [5]

        code = cli(
            [
                "evaluate",
                "--corpus",
                corpus_arg,
                "--config",
                str(config_path),
                "--k",
                "9",
                "--out",
                str(report_path),
            ]
        )
        assert code == EXIT_OK
        assert json.loads(report_path.read_text())["manifest"]["k"] == 9

    @pytest.mark.parametrize(
        "content, message",
        [
            ('{"seeds": 5}', "field 'seeds': expected list, got 5"),
            ('{"seeds": [1, "2"]}', "field 'seeds': expected int, got '2'"),
            ('{"scheme": 5}', "field 'scheme': expected str, got 5"),
            ('{"scheme": "4way"}', "field 'scheme': unknown scheme"),
            ('[{"k": 3}]', "config must be a JSON object, got list"),
            ('{"k": 0}', "k must be at least 1, got 0"),
            ('{"temperature": -1}', "temperature must be non-negative"),
            ('{"k": "5"}', "field 'k': expected int, got '5'"),
            ('{"k": true}', "field 'k': expected int, got True"),
            ('{"rag_fraction": "half"}', "field 'rag_fraction': expected float or NoneType or int"),
            ('{"seeds": [1]', "Expecting"),
        ],
    )
    def test_malformed_config_exits_2_before_training(
        self, corpus_arg, tmp_path, monkeypatch, capsys, content, message
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(content)
        trained = []
        monkeypatch.setattr(ragrade.harness, "train_for_corpus", lambda *a: trained.append(a))
        code = cli(["evaluate", "--corpus", corpus_arg, "--train", "--config", str(config_path)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"error: {config_path}: " in err
        assert message in err
        assert not trained

    @pytest.mark.parametrize("train", [True, False], ids=["train", "no-train"])
    @pytest.mark.parametrize(
        "content, message",
        [
            ('{"learning_rate": -1}', "learning_rate must be positive and finite, got -1"),
            ('{"epochs": -1}', "epochs must be non-negative, got -1"),
            ('{"batch_size": 0}', "batch_size must be >= 1, got 0"),
        ],
    )
    def test_bad_training_field_exits_2_naming_the_file(self, corpus_arg, tmp_path, capsys, content, message, train):
        config_path = tmp_path / "config.json"
        config_path.write_text(content)
        argv = ["evaluate", "--corpus", corpus_arg, "--config", str(config_path)] + ["--train"] * train
        assert cli(argv) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {config_path}: {message}\n"


class TestScore:
    def test_predictions_jsonl(self, corpus_arg, tmp_path):
        out = tmp_path / "predictions.jsonl"
        code = cli(
            ["score", "--corpus", corpus_arg, "--scenario", "ua", "--seeds", "1", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 4
        assert {"id", "gold", "predicted"} <= set(rows[0])


    def test_train_flag_trains_an_adapter(self, corpus_arg, tmp_path, monkeypatch):
        seeds = []
        real = ragrade.harness.train_for_corpus

        def spy(config, *args, **kwargs):
            seeds.append(config.seed)
            return real(config, *args, **kwargs)

        monkeypatch.setattr(ragrade.harness, "train_for_corpus", spy)
        out = tmp_path / "predictions.jsonl"
        code = cli(
            [
                "score",
                "--corpus",
                corpus_arg,
                "--seeds",
                "4,5",
                "--dim",
                "32",
                "--train",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert seeds == [4]  # score grades the first seed only

    @pytest.mark.parametrize(
        "scenario, config",
        [("ua", TRAINED), ("uq", {"seeds": [1], "rag_fraction": 0.4})],
        ids=["ua-trained", "uq-rag-fraction"],
    )
    def test_rows_match_evaluate_first_run(self, corpus_arg, tmp_path, scenario, config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        common = ["--corpus", corpus_arg, "--scenario", scenario, "--config", str(config_path)]
        scored = tmp_path / "predictions.jsonl"
        report_path = tmp_path / "report.json"
        assert cli(["score", *common, "--out", str(scored)]) == EXIT_OK
        assert cli(["evaluate", *common, "--out", str(report_path)]) == EXIT_OK
        rows = [json.loads(line) for line in scored.read_text().splitlines()]
        run = json.loads(report_path.read_text())["per_run"][0]
        assert [row["id"] for row in rows] == run["response_ids"]
        assert [row["predicted"] for row in rows] == run["predictions"]


class TestRagFraction:
    def test_smoke_reports_store_delta(self, corpus_arg, tmp_path, capsys):
        report_path = tmp_path / "rag.json"
        code = cli(
            [
                "rag-fraction",
                "--corpus",
                corpus_arg,
                "--scenario",
                "uq",
                "--fraction",
                "0.4",
                "--backend",
                "mock",
                "--seeds",
                "1",
                "--out",
                str(report_path),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "moved 1 responses into the store" in out
        report = json.loads(report_path.read_text())
        assert report["per_run"][0]["moved_to_store"] == 1
        assert report["per_run"][0]["scored"] == 2

    def test_bad_fraction(self, corpus_arg):
        assert (
            cli(
                [
                    "rag-fraction",
                    "--corpus",
                    corpus_arg,
                    "--scenario",
                    "uq",
                    "--fraction",
                    "1.5",
                ]
            )
            == EXIT_RUNTIME
        )


class TestOptimizePrompt:
    def test_scripted_critic_run(self, corpus_arg, tmp_path, capsys):
        body = (
            "Decide for {{QUESTION}} against {{REFERENCE_ANSWER}} whether "
            "{{NEW_ANSWER}} is right. Answer in <judgment></judgment>."
        )
        script = tmp_path / "critic.json"
        script.write_text(json.dumps([f"<template>\n{body}\n</template>"]))
        out = tmp_path / "opt"
        code = cli(
            [
                "optimize-prompt",
                "--corpus",
                corpus_arg,
                "--scenario",
                "uq",
                "--critic",
                f"scripted:{script}",
                "--steps",
                "1",
                "--candidates",
                "1",
                "--seeds",
                "1",
                "--out-dir",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert (out / "best_template.txt").exists()
        history = [json.loads(l) for l in (out / "history.jsonl").read_text().splitlines()]
        assert len(history) == 2  # draft + one proposal
        assert "best score" in capsys.readouterr().out

    def test_config_reaches_the_task_backend(self, corpus_arg, tmp_path, monkeypatch, capsys):
        class Recorder:
            """Records the params of every request and never returns a verdict."""

            def __init__(self):
                self.params = []

            def complete(self, prompt, params):
                self.params.append(params)
                return "no verdict in here"

        task = Recorder()
        real = ragrade.cli.make_backend
        monkeypatch.setattr(
            ragrade.cli, "make_backend", lambda spec: task if spec == "recorder" else real(spec)
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {"backend": "recorder", "temperature": 0.7, "fallback_label": "correct", "seeds": [1]}
            )
        )
        critic = tmp_path / "critic.json"
        critic.write_text(json.dumps(["no template here"]))
        code = cli(
            [
                "optimize-prompt",
                "--corpus",
                corpus_arg,
                "--scenario",
                "ua",
                "--config",
                str(config_path),
                "--critic",
                f"scripted:{critic}",
                "--steps",
                "1",
                "--candidates",
                "1",
                "--out-dir",
                str(tmp_path / "opt"),
            ]
        )
        assert code == EXIT_OK
        assert len(task.params) == 4
        assert {p.temperature for p in task.params} == {0.7}
        # every verdict falls back to "correct": 2 of the 4 ua answers are correct
        assert "best score 0.5000" in capsys.readouterr().out

    @pytest.mark.parametrize("scenario", ["uq", "ua"])
    def test_rag_fraction_in_config_is_refused(self, corpus_arg, tmp_path, monkeypatch, capsys, scenario):
        critic = ragrade.glm.ScriptedBackend(["<template>\nnever asked\n</template>"])
        real = ragrade.cli.make_backend
        monkeypatch.setattr(
            ragrade.cli, "make_backend", lambda spec: critic if spec == "critic" else real(spec)
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"rag_fraction": 0.5, "seeds": [1]}))
        out = tmp_path / "opt"
        code = cli(
            [
                "optimize-prompt",
                "--corpus",
                corpus_arg,
                "--scenario",
                scenario,
                "--config",
                str(config_path),
                "--critic",
                "critic",
                "--out-dir",
                str(out),
            ]
        )
        assert code == EXIT_RUNTIME
        assert "rag_fraction" in capsys.readouterr().err
        assert critic.calls == 0
        assert not out.exists()
