"""Command-line front end for the grading toolkit.

Subcommands: ingest, validate, build-pairs, train-embedder, build-vdb,
score, evaluate, rag-fraction, optimize-prompt.  Exit codes: 0 success,
1 validation failure, 2 runtime error, 64 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

from . import __version__
from .corpus import (
    SPLITS,
    Corpus,
    CorpusError,
    Scheme,
    collapse_label,
    parse_jsonl,
    parse_semeval_xml,
    validate_corpus,
    write_jsonl,
)
from .embedding import DEFAULT_DIM, AdaptedEmbedder, Adapter, EmbeddingError, HashEmbedder
from .glm import GlmError, make_backend
from .harness import (
    SCENARIOS,
    ExperimentConfig,
    HarnessError,
    format_report_table,
    run_scenario,
    seed_grader,
)
from .losses import LossKind
from .metrics import MetricsError
from .optimize import METRICS, OptimizerConfig, OptimizerError, PromptEvaluator, optimize
from .pairs import Scope, Strategy, build_training_sets, write_pairs_jsonl, write_triplets_jsonl
from .prompts import STYLES, PromptError
from .training import TrainConfig, TrainingError, train_for_corpus
from .vstore import StoreError, VectorStore, build_store

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_USAGE = 64

_RUNTIME_ERRORS = (
    CorpusError,
    HarnessError,
    EmbeddingError,
    StoreError,
    PromptError,
    GlmError,
    OptimizerError,
    MetricsError,
    TrainingError,
    ValueError,
    OSError,
)


class _UsageExit(Exception):
    """A usage problem; the command exits with EXIT_USAGE."""


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage problems instead of exiting with code 2."""

    def error(self, message):
        raise _UsageExit(message)


def _load_corpus(path: str) -> Corpus:
    if Path(path).is_dir():
        return parse_semeval_xml(path)
    return parse_jsonl(path)


def _seed_list(text: str) -> list[int] | None:
    """--seeds: comma-separated integers, blank parts skipped; "" means not given."""
    try:
        return [int(s) for s in text.split(",") if s.strip()] if text else None
    except ValueError as exc:  # int()'s message names the bad part
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common_eval_args(p: argparse.ArgumentParser):
    # eval-family defaults live in ExperimentConfig; None means "not given",
    # so a --config file is only overridden by flags the user actually passed
    p.add_argument("--corpus", required=True, help="corpus JSONL file or XML directory")
    p.add_argument("--scheme", default=None, help="5way, 3way, or 2way (default 3way)")
    p.add_argument("--backend", default=None, help="mock, remote, replay:PATH, scripted:PATH")
    p.add_argument("--k", type=int, default=None, help="retrieved examples per query")
    p.add_argument("--template-style", default=None, choices=STYLES)
    p.add_argument("--seeds", type=_seed_list, default=None, help="comma-separated run seeds (default 1,2,3)")
    p.add_argument("--runs", type=int, default=None, help="must match the seed count if given")
    p.add_argument("--dim", type=int, default=None, help="base embedding dimension")
    p.add_argument("--adapter", default=None, help="adapter file, or a directory train-embedder wrote")
    p.add_argument("--store", default=None, help="prebuilt vector store file")
    p.add_argument("--train", action="store_true", default=None, help="train adapter(s) before scoring")
    p.add_argument("--config", default=None, help="experiment config JSON (flags override)")
    p.add_argument("--out", default=None, help="write the JSON report here")


def _add_mining_args(p: argparse.ArgumentParser):
    p.add_argument("--corpus", required=True)
    p.add_argument("--scheme", default=ExperimentConfig.scheme.value)
    p.add_argument("--strategy", default=ExperimentConfig.strategy.value, choices=[s.value for s in Strategy])
    p.add_argument("--scope", default=ExperimentConfig.scope.value, help="question or global")
    p.add_argument("--seed", type=int, default=0)


def _mined_sets(args):
    """The corpus and the training sets the mining flags select from it."""
    corpus = _load_corpus(args.corpus)
    sets = build_training_sets(
        corpus, Scheme.parse(args.scheme), Strategy.parse(args.strategy), Scope.parse(args.scope), args.seed
    )
    return corpus, sets


def _experiment_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    overrides = {
        "corpus": args.corpus,
        "scheme": args.scheme,
        "backend": args.backend,
        "k": args.k,
        "template_style": args.template_style,
        "seeds": args.seeds,
        "embed_dim": args.dim,
        "train_adapter": args.train,
        "rag_fraction": getattr(args, "fraction", None),
    }
    merged = config.manifest()
    merged.update({key: value for key, value in overrides.items() if value is not None})
    if args.runs is not None and args.runs != len(merged["seeds"]):
        raise _UsageExit(f"--runs {args.runs} does not match {len(merged['seeds'])} seeds")
    return ExperimentConfig.from_dict(merged)


def _load_adapters(path: str | None):
    """The adapter in a file, or the adapters train-embedder wrote to a directory.

    A directory holds either global.adapter alone (global scope), which
    loads as the single adapter, or one <question id>.adapter per question.
    """
    if path is None:
        return None
    p = Path(path)
    if not p.is_dir():
        return Adapter.load(p)
    files = sorted(p.glob("*.adapter"))
    if not files:
        raise ValueError(f"{p}: no *.adapter files in the adapter directory")
    if any(f.stem == "global" for f in files):
        if len(files) > 1:
            raise ValueError(f"{p}: global.adapter beside per-question adapters")
        return Adapter.load(files[0])
    return {f.stem: Adapter.load(f) for f in files}


def build_parser() -> _Parser:
    parser = _Parser(prog="ragrade", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("ingest", help="parse a dataset and write canonical JSONL")
    p.set_defaults(handler=_cmd_ingest)
    p.add_argument("--xml-root", default=None, help="dataset XML directory")
    p.add_argument("--jsonl", default=None, help="existing JSONL corpus to re-validate and copy")
    p.add_argument("--name", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="report corpus invariant violations and label counts")
    p.set_defaults(handler=_cmd_validate)
    p.add_argument("--corpus", required=True)

    p = sub.add_parser("build-pairs", help="mine balanced pair and triplet training sets")
    p.set_defaults(handler=_cmd_build_pairs)
    _add_mining_args(p)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("train-embedder", help="fit the embedding adapter(s)")
    p.set_defaults(handler=_cmd_train_embedder)
    _add_mining_args(p)
    p.add_argument("--loss", default=TrainConfig.loss.value)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--dim", type=int, default=DEFAULT_DIM)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("build-vdb", help="embed train responses into a vector store")
    p.set_defaults(handler=_cmd_build_vdb)
    p.add_argument("--corpus", required=True)
    p.add_argument("--dim", type=int, default=DEFAULT_DIM)
    p.add_argument("--adapter", default=None)
    p.add_argument("--include-question", action="store_true")
    p.add_argument("--include-reference", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("score", help="grade one split and write predictions JSONL")
    p.set_defaults(handler=_cmd_score)
    _add_common_eval_args(p)
    p.add_argument("--scenario", default="ua", choices=SCENARIOS)

    p = sub.add_parser("evaluate", help="evaluate a scenario and report metrics")
    p.set_defaults(handler=_cmd_evaluate)
    _add_common_eval_args(p)
    p.add_argument("--scenario", default="ua", choices=SCENARIOS)

    p = sub.add_parser("rag-fraction", help="move a test fraction into the store, then grade the rest")
    p.set_defaults(handler=_cmd_rag_fraction)
    _add_common_eval_args(p)
    p.add_argument("--scenario", default="uq", choices=SCENARIOS[1:])
    p.add_argument("--fraction", type=float, required=True)

    p = sub.add_parser("optimize-prompt", help="propose/evaluate/rank template candidates")
    p.set_defaults(handler=_cmd_optimize_prompt)
    _add_common_eval_args(p)
    p.add_argument("--scenario", default="ua", choices=SCENARIOS)
    p.add_argument("--critic", required=True, help="critic backend selector (e.g. scripted:FILE)")
    p.add_argument("--steps", type=int, default=OptimizerConfig.steps)
    p.add_argument("--candidates", type=int, default=OptimizerConfig.beam)
    p.add_argument("--metric", default=PromptEvaluator.metric, choices=tuple(METRICS))
    p.add_argument("--out-dir", required=True)

    return parser


def _cmd_ingest(args) -> int:
    if bool(args.xml_root) == bool(args.jsonl):
        raise _UsageExit("ingest needs exactly one of --xml-root or --jsonl")
    if args.xml_root:
        corpus = parse_semeval_xml(args.xml_root, name=args.name)
    else:
        corpus = parse_jsonl(args.jsonl, name=args.name)
    write_jsonl(corpus, args.out)
    report = validate_corpus(corpus)
    print(f"wrote {args.out}: {sum(len(corpus.split(s)) for s in SPLITS)} responses")
    if not report.ok:
        for v in report.violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_validate(args) -> int:
    corpus = _load_corpus(args.corpus)
    report = validate_corpus(corpus)
    print(json.dumps({"violations": report.violations, "counts": report.counts}, indent=2))
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_build_pairs(args) -> int:
    _, sets = _mined_sets(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_pairs_jsonl(sets.merged_pairs(), out / "pairs.jsonl")
    write_triplets_jsonl(sets.merged_triplets(), out / "triplets.jsonl")
    manifest = sets.manifest()
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(manifest))
    return EXIT_OK


def _cmd_train_embedder(args) -> int:
    config = TrainConfig(
        loss=LossKind.parse(args.loss),
        epochs=args.epochs,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    corpus, sets = _mined_sets(args)
    # a question id must be able to name an adapter file, as it does in
    # question scope, where "global" names the global adapter instead
    reserved = ("", "global") if sets.scope is Scope.QUESTION else ("",)
    for qid in sets.pair_sets:
        if qid in reserved or qid.startswith(".") or any(c and c in qid for c in ("/", "\0", os.altsep)):
            raise ValueError(f"question id {qid!r} cannot name an adapter file")
    base = HashEmbedder(args.dim)
    results = train_for_corpus(config, corpus, sets, base)
    summary = {
        "adapters": len(results),
        "config": config.manifest(),
        "final_epoch_loss": {k: r.epoch_means[-1] if r.epoch_means else None for k, r in results.items()},
    }
    out = Path(args.out_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    # staged beside out, on its file system, so a failed write leaves out as it was
    with tempfile.TemporaryDirectory(prefix=f".{out.name}.", dir=out.parent) as staging:
        for key, result in results.items():
            result.adapter.save(Path(staging, f"{key}.adapter"))
        Path(staging, "manifest.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        out.mkdir(exist_ok=True)
        for staged in Path(staging).iterdir():
            os.replace(staged, out / staged.name)
    print(f"trained {len(results)} adapter(s) into {out}")
    return EXIT_OK


def _cmd_build_vdb(args) -> int:
    corpus = _load_corpus(args.corpus)
    base = HashEmbedder(args.dim)
    adapters = _load_adapters(args.adapter)
    embedder = base if adapters is None else AdaptedEmbedder(base, adapters)
    store = build_store(
        list(corpus.split("train")),
        embedder,
        corpus.questions,
        include_question=args.include_question,
        include_reference=args.include_reference,
    )
    store.save(args.out)
    print(f"wrote {args.out}: {len(store)} entries, dim {store.dim}")
    return EXIT_OK


def _artifacts(args) -> dict:
    """The adapters and store the --adapter and --store flags name, as keyword arguments."""
    return {
        "adapters": _load_adapters(args.adapter),
        "store": VectorStore.load(args.store) if args.store else None,
    }


def _cmd_score(args) -> int:
    corpus = _load_corpus(args.corpus)
    config = _experiment_config(args)
    first_seed = dataclasses.replace(config, seeds=config.seeds[:1])
    run = run_scenario(corpus, args.scenario, first_seed, **_artifacts(args)).per_run[0]
    gold = {r.id: collapse_label(r.label, config.scheme) for r in corpus.split(args.scenario)}
    lines = [
        json.dumps({"id": rid, "gold": gold[rid], "predicted": p}, ensure_ascii=False)
        for rid, p in zip(run["response_ids"], run["predictions"])
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print(f"scored {len(lines)} responses, {run['parse_failures']} parse failures", file=sys.stderr)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    corpus, config = _load_corpus(args.corpus), _experiment_config(args)
    report = run_scenario(corpus, args.scenario, config, **_artifacts(args))
    if args.out:
        report.write_json(args.out)
    print(format_report_table([report]))
    print(json.dumps(report.metrics))
    return EXIT_OK


def _cmd_rag_fraction(args) -> int:
    corpus, config = _load_corpus(args.corpus), _experiment_config(args)
    report = run_scenario(corpus, args.scenario, config, **_artifacts(args))
    if args.out:
        report.write_json(args.out)
    print(format_report_table([report]))
    print(f"moved {report.per_run[0]['moved_to_store']} responses into the store per run")
    return EXIT_OK


def _cmd_optimize_prompt(args) -> int:
    config = _experiment_config(args)
    if config.rag_fraction is not None:
        raise OptimizerError("optimize-prompt does not run rag-fraction experiments; unset rag_fraction")
    corpus = _load_corpus(args.corpus)
    backend = make_backend(config.backend)
    grader = seed_grader(corpus, args.scenario, config, config.seeds[0], backend, **_artifacts(args))
    evaluator = PromptEvaluator(list(corpus.split(args.scenario)), grader, metric=args.metric)
    opt_config = OptimizerConfig(steps=args.steps, beam=args.candidates)
    result = optimize(opt_config, grader.template, evaluator, make_backend(args.critic))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "best_template.txt").write_text(result.best.template.body, encoding="utf-8")
    result.write_history_jsonl(out / "history.jsonl", args.metric, evaluator.dev_set_id)
    print(f"best score {result.best.score:.4f} after {args.steps} steps; trace {result.best_trace}")
    return EXIT_OK


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if not args.command:
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.handler(args)
    except _UsageExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
