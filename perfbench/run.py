"""Benchmark of the ragrade grading pipeline against a fixed-latency model.

Run from the root of a ragrade source tree:

    python3 perfbench/run.py --workload ua-remote --seed 1 --seconds 20 --trace 0

The run writes a seeded corpus, times the workload's set-up alone a few
times, then repeats whole rounds of the workload (parse the corpus file,
set up, grade every response) until --seconds have passed, checks every
round's output apart from the program, and prints one JSON object as its
last line.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a separate traced run and writes its spans to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

# BLAS threads are read when numpy loads: one thread keeps the small
# matrix products of this program from contending on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The client should send this model name; the fake session records what it gets.
os.environ["RAGRADE_GLM_MODEL"] = "perfbench-model"

import fakeglm  # noqa: E402  (numpy must load after the settings above)
import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

ROOT = Path.cwd()
# share of --seconds spent timing set-up alone before the graded rounds start
PROBE_SHARE = 0.15
OUT_DIR = ROOT / "perfbench" / "out"


def blas_threads() -> str:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:  # no /proc: not Linux
        return "unknown"
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def probe_setup(workload, corpus_path: str, gold: dict):
    """Seconds from the start of a job to its first request; the job stops there.

    None when the job fails before any request.
    """
    session = fakeglm.FakeSession(gold, stop_at_first=True)
    start = time.perf_counter()
    try:
        workload.run_round(corpus_path, session)
    except fakeglm.FirstRequest:
        return session.arrivals[0] - start
    except Exception:
        return None  # the graded rounds report the failure and count it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ragrade" / "__init__.py").is_file():
        print(f"error: no ragrade source tree under {ROOT / 'src'}; "
              "run from the root of a ragrade checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    t_start = time.perf_counter()
    records = gen.generate(workload.shape, args.seed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    corpus_path = OUT_DIR / f"corpus-{workload.name}-s{args.seed}-p{os.getpid()}.jsonl"
    gen.write(records, corpus_path)
    gold = {r["text"]: oracle.collapse3(r["label"]) for r in records if r["kind"] == "response"}
    gen_s = time.perf_counter() - t_start

    tracer = spans.Tracer() if args.trace else None
    check = workload.checker(records)
    setups, rates, models = [], [], set()
    rounds = attempted = failed = mismatches = 0
    try:
        t0 = time.perf_counter()
        while not setups or time.perf_counter() - t0 < PROBE_SHARE * args.seconds:
            setup = probe_setup(workload, str(corpus_path), gold)
            if setup is None:
                break
            setups.append(setup)
        while True:
            session = fakeglm.FakeSession(gold)
            start = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.round = rounds
                    with tracer.installed():
                        outcome = workload.run_round(str(corpus_path), session)
                else:
                    outcome = workload.run_round(str(corpus_path), session)
            except Exception:
                traceback.print_exc()
                expected = workload.expected_grades(workload.shape)
                attempted += expected
                failed += expected
            else:
                end = time.perf_counter()
                first = session.arrivals[0]
                setups.append(first - start)
                rates.append(outcome.graded / (end - first))
                mismatches += check(outcome)
                attempted += outcome.graded
                models.update(session.models)
            rounds += 1
            if time.perf_counter() - t0 >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        corpus_path.unlink(missing_ok=True)

    if not rates:
        print("error: every round failed", file=sys.stderr)
        return 1
    setup_s = median(setups)
    graded_per_s = median(rates)
    print(f"workload={workload.name} seed={args.seed} rounds={rounds} "
          f"corpus_gen_s={gen_s:.3f} blas_threads={blas_threads()} "
          f"fake_latency_ms={fakeglm.LATENCY_S * 1e3:g} models_sent={sorted(models)}")
    print(f"setup_s n={len(setups)} min={min(setups):.4f} max={max(setups):.4f} "
          f"graded_per_s={[round(x, 2) for x in rates]} mismatches={mismatches}")
    if tracer is not None:
        print(f"traced graded_per_s={graded_per_s:.4f} setup_s={setup_s:.4f}")
        trace_path = OUT_DIR / f"trace-{workload.name}-s{args.seed}.jsonl"
        tracer.write(trace_path)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in spans.layer_metrics(tracer.spans).items()}
    else:
        metrics = {
            "graded_per_s": {"value": graded_per_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": mismatches == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
