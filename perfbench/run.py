"""Benchmark of the discourse_rater package: one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_long --seed 1 --seconds 30 --trace 0

The run builds its inputs from ``--seed``, then repeats the workload's
operation for about ``--seconds`` seconds (at least once) with set-ups
between the operations, checks every output, and prints human-readable lines
followed by one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the operation runs once untraced and once traced, and
the metrics are the per-layer ones, written with every span to
``perfbench/out/``.

The package is imported from ``src/`` of the checkout and nowhere else; the
run exits with code 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One process does all the work, so BLAS threads are the only parallelism;
# their number is fixed so that runs on one machine compare.
BLAS_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameters (malloc.h).
M_TRIM_THRESHOLD = -1
M_MMAP_MAX = -4
# Set-up is timed in pauses spread over the run: one before the operations,
# one after the last, and one after any operation that ends at least
# seconds / SETUP_PAUSES after the previous pause.  A pause holds one set-up
# of each round, and setup_s is the median over rounds of each round's mean,
# so every sample of the median spans the whole run.  The machine's speed
# changes in blocks of seconds, and a plain median of set-ups that come in
# clumps took the level of whichever block held most of them.
SETUP_ROUNDS = 5
SETUP_PAUSES = 6


def _commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads: int, allocator: str) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"blas_threads": threads, "allocator": allocator, "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "commit": _commit()}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _keep_freed_memory() -> str:
    """Make glibc's allocator keep and reuse the memory a run frees.

    By default every large numpy array is a fresh ``mmap`` whose pages the
    kernel faults in and zeroes, and numpy asks for transparent huge pages on
    it; what that costs depends on the state of the whole host's memory and
    on what the process freed before.  With every block taken from
    the heap and the heap never trimmed, a set-up after the first reuses pages
    the process already holds, so ``setup_s`` times the set-up's own work.
    Outside glibc only the huge-page advice is off.  Must run before numpy
    allocates.  Returns what it set, for the run's ``env`` record.
    """
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return "default, numpy huge pages off"
    mallopt(M_MMAP_MAX, 0)
    mallopt(M_TRIM_THRESHOLD, 2**31 - 1)
    return "glibc heap only, never trimmed, numpy huge pages off"


def _timed(workload, state, tracer=None):
    """Run one operation; only the call into the package is timed (and traced)."""
    import workloads

    call = workload.prepare(state)
    try:
        if tracer is None:
            start = time.perf_counter()
            output = call()
            wall = time.perf_counter() - start
        else:
            with tracer:
                start = time.perf_counter()
                output = call()
                wall = time.perf_counter() - start
    except workloads.errors.DiscourseRaterError as exc:
        return workloads.Op(wall_s=0.0, segments=0, attempted=1, failed=1,
                            problems=[f"{type(exc).__name__}: {exc}"])
    return workload.finish(output, wall)


def layer_metrics(tracer, probes: dict, overhead_pct: float) -> dict:
    """Per-layer figures of one traced set-up plus one traced operation."""
    spans = tracer.summary()
    counts = tracer.counts

    def ms(name):
        return spans.get(name, {}).get("ms", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    padded = counts["collate.padded_rows"]
    metrics = {
        "tensor.matmul.calls": (calls("tensor.matmul"), "count"),
        "tensor.matmul.ms": (ms("tensor.matmul"), "ms"),
        "tensor.bmm.ms": (ms("tensor.bmm"), "ms"),
        "tensor.softmax.ms": (ms("tensor.softmax"), "ms"),
        "tensor.layer_norm.ms": (ms("tensor.layer_norm"), "ms"),
        "tensor.primitive.calls": (counts["tensor.graph_nodes"], "count"),
        "tensor.primitive.ms": (sum(row["ms"] for name, row in spans.items()
                                    if name.startswith("tensor.") and name != "tensor.backward"),
                                "ms"),
        "tensor.backward.ms": (ms("tensor.backward"), "ms"),
    }
    for kind in ("self", "cross_audio", "cross_video"):
        metrics[f"blocks.encoder_block.{kind}.ms"] = (ms(f"blocks.encoder_block.{kind}"), "ms")
    metrics["blocks.mlp_head.ms"] = (ms("blocks.mlp_head"), "ms")
    metrics.update({name: (value, "ms") for name, value in probes.items()})
    metrics.update({
        "objective.oll_loss.ms": (ms("objective.oll_loss"), "ms"),
        "model.forward.calls": (calls("model.forward"), "count"),
        "model.forward.ms": (ms("model.forward"), "ms"),
        "model.build_model.ms": (ms("model.build_model"), "ms"),
        "model.load_model.ms": (ms("model.load_model"), "ms"),
        "train.collate_batch.ms": (ms("train.collate_batch"), "ms"),
        "train.collate_batch.useful_row_ratio": (
            counts["collate.useful_rows"] / padded if padded else 0.0, "ratio"),
        "train.AdamW.step.calls": (calls("train.AdamW.step"), "count"),
        "train.AdamW.step.ms": (ms("train.AdamW.step"), "ms"),
        "train.batch_loss.ms": (ms("train.batch_loss"), "ms"),
        "train.evaluation_loss.ms": (ms("train.evaluation_loss"), "ms"),
        "train.predict.ms": (ms("train.predict"), "ms"),
        "data.read_feature_file.calls": (calls("data.read_feature_file"), "count"),
        "data.read_feature_file.ms": (ms("data.read_feature_file"), "ms"),
        "data.read_feature_file.bytes": (counts["read_feature_file.bytes"], "bytes"),
        "data.Dataset.load.ms": (ms("data.Dataset.load"), "ms"),
        "metrics.qwk.ms": (ms("metrics.qwk"), "ms"),
        "harness.make_folds.ms": (ms("harness.make_folds"), "ms"),
        "harness.grid_search.ms": (ms("harness.grid_search"), "ms"),
        "harness.jobs": (tracer.calls_under("train.train", "harness.run_nested_cv"), "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def measure(name: str, seed: int, seconds: float, trace: bool, env: dict,
            **shape) -> dict:
    """Run one workload and return the result object the last line prints.

    ``shape`` overrides workload fields, which the benchmark's own tests use
    to run each workload at a size that takes seconds.
    """
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[name](seed=seed, **shape)
    OUT.mkdir(exist_ok=True)
    problems: list[str] = []
    ops = []
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-") as tmp:
        root = Path(tmp)
        workload.make_inputs(root)
        problems += workload.verify()

        rounds: list[list[float]] = [[] for _ in range(SETUP_ROUNDS)]

        def pause():
            """Time one set-up for each round; return the last one's state."""
            for samples in rounds:
                state = None  # only one set-up's dataset and model alive at a time
                gc.collect()
                start = time.perf_counter()
                state = workload.setup(root)
                samples.append(time.perf_counter() - start)
            return state

        state = pause()
        workload.warm_up(state)

        if not trace:
            began = paused = time.perf_counter()
            while True:
                ops.append(_timed(workload, state))
                typical = statistics.median(op.wall_s for op in ops)
                now = time.perf_counter()
                last = now - began + typical > seconds
                if last or now - paused >= seconds / SETUP_PAUSES:
                    state = None
                    state = pause()
                    paused = time.perf_counter()
                if last:
                    break
            state = None
        else:
            ops.append(_timed(workload, state))
            rows = workloads.probe_rows(workload.dataset_of(state))
            state = None
            tracer = Tracer()
            with tracer:
                state = workload.setup(root)
            setup_spans = len(tracer.spans)
            ops.append(_timed(workload, state, tracer))
            # What the wrappers cost: the measured cost of one span times the
            # spans of the traced operation, against the untraced operation.
            overhead = 100.0 * (len(tracer.spans) - setup_spans) * tracer.span_cost_s() \
                / ops[0].wall_s if ops[0].wall_s else 0.0
            probes = workloads.probe_blocks(workload.block_kinds(), *rows, seed=seed)
            metrics = layer_metrics(tracer, probes, overhead)

    for op in ops:
        problems += op.problems
    for line in problems:
        print(f"CHECK FAILED: {line}")
    done = [op for op in ops if op.wall_s > 0]
    walls = [op.wall_s for op in done]
    if walls:
        print(f"{name}: {len(walls)} operations, wall s median {statistics.median(walls):.3f} "
              f"min {min(walls):.3f} max {max(walls):.3f}: "
              + " ".join(f"{w:.3f}" for w in walls))
    for key in sorted({k for op in done for k in op.report}):
        values = [op.report[key] for op in done if key in op.report]
        print(f"{name}: {key} = {statistics.median(values):.6g} (median of {len(values)})")

    if trace:
        _write_trace(name, seed, env, tracer, metrics)
        for key, row in metrics.items():
            print(f"{key} = {row['value']:.6g} {row['unit']}")
    else:
        per_s = [op.segments / op.wall_s for op in done]
        metrics = {
            "setup_s": {"value": statistics.median(statistics.fmean(r) for r in rounds),
                        "unit": "s"},
            "segments_per_s": {"value": statistics.median(per_s) if per_s else 0.0,
                               "unit": "1/s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
        for i, samples in enumerate(rounds):
            print(f"{name}: setup_s round {i}: mean {statistics.fmean(samples):.4f} of "
                  + " ".join(f"{s:.4f}" for s in samples))
        legacy = {"train_long": "train_segments_per_s",
                  "infer_long": "infer_segments_per_s"}.get(name)
        if legacy:
            print(f"{name}: {legacy} = {metrics['segments_per_s']['value']:.6g} 1/s")
        for key, row in metrics.items():
            print(f"{key} = {row['value']:.6g} {row['unit']}")

    return {"correct": not problems,
            "attempted": sum(op.attempted for op in ops) + len(problems),
            "failed": sum(op.failed for op in ops) + len(problems),
            "metrics": metrics}


def _write_trace(name: str, seed: int, env: dict, tracer, metrics: dict) -> None:
    doc = {"workload": name, "seed": seed, "env": env, "metrics": metrics,
           "summary": tracer.summary(), **tracer.to_json()}
    path = OUT / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(doc))
    print(f"spans written to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_long", "cv_short", "infer_long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "discourse_rater"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: {package} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2

    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    allocator = _keep_freed_memory()
    sys.path.insert(0, str(ROOT / "src"))
    import discourse_rater

    if Path(discourse_rater.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported {discourse_rater.__file__}, not {package}", file=sys.stderr)
        return 2

    env = environment(threads, allocator)
    print("env: " + json.dumps(env, sort_keys=True))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), env)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
