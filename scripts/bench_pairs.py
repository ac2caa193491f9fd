"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage, from anywhere:

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload infer_long --seeds 41-50 --out BENCH_x.json [--trace-seed 1] \
        [--claim setup_s]

For each seed the script runs ``perfbench/run.py --trace 0`` once in each
checkout, for the ``run_seconds`` that the parent's ``BENCHMARK.json`` sets, one after the other; the side that runs first alternates from seed
to seed.  It reads the JSON line each run prints last and writes, under the
workload's name in ``--out``:

- ``runs``: every run made, with its seed, which side ran first, its metrics,
  and its attempted and failed operations;
- ``end_to_end``: per metric, each side's median and quartiles,
  ``change_better_in`` (pairs in which the change read better; ties count for
  neither side), ``median_change_pct`` and ``gain_rule_met``, the gain rule
  of the choosing-metrics guide: the change better in at least nine tenths of
  the pairs, and the medians apart by more than the parent's interquartile
  distance, in the better direction; and per side ``incorrect_runs``, the
  runs whose own checks failed (``"correct": false``).  A run whose output
  is wrong measures nothing, so any incorrect run on either side makes
  ``gain_rule_met``, and so the claim, false;
- with ``--trace-seed``: one ``--trace 1`` run of each side at that seed,
  under ``traced_per_layer``;
- with ``--claim METRIC``: a ``claim`` entry for that metric on this workload.

Other workloads already in ``--out`` are kept, so one file collects several
invocations.  The file is rewritten after every pair, so an interrupted
session keeps the pairs it finished.  Whether a metric is better higher or
lower is read from ``BENCHMARK.json`` of the parent checkout.  Run each side
from a git checkout of its commit, so that its ``env`` records the commit
and the source tree that were measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(spec: str) -> list[int]:
    """``"41-50"`` or ``"41,43,45"`` (or a mix) to a list of seeds."""
    seeds = []
    for part in spec.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One ``perfbench/run.py`` run; returns its result object plus its ``env``.

    The ``env`` gains ``src_tree``, the git object name of the checkout's
    ``src`` directory, which stays the same when the commit is rewritten
    around an unchanged source tree.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(line[5:]) for line in lines if line.startswith("env: ")), {})
    tree = subprocess.run(["git", "rev-parse", "HEAD:src"], cwd=checkout, capture_output=True,
                          text=True)
    result["env"]["src_tree"] = tree.stdout.strip() if tree.returncode == 0 else "unknown"
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linear between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric sides, pair wins and the gain rule over ``runs``."""
    incorrect = {side: sum(not run[side]["correct"] for run in runs) for side in SIDES}
    out = {}
    for metric, direction in better.items():
        pairs = [(run["parent"]["metrics"][metric]["value"],
                  run["change"]["metrics"][metric]["value"]) for run in runs]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        (p1, pm, p3), (c1, cm, c3) = (quartiles([pair[k] for pair in pairs]) for k in (0, 1))
        out[metric] = {
            "parent": {"median": round(pm, 4), "q1": round(p1, 4), "q3": round(p3, 4)},
            "change": {"median": round(cm, 4), "q1": round(c1, 4), "q3": round(c3, 4)},
            "change_better_in": f"{wins}/{len(pairs)}",
            "median_change_pct": round(100.0 * (cm / pm - 1.0), 1) if pm else None,
            "gain_rule_met": not any(incorrect.values()) and wins >= 0.9 * len(pairs)
            and sign * (cm - pm) > p3 - p1,
        }
    out["incorrect_runs"] = incorrect
    out["failed_operations"] = {side: sum(run[side]["failed"] for run in runs) for side in SIDES}
    out["attempted_operations"] = {side: sum(run[side]["attempted"] for run in runs)
                                   for side in SIDES}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--claim")
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in better:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric of BENCHMARK.json")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["command"] = f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}" \
                     " --trace 0|1"

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    runs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        run = {"seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_once(checkouts[side], args.workload, seed, seconds, False)
            doc.setdefault("env", {})[side] = run[side].pop("env")
        runs.append(run)
        doc.setdefault("runs", {})[args.workload] = runs
        doc.setdefault("end_to_end", {})[args.workload] = summarise(runs, better)
        save()
        print(f"{args.workload} seed {seed}: " + "  ".join(
            f"{m} {run['parent']['metrics'][m]['value']:.4g} -> "
            f"{run['change']['metrics'][m]['value']:.4g}" for m in better), flush=True)

    if args.claim is not None:
        row = doc["end_to_end"][args.workload][args.claim]
        parent = row["parent"]
        doc["claim"] = {
            "metric": args.claim, "workload": args.workload, "met": row["gain_rule_met"],
            "evidence": f"change better in {row['change_better_in']} pairs; median "
                        f"{parent['median']} -> {row['change']['median']} "
                        f"({row['median_change_pct']:+.1f}%), parent interquartile distance "
                        f"{parent['q3'] - parent['q1']:.4g}",
        }
    if args.trace_seed is not None:
        doc.setdefault("traced_per_layer", {})[f"{args.workload} seed {args.trace_seed}"] = {
            side: {name: row["value"] for name, row in
                   run_once(checkouts[side], args.workload, args.trace_seed, seconds, True)["metrics"].items()}
            for side in SIDES}
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
