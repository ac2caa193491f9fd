"""Measure the memory of one training step in two checkouts, with tracemalloc.

Usage, from anywhere:

    python3 scripts/step_memory.py PARENT CHANGE

Each argument is the root of a checkout.  In each, in a fresh interpreter
with the checkout's ``src`` and ``perfbench`` first on ``sys.path``, the
script builds one fixed, paper-shaped training batch: the ``train_long``
dataset at seed 1, its longest batch of 8 training segments (the batch that
``train_long`` warms up on), a T+A+V model with one fusion module, float32,
dropout on, and ``AdamW`` constructed first so that backward writes the
parameter gradients into its preallocated flat buffer, as in ``train.train``.  It then runs one
``batch_loss`` and one ``backward`` under tracemalloc, which sees every numpy
array, and prints per side, in MB of 2**20 bytes:

- ``graph``: memory held after the forward pass, that is, the graph;
- ``backward_peak``: the highest memory held while backward ran;
- ``held_after``: memory still held once backward has returned, with the
  loss still referenced, as ``train`` keeps it until the next step.

The loss of the step is printed too; both sides must agree on it.  Exits 2
if a side fails to run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SEED = 1
BATCH = 8

CHILD = f"""
import json, tempfile, tracemalloc
from pathlib import Path

import numpy as np

import workloads
from workloads import model, train

workload = workloads.TrainLong(seed={SEED}, batch_size={BATCH})
with tempfile.TemporaryDirectory() as root:
    dataset = workload.make_inputs(Path(root))
fit, _ = workload.split(dataset)
fit.sort(key=lambda ex: -ex.features.text.shape[0] - ex.features.audio.shape[0])
examples = fit[:{BATCH}]
rater = model.build_model(workload.model_config())
optimizer = train.AdamW(rater.parameters())
weights = train.component_weights(fit, rater.config.head_components)
batch = train.collate_batch(examples)
rng = np.random.default_rng({SEED})

optimizer.zero_grad()
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
loss = train.batch_loss(rater, batch, weights, training=True, rng=rng)
graph = tracemalloc.get_traced_memory()[0] - base
tracemalloc.reset_peak()
loss.backward()
held, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()
print(json.dumps({{"graph": graph, "backward_peak": peak - base, "held_after": held - base,
                  "loss": float(loss.data),
                  "lengths": {{m: max(ex.features.modality(m).shape[0] for ex in examples)
                              for m in ("text", "audio", "video")}}}}))
"""

FIGURES = ("graph", "backward_peak", "held_after")


def measure(checkout: Path) -> dict:
    """Run ``CHILD`` in ``checkout`` and return the JSON object it prints last."""
    root = checkout.resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                       str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(2)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: step_memory.py PARENT CHANGE", file=sys.stderr)
        return 2
    results = {side: measure(Path(path)) for side, path in zip(("parent", "change"), args)}
    lengths = results["parent"]["lengths"]
    print(f"train_long seed {SEED}, longest batch of {BATCH}, T+A+V, M=1, float32; "
          f"padded lengths {lengths}")
    print(f"{'side':<8s}" + "".join(f"{name + ' MB':>18s}" for name in FIGURES)
          + f"{'loss':>14s}")
    for side, figures in results.items():
        print(f"{side:<8s}" + "".join(f"{figures[name] / 2**20:>18.1f}" for name in FIGURES)
              + f"{figures['loss']:>14.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
