"""Measure the memory of one training step in two checkouts, with tracemalloc.

Usage, from anywhere:

    python3 scripts/step_memory.py PARENT CHANGE

Each argument is the root of a checkout.  In each, in a fresh interpreter
with the checkout's ``src`` and ``perfbench`` first on ``sys.path``, the
script builds one fixed, paper-shaped training batch: the ``train_long``
dataset at seed 1, its longest batch of 8 training segments (the batch that
``train_long`` warms up on), a T+A+V model with one fusion module, float32,
dropout on, and ``AdamW`` constructed first, as in ``train.train``, so that
backward writes the parameter gradients into their preallocated flat
buffer.  It then runs one ``batch_loss`` and one ``backward`` under
tracemalloc, which sees every numpy array, and prints per side, in MB of
2**20 bytes:

- ``graph``: memory held after the forward pass, that is, the graph;
- ``backward_peak``: the highest memory held while backward ran;
- ``held_after``: memory still held once backward has returned, with the
  loss still referenced, as ``train`` keeps it until the next step.

The loss of the step is printed too; both sides must agree on it.  Then the
graph's arrays are listed by the primitive that made them, in MB per side
(see ``graph_bytes_by_primitive``), largest first.  Exits 2 if a side fails
to run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SEED = 1
BATCH = 8
SCRIPTS = Path(__file__).resolve().parent

CHILD = f"""
import json, sys, tempfile, tracemalloc
from pathlib import Path

import numpy as np

import workloads
from workloads import model, train

sys.path.insert(0, {str(SCRIPTS)!r})
from step_memory import graph_bytes_by_primitive

workload = workloads.TrainLong(seed={SEED}, batch_size={BATCH})
with tempfile.TemporaryDirectory() as root:
    dataset = workload.make_inputs(Path(root))
fit, _ = workload.split(dataset)
fit.sort(key=lambda ex: -ex.features.text.shape[0] - ex.features.audio.shape[0])
examples = fit[:{BATCH}]
rater = model.build_model(workload.model_config())
# In an older checkout the model has no arena and AdamW takes the parameter dict.
optimizer = train.AdamW(rater if hasattr(rater, "arena") else rater.parameters(),
                        lr=train.TrainConfig().lr)
weights = train.component_weights(fit, rater.config.head_components)
batch = train.collate_batch(examples)
rng = np.random.default_rng({SEED})

optimizer.zero_grad()
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
loss = train.batch_loss(rater, batch, weights, training=True, rng=rng)
graph = tracemalloc.get_traced_memory()[0] - base
by_primitive = graph_bytes_by_primitive(loss)
tracemalloc.reset_peak()
loss.backward()
held, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()
print(json.dumps({{"graph": graph, "backward_peak": peak - base, "held_after": held - base,
                  "loss": float(loss.data), "by_primitive": by_primitive,
                  "lengths": {{m: max(ex.features.modality(m).shape[0] for ex in examples)
                              for m in ("text", "audio", "video")}}}}))
"""

FIGURES = ("graph", "backward_peak", "held_after")


def _base(array: np.ndarray) -> np.ndarray:
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def graph_bytes_by_primitive(loss) -> dict:
    """Bytes of the arrays that the graph of ``loss`` holds, by primitive.

    Walks ``_parents`` from ``loss`` and visits the nodes in topological
    order, inputs first.  A node's ``.data`` is keyed by the primitive that
    made it, the name of the function whose ``_backward`` closure it has
    (``matmul`` for ``matmul.<locals>.backward``), or ``leaf`` for a tensor
    with no closure; then every other array that a closure holds, directly
    or in a tuple or list, is keyed by that closure's primitive.  A view
    counts as its base array, and each base array counts once, under the
    first key that reaches it, so a view that a later node returns (say a
    ``reshape``) stays with the node that made its base.  Parameters,
    leaves that require a gradient, are left out: they outlive the step.
    """
    nodes, stack, seen = [], [(loss, False)], set()
    while stack:
        node, done = stack.pop()
        if done:
            nodes.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents)
    counted = {id(_base(n.data)) for n in nodes if n._backward is None and n.requires_grad}
    out = {}

    def count(array, key):
        base = _base(array)
        if id(base) not in counted:
            counted.add(id(base))
            out[key] = out.get(key, 0) + base.nbytes

    def key_of(node):
        if node._backward is None:
            return "leaf"
        return node._backward.__qualname__.split(".<locals>")[0]

    for node in nodes:
        count(node.data, key_of(node))
    for node in nodes:
        for cell in getattr(node._backward, "__closure__", None) or ():
            held = cell.cell_contents
            for item in held if isinstance(held, (tuple, list)) else (held,):
                if isinstance(item, np.ndarray):
                    count(item, key_of(node))
    return out


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
          f"longest lengths {lengths}")
    print(f"{'side':<8s}" + "".join(f"{name + ' MB':>18s}" for name in FIGURES)
          + f"{'loss':>14s}")
    for side, figures in results.items():
        print(f"{side:<8s}" + "".join(f"{figures[name] / 2**20:>18.1f}" for name in FIGURES)
              + f"{figures['loss']:>14.6f}")
    print("\ngraph MB by the primitive that made each array")
    keys = sorted(set().union(*(figures["by_primitive"] for figures in results.values())),
                  key=lambda k: -sum(f["by_primitive"].get(k, 0) for f in results.values()))
    print(f"{'primitive':<18s}" + "".join(f"{side:>12s}" for side in results))
    for key in keys:
        print(f"{key:<18s}" + "".join(f"{f['by_primitive'].get(key, 0) / 2**20:>12.1f}"
                                      for f in results.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
