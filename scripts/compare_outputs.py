"""Run one fixed sequence of steps in two checkouts and compare every output.

Usage, from anywhere:

    python3 scripts/compare_outputs.py PARENT CHANGE

Each argument is the root of a checkout.  In each, with its ``src`` first on
``PYTHONPATH``, the script runs under a temporary directory:

1. ``synth``: 10 teachers of 4 segments, 3 students a teacher, seed 0;
2. ``train``: T+A, 2 epochs, seed 3, and audio only, 1 epoch, seed 3
   (the one layout whose CLS row is drawn after the audio projection but
   carved before it);
3. ``cv``: the ROADMAP baseline (T+A+V, lr 1e-4, batch 8, M 1 and 2,
   3 epochs), once with ``--jobs 1`` and once with ``--jobs 2``;
4. ``ablate --axes loss task``: text only, the same grid, 1 epoch;
5. ``correlate`` on the ``--jobs 1`` predictions;
6. ``load_model`` on ``train/model.dfm``, then ``predict`` over the synth
   set, written to ``loaded/predictions.json``: no CLI command reads a
   checkpoint, so this is the step that runs the load path.

Each side runs its own code for every step.  The script then compares
every file the two sides wrote, byte for byte.  In ``run_config.json`` only
the path fields (``data``, ``out``, ``predictions``) are masked, by making
them relative to the side's temporary directory.  It prints one line per
file and exits 1 if any file differs or exists on one side only, 2 if a
step fails.

For a file that differs it also prints how far apart it is.  Each side is
split into measured values and the rest: in a text file a measured value
is a number written with two or more decimals or with an exponent; in a
DFM1 checkpoint it is every tensor value.  Everything else (ids, ratings,
which take one decimal at most, counts, tensor names and shapes) must match
exactly, and the line says whether it does.  Where it does, the line gives
the largest absolute and relative difference between paired values.
"""

from __future__ import annotations

import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BASELINE_CV = ["--data", "ds", "--modalities", "T+A+V", "--grid-lr", "1e-4",
               "--grid-batch", "8", "--grid-m", "1", "2", "--max-epochs", "3"]

SEQUENCE = [
    ["synth", "--out", "ds", "--teachers", "10", "--segments-per-teacher", "4",
     "--students-per-teacher", "3", "--seed", "0"],
    ["train", "--data", "ds", "--out", "train", "--modalities", "T+A",
     "--max-epochs", "2", "--seed", "3"],
    ["train", "--data", "ds", "--out", "train_audio", "--modalities", "A",
     "--max-epochs", "1", "--seed", "3"],
    ["cv", *BASELINE_CV, "--jobs", "1", "--out", "cv_jobs1"],
    ["cv", *BASELINE_CV, "--jobs", "2", "--out", "cv_jobs2"],
    ["ablate", "--data", "ds", "--out", "ablate", "--axes", "loss", "task",
     "--grid-lr", "1e-4", "--grid-batch", "8", "--grid-m", "1", "2",
     "--max-epochs", "1"],
    ["correlate", "--data", "ds", "--predictions", "cv_jobs1/predictions.csv",
     "--out", "correlate"],
]

LOAD_AND_PREDICT = """\
import json, os
from discourse_rater.data import Dataset
from discourse_rater.model import load_model
from discourse_rater.train import predict
dataset = Dataset.load("ds")
predictions = predict(load_model("train/model.dfm"), dataset.examples())
os.makedirs("loaded")
with open("loaded/predictions.json", "w", encoding="utf-8") as out:
    json.dump(predictions, out, indent=2, sort_keys=True)
"""

PATH_FIELDS = ("data", "out", "predictions")

MEASURED = re.compile(r"(?<![\w.])-?(?:\d+\.\d{2,}(?:[eE][-+]?\d+)?"
                      r"|\d+(?:\.\d*)?[eE][-+]?\d+)(?![\w.])")


def run_sequence(checkout: Path, root: Path) -> None:
    """Run every command of ``SEQUENCE``, then ``LOAD_AND_PREDICT``, with
    ``root`` as working directory."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    steps = [(argv[0], argv[argv.index("--out") + 1], ["-m", "discourse_rater.cli", *argv])
             for argv in SEQUENCE]
    steps.append(("load_model", "loaded", ["-c", LOAD_AND_PREDICT]))
    for name, out, args in steps:
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, *args],
                              cwd=root, env=env, capture_output=True, text=True)
        print(f"{checkout}: {name} -> {out}: exit {proc.returncode} "
              f"in {time.perf_counter() - started:.1f} s", flush=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(2)


def comparable_bytes(path: Path, root: Path) -> bytes:
    """The file's bytes; for ``run_config.json``, with path fields relative."""
    if path.name != "run_config.json":
        return path.read_bytes()
    doc = json.loads(path.read_text(encoding="utf-8"))
    for key in PATH_FIELDS:
        if key in doc:
            doc[key] = os.path.relpath(os.path.join(root, doc[key]), root)
    return json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")


def split_measured(data: bytes) -> tuple[bytes, list[float]]:
    """A file's content with its measured values taken out, and those values."""
    if data[:4] == b"DFM1":
        return split_checkpoint(data)
    text = data.decode("utf-8", errors="surrogateescape")
    values = [float(m) for m in MEASURED.findall(text)]
    rest = MEASURED.sub("#", text).encode("utf-8", errors="surrogateescape")
    return rest, values


def split_checkpoint(data: bytes) -> tuple[bytes, list[float]]:
    """A DFM1 checkpoint: its config, names and shapes, and its tensor values."""
    (size,) = struct.unpack_from("<I", data, 4)
    offset = 8 + size
    rest = [data[:offset]]
    values: list[float] = []
    (count,) = struct.unpack_from("<I", data, offset)
    offset += 4
    for _ in range(count):
        (size,) = struct.unpack_from("<I", data, offset)
        (rank,) = struct.unpack_from("<I", data, offset + 4 + size)
        header_end = offset + 8 + size + 4 * rank
        shape = struct.unpack_from(f"<{rank}I", data, header_end - 4 * rank)
        rest.append(data[offset:header_end])
        n = 1
        for dim in shape:
            n *= dim
        values.extend(struct.unpack_from(f"<{n}f", data, header_end))
        offset = header_end + 4 * n
    rest.append(data[offset:])
    return b"".join(rest), values


def describe_difference(parent: bytes, change: bytes) -> str:
    """Whether the non-measured content matches, and how far the values are apart."""
    parent_rest, parent_values = split_measured(parent)
    change_rest, change_values = split_measured(change)
    if parent_rest != change_rest or len(parent_values) != len(change_values):
        return "other content DIFFERS"
    worst_abs = worst_rel = 0.0
    for a, b in zip(parent_values, change_values):
        gap = abs(a - b)
        worst_abs = max(worst_abs, gap)
        if gap:
            worst_rel = max(worst_rel, gap / max(abs(a), abs(b)))
    return (f"other content identical; {len(parent_values)} values, "
            f"max abs diff {worst_abs:.3g}, max rel diff {worst_rel:.3g}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    sides = [Path(a) for a in args]
    with tempfile.TemporaryDirectory() as parent_root, \
            tempfile.TemporaryDirectory() as change_root:
        roots = [Path(parent_root), Path(change_root)]
        for checkout, root in zip(sides, roots):
            run_sequence(checkout, root)
        files = [{p.relative_to(root): p for p in root.rglob("*") if p.is_file()}
                 for root in roots]
        differing = 0
        for name in sorted(set(files[0]) | set(files[1])):
            if name not in files[0] or name not in files[1]:
                status = "only in " + ("change" if name in files[1] else "parent")
            else:
                parent, change = (comparable_bytes(side[name], root)
                                  for side, root in zip(files, roots))
                status = "identical" if parent == change else "DIFFERS"
            differing += status != "identical"
            detail = f": {describe_difference(parent, change)}" if status == "DIFFERS" else ""
            print(f"{status:>14s}  {name}{detail}")
    print(f"{differing} of {len(set(files[0]) | set(files[1]))} files differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
