"""Tests of the measurement scripts under ``scripts/``."""

import importlib.util
import struct
from pathlib import Path

import numpy as np
import pytest

from discourse_rater import tensor as T
from discourse_rater.tensor import Tensor

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairsSummary:
    BETTER = {"segments_per_s": "higher", "setup_s": "lower"}

    @staticmethod
    def fake_runs(incorrect=()):
        """Ten pairs in which the change reads 20% faster on every one; the
        (index, side) pairs in ``incorrect`` failed their own checks."""
        runs = []
        for i in range(10):
            run = {"seed": i, "first": "parent"}
            for side, rate in (("parent", 3.0 + 0.01 * i), ("change", 3.6 + 0.01 * i)):
                run[side] = {"correct": (i, side) not in incorrect, "attempted": 5,
                             "failed": 0,
                             "metrics": {"segments_per_s": {"value": rate},
                                         "setup_s": {"value": 0.05}}}
            runs.append(run)
        return runs

    def test_correct_runs_meet_the_gain_rule(self):
        summary = load_script("bench_pairs").summarise(self.fake_runs(), self.BETTER)
        assert summary["incorrect_runs"] == {"parent": 0, "change": 0}
        assert summary["segments_per_s"]["gain_rule_met"] is True
        assert summary["segments_per_s"]["change_better_in"] == "10/10"
        assert summary["setup_s"]["gain_rule_met"] is False

    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_one_incorrect_run_on_either_side_voids_the_gain(self, side):
        summary = load_script("bench_pairs").summarise(self.fake_runs({(3, side)}),
                                                       self.BETTER)
        assert summary["incorrect_runs"] == {"parent": int(side == "parent"),
                                             "change": int(side == "change")}
        assert summary["segments_per_s"]["change_better_in"] == "10/10"
        assert summary["segments_per_s"]["gain_rule_met"] is False


class TestCompareOutputsDifference:
    def test_json_objects_name_the_keys_that_differ(self):
        parent = b'{"batch_size": 8, "lr": 0.0001, "seed": 0, "loss": "oll", "axes": ["loss"]}'
        change = b'{"seed": 1, "loss": "oll", "axes": ["task"], "jobs": 2}'
        assert load_script("compare_outputs").describe_difference(parent, change) == (
            "only in parent: batch_size, lr; only in change: jobs; values differ: axes, seed")

    @pytest.mark.parametrize("parent,change", [(b"seed 0\n", b"seed 1\n"),
                                               (b'["a", 1]', b'["a", 2]')],
                             ids=["text", "json_array"])
    def test_other_files_say_only_that_content_differs(self, parent, change):
        assert load_script("compare_outputs").describe_difference(parent, change) == \
            "other content DIFFERS"

    @staticmethod
    def dfm1(config: bytes, tensors) -> bytes:
        """A DFM1 file of the given config header and (name, shape, values)."""
        chunks = [b"DFM1", struct.pack("<I", len(config)), config,
                  struct.pack("<I", len(tensors))]
        for name, shape, values in tensors:
            chunks += [struct.pack("<I", len(name)), name,
                       struct.pack(f"<I{len(shape)}I", len(shape), *shape),
                       struct.pack(f"<{len(values)}f", *values)]
        return b"".join(chunks)

    @pytest.mark.parametrize("change_tensors,layout", [
        ([(b"w", (2,), (0.5, 2.0))], "identical"),
        ([(b"w", (1, 2), (0.5, 2.0))], "DIFFER")], ids=["same_tensors", "other_shape"])
    def test_checkpoints_name_the_config_keys_that_differ(self, change_tensors, layout):
        parent = self.dfm1(b'{"component": null, "seed": 0, "task": "multi"}',
                           [(b"w", (2,), (0.25, 2.0))])
        change = self.dfm1(b'{"component": null, "seed": 1}', change_tensors)
        assert load_script("compare_outputs").describe_difference(parent, change) == (
            f"config only in parent: task; values differ: seed; "
            f"tensor names and shapes {layout}")

    def test_measured_values_alone_still_give_their_distance(self):
        line = load_script("compare_outputs").describe_difference(b'{"qwk": 0.25}',
                                                                  b'{"qwk": 0.75}')
        assert line.startswith("other content identical; 1 values, max abs diff 0.5")


class TestStepMemoryBreakdown:
    def test_each_base_array_counts_once_under_its_maker(self):
        x = Tensor(np.ones((2, 3)))                               # a constant leaf: 24 bytes
        gain = Tensor(np.ones(3), requires_grad=True)             # parameters are left out
        bias = Tensor(np.zeros(3), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        normed = T.layer_norm(x, gain, bias)                      # 24, plus xhat 24 and inv 8
        hidden = T.matmul(normed, w)                              # 16; holds a view of normed
        loss = hidden.reshape((4,)).sum()                         # the reshape is a view; 4
        by_primitive = load_script("step_memory").graph_bytes_by_primitive(loss)
        assert by_primitive == {"leaf": 24, "layer_norm": 56, "matmul": 16, "tsum": 4}
