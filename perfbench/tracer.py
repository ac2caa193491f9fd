"""Span tracing installed from outside the package.

Every traced function is replaced, for the duration of a ``Tracer`` context,
by a wrapper that records one span: name, start, end and the span that was
open when it was called.  Functions that other modules import by value
(``from .blocks import encoder_block``) are replaced at every module that
holds a reference, because that is where the caller looks the name up.

Spans stay in memory until the run ends.  ``summary`` folds them into
per-name call counts, inclusive time and self time (a span's duration minus
the parts of it its child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

PACKAGE = "discourse_rater"

# Primitives of the autodiff engine, wrapped where present.
PRIMITIVES = (
    "add", "sub", "mul", "neg", "relu", "sigmoid", "tanh", "log", "absolute",
    "clamp_min", "matmul", "transpose", "permute", "bmm", "reshape", "take",
    "concat", "tsum", "tmean", "softmax", "masked_fill", "layer_norm",
    "embedding_lookup",
)

# (module, function) pairs traced under the name "<module>.<function>".
FUNCTIONS = (
    ("blocks", "mlp_head"),
    ("objective", "oll_loss"),
    ("model", "forward"),
    ("model", "build_model"),
    ("model", "load_model"),
    ("train", "train"),
    ("train", "collate_batch"),
    ("train", "batch_loss"),
    ("train", "evaluation_loss"),
    ("train", "predict"),
    ("data", "read_feature_file"),
    ("metrics", "qwk"),
    ("harness", "make_folds"),
    ("harness", "grid_search"),
    ("harness", "run_nested_cv"),
)

# (module, class, method) triples traced under "<module>.<class>.<method>",
# except Tensor.backward, which is reported as "tensor.backward".
METHODS = (
    ("tensor", "Tensor", "backward"),
    ("train", "AdamW", "step"),
    ("data", "Dataset", "load"),
)

def package_module(name: str):
    """A submodule of the package.

    ``discourse_rater.train`` as an attribute is the re-exported function,
    so submodules are always taken from the import system.
    """
    return importlib.import_module(f"{PACKAGE}.{name}")


class Patcher:
    """Replaces package attributes and puts the originals back on exit."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, module: str, fn_name: str,
                      make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.fn_name`` at every package module that holds it."""
        original = getattr(package_module(module), fn_name, None)
        if original is None:
            raise LookupError(f"nothing to trace: {PACKAGE}.{module} has no {fn_name}")
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapper)

    def wrap_method(self, module: str, cls_name: str, method: str,
                    make: Callable[[Callable], Callable]) -> None:
        cls = getattr(package_module(module), cls_name, None)
        if cls is None or method not in vars(cls):
            raise LookupError(f"nothing to trace: {PACKAGE}.{module} has no "
                              f"{cls_name}.{method}")
        raw = vars(cls)[method]
        if isinstance(raw, classmethod):
            self._replace(cls, method, classmethod(make(raw.__func__)))
        else:
            self._replace(cls, method, make(raw))

    def install(self) -> None:
        """Subclasses add their wrappers here."""

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


class Recorder(Patcher):
    """Keeps the return value of every call to one package function.

    A call that raised leaves ``None``, so ``len(results)`` counts calls.
    """

    def __init__(self, module: str, fn_name: str):
        super().__init__()
        self.target = (module, fn_name)
        self.results: list = []

    def install(self) -> None:
        results = self.results

        def make(fn):
            @functools.wraps(fn)
            def recorded(*args, **kwargs):
                results.append(None)
                index = len(results) - 1
                results[index] = fn(*args, **kwargs)
                return results[index]
            return recorded

        self.wrap_function(*self.target, make)


class Tracer(Patcher):
    """Records spans while installed; may be entered more than once."""

    def __init__(self):
        super().__init__()
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _span(self, name: str | Callable, after: Callable | None = None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                label = name if isinstance(name, str) else name(args, kwargs)
                index = len(spans)
                parent = stack[-1] if stack else -1
                spans.append(None)
                stack.append(index)
                start = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (label, start, end, parent)
                if after is not None:
                    after(args, kwargs, out)
                return out
            return traced

        return make

    def install(self) -> None:
        for prim in PRIMITIVES:
            self.wrap_function("tensor", prim, self._span(f"tensor.{prim}", self._count_node))
        data = package_module("data")
        cross = {data.AUDIO_DIM: "cross_audio", data.VIDEO_DIM: "cross_video"}

        def encoder_kind(args, kwargs) -> str:
            context = kwargs.get("context")
            if context is None:
                return "blocks.encoder_block.self"
            if context.shape[-1] not in cross:
                raise LookupError(f"encoder_block context width {context.shape[-1]} is "
                                  f"neither audio ({data.AUDIO_DIM}) nor video ({data.VIDEO_DIM})")
            return f"blocks.encoder_block.{cross[context.shape[-1]]}"

        self.wrap_function("blocks", "encoder_block", self._span(encoder_kind))
        after = {"collate_batch": self._count_rows, "read_feature_file": self._count_bytes}
        for module, fn_name in FUNCTIONS:
            self.wrap_function(module, fn_name,
                               self._span(f"{module}.{fn_name}", after.get(fn_name)))
        for module, cls_name, method in METHODS:
            name = f"{module}.{method}" if cls_name == "Tensor" else f"{module}.{cls_name}.{method}"
            self.wrap_method(module, cls_name, method, self._span(name))

    def span_cost_s(self, calls: int = 20000, repeats: int = 5) -> float:
        """Measured cost of one span: a traced call minus an untraced one.

        The traced call goes through the wrapper that primitives get, graph
        node counter included, on a function that does nothing; the best of
        ``repeats`` timings of each is taken.  Its spans go to a tracer of its own.
        """
        def nothing(*args, **kwargs):
            return None

        own = Tracer()
        traced = own._span("calibration", own._count_node)(nothing)
        clock = time.perf_counter
        best = {}
        for fn in (nothing, traced, nothing, traced):
            for _ in range(repeats):
                start = clock()
                for _ in range(calls):
                    fn(1, 2)
                spent = clock() - start
                best[fn] = min(best.get(fn, spent), spent)
                own.spans.clear()
        return max(0.0, (best[traced] - best[nothing]) / calls)

    # -- counters ------------------------------------------------------------

    def _count_node(self, args, kwargs, out) -> None:
        if getattr(out, "requires_grad", False):
            self.counts["tensor.graph_nodes"] += 1

    def _count_rows(self, args, kwargs, out) -> None:
        # collate_batch returns (features, masks, labels) per example; a
        # mask marks the real rows among the padded ones.
        for item in out:
            masks = item[1] if isinstance(item, tuple) and len(item) > 1 else None
            for mask in (masks or {}).values():
                self.counts["collate.useful_rows"] += int(mask.sum())
                self.counts["collate.padded_rows"] += int(mask.shape[0])

    def _count_bytes(self, args, kwargs, out) -> None:
        path = kwargs.get("path", args[0] if args else None)
        if path is not None:
            self.counts["read_feature_file.bytes"] += Path(path).stat().st_size

    # -- summaries -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_s):
            row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += 1e3 * (end - start)
            row["self_ms"] += 1e3 * (end - start - children)
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        inside = [False] * len(self.spans)
        total = 0
        for i, (label, _, _, parent) in enumerate(self.spans):
            inside[i] = label == ancestor or (parent >= 0 and inside[parent])
            if label == name and parent >= 0 and inside[parent]:
                total += 1
        return total

    def to_json(self) -> dict:
        """All spans, as [name index, start us, end us, parent index]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "spans": [[index[n], round(1e6 * (s - origin), 1), round(1e6 * (e - origin), 1), p]
                      for n, s, e, p in self.spans],
        }
