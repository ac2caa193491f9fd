"""Optimization loop: AdamW, one stale-epoch schedule, batched forward.

Each training step runs its batch through a single ``forward`` call, which
takes every segment as it is, with its own lengths, and runs the fusion
stack on their rows back to back; nothing is padded, the attention core
included.  Evaluation and prediction do the same under
``no_grad`` for groups of at most ``EVAL_GROUP`` examples of similar
length, and return results in input order.

One training run is single-threaded and fully determined by its seed: the
per-epoch shuffle, dropout draws, and parameter init all flow from it.  The
run monitors the total multi-task validation loss with one count of epochs
since its last strict improvement: it halves the learning rate at every
``LR_PATIENCE`` of them, stops at ``STOP_PATIENCE``, and restores the best
parameters before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import tensor as T
from .data import Example, SegmentFeatures
from .errors import ConfigError, NumericsError, TrainingError, UsageError
from .model import FusionModel, ModelConfig, forward
from .objective import (RATINGS, class_weights, l1_loss, multitask_total,
                        oll_loss, rating_to_index, round_to_rating,
                        weighted_ce_loss)
from .tensor import Tensor

# Evaluation and prediction run groups of at most this many examples.
EVAL_GROUP = 8
# Elements per piece of AdamW's in-place passes over the flat buffers.
CHUNK = 1 << 16
# Epochs without a new best validation loss: each multiple of LR_PATIENCE
# halves the learning rate, and STOP_PATIENCE of them end the run.
LR_PATIENCE = 5
STOP_PATIENCE = 15


@dataclass(frozen=True)
class TrainConfig:
    """The settings of one training run; each out-of-range value is ``ConfigError``."""

    lr: float = 1e-4
    batch_size: int = 8
    max_epochs: int = 200
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a finite number > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


class AdamW:
    """Adam with decoupled weight decay (Loshchilov & Hutter, arXiv:1711.05101).

    It steps ``model.arena``: ``flat`` is its value buffer and ``flat_grad``
    its gradient buffer, in which each parameter's ``grad_slot`` sits at the
    offset of its value, so backward writes a first gradient straight into
    ``flat_grad`` (see ``tensor._accum``).  ``parameters()`` gives the
    parameters' names.  The first and second moments are flat arrays too.
    A model with no arena (not made by ``build_model`` or ``load_model``)
    raises ``UsageError``.

    ``zero_grad`` sets every ``.grad`` to None.  ``flat_gradient`` zero-fills
    the slot of each parameter whose ``.grad`` is still None, so
    ``flat_grad`` then holds the whole gradient; a ``.grad`` that is not its
    slot raises ``UsageError``.  ``step`` does that first, then checks the
    whole gradient in one pass: when its squared norm is not finite, an
    exact scan raises ``NumericsError`` naming the first parameter that
    holds a non-finite value, before anything changes (a finite gradient
    whose squares overflow passes).  The update then runs in place over
    ``CHUNK``-element pieces through two preallocated scratch arrays, so no
    temporary grows with the model.  It performs the same operations in the
    same order as the per-array form ``m = b1 * m + (1 - b1) * g`` and so on,
    so its results are bit-identical to that form.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8        # Adam's published defaults
    weight_decay = 0.01

    def __init__(self, model: FusionModel, lr: float):
        if model.arena is None:
            raise UsageError("model has no parameter arena; build it with build_model or load_model")
        self.params = model.parameters()
        self.lr = lr
        self.step_count = 0
        self.flat, self.flat_grad = model.arena.buffer, model.arena.grad
        size, dtype = self.flat.size, self.flat.dtype
        self._m = np.zeros(size, dtype)
        self._v = np.zeros(size, dtype)
        chunk = min(CHUNK, size)
        self._scratch = (np.empty(chunk, dtype), np.empty(chunk, dtype))

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def flat_gradient(self) -> np.ndarray:
        """``flat_grad`` with every parameter's gradient in its slot."""
        for name, p in self.params.items():
            if p.grad is None:
                p.grad_slot.fill(0)
                p.grad = p.grad_slot
            elif p.grad is not p.grad_slot:
                raise UsageError(f"the gradient of parameter {name!r} is not its arena slot")
        return self.flat_grad

    def step(self) -> None:
        g_all = self.flat_gradient()
        with np.errstate(over="ignore", invalid="ignore"):
            squared_norm = np.dot(g_all, g_all)
        if not np.isfinite(squared_norm):
            name = next((name for name, p in self.params.items()
                         if not np.isfinite(p.grad).all()), None)
            if name is not None:
                raise NumericsError(f"non-finite gradient for parameter {name!r}")
        self.step_count += 1
        b1, b2, lr = self.beta1, self.beta2, self.lr
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for start in range(0, g_all.size, CHUNK):
            stop = min(start + CHUNK, g_all.size)
            g, p = g_all[start:stop], self.flat[start:stop]
            m, v = self._m[start:stop], self._v[start:stop]
            s1, s2 = (s[:stop - start] for s in self._scratch)
            m *= b1
            np.multiply(g, 1.0 - b1, out=s1)
            m += s1
            v *= b2
            np.multiply(g, 1.0 - b2, out=s1)
            s1 *= g
            v += s1
            np.divide(v, bc2, out=s1)                   # s1 = sqrt(v / bc2) + eps
            np.sqrt(s1, out=s1)
            s1 += self.eps
            np.divide(m, bc1, out=s2)                   # s2 = update
            s2 /= s1
            np.multiply(p, lr * self.weight_decay, out=s1)
            p -= s1
            s2 *= lr
            p -= s2


@dataclass
class TrainHistory:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0
    best_val_loss: float = math.inf

    def table(self) -> str:
        lines = [f"{'epoch':>5s}  {'train_loss':>12s}  {'val_loss':>12s}  {'lr':>10s}"]
        for i, (tr, va, lr) in enumerate(zip(self.train_losses, self.val_losses, self.lrs), 1):
            lines.append(f"{i:>5d}  {tr:>12.6f}  {va:>12.6f}  {lr:>10.2e}")
        lines.append(f"stopped at epoch {self.stopped_epoch}; "
                     f"best epoch {self.best_epoch} (val loss {self.best_val_loss:.6f})")
        return "\n".join(lines)


# -- batching -----------------------------------------------------------------


def collate_batch(examples: Sequence[Example]) -> tuple[list[SegmentFeatures], list[dict[str, float]]]:
    """The segments and the labels of a batch, each in example order.

    Nothing is padded or copied: ``forward`` takes each segment with its own
    lengths.  The function stays, under this name, because
    ``perfbench/tracer.py`` times every call of it and raises ``LookupError``
    when it is missing.
    """
    return [ex.features for ex in examples], [ex.labels for ex in examples]


# -- loss assembly ---------------------------------------------------------------


def batch_loss(model: FusionModel, batch, weights: Mapping[str, np.ndarray] | None,
               training: bool, rng: np.random.Generator | None) -> Tensor:
    """Total multi-task loss for one ``collate_batch`` batch (averaged over samples).

    The whole batch goes through one ``forward`` call.
    """
    segments, labels = batch
    return _loss(model.config, forward(model, segments, training=training, rng=rng),
                 labels, weights)


def _loss(config: ModelConfig, outputs: Mapping[str, Tensor], labels: Sequence[Mapping[str, float]],
          weights: Mapping[str, np.ndarray] | None) -> Tensor:
    """Sum over components of the configured loss of ``[N, k]`` head outputs."""
    losses: dict[str, Tensor] = {}
    for component in config.head_components:
        out = outputs[component]
        targets = [seg_labels[component] for seg_labels in labels]
        w = None if weights is None else weights.get(component)
        if config.loss == "oll":
            losses[component] = oll_loss(out, [rating_to_index(r) for r in targets], w)
        elif config.loss == "ce":
            losses[component] = weighted_ce_loss(out, [rating_to_index(r) for r in targets], w)
        else:
            losses[component] = l1_loss(out.reshape((out.shape[0],)), targets, w)
    return multitask_total(losses)


def _grouped_outputs(model: FusionModel, examples: Sequence[Example]) -> dict[str, np.ndarray]:
    """Head outputs ``[N, k]`` per component, rows in input order.

    Examples run in groups of at most ``EVAL_GROUP``, sorted by sequence
    lengths.  Nothing is padded, so the sort saves no work; it fixes which
    examples share a group, because a GEMM's rounding can depend on the
    rows it runs with.  Call under ``no_grad``.
    """
    modalities = model.config.modalities
    order = sorted(range(len(examples)),
                   key=lambda i: [examples[i].features.modality(m).shape[0] for m in modalities])
    out: dict[str, np.ndarray] = {}
    for start in range(0, len(order), EVAL_GROUP):
        rows = order[start:start + EVAL_GROUP]
        outputs = forward(model, [examples[i].features for i in rows])
        for component, value in outputs.items():
            if component not in out:
                out[component] = np.empty((len(examples), value.shape[1]), value.data.dtype)
            out[component][rows] = value.data
    return out


def evaluation_loss(model: FusionModel, examples: Sequence[Example],
                    weights: Mapping[str, np.ndarray] | None) -> float:
    if not examples:
        raise UsageError("evaluation_loss needs at least one example")
    with T.no_grad():
        outputs = _grouped_outputs(model, examples)
        loss = _loss(model.config, {c: Tensor(v) for c, v in outputs.items()},
                     [ex.labels for ex in examples], weights)
    return float(loss.data)


def _check_teacher_disjoint(train_examples: Sequence[Example],
                            val_examples: Sequence[Example]) -> None:
    train_teachers = {ex.features.teacher_id for ex in train_examples}
    val_teachers = {ex.features.teacher_id for ex in val_examples}
    overlap = train_teachers & val_teachers
    if overlap:
        raise UsageError(f"train/val teacher overlap: {sorted(overlap)}")


def component_weights(examples: Sequence[Example],
                      components: Sequence[str]) -> dict[str, np.ndarray]:
    return {
        c: class_weights([ex.labels[c] for ex in examples]) for c in components
    }


def train(model: FusionModel, train_examples: Sequence[Example],
          val_examples: Sequence[Example], config: TrainConfig) -> TrainHistory:
    """Optimize ``model``, built by ``model.build_model`` or
    ``model.load_model``, in place and return the epoch history.

    The loss weighs each class by its inverse frequency in the training
    labels.  ``AdamW`` steps the model's arena.  Each step sets every
    ``.grad`` to None, and backward writes each parameter's gradient
    straight into its slot of the arena's gradient buffer.
    ``loss.backward()`` consumes the step's graph, so the ``loss`` kept
    until the next step holds only its value and the next forward pass runs
    with no graph of the previous step alive.

    ``history.best_val_loss`` and ``best_epoch`` are the one record of the
    best epoch.  An epoch that does not beat it strictly adds one to a
    stale count, which an improving epoch resets: the learning rate halves
    whenever the count reaches a multiple of ``LR_PATIENCE``, and the run
    stops when it reaches ``STOP_PATIENCE``.  The best-validation
    parameters are restored before returning: each improving epoch before
    the last epoch that can run keeps one copy of the arena's value buffer,
    and the restore copies it back in place.
    """
    if not train_examples or not val_examples:
        raise UsageError("train and validation sets must both be nonempty")
    _check_teacher_disjoint(train_examples, val_examples)
    weights = component_weights(train_examples, model.config.head_components)

    rng = np.random.default_rng(config.seed)
    optimizer = AdamW(model, lr=config.lr)
    history = TrainHistory()
    best_state: np.ndarray | None = None
    stale = 0

    n = len(train_examples)
    try:
        for epoch in range(1, config.max_epochs + 1):
            order = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, config.batch_size):
                chunk = [train_examples[i] for i in order[start:start + config.batch_size]]
                batch = collate_batch(chunk)
                optimizer.zero_grad()
                loss = batch_loss(model, batch, weights, training=True, rng=rng)
                loss.backward()
                optimizer.step()
                epoch_losses.append(float(loss.data))
            train_loss = float(np.mean(epoch_losses))
            val_loss = evaluation_loss(model, val_examples, weights)

            history.train_losses.append(train_loss)
            history.val_losses.append(val_loss)
            history.lrs.append(optimizer.lr)
            history.stopped_epoch = epoch

            if val_loss < history.best_val_loss:
                history.best_val_loss, history.best_epoch, stale = val_loss, epoch, 0
                # The last epoch that can run keeps no copy: its parameters
                # are the state, and an older copy must not be restored.
                best_state = optimizer.flat.copy() if epoch < config.max_epochs else None
            else:
                stale += 1
                if stale == STOP_PATIENCE:
                    break
                if stale % LR_PATIENCE == 0:
                    optimizer.lr *= 0.5
    except NumericsError as exc:
        raise TrainingError(f"aborted at epoch {len(history.train_losses) + 1}: {exc}") from exc

    if best_state is not None:
        optimizer.flat[...] = best_state
    return history


def predict(model: FusionModel, examples: Sequence[Example]) -> dict[str, dict[str, float]]:
    """Per-segment predicted ratings (argmax for classification, rounded for regression)."""
    with T.no_grad():
        outputs = _grouped_outputs(model, examples)
    out: dict[str, dict[str, float]] = {}
    for row, ex in enumerate(examples):
        ratings = {}
        for component, values in outputs.items():
            if model.config.head_mode == "classify":
                ratings[component] = RATINGS[int(np.argmax(values[row]))]
            else:
                ratings[component] = round_to_rating(float(values[row, 0]))
        out[ex.features.segment_id] = ratings
    return out
