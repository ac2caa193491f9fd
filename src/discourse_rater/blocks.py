"""Neural building blocks.

Multi-head attention (self and cross), pre-norm transformer encoder blocks
and the bidirectional LSTM baseline, all on packed rows; the three-layer MLP
rating head; and the sinusoidal position encodings.  All blocks are pure
functions of (parameters, input) built from the autodiff primitives in
:mod:`.tensor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError, UsageError
from .tensor import Tensor

class ParamArena:
    """Two flat buffers of one size in the current float width: ``buffer``
    holds the parameters' values and ``grad`` their gradients.  Each
    parameter is carved from both at the same offset, in the order made.

    The two are the rows of one allocation.  A model that never trains
    leaves ``grad`` untouched, and as part of one block its pages are not
    handed on alone to a later array the size of ``buffer``; two separate
    allocations raised the peak RSS of loading and predicting by the
    model's size.
    """

    def __init__(self, size: int):
        self.buffer, self.grad = np.empty((2, size), dtype=T.current_dtype())
        self.used = 0

    def take(self, shape: tuple[int, ...]) -> Tensor:
        start, stop = self.used, self.used + math.prod(shape)
        if stop > self.buffer.size:
            raise UsageError(f"parameter arena of {self.buffer.size} values is full")
        self.used = stop
        param = Tensor(self.buffer[start:stop].reshape(shape), requires_grad=True)
        param.grad_slot = self.grad[start:stop].reshape(shape)
        return param


def param_array(shape: tuple[int, ...], arena: ParamArena | None) -> Tensor:
    """An uninitialised parameter in the current float width: the next
    value and gradient slot of ``arena``, or an array of its own and no
    slot when that is None."""
    if arena is None:
        return Tensor(np.empty(shape, dtype=T.current_dtype()), requires_grad=True)
    return arena.take(shape)


def xavier_uniform(rng: np.random.Generator | None, fan_in: int, fan_out: int,
                   arena: ParamArena | None = None) -> Tensor:
    """Glorot-uniform ``[fan_in, fan_out]`` weights in a ``param_array``.

    The values are those of ``rng.uniform(-bound, bound, size)``, computed as
    that method computes them (``low + (high - low) * rng.random()``) but
    without its slower per-value path.  The last step, ``+ low``, runs in
    float64 and is rounded once into the parameter's width as it is written.
    With ``rng`` None the array is left uninitialised and nothing is drawn,
    for a caller that fills every value itself (``model.load_model``).
    """
    param = param_array((fan_in, fan_out), arena)
    if rng is not None:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        values = rng.random((fan_in, fan_out))
        values *= bound - (-bound)
        np.add(values, -bound, out=param.data, casting="same_kind")
    return param


def zeros_param(*shape: int, arena: ParamArena | None = None) -> Tensor:
    param = param_array(shape, arena)
    param.data.fill(0)
    return param


def ones_param(*shape: int, arena: ParamArena | None = None) -> Tensor:
    param = param_array(shape, arena)
    param.data.fill(1)
    return param


def dropout_keep(rng: np.random.Generator | None, shape: tuple[int, ...],
                 rate: float) -> np.ndarray:
    """Inverted-dropout scales in the current float width: 0 where a unit
    drops, ``1 / (1 - rate)`` where it stays.

    The uniforms are drawn as float64, so a mask does not depend on the width.
    """
    if rng is None:
        raise UsageError("dropout in training mode needs an rng")
    return np.asarray((rng.random(shape) >= rate) / (1.0 - rate), dtype=T.current_dtype())


# -- packed rows ----------------------------------------------------------------


class Rows:
    """Where ``B`` sequences sit in one packed ``[rows, d]`` array.

    Sequence ``i`` holds rows ``starts[i] : starts[i] + lengths[i]``, and no
    row is padding, in any layer: the attention core and the LSTM
    recurrence too run each sequence on its own rows.
    """

    def __init__(self, lengths):
        self.lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
        self.starts = np.cumsum(self.lengths) - self.lengths
        self.total = int(self.lengths.sum())

    def __len__(self) -> int:
        return len(self.lengths)


# -- attention ---------------------------------------------------------------


@dataclass
class AttentionParams:
    """Projections for multi-head attention.

    Queries always come from the 768-wide stream; keys/values may come from a
    context of different width (1024 for audio), absorbed by the K/V
    projections.  The widths are those of ``wq`` and ``wk``'s input rows.
    """

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    num_heads: int = 12

    @classmethod
    def create(cls, rng: np.random.Generator | None, model_dim: int = 768,
               context_dim: int | None = None, num_heads: int = 12,
               arena: ParamArena | None = None) -> "AttentionParams":
        if context_dim is None:
            context_dim = model_dim
        if model_dim % num_heads != 0:
            raise UsageError(f"model_dim {model_dim} not divisible by {num_heads} heads")
        return cls(
            wq=xavier_uniform(rng, model_dim, model_dim, arena),
            bq=zeros_param(model_dim, arena=arena),
            wk=xavier_uniform(rng, context_dim, model_dim, arena),
            bk=zeros_param(model_dim, arena=arena),
            wv=xavier_uniform(rng, context_dim, model_dim, arena),
            bv=zeros_param(model_dim, arena=arena),
            wo=xavier_uniform(rng, model_dim, model_dim, arena),
            bo=zeros_param(model_dim, arena=arena),
            num_heads=num_heads)

    def parameters(self) -> dict[str, Tensor]:
        return {"wq": self.wq, "bq": self.bq, "wk": self.wk, "bk": self.bk,
                "wv": self.wv, "bv": self.bv, "wo": self.wo, "bo": self.bo}


def multi_head_attention(x: Tensor, params: AttentionParams, *,
                         rows: Rows | None = None,
                         context: Tensor | None = None,
                         context_rows: Rows | None = None,
                         context_cls: Tensor | None = None,
                         cls_only: bool = False) -> Tensor:
    """Scaled dot-product attention on packed rows, queries at model width.

    ``x`` holds the packed query-side rows ``[rows, model_dim]`` of the
    sequences ``rows`` lays out (one sequence when None).  Keys and values
    come from ``x`` itself, or from ``context``: the packed ``[rows,
    context_dim]`` rows that ``context_rows`` lays out (one sequence when
    None), each sequence led by ``context_cls`` when given.  That
    ``[context_dim]`` row is projected once and shared, so no context row
    needs a gradient.  Each sequence attends within its own keys only, and
    a sequence with no key at all raises ``UsageError``.

    The Q, K, V and output projections run on the packed rows, each one
    GEMM with its bias; the core between them is one ``tensor.attention``
    node, which runs each sequence on its own rows.  Returns the packed
    outputs ``[rows, model_dim]``, or with ``cls_only`` the first row of
    each sequence alone (``[B, model_dim]``), the only queries then
    projected.
    """
    rows = Rows([x.shape[0]]) if rows is None else rows
    model_dim, context_dim = params.wq.shape[0], params.wk.shape[0]
    if x.ndim != 2 or x.shape != (rows.total, model_dim):
        raise ShapeError(f"attention needs packed [{rows.total}, {model_dim}] "
                         f"query rows, got {x.shape}")
    source, source_rows, lead = x, rows, None
    if context is not None:
        source = context
        source_rows = Rows([context.shape[0]]) if context_rows is None else context_rows
        if context.ndim != 2 or context.shape != (source_rows.total, context_dim):
            raise ShapeError(f"context must be packed [{source_rows.total}, "
                             f"{context_dim}] rows, got {context.shape}")
        if len(source_rows) != len(rows):
            raise ShapeError(f"{len(rows)} query sequences against "
                             f"{len(source_rows)} context sequences")
        if context_cls is not None:
            cls_row = context_cls.reshape((1, context_dim))
            lead = (T.matmul(cls_row, params.wk, bias=params.bk),
                    T.matmul(cls_row, params.wv, bias=params.bv))
    keys = T.matmul(source, params.wk, bias=params.bk)
    values = T.matmul(source, params.wv, bias=params.bv)
    if cls_only:
        queries, q_lengths = T.take(x, rows.starts), np.ones(len(rows), dtype=np.int64)
    else:
        queries, q_lengths = x, rows.lengths
    queries = T.matmul(queries, params.wq, bias=params.bq)
    attended = T.attention(queries, keys, values, q_lengths, source_rows.lengths,
                           params.num_heads, lead)
    return T.matmul(attended, params.wo, bias=params.bo)


# -- encoder block -----------------------------------------------------------


@dataclass
class EncoderBlockParams:
    """One pre-norm transformer block: attention + 2x-expansion FFN."""

    attention: AttentionParams
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    dropout_rate: float = 0.1

    @classmethod
    def create(cls, rng: np.random.Generator | None, model_dim: int = 768,
               context_dim: int | None = None, num_heads: int = 12,
               ffn_dim: int | None = None, dropout_rate: float = 0.1,
               arena: ParamArena | None = None) -> "EncoderBlockParams":
        if ffn_dim is None:
            ffn_dim = 2 * model_dim
        return cls(
            attention=AttentionParams.create(rng, model_dim, context_dim, num_heads, arena),
            w1=xavier_uniform(rng, model_dim, ffn_dim, arena),
            b1=zeros_param(ffn_dim, arena=arena),
            w2=xavier_uniform(rng, ffn_dim, model_dim, arena),
            b2=zeros_param(model_dim, arena=arena),
            ln1_gain=ones_param(model_dim, arena=arena),
            ln1_bias=zeros_param(model_dim, arena=arena),
            ln2_gain=ones_param(model_dim, arena=arena),
            ln2_bias=zeros_param(model_dim, arena=arena),
            dropout_rate=dropout_rate,
        )

    def parameters(self) -> dict[str, Tensor]:
        out = {f"attn.{k}": v for k, v in self.attention.parameters().items()}
        out.update({
            "ffn.w1": self.w1, "ffn.b1": self.b1,
            "ffn.w2": self.w2, "ffn.b2": self.b2,
            "ln1.gain": self.ln1_gain, "ln1.bias": self.ln1_bias,
            "ln2.gain": self.ln2_gain, "ln2.bias": self.ln2_bias,
        })
        return out


def encoder_block(x: Tensor, params: EncoderBlockParams, *,
                  rows: Rows | None = None,
                  context: Tensor | None = None,
                  context_rows: Rows | None = None,
                  context_cls: Tensor | None = None,
                  training: bool = False,
                  rng: np.random.Generator | None = None,
                  keep: tuple[np.ndarray, np.ndarray] | None = None,
                  cls_only: bool = False) -> Tensor:
    """Pre-norm residual block: x + Attn(LN(x), ctx), then y + FFN(LN(y)).

    ``x`` holds packed rows ``[rows, d]``: the sequences ``rows`` lays out
    (one sequence when None), back to back with no padding, each starting
    with its CLS row.  Every layer runs on those rows alone, nothing padded
    (see :func:`multi_head_attention`, which also describes ``context``,
    ``context_rows`` and ``context_cls``).  Self-attention when ``context``
    is None, cross-attention with text as the query otherwise.

    In training, ``keep`` holds the dropout scales of the attention and the
    FFN output, each shaped like ``x``; without it the block draws both from
    ``rng``, attention site first.  With ``cls_only`` the block returns the
    CLS rows alone (``[B, d]``): every row still enters LN1 and the K/V
    projections, but only the CLS rows go through the query, the residuals,
    LN2 and the FFN, because no other row of a last block reaches an output.
    """
    rows = Rows([x.shape[0]]) if rows is None else rows
    rate = params.dropout_rate
    if not training or rate <= 0.0:
        keep = None
    elif keep is None:
        keep = (dropout_keep(rng, x.shape, rate), dropout_keep(rng, x.shape, rate))
    normed = T.layer_norm(x, params.ln1_gain, params.ln1_bias)
    attn = multi_head_attention(normed, params.attention, rows=rows, context=context,
                                context_rows=context_rows, context_cls=context_cls,
                                cls_only=cls_only)
    residual = x
    if cls_only:
        residual = T.take(x, rows.starts)
        if keep is not None:
            keep = tuple(site[rows.starts] for site in keep)

    def drop(h: Tensor, site: int) -> Tensor:
        return h if keep is None else h * Tensor(keep[site])

    y = residual + drop(attn, 0)
    normed2 = T.layer_norm(y, params.ln2_gain, params.ln2_bias)
    hidden = T.relu(T.matmul(normed2, params.w1, bias=params.b1))
    ffn = T.matmul(hidden, params.w2, bias=params.b2)
    return y + drop(ffn, 1)


# -- rating head ---------------------------------------------------------------


@dataclass
class HeadParams:
    """Three fully connected layers, 512 hidden units, ReLU between layers."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator | None, in_dim: int = 768,
               hidden: int = 512, out_dim: int = 7,
               arena: ParamArena | None = None) -> "HeadParams":
        return cls(
            w1=xavier_uniform(rng, in_dim, hidden, arena), b1=zeros_param(hidden, arena=arena),
            w2=xavier_uniform(rng, hidden, hidden, arena), b2=zeros_param(hidden, arena=arena),
            w3=xavier_uniform(rng, hidden, out_dim, arena), b3=zeros_param(out_dim, arena=arena),
        )

    def parameters(self) -> dict[str, Tensor]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2,
                "b2": self.b2, "w3": self.w3, "b3": self.b3}


def mlp_head(x: Tensor, params: HeadParams, mode: str = "classify") -> Tensor:
    """Map pooled rows ``[B, d]`` to 7 class probabilities or one unbounded
    score each (``[B, k]``)."""
    if x.ndim != 2:
        raise ShapeError(f"head input must be [B, d], got shape {x.shape}")
    if x.shape[-1] != params.w1.shape[0]:
        raise ShapeError(f"head input width {x.shape[-1]} != {params.w1.shape[0]}")
    if mode not in ("classify", "regress"):
        raise UsageError(f"unknown head mode {mode!r}")
    h = T.relu(T.matmul(x, params.w1, bias=params.b1))
    h = T.relu(T.matmul(h, params.w2, bias=params.b2))
    out = T.matmul(h, params.w3, bias=params.b3)
    return T.softmax(out, axis=-1) if mode == "classify" else out


# -- bidirectional LSTM baseline ----------------------------------------------


@dataclass
class LstmCellParams:
    wx: Tensor  # [in, 4h], gate order i, f, g, o
    wh: Tensor  # [h, 4h]
    b: Tensor   # [4h]


@dataclass
class BiLstmParams:
    """Stacked bidirectional LSTM; the hidden size is each ``wh``'s row count."""

    layers: list[dict[str, LstmCellParams]]

    @classmethod
    def create(cls, rng: np.random.Generator | None, input_dim: int,
               hidden_size: int | None = None, num_layers: int = 2,
               arena: ParamArena | None = None) -> "BiLstmParams":
        h = input_dim if hidden_size is None else hidden_size
        layers = []
        for layer in range(num_layers):
            in_dim = input_dim if layer == 0 else 2 * h
            layers.append({direction: LstmCellParams(wx=xavier_uniform(rng, in_dim, 4 * h, arena),
                                                     wh=xavier_uniform(rng, h, 4 * h, arena),
                                                     b=zeros_param(4 * h, arena=arena))
                           for direction in ("fw", "bw")})
        return cls(layers=layers)

    def parameters(self) -> dict[str, Tensor]:
        return {f"l{i}.{direction}.{name}": getattr(cell, name)
                for i, layer in enumerate(self.layers) for direction, cell in layer.items()
                for name in ("wx", "wh", "b")}


def bilstm_encode(x: Tensor, rows: Rows, params: BiLstmParams) -> Tensor:
    """The last layer's final forward and reverse states ``[B, 2h]`` of the
    sequences that ``rows`` lays out in the packed rows ``x``; an empty one
    is ``UsageError``.  Each layer and direction projects every row with one
    GEMM.  Sorted longest first, the sequences still running at step ``t``
    are a prefix (``pack_padded_sequence``'s layout), so each step runs on
    that prefix's rows alone, and the reverse one starts at each last row."""
    if x.ndim != 2 or x.shape[0] != rows.total or not len(rows) or rows.lengths.min() < 1:
        raise UsageError(f"bilstm_encode needs packed [{rows.total}, d] rows of nonempty "
                         f"sequences, got {x.shape} in lengths {rows.lengths.tolist()}")
    order = np.argsort(-rows.lengths, kind="stable")
    last = rows.starts + rows.lengths - 1
    running = [order[:np.count_nonzero(rows.lengths > t)] for t in range(rows.lengths.max())]
    steps = {"fw": [rows.starts[seqs] + t for t, seqs in enumerate(running)],
             "bw": [last[seqs] - t for t, seqs in enumerate(running)]}
    for layer in params.layers:
        out = {direction: _lstm_steps(T.matmul(x, cell.wx, bias=cell.b), cell.wh, steps[direction])
               for direction, cell in layer.items()}
        x = T.concat([out["fw"], out["bw"]], axis=1)
    return T.concat([T.take(out["fw"], last), T.take(out["bw"], rows.starts)], axis=1)


def _lstm_steps(z: Tensor, wh: Tensor, steps: list[np.ndarray]) -> Tensor:
    """One direction's states ``[rows, h]`` in packed order; step ``t`` runs on ``z[steps[t]]``."""
    h_dim = wh.shape[0]
    h = c = Tensor(np.zeros((len(steps[0]), h_dim)))
    outputs = []
    for index in steps:
        h, c = (h, c) if len(index) == h.shape[0] else (h[:len(index)], c[:len(index)])
        gates = T.take(z, index) + T.matmul(h, wh)
        i, f, o = (T.sigmoid(gates[:, k * h_dim:(k + 1) * h_dim]) for k in (0, 1, 3))
        g = T.tanh(gates[:, 2 * h_dim:3 * h_dim])
        c = f * c + i * g
        h = o * T.tanh(c)
        outputs.append(h)
    return T.take(T.concat(outputs), np.argsort(np.concatenate(steps)))


# -- position encodings ---------------------------------------------------------


def sinusoid_table(length: int, dim: int) -> np.ndarray:
    """Standard sinusoidal position encodings, shape [length, dim]."""
    table = np.zeros((length, dim))
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(0, dim, 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, idx / dim)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : dim // 2])
    return table


# One sinusoid table per (width, dtype), as long as the longest sequence yet.
_POSITION_TABLES: dict[tuple[int, np.dtype], np.ndarray] = {}


def add_positional(seq: Tensor, enabled: bool, positions: np.ndarray) -> Tensor:
    """Add the sinusoid table to packed ``[rows, d]`` rows, row ``j`` at
    ``positions[j]``, its position in its own sequence.

    The table is built once per width and float width and rebuilt longer
    when a later position needs it; a row of ``sinusoid_table`` does not
    depend on the table's length, so the rows added are the same.
    """
    if not enabled:
        return seq
    key = (seq.shape[-1], T.current_dtype())
    length = int(positions.max(initial=-1)) + 1
    table = _POSITION_TABLES.get(key)
    if table is None or table.shape[0] < length:
        table = _POSITION_TABLES[key] = sinusoid_table(length, key[0]).astype(key[1])
    return seq + Tensor(table[positions])
