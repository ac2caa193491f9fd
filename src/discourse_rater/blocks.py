"""Neural building blocks.

Multi-head attention (self and cross), pre-norm transformer encoder blocks,
the three-layer MLP rating head, a bidirectional LSTM encoder used as a
baseline, and the CLS / sinusoidal-position utilities the sequence models
share.  All blocks are pure functions of (parameters, input) built from the
autodiff primitives in :mod:`.tensor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ShapeError, UsageError
from .tensor import Tensor

# Finite stand-in for -inf: exp(x - max) underflows to exactly 0.0, so masked
# positions get exactly zero attention weight while softmax inputs stay finite.
NEG_FILL = -1e30


def xavier_uniform(rng: np.random.Generator | None, fan_in: int, fan_out: int) -> Tensor:
    """Glorot-uniform ``[fan_in, fan_out]`` weights.

    The values are those of ``rng.uniform(-bound, bound, size)``, computed as
    that method computes them (``low + (high - low) * rng.random()``) but
    without its slower per-value path.  With ``rng`` None the array is left
    uninitialised and nothing is drawn, for a caller that fills every value
    itself (``model.load_model``).
    """
    if rng is None:
        return Tensor(np.empty((fan_in, fan_out), dtype=T.current_dtype()), requires_grad=True)
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    values = rng.random((fan_in, fan_out))
    values *= bound - (-bound)
    values += -bound
    return Tensor(values, requires_grad=True)


def zeros_param(*shape: int) -> Tensor:
    return Tensor(np.zeros(shape, dtype=T.current_dtype()), requires_grad=True)


def ones_param(*shape: int) -> Tensor:
    return Tensor(np.ones(shape, dtype=T.current_dtype()), requires_grad=True)


def dropout_keep(rng: np.random.Generator | None, shape: tuple[int, ...],
                 rate: float) -> np.ndarray:
    """Inverted-dropout scales in the current float width: 0 where a unit
    drops, ``1 / (1 - rate)`` where it stays.

    The uniforms are drawn as float64, so a mask does not depend on the width.
    """
    if rng is None:
        raise UsageError("dropout in training mode needs an rng")
    return np.asarray((rng.random(shape) >= rate) / (1.0 - rate), dtype=T.current_dtype())


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when not training or rate is zero."""
    if not training or rate <= 0.0:
        return x
    return x * Tensor(dropout_keep(rng, x.shape, rate))


# -- attention ---------------------------------------------------------------


@dataclass
class AttentionParams:
    """Projections for multi-head attention.

    Queries always come from the 768-wide stream; keys/values may come from a
    context of different width (1024 for audio), absorbed by the K/V
    projections.
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
    model_dim: int = 768
    context_dim: int = 768

    @classmethod
    def create(cls, rng: np.random.Generator | None, model_dim: int = 768,
               context_dim: int | None = None, num_heads: int = 12) -> "AttentionParams":
        if context_dim is None:
            context_dim = model_dim
        if model_dim % num_heads != 0:
            raise UsageError(f"model_dim {model_dim} not divisible by {num_heads} heads")
        return cls(
            wq=xavier_uniform(rng, model_dim, model_dim),
            bq=zeros_param(model_dim),
            wk=xavier_uniform(rng, context_dim, model_dim),
            bk=zeros_param(model_dim),
            wv=xavier_uniform(rng, context_dim, model_dim),
            bv=zeros_param(model_dim),
            wo=xavier_uniform(rng, model_dim, model_dim),
            bo=zeros_param(model_dim),
            num_heads=num_heads,
            model_dim=model_dim,
            context_dim=context_dim,
        )

    def parameters(self) -> dict[str, Tensor]:
        return {"wq": self.wq, "bq": self.bq, "wk": self.wk, "bk": self.bk,
                "wv": self.wv, "bv": self.bv, "wo": self.wo, "bo": self.bo}


def multi_head_attention(q_seq: Tensor, kv_seq: Tensor, kv_mask: np.ndarray | None,
                         params: AttentionParams, return_weights: bool = False):
    """Scaled dot-product attention with the query stream kept at model width.

    Takes one sequence pair (``[Lq, model_dim]`` queries, ``[Lk, context_dim]``
    context) or a batch of them (``[B, Lq, model_dim]``, ``[B, Lk,
    context_dim]``); a batch runs as one ``bmm`` over ``B * num_heads``.
    ``kv_mask`` (``[Lk]``, or ``[B, Lk]`` for a batch) marks valid context
    rows; invalid rows receive exactly zero attention weight, example by
    example.  Returns ``[..., Lq, model_dim]`` (and the per-head weight array
    ``[..., num_heads, Lq, Lk]`` when ``return_weights``).
    """
    if q_seq.ndim not in (2, 3) or kv_seq.ndim != q_seq.ndim:
        raise ShapeError(f"attention needs [L, d] or [B, L, d] operands of one rank, "
                         f"got {q_seq.shape} and {kv_seq.shape}")
    if q_seq.shape[-1] != params.model_dim:
        raise ShapeError(f"query width {q_seq.shape[-1]} != model_dim {params.model_dim}")
    if kv_seq.shape[-1] != params.context_dim:
        raise ShapeError(f"context width {kv_seq.shape[-1]} != context_dim {params.context_dim}")
    if q_seq.shape[:-2] != kv_seq.shape[:-2]:
        raise ShapeError(f"query batch {q_seq.shape[:-2]} != context batch {kv_seq.shape[:-2]}")
    mask_shape = kv_seq.shape[:-1]
    if kv_mask is None:
        kv_mask = np.ones(mask_shape, dtype=bool)
    else:
        kv_mask = np.asarray(kv_mask, dtype=bool)
        if kv_mask.shape != mask_shape:
            raise ShapeError(f"kv_mask shape {kv_mask.shape} != {mask_shape}")
    if not kv_mask.any(axis=-1).all():
        raise UsageError("attention needs at least one valid context position")

    single = q_seq.ndim == 2
    if single:
        q_seq = q_seq.reshape((1,) + q_seq.shape)
        kv_seq = kv_seq.reshape((1,) + kv_seq.shape)
        kv_mask = kv_mask[None, :]
    batch, n_q, _ = q_seq.shape
    n_kv = kv_seq.shape[1]
    n_heads = params.num_heads
    head_dim = params.model_dim // n_heads
    scale = 1.0 / math.sqrt(head_dim)

    def split_heads(x: Tensor, axes: tuple[int, ...]) -> Tensor:
        # [B, L, H * dh] -> [B * H, ...] with the per-head axes in ``axes`` order.
        rows = x.shape[1]
        heads = T.permute(x.reshape((batch, rows, n_heads, head_dim)), (0, 2) + axes)
        return heads.reshape((batch * n_heads,) + heads.shape[2:])

    q = split_heads(T.matmul(q_seq, params.wq) + params.bq, (1, 3))   # [BH, Lq, dh]
    k_t = split_heads(T.matmul(kv_seq, params.wk) + params.bk, (3, 1))  # [BH, dh, Lk]
    v = split_heads(T.matmul(kv_seq, params.wv) + params.bv, (1, 3))   # [BH, Lk, dh]

    scores = T.bmm(q, k_t) * scale                                    # [BH, Lq, Lk]
    if not kv_mask.all():
        scores = T.masked_fill(scores, np.repeat(~kv_mask, n_heads, axis=0)[:, None, :],
                               NEG_FILL)
    attn = T.softmax(scores, axis=-1)
    per_head = T.bmm(attn, v).reshape((batch, n_heads, n_q, head_dim))
    merged = T.permute(per_head, (0, 2, 1, 3)).reshape((batch, n_q, params.model_dim))
    out = T.matmul(merged, params.wo) + params.bo
    if single:
        out = out.reshape((n_q, params.model_dim))
    if return_weights:
        weights = attn.data.reshape((batch, n_heads, n_q, n_kv))
        return out, (weights[0] if single else weights).copy()
    return out


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
               ffn_dim: int | None = None, dropout_rate: float = 0.1) -> "EncoderBlockParams":
        if ffn_dim is None:
            ffn_dim = 2 * model_dim
        return cls(
            attention=AttentionParams.create(rng, model_dim, context_dim, num_heads),
            w1=xavier_uniform(rng, model_dim, ffn_dim),
            b1=zeros_param(ffn_dim),
            w2=xavier_uniform(rng, ffn_dim, model_dim),
            b2=zeros_param(model_dim),
            ln1_gain=ones_param(model_dim),
            ln1_bias=zeros_param(model_dim),
            ln2_gain=ones_param(model_dim),
            ln2_bias=zeros_param(model_dim),
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


def encoder_block(x_seq: Tensor, params: EncoderBlockParams, *,
                  context: Tensor | None = None,
                  x_mask: np.ndarray | None = None,
                  context_mask: np.ndarray | None = None,
                  training: bool = False,
                  rng: np.random.Generator | None = None,
                  keep: tuple[np.ndarray, np.ndarray] | None = None,
                  cls_only: bool = False) -> Tensor:
    """Pre-norm residual block: x + Attn(LN(x), ctx), then y + FFN(LN(y)).

    Self-attention over ``x_seq`` when ``context`` is None, cross-attention
    with text as the query otherwise.  ``x_seq`` is one sequence ``[L, d]``
    or a padded batch ``[B, L, d]`` (masks and context batched to match).

    In training, ``keep`` holds the dropout scales of the attention and the
    FFN output, each shaped like ``x_seq``; without it the block draws both
    from ``rng``, attention site first.  With ``cls_only`` the block returns
    row 0 alone (``[..., 1, d]``): every row still enters LN1 and the K/V
    projections, but only the CLS row goes through the query, the residuals,
    LN2 and the FFN, because no other row of a last block reaches an output.
    """
    rate = params.dropout_rate
    if not training or rate <= 0.0:
        keep = None
    elif keep is None:
        keep = (dropout_keep(rng, x_seq.shape, rate), dropout_keep(rng, x_seq.shape, rate))
    normed = T.layer_norm(x_seq, params.ln1_gain, params.ln1_bias)
    if context is None:
        kv, kv_mask = normed, x_mask
    else:
        kv, kv_mask = context, context_mask
    query, residual = normed, x_seq
    if cls_only:
        query, residual = normed[..., :1, :], x_seq[..., :1, :]
        if keep is not None:
            keep = tuple(site[..., :1, :] for site in keep)

    def drop(x: Tensor, site: int) -> Tensor:
        return x if keep is None else x * Tensor(keep[site])

    attn = multi_head_attention(query, kv, kv_mask, params.attention)
    y = residual + drop(attn, 0)
    normed2 = T.layer_norm(y, params.ln2_gain, params.ln2_bias)
    hidden = T.relu(T.matmul(normed2, params.w1) + params.b1)
    ffn = T.matmul(hidden, params.w2) + params.b2
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
               hidden: int = 512, out_dim: int = 7) -> "HeadParams":
        return cls(
            w1=xavier_uniform(rng, in_dim, hidden), b1=zeros_param(hidden),
            w2=xavier_uniform(rng, hidden, hidden), b2=zeros_param(hidden),
            w3=xavier_uniform(rng, hidden, out_dim), b3=zeros_param(out_dim),
        )

    def parameters(self) -> dict[str, Tensor]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2,
                "b2": self.b2, "w3": self.w3, "b3": self.b3}


def mlp_head(x: Tensor, params: HeadParams, mode: str = "classify") -> Tensor:
    """Map pooled vectors to 7 class probabilities or one unbounded score each.

    ``x`` is a batch ``[B, d]`` (returns ``[B, k]``) or one vector ``[d]``
    (returns ``[k]``).
    """
    if x.ndim not in (1, 2):
        raise ShapeError(f"head input must be [d] or [B, d], got shape {x.shape}")
    if x.shape[-1] != params.w1.shape[0]:
        raise ShapeError(f"head input width {x.shape[-1]} != {params.w1.shape[0]}")
    if mode not in ("classify", "regress"):
        raise UsageError(f"unknown head mode {mode!r}")
    rows = x if x.ndim == 2 else x.reshape((1, x.shape[0]))
    h = T.relu(T.matmul(rows, params.w1) + params.b1)
    h = T.relu(T.matmul(h, params.w2) + params.b2)
    out = T.matmul(h, params.w3) + params.b3
    if mode == "classify":
        out = T.softmax(out, axis=-1)
    return out if x.ndim == 2 else out.reshape((out.shape[1],))


# -- bidirectional LSTM baseline ----------------------------------------------


@dataclass
class LstmCellParams:
    wx: Tensor  # [in, 4h], gate order i, f, g, o
    wh: Tensor  # [h, 4h]
    b: Tensor   # [4h]


@dataclass
class BiLstmParams:
    """Stacked bidirectional LSTM; hidden size equals the input width."""

    layers: list[dict[str, LstmCellParams]] = field(default_factory=list)
    hidden_size: int = 0

    @classmethod
    def create(cls, rng: np.random.Generator | None, input_dim: int,
               hidden_size: int | None = None, num_layers: int = 2) -> "BiLstmParams":
        h = input_dim if hidden_size is None else hidden_size
        layers = []
        for layer in range(num_layers):
            in_dim = input_dim if layer == 0 else 2 * h
            layers.append({
                direction: LstmCellParams(
                    wx=xavier_uniform(rng, in_dim, 4 * h),
                    wh=xavier_uniform(rng, h, 4 * h),
                    b=zeros_param(4 * h),
                )
                for direction in ("fw", "bw")
            })
        return cls(layers=layers, hidden_size=h)

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            for direction, cell in layer.items():
                out[f"l{i}.{direction}.wx"] = cell.wx
                out[f"l{i}.{direction}.wh"] = cell.wh
                out[f"l{i}.{direction}.b"] = cell.b
        return out


def _lstm_direction(rows: list[Tensor], cell: LstmCellParams, h_dim: int) -> tuple[list[Tensor], Tensor]:
    """Run one direction over the given row order; returns per-step h and final h."""
    h = Tensor(np.zeros((1, h_dim)))
    c = Tensor(np.zeros((1, h_dim)))
    outputs = []
    for row in rows:
        z = T.matmul(row, cell.wx) + T.matmul(h, cell.wh) + cell.b
        i = T.sigmoid(z[:, 0:h_dim])
        f = T.sigmoid(z[:, h_dim:2 * h_dim])
        g = T.tanh(z[:, 2 * h_dim:3 * h_dim])
        o = T.sigmoid(z[:, 3 * h_dim:4 * h_dim])
        c = f * c + i * g
        h = o * T.tanh(c)
        outputs.append(h)
    return outputs, h


def bilstm_encode(seq: Tensor, params: BiLstmParams) -> Tensor:
    """Concatenate the last layer's final forward and reverse hidden states."""
    if seq.ndim != 2 or seq.shape[0] < 1:
        raise UsageError(f"bilstm_encode needs a nonempty [L, d] sequence, got {seq.shape}")
    h_dim = params.hidden_size
    length = seq.shape[0]
    rows = [seq[t:t + 1] for t in range(length)]
    final_fw = final_bw = None
    for layer in params.layers:
        fw_steps, final_fw = _lstm_direction(rows, layer["fw"], h_dim)
        bw_steps, final_bw = _lstm_direction(rows[::-1], layer["bw"], h_dim)
        bw_steps = bw_steps[::-1]
        rows = [T.concat([fw_steps[t], bw_steps[t]], axis=1) for t in range(length)]
    pooled = T.concat([final_fw, final_bw], axis=1)
    return pooled.reshape((2 * h_dim,))


# -- sequence utilities ---------------------------------------------------------


def prepend_cls(seq: Tensor, cls: Tensor) -> Tensor:
    """Row 0 of each sequence (``[L, d]`` or ``[B, L, d]``) becomes the CLS
    embedding; original rows follow unchanged."""
    if cls.ndim != 1:
        raise ShapeError(f"cls must be a vector, got shape {cls.shape}")
    if seq.ndim not in (2, 3) or seq.shape[-1] != cls.shape[0]:
        raise ShapeError(f"width mismatch: seq {seq.shape} vs cls {cls.shape}")
    row = cls.reshape((1,) * (seq.ndim - 1) + cls.shape)
    if seq.ndim == 3:
        # One CLS row per example; the gradient sums back over the batch.
        row = row + Tensor(np.zeros((seq.shape[0], 1, cls.shape[0])))
    return T.concat([row, seq], axis=seq.ndim - 2)


def sinusoid_table(length: int, dim: int, base: float = 10000.0) -> np.ndarray:
    """Standard sinusoidal position encodings, shape [length, dim]."""
    table = np.zeros((length, dim))
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(0, dim, 2, dtype=np.float64)[None, :]
    angles = pos / np.power(base, idx / dim)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : dim // 2])
    return table


def add_positional(seq: Tensor, enabled: bool = True) -> Tensor:
    """Add the sinusoid table to ``[L, d]``, or to every sequence of ``[B, L, d]``."""
    if not enabled:
        return seq
    return seq + Tensor(sinusoid_table(seq.shape[-2], seq.shape[-1]))
