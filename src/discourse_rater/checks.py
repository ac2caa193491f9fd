"""Gradient-integrity catalog: every primitive and composite block.

The catalog holds 41 entries.  Each of the 24 node-building primitives of
``tensor`` appears once (``take`` as ``slice``, ``tsum`` as ``sum``, ``tmean``
as ``mean``, ``attention`` as ``attention_core``, self-attention of uneven
packed sequences), plus five variants that reach a separate backward path or
shape: ``add_broadcast`` (the ``_unbroadcast`` reduction), ``scale`` (``mul``
with a Python-scalar operand), ``matmul_bias`` (the bias folded into the GEMM),
``attention_core_lead`` (uneven contexts, one empty, behind a shared lead
row) and ``attention_core_cls_only`` (one query row per sequence).  Then
each composite: attention on one sequence and
on packed rows of uneven sequences against contexts led by one shared CLS
row, the self and cross encoder blocks on one sequence, the cross block on
those packed rows, the CLS-only self block on packed rows, the classify and
regress head modes on a batch of two rows, the BiLSTM on packed rows of
uneven sequences, and the OLL, CE and L1 losses.

Runs in float64 mode and compares reverse-mode gradients against central
finite differences.  The catalog backs the ``gradcheck`` CLI command; any
entry over tolerance is a bug in a backward rule.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import tensor as T
from .blocks import (AttentionParams, BiLstmParams, EncoderBlockParams,
                     HeadParams, Rows, bilstm_encode, encoder_block, mlp_head,
                     multi_head_attention)
from .errors import UsageError
from .objective import l1_loss, oll_loss, weighted_ce_loss
from .tensor import GradCheckReport, Tensor


def _t(rng: np.random.Generator, *shape: int) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _positive(rng: np.random.Generator, *shape: int) -> Tensor:
    return Tensor(np.abs(rng.standard_normal(shape)) + 0.5, requires_grad=True)


def _off_kink(rng: np.random.Generator, *shape: int) -> Tensor:
    x = rng.standard_normal(shape)
    return Tensor(x + np.sign(x) * 0.1, requires_grad=True)


def _primitive_checks(rng: np.random.Generator) -> list[tuple[str, Callable, list[Tensor]]]:
    mask = np.asarray([True, False, True, True])
    # Packed sequences of 3, 1 and 2 query rows against 2, 0 and 3 context
    # rows, two heads of width 2; ``lead`` puts one shared row before each.
    q_lengths, context_lengths, cls_lengths = [3, 1, 2], [2, 0, 3], [1, 1, 1]
    return [
        ("add", T.add, [_t(rng, 3, 4), _t(rng, 3, 4)]),
        ("add_broadcast", T.add, [_t(rng, 3, 4), _t(rng, 4)]),
        ("sub", T.sub, [_t(rng, 3, 4), _t(rng, 3, 4)]),
        ("mul", T.mul, [_t(rng, 3, 4), _t(rng, 3, 4)]),
        ("scale", lambda a: a * 0.7, [_t(rng, 3, 4)]),
        ("neg", T.neg, [_t(rng, 3, 4)]),
        ("relu", T.relu, [_off_kink(rng, 3, 4)]),
        ("sigmoid", T.sigmoid, [_t(rng, 3, 4)]),
        ("tanh", T.tanh, [_t(rng, 3, 4)]),
        ("log", T.log, [_positive(rng, 3, 4)]),
        ("absolute", T.absolute, [_off_kink(rng, 3, 4)]),
        ("clamp_min", lambda a: T.clamp_min(a, 0.0), [_off_kink(rng, 3, 4)]),
        ("matmul", T.matmul, [_t(rng, 3, 5), _t(rng, 5, 2)]),
        ("matmul_bias", lambda a, b, bias: T.matmul(a, b, bias=bias),
         [_t(rng, 3, 5), _t(rng, 5, 2), _t(rng, 2)]),
        ("attention_core", lambda q, k, v: T.attention(q, k, v, q_lengths, q_lengths, 2),
         [_t(rng, 6, 4), _t(rng, 6, 4), _t(rng, 6, 4)]),
        ("attention_core_lead",
         lambda q, k, v, kl, vl: T.attention(q, k, v, q_lengths, context_lengths, 2,
                                             (kl, vl)),
         [_t(rng, 6, 4), _t(rng, 5, 4), _t(rng, 5, 4), _t(rng, 1, 4), _t(rng, 1, 4)]),
        ("attention_core_cls_only",
         lambda q, k, v, kl, vl: T.attention(q, k, v, cls_lengths, context_lengths, 2,
                                             (kl, vl)),
         [_t(rng, 3, 4), _t(rng, 5, 4), _t(rng, 5, 4), _t(rng, 1, 4), _t(rng, 1, 4)]),
        ("bmm", T.bmm, [_t(rng, 2, 3, 4), _t(rng, 2, 4, 2)]),
        ("transpose", T.transpose, [_t(rng, 3, 4)]),
        ("permute", lambda a: T.permute(a, (2, 0, 1)), [_t(rng, 2, 3, 4)]),
        ("reshape", lambda a: a.reshape((4, 3)), [_t(rng, 3, 4)]),
        ("slice", lambda a: a[1:3, 0:2], [_t(rng, 4, 4)]),
        ("concat", lambda a, b: T.concat([a, b], axis=0), [_t(rng, 2, 3), _t(rng, 3, 3)]),
        ("sum", lambda a: a.sum(axis=0), [_t(rng, 3, 4)]),
        ("mean", lambda a: T.tmean(a, axis=1), [_t(rng, 3, 4)]),
        ("softmax", lambda a: T.softmax(a, axis=-1), [_t(rng, 3, 5)]),
        ("masked_fill", lambda a: T.masked_fill(a, ~mask, -2.0), [_t(rng, 3, 4)]),
        ("layer_norm", T.layer_norm, [_t(rng, 3, 6), _positive(rng, 6), _t(rng, 6)]),
        ("embedding_lookup", lambda tbl: T.embedding_lookup(tbl, [0, 2, 1, 2]),
         [_t(rng, 4, 5)]),
    ]


def _composite_checks(rng: np.random.Generator) -> list[tuple[str, Callable, list[Tensor]]]:
    checks: list[tuple[str, Callable, list[Tensor]]] = []

    attn = AttentionParams.create(rng, model_dim=8, context_dim=6, num_heads=2)
    q, kv = _t(rng, 3, 8), _t(rng, 4, 6)
    checks.append(("attention",
                   lambda q, kv, *_: multi_head_attention(q, attn, context=kv),
                   [q, kv] + list(attn.parameters().values())))

    # Packed rows: sequences of 3, 1 and 2 rows against contexts of 2, 0 and
    # 3 rows behind one shared CLS row.
    rows, context_rows = Rows([3, 1, 2]), Rows([2, 0, 3])
    checks.append(("attention_batched",
                   lambda q, kv, cls, *_: multi_head_attention(
                       q, attn, rows=rows, context=kv, context_rows=context_rows,
                       context_cls=cls),
                   [_t(rng, 6, 8), _t(rng, 5, 6), _t(rng, 6)]
                   + list(attn.parameters().values())))

    self_block = EncoderBlockParams.create(rng, model_dim=8, num_heads=2, ffn_dim=12)
    x = _t(rng, 3, 8)
    checks.append(("encoder_block_self",
                   lambda x, *_: encoder_block(x, self_block),
                   [x] + list(self_block.parameters().values())))

    cross_block = EncoderBlockParams.create(rng, model_dim=8, context_dim=6,
                                            num_heads=2, ffn_dim=12)
    x2, ctx = _t(rng, 3, 8), _t(rng, 4, 6)
    checks.append(("encoder_block_cross",
                   lambda x, ctx, *_: encoder_block(x, cross_block, context=ctx),
                   [x2, ctx] + list(cross_block.parameters().values())))

    packed_cross = EncoderBlockParams.create(rng, model_dim=8, context_dim=6,
                                             num_heads=2, ffn_dim=12)
    checks.append(("encoder_block_packed_cross",
                   lambda x, ctx, cls, *_: encoder_block(
                       x, packed_cross, rows=rows, context=ctx, context_rows=context_rows,
                       context_cls=cls),
                   [_t(rng, 6, 8), _t(rng, 5, 6), _t(rng, 6)]
                   + list(packed_cross.parameters().values())))
    packed_self = EncoderBlockParams.create(rng, model_dim=8, num_heads=2, ffn_dim=12)
    checks.append(("encoder_block_packed_cls",
                   lambda x, *_: encoder_block(x, packed_self, rows=rows, cls_only=True),
                   [_t(rng, 6, 8)] + list(packed_self.parameters().values())))

    head = HeadParams.create(rng, in_dim=10, hidden=6, out_dim=7)
    hx = _t(rng, 2, 10)
    checks.append(("mlp_head_classify",
                   lambda x, *_: mlp_head(x, head, mode="classify"),
                   [hx] + list(head.parameters().values())))

    reg_head = HeadParams.create(rng, in_dim=10, hidden=6, out_dim=1)
    rx = _t(rng, 2, 10)
    checks.append(("mlp_head_regress",
                   lambda x, *_: mlp_head(x, reg_head, mode="regress"),
                   [rx] + list(reg_head.parameters().values())))

    lstm = BiLstmParams.create(rng, input_dim=3, hidden_size=2, num_layers=2)
    checks.append(("bilstm",
                   lambda seq, *_: bilstm_encode(seq, Rows([3, 1, 2]), lstm),
                   [_t(rng, 6, 3)] + list(lstm.parameters().values())))

    weights = np.abs(rng.standard_normal(7)) + 0.5
    oll_logits = _t(rng, 3, 7)
    checks.append(("oll_loss",
                   lambda z: oll_loss(T.softmax(z, axis=-1), [2, 7, 4], weights),
                   [oll_logits]))
    ce_logits = _t(rng, 3, 7)
    checks.append(("ce_loss",
                   lambda z: weighted_ce_loss(T.softmax(z, axis=-1), [1, 5, 3], weights),
                   [ce_logits]))
    preds = Tensor(np.asarray([1.7, 3.2, 2.4]), requires_grad=True)
    checks.append(("l1_loss",
                   lambda p: l1_loss(p, [2.0, 3.0, 2.5], weights),
                   [preds]))
    return checks


def run_gradient_checks(tol: float, seed: int) -> list[GradCheckReport]:
    """Run the full catalog in float64; returns one report per entry."""
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"tol must be a finite number > 0, got {tol}")
    if seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")
    reports = []
    with T.precision("float64"):
        rng = np.random.default_rng(seed)
        for name, fn, inputs in _primitive_checks(rng) + _composite_checks(rng):
            reports.append(T.grad_check(fn, inputs, tol=tol, seed=seed, name=name))
    return reports
