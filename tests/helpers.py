"""Shared test oracles, independent of the library's model code, and fuzzing helpers."""

import math

import numpy as np
from hypothesis import strategies as st

from discourse_rater.data import Dataset
from discourse_rater.metrics import qwk
from discourse_rater.objective import COMPONENTS, rating_to_index, round_to_rating


def segment_mean_features(dataset: Dataset) -> dict[str, np.ndarray]:
    """Mean-pooled embedding per segment, all modalities concatenated."""
    out = {}
    for seg_id, feats in dataset.features.items():
        parts = [feats.modality(m).mean(axis=0) for m in ("text", "audio", "video")
                 if feats.modality(m).shape[0] > 0]
        out[seg_id] = np.concatenate(parts).astype(np.float64)
    return out


def ridge_fit_predict(x_train, y_train, x_test, alpha=1.0):
    """Dual-form ridge regression (cheap when samples << features)."""
    x_train = np.asarray(x_train)
    mean = x_train.mean(axis=0)
    xc = x_train - mean
    gram = xc @ xc.T + alpha * np.eye(xc.shape[0])
    dual = np.linalg.solve(gram, np.asarray(y_train) - np.mean(y_train))
    return (np.asarray(x_test) - mean) @ xc.T @ dual + np.mean(y_train)


def linear_readout_qwk(dataset: Dataset, component: str,
                       train_fraction: float = 0.6, alpha: float = 1.0) -> float:
    """QWK of a teacher-split ridge readout on mean embeddings.

    This bounds what a trained model should reach on synthetic data: if a
    linear probe recovers the labels, the fusion model has no excuse.
    """
    features = segment_mean_features(dataset)
    teachers = dataset.manifest.teacher_ids()
    n_train = max(1, int(round(train_fraction * len(teachers))))
    train_teachers = set(teachers[:n_train])

    x_train, y_train, x_test, y_test = [], [], [], []
    for seg in dataset.manifest.segments:
        row = features[seg.segment_id]
        label = seg.labels[component]
        if seg.teacher_id in train_teachers:
            x_train.append(row)
            y_train.append(label)
        else:
            x_test.append(row)
            y_test.append(label)
    preds = ridge_fit_predict(x_train, y_train, x_test, alpha=alpha)
    pred_idx = [rating_to_index(round_to_rating(p)) for p in preds]
    true_idx = [rating_to_index(t) for t in y_test]
    return qwk(true_idx, pred_idx, 7)


def mean_readout_qwk(dataset: Dataset) -> float:
    return float(np.mean([linear_readout_qwk(dataset, c) for c in COMPONENTS]))


def make_segment(rng, seg_id="s1", teacher="t1", text_len=3, chunk_len=4, scale=1.0):
    """Random full-width segment features for model-level tests."""
    from discourse_rater.data import AUDIO_DIM, TEXT_DIM, VIDEO_DIM, SegmentFeatures

    return SegmentFeatures(
        segment_id=seg_id, teacher_id=teacher,
        text=(scale * rng.standard_normal((text_len, TEXT_DIM))).astype(np.float32),
        audio=(scale * rng.standard_normal((chunk_len, AUDIO_DIM))).astype(np.float32),
        video=(scale * rng.standard_normal((chunk_len, VIDEO_DIM))).astype(np.float32),
    )


def longest_query(model, segments):
    """The longest query stream of a batch, over whose length each segment
    draws its dropout."""
    return max(seg.modality(model.config.query).shape[0] for seg in segments)


def fusion_oracle(model, seg, padded=None, rng=None):
    """Per-segment head outputs ``[1, k]`` from single-sequence blocks.

    The reference for the packed ``model.forward``: positional encoding,
    then CLS, then every encoder block of the stack on the rows of this one
    segment, with each context CLS prepended as an ordinary context row;
    then row 0, then the heads.  With ``rng`` the blocks run in training
    mode: each block draws both dropout sites over ``padded + 1`` rows, where
    ``padded`` is the longest query length of the batch (by default this
    segment's), as a batch does, and keeps those of the segment's rows.
    """
    from discourse_rater import tensor as T
    from discourse_rater.blocks import add_positional, dropout_keep, encoder_block, mlp_head
    from discourse_rater.tensor import Tensor

    config = model.config

    def stream(modality):
        rows = seg.modality(modality)
        raw = Tensor(rows)
        if modality == "audio" and model.audio_in_w is not None:
            raw = T.matmul(raw, model.audio_in_w) + model.audio_in_b
        cls = model.cls[modality].reshape((1, raw.shape[1]))
        return T.concat([cls, add_positional(raw, config.positional, np.arange(len(rows)))])

    query = config.query
    text = stream(query)
    padded_rows = (seg.modality(query).shape[0] if padded is None else padded) + 1
    for modality, block in model.stack:
        keep = None
        if rng is not None and block.dropout_rate > 0:
            keep = tuple(dropout_keep(rng, (padded_rows, text.shape[1]),
                                      block.dropout_rate)[:text.shape[0]]
                         for _ in range(2))
        context = None if modality is None else stream(modality)
        text = encoder_block(text, block, context=context, training=rng is not None,
                             keep=keep)
    return {component: mlp_head(text[0:1], head, mode=config.head_mode)
            for component, head in model.heads.items()}


# Finite stand-in for -inf in padded attention scores: exp(x - max)
# underflows to exactly 0.0, so a padded key gets exactly zero weight.
NEG_FILL = -1e30


def padded_layout(lengths, lead=0):
    """Gather index and validity, both ``[B, lead + max length]``, of packed
    sequences of ``lengths`` rows in a zero-padded batch.

    The gather source holds ``lead`` rows shared by every sequence, then the
    packed rows, then one zero row that every padded slot reads.
    """
    lengths = np.asarray(lengths)
    starts = np.cumsum(lengths) - lengths
    width = int(lengths.max(initial=0))
    valid = np.arange(width) < lengths[:, None]
    index = np.where(valid, lead + starts[:, None] + np.arange(width), lead + lengths.sum())
    shared = np.broadcast_to(np.arange(lead), (len(lengths), lead))
    return (np.concatenate([shared, index], axis=1),
            np.concatenate([np.ones((len(lengths), lead), dtype=bool), valid], axis=1))


def attention_oracle(x, params, *, rows=None, context=None, context_rows=None,
                     context_cls=None, cls_only=False):
    """``blocks.multi_head_attention`` as a chain of single-purpose primitives.

    The reference for the fused ``tensor.attention`` core: each projection
    is a ``matmul`` then an ``add``; Q, K and V are each gathered into
    ``[B, L_max, model_dim]`` from their rows and a zero row by
    ``embedding_lookup``; heads are split and merged by ``reshape`` and
    ``permute``; the scores and the weighted sum are ``bmm``s, scaled by
    ``mul``, masked by ``masked_fill`` and normalised by ``softmax``; a
    ``take`` keeps the real query rows.  Same arguments and result.
    """
    from discourse_rater import tensor as T
    from discourse_rater.blocks import Rows
    from discourse_rater.tensor import Tensor

    rows = Rows([x.shape[0]]) if rows is None else rows
    model_dim, context_dim = params.wq.shape[0], params.wk.shape[0]
    source, source_rows, lead = x, rows, None
    if context is not None:
        source = context
        source_rows = Rows([context.shape[0]]) if context_rows is None else context_rows
        if context_cls is not None:
            lead = context_cls.reshape((1, context_dim))
    kv_index, kv_valid = padded_layout(source_rows.lengths, 0 if lead is None else 1)
    zero = Tensor(np.zeros((1, model_dim)))

    def padded(w, b):
        parts = [T.matmul(source, w) + b, zero]
        if lead is not None:
            parts.insert(0, T.matmul(lead, w) + b)
        return T.embedding_lookup(T.concat(parts), kv_index)

    keys, values = padded(params.wk, params.bk), padded(params.wv, params.bv)
    batch = len(rows)
    if cls_only:
        queries = (T.matmul(T.take(x, rows.starts), params.wq) + params.bq) \
            .reshape((batch, 1, model_dim))
    else:
        q_index, q_valid = padded_layout(rows.lengths)
        queries = T.embedding_lookup(T.concat([T.matmul(x, params.wq) + params.bq, zero]),
                                     q_index)
    n_q = queries.shape[1]
    n_heads = params.num_heads
    head_dim = model_dim // n_heads

    def split_heads(h, axes):
        heads = T.permute(h.reshape((batch, h.shape[1], n_heads, head_dim)), (0, 2) + axes)
        return heads.reshape((batch * n_heads,) + heads.shape[2:])

    scores = T.bmm(split_heads(queries, (1, 3)), split_heads(keys, (3, 1))) \
        * (1.0 / math.sqrt(head_dim))
    if not kv_valid.all():
        scores = T.masked_fill(scores, np.repeat(~kv_valid, n_heads, axis=0)[:, None, :],
                               NEG_FILL)
    attn = T.softmax(scores, axis=-1)
    per_head = T.bmm(attn, split_heads(values, (1, 3))).reshape((batch, n_heads, n_q, head_dim))
    merged = T.permute(per_head, (0, 2, 1, 3)).reshape((batch * n_q, model_dim))
    if not cls_only:
        merged = T.take(merged, np.flatnonzero(q_valid))
    return T.matmul(merged, params.wo) + params.bo


# Any value ``json.loads`` can return, nested at most a few levels.
JSON_VALUES = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                           lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                           max_leaves=6)


def numpy_bilstm_oracle(seq: np.ndarray, params) -> np.ndarray:
    """The final states ``[2h]`` of ``blocks.BiLstmParams`` ``params`` over one
    sequence ``[L, d]``: the recurrence step by step, written independently
    with plain numpy."""
    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    h_dim = params.layers[0]["fw"].wh.shape[0]

    def run_direction(rows, cell):
        h = np.zeros(h_dim)
        c = np.zeros(h_dim)
        outs = []
        for row in rows:
            z = row @ cell.wx.data + h @ cell.wh.data + cell.b.data
            i = sigmoid(z[0:h_dim])
            f = sigmoid(z[h_dim:2 * h_dim])
            g = np.tanh(z[2 * h_dim:3 * h_dim])
            o = sigmoid(z[3 * h_dim:4 * h_dim])
            c = f * c + i * g
            h = o * np.tanh(c)
            outs.append(h)
        return outs, h

    rows = [seq[t] for t in range(seq.shape[0])]
    final_fw = final_bw = None
    for layer in params.layers:
        fw, final_fw = run_direction(rows, layer["fw"])
        bw, final_bw = run_direction(rows[::-1], layer["bw"])
        bw = bw[::-1]
        rows = [np.concatenate([fw[t], bw[t]]) for t in range(len(rows))]
    return np.concatenate([final_fw, final_bw])


def json_paths(doc, prefix=()):
    """The key path of every value inside a parsed JSON object or array."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from json_paths(value, prefix + (key,))


# Up to four byte edits, each at a header byte or anywhere, then an optional cut.
EDITS = st.tuples(st.lists(st.tuples(st.booleans(), st.floats(0.0, 1.0, exclude_max=True),
                                     st.integers(0, 255)), max_size=4),
                  st.none() | st.floats(0.0, 1.0))


def edited(raw: bytes, headers: list[int], edits) -> bytes:
    """``raw`` with ``EDITS`` applied; ``headers`` lists the header byte positions."""
    changes, cut = edits
    out = bytearray(raw)
    for in_header, where, value in changes:
        out[headers[int(where * len(headers))] if in_header else int(where * len(out))] = value
    return bytes(out if cut is None else out[:int(cut * len(out))])
