"""Full model assembly: text-centered fusion stack, unimodal and LSTM variants.

The fusion architecture prepends a learnable CLS embedding to each modality
sequence, then stacks M fusion modules.  One module runs cross-attention with
the text stream as query against the audio sequence, then against the video
sequence, then self-attention over the text stream.  Audio and video act as
fixed key/value context for every module; only the text stream is updated.
After M modules the CLS row is the pooled representation fed to the
per-component rating heads.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .blocks import (BiLstmParams, EncoderBlockParams, HeadParams, ParamArena,
                     Rows, add_positional, bilstm_encode, encoder_block,
                     mlp_head, param_array, xavier_uniform, zeros_param)
from .data import AUDIO_DIM, MODALITY_DIMS, FieldReader, SegmentFeatures, open_file
from .errors import ConfigError, DataError, NumericsError, UsageError
from .objective import COMPONENTS, NUM_CLASSES
from .tensor import Tensor

MODALITIES = tuple(MODALITY_DIMS)
ENCODERS = ("attention", "lstm")
LOSSES = ("oll", "ce", "l1")
MODEL_DIM = 768
NUM_HEADS = 12
FUSION_MODULE_GRID = (1, 2, 3, 4, 5)

CHECKPOINT_MAGIC = b"DFM1"


def parse_modalities(spec: str | Sequence[str]) -> tuple[str, ...]:
    """Accept "T+A", ("text", "audio"), etc.; return canonical ordered names."""
    short = {"t": "text", "a": "audio", "v": "video"}
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.replace(",", "+").split("+") if p.strip()]
    else:
        parts = list(spec)
    names = set()
    for part in parts:
        key = part.lower()
        name = short.get(key, key)
        if name not in MODALITIES:
            raise ConfigError(f"unknown modality {part!r}")
        names.add(name)
    return tuple(m for m in MODALITIES if m in names)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture switches; the hyperparameter grid constrains M to 1..5."""

    modalities: tuple[str, ...] = ("text",)
    encoder: str = "attention"
    fusion_modules: int = 1
    component: str | None = None  # None: all three heads; a name: single-task mode
    loss: str = "oll"
    positional: bool = True
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "modalities", parse_modalities(self.modalities))
        if not self.modalities:
            raise ConfigError("at least one modality is required")
        if self.encoder not in ENCODERS:
            raise ConfigError(f"unknown encoder {self.encoder!r}")
        if self.encoder == "attention":
            if len(self.modalities) > 1 and "text" not in self.modalities:
                raise ConfigError("multimodal attention configs require the text stream")
            if self.fusion_modules not in FUSION_MODULE_GRID:
                raise ConfigError(
                    f"fusion_modules must be one of {FUSION_MODULE_GRID}, got {self.fusion_modules}")
        else:
            if self.modalities != ("text", "audio") or self.fusion_modules != 1:
                raise ConfigError("the LSTM baseline is defined for the T+A configuration at M=1")
        if self.component is not None and self.component not in COMPONENTS:
            raise ConfigError(f"component must be one of {COMPONENTS}, got {self.component!r}")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    @property
    def head_mode(self) -> str:
        return "regress" if self.loss == "l1" else "classify"

    @property
    def head_components(self) -> tuple[str, ...]:
        return COMPONENTS if self.component is None else (self.component,)

    @property
    def query(self) -> str:
        """The query stream, which the fusion stack updates: text when
        present, else the only modality."""
        return "text" if "text" in self.modalities else self.modalities[0]

    @property
    def contexts(self) -> tuple[str, ...]:
        """The streams the query attends to, in ``MODALITIES`` order."""
        return tuple(m for m in self.modalities if m != self.query)


@dataclass
class FusionModel:
    """All learnable state for one configuration.

    ``stack`` is the fusion stack in run order: each encoder block with the
    modality it attends to, or None for self-attention.  ``named`` holds
    every parameter under its checkpoint name in the order ``_build`` made
    it, which is its order in ``arena`` and in a DFM1 file.  ``arena`` holds
    every parameter's value and gradient slot when the model is built in one.
    """

    config: ModelConfig
    cls: dict[str, Tensor] = field(default_factory=dict)
    stack: list[tuple[str | None, EncoderBlockParams]] = field(default_factory=list)
    heads: dict[str, HeadParams] = field(default_factory=dict)
    lstms: dict[str, BiLstmParams] = field(default_factory=dict)
    audio_in_w: Tensor | None = None
    audio_in_b: Tensor | None = None
    named: dict[str, Tensor] = field(default_factory=dict, repr=False)
    arena: ParamArena | None = field(default=None, repr=False, compare=False)

    def parameters(self) -> dict[str, Tensor]:
        return dict(self.named)

    def num_parameters(self) -> int:
        return sum(t.size for t in self.named.values())


def _cls_param(rng: np.random.Generator | None, param: Tensor) -> Tensor:
    """``param``, a ``param_array``, filled with a CLS embedding drawn from ``rng``."""
    if rng is not None:
        param.data[...] = rng.normal(0.0, 0.02, size=param.size)
    return param


def build_model(config: ModelConfig) -> FusionModel:
    """Deterministically initialize all parameters for ``config`` from its seed.

    Every parameter's value and gradient slot are views of ``model.arena``,
    whose two buffers ``train.AdamW`` steps.
    """
    return _build_in_arena(config, np.random.default_rng(config.seed))


def _build_in_arena(config: ModelConfig, rng: np.random.Generator | None) -> FusionModel:
    """``_build`` into one ``ParamArena``, kept as ``model.arena`` and sized
    by a build that draws and fills nothing (under a millisecond even for
    T+A+V, M=2)."""
    arena = ParamArena(_build(config, None).num_parameters())
    model = _build(config, rng, arena)
    if arena.used != arena.buffer.size:
        raise UsageError(f"parameters used {arena.used} of {arena.buffer.size} arena values")
    model.arena = arena
    return model


def _build(config: ModelConfig, rng: np.random.Generator | None,
           arena: ParamArena | None = None) -> FusionModel:
    """The parameters of ``config``, drawn from ``rng``; with ``rng`` None the
    random-initialised ones are left uninitialised for ``load_model`` to fill.
    Each parameter is a ``blocks.param_array`` of ``arena``, recorded in
    ``model.named`` under its checkpoint name as it is made, so the arena's
    layout is the checkpoint's order."""
    model = FusionModel(config=config)

    def named(prefix: str, params):
        for name, tensor in params.parameters().items():
            model.named[f"{prefix}.{name}"] = tensor
        return params

    if config.encoder == "lstm":
        for modality in config.modalities:
            model.lstms[modality] = named(f"lstm.{modality}", BiLstmParams.create(
                rng, MODALITY_DIMS[modality], arena=arena))
        head_in = sum(2 * MODALITY_DIMS[modality] for modality in config.modalities)
    else:
        if config.contexts:
            for modality in config.modalities:
                model.cls[modality] = model.named[f"cls.{modality}"] = _cls_param(
                    rng, param_array((MODALITY_DIMS[modality],), arena))
        else:
            only = config.query
            # The CLS row comes first in the buffer but is drawn after the
            # audio projection.
            cls = model.named[f"cls.{only}"] = param_array((MODEL_DIM,), arena)
            if only == "audio":
                model.audio_in_w = model.named["audio_in.w"] = xavier_uniform(
                    rng, AUDIO_DIM, MODEL_DIM, arena)
                model.audio_in_b = model.named["audio_in.b"] = zeros_param(MODEL_DIM, arena=arena)
            model.cls[only] = _cls_param(rng, cls)
        for i in range(config.fusion_modules):
            for modality in config.contexts:
                block = EncoderBlockParams.create(
                    rng, MODEL_DIM, context_dim=MODALITY_DIMS[modality],
                    num_heads=NUM_HEADS, dropout_rate=config.dropout, arena=arena)
                model.stack.append((modality, named(f"module{i}.cross_{modality}", block)))
            block = EncoderBlockParams.create(
                rng, MODEL_DIM, num_heads=NUM_HEADS, dropout_rate=config.dropout, arena=arena)
            model.stack.append((None, named(f"module{i}.self", block)))
        head_in = MODEL_DIM

    out_dim = 1 if config.head_mode == "regress" else NUM_CLASSES
    for component in config.head_components:
        model.heads[component] = named(f"head.{component}", HeadParams.create(
            rng, in_dim=head_in, out_dim=out_dim, arena=arena))
    return model


def _check_inputs(config: ModelConfig, seg: SegmentFeatures) -> None:
    for modality in config.modalities:
        arr = seg.modality(modality)
        if arr.shape[0] < 1:
            raise DataError(
                f"segment {seg.segment_id!r}: empty {modality} sequence "
                f"required by this configuration")


def forward(model: FusionModel, segments: Sequence[SegmentFeatures],
            training: bool = False, rng: np.random.Generator | None = None,
            ) -> dict[str, Tensor]:
    """Map a batch of segments, each with its own lengths, to per-component outputs.

    Classification heads return ``[B, 7]`` probabilities; the regression
    variant returns ``[B, 1]`` unbounded scores.

    Both encoders run the batch at once on packed rows: the rows of every
    segment, back to back.  Every layer sees only those rows, and the
    attention core and the LSTM recurrence run each segment on its own.
    The LSTM baseline runs one BiLSTM per modality and joins their final
    states along features.
    When the stack raises ``NumericsError`` and a segment holds a non-finite
    feature, ``DataError`` names each such segment and modality instead.
    """
    if not segments:
        raise UsageError("forward needs at least one segment")
    for seg in segments:
        _check_inputs(model.config, seg)
    try:
        if model.config.encoder == "lstm":
            states = []
            for modality, lstm in model.lstms.items():
                features, rows, _ = _packed(segments, modality)
                states.append(bilstm_encode(Tensor(features), rows, lstm))
            pooled = T.concat(states, axis=1)
        else:
            pooled = _attention_pooled(model, segments, training, rng)
        outputs = {
            component: mlp_head(pooled, head, mode=model.config.head_mode)
            for component, head in model.heads.items()
        }
    except NumericsError as exc:
        # A primitive's check names no segment; blame the input if it is at fault.
        bad = [f"segment {seg.segment_id!r}: non-finite {modality} features"
               for seg in segments for modality in model.config.modalities
               if not np.isfinite(seg.modality(modality)).all()]
        if bad:
            raise DataError("; ".join(bad)) from exc
        raise
    for component, out in outputs.items():
        bad = [seg.segment_id for seg, row in zip(segments, out.data)
               if not np.isfinite(row).all()]
        if bad:
            raise NumericsError(
                f"segment {', '.join(map(repr, bad))}: non-finite {component} output")
    return outputs


def _packed(segments: Sequence[SegmentFeatures], modality: str) -> tuple[np.ndarray, Rows, np.ndarray]:
    """The rows ``[rows, width]`` of one modality, segment after segment,
    their layout and each row's position in its segment."""
    arrays = [seg.modality(modality) for seg in segments]
    rows = Rows([arr.shape[0] for arr in arrays])
    positions = np.concatenate([np.arange(n) for n in rows.lengths])
    return np.concatenate(arrays), rows, positions


def _prepared_stream(model: FusionModel, segments: Sequence[SegmentFeatures],
                     modality: str) -> tuple[Tensor, Rows]:
    """Packed rows with positional encodings, and their layout."""
    features, rows, positions = _packed(segments, modality)
    raw = Tensor(features)
    if modality == "audio" and model.audio_in_w is not None:
        raw = T.matmul(raw, model.audio_in_w, bias=model.audio_in_b)
    return add_positional(raw, model.config.positional, positions), rows


def _dropout_keeps(stack: Sequence[EncoderBlockParams], rows: Rows,
                   rng: np.random.Generator | None) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """Dropout scales of every block of the stack, each packed like the stream.

    They are drawn example-major: for each example, each block in stack
    order, the attention site and then the FFN site, as many full rows each
    as the longest example has, of which the example keeps its first
    ``rows.lengths[i]``.  That is the order in which running the examples
    one at a time on padded rows draws them, so a batch trains as its
    examples did alone.  Each draw
    fills one reused float64 buffer, and the scales of the kept rows are
    written straight into the site, as ``blocks.dropout_keep`` computes them.
    """
    dtype = T.current_dtype()
    shape = (rows.total, MODEL_DIM)
    keeps = [None if block.dropout_rate <= 0.0 else (np.empty(shape, dtype=dtype),
                                                       np.empty(shape, dtype=dtype))
             for block in stack]
    if rng is None and any(keep is not None for keep in keeps):
        raise UsageError("dropout in training mode needs an rng")
    uniform = np.empty((rows.lengths.max(), MODEL_DIM))
    for start, length in zip(rows.starts, rows.lengths):
        for block, keep in zip(stack, keeps):
            if keep is not None:
                rate = block.dropout_rate
                for site in keep:
                    rng.random(out=uniform)
                    np.multiply(uniform[:length] >= rate, dtype.type(1.0 / (1.0 - rate)),
                                out=site[start:start + length])
    return keeps


def _attention_pooled(model: FusionModel, segments: Sequence[SegmentFeatures],
                      training: bool, rng: np.random.Generator | None) -> Tensor:
    """The CLS rows ``[B, d]`` after the fusion stack, run on packed rows.

    The text stream is each segment's CLS row followed by its real rows,
    segment after segment; audio and video are packed likewise, and their
    CLS rows lead each context sequence inside the cross blocks.
    """
    config = model.config
    query = config.query
    stream, feature_rows = _prepared_stream(model, segments, query)
    rows = Rows(feature_rows.lengths + 1)
    # Row 0 of the source is the CLS row and row j + 1 stream row j, so the
    # row at position p of segment i reads source row p - i, its first row 0.
    index = np.arange(rows.total) - np.repeat(np.arange(len(rows)), rows.lengths)
    index[rows.starts] = 0
    cls_row = model.cls[query].reshape((1, MODEL_DIM))
    text = T.embedding_lookup(T.concat([cls_row, stream]), index)
    contexts = {modality: _prepared_stream(model, segments, modality)
                for modality in config.contexts}
    stack = model.stack
    keeps = _dropout_keeps([block for _, block in stack], rows, rng) if training \
        else [None] * len(stack)
    for i, ((modality, block), keep) in enumerate(zip(stack, keeps)):
        context, context_rows = contexts.get(modality, (None, None))
        text = encoder_block(text, block, rows=rows, context=context,
                             context_rows=context_rows,
                             context_cls=None if modality is None else model.cls[modality],
                             training=training, keep=keep, cls_only=i == len(stack) - 1)
    return text


# -- checkpointing ---------------------------------------------------------------


def save_model(model: FusionModel, path: str | Path) -> None:
    """Write the "DFM1" container: config JSON, then named float32 tensors.

    Each tensor's header is written and then its values, straight from the
    arena: a float32 arena is written without a copy, a float64 one is cast
    one tensor at a time.  A file that cannot be written is ``DataError``.
    """
    params = model.parameters()
    config_bytes = json.dumps(dataclasses.asdict(model.config), sort_keys=True).encode("utf-8")
    with open_file(path, "checkpoint", "wb") as out:
        out.write(CHECKPOINT_MAGIC + struct.pack("<I", len(config_bytes)) + config_bytes
                  + struct.pack("<I", len(params)))
        for name, tensor in params.items():
            name_bytes = name.encode("utf-8")
            arr = np.ascontiguousarray(tensor.data, dtype="<f4")
            out.write(struct.pack("<I", len(name_bytes)) + name_bytes
                      + struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
            out.write(arr)


def load_model(path: str | Path) -> FusionModel:
    """Rebuild a model from a "DFM1" checkpoint, reproducing forward bitwise.

    The model is built without a random init into one arena, as
    ``build_model`` builds it, and each tensor's values are read straight
    from the file into its arena slot; a float64 arena reads them through a
    float32 copy of one tensor at a time.  A file that cannot be read is
    ``DataError``; malformed content is ``FormatError`` with the byte offset
    at which it was found (see ``data.FieldReader``).
    """
    with open_file(path, "checkpoint") as file:
        reader = FieldReader(file, path, CHECKPOINT_MAGIC, "bad checkpoint magic")
        (length,) = reader.fields("<I", "checkpoint")
        config_start = reader.offset
        config_text = reader.text(length, "config")
        try:
            config_doc = json.loads(config_text)
        except json.JSONDecodeError as exc:
            at = config_start + len(config_text[:exc.pos].encode("utf-8"))
            raise reader.error(f"config is not JSON: {exc.msg}", at) from None
        try:
            fields = dict(**config_doc)
            fields.pop("task", None)  # older files' single-task switch, which "component" restates
            config = ModelConfig(**fields)
        except (TypeError, ValueError, ConfigError) as exc:
            raise reader.error(f"bad config: {exc}", config_start) from None
        model = _build_in_arena(config, None)
        unfilled = model.parameters()

        (n_params,) = reader.fields("<I", "checkpoint")
        if n_params != len(unfilled):
            raise reader.error(f"checkpoint has {n_params} tensors, model needs {len(unfilled)}")
        for _ in range(n_params):
            (length,) = reader.fields("<I", "checkpoint")
            name = reader.text(length, "tensor name")
            tensor = unfilled.pop(name, None)
            if tensor is None:
                what = "repeated" if name in model.parameters() else "unexpected"
                raise reader.error(f"{what} tensor {name!r}")
            (rank,) = reader.fields("<I", "checkpoint")
            if rank != tensor.ndim:
                raise reader.error(f"tensor {name!r} has rank {rank}, expected {tensor.ndim}")
            shape = reader.fields(f"<{rank}I", "checkpoint")
            if shape != tensor.shape:
                raise reader.error(f"tensor {name!r} has shape {shape}, expected {tensor.shape}")
            if model.arena.buffer.dtype == np.float32:
                reader.floats(shape, f"tensor {name!r}", tensor.data)
            else:  # through one float32 copy of one tensor at a time
                tensor.data[...] = reader.floats(shape, f"tensor {name!r}")
        reader.end()
    return model
