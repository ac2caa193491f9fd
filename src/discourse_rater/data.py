"""Dataset model, file formats, aggregation rules, and a synthetic generator.

A lesson is split into 16-minute segments; each segment carries three
pre-extracted feature sequences (utterance text embeddings, 10-second audio
chunk embeddings, 10-second video window embeddings) and one rating per
discourse component.  Feature sequences live in a small binary container
("DFX1") and the dataset manifest is a JSON document, so anything that can
produce these two artifacts can feed the models.

The synthetic generator plants a per-component linear signal into the
embeddings, which makes learnability quantifiable: a simple linear readout
bounds what any model should achieve on the generated data.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import ConfigError, DataError, DiscourseRaterError, FormatError, UsageError
from .objective import COMPONENTS, rating_to_index, round_to_rating

TEXT_DIM = 768
AUDIO_DIM = 1024
VIDEO_DIM = 768

SEGMENT_S = 960.0       # 16-minute rating window
MIN_REMAINDER_S = 480.0  # shorter leftovers merge into the previous window
CHUNK_S = 10.0

RATER_POINTS = 4        # raters score each component from 1 to RATER_POINTS
SIGNAL_STRENGTH = 0.8   # SynthConfig's planted-signal strength of every pair

FEATURE_MAGIC = b"DFX1"

MODALITY_DIMS = {"text": TEXT_DIM, "audio": AUDIO_DIM, "video": VIDEO_DIM}

JSON_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string", dict: "object"}


def json_type(value) -> str:
    """The JSON type name of a value ``json.loads`` returned."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def fits_json_type(value, expected) -> bool:
    """Whether a parsed JSON value has type ``expected``: a key of
    ``JSON_NAMES``, or ``[t]`` for an array of ``t``.  Only ``bool`` takes a
    boolean, and ``float`` takes any number."""
    if type(value) is expected:
        return True
    if isinstance(expected, list):
        return isinstance(value, list) and all(fits_json_type(v, expected[0]) for v in value)
    if isinstance(value, bool):
        return expected is bool
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


@dataclass
class SegmentFeatures:
    """Feature sequences for one lesson segment.

    Absent modalities are encoded as arrays with zero rows.
    """

    segment_id: str
    teacher_id: str
    text: np.ndarray
    audio: np.ndarray
    video: np.ndarray
    duration_s: float = SEGMENT_S

    def modality(self, name: str) -> np.ndarray:
        try:
            return getattr(self, name)
        except AttributeError:
            raise UsageError(f"unknown modality {name!r}") from None


@dataclass
class SegmentRecord:
    segment_id: str
    teacher_id: str
    lesson_id: str
    path: str
    labels: dict[str, float]


@dataclass
class RaterRecord:
    segment_id: str
    rater_id: str
    component: str
    score: int


@dataclass
class StudentRecord:
    student_id: str
    teacher_id: str
    test_score: float
    interest: float
    self_efficacy: float


# The student outcome fields of a ``StudentRecord``.
OUTCOMES = ("test_score", "interest", "self_efficacy")

# The JSON type of each manifest record field that is not a string.
_FIELD_TYPES = {"labels": dict, "score": int, **dict.fromkeys(OUTCOMES, float)}
_RECORD_TYPES = {"segments": SegmentRecord, "rater_records": RaterRecord,
                 "student_records": StudentRecord}


def _record(key: str, index: int, item):
    """Entry ``index`` of the manifest's ``key`` array, each field (and label)
    checked against its JSON type; a segment is named by a string id."""
    where = f"{key}[{index}]"
    if not isinstance(item, dict):
        raise FormatError(f"manifest {where} must be a JSON object, not a JSON {json_type(item)}")
    if key == "segments" and isinstance(item.get("segment_id"), str):
        where = f"segment {item['segment_id']}"
    checks = [("field", name, value, _FIELD_TYPES.get(name, str)) for name, value in item.items()]
    if isinstance(item.get("labels"), dict):
        checks += [("label", name, value, float) for name, value in item["labels"].items()]
    for what, name, value, expected in checks:
        if not fits_json_type(value, expected):
            raise FormatError(f"manifest {where}: {what} {name!r} must be a JSON "
                              f"{JSON_NAMES[expected]}, not a JSON {json_type(value)}")
    try:
        return _RECORD_TYPES[key](**item)
    except TypeError as exc:
        raise FormatError(f"manifest {where}: field mismatch: {exc}") from None


def rater_pairs(rater_records: Iterable[RaterRecord], component: str,
                segment_ids: Iterable[str] = ()) -> dict[str, list[RaterRecord]]:
    """Each segment's records for ``component``, in record order: those of
    every segment rated for it, and first those of each of ``segment_ids``.

    A segment without exactly two records from two distinct raters is
    ``DataError``."""
    by_segment: dict[str, list[RaterRecord]] = {segment_id: [] for segment_id in segment_ids}
    for rec in rater_records:
        if rec.component == component:
            by_segment.setdefault(rec.segment_id, []).append(rec)
    for segment_id, records in by_segment.items():
        raters = {rec.rater_id for rec in records}
        if len(records) != 2 or len(raters) != 2:
            raise DataError(f"segment {segment_id}: expected 2 raters for {component}, "
                            f"found {len(raters)} in {len(records)} records")
    return by_segment


@dataclass
class DatasetManifest:
    segments: list[SegmentRecord] = field(default_factory=list)
    rater_records: list[RaterRecord] = field(default_factory=list)
    student_records: list[StudentRecord] = field(default_factory=list)

    def teacher_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for seg in self.segments:
            seen.setdefault(seg.teacher_id, None)
        return list(seen)

    def validate(self) -> None:
        seen_ids: set[str] = set()
        for seg in self.segments:
            if seg.segment_id in seen_ids:
                raise DataError(f"duplicate segment id {seg.segment_id!r}")
            seen_ids.add(seg.segment_id)
            for component in COMPONENTS:
                if component not in seg.labels:
                    raise DataError(f"segment {seg.segment_id}: missing label {component!r}")
                try:
                    rating_to_index(seg.labels[component])
                except (TypeError, ValueError, OverflowError, DataError) as exc:
                    raise DataError(f"segment {seg.segment_id}: label {component!r}: {exc}") from exc
        for rec in self.student_records:
            for name in OUTCOMES:
                try:
                    finite = math.isfinite(getattr(rec, name))
                except OverflowError:
                    finite = False
                if not finite:
                    raise DataError(f"student {rec.student_id}: field {name!r} must be a "
                                    f"finite number")
        if self.rater_records:
            # Every segment is rated as ``rater_pairs`` requires for each
            # component, and no record names another segment.
            for rec in self.rater_records:
                if rec.segment_id not in seen_ids:
                    raise DataError(f"rater record for unknown segment {rec.segment_id!r}")
                if rec.component not in COMPONENTS:
                    raise DataError(f"unknown component {rec.component!r} in rater records")
                if not 1 <= int(rec.score) <= RATER_POINTS:
                    raise DataError(f"rater score {rec.score} outside 1..{RATER_POINTS}")
            segment_ids = [seg.segment_id for seg in self.segments]
            for component in COMPONENTS:
                rater_pairs(self.rater_records, component, segment_ids)

    def to_json(self) -> str:
        doc = {
            "segments": [asdict(s) for s in self.segments],
            "rater_records": [asdict(r) for r in self.rater_records],
            "student_records": [asdict(r) for r in self.student_records],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise FormatError(f"manifest must hold a JSON object, not {type(doc).__name__}",
                              offset=0)
        records = {}
        for key in _RECORD_TYPES:
            items = doc.get(key, [])
            if not isinstance(items, list):
                raise FormatError(f"manifest {key!r} must be a JSON array, "
                                  f"not a JSON {json_type(items)}")
            records[key] = [_record(key, i, item) for i, item in enumerate(items)]
        return cls(**records)

    def save(self, path: str | Path) -> None:
        with open_file(path, "dataset manifest", "wb") as out:
            out.write(self.to_json().encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "DatasetManifest":
        """Read a manifest; a file that cannot be read is ``UsageError``."""
        with open_file(path, "dataset manifest", error=UsageError) as file:
            raw = file.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"manifest {path} is not UTF-8", offset=exc.start) from None
        return cls.from_json(text)


# -- preprocessing rules -------------------------------------------------------


def segment_boundaries(lesson_duration_s: float) -> list[tuple[float, float]]:
    """Split a lesson into consecutive 16-minute windows.

    A final remainder shorter than 8 minutes merges into the previous window;
    a lesson shorter than one window is a single segment.
    """
    if lesson_duration_s <= 0:
        raise DataError(f"lesson duration must be positive, got {lesson_duration_s}")
    if lesson_duration_s <= SEGMENT_S:
        return [(0.0, float(lesson_duration_s))]
    bounds = []
    start = 0.0
    while start + SEGMENT_S <= lesson_duration_s:
        bounds.append((start, start + SEGMENT_S))
        start += SEGMENT_S
    remainder = lesson_duration_s - start
    if remainder > 0:
        if remainder < MIN_REMAINDER_S:
            bounds[-1] = (bounds[-1][0], float(lesson_duration_s))
        else:
            bounds.append((start, float(lesson_duration_s)))
    return bounds


def classroom_aggregate(per_segment_scores: Mapping[str, float],
                        manifest: DatasetManifest) -> dict[str, float]:
    """Mean over segments within each lesson, then over lessons per teacher."""
    seg_info = {s.segment_id: (s.teacher_id, s.lesson_id) for s in manifest.segments}
    per_lesson: dict[str, dict[str, list[float]]] = {}
    for segment_id, score in per_segment_scores.items():
        if segment_id not in seg_info:
            raise DataError(f"segment {segment_id!r} is not in the manifest")
        teacher_id, lesson_id = seg_info[segment_id]
        per_lesson.setdefault(teacher_id, {}).setdefault(lesson_id, []).append(float(score))
    return {
        teacher: float(np.mean([np.mean(scores) for scores in lessons.values()]))
        for teacher, lessons in per_lesson.items()
    }


# -- feature files ---------------------------------------------------------------


@contextmanager
def open_file(path: str | Path, what: str, mode: str = "rb",
              error: type[DiscourseRaterError] = DataError) -> Iterator[BinaryIO]:
    """The ``what`` file at ``path``, open in binary ``mode`` ("rb" or "wb")
    and closed on exit.  A path no file can have, or a file that cannot be
    opened, read or written, raises ``error`` naming ``what`` and ``path``;
    the CLI's own inputs (config file, manifest, prediction table) pass
    ``UsageError``, so that a wrong path exits 2."""
    verb = "write" if "w" in mode else "read"
    try:
        try:
            file = open(path, mode)
        except ValueError as exc:  # a path with a NUL byte
            raise error(f"cannot {verb} {what} {path!r}: {exc}") from exc
        with file:
            yield file
    except OSError as exc:
        raise error(f"cannot {verb} {what} {path}: {exc.strerror}") from exc


class FieldReader:
    """Checked reads, in order, of the fields of one open DFX1 or DFM1 file.

    Both formats are little-endian, with u32 counts and lengths and float32
    values in row-major order:
    - DFX1, one segment's features: ``b"DFX1"``, then for text, audio and
      video in turn rows, cols and ``rows * cols`` values;
    - DFM1, a checkpoint: ``b"DFM1"``, the config's length and JSON text
      (UTF-8), the tensor count, then per tensor its name's length and name
      (UTF-8), its rank, its ``rank`` dimensions and its values.

    Each size is checked against ``os.fstat``'s before anything is read or
    allocated, so a corrupt length allocates nothing.  A header field that
    does not fit raises ``FormatError`` at its own start; a payload (text or
    values) that does not fit raises it at the file's end.
    """

    def __init__(self, file: BinaryIO, path: str | Path, magic: bytes, bad_magic: str):
        self.file = file
        self.path = path
        self.size = os.fstat(file.fileno()).st_size
        found = file.read(len(magic))
        if found != magic:
            raise self.error(f"{bad_magic} {found!r}", 0)
        self.offset = len(magic)

    def error(self, message: str, offset: int | None = None) -> FormatError:
        """``FormatError`` for this file at ``offset``, by default the current one."""
        return FormatError(f"{self.path}: {message}",
                           offset=self.offset if offset is None else offset)

    def _read(self, n: int, what: str, at: int) -> bytes:
        data = self.file.read(n) if self.offset + n <= self.size else b""
        if len(data) < n:
            raise self.error(f"truncated {what}", at)
        self.offset += n
        return data

    def fields(self, fmt: str, what: str) -> tuple:
        """The header fields of ``struct`` format ``fmt``."""
        return struct.unpack(fmt, self._read(struct.calcsize(fmt), what, self.offset))

    def text(self, length: int, what: str) -> str:
        """``length`` bytes of UTF-8 text."""
        try:
            return self._read(length, what, self.size).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{what} is not UTF-8", self.offset - length + exc.start) from None

    def floats(self, shape: tuple[int, ...], what: str,
               out: np.ndarray | None = None) -> np.ndarray:
        """Float32 values of ``shape``, read into ``out`` (C-contiguous float32) or a new array."""
        nbytes = 4 * math.prod(shape)
        if self.offset + nbytes > self.size:
            raise self.error(f"truncated {what}", self.size)
        values = np.empty(shape, dtype="<f4") if out is None else out
        if self.file.readinto(values) < nbytes:  # the file shrank while it was read
            raise self.error(f"truncated {what}", self.size)
        self.offset += nbytes
        return values

    def end(self) -> None:
        """Check that the file holds nothing after the last field."""
        if self.offset != self.size:
            raise self.error(f"{self.size - self.offset} trailing bytes")


def write_feature_file(path: str | Path, seg: SegmentFeatures) -> None:
    """Write the three feature matrices as a "DFX1" file (see ``FieldReader``):
    each matrix's header, then the matrix itself."""
    arrays = [np.ascontiguousarray(seg.modality(name), dtype="<f4") for name in MODALITY_DIMS]
    for name, arr in zip(MODALITY_DIMS, arrays):
        if arr.ndim != 2:
            raise UsageError(f"{name} features must be 2-D")
    with open_file(path, "feature file", "wb") as out:
        out.write(FEATURE_MAGIC)
        for arr in arrays:
            out.write(struct.pack("<II", *arr.shape))
            out.write(arr)


def read_feature_file(path: str | Path, segment_id: str = "", teacher_id: str = "") -> SegmentFeatures:
    """Read a "DFX1" file (see ``FieldReader``), each matrix straight into its
    own array.  A file that cannot be read is ``DataError``; malformed input
    raises ``FormatError`` with the failing byte offset.  Once the file has
    parsed, non-finite features, or audio and video of different chunk
    counts, are ``DataError``.
    """
    arrays = {}
    with open_file(path, "feature file") as file:
        reader = FieldReader(file, path, FEATURE_MAGIC, "bad magic")
        for name, dim in MODALITY_DIMS.items():
            rows, cols = reader.fields("<II", f"{name} header")
            if rows > 0 and cols != dim:
                raise reader.error(f"{name} width {cols} != {dim}", reader.offset - 4)
            arrays[name] = reader.floats((rows, cols), f"{name} data")
        reader.end()
    for name, arr in arrays.items():
        if arr.size and not np.isfinite(arr).all():
            raise DataError(f"segment {segment_id}: {name} has non-finite entries")
    chunks = len(arrays["audio"]), len(arrays["video"])
    if all(chunks) and chunks[0] != chunks[1]:
        raise DataError(f"segment {segment_id}: audio/video chunk counts differ "
                        f"({chunks[0]} vs {chunks[1]})")
    return SegmentFeatures(segment_id=segment_id, teacher_id=teacher_id, **arrays)


# -- dataset containers ------------------------------------------------------------


class Example(NamedTuple):
    features: SegmentFeatures
    labels: dict[str, float]


@dataclass
class Dataset:
    """A manifest plus its feature matrices held in memory."""

    manifest: DatasetManifest
    features: dict[str, SegmentFeatures]

    @classmethod
    def load(cls, root: str | Path) -> "Dataset":
        root = Path(root)
        manifest = DatasetManifest.load(root / "manifest.json")
        manifest.validate()
        features = {seg.segment_id: read_feature_file(root / seg.path, seg.segment_id, seg.teacher_id)
                    for seg in manifest.segments}
        return cls(manifest=manifest, features=features)

    def examples(self) -> list[Example]:
        return [Example(self.features[s.segment_id], dict(s.labels))
                for s in self.manifest.segments]

    def examples_for_teachers(self, teacher_ids: Iterable[str]) -> list[Example]:
        teachers = set(teacher_ids)
        return [Example(self.features[s.segment_id], dict(s.labels))
                for s in self.manifest.segments if s.teacher_id in teachers]


# -- synthetic data -----------------------------------------------------------------


def uniform_signal(strength: float) -> dict[str, dict[str, float]]:
    """Same planted-signal strength for every (modality, component) pair."""
    return {m: {c: float(strength) for c in COMPONENTS} for m in MODALITY_DIMS}


@dataclass(frozen=True)
class SynthConfig:
    """Controls for the planted-signal synthetic dataset.

    ``signal_strength[modality][component]`` in [0, 1] scales how strongly a
    component's latent quality is written into that modality's embeddings
    along a fixed random direction.  ``label_correlation`` couples the three
    latent qualities; 1.0 makes the three label sequences identical.

    Construction checks each setting (a ``ConfigError`` naming it): the
    teacher, segment and lesson counts are >= 1, the student count and seed
    >= 0; ``text_len`` and ``chunk_len`` are (min, max) with 0 <= min <= max,
    kept as tuples; the correlation and each known (modality, component)
    strength lie in [0, 1]; the three noise sds are finite and >= 0.
    """

    n_teachers: int = 10
    segments_per_teacher: int = 4
    lessons_per_teacher: int = 2
    text_len: tuple[int, int] = (5, 9)
    chunk_len: tuple[int, int] = (6, 10)
    signal_strength: dict[str, dict[str, float]] = field(
        default_factory=lambda: uniform_signal(SIGNAL_STRENGTH))
    label_correlation: float = 0.3
    noise_sd: float = 0.1
    rater_noise_sd: float = 0.4
    students_per_teacher: int = 0
    outcome_noise_sd: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("n_teachers", "segments_per_teacher", "lessons_per_teacher"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("students_per_teacher", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("noise_sd", "rater_noise_sd", "outcome_noise_sd"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be a finite number >= 0, got {value}")
        if not 0.0 <= self.label_correlation <= 1.0:
            raise ConfigError("label_correlation must lie in [0, 1]")
        for name in ("text_len", "chunk_len"):
            pair = tuple(getattr(self, name))
            if len(pair) != 2 or not 0 <= pair[0] <= pair[1]:
                raise ConfigError(f"{name} must be (min, max) with 0 <= min <= max, "
                                  f"got {pair}")
            object.__setattr__(self, name, pair)
        for modality, per_component in self.signal_strength.items():
            if modality not in MODALITY_DIMS:
                raise ConfigError(f"unknown modality {modality!r} in signal_strength")
            for component, value in per_component.items():
                if component not in COMPONENTS:
                    raise ConfigError(f"unknown component {component!r} in signal_strength")
                if not 0.0 <= value <= 1.0:
                    raise ConfigError("signal strengths must lie in [0, 1]")


def _correlated_latents(rng: np.random.Generator, rho: float) -> dict[str, float]:
    shared = rng.standard_normal()
    return {c: np.sqrt(rho) * shared + np.sqrt(1.0 - rho) * rng.standard_normal()
            for c in COMPONENTS}


def _gauss_to_quality(z: float) -> float:
    """Map a standard normal draw to a latent quality in [1, 4]."""
    from scipy.special import ndtr

    return 1.0 + 3.0 * float(ndtr(z))


def generate_synthetic(cfg: SynthConfig, out_dir: str | Path | None = None) -> Dataset:
    """Generate a planted-signal dataset; optionally write it to disk.

    Per segment, three correlated latent qualities in [1, 4] drive both the
    labels and the embeddings.  Two synthetic raters quantize each quality:
    their base scores bracket the nearest half-point rating, independent
    Gaussian noise (``rater_noise_sd``) perturbs them, and the stored label is
    their mean, so the double-rating invariant holds by construction and with
    zero rater noise the label is exactly the nearest rating to the latent.
    """
    rng = np.random.default_rng(cfg.seed)

    directions = {
        m: {c: _unit_vector(rng, dim) for c in COMPONENTS}
        for m, dim in MODALITY_DIMS.items()
    }
    teacher_effects = [_correlated_latents(rng, cfg.label_correlation)
                       for _ in range(cfg.n_teachers)]

    manifest = DatasetManifest()
    features: dict[str, SegmentFeatures] = {}
    for t in range(cfg.n_teachers):
        teacher_id = f"t{t:03d}"
        rater_a = f"r{(2 * t) % (cfg.n_teachers + 3):03d}"
        rater_b = f"r{(2 * t + 1) % (cfg.n_teachers + 3):03d}"
        for s in range(cfg.segments_per_teacher):
            lesson = s * cfg.lessons_per_teacher // cfg.segments_per_teacher
            lesson_id = f"{teacher_id}-l{lesson}"
            segment_id = f"{teacher_id}-l{lesson}-s{s:02d}"

            seg_latent = _correlated_latents(rng, cfg.label_correlation)
            quality = {
                c: _gauss_to_quality(
                    np.sqrt(0.5) * teacher_effects[t][c] + np.sqrt(0.5) * seg_latent[c])
                for c in COMPONENTS
            }

            labels: dict[str, float] = {}
            for c in COMPONENTS:
                nearest = round_to_rating(quality[c])
                base_low, base_high = np.floor(nearest), np.ceil(nearest)
                score_a = _noisy_score(base_low, cfg.rater_noise_sd, rng)
                score_b = _noisy_score(base_high, cfg.rater_noise_sd, rng)
                manifest.rater_records.append(RaterRecord(segment_id, rater_a, c, score_a))
                manifest.rater_records.append(RaterRecord(segment_id, rater_b, c, score_b))
                labels[c] = (score_a + score_b) / 2.0

            text_len = int(rng.integers(cfg.text_len[0], cfg.text_len[1] + 1))
            chunk_len = int(rng.integers(cfg.chunk_len[0], cfg.chunk_len[1] + 1))
            arrays = {}
            for modality, dim in MODALITY_DIMS.items():
                length = text_len if modality == "text" else chunk_len
                base = cfg.noise_sd * rng.standard_normal((length, dim))
                for c in COMPONENTS:
                    strength = cfg.signal_strength.get(modality, {}).get(c, 0.0)
                    base += strength * quality[c] * directions[modality][c][None, :]
                arrays[modality] = base.astype(np.float32)

            feats = SegmentFeatures(segment_id=segment_id, teacher_id=teacher_id,
                                    text=arrays["text"], audio=arrays["audio"],
                                    video=arrays["video"], duration_s=chunk_len * CHUNK_S)
            features[segment_id] = feats
            manifest.segments.append(SegmentRecord(
                segment_id=segment_id, teacher_id=teacher_id, lesson_id=lesson_id,
                path=f"features/{segment_id}.dfx", labels=labels))

        own = [s for s in manifest.segments if s.teacher_id == teacher_id]
        aggregates = {c: classroom_aggregate({s.segment_id: s.labels[c] for s in own},
                                             manifest)[teacher_id] for c in COMPONENTS}
        for n in range(cfg.students_per_teacher):
            manifest.student_records.append(StudentRecord(
                student_id=f"{teacher_id}-st{n:03d}",
                teacher_id=teacher_id,
                test_score=aggregates["nature"] + cfg.outcome_noise_sd * rng.standard_normal(),
                interest=aggregates["questioning"] + cfg.outcome_noise_sd * rng.standard_normal(),
                self_efficacy=aggregates["explanations"]
                + cfg.outcome_noise_sd * rng.standard_normal(),
            ))

    dataset = Dataset(manifest=manifest, features=features)
    if out_dir is not None:
        out_dir = Path(out_dir)
        (out_dir / "features").mkdir(parents=True, exist_ok=True)
        for seg in manifest.segments:
            write_feature_file(out_dir / seg.path, features[seg.segment_id])
        manifest.save(out_dir / "manifest.json")
    return dataset


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _noisy_score(base: float, noise_sd: float, rng: np.random.Generator) -> int:
    noisy = base if noise_sd <= 0 else base + noise_sd * rng.standard_normal()
    return int(min(max(round(noisy), 1), RATER_POINTS))
