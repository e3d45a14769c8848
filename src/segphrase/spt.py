"""Persistent phrase-keyed store of segmentation models and exemplar masks.

One file holds everything: an 8-byte magic and format version, a JSON
index describing every entry, a packed numeric payload (float64 mixture
parameters, run-length-encoded superpixel masks, float64 descriptors),
and a trailing CRC32 over the whole stream. The JSON part stays readable
with a hex editor; the numbers round-trip at full precision.

One rule decides what loads: a file loads only if save_table writes the
loaded table back to the same bytes. `_index` is the one statement of
the index layout; save_table writes its text, and load_table compares
the stored index with it.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .config import Config
from .errors import DataError
from .gmm import VARIANCE_FLOOR, GaussianMixture
from .latent import ModelInfo, SegmentationModel

MAGIC = b"SEGPHTBL"
FORMAT_VERSION = 1
# how far a stored mixture's weights may sum from 1 (a fit's are within ulps)
_SIMPLEX_TOL = 1e-9
# the ModelInfo fields that a model's index record holds
_INFO_FIELDS = ("phrase", "component_id", "instances", "iterations", "energy_history")


class ValidationError(DataError):
    """Key fails the phrase normalization invariants."""


def normalize_phrase(phrase: str) -> str:
    """Lowercase with runs of whitespace collapsed to single spaces."""
    return " ".join(phrase.split()).lower()


def _normalized(phrase) -> str:
    """phrase, which must be a nonempty string that normalize_phrase keeps."""
    if not (isinstance(phrase, str) and phrase and phrase == normalize_phrase(phrase)):
        raise ValidationError(f"phrase {phrase!r} is not a normalized string")
    return phrase


@dataclass(frozen=True, order=True)
class PhraseKey:
    phrase: str
    component_id: int

    def __post_init__(self):
        _normalized(self.phrase)
        if self.component_id < 0:
            raise ValidationError("component_id must be nonnegative")

    @staticmethod
    def make(phrase: str, component_id: int = 0) -> "PhraseKey":
        return PhraseKey(normalize_phrase(phrase), component_id)


@dataclass
class ExemplarMask:
    """Superpixel-resolution foreground mask with its provenance and score.

    mask labels the superpixels of the source image, named by image_id;
    descriptor is the appearance+shape vector used by the relations module
    (cached here so scoring never re-reads images).
    """

    image_id: str
    score: float
    mask: np.ndarray  # (n_superpixels,) 0/1
    descriptor: np.ndarray | None = None

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=np.uint8).reshape(-1)
        if not np.isfinite(self.score):
            raise ValidationError("exemplar score must be finite")


class SegmentPhraseTable:
    """In-memory table; mutate via insert/add_exemplar, persist via save."""

    def __init__(self, k_exemplars: int = Config.k_exemplars):
        self.k_exemplars = int(k_exemplars)
        self.entries: dict[PhraseKey, SegmentationModel] = {}
        self.versions: dict[PhraseKey, int] = {}
        self.exemplars: dict[str, list[ExemplarMask]] = {}

    def insert(self, key: PhraseKey, model: SegmentationModel) -> None:
        self.entries[key] = model
        self.versions[key] = self.versions.get(key, 0) + 1

    def query(self, phrase: str) -> list[tuple[PhraseKey, SegmentationModel]]:
        wanted = normalize_phrase(phrase)
        hits = [(k, m) for k, m in self.entries.items() if k.phrase == wanted]
        return sorted(hits, key=lambda km: km[0].component_id)

    def add_exemplar(self, phrase: str, exemplar: ExemplarMask) -> None:
        wanted = normalize_phrase(phrase)
        if not wanted:
            raise ValidationError("empty phrase")
        bucket = self.exemplars.setdefault(wanted, [])
        bucket.append(exemplar)
        bucket.sort(key=lambda e: (-e.score, e.image_id))
        del bucket[self.k_exemplars:]

    def get_exemplars(self, phrase: str) -> list[ExemplarMask]:
        return self.exemplars.get(normalize_phrase(phrase), [])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _mixture_bytes(g: GaussianMixture) -> bytes:
    return (
        g.weights.astype("<f8").tobytes()
        + g.means.astype("<f8").tobytes()
        + g.variances.astype("<f8").tobytes()
    )


def _whole(value, low: int, what: str) -> int:
    """value, which must be an int (a bool is not one) of at least low."""
    if type(value) is not int or value < low:
        raise DataError(f"{what} {value!r} is not an integer >= {low}")
    return value


def _finite(value, what: str):
    """value, which must be a finite int or float (a bool is not one)."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise DataError(f"{what} {value!r} is not a finite number")
    return value


def _mixture(values: np.ndarray, at: int, k: int, dim: int):
    """The mixture stored at values[at:] (weights, means, variances) and
    where it ends."""
    end = at + k * (1 + 2 * dim)
    means, variances = values[at + k : end].reshape(2, k, dim)
    return GaussianMixture(values[at : at + k], means, variances), end


def _rle_encode(mask: np.ndarray) -> np.ndarray:
    """Run lengths of a 0/1 vector, alternating from its first label."""
    if len(mask) == 0:
        return np.empty(0, dtype="<u4")
    changes = np.flatnonzero(np.diff(mask)) + 1
    bounds = np.concatenate(([0], changes, [len(mask)]))
    return np.diff(bounds).astype("<u4")


def _rle_decode(first: np.ndarray, n_runs: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Many masks' 0/1 vectors, concatenated: mask i is the next n_runs[i]
    of runs, alternating from label first[i] (a run may be empty)."""
    before = np.cumsum(n_runs) - n_runs
    labels = (np.arange(len(runs)) + np.repeat(first - before, n_runs)) & 1
    return np.repeat(labels.astype(np.uint8), runs)


def _index(table: SegmentPhraseTable, n_runs: dict[int, int]) -> bytes:
    """The JSON index text that save_table writes for table, the one
    statement of the layout; n_runs maps id() of each of the table's
    exemplars to the number of its mask's runs.

    The payload holds the models' mixtures in key order (foreground, then
    background: weights, means, variances), then each phrase's exemplars
    in bucket order (mask runs, then the descriptor if there is one),
    back to back from byte 0, so every offset is the size of what comes
    before it. A mask's runs alternate from its first label, 0 for an
    empty mask.
    """
    at = 0
    entries = []
    for key in sorted(table.entries):
        model = table.entries[key]
        k_fg, k_bg = model.theta_fg.k, model.theta_bg.k
        entries.append(
            {
                "phrase": key.phrase,
                "component_id": key.component_id,
                "version": table.versions[key],
                "lam": model.lam,
                "dim": model.dim,
                "k_fg": k_fg,
                "k_bg": k_bg,
                "offset": at,
                "info": {name: getattr(model.info, name) for name in _INFO_FIELDS},
            }
        )
        at += 8 * (k_fg + k_bg) * (1 + 2 * model.dim)
    exemplars = []
    for phrase in sorted(table.exemplars):
        for ex in table.exemplars[phrase]:
            rec = {
                "phrase": phrase,
                "image_id": ex.image_id,
                "score": ex.score,
                "n": len(ex.mask),
                "first": int(ex.mask[0]) if len(ex.mask) else 0,
                "runs_offset": at,
                "n_runs": n_runs[id(ex)],
            }
            at += 4 * rec["n_runs"]
            if ex.descriptor is not None:
                rec["descriptor_offset"] = at
                rec["descriptor_len"] = len(ex.descriptor)
                at += 8 * len(ex.descriptor)
            exemplars.append(rec)
    return json.dumps(
        {"k_exemplars": table.k_exemplars, "entries": entries, "exemplars": exemplars,
         "payload_len": at},
        sort_keys=True,
    ).encode("utf-8")


def save_table(table: SegmentPhraseTable, path) -> None:
    payload = bytearray()
    for key in sorted(table.entries):
        model = table.entries[key]
        payload += _mixture_bytes(model.theta_fg) + _mixture_bytes(model.theta_bg)
    n_runs = {}
    for phrase in sorted(table.exemplars):
        for ex in table.exemplars[phrase]:
            runs = _rle_encode(ex.mask)
            n_runs[id(ex)] = len(runs)
            payload += runs.tobytes()
            if ex.descriptor is not None:
                payload += np.asarray(ex.descriptor, "<f8").tobytes()
    index = _index(table, n_runs)

    body = MAGIC + struct.pack("<I", FORMAT_VERSION)
    body += struct.pack("<Q", len(index)) + index + bytes(payload)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", crc))


def load_table(path) -> SegmentPhraseTable:
    """The table saved at path, decoded and checked in whole-table passes.

    A file loads only if save_table writes the loaded table back to the
    same bytes; anything else is a DataError (exit 2) whose message
    starts with `path: `, however the CRC reads. Each payload region is
    decoded at its running position, the exemplars go in through
    add_exemplar, and the stored index must then be `_index` of the
    loaded table, byte for byte. Before that, what sizes an allocation
    or reaches a computation is checked:
    - ints (a bool is no int) for counts, ids, versions and first labels,
      at least 1 for k_exemplars, versions, k, dim and descriptor
      lengths; strings for image ids and info phrases; a list of finite
      numbers for the energies; finite numbers for scores and lam, which
      is also positive; phrases are normalized and nonempty;
    - the regions end at payload_len;
    - mixture weights are nonnegative and sum to 1 within 1e-9, means are
      finite, variances finite and at least VARIANCE_FLOOR; mask runs are
      nonzero and add up to the mask's length; descriptors are finite and
      all of one length.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _decode_table(blob)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _decode_table(blob: bytes) -> SegmentPhraseTable:
    """The table that load_table reads from a file's bytes."""
    if len(blob) < len(MAGIC) + 4 + 8 + 4:
        raise DataError("file shorter than the fixed header")
    if blob[: len(MAGIC)] != MAGIC:
        raise DataError("bad magic bytes")
    (version,) = struct.unpack_from("<I", blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported format version {version}")
    (index_len,) = struct.unpack_from("<Q", blob, len(MAGIC) + 4)
    index_start = len(MAGIC) + 4 + 8
    payload_start = index_start + index_len
    if payload_start > len(blob) - 4:
        raise DataError("index extends past end of file")
    stored = blob[index_start:payload_start]
    try:
        index = json.loads(stored.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"index is not valid JSON: {exc}") from exc
    # the CRC check below needs payload_len, so it is checked first
    payload_len = index.get("payload_len") if isinstance(index, dict) else None
    if type(payload_len) is not int or payload_len < 0:
        raise DataError("index has no valid payload_len")
    expected = payload_start + payload_len + 4
    if len(blob) < expected:
        raise DataError(f"file is {len(blob)} bytes, header promises {expected}")
    if len(blob) > expected:
        raise DataError(f"{len(blob) - expected} bytes follow the CRC")
    (crc_stored,) = struct.unpack_from("<I", blob, expected - 4)
    crc_actual = zlib.crc32(blob[: expected - 4]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise DataError(f"CRC mismatch: stored {crc_stored:#x}, computed {crc_actual:#x}")

    # the CRC only proves the file is as written: a malformed index
    # (missing or mistyped keys, regions past the payload) is caught here
    payload = blob[payload_start : expected - 4]
    try:
        table = SegmentPhraseTable(_whole(index["k_exemplars"], 1, "k_exemplars"))
        end = _read_models(table, index["entries"], payload)
        n_runs = _read_exemplars(table, index["exemplars"], payload, end)
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise DataError(f"malformed table index: {exc!r}") from exc
    written = _index(table, n_runs)
    if written != stored:
        at = next((i for i, (a, b) in enumerate(zip(stored, written)) if a != b),
                  min(len(stored), len(written)))
        raise DataError(f"index differs from save_table's at byte {at}: "
                            f"stored {stored[at:at + 32]!r}, written {written[at:at + 32]!r}")
    return table


def _model_info(fields) -> ModelInfo:
    info = ModelInfo(**fields)
    if type(info.phrase) is not str:
        raise DataError(f"model info phrase {info.phrase!r} is not a string")
    for name in ("component_id", "instances", "iterations"):
        _whole(getattr(info, name), 0, f"model info {name}")
    if type(info.energy_history) is not list:
        raise DataError(f"energy history {info.energy_history!r} is not a list")
    for energy in info.energy_history:
        _finite(energy, "energy")
    return info


def _read_models(table: SegmentPhraseTable, records, payload: bytes) -> int:
    """Every model, its mixtures checked in one pass over the payload range
    that they tile from byte 0; returns where that range ends."""
    heads = []
    sizes = []  # weights, means, variances: mixture after mixture
    end = 0
    for rec in records:
        key = PhraseKey(rec["phrase"], _whole(rec["component_id"], 0, "component_id"))
        table.versions[key] = _whole(rec["version"], 1, "version")
        lam = _finite(rec["lam"], "model lam")
        if lam <= 0:
            raise DataError(f"model lam {lam!r} is not positive")
        dim, k_fg, k_bg = (_whole(rec[name], 1, name) for name in ("dim", "k_fg", "k_bg"))
        heads.append((key, lam, _model_info(rec["info"]), dim, k_fg, k_bg))
        sizes += (k_fg, k_fg * dim, k_fg * dim, k_bg, k_bg * dim, k_bg * dim)
        end += 8 * (k_fg + k_bg) * (1 + 2 * dim)
    if end > len(payload):
        raise DataError(f"models end at byte {end}, outside the payload")
    values = np.frombuffer(payload, "<f8", end // 8).copy()
    part = np.repeat(np.arange(len(sizes)) % 3, sizes)
    weights = values[part == 0]
    k = np.array(sizes[::3], np.int64)
    # the CRC proves the bytes are as written, not that they form mixtures
    if not (np.isfinite(weights).all() and (weights >= 0.0).all()
            and (abs(np.add.reduceat(weights, np.cumsum(k) - k) - 1.0) <= _SIMPLEX_TOL).all()):
        raise DataError("mixture weights are not a probability vector")
    if not np.isfinite(values[part == 1]).all():
        raise DataError("mixture means are not finite")
    # the E-step's error bound holds from the floor up, which every fit keeps
    variances = values[part == 2]
    if not (np.isfinite(variances).all() and (variances >= VARIANCE_FLOOR).all()):
        raise DataError(f"mixture variances are not finite and at least {VARIANCE_FLOOR}")
    at = 0
    for key, lam, info, dim, k_fg, k_bg in heads:
        fg, at = _mixture(values, at, k_fg, dim)
        bg, at = _mixture(values, at, k_bg, dim)
        table.entries[key] = SegmentationModel(fg, bg, lam, info)
    return end


def _read_exemplars(table: SegmentPhraseTable, records, payload: bytes, at: int) -> dict:
    """Every exemplar, its regions following the models' from byte at: the
    masks decoded with one np.repeat over all runs, the descriptors in one
    pass. Returns each exemplar's run count by id(), as _index takes it."""
    heads = []  # (phrase, image_id, score)
    lengths, firsts, widths = [], [], []  # a width of 0: no descriptor
    sizes = []  # in 4-byte words: runs, descriptor, exemplar after exemplar
    end = at
    for rec in records:
        image_id = rec["image_id"]
        if type(image_id) is not str:
            raise DataError(f"image_id {image_id!r} is not a string")
        heads.append((_normalized(rec["phrase"]), image_id,
                      _finite(rec["score"], "exemplar score")))
        lengths.append(_whole(rec["n"], 0, "mask length"))
        firsts.append(_whole(rec["first"], 0, "first label"))
        n_runs = _whole(rec["n_runs"], 0, "n_runs")
        width = _whole(rec["descriptor_len"], 1, "descriptor_len") if "descriptor_len" in rec else 0
        widths.append(width)
        sizes += (n_runs, 2 * width)
        end += 4 * n_runs + 8 * width
    if end != len(payload):
        raise DataError(f"exemplars end at byte {end}, not at payload_len {len(payload)}")

    counts = np.array(sizes, np.int64)
    part = np.repeat(np.arange(len(sizes)) % 2, counts)
    words = np.frombuffer(payload, "<u4", offset=at)
    runs = words[part == 0]
    n_runs = counts[::2]
    ends = np.concatenate(([0], np.cumsum(runs, dtype=np.int64)))
    # checked before decoding allocates the masks: each mask's runs end where it does
    if not (runs.all() and np.array_equal(ends[np.cumsum(n_runs)], np.cumsum(lengths))):
        raise DataError("mask runs are not nonzero lengths adding up to the mask's")
    masks = _rle_decode(np.array(firsts, np.int64), n_runs, runs)

    descriptors = words[part == 1].view("<f8")
    finite = np.isfinite(descriptors)
    if not finite.all():
        bad = np.repeat(np.arange(len(widths)), widths)[np.argmin(finite)]
        raise DataError(f"exemplar descriptor of {heads[bad][0]!r} is not finite")
    if len(set(widths) - {0}) > 1:
        raise DataError(f"exemplar descriptors differ in length: {sorted(set(widths) - {0})}")

    exemplars = []
    at = d = 0
    for (phrase, image_id, score), n, width in zip(heads, lengths, widths):
        descriptor = descriptors[d : d + width] if width else None
        exemplars.append((phrase, ExemplarMask(image_id, score, masks[at : at + n], descriptor)))
        at += n
        d += width
    for phrase, ex in exemplars:
        table.add_exemplar(phrase, ex)
    return {id(ex): count for (_, ex), count in zip(exemplars, n_runs.tolist())}
