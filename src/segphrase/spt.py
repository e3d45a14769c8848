"""Persistent phrase-keyed store of segmentation models and exemplar masks.

One file holds everything: an 8-byte magic and format version, a JSON
index describing every entry, a packed numeric payload (float64 mixture
parameters, run-length-encoded superpixel masks, float64 descriptors),
and a trailing CRC32 over the whole stream. The JSON part stays readable
with a hex editor; the numbers round-trip at full precision. The payload
regions lie back to back in index order, so every offset follows from
the records before it, and load_table accepts only a file that
save_table would write back byte for byte.
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
# the keys save_table writes in the index, a model record, its info and an exemplar record
_INDEX_KEYS = {"k_exemplars", "entries", "exemplars", "payload_len"}
_ENTRY_KEYS = {"phrase", "component_id", "version", "lam", "dim", "k_fg", "k_bg", "offset", "info"}
_INFO_FIELDS = ("phrase", "component_id", "instances", "iterations", "energy_history")
_EXEMPLAR_KEYS = {"phrase", "image_id", "score", "n", "first", "runs_offset", "n_runs"}
_DESCRIBED_KEYS = _EXEMPLAR_KEYS | {"descriptor_offset", "descriptor_len"}


class ValidationError(DataError):
    """Key fails the phrase normalization invariants."""


class VersionMismatchError(DataError):
    """Magic bytes or format version not recognized."""


class ChecksumError(DataError):
    """CRC32 over the file contents does not match."""


class TruncationError(DataError):
    """File ends before the declared payload does."""


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

    def deep_equal(self, other: "SegmentPhraseTable") -> bool:
        if self.k_exemplars != other.k_exemplars:
            return False
        if set(self.entries) != set(other.entries) or self.versions != other.versions:
            return False
        for key, model in self.entries.items():
            if not _models_equal(model, other.entries[key]):
                return False
        if set(self.exemplars) != set(other.exemplars):
            return False
        for phrase, bucket in self.exemplars.items():
            theirs = other.exemplars[phrase]
            if len(bucket) != len(theirs):
                return False
            for a, b in zip(bucket, theirs):
                if a.image_id != b.image_id or a.score != b.score:
                    return False
                if not np.array_equal(a.mask, b.mask):
                    return False
                if (a.descriptor is None) != (b.descriptor is None):
                    return False
                if a.descriptor is not None and not np.array_equal(
                    a.descriptor, b.descriptor
                ):
                    return False
        return True


def _models_equal(a: SegmentationModel, b: SegmentationModel) -> bool:
    for ga, gb in ((a.theta_fg, b.theta_fg), (a.theta_bg, b.theta_bg)):
        if not (
            np.array_equal(ga.weights, gb.weights)
            and np.array_equal(ga.means, gb.means)
            and np.array_equal(ga.variances, gb.variances)
        ):
            return False
    return a.lam == b.lam and a.info == b.info


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
        raise ChecksumError(f"{what} {value!r} is not an integer >= {low}")
    return value


def _finite(value, what: str):
    """value, which must be a finite int or float (a bool is not one)."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ChecksumError(f"{what} {value!r} is not a finite number")
    return value


def _mixture(values: np.ndarray, at: int, k: int, dim: int):
    """The mixture stored at values[at:] (weights, means, variances) and
    where it ends."""
    end = at + k * (1 + 2 * dim)
    means, variances = values[at + k : end].reshape(2, k, dim)
    return GaussianMixture(values[at : at + k], means, variances), end


def _unique_keys(pairs) -> dict:
    """The JSON object of these (key, value) pairs; json.loads would keep
    the last of a repeated key's values, so a repeat is a ChecksumError."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ChecksumError(f"index object repeats the key {repeated!r}")
    return obj


def _offset(value, end: int, what: str) -> None:
    """Check that a region's stored offset is end: regions lie back to back."""
    if type(value) is not int or value != end:
        raise ChecksumError(f"{what} {value!r} is not {end}, where the last region ends")


def _rle_encode(mask: np.ndarray) -> tuple[int, np.ndarray]:
    """(first value, run lengths) of a 0/1 vector."""
    if len(mask) == 0:
        return 0, np.empty(0, dtype="<u4")
    changes = np.flatnonzero(np.diff(mask)) + 1
    bounds = np.concatenate(([0], changes, [len(mask)]))
    return int(mask[0]), np.diff(bounds).astype("<u4")


def _rle_decode(first: np.ndarray, n_runs: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Many masks' 0/1 vectors, concatenated: mask i is the next n_runs[i]
    of runs, alternating from label first[i] (a run may be empty)."""
    before = np.cumsum(n_runs) - n_runs
    labels = (np.arange(len(runs)) + np.repeat(first - before, n_runs)) & 1
    return np.repeat(labels.astype(np.uint8), runs)


def save_table(table: SegmentPhraseTable, path) -> None:
    payload = bytearray()
    index_entries = []
    for key in sorted(table.entries):
        model = table.entries[key]
        offset = len(payload)
        payload += _mixture_bytes(model.theta_fg)
        payload += _mixture_bytes(model.theta_bg)
        index_entries.append(
            {
                "phrase": key.phrase,
                "component_id": key.component_id,
                "version": table.versions[key],
                "lam": model.lam,
                "dim": model.dim,
                "k_fg": model.theta_fg.k,
                "k_bg": model.theta_bg.k,
                "offset": offset,
                "info": {name: getattr(model.info, name) for name in _INFO_FIELDS},
            }
        )
    index_exemplars = []
    for phrase in sorted(table.exemplars):
        for ex in table.exemplars[phrase]:
            first, runs = _rle_encode(ex.mask)
            rec = {
                "phrase": phrase,
                "image_id": ex.image_id,
                "score": ex.score,
                "n": int(len(ex.mask)),
                "first": first,
                "runs_offset": len(payload),
                "n_runs": int(len(runs)),
            }
            payload += runs.tobytes()
            if ex.descriptor is not None:
                rec["descriptor_offset"] = len(payload)
                rec["descriptor_len"] = int(len(ex.descriptor))
                payload += np.asarray(ex.descriptor, "<f8").tobytes()
            index_exemplars.append(rec)

    index = json.dumps(
        {
            "k_exemplars": table.k_exemplars,
            "entries": index_entries,
            "exemplars": index_exemplars,
            "payload_len": len(payload),
        },
        sort_keys=True,
    ).encode("utf-8")

    body = MAGIC + struct.pack("<I", FORMAT_VERSION)
    body += struct.pack("<Q", len(index)) + index + bytes(payload)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", crc))


def load_table(path) -> SegmentPhraseTable:
    """The table saved at path, decoded and checked in whole-table passes.

    A file loads only if save_table writes the loaded table back to the
    same bytes, up to how the JSON index is spelled (whitespace, key
    order, escapes, number forms), and it passes the checks below;
    anything else is a ChecksumError (exit 2), however the CRC reads:
    - no JSON object of the index repeats a key;
    - the index, its records and each model's info hold exactly the keys
      save_table writes: ints (a bool is no int) for counts, ids, versions
      and offsets, at least 1 for k_exemplars, versions, k, dim and
      descriptor lengths; strings for image ids and info phrases; finite
      numbers for energies, scores and lam, which is also positive;
    - phrases are normalized and nonempty; model keys ascend; exemplar
      records are non-decreasing in (phrase, -score, image_id), at most
      k_exemplars per phrase;
    - back to back from byte 0 to payload_len, the payload holds the
      models' mixtures (weights, means, variances), then each exemplar's
      mask runs and descriptor, each region at its stored offset;
    - mixture weights are nonnegative and sum to 1 within 1e-9, means are
      finite, variances finite and at least VARIANCE_FLOOR; mask runs are
      nonzero and add up to the mask's length (an empty mask starts at
      label 0); descriptors are finite and all of one length.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 + 8 + 4:
        raise TruncationError("file shorter than the fixed header")
    if blob[: len(MAGIC)] != MAGIC:
        raise VersionMismatchError("bad magic bytes")
    (version,) = struct.unpack_from("<I", blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"unsupported format version {version}")
    (index_len,) = struct.unpack_from("<Q", blob, len(MAGIC) + 4)
    index_start = len(MAGIC) + 4 + 8
    payload_start = index_start + index_len
    if payload_start > len(blob) - 4:
        raise TruncationError("index extends past end of file")
    try:
        index = json.loads(
            blob[index_start:payload_start].decode("utf-8"), object_pairs_hook=_unique_keys
        )
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ChecksumError(f"index is not valid JSON: {exc}") from exc
    # the CRC check below needs payload_len, so it is checked first
    payload_len = index.get("payload_len") if isinstance(index, dict) else None
    if type(payload_len) is not int or payload_len < 0:
        raise ChecksumError("index has no valid payload_len")
    expected = payload_start + payload_len + 4
    if len(blob) < expected:
        raise TruncationError(f"file is {len(blob)} bytes, header promises {expected}")
    if len(blob) > expected:
        raise ChecksumError(f"{len(blob) - expected} bytes follow the CRC")
    (crc_stored,) = struct.unpack_from("<I", blob, expected - 4)
    crc_actual = zlib.crc32(blob[: expected - 4]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise ChecksumError(f"CRC mismatch: stored {crc_stored:#x}, computed {crc_actual:#x}")

    payload = blob[payload_start : expected - 4]
    # the CRC only proves the file is as written: a malformed index
    # (missing or mistyped keys, misplaced regions) is caught here
    try:
        return _table_from(index, payload)
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise ChecksumError(f"malformed table index: {exc!r}") from exc


def _table_from(index: dict, payload: bytes) -> SegmentPhraseTable:
    if set(index) != _INDEX_KEYS:
        raise ChecksumError(f"index keys {sorted(index)} are not {sorted(_INDEX_KEYS)}")
    if type(index["entries"]) is not list or type(index["exemplars"]) is not list:
        raise ChecksumError("index entries or exemplars are not a list")
    table = SegmentPhraseTable(_whole(index["k_exemplars"], 1, "k_exemplars"))
    end = _read_models(table, index["entries"], payload)
    _read_exemplars(table, index["exemplars"], payload, end)
    return table


def _model_info(fields) -> ModelInfo:
    if set(fields) != set(_INFO_FIELDS):
        raise ChecksumError(f"model info keys {sorted(fields)} are not {sorted(_INFO_FIELDS)}")
    info = ModelInfo(**fields)
    if type(info.phrase) is not str:
        raise ChecksumError(f"model info phrase {info.phrase!r} is not a string")
    for name in ("component_id", "instances", "iterations"):
        _whole(getattr(info, name), 0, f"model info {name}")
    if type(info.energy_history) is not list:
        raise ChecksumError(f"energy history {info.energy_history!r} is not a list")
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
        if set(rec) != _ENTRY_KEYS:
            raise ChecksumError(f"model record keys {sorted(rec)} are not save_table's")
        key = PhraseKey(rec["phrase"], _whole(rec["component_id"], 0, "component_id"))
        if heads and key <= heads[-1][0]:  # save_table sorts the keys
            raise ChecksumError(f"two models for {key.phrase!r} component {key.component_id}"
                                if key == heads[-1][0] else f"model {key} is out of key order")
        table.versions[key] = _whole(rec["version"], 1, "version")
        lam = _finite(rec["lam"], "model lam")
        if lam <= 0:
            raise ChecksumError(f"model lam {lam!r} is not positive")
        dim, k_fg, k_bg = (_whole(rec[name], 1, name) for name in ("dim", "k_fg", "k_bg"))
        _offset(rec["offset"], end, "model offset")
        heads.append((key, lam, _model_info(rec["info"]), dim, k_fg, k_bg))
        sizes += (k_fg, k_fg * dim, k_fg * dim, k_bg, k_bg * dim, k_bg * dim)
        end += 8 * (k_fg + k_bg) * (1 + 2 * dim)
    if end > len(payload):
        raise ChecksumError(f"models end at byte {end}, outside the payload")
    values = np.frombuffer(payload, "<f8", end // 8).copy()
    part = np.repeat(np.arange(len(sizes)) % 3, sizes)
    weights = values[part == 0]
    k = np.array(sizes[::3], np.int64)
    # the CRC proves the bytes are as written, not that they form mixtures
    if not (np.isfinite(weights).all() and (weights >= 0.0).all()
            and (abs(np.add.reduceat(weights, np.cumsum(k) - k) - 1.0) <= _SIMPLEX_TOL).all()):
        raise ChecksumError("mixture weights are not a probability vector")
    if not np.isfinite(values[part == 1]).all():
        raise ChecksumError("mixture means are not finite")
    # the E-step's error bound holds from the floor up, which every fit keeps
    variances = values[part == 2]
    if not (np.isfinite(variances).all() and (variances >= VARIANCE_FLOOR).all()):
        raise ChecksumError(f"mixture variances are not finite and at least {VARIANCE_FLOOR}")
    at = 0
    for key, lam, info, dim, k_fg, k_bg in heads:
        fg, at = _mixture(values, at, k_fg, dim)
        bg, at = _mixture(values, at, k_bg, dim)
        table.entries[key] = SegmentationModel(fg, bg, lam, info)
    return end


def _read_exemplars(table: SegmentPhraseTable, records, payload: bytes, at: int) -> None:
    """Every exemplar, its regions following the models' from byte at: the
    masks decoded with one np.repeat over all runs, the descriptors in one pass."""
    heads = []  # (phrase, image_id, score)
    lengths, firsts, widths = [], [], []  # a width of 0: no descriptor
    sizes = []  # in 4-byte words: runs, descriptor, exemplar after exemplar
    end = at
    for rec in records:
        described = "descriptor_offset" in rec
        if set(rec) != (_DESCRIBED_KEYS if described else _EXEMPLAR_KEYS):
            raise ChecksumError(f"exemplar record keys {sorted(rec)} are not save_table's")
        phrase = _normalized(rec["phrase"])
        image_id = rec["image_id"]
        if type(image_id) is not str:
            raise ChecksumError(f"image_id {image_id!r} is not a string")
        heads.append((phrase, image_id, _finite(rec["score"], "exemplar score")))
        n = _whole(rec["n"], 0, "mask length")
        first = rec["first"]
        # _rle_encode starts an empty mask at label 0
        if type(first) is not int or first not in (0, 1) or first > n:
            raise ChecksumError(f"mask of length {n} starts with label {first!r}")
        _offset(rec["runs_offset"], end, "runs_offset")
        n_runs = _whole(rec["n_runs"], 0, "n_runs")
        width = 0
        if described:
            width = _whole(rec["descriptor_len"], 1, "descriptor_len")
            _offset(rec["descriptor_offset"], end + 4 * n_runs, "descriptor_offset")
        end += 4 * n_runs + 8 * width
        lengths.append(n)
        firsts.append(first)
        widths.append(width)
        sizes += (n_runs, 2 * width)
    if end != len(payload):
        raise ChecksumError(f"exemplars end at byte {end}, not at payload_len {len(payload)}")

    counts = np.array(sizes, np.int64)
    part = np.repeat(np.arange(len(sizes)) % 2, counts)
    words = np.frombuffer(payload, "<u4", offset=at)
    runs = words[part == 0]
    n_runs = counts[::2]
    ends = np.concatenate(([0], np.cumsum(runs, dtype=np.int64)))
    # checked before decoding allocates the masks: each mask's runs end where it does
    if not (runs.all() and np.array_equal(ends[np.cumsum(n_runs)], np.cumsum(lengths))):
        raise ChecksumError("mask runs are not nonzero lengths adding up to the mask's")
    masks = _rle_decode(np.array(firsts, np.int64), n_runs, runs)

    descriptors = words[part == 1].view("<f8")
    finite = np.isfinite(descriptors)
    if not finite.all():
        bad = np.repeat(np.arange(len(widths)), widths)[np.argmin(finite)]
        raise ChecksumError(f"exemplar descriptor of {heads[bad][0]!r} is not finite")
    if len(set(widths) - {0}) > 1:
        raise ChecksumError(f"exemplar descriptors differ in length: {sorted(set(widths) - {0})}")

    at = d = 0
    for (phrase, image_id, score), n, width in zip(heads, lengths, widths):
        descriptor = descriptors[d : d + width] if width else None
        table.exemplars.setdefault(phrase, []).append(
            ExemplarMask(image_id, score, masks[at : at + n], descriptor)
        )
        at += n
        d += width
    # save_table writes the buckets by phrase, each as add_exemplar keeps
    # it: sorted by (-score, image_id) and cut to k_exemplars
    keys = [(phrase, -score, image_id) for phrase, image_id, score in heads]
    if keys != sorted(keys) or any(len(b) > table.k_exemplars for b in table.exemplars.values()):
        raise ChecksumError(f"exemplars are not in (phrase, -score, image_id) order, "
                            f"at most {table.k_exemplars} per phrase")
