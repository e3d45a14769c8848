"""Persistent phrase-keyed store of segmentation models and exemplar masks.

One file holds everything: an 8-byte magic and format version, a JSON
index describing every entry, a packed numeric payload (float64 mixture
parameters, run-length-encoded superpixel masks, float64 descriptors),
and a trailing CRC32 over the whole stream. The JSON part stays readable
with a hex editor; the numbers round-trip at full precision.
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


def _word_index(payload: bytes, offset, count, words: int, what: str) -> int:
    """offset // 4 for count items of `words` 4-byte words each at byte
    offset, which must be 4-aligned with every item inside the payload."""
    _whole(offset, 0, f"{what} offset")
    _whole(count, 0, f"{what} count")
    if offset % 4 or offset + 4 * words * count > len(payload):
        raise ChecksumError(
            f"{what}: {count} items at offset {offset} do not lie 4-aligned in the payload"
        )
    return offset // 4


def _gather(starts: list[int], counts: np.ndarray) -> np.ndarray:
    """Indices of counts[i] consecutive items from starts[i], for every i in turn."""
    before = np.cumsum(counts) - counts
    return np.repeat(np.array(starts, np.int64) - before, counts) + np.arange(counts.sum())


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
                "info": {
                    "phrase": model.info.phrase,
                    "component_id": model.info.component_id,
                    "instances": model.info.instances,
                    "iterations": model.info.iterations,
                    "energy_history": model.info.energy_history,
                },
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

    Besides its magic, version, length and CRC, a file must hold an index
    that save_table could have written; anything else is a ChecksumError
    (exit 2), however the CRC reads:
    - k_exemplars, each version and each mixture's k and dim are ints of
      at least 1; component ids, mask lengths and offsets ints of at
      least 0 (a bool is no int); info counts are ints of at least 0,
      info phrases and image ids strings, energies, scores and lam finite
      numbers, lam also positive;
    - every phrase is a normalized, nonempty string, and no (phrase,
      component_id) has two entries;
    - the entries' mixtures tile the payload from byte 0 in index order,
      each as weights, means and variances; weights are nonnegative and
      sum to 1 within 1e-9, means are finite and variances finite and at
      least VARIANCE_FLOOR;
    - mask runs and descriptors lie inside the payload at 4-aligned
      offsets; a mask's first label is 0 or 1 and its runs add up to its
      length; descriptors are finite, of one length of at least 1;
    - each phrase holds at most k_exemplars exemplars, in add_exemplar's
      (-score, image_id) order.
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
        index = json.loads(blob[index_start:payload_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ChecksumError(f"index is not valid JSON: {exc}") from exc
    # the CRC check below needs payload_len, so it is checked first
    payload_len = index.get("payload_len") if isinstance(index, dict) else None
    if type(payload_len) is not int or payload_len < 0:
        raise ChecksumError("index has no valid payload_len")
    expected = payload_start + payload_len + 4
    if len(blob) < expected:
        raise TruncationError(
            f"file is {len(blob)} bytes, header promises {expected}"
        )
    (crc_stored,) = struct.unpack_from("<I", blob, expected - 4)
    crc_actual = zlib.crc32(blob[: expected - 4]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise ChecksumError(
            f"CRC mismatch: stored {crc_stored:#x}, computed {crc_actual:#x}"
        )

    payload = blob[payload_start : expected - 4]
    # the CRC only proves the file is as written: a malformed index
    # (missing or mistyped keys, offsets outside the payload) is caught here
    try:
        return _table_from(index, payload)
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise ChecksumError(f"malformed table index: {exc!r}") from exc


def _table_from(index: dict, payload: bytes) -> SegmentPhraseTable:
    table = SegmentPhraseTable(_whole(index["k_exemplars"], 1, "k_exemplars"))
    _read_models(table, index["entries"], payload)
    _read_exemplars(table, index["exemplars"], payload)
    return table


def _model_info(fields) -> ModelInfo:
    info = ModelInfo(**fields)  # an unknown key is a TypeError
    if type(info.phrase) is not str:
        raise ChecksumError(f"model info phrase {info.phrase!r} is not a string")
    for name in ("component_id", "instances", "iterations"):
        _whole(getattr(info, name), 0, f"model info {name}")
    if type(info.energy_history) is not list:
        raise ChecksumError(f"energy history {info.energy_history!r} is not a list")
    for energy in info.energy_history:
        _finite(energy, "energy")
    return info


def _read_models(table: SegmentPhraseTable, records, payload: bytes) -> None:
    """Every model, its mixtures checked in one pass over the payload range
    that they tile."""
    heads = []
    sizes = []  # weights, means, variances: mixture after mixture
    end = 0
    for rec in records:
        key = PhraseKey(rec["phrase"], _whole(rec["component_id"], 0, "component_id"))
        if key in table.versions:
            raise ChecksumError(f"two models for {key.phrase!r} component {key.component_id}")
        table.versions[key] = _whole(rec["version"], 1, "version")
        lam = _finite(rec["lam"], "model lam")
        if lam <= 0:
            raise ChecksumError(f"model lam {lam!r} is not positive")
        dim = _whole(rec["dim"], 1, "dim")
        k_fg = _whole(rec["k_fg"], 1, "k_fg")
        k_bg = _whole(rec["k_bg"], 1, "k_bg")
        if _whole(rec["offset"], 0, "model offset") != end:
            raise ChecksumError(f"model offset {rec['offset']} is not {end}, where the last ends")
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
        raise ChecksumError(
            f"mixture variances are not finite and at least {VARIANCE_FLOOR}"
        )
    at = 0
    for key, lam, info, dim, k_fg, k_bg in heads:
        fg, at = _mixture(values, at, k_fg, dim)
        bg, at = _mixture(values, at, k_bg, dim)
        table.entries[key] = SegmentationModel(fg, bg, lam, info)


def _read_exemplars(table: SegmentPhraseTable, records, payload: bytes) -> None:
    """Every exemplar: the masks decoded with one np.repeat over all runs,
    the descriptors gathered and checked in one pass."""
    heads = []  # (phrase, image_id, score)
    lengths, firsts, run_at, n_runs = [], [], [], []
    widths, desc_at = [], []  # a width of 0: no descriptor
    for rec in records:
        phrase = _normalized(rec["phrase"])
        image_id = rec["image_id"]
        if type(image_id) is not str:
            raise ChecksumError(f"image_id {image_id!r} is not a string")
        heads.append((phrase, image_id, _finite(rec["score"], "exemplar score")))
        lengths.append(_whole(rec["n"], 0, "mask length"))
        first = rec["first"]
        if type(first) is not int or first not in (0, 1):
            raise ChecksumError(f"mask starts with label {first!r}")
        firsts.append(first)
        run_at.append(_word_index(payload, rec["runs_offset"], rec["n_runs"], 1, "mask runs"))
        n_runs.append(rec["n_runs"])
        width = 0
        if "descriptor_offset" in rec:
            width = _whole(rec["descriptor_len"], 1, "descriptor_len")
            desc_at.append(
                _word_index(payload, rec["descriptor_offset"], width, 2, "descriptor")
            )
        widths.append(width)

    words = np.frombuffer(payload, "<u4", len(payload) // 4)
    counts = np.array(n_runs, np.int64)
    runs = words[_gather(run_at, counts)]
    ends = np.concatenate(([0], np.cumsum(runs, dtype=np.int64)))
    before = np.cumsum(counts) - counts
    # checked before decoding allocates the masks
    if not np.array_equal(ends[before + counts] - ends[before], lengths):
        raise ChecksumError("mask run lengths do not add up")
    masks = _rle_decode(np.array(firsts, np.int64), counts, runs)

    described = [w for w in widths if w]
    descriptors = words[_gather(desc_at, 2 * np.array(described, np.int64))].view("<f8")
    finite = np.isfinite(descriptors)
    if not finite.all():
        bad = np.searchsorted(np.cumsum(described), np.argmin(finite), side="right")
        phrase = [h[0] for h, w in zip(heads, widths) if w][bad]
        raise ChecksumError(f"exemplar descriptor of {phrase!r} is not finite")
    if len(set(described)) > 1:
        raise ChecksumError(f"exemplar descriptors differ in length: {sorted(set(described))}")

    at = d = 0
    for (phrase, image_id, score), n, width in zip(heads, lengths, widths):
        descriptor = descriptors[d : d + width] if width else None
        table.exemplars.setdefault(phrase, []).append(
            ExemplarMask(image_id, score, masks[at : at + n], descriptor)
        )
        at += n
        d += width
    # add_exemplar keeps each bucket sorted by (-score, image_id), cut to k
    for phrase, bucket in table.exemplars.items():
        keys = [(-e.score, e.image_id) for e in bucket]
        if len(keys) > table.k_exemplars or keys != sorted(keys):
            raise ChecksumError(
                f"exemplars of {phrase!r} are not at most {table.k_exemplars} "
                "in (-score, image_id) order"
            )
