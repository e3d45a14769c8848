"""Persistent phrase-keyed store of segmentation models and exemplar masks.

One file holds everything: an 8-byte magic and format version, a JSON
index describing every entry, a packed numeric payload (float64 mixture
parameters, run-length-encoded superpixel masks, float64 descriptors),
and a trailing CRC32 over the whole stream. The JSON part stays readable
with a hex editor; the numbers round-trip at full precision.
"""

from __future__ import annotations

import json
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


@dataclass(frozen=True, order=True)
class PhraseKey:
    phrase: str
    component_id: int

    def __post_init__(self):
        if not (isinstance(self.phrase, str) and self.phrase
                and self.phrase == normalize_phrase(self.phrase)):
            raise ValidationError(f"phrase {self.phrase!r} is not a normalized string")
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


def _array(buf: bytes, dtype: str, count: int, offset: int) -> np.ndarray:
    """count items of dtype at offset; the whole range must lie in buf."""
    if not (count >= 0 and 0 <= offset <= len(buf) - np.dtype(dtype).itemsize * count):
        raise ChecksumError(f"{count} items at offset {offset} run outside the payload")
    return np.frombuffer(buf, dtype, count, offset)


def _mixture_from(buf: bytes, offset: int, k: int, dim: int):
    if not (k >= 1 and dim >= 1):
        raise ChecksumError(f"mixture of {k} components in {dim} dimensions")
    w = _array(buf, "<f8", k, offset).copy()
    offset += 8 * k
    m = _array(buf, "<f8", k * dim, offset).reshape(k, dim).copy()
    offset += 8 * k * dim
    v = _array(buf, "<f8", k * dim, offset).reshape(k, dim).copy()
    offset += 8 * k * dim
    # the CRC proves the bytes are as written, not that they form a mixture
    if not (np.isfinite(w).all() and (w >= 0.0).all()
            and abs(w.sum() - 1.0) <= _SIMPLEX_TOL):
        raise ChecksumError("mixture weights are not a probability vector")
    if not np.isfinite(m).all():
        raise ChecksumError("mixture means are not finite")
    # the E-step's error bound holds from the floor up, which every fit keeps
    if not (np.isfinite(v).all() and (v >= VARIANCE_FLOOR).all()):
        raise ChecksumError(
            f"mixture variances are not finite and at least {VARIANCE_FLOOR}"
        )
    return GaussianMixture(w, m, v), offset


def _rle_encode(mask: np.ndarray) -> tuple[int, np.ndarray]:
    """(first value, run lengths) of a 0/1 vector."""
    if len(mask) == 0:
        return 0, np.empty(0, dtype="<u4")
    changes = np.flatnonzero(np.diff(mask)) + 1
    bounds = np.concatenate(([0], changes, [len(mask)]))
    return int(mask[0]), np.diff(bounds).astype("<u4")


def _rle_decode(first: int, runs: np.ndarray) -> np.ndarray:
    """The 0/1 vector of runs alternating from first (a run may be empty)."""
    values = (np.arange(len(runs)) + first) & 1
    return np.repeat(values.astype(np.uint8), runs)


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
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ChecksumError(f"malformed table index: {exc!r}") from exc


def _table_from(index: dict, payload: bytes) -> SegmentPhraseTable:
    table = SegmentPhraseTable(k_exemplars=index["k_exemplars"])
    for rec in index["entries"]:
        key = PhraseKey(rec["phrase"], rec["component_id"])
        fg, off = _mixture_from(payload, rec["offset"], rec["k_fg"], rec["dim"])
        bg, _ = _mixture_from(payload, off, rec["k_bg"], rec["dim"])
        info = ModelInfo(**rec["info"])
        lam = rec["lam"]
        if not 0 < lam < np.inf:  # as Config requires; nan fails too
            raise ChecksumError(f"model lam {lam!r} is not positive and finite")
        table.entries[key] = SegmentationModel(fg, bg, lam, info)
        table.versions[key] = rec["version"]
    widths = set()
    for rec in index["exemplars"]:
        if rec["first"] not in (0, 1):
            raise ChecksumError(f"mask starts with label {rec['first']!r}")
        runs = _array(payload, "<u4", rec["n_runs"], rec["runs_offset"])
        if runs.sum() != rec["n"]:  # checked before decoding allocates the mask
            raise ChecksumError("mask run lengths do not add up")
        mask = _rle_decode(rec["first"], runs)
        descriptor = None
        if "descriptor_offset" in rec:
            descriptor = _array(
                payload, "<f8", rec["descriptor_len"], rec["descriptor_offset"]
            ).copy()
            if not np.isfinite(descriptor).all():
                raise ChecksumError(f"exemplar descriptor of {rec['phrase']!r} is not finite")
            widths.add(len(descriptor))
        table.exemplars.setdefault(rec["phrase"], []).append(
            ExemplarMask(rec["image_id"], rec["score"], mask, descriptor)
        )
    if len(widths) > 1:
        raise ChecksumError(f"exemplar descriptors differ in length: {sorted(widths)}")
    return table
