"""Reference table decoder: the index read record by record, each mixture
checked and each exemplar mask run-length decoded with its own small
numpy calls. Kept as first written, so tests can check that
`segphrase.spt.load_table`'s whole-table array passes build the same
table, with the same dtypes, from every valid file.

Also `deep_equal`, the field-by-field comparison of two in-memory tables:
equal saved bytes only prove that saving a loaded table gives the file
back, not that the file kept every field of the table that was saved.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from segphrase.errors import DataError
from segphrase.gmm import VARIANCE_FLOOR, GaussianMixture
from segphrase.latent import ModelInfo, SegmentationModel
from segphrase.spt import (
    _SIMPLEX_TOL,
    MAGIC,
    ExemplarMask,
    PhraseKey,
    SegmentPhraseTable,
)


def _models_equal(a: SegmentationModel, b: SegmentationModel) -> bool:
    for ga, gb in ((a.theta_fg, b.theta_fg), (a.theta_bg, b.theta_bg)):
        if not (
            np.array_equal(ga.weights, gb.weights)
            and np.array_equal(ga.means, gb.means)
            and np.array_equal(ga.variances, gb.variances)
        ):
            return False
    return a.lam == b.lam and a.info == b.info


def deep_equal(a: SegmentPhraseTable, b: SegmentPhraseTable) -> bool:
    """Whether the two tables hold equal k, versions, models and exemplars."""
    if a.k_exemplars != b.k_exemplars:
        return False
    if set(a.entries) != set(b.entries) or a.versions != b.versions:
        return False
    for key, model in a.entries.items():
        if not _models_equal(model, b.entries[key]):
            return False
    if set(a.exemplars) != set(b.exemplars):
        return False
    for phrase, bucket in a.exemplars.items():
        theirs = b.exemplars[phrase]
        if len(bucket) != len(theirs):
            return False
        for x, y in zip(bucket, theirs):
            if x.image_id != y.image_id or x.score != y.score:
                return False
            if not np.array_equal(x.mask, y.mask):
                return False
            if (x.descriptor is None) != (y.descriptor is None):
                return False
            if x.descriptor is not None and not np.array_equal(x.descriptor, y.descriptor):
                return False
    return True


def split_table(path) -> tuple[dict, bytes]:
    """(JSON index, payload) of a table file that load_table accepts."""
    with open(path, "rb") as fh:
        blob = fh.read()
    start = len(MAGIC) + 4 + 8
    (index_len,) = struct.unpack_from("<Q", blob, start - 8)
    index = json.loads(blob[start : start + index_len])
    return index, blob[start + index_len : -4]


def _array(buf: bytes, dtype: str, count: int, offset: int) -> np.ndarray:
    """count items of dtype at offset; the whole range must lie in buf."""
    if not (count >= 0 and 0 <= offset <= len(buf) - np.dtype(dtype).itemsize * count):
        raise DataError(f"{count} items at offset {offset} run outside the payload")
    return np.frombuffer(buf, dtype, count, offset)


def _mixture_from(buf: bytes, offset: int, k: int, dim: int):
    if not (k >= 1 and dim >= 1):
        raise DataError(f"mixture of {k} components in {dim} dimensions")
    w = _array(buf, "<f8", k, offset).copy()
    offset += 8 * k
    m = _array(buf, "<f8", k * dim, offset).reshape(k, dim).copy()
    offset += 8 * k * dim
    v = _array(buf, "<f8", k * dim, offset).reshape(k, dim).copy()
    offset += 8 * k * dim
    if not (np.isfinite(w).all() and (w >= 0.0).all()
            and abs(w.sum() - 1.0) <= _SIMPLEX_TOL):
        raise DataError("mixture weights are not a probability vector")
    if not np.isfinite(m).all():
        raise DataError("mixture means are not finite")
    if not (np.isfinite(v).all() and (v >= VARIANCE_FLOOR).all()):
        raise DataError(
            f"mixture variances are not finite and at least {VARIANCE_FLOOR}"
        )
    return GaussianMixture(w, m, v), offset


def rle_decode(first: int, runs: np.ndarray) -> np.ndarray:
    """The 0/1 vector of runs alternating from first (a run may be empty)."""
    values = (np.arange(len(runs)) + first) & 1
    return np.repeat(values.astype(np.uint8), runs)


def table_from(index: dict, payload: bytes) -> SegmentPhraseTable:
    table = SegmentPhraseTable(k_exemplars=index["k_exemplars"])
    for rec in index["entries"]:
        key = PhraseKey(rec["phrase"], rec["component_id"])
        fg, off = _mixture_from(payload, rec["offset"], rec["k_fg"], rec["dim"])
        bg, _ = _mixture_from(payload, off, rec["k_bg"], rec["dim"])
        info = ModelInfo(**rec["info"])
        lam = rec["lam"]
        if not 0 < lam < np.inf:
            raise DataError(f"model lam {lam!r} is not positive and finite")
        table.entries[key] = SegmentationModel(fg, bg, lam, info)
        table.versions[key] = rec["version"]
    widths = set()
    for rec in index["exemplars"]:
        if rec["first"] not in (0, 1):
            raise DataError(f"mask starts with label {rec['first']!r}")
        runs = _array(payload, "<u4", rec["n_runs"], rec["runs_offset"])
        if runs.sum() != rec["n"]:
            raise DataError("mask run lengths do not add up")
        mask = rle_decode(rec["first"], runs)
        descriptor = None
        if "descriptor_offset" in rec:
            descriptor = _array(
                payload, "<f8", rec["descriptor_len"], rec["descriptor_offset"]
            ).copy()
            if not np.isfinite(descriptor).all():
                raise DataError(f"exemplar descriptor of {rec['phrase']!r} is not finite")
            widths.add(len(descriptor))
        table.exemplars.setdefault(rec["phrase"], []).append(
            ExemplarMask(rec["image_id"], rec["score"], mask, descriptor)
        )
    if len(widths) > 1:
        raise DataError(f"exemplar descriptors differ in length: {sorted(widths)}")
    return table
