import json
import random
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segphrase.errors import DataError
from segphrase.gmm import GaussianMixture
from segphrase.latent import ModelInfo, SegmentationModel
import spt_oracle
from segphrase.spt import (
    FORMAT_VERSION,
    MAGIC,
    ChecksumError,
    ExemplarMask,
    PhraseKey,
    SegmentPhraseTable,
    TruncationError,
    ValidationError,
    VersionMismatchError,
    _rle_decode,
    _rle_encode,
    load_table,
    normalize_phrase,
    save_table,
)


def random_model(rng, dim=4, k=2, phrase="p", component=0):
    def mix():
        w = rng.random(k) + 0.1
        return GaussianMixture(
            w / w.sum(), rng.normal(size=(k, dim)), rng.random((k, dim)) + 1e-4
        )

    info = ModelInfo(
        phrase=phrase,
        component_id=component,
        instances=int(rng.integers(1, 5)),
        iterations=int(rng.integers(0, 9)),
        energy_history=[float(v) for v in rng.normal(size=3)],
    )
    return SegmentationModel(mix(), mix(), float(rng.random()), info)


def random_table(seed, n_entries=3, n_exemplars=4):
    rng = np.random.default_rng(seed)
    table = SegmentPhraseTable()
    for i in range(n_entries):
        phrase = f"phrase {i % 2} word{i}"
        table.insert(PhraseKey.make(phrase, i), random_model(rng, phrase=phrase))
        for j in range(n_exemplars):
            table.add_exemplar(
                phrase,
                ExemplarMask(
                    image_id=f"img_{i}_{j}.pgm",
                    score=float(rng.random()),
                    mask=rng.integers(0, 2, size=rng.integers(1, 30)),
                    descriptor=rng.random(10) if j % 2 == 0 else None,
                ),
            )
    return table


# -- keys and normalization -----------------------------------------------------

def test_normalize_collapses_whitespace_and_case():
    assert normalize_phrase("  Horse \t Jumping ") == "horse jumping"


@settings(max_examples=100, deadline=None)
@given(st.text())
def test_normalize_idempotent(s):
    assert normalize_phrase(normalize_phrase(s)) == normalize_phrase(s)


def test_empty_phrase_rejected():
    with pytest.raises(ValidationError):
        PhraseKey.make("   ")


def test_unnormalized_phrase_rejected():
    with pytest.raises(ValidationError):
        PhraseKey("Horse", 0)


def test_non_string_phrase_rejected():
    with pytest.raises(ValidationError):
        PhraseKey(5, 0)


# -- insert / query ----------------------------------------------------------------

def test_insert_then_query_round_trips():
    rng = np.random.default_rng(0)
    table = SegmentPhraseTable()
    model = random_model(rng)
    table.insert(PhraseKey.make("horse jumping"), model)
    hits = table.query("horse jumping")
    assert len(hits) == 1
    assert hits[0][1] is model


def test_reinsert_bumps_version():
    rng = np.random.default_rng(1)
    table = SegmentPhraseTable()
    key = PhraseKey.make("dog running")
    table.insert(key, random_model(rng))
    newer = random_model(rng)
    table.insert(key, newer)
    assert table.versions[key] == 2
    assert table.query("dog running")[0][1] is newer


def test_query_normalizes():
    rng = np.random.default_rng(2)
    table = SegmentPhraseTable()
    table.insert(PhraseKey.make("horse jumping"), random_model(rng))
    assert len(table.query("Horse  Jumping")) == 1


def test_query_unknown_phrase_empty():
    assert SegmentPhraseTable().query("nothing") == []


def test_query_components_sorted():
    rng = np.random.default_rng(3)
    table = SegmentPhraseTable()
    for cid in (2, 0, 1):
        table.insert(PhraseKey.make("cat sitting", cid), random_model(rng))
    assert [k.component_id for k, _ in table.query("cat sitting")] == [0, 1, 2]


def test_exemplars_sorted_and_capped():
    table = SegmentPhraseTable(k_exemplars=3)
    for i, score in enumerate([0.5, 0.9, 0.5, 0.1, 0.7]):
        table.add_exemplar(
            "bird", ExemplarMask(f"im{i}", score, np.array([1, 0]))
        )
    bucket = table.get_exemplars("bird")
    assert len(bucket) == 3
    assert [e.score for e in bucket] == [0.9, 0.7, 0.5]
    # ties on score resolve by image id
    assert bucket[2].image_id == "im0"


# -- persistence ---------------------------------------------------------------------

@pytest.mark.parametrize("mask", [
    [],
    [0, 0, 0],
    [1],
    [1, 1, 0, 1],
    [0] * 70000 + [1] * 3 + [0] * 5 + [1] * 100000,
], ids=["empty", "single-run", "starts-with-1", "short-runs", "long-runs"])
def test_rle_decode_inverts_encode(mask):
    mask = np.array(mask, dtype=np.uint8)
    first, runs = _rle_encode(mask)
    assert runs.dtype == np.dtype("<u4") and first == (int(mask[0]) if len(mask) else 0)
    out = _rle_decode(np.array([first]), np.array([len(runs)]), runs)
    assert out.dtype == np.uint8 and np.array_equal(out, mask)


def test_rle_decode_skips_empty_runs():
    # two masks in one call: [2, 0, 1, 3] from 1, then [1, 2] from 0
    runs = np.array([2, 0, 1, 3, 1, 2], dtype="<u4")
    out = _rle_decode(np.array([1, 0]), np.array([4, 2]), runs)
    assert out.tolist() == [1, 1, 1, 0, 0, 0] + [0, 1, 1]


def test_empty_table_round_trip(tmp_path):
    path = tmp_path / "t.spt"
    table = SegmentPhraseTable()
    save_table(table, path)
    assert load_table(path).deep_equal(table)


def test_fifty_entry_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    table = SegmentPhraseTable()
    for i in range(50):
        table.insert(PhraseKey.make(f"phrase {i}"), random_model(rng))
    save_table(table, tmp_path / "t.spt")
    assert load_table(tmp_path / "t.spt").deep_equal(table)


def test_flipped_magic_is_version_mismatch(tmp_path):
    path = tmp_path / "t.spt"
    save_table(random_table(0), path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        load_table(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "t.spt"
    save_table(random_table(1), path)
    blob = bytearray(path.read_bytes())
    blob[8] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        load_table(path)


def test_truncated_file_detected(tmp_path):
    path = tmp_path / "t.spt"
    save_table(random_table(2), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TruncationError):
        load_table(path)


def test_corrupted_payload_fails_checksum(tmp_path):
    path = tmp_path / "t.spt"
    save_table(random_table(3), path)
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0x01  # inside the numeric payload
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_table(path)


def test_every_flipped_bit_is_a_data_error(tmp_path):
    path = tmp_path / "t.spt"
    save_table(random_table(4, n_entries=1, n_exemplars=2), path)
    blob = path.read_bytes()
    assert b'"payload_len"' in blob
    for i in range(len(blob)):
        flipped = bytearray(blob)
        flipped[i] ^= 0x01
        path.write_bytes(bytes(flipped))
        with pytest.raises(DataError):
            load_table(path)


@pytest.mark.parametrize("index", [
    b"[1, 2]", b"{}", b'{"payload_len": -1}', b'{"payload_len": "0"}',
    b'{"payload_len": true}', b"null",
])
def test_index_without_valid_payload_len_fails_checksum(tmp_path, index):
    body = MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", len(index))
    body += index + bytes(8)
    path = tmp_path / "t.spt"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(ChecksumError):
        load_table(path)


def _edit_index(path, edit):
    """Apply edit to the saved table's JSON index and recompute the CRC."""
    blob = path.read_bytes()
    start = len(MAGIC) + 4 + 8
    (index_len,) = struct.unpack_from("<Q", blob, start - 8)
    index = json.loads(blob[start : start + index_len])
    edit(index)
    encoded = json.dumps(index, sort_keys=True).encode("utf-8")
    body = blob[: start - 8] + struct.pack("<Q", len(encoded)) + encoded
    body += blob[start + index_len : -4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _described(index):
    return [rec for rec in index["exemplars"] if "descriptor_offset" in rec]


@pytest.mark.parametrize("edit", [
    lambda ix: ix["exemplars"][0].update(runs_offset=ix["payload_len"] + 8),
    lambda ix: ix["exemplars"][0].update(runs_offset=-4),
    lambda ix: ix["exemplars"][0].update(n_runs=-1),
    lambda ix: ix["entries"][0].update(offset=ix["payload_len"]),
    lambda ix: ix["entries"][0].update(offset=-8),
    lambda ix: ix["entries"][0].pop("lam"),
    lambda ix: ix["entries"][0]["info"].update(colour="red"),
    lambda ix: ix["entries"][0].update(k_fg="2"),
    lambda ix: ix["entries"][0].update(k_bg=0),
    lambda ix: ix["entries"][0].update(dim=0),
    lambda ix: ix.pop("k_exemplars"),
    lambda ix: _described(ix)[0].update(descriptor_len=5),
    lambda ix: _described(ix)[0].update(descriptor_offset=ix["payload_len"]),
    lambda ix: ix["exemplars"][0].update(first=7),
    lambda ix: ix["exemplars"][0].update(n=ix["exemplars"][0]["n"] + 1),
    lambda ix: ix["entries"][0].update(lam=float("nan")),
    lambda ix: ix["entries"][0].update(lam=-1e308),
    lambda ix: ix["entries"][0].update(lam=0.0),
    lambda ix: ix["entries"][0].update(phrase=5),
    lambda ix: ix["entries"][0].update(component_id=1.5),
    lambda ix: ix["entries"][0].update(version="x"),
    lambda ix: ix.update(k_exemplars="5"),
    lambda ix: ix.update(k_exemplars=-3),
    lambda ix: ix["exemplars"][0].update(image_id=7),
    lambda ix: ix["entries"][0]["info"].update(energy_history="abc"),
    lambda ix: ix["exemplars"][0].update(first=True),
    lambda ix: ix["entries"][0].update(lam=True),
    lambda ix: ix["exemplars"][0].update(runs_offset=ix["exemplars"][0]["runs_offset"] + 2),
    lambda ix: ix["exemplars"][0].update(phrase="Bright  Square"),
    lambda ix: [rec.update(descriptor_len=0) for rec in _described(ix)],
    lambda ix: ix.update(k_exemplars=2),
    lambda ix: ix["exemplars"].reverse(),
    lambda ix: (ix.update(k_exemplars=2), ix["exemplars"].reverse()),
], ids=["runs-offset-past-end", "runs-offset-negative", "n-runs-negative",
        "model-offset-past-end", "model-offset-negative", "missing-lam",
        "unknown-info-key", "string-k", "zero-k", "zero-dim", "missing-k-exemplars", "descriptor-len-5",
        "descriptor-offset-past-end", "first-7", "runs-short-of-n", "nan-lam", "negative-lam",
        "zero-lam", "integer-phrase", "fractional-component-id", "string-version",
        "string-k-exemplars", "negative-k-exemplars", "integer-image-id",
        "string-energy-history", "boolean-first", "boolean-lam", "unaligned-runs-offset",
        "unnormalized-exemplar-phrase", "zero-length-descriptors", "three-exemplars-at-k-2",
        "ascending-scores", "three-ascending-at-k-2"])
def test_malformed_index_under_valid_crc_fails_checksum(tmp_path, edit):
    path = tmp_path / "t.spt"
    save_table(random_table(5, n_entries=1, n_exemplars=3), path)
    _edit_index(path, lambda ix: None)
    assert load_table(path).deep_equal(random_table(5, n_entries=1, n_exemplars=3))
    _edit_index(path, edit)
    with pytest.raises(ChecksumError):
        load_table(path)


def _same_dtypes(a, b):
    """Every array of table a has the dtype of its counterpart in table b."""
    for key, model in a.entries.items():
        theirs = b.entries[key]
        for ga, gb in ((model.theta_fg, theirs.theta_fg), (model.theta_bg, theirs.theta_bg)):
            for name in ("weights", "means", "variances"):
                if getattr(ga, name).dtype != getattr(gb, name).dtype:
                    return False
    for phrase, bucket in a.exemplars.items():
        for x, y in zip(bucket, b.exemplars[phrase]):
            if x.mask.dtype != y.mask.dtype:
                return False
            if x.descriptor is not None and x.descriptor.dtype != y.descriptor.dtype:
                return False
    return True


def _fifty_entry_table():
    rng = np.random.default_rng(4)
    table = SegmentPhraseTable()
    for i in range(50):
        table.insert(PhraseKey.make(f"phrase {i}"), random_model(rng))
    return table


@pytest.mark.parametrize("table", [
    *(random_table(seed, n_entries=seed % 4, n_exemplars=seed % 5) for seed in range(12)),
    _fifty_entry_table(),
], ids=[*(f"random-{seed}" for seed in range(12)), "fifty-entries"])
def test_array_decoder_matches_record_by_record_oracle(tmp_path, table):
    path = tmp_path / "t.spt"
    save_table(table, path)
    ours = load_table(path)
    theirs = spt_oracle.table_from(*spt_oracle.split_table(path))
    assert ours.deep_equal(theirs) and theirs.deep_equal(table)
    assert _same_dtypes(ours, theirs) and _same_dtypes(theirs, ours)


def _leaves(node, path=()):
    """(path, value) of every node under the index, the root excluded."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield path + (key,), child
        yield from _leaves(child, path + (key,))


def _mutate(index, rng):
    """One random edit of the index: swap a value's type, negate a number,
    shift an offset, drop a key or duplicate a record."""
    nodes = list(_leaves(index))
    kind = rng.choice(["swap", "negate", "shift", "drop", "duplicate"])

    def parent(path):
        node = index
        for key in path[:-1]:
            node = node[key]
        return node

    if kind == "swap":
        path, _ = rng.choice(nodes)
        parent(path)[path[-1]] = rng.choice(
            [None, True, False, "x", "5", 1.5, -1, 0, 2**70, [], {}, [1.0], {"a": 1}]
        )
    elif kind == "negate":
        numbers = [(p, v) for p, v in nodes if type(v) in (int, float)]
        path, value = rng.choice(numbers)
        parent(path)[path[-1]] = -value
    elif kind == "shift":
        offsets = [(p, v) for p, v in nodes if p[-1] in ("offset", "runs_offset",
                                                         "descriptor_offset")]
        path, value = rng.choice(offsets)
        parent(path)[path[-1]] = value + rng.choice([-8, -4, -1, 1, 4, 8])
    elif kind == "drop":
        path, _ = rng.choice([(p, v) for p, v in nodes if isinstance(p[-1], str)])
        del parent(path)[path[-1]]
    else:
        records = index[rng.choice(["entries", "exemplars"])]
        at = rng.randrange(len(records))
        records.insert(rng.randrange(len(records) + 1), json.loads(json.dumps(records[at])))


def test_mutated_index_loads_round_trip_or_is_a_data_error(tmp_path):
    # every mutant either loads into a table that saves and reloads
    # deep-equal, or is a DataError: never another exception
    rng = random.Random(17)
    path, again = tmp_path / "t.spt", tmp_path / "again.spt"
    outcomes = {"loaded": 0, "rejected": 0}
    for mutant in range(400):
        save_table(random_table(mutant % 8, n_entries=2, n_exemplars=3), path)
        _edit_index(path, lambda ix: _mutate(ix, rng))
        try:
            table = load_table(path)
        except DataError:
            outcomes["rejected"] += 1
            continue
        outcomes["loaded"] += 1
        save_table(table, again)
        assert load_table(again).deep_equal(table), mutant
    assert min(outcomes.values()) > 20, outcomes


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_property(tmp_path_factory, seed):
    table = random_table(seed, n_entries=2, n_exemplars=3)
    path = tmp_path_factory.mktemp("spt") / "t.spt"
    save_table(table, path)
    assert load_table(path).deep_equal(table)
