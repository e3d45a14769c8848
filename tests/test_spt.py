import json
import random
import re
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
    ExemplarMask,
    PhraseKey,
    SegmentPhraseTable,
    ValidationError,
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
    runs = _rle_encode(mask)
    assert runs.dtype == np.dtype("<u4") and runs.all()
    first = int(mask[0]) if len(mask) else 0
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
    assert spt_oracle.deep_equal(load_table(path), table)


def test_fifty_entry_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    table = SegmentPhraseTable()
    for i in range(50):
        table.insert(PhraseKey.make(f"phrase {i}"), random_model(rng))
    save_table(table, tmp_path / "t.spt")
    assert spt_oracle.deep_equal(load_table(tmp_path / "t.spt"), table)


def test_flipped_magic_is_version_mismatch(tmp_path):
    path = tmp_path / "t.spt"
    save_table(random_table(0), path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: bad magic bytes$"):
        load_table(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "t.spt"
    save_table(random_table(1), path)
    blob = bytearray(path.read_bytes())
    blob[8] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: unsupported format version 99$"):
        load_table(path)


def test_truncated_file_detected(tmp_path):
    path = tmp_path / "t.spt"
    save_table(random_table(2), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: index extends past end of file$"):
        load_table(path)


def test_corrupted_payload_fails_checksum(tmp_path):
    path = tmp_path / "t.spt"
    save_table(random_table(3), path)
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0x01  # inside the numeric payload
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: CRC mismatch: stored 0x[0-9a-f]+, computed 0x[0-9a-f]+$"):
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
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: index has no valid payload_len$"):
        load_table(path)


def _edit_table(path, edit):
    """Apply edit(index, payload) -> (index JSON text, payload) to the saved
    table and recompute the index length and the CRC."""
    blob = path.read_bytes()
    start = len(MAGIC) + 4 + 8
    (index_len,) = struct.unpack_from("<Q", blob, start - 8)
    index = json.loads(blob[start : start + index_len])
    text, payload = edit(index, blob[start + index_len : -4])
    encoded = text.encode("utf-8")
    body = blob[: start - 8] + struct.pack("<Q", len(encoded)) + encoded + payload
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _edit_index(path, edit):
    """Apply edit to the saved table's JSON index; an edit that returns
    bytes also appends them to the payload, one that returns a str gives
    the index's JSON text."""
    def edit_both(index, payload):
        extra = edit(index)
        text = extra if isinstance(extra, str) else json.dumps(index, sort_keys=True)
        return text, payload + (extra if isinstance(extra, bytes) else b"")

    _edit_table(path, edit_both)


def _described(index):
    return [rec for rec in index["exemplars"] if "descriptor_offset" in rec]


def _gap_before_descriptor(index):
    _described(index)[0]["descriptor_offset"] += 4


def _repeated_phrase_key(index):
    """The first entry's phrase key written twice, {"phrase": "a",
    "phrase": "a"}; keeping the last value would load the table as saved."""
    text = json.dumps(index, sort_keys=True)
    key = json.dumps({"phrase": index["entries"][0]["phrase"]})[1:-1]
    return text.replace(key, f"{key}, {key}", 1)


def _swap(records, key):
    """Swap the key's values between the first two records, offsets intact."""
    records[0][key], records[1][key] = records[1][key], records[0][key]


@pytest.mark.parametrize("edit, message", [
    (lambda ix: ix["exemplars"][0].update(runs_offset=ix["payload_len"] + 8),
     "index differs from save_table's at byte 799:"),
    (lambda ix: ix["exemplars"][0].update(runs_offset=-4),
     "index differs from save_table's at byte 799:"),
    (lambda ix: ix["exemplars"][0].update(n_runs=-1),
     "n_runs -1 is not an integer >= 0"),
    (lambda ix: ix["entries"][0].update(offset=ix["payload_len"]),
     "index differs from save_table's at byte 274:"),
    (lambda ix: ix["entries"][0].update(offset=-8),
     "index differs from save_table's at byte 274:"),
    (lambda ix: ix["entries"][0].pop("lam"),
     "malformed table index: KeyError('lam')"),
    (lambda ix: ix["entries"][0]["info"].update(colour="red"),
     "malformed table index: TypeError("),
    (lambda ix: ix["entries"][0].update(k_fg="2"),
     "k_fg '2' is not an integer >= 1"),
    (lambda ix: ix["entries"][0].update(k_bg=0),
     "k_bg 0 is not an integer >= 1"),
    (lambda ix: ix["entries"][0].update(dim=0),
     "dim 0 is not an integer >= 1"),
    (lambda ix: ix.pop("k_exemplars"),
     "malformed table index: KeyError('k_exemplars')"),
    (lambda ix: _described(ix)[0].update(descriptor_len=5),
     "exemplars end at byte 1028, not at payload_len 1068"),
    (lambda ix: _described(ix)[0].update(descriptor_offset=ix["payload_len"]),
     "index differs from save_table's at byte 689:"),
    (lambda ix: ix["exemplars"][0].update(first=7),
     "index differs from save_table's at byte 703:"),
    (lambda ix: ix["exemplars"][0].update(n=ix["exemplars"][0]["n"] + 1),
     "mask runs are not nonzero lengths adding up to the mask's"),
    (lambda ix: ix["entries"][0].update(lam=float("nan")),
     "model lam nan is not a finite number"),
    (lambda ix: ix["entries"][0].update(lam=-1e308),
     "model lam -1e+308 is not positive"),
    (lambda ix: ix["entries"][0].update(lam=0.0),
     "model lam 0.0 is not positive"),
    (lambda ix: ix["entries"][0].update(phrase=5),
     "malformed table index: ValidationError('phrase 5 is not a normalized string')"),
    (lambda ix: ix["entries"][0].update(component_id=1.5),
     "component_id 1.5 is not an integer >= 0"),
    (lambda ix: ix["entries"][0].update(version="x"),
     "version 'x' is not an integer >= 1"),
    (lambda ix: ix.update(k_exemplars="5"),
     "k_exemplars '5' is not an integer >= 1"),
    (lambda ix: ix.update(k_exemplars=-3),
     "k_exemplars -3 is not an integer >= 1"),
    (lambda ix: ix["exemplars"][0].update(image_id=7),
     "image_id 7 is not a string"),
    (lambda ix: ix["entries"][0]["info"].update(energy_history="abc"),
     "energy history 'abc' is not a list"),
    (lambda ix: ix["exemplars"][0].update(first=True),
     "first label True is not an integer >= 0"),
    (lambda ix: ix["entries"][0].update(lam=True),
     "model lam True is not a finite number"),
    (lambda ix: ix["exemplars"][0].update(runs_offset=ix["exemplars"][0]["runs_offset"] + 2),
     "index differs from save_table's at byte 801:"),
    (lambda ix: ix["exemplars"][0].update(phrase="Bright  Square"),
     "malformed table index: ValidationError(\"phrase 'Bright  Square' is not a normalized string\")"),
    (lambda ix: [rec.update(descriptor_len=0) for rec in _described(ix)],
     "descriptor_len 0 is not an integer >= 1"),
    (lambda ix: ix.update(k_exemplars=2),
     "index differs from save_table's at byte 1018:"),
    (lambda ix: ix["exemplars"].reverse(),
     "mask runs are not nonzero lengths adding up to the mask's"),
    (lambda ix: (ix.update(k_exemplars=2), ix["exemplars"].reverse()),
     "mask runs are not nonzero lengths adding up to the mask's"),
    (lambda ix: ix.update(payload_len=ix["payload_len"] + 8) or bytes(8),
     "exemplars end at byte 1068, not at payload_len 1076"),
    (lambda ix: _described(ix)[1].update(descriptor_offset=_described(ix)[0]["descriptor_offset"]),
     "index differs from save_table's at byte 1017:"),
    (_gap_before_descriptor,
     "index differs from save_table's at byte 691:"),
    (lambda ix: _swap(ix["entries"], "phrase"),
     "index differs from save_table's at byte 30:"),
    (lambda ix: _swap(ix["exemplars"], "score"),
     "index differs from save_table's at byte 647:"),
    (lambda ix: ix["exemplars"][0].update(phrase="zzz"),
     "index differs from save_table's at byte 647:"),
    (lambda ix: ix["entries"][0]["info"].pop("iterations"),
     "index differs from save_table's at byte 170:"),
    (lambda ix: ix.update(note="x"),
     "index differs from save_table's at byte 1698:"),
    (lambda ix: ix["entries"][0].update(note="x"),
     "index differs from save_table's at byte 265:"),
    (lambda ix: ix["exemplars"][0].update(note="x"),
     "index differs from save_table's at byte 757:"),
    (lambda ix: _described(ix)[-1].pop("descriptor_offset"),
     "index differs from save_table's at byte 1511:"),
    (_repeated_phrase_key,
     "index differs from save_table's at byte 212:"),
], ids=["runs-offset-past-end", "runs-offset-negative", "n-runs-negative",
        "model-offset-past-end", "model-offset-negative", "missing-lam",
        "unknown-info-key", "string-k", "zero-k", "zero-dim", "missing-k-exemplars", "descriptor-len-5",
        "descriptor-offset-past-end", "first-7", "runs-short-of-n", "nan-lam", "negative-lam",
        "zero-lam", "integer-phrase", "fractional-component-id", "string-version",
        "string-k-exemplars", "negative-k-exemplars", "integer-image-id",
        "string-energy-history", "boolean-first", "boolean-lam", "unaligned-runs-offset",
        "unnormalized-exemplar-phrase", "zero-length-descriptors", "three-exemplars-at-k-2",
        "ascending-scores", "three-ascending-at-k-2", "trailing-payload-bytes",
        "aliased-descriptor", "gap-before-descriptor", "swapped-entry-phrases",
        "swapped-exemplar-scores", "exemplar-phrase-out-of-order", "info-without-iterations",
        "unknown-index-key", "unknown-entry-key", "unknown-exemplar-key",
        "descriptor-len-without-offset", "repeated-key"])
def test_malformed_index_under_valid_crc_fails_checksum(tmp_path, edit, message):
    path = tmp_path / "t.spt"
    table = random_table(5, n_entries=2, n_exemplars=3)
    save_table(table, path)
    _edit_index(path, lambda ix: None)
    assert spt_oracle.deep_equal(load_table(path), table)
    _edit_index(path, edit)
    with pytest.raises(DataError, match="^" + re.escape(f"{path}: {message}")):
        load_table(path)


@pytest.mark.parametrize("records", ["entries", "exemplars"])
@pytest.mark.parametrize("empty", [{}, ""], ids=["object", "string"])
def test_empty_records_not_in_a_list_fail_checksum(tmp_path, records, empty):
    # an empty table's payload is empty too, so only the type tells
    path = tmp_path / "t.spt"
    save_table(SegmentPhraseTable(), path)
    _edit_index(path, lambda ix: ix.update({records: empty}))
    # the error names the byte of the [] that save_table writes there:
    # {"entries": [], "exemplars": [], "k_exemplars": 10, "payload_len": 0}
    at = {"entries": 12, "exemplars": 29}[records]
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: index differs from save_table's at byte {at}:"):
        load_table(path)


@pytest.mark.parametrize("respell", [
    lambda text: json.dumps(json.loads(text), sort_keys=True, indent=1),
    lambda text: json.dumps(dict(reversed(json.loads(text).items()))),
    lambda text: text.replace('"score": 1.0', '"score": 1e0'),
    lambda text: text.replace('"image_id": "a"', '"image_id": "\\u0061"'),
], ids=["whitespace", "key-order", "exponent", "unicode-escape"])
def test_respelled_index_fails_checksum(tmp_path, respell):
    # the same JSON value as save_table's index, spelled another way
    table = SegmentPhraseTable()
    table.insert(PhraseKey.make("a"), random_model(np.random.default_rng(7), phrase="a"))
    table.add_exemplar("a", ExemplarMask("a", 1.0, np.array([1, 0]), np.ones(3)))
    path = tmp_path / "t.spt"
    save_table(table, path)

    def edit(index, payload):
        text = json.dumps(index, sort_keys=True)
        respelled = respell(text)
        assert respelled != text and json.loads(respelled) == index
        return respelled, payload

    _edit_table(path, edit)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: index differs from save_table's at byte"):
        load_table(path)


def _two_empty_runs_after_the_last(index):
    index["exemplars"][-1]["n_runs"] += 2
    index["payload_len"] += 8
    return bytes(8)


@pytest.mark.parametrize("edit, message", [
    (lambda ix: ix["exemplars"][0].update(first=1),
     "index differs from save_table's at byte 40:"),
    (_two_empty_runs_after_the_last,
     "mask runs are not nonzero lengths adding up to the mask's$"),
], ids=["empty-mask-starting-at-1", "zero-length-runs"])
def test_mask_runs_not_as_save_table_writes_fail_checksum(tmp_path, edit, message):
    # the decoder reads these back to the same masks, but _rle_encode
    # starts an empty mask at 0 and writes no empty run
    table = SegmentPhraseTable()
    table.add_exemplar("a", ExemplarMask("x", 2.0, np.array([], np.uint8)))
    table.add_exemplar("a", ExemplarMask("y", 1.0, np.array([1, 1, 1])))
    path = tmp_path / "t.spt"
    save_table(table, path)
    _edit_index(path, lambda ix: None)
    assert spt_oracle.deep_equal(load_table(path), table)
    _edit_index(path, edit)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}"):
        load_table(path)


def test_bytes_after_the_crc_fail_checksum(tmp_path):
    path = tmp_path / "t.spt"
    save_table(random_table(6), path)
    path.write_bytes(path.read_bytes() + bytes(4))
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: 4 bytes follow the CRC$"):
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
    assert spt_oracle.deep_equal(ours, theirs) and spt_oracle.deep_equal(theirs, table)
    save_table(ours, tmp_path / "again.spt")
    assert (tmp_path / "again.spt").read_bytes() == path.read_bytes()
    assert _same_dtypes(ours, theirs) and _same_dtypes(theirs, ours)


def _leaves(node, path=()):
    """(path, value) of every node under the index, the root excluded."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield path + (key,), child
        yield from _leaves(child, path + (key,))


def _regions(index, payload):
    """Each record's payload bytes, as save_table lays them out: a model's
    mixtures, an exemplar's mask runs and then its descriptor."""
    def chunk(at, size):
        return payload[at : at + size]

    return {
        "entries": [chunk(r["offset"], 8 * (r["k_fg"] + r["k_bg"]) * (1 + 2 * r["dim"]))
                    for r in index["entries"]],
        "exemplars": [chunk(r["runs_offset"], 4 * r["n_runs"] + 8 * r.get("descriptor_len", 0))
                      for r in index["exemplars"]],
    }


def _relayout(index, regions):
    """The payload of the records' regions back to back in index order,
    every offset and payload_len moved to match."""
    payload = b""
    for rec, chunk in zip(index["entries"], regions["entries"]):
        rec["offset"] = len(payload)
        payload += chunk
    for rec, chunk in zip(index["exemplars"], regions["exemplars"]):
        rec["runs_offset"] = len(payload)
        if "descriptor_offset" in rec:
            rec["descriptor_offset"] = len(payload) + 4 * rec["n_runs"]
        payload += chunk
    index["payload_len"] = len(payload)
    return payload


def _mutate(index, payload, rng):
    """One random edit of the index, and the payload to go with it. The
    first five kinds leave the payload as it is: swap a value's type,
    negate a number, shift an offset, drop a key, duplicate a record. The
    last two keep the layout consistent: a record is duplicated or removed
    together with its payload bytes, and every later offset moves."""
    nodes = list(_leaves(index))
    kind = rng.choice(["swap", "negate", "shift", "drop", "duplicate", "carry", "remove"])

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
    elif kind == "duplicate":
        records = index[rng.choice(["entries", "exemplars"])]
        at = rng.randrange(len(records))
        records.insert(rng.randrange(len(records) + 1), json.loads(json.dumps(records[at])))
    else:
        regions = _regions(index, payload)
        name = rng.choice(["entries", "exemplars"])
        records, chunks = index[name], regions[name]
        at = rng.randrange(len(records))
        if kind == "carry":
            to = rng.randrange(len(records) + 1)
            records.insert(to, json.loads(json.dumps(records[at])))
            chunks.insert(to, chunks[at])
        else:
            del records[at], chunks[at]
        payload = _relayout(index, regions)
    return payload


def test_mutated_index_loads_round_trip_or_is_a_data_error(tmp_path):
    # every mutant either loads into a table that saves back to the
    # mutant's own bytes, or is a DataError: never another exception
    rng = random.Random(17)
    path, again = tmp_path / "t.spt", tmp_path / "again.spt"

    def mutated(index, payload):
        payload = _mutate(index, payload, rng)
        return json.dumps(index, sort_keys=True), payload

    outcomes = {"loaded": 0, "rejected": 0}
    for mutant in range(400):
        save_table(random_table(mutant % 8, n_entries=2, n_exemplars=3), path)
        _edit_table(path, mutated)
        try:
            table = load_table(path)
        except DataError:
            outcomes["rejected"] += 1
            continue
        outcomes["loaded"] += 1
        save_table(table, again)
        assert again.read_bytes() == path.read_bytes(), mutant
        assert spt_oracle.deep_equal(load_table(again), table), mutant
    assert min(outcomes.values()) > 20, outcomes


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_property(tmp_path_factory, seed):
    table = random_table(seed, n_entries=2, n_exemplars=3)
    path = tmp_path_factory.mktemp("spt") / "t.spt"
    save_table(table, path)
    assert spt_oracle.deep_equal(load_table(path), table)
    save_table(load_table(path), path.with_name("again.spt"))
    assert path.with_name("again.spt").read_bytes() == path.read_bytes()
