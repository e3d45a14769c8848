"""Mutation-fuzz contract for every input of the CLI: each text input,
P5 and P6 images through train and segment, and whole tables through
segment and relations.

Each kind of input starts from a valid file and is mutated byte by byte
with a fixed seed and a fixed mutant count, on small synth scenes. Every
mutant must end in exit 0, 2 or 3, never a traceback; a failure prints
nothing on stdout, writes no output file and reports exactly one
`segphrase:` line on stderr; and no run raises a warning.
"""

import os
import random
import struct
import warnings
import zlib

import numpy as np
import pytest

from segphrase.cli import main
from segphrase.imaging import Image, load_image, save_image
from segphrase.spt import MAGIC, ExemplarMask, SegmentPhraseTable, save_table

CONFIG = "# small and fast\nsuperpixel_target = 30\nem_max_iters = 2\ngmm_k = 1\nlam = 0.5  # pairwise\n"
DETECTIONS = '"round object" 4 4 28 28 0.9\n# boxes\n\n"Round  Object" 8 6 30 30 0.5\n'
EMBEDDINGS = "3 2\nround 1.0 0.0\nobject 0.6 0.8\n\n#tag 0.0 1.0\n"
ENTAIL = "a\tb\tentails\n# gold\nb\tc\tnot-entails\n\nA\tc\tentails\n"
PARAPHRASE = "a\tb\tparaphrase\n# gold\nb\tc\tnot-paraphrase\n\nA\tc\tparaphrase\n"
SIMREL = "a\tb\tc\tb\n# gold\n\nb\ta\tc\tC\n"
SCORES = "3\n0 0.5 -0.2\n-0.5 0 0.1\n0.2 -0.1 0\n"

# bytes that matter to some parser: quotes, comments, separators, signs,
# number parts, a byte that is not UTF-8 and one that is whitespace to str
TOKENS = [b'"', b"'", b"#", b"\t", b"\n", b"\r\n", b" ", b"=", b"-", b"9", b"e", b".",
          b"nan", b"1e999", b"\\", b"\xe9", b"\x0c", b"\x00"]

# bytes that matter to a Netpbm header: magics, digits, signs, separators,
# comments, and numbers past every bound
HEADER_TOKENS = [b"P5", b"P6", b"#", b" ", b"\t", b"\n", b"\r", b"0", b"1", b"9", b"-", b"+",
                 b"256", b"65536", b"99999999"]

# kind: (seed, mutant count)
KINDS = {
    "manifest": (1, 40),
    "config": (2, 60),
    "detections": (3, 60),
    "embeddings": (4, 60),
    "entail": (5, 100),
    "paraphrase": (6, 100),
    "simrel": (7, 100),
    "scores": (8, 100),
    "p5-train": (9, 40),
    "p5-segment": (10, 40),
    "p6-train": (11, 40),
    "p6-segment": (12, 40),
    "table-segment": (13, 60),
    "table-relations": (14, 100),
}


def mutate(rng, data: bytes) -> bytes:
    """One to three edits: overwrite a byte, insert a token, delete a few
    bytes, or copy, indent or tab-end a line."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(4)
        i = rng.randrange(len(data) + 1)
        if op == 0 and data:
            data[min(i, len(data) - 1)] = rng.randrange(256)
        elif op == 1:
            data[i:i] = rng.choice(TOKENS)
        elif op == 2 and data:
            del data[i:i + rng.randint(1, 4)]
        else:
            lines = bytes(data).split(b"\n")
            j = rng.randrange(len(lines))
            lines.insert(j, rng.choice([lines[j], b"  " + lines[j], lines[j] + b"\t"]))
            data = bytearray(b"\n".join(lines))
    return bytes(data)


def header_length(kind, data: bytes) -> int:
    """Length of the header of a valid base file: an image's up to its
    raster, a table's up to its payload."""
    if kind.startswith("table"):
        (index_len,) = struct.unpack_from("<Q", data, len(MAGIC) + 4)
        return len(MAGIC) + 4 + 8 + index_len
    return len(b"\n".join(data.split(b"\n", 3)[:3])) + 1


def mutate_binary(rng, data: bytes, head: int, tokens, overwrite_only=False) -> bytes:
    """One to three edits of a binary file whose first head bytes are its
    header, each in the header half of the time: overwrite a byte, insert
    a token, delete a few bytes, cut the file short there, or append a few
    random bytes."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = 0 if overwrite_only else rng.randrange(5)
        i = rng.randrange(min(head, len(data)) + 1 if rng.random() < 0.5 else len(data) + 1)
        if op == 0 and data:  # half the time a digit, which keeps a number a number
            byte = rng.randrange(256) if rng.random() < 0.5 else rng.choice(b"0123456789")
            data[min(i, len(data) - 1)] = byte
        elif op == 1:
            data[i:i] = rng.choice(tokens)
        elif op == 2:
            del data[i:i + rng.randint(1, 4)]
        elif op == 3:
            del data[i:]
        else:
            data += bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
    return bytes(data)


def reseal(data: bytes) -> bytes:
    """The table bytes with their trailing CRC recomputed, so that an edit
    reaches the checks behind it."""
    body = data[:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def mutant(kind, rng, base: bytes) -> bytes:
    if kind.startswith(("p5", "p6")):
        return mutate_binary(rng, base, header_length(kind, base), HEADER_TOKENS)
    if kind.startswith("table"):
        # half the mutants only overwrite bytes, anywhere, and recompute the
        # CRC, so they reach every check behind it; the CRC still catches
        # most others
        overwrite = rng.random() < 0.5
        head = len(base) if overwrite else header_length(kind, base)
        data = mutate_binary(rng, base, head, TOKENS, overwrite)
        return reseal(data) if overwrite or rng.random() < 0.5 else data
    return mutate(rng, base)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Base inputs of every kind, plus the tables they run against."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", str(root / "scene"), "--count", "2", "--test-count", "1",
                 "--size", "32", "--seed", "1", "--phrase", "round object"]) == 0
    texts = {
        "manifest": "# training boxes\n\n" + (root / "scene" / "manifest.txt").read_text(),
        "config": CONFIG,
        "detections": DETECTIONS,
        "embeddings": EMBEDDINGS,
        "entail": ENTAIL,
        "paraphrase": PARAPHRASE,
        "simrel": SIMREL,
        "scores": SCORES,
    }
    for kind, text in texts.items():
        (root / f"base.{kind}").write_bytes(text.encode())
    assert main(["train", str(root / "base.manifest"), str(root / "t.spt"),
                 "--config", str(root / "base.config")]) == 0
    relations_table = SegmentPhraseTable()
    for phrase, vector in (("a", [1.0, 0.1]), ("b", [0.6, 0.8]), ("c", [0.1, 1.0])):
        relations_table.add_exemplar(
            phrase, ExemplarMask(phrase, 1.0, np.array([1]), np.array(vector))
        )
    save_table(relations_table, root / "r.spt")
    # 1, 2 and 3 exemplars a phrase with 60-entry descriptors, the length
    # `train` writes: most of the file is payload, so byte mutants reach
    # the stacked cosine blocks of every exemplar-count pair
    mixed = SegmentPhraseTable()
    rng = np.random.default_rng(14)
    for phrase, count in (("a", 1), ("b", 2), ("c", 3)):
        for i in range(count):
            mixed.add_exemplar(phrase, ExemplarMask(f"{phrase}{i}", 1.0 - i / 4, np.array([1]),
                                                    rng.random(60) + 0.05))
    save_table(mixed, root / "mixed.spt")
    grey = load_image(root / "scene" / "train_000.pgm").data
    save_image(Image(32, 32, 3, np.concatenate([grey, grey / 2, 1 - grey], axis=2)),
               root / "scene" / "train_000.ppm")
    bases = {
        "p5-train": root / "scene" / "train_000.pgm",
        "p5-segment": root / "scene" / "test_000.pgm",
        "p6-train": root / "scene" / "train_000.ppm",
        "p6-segment": root / "scene" / "train_000.ppm",
        "table-segment": root / "t.spt",
        "table-relations": root / "mixed.spt",
    }
    for kind, path in bases.items():
        (root / f"base.{kind}").write_bytes(path.read_bytes())
    return root


def command(kind, path, world, out):
    """argv of the command that reads `path` as input `kind`, and the
    files it writes."""
    base = {k: str(world / f"base.{k}") for k in KINDS}
    base[kind] = str(path)
    if kind.endswith("-train"):
        # the group's first image is the mutant
        manifest = path.with_name(f"{path.name}.manifest")
        manifest.write_text((world / "base.manifest").read_text().replace(
            str(world / "scene" / "train_000.pgm"), str(path), 1))
        return ["train", str(manifest), f"{out}.spt", "--config", base["config"]], [f"{out}.spt"]
    if kind.endswith("-segment"):
        image = base[kind] if kind.startswith("p") else str(world / "scene" / "test_000.pgm")
        table = base[kind] if kind.startswith("table") else str(world / "t.spt")
        return ["segment", image, base["detections"], table, base["embeddings"], f"{out}.pgm",
                "--config", base["config"]], [f"{out}.pgm"]
    if kind == "table-relations":
        return ["relations", "entail", base["entail"], f"{out}.csv", "--table", base[kind],
                "--graph"], [f"{out}.csv", f"{out}.curve.csv"]
    if kind == "manifest":
        return ["train", base["manifest"], f"{out}.spt", "--config", base["config"]], [
            f"{out}.spt"]
    if kind in ("config", "detections", "embeddings"):
        return ["segment", str(world / "scene" / "test_000.pgm"), base["detections"],
                str(world / "t.spt"), base["embeddings"], f"{out}.pgm",
                "--config", base["config"]], [f"{out}.pgm"]
    if kind == "scores":
        return ["relations", "entail", base["entail"], f"{out}.csv", "--graph",
                "--scores", base["scores"]], [f"{out}.csv"]
    graph = ["--graph"] if kind == "entail" else []
    return ["relations", kind, base[kind], f"{out}.csv", "--table",
            str(world / "r.spt"), *graph], [f"{out}.csv", f"{out}.curve.csv"]


@pytest.mark.parametrize("kind", list(KINDS))
def test_mutated_input_exits_cleanly(kind, world, tmp_path, capsys):
    seed, count = KINDS[kind]
    rng = random.Random(seed)
    base = (world / f"base.{kind}").read_bytes()
    path = tmp_path / f"input.{kind}"
    codes = []
    for n in range(count + 1):  # mutant 0 is the valid base file
        data = mutant(kind, rng, base) if n else base
        path.write_bytes(data)
        argv, outputs = command(kind, path, world, tmp_path / f"out{n}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001  (any escape breaks the contract)
                pytest.fail(f"mutant {n} {data!r}: {type(exc).__name__}: {exc}")
        captured = capsys.readouterr()
        context = f"mutant {n} {data!r}: exit {code}, stderr {captured.err!r}"
        assert not caught, f"{context}: warnings {[str(w.message) for w in caught]}"
        assert code in (0, 2, 3), context
        lines = captured.err.split("\n")
        assert lines.pop() == "", context  # each line ends with a newline
        assert all(line.startswith("segphrase: ") for line in lines), context
        if code:
            assert len(lines) == 1 and captured.out == "", context
            assert not any(os.path.exists(o) for o in outputs), context
        else:
            assert len(lines) <= 1, context  # at most segment's notice
        codes.append(code)
    assert codes[0] == 0
    # the mutants reach both outcomes, so the contract is tested on each
    assert 0 in codes[1:] and 2 in codes[1:], codes
