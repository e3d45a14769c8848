"""Seeded inputs, op lists and output checks of the three workloads.

Every input is generated here from the workload seed, through the
``segphrase synth`` and ``segphrase train`` commands or as plain text
files; the program receives nothing else. Run as a script, this module
performs one set-up into an empty directory (``run.py`` times that):

    python3 perfbench/workloads.py WORKLOAD SEED DIR [--spans FILE]

All paths handed to the program are relative to the set-up directory, so
repeated set-ups produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shlex
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

WORKLOADS = ("train", "segment", "relations")

# The shared table: 3 shapes x 4 texture words. "bright" and "light" are
# synonyms (same appearance); "mixed" objects are bright or dim, so a
# bright or dim phrase visually entails the mixed phrase of its shape.
SHAPES = {"round": "ellipse", "square": "rect", "blobby": "blob"}
TEXTURES = {"bright": (0.75,), "light": (0.75,), "dim": (0.5,), "mixed": (0.75, 0.5)}
OOV_WORD = "light"  # left out of the word vectors
PHRASES = [f"{t} {s}" for s in SHAPES for t in TEXTURES]
BACKGROUND = 0.25
TABLE_SCENES = 2        # training scenes per table phrase
TABLE_SIZE = 48         # px
TABLE_TARGET = 100      # superpixels, the train scenes' density at this size
SEGMENT_SIZE = 256      # px; segmented at superpixel target 800
SEGMENT_TARGET = 800
SEGMENT_IMAGES = 4

# The train workload: a few phrase groups of noisy, low-contrast scenes.
TRAIN_GROUPS = {"round object": "ellipse", "square object": "rect"}
TRAIN_SCENES = 8
TRAIN_HELD_OUT = 3
TRAIN_SCENE = dict(size=64, noise=0.12, fg=0.62, bg=0.25)


def _seed_base(seed, slot):
    """Distinct synth seeds per generated scene set."""
    return seed * 1000 + slot * 10


def cli_main(argv):
    """Run one command in-process, stdout captured; returns (code, stdout)."""
    from segphrase import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _run(argv):
    """A set-up or quality-probe command, which must succeed."""
    code, _ = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"command failed with exit code {code}: {argv}")


def _synth(out_dir, phrase, shape, fg, seed, count, test_count, size, noise, bg):
    _run([
        "synth", out_dir, "--count", str(count), "--test-count", str(test_count),
        "--size", str(size), "--noise", repr(noise), "--fg", repr(fg),
        "--bg", repr(bg), "--shape", shape, "--phrase", phrase,
        "--seed", str(seed),
    ])
    with open(os.path.join(out_dir, "manifest.txt")) as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_train(seed):
    manifest = []
    for g, (phrase, shape) in enumerate(TRAIN_GROUPS.items()):
        manifest.append(_synth(
            f"train{g}", phrase, shape, TRAIN_SCENE["fg"], _seed_base(seed, g),
            TRAIN_SCENES, TRAIN_HELD_OUT, TRAIN_SCENE["size"],
            TRAIN_SCENE["noise"], TRAIN_SCENE["bg"],
        ))
    _write("train_manifest.txt", "".join(manifest))


def _write_vectors(path, vectors):
    dim = len(next(iter(vectors.values())))
    lines = [f"{len(vectors)} {dim}\n"]
    for word, vec in vectors.items():
        lines.append(word + " " + " ".join(repr(float(v)) for v in vec) + "\n")
    _write(path, "".join(lines))


def setup_table(seed):
    """Synthesize the 12-phrase corpus and train the shared table."""
    manifest = []
    for p, phrase in enumerate(PHRASES):
        texture, shape_word = phrase.split()
        fgs = TEXTURES[texture]
        per_fg = TABLE_SCENES // len(fgs)
        for f, fg in enumerate(fgs):
            manifest.append(_synth(
                f"table{p}_{f}", phrase, SHAPES[shape_word], fg,
                _seed_base(seed, 10 + 2 * p + f), per_fg, 0, TABLE_SIZE, 0.05,
                BACKGROUND,
            ))
    _write("table_manifest.txt", "".join(manifest))
    _write("table.cfg", f"superpixel_target = {TABLE_TARGET}\n")
    _run(["train", "table_manifest.txt", "table.spt", "--config", "table.cfg",
          "--seed", str(seed)])


def _box_around(rng, box, size):
    """A detector box around the object: each side pushed out by 5-15 %
    of the object's extent, so the box never clips the object."""
    x0, y0, x1, y1 = box
    w, h = x1 - x0, y1 - y0
    m = rng.uniform(0.05, 0.15, 4) * np.array([w, h, w, h])
    grown = np.rint(np.array([x0 - m[0], y0 - m[1], x1 + m[2], y1 + m[3]]))
    return tuple(int(v) for v in np.clip(grown, 0, size))


def _box_elsewhere(rng, box, size):
    """A random box that does not overlap the object's box."""
    while True:
        w, h = (int(v) for v in rng.integers(size // 8, size // 3, 2))
        x0 = int(rng.integers(0, size - w))
        y0 = int(rng.integers(0, size - h))
        if x0 >= box[2] or x0 + w <= box[0] or y0 >= box[3] or y0 + h <= box[1]:
            return (x0, y0, x0 + w, y0 + h)


def _detections(rng, true_phrase, box, size):
    """About 40 detections: the true phrase near the object at high score,
    the phrases of its shape whose appearance includes the object's (the
    synonym, the mixed phrase) near it, and low-score phrases of the other
    shapes elsewhere."""
    texture, shape = true_phrase.split()
    rows = []
    for _ in range(6):
        rows.append((true_phrase, _box_around(rng, box, size), rng.uniform(0.8, 1.0)))
    fg = TEXTURES[texture][0]
    related = [f"{t} {shape}" for t in TEXTURES if t != texture and fg in TEXTURES[t]]
    for phrase in related:
        for _ in range(3):
            rows.append((phrase, _box_around(rng, box, size), rng.uniform(0.4, 0.7)))
    others = [p for p in PHRASES if p.split()[1] != shape]
    for phrase in others:
        for _ in range(3):
            rows.append((phrase, _box_elsewhere(rng, box, size), rng.uniform(0.02, 0.08)))
    return "".join(
        f'"{p}" {b[0]} {b[1]} {b[2]} {b[3]} {s!r}\n' for p, b, s in rows
    )


def _structured_vectors(rng):
    """Shape words dominate and are near-orthogonal, so phrases that share a
    shape cluster together; the OOV texture word is left out."""
    dim = 8
    vectors = {}
    for i, shape in enumerate(SHAPES):
        vec = 0.1 * rng.standard_normal(dim)
        vec[i] += 3.0
        vectors[shape] = vec
    for texture in TEXTURES:
        if texture != OOV_WORD:
            vec = 0.1 * rng.standard_normal(dim)
            vec[3:] += 0.5 * rng.standard_normal(dim - 3)
            vectors[texture] = vec
    return vectors


def setup_segment(seed):
    setup_table(seed)
    rng = np.random.default_rng([seed, 1])
    _write_vectors("vectors.txt", _structured_vectors(rng))
    _write("segment.cfg", f"superpixel_target = {SEGMENT_TARGET}\n")
    shapes = list(SHAPES)
    for i in range(SEGMENT_IMAGES):  # every seed: the same shape and texture mix
        shape = shapes[i % len(shapes)]
        texture = ("bright", "dim")[(seed + i) % 2]
        phrase = f"{texture} {shape}"
        _synth(f"scene{i}", phrase, SHAPES[shape], TEXTURES[texture][0],
               _seed_base(seed, 50 + i), 0, 1, SEGMENT_SIZE, 0.05, BACKGROUND)
        box = _gt_box(f"scene{i}/test_000_gt.pgm")
        _write(f"scene{i}/dets.txt", _detections(rng, phrase, box, SEGMENT_SIZE))


def _relations_gold(x, y):
    tx, sx = x.split()
    ty, sy = y.split()
    entails = sx == sy and ty == "mixed" and tx != "mixed"
    para = sx == sy and x != y and {tx, ty} == {"bright", "light"}
    return entails, para


def setup_relations(seed):
    setup_table(seed)
    rng = np.random.default_rng([seed, 2])
    pairs = [(x, y) for x in PHRASES for y in PHRASES if x != y]
    six = [PHRASES[i] for i in sorted(rng.choice(len(PHRASES), 6, replace=False))]
    for name, phrases in (("entail6", six), ("entail12", PHRASES)):
        _write(f"{name}.tsv", "".join(
            f"{x}\t{y}\t{'entails' if _relations_gold(x, y)[0] else 'not-entails'}\n"
            for x in phrases for y in phrases if x != y
        ))
    _write("paraphrase.tsv", "".join(
        f"{x}\t{y}\t{'paraphrase' if _relations_gold(x, y)[1] else 'not-paraphrase'}\n"
        for x, y in pairs
    ))
    triples = []
    for x in PHRASES:
        texture, shape = x.split()
        if texture == "mixed":
            continue
        y = f"mixed {shape}"
        for _ in range(2):
            z = rng.choice([p for p in PHRASES if p.split()[1] != shape])
            triples.append(f"{x}\t{y}\t{z}\t{y}\n")
    _write("simrel.tsv", "".join(triples))
    n = 40
    scores = np.where(rng.random((n, n)) < 0.1, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    np.fill_diagonal(scores, 0.0)
    _write("scores40.txt", f"{n}\n" + "".join(
        " ".join(repr(float(v)) for v in row) + "\n" for row in scores
    ))


SETUP = {"train": setup_train, "segment": setup_segment, "relations": setup_relations}


# ---------------------------------------------------------------------------
# ops: (name, argv, output files); paths relative to the set-up directory
# ---------------------------------------------------------------------------

def ops(workload):
    if workload == "train":
        return [("train", ["train", "train_manifest.txt", "out.spt"], ["out.spt"])]
    if workload == "segment":
        return [
            (f"segment{i}",
             ["segment", f"scene{i}/test_000.pgm", f"scene{i}/dets.txt", "table.spt",
              "vectors.txt", f"out{i}.pgm", "--config", "segment.cfg"],
             [f"out{i}.pgm"])
            for i in range(SEGMENT_IMAGES)
        ]
    table = ["--table", "table.spt"]
    return [
        ("entail6", ["relations", "entail", "entail6.tsv", "entail6.csv", *table, "--graph"],
         ["entail6.csv", "entail6.curve.csv"]),
        ("entail12", ["relations", "entail", "entail12.tsv", "entail12.csv", *table, "--graph"],
         ["entail12.csv", "entail12.curve.csv"]),
        ("paraphrase", ["relations", "paraphrase", "paraphrase.tsv", "paraphrase.csv", *table],
         ["paraphrase.csv", "paraphrase.curve.csv"]),
        ("simrel", ["relations", "simrel", "simrel.tsv", "simrel.csv", *table],
         ["simrel.csv", "simrel.curve.csv"]),
        ("scores40", ["relations", "entail", "entail12.tsv", "scores40.csv", "--graph",
                      "--scores", "scores40.txt"],
         ["scores40.csv"]),
    ]


# ---------------------------------------------------------------------------
# output checks and quality
# ---------------------------------------------------------------------------

def read_pgm(path):
    """Binary PGM in the layout segphrase writes: ``P5\\nW H\\n255\\n``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, dims, maxval, rest = blob.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = (int(v) for v in dims.split())
    if len(rest) != w * h:
        raise ValueError(f"{path}: expected {w * h} pixel bytes, found {len(rest)}")
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w)


def _gt_box(path):
    gt = read_pgm(path) > 0
    rows = np.flatnonzero(gt.any(axis=1))
    cols = np.flatnonzero(gt.any(axis=0))
    return (int(cols[0]), int(rows[0]), int(cols[-1]) + 1, int(rows[-1]) + 1)


def _mask_quality(pairs):
    """(mean Jaccard, mean pixel accuracy, share with IoU >= 0.5)."""
    js, ps = [], []
    for pred_path, gt_path in pairs:
        pred = read_pgm(pred_path) > 0
        gt = read_pgm(gt_path) > 0
        if pred.shape != gt.shape:
            raise ValueError(f"{pred_path}: mask shape {pred.shape} != {gt.shape}")
        union = np.logical_or(pred, gt).sum()
        js.append(float(np.logical_and(pred, gt).sum() / union) if union else 1.0)
        ps.append(float((pred == gt).mean()))
    return float(np.mean(js)), float(np.mean(ps)), float(np.mean([j >= 0.5 for j in js]))


def transitivity_violations(decisions):
    """Ordered distinct triples with W_xy + W_yz - W_xz > 1 (zero diagonal)."""
    w = np.asarray(decisions, dtype=np.int64)
    paths = w @ w
    np.fill_diagonal(paths, 0)
    return int((paths * (1 - w)).sum())


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [line.split(",") for line in lines[1:]]


def _decision_matrix(rows):
    names = sorted({r[0] for r in rows} | {r[1] for r in rows})
    index = {p: i for i, p in enumerate(names)}
    w = np.zeros((len(names), len(names)), dtype=np.int64)
    for r in rows:
        w[index[r[0]], index[r[1]]] = int(r[3])
    return w


def check_op(name):
    """Workload-specific validity check of one op's outputs; returns an
    error message or None. A mask must be a 0/255 PGM of the image's size;
    every ``--graph`` decision matrix must be transitive."""
    try:
        if name.startswith("segment"):
            i = name[len("segment"):]
            mask = read_pgm(f"out{i}.pgm")
            if mask.shape != read_pgm(f"scene{i}/test_000_gt.pgm").shape:
                return f"{name}: mask size differs from the image"
            if not np.isin(mask, (0, 255)).all():
                return f"{name}: mask values other than 0 and 255"
        if name in ("entail6", "entail12", "scores40"):
            v = transitivity_violations(_decision_matrix(_read_csv(f"{name}.csv")))
            if v:
                return f"{name}: {v} transitivity violations"
    except (ValueError, IndexError) as exc:
        return f"{name}: malformed output: {exc}"
    return None


def quality(workload):
    """(mean_jaccard, mean_precision, decision_accuracy) of the ops'
    outputs, running the probe commands where the workload needs them."""
    if workload == "segment":
        return _mask_quality(
            (f"out{i}.pgm", f"scene{i}/test_000_gt.pgm") for i in range(SEGMENT_IMAGES)
        )
    if workload == "train":
        scenes = [
            (f"train{g}/test_{i:03d}.pgm", f"train{g}/test_{i:03d}_gt.pgm", phrase)
            for g, phrase in enumerate(TRAIN_GROUPS) for i in range(TRAIN_HELD_OUT)
        ]
        return _probe(scenes, "out.spt")
    with open("table_manifest.txt") as fh:
        rows = [shlex.split(line) for line in fh]
    scenes = [(img, img[:-len(".pgm")] + "_gt.pgm", phrase)
              for phrase, _component, img, *_box in rows]
    jaccard, precision, _ = _probe(scenes, "table.spt", "--config", "table.cfg")
    return jaccard, precision, _decision_accuracy()


def _probe(scenes, table, *options):
    """Segment each (image, ground truth, phrase) scene with ``table`` and
    one whole-image detection of its phrase; returns ``_mask_quality``.

    At the default --lambda 0.05 every pairwise weight of the fused cut is
    about 1 whatever the boundary strength, and the cut of one small mask
    drops to all-background on about 4 in 10 of the 64 px train scenes;
    --lambda 1 lets the cut follow object edges, so the score rates the
    trained models.
    """
    words = sorted({w for _img, _gt, phrase in scenes for w in phrase.split()})
    _write_vectors("probe_vectors.txt", {w: (1.0,) for w in words})
    pairs = []
    for n, (image, gt, phrase) in enumerate(scenes):
        h, w = read_pgm(gt).shape
        _write("probe_dets.txt", f'"{phrase}" 0 0 {w} {h} 1.0\n')
        out = f"probe{n}.pgm"
        _run(["segment", image, "probe_dets.txt", table, "probe_vectors.txt", out,
              "--lambda", "1", *options])
        pairs.append((out, gt))
    return _mask_quality(pairs)


def _decision_accuracy():
    """Share of gold pairs (both entail ops, paraphrase) and simrel triples
    whose decision matches the gold label."""
    correct = total = 0
    for name, kind in (("entail6", 0), ("entail12", 0), ("paraphrase", 1)):
        for x, y, _score, decision in _read_csv(f"{name}.csv"):
            correct += _relations_gold(x, y)[kind] == (decision == "1")
            total += 1
    with open("simrel.tsv") as fh:
        gold_choice = [line.rstrip("\n").split("\t")[3] for line in fh]
    choices = [r[5] for r in _read_csv("simrel.csv")]
    correct += sum(c == g for c, g in zip(choices, gold_choice))
    return correct / (total + len(gold_choice))


def main():
    parser = argparse.ArgumentParser(description="one benchmark set-up")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("dir")
    parser.add_argument("--spans", help="trace the set-up; write spans here")
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    import segphrase.cli  # noqa: F401  (import cost belongs to set-up)

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    os.chdir(args.dir)
    SETUP[args.workload](args.seed)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.spans)


if __name__ == "__main__":
    main()
