"""Command-line surface: train, segment, relations, synth.

All randomness flows from --seed; identical inputs and seed produce
byte-identical artifacts. Exit codes: 0 success, 1 usage, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shlex
import sys

from . import evaluation, relations
from .config import Config, load_config
from .errors import DataError, Error, NumericalError, open_text
from .imaging import (
    extract_features,
    compute_superpixels,
    labels_to_mask,
    load_image,
    save_image,
    save_mask_pgm,
)
from .latent import em_learn, make_instance
from .linguistics import load_embeddings, parse_detections, semantic_segment
from .spt import (
    ExemplarMask,
    PhraseKey,
    SegmentPhraseTable,
    load_table,
    normalize_phrase,
    save_table,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_common(parser):
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, help="master RNG seed")


def _add_lambda(parser):
    parser.add_argument("--lambda", dest="lam", type=float, help="pairwise scale")


def _resolve_config(args) -> Config:
    """The --config file (or the defaults) with every Config field given
    as a flag on the command line replaced."""
    config = load_config(args.config) if args.config else Config()
    fields = {f.name for f in dataclasses.fields(Config)}
    flags = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    return dataclasses.replace(config, **flags)


def build_parser() -> _Parser:
    parser = _Parser(prog="segphrase", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="learn models from a box-annotated manifest")
    _add_common(p)
    _add_lambda(p)
    p.add_argument("--k", dest="gmm_k", type=int, help="mixture components per model side")
    p.add_argument("manifest", help="lines: phrase_quoted component image x0 y0 x1 y1")
    p.add_argument("out_table", help="output table file")

    p = sub.add_parser("segment", help="segment one image with table + embeddings")
    _add_common(p)
    _add_lambda(p)
    p.add_argument("image", help="PGM/PPM image to segment")
    p.add_argument("detections", help="lines: phrase_quoted x0 y0 x1 y1 score")
    p.add_argument("table", help="trained table file")
    p.add_argument("embeddings", help="word-vector text file")
    p.add_argument("out_mask", help="output 0/255 PGM mask")

    p = sub.add_parser("relations", help="score phrase pairs from a table")
    _add_common(p)
    p.add_argument("mode", choices=("entail", "paraphrase", "simrel"))
    p.add_argument("dataset", help="tab-separated gold file (not read with --scores)")
    p.add_argument("out_csv", help="per-pair output CSV")
    p.add_argument("--table", help="trained table with exemplars")
    p.add_argument("--scores", help="score-matrix file (entail --graph only)")
    p.add_argument("--graph", action="store_true", help="solve the joint edge selection")
    p.add_argument("--ilp-lambda", dest="ilp_lambda", type=float, help="edge sparsity penalty")
    p.add_argument("--tau", dest="paraphrase_tau", type=float, help="paraphrase threshold")

    scene = evaluation.SceneConfig  # the synth defaults
    p = sub.add_parser("synth", help="generate synthetic scenes and manifests")
    _add_common(p)
    p.add_argument("out_dir", help="directory for scenes and manifests")
    p.add_argument("--count", type=int, default=5, help="training scenes")
    p.add_argument("--test-count", type=int, default=5, help="held-out scenes")
    p.add_argument("--size", type=int, default=scene.size)
    p.add_argument("--noise", type=float, default=scene.noise)
    p.add_argument("--fg", type=float, default=scene.fg_texture)
    p.add_argument("--bg", type=float, default=scene.bg_texture)
    p.add_argument("--shape", default=scene.fg_shape, choices=evaluation.SHAPES)
    p.add_argument("--phrase", default="synthetic object")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "train": cmd_train,
        "segment": cmd_segment,
        "relations": cmd_relations,
        "synth": cmd_synth,
    }[args.command]
    try:
        return handler(args)
    except (DataError, OSError) as exc:
        print(f"segphrase: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"segphrase: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Error as exc:
        print(f"segphrase: error: {exc}", file=sys.stderr)
        return EXIT_DATA


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def parse_train_manifest(path):
    """Grouped manifest: 'phrase_quoted component image-path x0 y0 x1 y1'.

    Lines group by PhraseKey, so spellings that normalize alike share one
    group; each group keeps its first spelling. Returns
    [((phrase, component), [(image_path, box), ...])] preserving
    first-appearance group order.
    """
    groups: dict[PhraseKey, tuple[str, list]] = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parts = shlex.split(line)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad quoting ({exc})") from exc
            if len(parts) != 7:
                raise DataError(
                    f"{path}:{lineno}: expected 'phrase component image x0 y0 x1 y1'"
                )
            try:
                component = int(parts[1])
                box = tuple(int(v) for v in parts[3:7])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-integer field") from exc
            try:
                key = PhraseKey.make(parts[0], component)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            groups.setdefault(key, (parts[0], []))[1].append((parts[2], box))
    if not groups:
        raise DataError(f"{path}: manifest is empty")
    return [
        ((phrase, key.component_id), items) for key, (phrase, items) in groups.items()
    ]


def _load_instance(path, box, target):
    img = load_image(path)
    graph = extract_features(img, compute_superpixels(img, target))
    return img, make_instance(graph, box)


def cmd_train(args) -> int:
    config = _resolve_config(args)
    groups = parse_train_manifest(args.manifest)
    table = SegmentPhraseTable(k_exemplars=config.k_exemplars)

    # every image loads before any group trains, so a bad image fails
    # before anything reaches stdout
    loaded = [
        [_load_instance(path, box, config.superpixel_target) for path, box in items]
        for _key, items in groups
    ]

    for group_index, ((phrase, component), items) in enumerate(groups):
        pairs = loaded[group_index]
        instances = [inst for _img, inst in pairs]
        model = em_learn(
            instances, dataclasses.replace(config, seed=config.seed + group_index)
        )
        model.info.phrase = phrase
        model.info.component_id = component
        key = PhraseKey.make(phrase, component)
        table.insert(key, model)
        for (image_path, _box), (img, inst), labels in zip(
            items, pairs, model.info.labelings
        ):
            descriptor = relations.exemplar_descriptor(
                img, labels_to_mask(labels, inst.graph.smap)
            )
            table.add_exemplar(
                phrase,
                ExemplarMask(image_path, 1.0, labels, descriptor),
            )
        log = {
            "phrase": key.phrase,
            "component": component,
            "instances": len(instances),
            "iterations": model.info.iterations,
            "final_energy": model.info.energy_history[-1]
            if model.info.energy_history
            else None,
        }
        print(json.dumps(log, sort_keys=True))
    save_table(table, args.out_table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------

def cmd_segment(args) -> int:
    config = _resolve_config(args)
    img = load_image(args.image)
    detections = parse_detections(args.detections)
    table = load_table(args.table)
    embeddings = load_embeddings(args.embeddings)
    result = semantic_segment(img, detections, table, embeddings, config)
    save_mask_pgm(result.mask, args.out_mask)
    if result.report and not result.labels.any():
        # the default lambda's near-uniform Potts weights can wash out the
        # pooled detections; the mask is kept, but not silently
        print(
            f"segphrase: notice: {len(result.report)} detection(s) above the "
            f"threshold fused to an all-background mask (lambda {config.lam!r})",
            file=sys.stderr,
        )
    for row in result.report:
        print(
            json.dumps(
                {
                    "phrase": row.phrase,
                    "score_before": row.score_before,
                    "score_after": row.score_after,
                },
                sort_keys=True,
            )
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

def _curve_path(out_csv: str) -> str:
    stem, dot, ext = out_csv.rpartition(".")
    return f"{stem}.curve.{ext}" if dot else f"{out_csv}.curve"


def _solve_graph(scores, lam):
    """Edge selection, exact up to relations.EXACT_NODE_LIMIT phrases and
    greedy beyond."""
    mode = "exact" if len(scores) <= relations.EXACT_NODE_LIMIT else "greedy"
    return relations.solve_entailment_graph(scores, lam, mode)


def cmd_relations(args) -> int:
    config = _resolve_config(args)
    if args.scores:
        if args.mode != "entail" or not args.graph:
            raise DataError("--scores requires mode 'entail' with --graph")
        return _relations_from_scores(args, config)
    if not args.table:
        raise DataError("relations needs --table (or --scores with --graph)")
    table = load_table(args.table)
    dataset = relations.parse_relations_dataset(
        args.dataset, "simrel" if args.mode == "simrel" else "pairs"
    )
    # each distinct spelling is normalized once
    normalized: dict[str, str] = {}

    def normal(cell: str) -> str:
        if cell not in normalized:
            normalized[cell] = normalize_phrase(cell)
        return normalized[cell]

    # phrases in order of first appearance; each row becomes its phrase
    # indices (x, y) or (x, y, z)
    universe: dict[str, int] = {}
    rows = [
        tuple(universe.setdefault(normal(p), len(universe)) for p in row[:-1])
        for row in dataset
    ]
    phrases = list(universe)
    exemplars = [relations.exemplars_from_table(table, p) for p in phrases]
    graph = args.mode == "entail" and args.graph
    n = len(phrases)
    pairs = (
        [(i, j) for i in range(n) for j in range(i + 1, n)]
        if graph
        else [(row[0], other) for row in rows for other in row[1:]]
    )
    scores = relations.score_matrix(exemplars, pairs)
    decisions = _solve_graph(scores, config.ilp_lambda) if graph else None
    s = scores.tolist()  # Python floats: repr prints them as before

    lines = []
    scored = []
    if args.mode == "simrel":
        header = "x,y,z,score_xy,score_xz,choice\n"
        for (x, y, z, gold), (i, j, k) in zip(dataset, rows):
            s_y, s_z = s[i][j], s[i][k]
            choice = phrases[j] if s_y >= s_z else phrases[k]
            lines.append(f"{x},{y},{z},{s_y!r},{s_z!r},{choice}\n")
            # declaration: positive margin declares y, gold says which is right
            scored.append((s_y - s_z, normal(gold) == phrases[j]))
    else:
        header = "x,y,score,decision\n"
        for (x, y, gold), (i, j) in zip(dataset, rows):
            if args.mode == "paraphrase":
                score = relations.paraphrase_margin(s[i][j], config.paraphrase_tau)
                decision, truth = score >= 0, gold == "paraphrase"
            else:
                score = s[i][j]
                # the solver's diagonal is 0: a phrase never entails itself
                decision = decisions[i, j] if graph else score > 0
                truth = gold == "entails"
            lines.append(f"{x},{y},{score!r},{int(decision)}\n")
            scored.append((score, truth))

    with open(args.out_csv, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(lines)
    evaluation.write_curve_csv(
        evaluation.declaration_curve(scored), _curve_path(args.out_csv)
    )
    return EXIT_OK


def _relations_from_scores(args, config: Config) -> int:
    scores = relations.load_score_matrix(args.scores)
    decisions = _solve_graph(scores, config.ilp_lambda)
    lines = ["x,y,score,decision\n"]
    # Python floats and ints: repr prints them as float(scores[i, j]) would
    for i, (row, picked) in enumerate(zip(scores.tolist(), decisions.tolist())):
        lines.extend(
            f"{i},{j},{s!r},{d}\n" for j, (s, d) in enumerate(zip(row, picked)) if j != i
        )
    with open(args.out_csv, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    config = _resolve_config(args)
    if args.count < 0 or args.test_count < 0:
        raise DataError("bad synth parameters: scene counts must be nonnegative")
    try:
        # checks every parameter that fails for all seeds before the first write
        scene_base = evaluation.SceneConfig(
            size=args.size,
            fg_shape=args.shape,
            fg_texture=args.fg,
            bg_texture=args.bg,
            noise=args.noise,
            seed=config.seed,
        )
    except ValueError as exc:
        raise DataError(f"bad synth parameters: {exc}") from exc
    os.makedirs(args.out_dir, exist_ok=True)
    manifest_lines = []
    for split, count, offset in (
        ("train", args.count, 0),
        ("test", args.test_count, args.count),
    ):
        for i in range(count):
            scene_cfg = dataclasses.replace(scene_base, seed=config.seed + offset + i)
            try:
                scene = evaluation.make_scene(scene_cfg)
            except ValueError as exc:
                raise DataError(f"bad synth parameters: {exc}") from exc
            img_path = os.path.join(args.out_dir, f"{split}_{i:03d}.pgm")
            gt_path = os.path.join(args.out_dir, f"{split}_{i:03d}_gt.pgm")
            save_image(scene.image, img_path)
            save_mask_pgm(scene.gt_mask, gt_path)
            if split == "train":
                x0, y0, x1, y1 = scene.box
                manifest_lines.append(
                    f'"{args.phrase}" 0 {img_path} {x0} {y0} {x1} {y1}\n'
                )
    with open(os.path.join(args.out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(manifest_lines)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
