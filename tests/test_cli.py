import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from entailment_oracle import is_paraphrase

import segphrase
from segphrase import cli, relations
from segphrase.cli import main, parse_train_manifest
from segphrase.config import Config, load_config
from segphrase.errors import DataError
from segphrase.gmm import GaussianMixture
from segphrase.imaging import load_image
from segphrase.latent import SegmentationModel
from segphrase.spt import (
    ExemplarMask,
    PhraseKey,
    SegmentPhraseTable,
    load_table,
    normalize_phrase,
    save_table,
)


# -- config round trip -------------------------------------------------------------

def test_config_round_trip(tmp_path):
    # every key, floats written with repr, ints as plain integers
    (tmp_path / "c.cfg").write_text(
        "lam = 0.07\n"
        "gmm_k = 3\n"
        "em_max_iters = 10\n"
        "superpixel_target = 200\n"
        "k_exemplars = 10\n"
        "ilp_lambda = 0.30000000000000004\n"
        "nms_iou = 0.5\n"
        "paraphrase_tau = 0.25\n"
        "seed = 5\n"
        "seed_shrink = 0.6\n"
        "detection_threshold = 1e-07\n"
    )
    cfg = load_config(tmp_path / "c.cfg")
    assert cfg == Config(
        lam=0.07, gmm_k=3, seed=5, paraphrase_tau=0.25,
        ilp_lambda=0.1 + 0.2, detection_threshold=1e-7,
    )
    assert type(cfg.gmm_k) is int and type(cfg.seed) is int


def test_readme_config_table_matches_config():
    # the README's "Config keys" table: one row per key, default as repr
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Config keys\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    documented = {row[0].strip("`"): row[1].strip("`") for row in rows}
    assert len(documented) == len(rows)
    assert documented == {
        f.name: repr(f.default) for f in dataclasses.fields(Config)
    }


def test_config_rejects_unknown_key(tmp_path):
    (tmp_path / "c.cfg").write_text("volume = 11\n")
    with pytest.raises(DataError):
        load_config(tmp_path / "c.cfg")


def test_config_rejects_duplicate_key(tmp_path):
    # the last value used to win silently
    (tmp_path / "c.cfg").write_text("lam = 1\n# note\nlam = 2\n")
    with pytest.raises(DataError, match=r"c\.cfg:3: duplicate config key 'lam'"):
        load_config(tmp_path / "c.cfg")


def test_config_rejects_nonpositive(tmp_path):
    for text in ("lam = -0.5\n", "seed_shrink = 2\n"):
        (tmp_path / "c.cfg").write_text(text)
        with pytest.raises(DataError, match=text.split()[0]):
            load_config(tmp_path / "c.cfg")


FLOAT_FIELDS = [f.name for f in dataclasses.fields(Config) if f.type in ("float", float)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_rejects_non_finite(name, value, tmp_path):
    (tmp_path / "c.cfg").write_text(f"{name} = {value}\n")
    with pytest.raises(DataError, match=name):
        load_config(tmp_path / "c.cfg")
    with pytest.raises(DataError, match=name):
        Config(**{name: float(value)})


def test_config_file_loaded_and_flags_override(tmp_path):
    from segphrase.cli import _resolve_config, build_parser

    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("lam = 0.2\ngmm_k = 4\nparaphrase_tau = 0.3\n")
    args = build_parser().parse_args(
        ["train", "m.txt", "out.spt", "--config", str(cfg_path), "--k", "2"]
    )
    resolved = _resolve_config(args)
    assert resolved.lam == 0.2          # from the file
    assert resolved.paraphrase_tau == 0.3
    assert resolved.gmm_k == 2          # flag wins over the file


@pytest.mark.parametrize("argv, field, value", [
    (["train", "m.txt", "o.spt", "--lambda", "0.5"], "lam", 0.5),
    (["train", "m.txt", "o.spt", "--k", "3"], "gmm_k", 3),
    (["segment", "i.pgm", "d.txt", "t.spt", "e.txt", "m.pgm", "--lambda", "0.5"], "lam", 0.5),
    (["relations", "entail", "d.tsv", "o.csv", "--ilp-lambda", "0.5"], "ilp_lambda", 0.5),
    (["relations", "paraphrase", "d.tsv", "o.csv", "--tau", "0.5"], "paraphrase_tau", 0.5),
    (["synth", "out", "--seed", "7"], "seed", 7),
])
def test_each_config_flag_reaches_its_field(argv, field, value):
    from segphrase.cli import _resolve_config, build_parser

    resolved = _resolve_config(build_parser().parse_args(argv))
    assert getattr(resolved, field) == value
    assert resolved == dataclasses.replace(Config(), **{field: value})


def test_parse_train_manifest(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text('"horse jumping" 0 a.pgm 0 0 4 4\n"horse jumping" 0 b.pgm 1 1 5 5\nplain 1 c.pgm 0 0 2 2\n')
    groups = parse_train_manifest(path)
    assert groups[0][0] == ("horse jumping", 0)
    assert len(groups[0][1]) == 2
    assert groups[1][0] == ("plain", 1)


# -- end-to-end CLI -----------------------------------------------------------------

def write_embeddings_file(path):
    path.write_text(
        "4 3\n"
        "round 1.0 0.0 0.0\n"
        "object 0.9 0.43588989435406733 0.0\n"
        "square 0.8 0.5 0.0\n"
        "stray 0.0 0.0 1.0\n"
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth corpora for two phrases plus a merged training manifest."""
    root = tmp_path_factory.mktemp("ws")
    assert main([
        "synth", str(root / "round"), "--count", "3", "--test-count", "1",
        "--size", "48", "--seed", "1", "--phrase", "round object",
    ]) == 0
    assert main([
        "synth", str(root / "square"), "--count", "3", "--test-count", "0",
        "--size", "48", "--seed", "9", "--shape", "rect",
        "--fg", "0.2", "--bg", "0.8", "--phrase", "square object",
    ]) == 0
    merged = root / "manifest.txt"
    merged.write_text(
        (root / "round" / "manifest.txt").read_text()
        + (root / "square" / "manifest.txt").read_text()
    )
    return root


def test_synth_writes_scenes_and_manifest(workspace):
    img = load_image(workspace / "round" / "train_000.pgm")
    assert img.width == 48 and img.height == 48
    gt = load_image(workspace / "round" / "train_000_gt.pgm")
    assert set(np.unique(gt.data)) <= {0.0, 1.0}
    lines = (workspace / "round" / "manifest.txt").read_text().splitlines()
    assert len(lines) == 3 and lines[0].startswith('"round object" 0 ')


def test_synth_manifest_round_trips_phrase_and_path(tmp_path):
    # a quote or backslash in the phrase and a space or quote in out_dir
    # are read back by train exactly as given
    phrase, out = 'big "red" \\car', tmp_path / "it's a dir"
    assert main(["synth", str(out), "--count", "2", "--test-count", "0",
                 "--size", "24", "--phrase", phrase]) == 0
    [((got_phrase, component), items)] = parse_train_manifest(out / "manifest.txt")
    assert (got_phrase, component) == (phrase, 0)
    assert [path for path, _box in items] == [str(out / f"train_{i:03d}.pgm") for i in (0, 1)]
    assert all(Path(path).is_file() for path, _box in items)
    # plain phrases and paths are written unquoted, as before
    assert main(["synth", str(tmp_path / "plain"), "--count", "1", "--test-count", "0",
                 "--size", "24", "--phrase", "red car"]) == 0
    line = (tmp_path / "plain" / "manifest.txt").read_text()
    assert line.startswith(f'"red car" 0 {tmp_path / "plain" / "train_000.pgm"} ')


@pytest.mark.parametrize("args", [["--phrase", "red\ncar"], ["--phrase", "red\rcar"]],
                         ids=["newline", "carriage-return"])
def test_synth_rejects_line_break_in_phrase(args, tmp_path, capsys):
    assert main(["synth", str(tmp_path / "out"), *args]) == 2
    assert not (tmp_path / "out").exists()
    assert "line break" in capsys.readouterr().err


def test_train_segment_relations_pipeline(workspace, tmp_path, capsys):
    table_path = tmp_path / "models.spt"
    rc = main([
        "train", str(workspace / "manifest.txt"), str(table_path),
        "--seed", "3", "--k", "1",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    logs = [json.loads(line) for line in captured.out.splitlines()]
    assert {log["phrase"] for log in logs} == {"round object", "square object"}
    table = load_table(table_path)
    assert len(table.query("round object")) == 1
    assert len(table.get_exemplars("round object")) == 3

    # segment a held-out scene
    emb_path = tmp_path / "emb.txt"
    write_embeddings_file(emb_path)
    det_path = tmp_path / "dets.txt"
    det_path.write_text('"round object" 8 8 40 40 1.0\n')
    mask_path = tmp_path / "mask.pgm"
    rc = main([
        "segment", str(workspace / "round" / "test_000.pgm"), str(det_path),
        str(table_path), str(emb_path), str(mask_path), "--seed", "3",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    report = [json.loads(line) for line in captured.out.splitlines()]
    assert report and report[0]["phrase"] == "round object"
    mask = load_image(mask_path)
    assert mask.width == 48

    # relations over the two trained phrases; includes a self-pair, which
    # graph mode must answer from the fixed-zero diagonal
    dataset = tmp_path / "rel.tsv"
    dataset.write_text(
        "round object\tsquare object\tentails\n"
        "square object\tround object\tnot-entails\n"
        "round object\tround object\tentails\n"
    )
    out_csv = tmp_path / "rel.csv"
    rc = main([
        "relations", "entail", str(dataset), str(out_csv),
        "--table", str(table_path), "--graph", "--seed", "3",
    ])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "x,y,score,decision"
    assert len(lines) == 4
    assert lines[3].endswith(",0.0,0")  # self-pair: zero score, diagonal decision
    assert (tmp_path / "rel.curve.csv").exists()

    # the same pairs, with paraphrase gold labels
    paraphrases = tmp_path / "para.tsv"
    paraphrases.write_text(
        "round object\tsquare object\tnot-paraphrase\n"
        "square object\tround object\tnot-paraphrase\n"
        "round object\tround object\tparaphrase\n"
    )
    rc = main([
        "relations", "paraphrase", str(paraphrases), str(out_csv),
        "--table", str(table_path), "--tau", "0.5",
    ])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "x,y,score,decision" and len(lines) == 4
    for line in lines[1:]:
        x, y, score, decision = line.split(",")
        ex, ey = (relations.exemplars_from_table(table, p) for p in (x, y))
        assert float(score) == relations.paraphrase_margin(
            relations.entail_score(ex, ey), 0.5
        )
        assert int(decision) == int(is_paraphrase(ex, ey, 0.5))

    simrel = tmp_path / "sim.tsv"
    simrel.write_text("round object\tsquare object\tround object\tsquare object\n")
    rc = main([
        "relations", "simrel", str(simrel), str(out_csv),
        "--table", str(table_path),
    ])
    assert rc == 0
    assert out_csv.read_text().splitlines()[0] == "x,y,z,score_xy,score_xz,choice"


def test_relations_from_score_matrix(tmp_path):
    scores = tmp_path / "scores.txt"
    scores.write_text("3\n0 0.9 -0.05\n-0.9 0 0.8\n0.05 -0.8 0\n")
    out_csv = tmp_path / "graph.csv"
    rc = main([
        "relations", "entail", str(scores), str(out_csv),
        "--scores", str(scores), "--graph", "--ilp-lambda", "0.1",
    ])
    assert rc == 0
    decisions = {}
    for line in out_csv.read_text().splitlines()[1:]:
        x, y, _score, w = line.split(",")
        decisions[(int(x), int(y))] = int(w)
    assert decisions[(0, 1)] == 1 and decisions[(1, 2)] == 1 and decisions[(0, 2)] == 1


# -- error paths -------------------------------------------------------------------

def test_missing_image_exits_2(tmp_path, capsys):
    manifest = tmp_path / "m.txt"
    manifest.write_text('"p q" 0 /nonexistent/img.pgm 0 0 4 4\n')
    rc = main(["train", str(manifest), str(tmp_path / "out.spt")])
    assert rc == 2
    assert "img.pgm" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "segment"])
def test_sample_above_maxval_exits_2(command, twin_table, tmp_path, capsys):
    # scaled by maxval, a sample of 255 over maxval 100 used to end in a
    # ValueError traceback (exit 1)
    image = tmp_path / "bright.pgm"
    image.write_bytes(b"P5\n4 4\n100\n" + b"\xff" * 16)
    if command == "train":
        manifest = tmp_path / "m.txt"
        manifest.write_text(f'"p q" 0 {image} 0 0 4 4\n')
        out = tmp_path / "t.spt"
        argv = ["train", str(manifest), str(out)]
    else:
        table_path, emb = twin_table
        detections = tmp_path / "dets.txt"
        detections.write_text('"round" 0 0 4 4 0.9\n')
        out = tmp_path / "m.pgm"
        argv = ["segment", str(image), str(detections), str(table_path), str(emb), str(out)]
    capsys.readouterr()
    err = _data_error(main(argv), capsys.readouterr())
    assert err == f"segphrase: data error: {image}: sample 255 above maxval 100\n"
    assert not out.exists()


def test_training_input_is_all_or_nothing(tmp_path, workspace, capsys):
    # a bad second group (a missing image, a negative component, an empty
    # phrase): nothing trains, nothing is written
    good = (workspace / "round" / "manifest.txt").read_text()
    image = good.split()[2]
    manifest = tmp_path / "m.txt"
    out_table = tmp_path / "out.spt"
    for bad_line, reason in (
        ('"square object" 0 /nonexistent/img.pgm 0 0 4 4', "img.pgm"),
        (f'"blue car" -1 {image} 0 0 8 8', f"{manifest}:4: "),
        (f'"  " 0 {image} 0 0 8 8', f"{manifest}:4: "),
    ):
        manifest.write_text(good + bad_line + "\n")
        rc = main(["train", str(manifest), str(out_table), "--k", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert reason in captured.err and captured.err.count("\n") == 1
        assert not out_table.exists()


@pytest.mark.parametrize("bad", ["box", "target"])
def test_first_bad_manifest_line_is_the_one_reported(bad, tmp_path, workspace, capsys):
    # line 2's box (or the superpixel target) does not fit its image and
    # line 5's image is corrupt: the superpixels of all images run
    # together, but each line is checked as it loads, so line 2 fails
    from segphrase.imaging import Image, save_image

    good = (workspace / "round" / "manifest.txt").read_text().splitlines(keepends=True)
    corrupt = tmp_path / "corrupt.pgm"
    corrupt.write_bytes(b"P5\n48 48\n255\n" + bytes(100))
    image = shlex.split(good[0])[2]
    if bad == "box":
        line2 = f'"round object" 0 {image} 10 10 10 20\n'
        reason = "box (10, 10, 10, 20) invalid for 48x48 image"
    else:
        tiny = tmp_path / "tiny.pgm"
        save_image(Image(4, 4, 1, np.full((4, 4, 1), 0.5)), tiny)
        line2 = f'"round object" 0 {tiny} 0 0 4 4\n'
        reason = "superpixel target 200 outside [1, 16] for a 4x4 image"
    manifest = tmp_path / "m.txt"
    line5 = f'"round object" 0 {corrupt} 0 0 8 8\n'
    manifest.write_text(good[0] + line2 + good[1] + good[2] + line5)
    out_table = tmp_path / "out.spt"
    err = _data_error(main(["train", str(manifest), str(out_table)]), capsys.readouterr())
    assert err == f"segphrase: data error: {reason}\n"
    assert not out_table.exists()


def test_spellings_of_one_phrase_train_one_model(tmp_path, workspace, capsys):
    lines = (workspace / "round" / "manifest.txt").read_text().splitlines(keepends=True)
    manifest = tmp_path / "m.txt"
    manifest.write_text(
        lines[0].replace('"round object"', '"Red Car"')
        + lines[1].replace('"round object"', '"Red Car"')
        + lines[2].replace('"round object"', '"red  car"')
        + lines[0].replace('"round object"', '"red  car"')
    )
    out_table = tmp_path / "out.spt"
    rc = main(["train", str(manifest), str(out_table), "--k", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    logs = [json.loads(line) for line in captured.out.splitlines()]
    assert [(g["phrase"], g["component"], g["instances"]) for g in logs] == [("red car", 0, 4)]
    table = load_table(out_table)
    key = PhraseKey("red car", 0)
    assert list(table.entries) == [key] and table.versions[key] == 1
    info = table.entries[key].info
    assert (info.phrase, info.instances) == ("Red Car", 4)  # the first spelling
    assert len(table.get_exemplars("red car")) == 4


def test_collapse_exits_3(tmp_path, capsys):
    # uniform images: ties relabel everything background -> collapse
    from segphrase.imaging import Image, save_image

    img_path = tmp_path / "flat.pgm"
    save_image(Image(16, 16, 1, np.full((16, 16, 1), 0.5)), img_path)
    manifest = tmp_path / "m.txt"
    manifest.write_text(f'"flat thing" 0 {img_path} 4 4 12 12\n')
    rc = main(["train", str(manifest), str(tmp_path / "out.spt"), "--k", "1"])
    assert rc == 3
    assert "collapse" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_1(capsys):
    for argv in (
        ["synth", "somewhere", "--frobnicate"],
        ["train", "m.txt", "out.spt", "--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["segment", "i.pgm", "d.txt", "t.spt", "e.txt", "m.pgm", "--k", "2"],
    ["relations", "entail", "d.tsv", "o.csv", "--lambda", "1"],
    ["relations", "entail", "d.tsv", "o.csv", "--k", "2"],
    ["synth", "out", "--lambda", "1"],
    ["synth", "out", "--k", "2"],
], ids=["segment-k", "relations-lambda", "relations-k", "synth-lambda", "synth-k"])
def test_flag_of_another_subcommand_exits_1(argv, capsys):
    # each flag exists only on the subcommands that read it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["relations", "badmode", "x", "y"])
    assert exc.value.code == 1


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["train", "--help"], ["relations", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "--graph" in capsys.readouterr().out


def _entail_dataset(tmp_path):
    """A two-phrase table and entail dataset; the valid relations argv on them."""
    write_two_phrase_table(tmp_path / "t.spt")
    (tmp_path / "d.tsv").write_text("a\tb\tentails\nb\ta\tnot-entails\n")
    return ["relations", "entail", str(tmp_path / "d.tsv"), str(tmp_path / "o.csv"),
            "--table", str(tmp_path / "t.spt"), "--graph"]


def test_shared_parser_survives_usage_help_and_data_errors(tmp_path, capsys):
    argv = _entail_dataset(tmp_path)
    outputs = (tmp_path / "o.csv", tmp_path / "o.curve.csv")
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import sys; from segphrase.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(segphrase.__file__).parents[1])},
    )
    expected = (0, fresh.stdout.decode(), *(path.read_bytes() for path in outputs))

    def valid_run():
        for path in outputs:
            path.unlink()
        capsys.readouterr()
        rc = main(argv)
        return (rc, capsys.readouterr().out, *(path.read_bytes() for path in outputs))

    assert valid_run() == expected
    for bad, code in ((["relations", "badmode", "x", "y"], 1), (["relations", "--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == code
        assert valid_run() == expected
    assert main([*argv[:2], str(tmp_path / "missing.tsv"), *argv[3:]]) == 2
    assert valid_run() == expected


def test_one_parser_serves_every_main_call(tmp_path, monkeypatch, capsys):
    argv = _entail_dataset(tmp_path)
    built = []

    def counting(real=cli.build_parser):
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert [main(argv), main(["relations", "entail", "x", "y"]), main(argv)] == [0, 2, 0]
        with pytest.raises(SystemExit):
            main(["synth"])
        assert main(argv) == 0
    finally:
        cli._parser.cache_clear()  # the next main call builds with the real build_parser
    assert len(built) == 1


@pytest.mark.parametrize("edit, reason", [
    # the second 'a' record stands where save_table's entries end
    (lambda ix: ix["entries"][1].update(phrase="a"),
     "index differs from save_table's at byte 216: stored b', {\"component_id\": 0"),
    (lambda ix: ix["exemplars"][1].update(phrase="B"), "'B' is not a normalized string"),
    (lambda ix: [rec.update(descriptor_len=0) for rec in ix["exemplars"]],
     "descriptor_len 0 is not an integer >= 1"),
], ids=["duplicated-model", "unnormalized-exemplar-phrase", "zero-length-descriptors"])
def test_structurally_malformed_table_exits_2(edit, reason, tmp_path, capsys):
    # under a valid CRC these used to load: the last duplicate won, the
    # exemplar sat under a key no query reaches, the empty descriptors
    # ended in exit 3 (zero norm)
    from test_spt import _edit_index

    argv = _entail_dataset(tmp_path)
    table = load_table(tmp_path / "t.spt")
    good = GaussianMixture(np.ones(1), np.zeros((1, 2)), np.ones((1, 2)))
    for phrase in ("a", "b"):
        table.insert(PhraseKey.make(phrase), SegmentationModel(good, good, 1.0))
    save_table(table, tmp_path / "t.spt")
    _edit_index(tmp_path / "t.spt", edit)
    err = _data_error(main(argv), capsys.readouterr())
    assert err.startswith("segphrase: data error: ") and reason in err
    assert not (tmp_path / "o.csv").exists()


def test_bad_detections_file_exits_2(tmp_path, workspace, capsys):
    det_path = tmp_path / "bad.txt"
    det_path.write_text("not enough fields\n")
    emb = tmp_path / "e.txt"
    write_embeddings_file(emb)
    table_path = tmp_path / "t.spt"
    rc = main(["train", str(workspace / "manifest.txt"), str(table_path), "--k", "1"])
    assert rc == 0
    rc = main([
        "segment", str(workspace / "round" / "test_000.pgm"), str(det_path),
        str(table_path), str(emb), str(tmp_path / "m.pgm"),
    ])
    assert rc == 2


def test_max_flow_off_its_cut_cost_exits_3(tmp_path, workspace, capsys, monkeypatch):
    # a flow value that max-flow/min-cut duality rejects is a numerical
    # failure: one line on stderr, nothing on stdout, no mask
    from segphrase import mrf

    table_path = tmp_path / "t.spt"
    assert main(["train", str(workspace / "manifest.txt"), str(table_path), "--k", "1"]) == 0
    capsys.readouterr()
    flows = []
    max_flow = mrf._max_flow

    def wrong(*args):
        flow, level = max_flow(*args)
        flows.append(flow)
        return flow + 1e-3, level

    monkeypatch.setattr(mrf, "_max_flow", wrong)
    (tmp_path / "dets.txt").write_text('"round object" 8 8 40 40 0.9\n')
    emb = tmp_path / "e.txt"
    write_embeddings_file(emb)
    mask_path = tmp_path / "m.pgm"
    rc = main([
        "segment", str(workspace / "round" / "test_000.pgm"), str(tmp_path / "dets.txt"),
        str(table_path), str(emb), str(mask_path),
    ])
    captured = capsys.readouterr()
    assert flows and rc == 3 and captured.out == "" and not mask_path.exists()
    assert captured.err.startswith("segphrase: numerical failure: max-flow value ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_degenerate_detection_boxes_give_background(tmp_path, workspace, capsys, monkeypatch):
    # zero-area, inverted and wholly outside boxes leave no superpixel free,
    # so only the fused cut runs and the mask is all background
    import segphrase.latent
    import segphrase.linguistics
    from segphrase.mrf import min_cut_infer

    table_path = tmp_path / "t.spt"
    assert main(["train", str(workspace / "manifest.txt"), str(table_path), "--k", "1"]) == 0
    capsys.readouterr()
    sizes = []

    def recording_cut(problem):
        sizes.append(problem.n)
        return min_cut_infer(problem)

    for module in (segphrase.latent, segphrase.linguistics):
        monkeypatch.setattr(module, "min_cut_infer", recording_cut)
    det_path = tmp_path / "dets.txt"
    det_path.write_text(
        '"round object" 10 10 10 30 0.9\n'
        '"round object" 30 30 10 10 0.8\n'
        '"round object" 60 60 90 90 0.7\n'
        '"round object" -20 -20 -5 -5 0.6\n'
    )
    emb = tmp_path / "e.txt"
    write_embeddings_file(emb)
    mask_path = tmp_path / "m.pgm"
    rc = main([
        "segment", str(workspace / "round" / "test_000.pgm"), str(det_path),
        str(table_path), str(emb), str(mask_path),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    # four detections survive the threshold and fuse to nothing: said once
    assert captured.err == (
        "segphrase: notice: 4 detection(s) above the threshold fused to an "
        "all-background mask (lambda 0.05)\n"
    )
    assert len(captured.out.splitlines()) == 4
    assert len(sizes) == 1 and sizes[0] > 0
    mask = load_image(mask_path)
    assert (mask.width, mask.height) == (48, 48)
    assert not mask.data.any()


@pytest.mark.parametrize("box, empty", [("10 10 38 38", True), ("8 8 40 40", False)],
                         ids=["fused-empty", "fused-foreground"])
def test_detections_fused_to_background_print_one_notice(box, empty, tmp_path, workspace,
                                                         capsys):
    # at the default lambda one box fuses to an all-background mask and one
    # does not; the mask, stdout and exit code are the same either way, and
    # only the empty case adds one stderr line
    table_path = tmp_path / "t.spt"
    assert main(["train", str(workspace / "manifest.txt"), str(table_path), "--k", "1"]) == 0
    (tmp_path / "dets.txt").write_text(f'"round object" {box} 1.0\n')
    emb = tmp_path / "e.txt"
    write_embeddings_file(emb)
    capsys.readouterr()
    rc = main([
        "segment", str(workspace / "round" / "test_000.pgm"), str(tmp_path / "dets.txt"),
        str(table_path), str(emb), str(tmp_path / "m.pgm"),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert [json.loads(line)["phrase"] for line in captured.out.splitlines()] == ["round object"]
    assert load_image(tmp_path / "m.pgm").data.any() != empty
    assert captured.err == (
        "segphrase: notice: 1 detection(s) above the threshold fused to an "
        "all-background mask (lambda 0.05)\n" if empty else ""
    )


@pytest.fixture(scope="module")
def twin_table(workspace, tmp_path_factory):
    """Phrases 'round' and 'ball' trained on the same scenes, with
    orthogonal word vectors: their masks overlap but never reinforce."""
    root = tmp_path_factory.mktemp("twin")
    lines = (workspace / "round" / "manifest.txt").read_text()
    manifest = root / "m.txt"
    manifest.write_text(
        lines.replace('"round object"', '"round"')
        + lines.replace('"round object"', '"ball"')
    )
    table_path = root / "t.spt"
    assert main(["train", str(manifest), str(table_path), "--k", "1"]) == 0
    emb = root / "e.txt"
    emb.write_text("2 2\nround 1.0 0.0\nball 0.0 1.0\n")
    return table_path, emb


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("detections, code", [
    ('"round" 8 8 40 40 inf\n', 2),
    ('"round" 8 8 40 40 nan\n', 2),
    # one phrase twice: message passing sums the two scores past the float range
    ('"round" 0 0 24 24 1e308\n"round" 24 24 48 48 1e308\n', 3),
    # orthogonal phrases keep their scores, but the pooled map overflows
    ('"round" 8 8 40 40 1e308\n"ball" 8 8 40 40 1e308\n', 3),
], ids=["inf", "nan", "rescore-overflow", "pooled-overflow"])
def test_bad_detection_scores_exit_cleanly(detections, code, twin_table, workspace, tmp_path, capsys):
    table_path, emb = twin_table
    capsys.readouterr()
    det_path = tmp_path / "dets.txt"
    det_path.write_text(detections)
    rc = main([
        "segment", str(workspace / "round" / "test_000.pgm"), str(det_path),
        str(table_path), str(emb), str(tmp_path / "m.pgm"),
    ])
    captured = capsys.readouterr()
    assert rc == code
    assert captured.out == ""
    assert captured.err.startswith("segphrase: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_model_feature_width_mismatch_exits_2(twin_table, workspace, tmp_path, capsys):
    # a model over 3 features per superpixel cannot score 24-bin histograms
    _, emb = twin_table
    mix = GaussianMixture(np.ones(1), np.zeros((1, 3)), np.ones((1, 3)))
    table = SegmentPhraseTable()
    table.insert(PhraseKey.make("round"), SegmentationModel(mix, mix, 1.0))
    save_table(table, tmp_path / "t.spt")
    (tmp_path / "dets.txt").write_text('"round" 8 8 40 40 1.0\n')
    capsys.readouterr()
    rc = main([
        "segment", str(workspace / "round" / "test_000.pgm"), str(tmp_path / "dets.txt"),
        str(tmp_path / "t.spt"), str(emb), str(tmp_path / "m.pgm"),
    ])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not (tmp_path / "m.pgm").exists()
    assert captured.err == (
        "segphrase: data error: graph feature dimension 24 does not match "
        "the model's 3\n"
    )


@pytest.mark.parametrize("weights, means, variances", [
    ([1.0], [0.0], [-1.0]),
    ([1.0], [0.0], [0.0]),
    ([1.0], [0.0], [np.inf]),
    ([1.0], [np.nan], [1.0]),
    ([0.7], [0.0], [1.0]),
    ([1.5, -0.5], [0.0, 0.0], [1.0, 1.0]),
    ([np.nan], [0.0], [1.0]),
    ([1.0], [0.0], [1e-320]),
    ([1.0], [0.0], [0.99e-4]),
], ids=["negative-variance", "zero-variance", "inf-variance", "nan-mean",
        "weights-off-simplex", "negative-weight", "nan-weight", "tiny-variance",
        "below-floor-variance"])
def test_table_with_bad_mixture_numbers_exits_2(weights, means, variances, twin_table,
                                                workspace, tmp_path, capsys):
    # a CRC-valid table whose mixture is no density, or has a variance below
    # the floor that the E-step's error bound needs, is a data error, not a traceback
    _, emb = twin_table
    bad = GaussianMixture(np.array(weights), np.tile(np.array(means)[:, None], (1, 24)),
                          np.tile(np.array(variances)[:, None], (1, 24)))
    good = GaussianMixture(np.ones(1), np.zeros((1, 24)), np.ones((1, 24)))
    table = SegmentPhraseTable()
    table.insert(PhraseKey.make("round"), SegmentationModel(good, bad, 1.0))
    save_table(table, tmp_path / "t.spt")
    (tmp_path / "dets.txt").write_text('"round" 8 8 40 40 1.0\n')
    capsys.readouterr()
    rc = main([
        "segment", str(workspace / "round" / "test_000.pgm"), str(tmp_path / "dets.txt"),
        str(tmp_path / "t.spt"), str(emb), str(tmp_path / "m.pgm"),
    ])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not (tmp_path / "m.pgm").exists()
    assert captured.err.startswith("segphrase: data error: mixture ")
    assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("means, variances", [
    (1e300, 1.0),
], ids=["huge-means"])
def test_table_with_overflowing_densities_exits_3(means, variances, twin_table, workspace,
                                                  tmp_path, capsys):
    # finite means and floored variances pass load_table, yet means of 1e300
    # overflow the densities on every superpixel: a numerical failure, with
    # no warning
    _, emb = twin_table
    bad = GaussianMixture(np.ones(1), np.full((1, 24), means), np.full((1, 24), variances))
    good = GaussianMixture(np.ones(1), np.zeros((1, 24)), np.ones((1, 24)))
    table = SegmentPhraseTable()
    table.insert(PhraseKey.make("round"), SegmentationModel(good, bad, 1.0))
    save_table(table, tmp_path / "t.spt")
    (tmp_path / "dets.txt").write_text('"round" 8 8 40 40 1.0\n')
    capsys.readouterr()
    rc = main([
        "segment", str(workspace / "round" / "test_000.pgm"), str(tmp_path / "dets.txt"),
        str(tmp_path / "t.spt"), str(emb), str(tmp_path / "m.pgm"),
    ])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and not (tmp_path / "m.pgm").exists()
    assert captured.err.startswith("segphrase: numerical failure: ")
    assert captured.err.count("\n") == 1


def write_two_phrase_table(path):
    """Table with one exemplar descriptor each for phrases 'a' and 'b'."""
    table = SegmentPhraseTable()
    for phrase, vector in (("a", [1.0, 0.0]), ("b", [0.6, 0.8])):
        table.add_exemplar(phrase, ExemplarMask(phrase, 1.0, np.array([1]), np.array(vector)))
    save_table(table, path)


@pytest.mark.parametrize("mode", ["entail", "paraphrase", "simrel"])
@pytest.mark.parametrize("graph", [[], ["--graph"]], ids=["plain", "graph"])
def test_first_missing_phrase_in_dataset_order_exits_2(mode, graph, tmp_path, capsys):
    write_two_phrase_table(tmp_path / "t.spt")
    rows = [("a", "Zebra  Crossing", "b"), ("aardvark", "b", "a")]
    gold = {"entail": "entails", "paraphrase": "paraphrase"}
    (tmp_path / "d.tsv").write_text("".join(
        "\t".join((*row, row[1]) if mode == "simrel" else (*row[:2], gold[mode])) + "\n"
        for row in rows
    ))
    rc = main(["relations", mode, str(tmp_path / "d.tsv"), str(tmp_path / "o.csv"),
               "--table", str(tmp_path / "t.spt"), *graph])
    captured = capsys.readouterr()
    assert rc == 2 and not (tmp_path / "o.csv").exists()
    assert captured.err == (
        "segphrase: data error: no exemplars with descriptors for phrase 'zebra crossing'\n"
    )


@pytest.mark.parametrize("mode, row", [
    ("paraphrase", "a\tb\tentails"),
    ("entail", "a\tb\tnot-paraphrase"),
    ("simrel", "a\tb\ta\tc"),
    ("entail", "a\t\tentails"),
], ids=["paraphrase-given-entails", "entail-given-paraphrase", "simrel-gold-not-y-or-z",
        "empty-field"])
def test_gold_that_does_not_fit_the_mode_exits_2(mode, row, tmp_path, capsys):
    # each used to exit 0 scoring against the wrong truth (or fail later
    # without naming the line)
    write_two_phrase_table(tmp_path / "t.spt")
    dataset = tmp_path / "d.tsv"
    dataset.write_text(f"# gold\n{row}\n")
    rc = main(["relations", mode, str(dataset), str(tmp_path / "o.csv"),
               "--table", str(tmp_path / "t.spt")])
    err = _data_error(rc, capsys.readouterr())
    assert err.startswith(f"segphrase: data error: {dataset}:2: ")
    assert not (tmp_path / "o.csv").exists() and not (tmp_path / "o.curve.csv").exists()


@pytest.mark.parametrize("mode", ["entail", "simrel"])
def test_relations_normalizes_each_spelling_once(mode, tmp_path, monkeypatch):
    import segphrase.cli

    write_two_phrase_table(tmp_path / "t.spt")
    cells = ["a", "A", "b", "a", "B", "b", "A"]
    if mode == "simrel":
        rows = [f"{cells[i]}\t{cells[i + 1]}\t{cells[i + 2]}\t{cells[i + 1]}" for i in range(5)]
    else:
        rows = [f"{x}\t{y}\tentails" for x, y in zip(cells, cells[1:])]
    (tmp_path / "d.tsv").write_text("\n".join(rows) + "\n")
    seen = []

    def counting(phrase):
        seen.append(phrase)
        return normalize_phrase(phrase)

    monkeypatch.setattr(segphrase.cli, "normalize_phrase", counting)
    assert main(["relations", mode, str(tmp_path / "d.tsv"), str(tmp_path / "o.csv"),
                 "--table", str(tmp_path / "t.spt")]) == 0
    assert sorted(seen) == sorted(set(cells))
    lines = (tmp_path / "o.csv").read_text().splitlines()
    assert len(lines) == 1 + len(rows)
    assert [line.split(",")[:2] for line in lines[1:]] == [row.split("\t")[:2] for row in rows]


@pytest.mark.parametrize("out_csv, curve", [
    ("rel.csv", "rel.curve.csv"),
    ("./rel", "rel.curve"),
    ("out.d/rel", "out.d/rel.curve"),
    (".hidden", ".hidden.curve"),
])
def test_curve_path_adds_curve_before_the_file_extension(out_csv, curve, tmp_path,
                                                         monkeypatch):
    # a dot in a directory name or a leading "./" is not an extension
    write_two_phrase_table(tmp_path / "t.spt")
    (tmp_path / "d.tsv").write_text("a\tb\tentails\n")
    (tmp_path / "out.d").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["relations", "entail", "d.tsv", out_csv, "--table", "t.spt"]) == 0
    assert (tmp_path / out_csv).read_text().startswith("x,y,score,decision\n")
    assert (tmp_path / curve).read_text().startswith("fraction,")
    assert sorted(p.name for p in tmp_path.rglob("*") if "curve" in p.name) == [
        curve.rsplit("/", 1)[-1]
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["entail", "paraphrase"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_exemplar_descriptor_exits_2(mode, bad, tmp_path, capsys):
    # a CRC-valid table whose descriptor holds a non-finite number is a
    # data error, not a traceback from scoring
    table = SegmentPhraseTable()
    for phrase, vector in (("a", [1.0, 0.0]), ("b", [0.6, bad]), ("c", [0.0, 1.0])):
        table.add_exemplar(phrase, ExemplarMask(phrase, 1.0, np.array([1]), np.array(vector)))
    save_table(table, tmp_path / "t.spt")
    gold = {"entail": "entails", "paraphrase": "paraphrase"}[mode]
    (tmp_path / "d.tsv").write_text(f"a\tb\t{gold}\nb\tc\t{gold}\n")
    rc = main(["relations", mode, str(tmp_path / "d.tsv"), str(tmp_path / "o.csv"),
               "--table", str(tmp_path / "t.spt"), "--graph"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not (tmp_path / "o.csv").exists()
    assert captured.err == (
        "segphrase: data error: exemplar descriptor of 'b' is not finite\n"
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["entail", "paraphrase"])
@pytest.mark.parametrize("other", [1.0, 1e160])
def test_overflowing_exemplar_descriptor_norm_exits_2(mode, other, tmp_path, capsys):
    # every entry is finite, but the norm overflows: scoring would read a
    # cosine of 0 (the true one is 1) with a RuntimeWarning; with 1e160 on
    # the other side, the cosine block's product would overflow too
    table = SegmentPhraseTable()
    for phrase, vector in (("a", np.full(60, 1e200)), ("b", np.full(60, other))):
        table.add_exemplar(phrase, ExemplarMask(phrase, 1.0, np.array([1]), vector))
    save_table(table, tmp_path / "t.spt")
    gold = {"entail": "entails", "paraphrase": "paraphrase"}[mode]
    (tmp_path / "d.tsv").write_text(f"a\tb\t{gold}\n")
    rc = main(["relations", mode, str(tmp_path / "d.tsv"), str(tmp_path / "o.csv"),
               "--table", str(tmp_path / "t.spt")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not (tmp_path / "o.csv").exists()
    assert captured.err == (
        "segphrase: data error: exemplar descriptor of 'a': norm overflows\n"
    )


def _bad_phrase_table(path, bad):
    """Table with good phrases a, b, a zero-norm exemplar in z, and w's
    exemplar either zero-norm or with a norm that overflows."""
    table = SegmentPhraseTable()
    w = np.zeros(60) if bad == "zero" else np.full(60, 1e200)
    for phrase, vectors in (("a", [np.full(60, 0.5)]), ("b", [np.arange(60.0)]),
                            ("z", [np.ones(60), np.zeros(60)]), ("w", [w])):
        for i, vector in enumerate(vectors):
            table.add_exemplar(phrase, ExemplarMask(f"i{i}", 1.0, np.array([1]), vector))
    save_table(table, path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad, code, message", [
    ("zero", 3, "numerical failure: zero-norm exemplar descriptor for phrase 'w'"),
    ("overflow", 2, "data error: exemplar descriptor of 'w': norm overflows"),
])
def test_first_bad_phrase_in_pair_order_is_reported(bad, code, message, tmp_path, capsys):
    # z comes first in the dataset, but only in a self pair, which is never
    # scored; the first pair scored is (a, w), so w is the phrase named
    _bad_phrase_table(tmp_path / "t.spt", bad)
    (tmp_path / "d.tsv").write_text("z\tz\tentails\na\tw\tentails\na\tz\tentails\n")
    rc = main(["relations", "entail", str(tmp_path / "d.tsv"), str(tmp_path / "o.csv"),
               "--table", str(tmp_path / "t.spt")])
    captured = capsys.readouterr()
    assert rc == code and captured.out == "" and not (tmp_path / "o.csv").exists()
    assert captured.err == f"segphrase: {message}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode, gold, score, decision", [
    ("entail", "entails", "0.0", "0"), ("paraphrase", "paraphrase", "0.5", "1"),
])
def test_bad_phrase_in_self_pairs_only_scores_zero(mode, gold, score, decision, tmp_path):
    _bad_phrase_table(tmp_path / "t.spt", "zero")
    (tmp_path / "d.tsv").write_text(f"z\tz\t{gold}\na\tb\t{gold}\nw\tw\t{gold}\n")
    rc = main(["relations", mode, str(tmp_path / "d.tsv"), str(tmp_path / "o.csv"),
               "--table", str(tmp_path / "t.spt"), "--tau", "0.5"])
    lines = (tmp_path / "o.csv").read_text().splitlines()
    assert rc == 0 and len(lines) == 4
    assert lines[1] == lines[3].replace("w", "z") == f"z,z,{score},{decision}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, score_file, reason", [
    (["relations", "paraphrase", "{d}/p.tsv", "{d}/o.csv", "--table", "{d}/t.spt",
      "--tau", "nan"], None, "paraphrase_tau"),
    (["relations", "entail", "{d}/p.tsv", "{d}/o.csv", "--graph", "--scores",
      "{d}/s.txt"], "-1\n5\n", "nonnegative"),
    (["relations", "entail", "{d}/p.tsv", "{d}/o.csv", "--graph", "--scores",
      "{d}/s.txt"], "2\n0 nan\n0.5 0\n", "finite"),
    (["synth", "{d}/out", "--noise", "0.5"], None, "noise"),
    (["synth", "{d}/out", "--size", "2"], None, "size"),
    (["synth", "{d}/out", "--count", "-1"], None, "count"),
    (["synth", "{d}/out", "--test-count", "-3"], None, "count"),
    (["synth", "{d}/out", "--phrase", " \t "], None, "blank"),
    (["relations", "entail", "{d}/empty.tsv", "{d}/o.csv", "--table", "{d}/t.spt"],
     None, "no rows"),
    (["relations", "paraphrase", "{d}/comments.tsv", "{d}/o.csv", "--table",
      "{d}/t.spt"], None, "no rows"),
    (["relations", "simrel", "{d}/comments.tsv", "{d}/o.csv", "--table", "{d}/t.spt"],
     None, "no rows"),
    (["relations", "entail", "{d}/empty.tsv", "{d}/o.csv", "--table", "{d}/t.spt",
      "--graph"], None, "no rows"),
], ids=["tau-nan", "scores-negative-n", "scores-nan", "synth-noise", "synth-size",
        "synth-count", "synth-test-count", "synth-blank-phrase", "entail-empty",
        "paraphrase-comments", "simrel-comments", "graph-empty"])
def test_bad_parameters_exit_2(argv, score_file, reason, tmp_path, capsys):
    write_two_phrase_table(tmp_path / "t.spt")
    (tmp_path / "p.tsv").write_text("a\tb\tparaphrase\n")
    (tmp_path / "empty.tsv").write_text("")
    (tmp_path / "comments.tsv").write_text("# x\ty\tgold\n\n")
    if score_file is not None:
        (tmp_path / "s.txt").write_text(score_file)
    rc = main([a.format(d=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and not (tmp_path / "o.csv").exists()
    assert not (tmp_path / "out").exists()
    assert captured.err.startswith("segphrase: data error: ") and reason in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_superpixel_target_above_pixel_count_exits_2(twin_table, tmp_path, capsys):
    # 12 px scenes have 144 pixels, fewer than the default target of 200
    assert main(["synth", str(tmp_path / "tiny"), "--count", "2", "--test-count", "1",
                 "--size", "12", "--seed", "3"]) == 0
    table_path, emb = twin_table
    det_path = tmp_path / "dets.txt"
    det_path.write_text('"round" 2 2 10 10 1.0\n')
    out_table, out_mask = tmp_path / "out.spt", tmp_path / "m.pgm"
    for argv in (
        ["train", str(tmp_path / "tiny" / "manifest.txt"), str(out_table), "--k", "1"],
        ["segment", str(tmp_path / "tiny" / "test_000.pgm"), str(det_path),
         str(table_path), str(emb), str(out_mask)],
    ):
        capsys.readouterr()
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == (
            "segphrase: data error: superpixel target 200 outside [1, 144] "
            "for a 12x12 image\n"
        )
    assert not out_table.exists() and not out_mask.exists()


def _data_error(rc, captured):
    """The one-line exit-2 report every bad input ends in; returns it."""
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("segphrase: data error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    return captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry, reason", [
    ("nan", "non-finite vector component"),
    ("1e999", "non-finite vector component"),
    ("1e200", "vector norm overflows"),
])
def test_non_finite_word_vector_exits_2(entry, reason, twin_table, workspace, tmp_path, capsys):
    table_path, _ = twin_table
    emb = tmp_path / "e.txt"
    emb.write_text(f"2 2\nround 1.0 0.0\nball {entry} 1.0\n")
    det_path = tmp_path / "dets.txt"
    det_path.write_text('"round" 8 8 40 40 0.9\n"ball" 8 8 40 40 0.8\n')
    capsys.readouterr()
    rc = main([
        "segment", str(workspace / "round" / "test_000.pgm"), str(det_path),
        str(table_path), str(emb), str(tmp_path / "m.pgm"),
    ])
    err = _data_error(rc, capsys.readouterr())
    assert err == f"segphrase: data error: {emb}:3: {reason}\n"
    assert not (tmp_path / "m.pgm").exists()


@pytest.mark.filterwarnings("error")
def test_overflowing_composite_vector_exits_2(workspace, tmp_path, capsys):
    # each word vector's norm is finite, their sum's is not
    manifest = tmp_path / "m.txt"
    manifest.write_text(
        (workspace / "round" / "manifest.txt").read_text()
        .replace('"round object"', '"round ball"')
    )
    table_path = tmp_path / "t.spt"
    assert main(["train", str(manifest), str(table_path), "--k", "1"]) == 0
    emb = tmp_path / "e.txt"
    emb.write_text("2 2\nround 9e153 9e153\nball 9e153 9e153\n")
    det_path = tmp_path / "dets.txt"
    det_path.write_text('"round ball" 2 2 20 20 0.9\n"round ball" 26 26 46 46 0.5\n')
    capsys.readouterr()
    rc = main([
        "segment", str(workspace / "round" / "test_000.pgm"), str(det_path),
        str(table_path), str(emb), str(tmp_path / "m.pgm"),
    ])
    err = _data_error(rc, capsys.readouterr())
    assert err == (
        "segphrase: data error: composite vector of 'round ball': norm overflows\n"
    )
    assert not (tmp_path / "m.pgm").exists()


def test_unclosed_quote_in_detections_exits_2(twin_table, workspace, tmp_path, capsys):
    table_path, emb = twin_table
    det_path = tmp_path / "dets.txt"
    det_path.write_text('"round" 8 8 40 40 0.9\n\n"round 8 8 40 40 0.9\n')
    capsys.readouterr()
    rc = main([
        "segment", str(workspace / "round" / "test_000.pgm"), str(det_path),
        str(table_path), str(emb), str(tmp_path / "m.pgm"),
    ])
    err = _data_error(rc, capsys.readouterr())
    assert err.startswith(f"segphrase: data error: {det_path}:3: bad quoting")


def test_unclosed_quote_in_manifest_exits_2(workspace, tmp_path, capsys):
    lines = (workspace / "round" / "manifest.txt").read_text().splitlines()
    manifest = tmp_path / "m.txt"
    manifest.write_text(lines[0] + "\n" + lines[1].replace('"round object"', '"round object') + "\n")
    capsys.readouterr()
    rc = main(["train", str(manifest), str(tmp_path / "t.spt"), "--k", "1"])
    err = _data_error(rc, capsys.readouterr())
    assert err.startswith(f"segphrase: data error: {manifest}:2: bad quoting")
    assert not (tmp_path / "t.spt").exists()


def test_nul_byte_in_manifest_image_path_exits_2(workspace, tmp_path, capsys):
    # open() refuses such a path with a ValueError, which used to escape
    lines = (workspace / "round" / "manifest.txt").read_text().splitlines()
    manifest = tmp_path / "m.txt"
    manifest.write_text(lines[0] + "\n" + lines[1].replace(".pgm", "\0.pgm") + "\n")
    capsys.readouterr()
    rc = main(["train", str(manifest), str(tmp_path / "t.spt"), "--k", "1"])
    err = _data_error(rc, capsys.readouterr())
    assert err == f"segphrase: data error: {manifest}:2: image path holds a NUL byte\n"
    assert not (tmp_path / "t.spt").exists()


@pytest.mark.parametrize("kind", [
    "config", "embeddings", "detections", "manifest", "score-matrix", "dataset",
])
def test_non_utf8_text_input_exits_2(kind, twin_table, workspace, tmp_path, capsys):
    # a Latin-1 byte in each kind of text input, on a line that is
    # otherwise valid
    table_path, emb = twin_table
    bad = tmp_path / f"{kind}.txt"
    det_path = tmp_path / "dets.txt"
    det_path.write_text('"round" 8 8 40 40 0.9\n')
    segment = ["segment", str(workspace / "round" / "test_000.pgm"), str(det_path),
               str(table_path), str(emb), str(tmp_path / "m.pgm")]
    if kind == "config":
        bad.write_bytes(b"# caf\xe9\nlam = 0.5\n")
        argv = segment + ["--config", str(bad)]
    elif kind == "embeddings":
        bad.write_bytes(b"2 2\nround 1.0 0.0\nball\xe9 0.0 1.0\n")
        argv = segment[:4] + [str(bad), segment[5]]
    elif kind == "detections":
        bad.write_bytes(b'"round\xe9" 8 8 40 40 0.9\n')
        argv = segment[:2] + [str(bad)] + segment[3:]
    elif kind == "manifest":
        lines = (workspace / "round" / "manifest.txt").read_bytes()
        bad.write_bytes(lines.replace(b"round object", b"round obj\xe9ct", 1))
        argv = ["train", str(bad), str(tmp_path / "t.spt"), "--k", "1"]
    elif kind == "score-matrix":
        bad.write_bytes(b"2\n0 0.5\n-0.5 0\xe9\n")
        (tmp_path / "d.tsv").write_text("a\tb\tentails\n")
        argv = ["relations", "entail", str(tmp_path / "d.tsv"), str(tmp_path / "o.csv"),
                "--graph", "--scores", str(bad)]
    else:
        write_two_phrase_table(tmp_path / "t2.spt")
        bad.write_bytes(b"a\tb\tentails\n# caf\xe9\n")
        argv = ["relations", "entail", str(bad), str(tmp_path / "o.csv"),
                "--table", str(tmp_path / "t2.spt")]
    capsys.readouterr()
    err = _data_error(main(argv), capsys.readouterr())
    assert err == f"segphrase: data error: {bad}: not UTF-8 text\n"
