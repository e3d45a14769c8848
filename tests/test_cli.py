import json

import numpy as np
import pytest

from segphrase.cli import main, parse_train_manifest
from segphrase.config import Config, load_config, save_config
from segphrase.errors import DataError
from segphrase.imaging import load_image
from segphrase.spt import load_table


# -- config round trip -------------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = Config(lam=0.07, gmm_k=3, seed=5, paraphrase_tau=0.25)
    save_config(cfg, tmp_path / "c.cfg")
    assert load_config(tmp_path / "c.cfg") == cfg


def test_config_rejects_unknown_key(tmp_path):
    (tmp_path / "c.cfg").write_text("volume = 11\n")
    with pytest.raises(DataError):
        load_config(tmp_path / "c.cfg")


def test_config_rejects_nonpositive(tmp_path):
    (tmp_path / "c.cfg").write_text("lam = -0.5\n")
    with pytest.raises(DataError):
        load_config(tmp_path / "c.cfg")


def test_config_file_loaded_and_flags_override(tmp_path):
    from segphrase.cli import _resolve_config, build_parser

    cfg_path = tmp_path / "c.cfg"
    save_config(Config(lam=0.2, gmm_k=4, paraphrase_tau=0.3), cfg_path)
    args = build_parser().parse_args(
        ["train", "m.txt", "out.spt", "--config", str(cfg_path), "--k", "2"]
    )
    resolved = _resolve_config(args)
    assert resolved.lam == 0.2          # from the file
    assert resolved.paraphrase_tau == 0.3
    assert resolved.gmm_k == 2          # flag wins over the file


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


def test_train_segment_relations_pipeline(workspace, tmp_path, capsys):
    table_path = tmp_path / "models.spt"
    rc = main([
        "train", str(workspace / "manifest.txt"), str(table_path),
        "--seed", "3", "--k", "1", "--jobs", "2",
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

    rc = main([
        "relations", "paraphrase", str(dataset), str(out_csv),
        "--table", str(table_path), "--tau", "0.5",
    ])
    assert rc == 0

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
    with pytest.raises(SystemExit) as exc:
        main(["synth", "somewhere", "--frobnicate"])
    assert exc.value.code == 1


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
    assert captured.err == ""
    assert len(captured.out.splitlines()) == 4
    assert len(sizes) == 1 and sizes[0] > 0
    mask = load_image(mask_path)
    assert (mask.width, mask.height) == (48, 48)
    assert not mask.data.any()
