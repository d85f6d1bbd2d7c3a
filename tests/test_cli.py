import json

import numpy as np
import pytest

from lanespace import __version__, cli
from lanespace.cli import main
from lanespace.core import ClassId, SegmentationMask
from lanespace.netpbm import write_mask
from lanespace.pipeline import PipelineStats, make_source


def parse_ppm(path):
    raw = path.read_bytes()
    magic, dims, maxval, data = raw.split(b"\n", 3)
    assert magic == b"P6" and maxval == b"255"
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)


def rect_mask(tmp_path, name="frame.pgm"):
    grid = np.zeros((480, 640), dtype=np.uint8)
    grid[200:480, 40:180] = int(ClassId.OTHER_LANES)
    grid[200:480, 240:400] = int(ClassId.EGO_LANE)
    grid[200:480, 460:600] = int(ClassId.OTHER_LANES)
    path = tmp_path / name
    write_mask(path, SegmentationMask(grid))
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_process_prints_a_region_document(tmp_path, capsys):
    mask = rect_mask(tmp_path)
    assert main(["process", str(mask), "--road-class", "highway"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc.keys()) == ["frame_id", "road_class", "regions", "advice"]
    assert doc["road_class"] == "highway"
    assert [r["lane"] for r in doc["regions"]] == ["ego", "left", "right"]
    assert doc["advice"]["lane_change"] == "permitted"
    assert set(doc["advice"]["usable_lanes"]) == {"ego", "left", "right"}


def test_process_reads_the_sidecar_road_class(tmp_path, capsys):
    mask = rect_mask(tmp_path)
    mask.with_suffix(".json").write_text(json.dumps({"road_class": "residential"}))
    assert main(["process", str(mask)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["road_class"] == "residential"
    assert doc["advice"]["lane_change"] == "forbidden"


def test_process_out_file_is_the_compact_document(tmp_path, capsys):
    mask = rect_mask(tmp_path)
    out = tmp_path / "doc.json"
    assert main(["process", str(mask), "--road-class", "highway", "--out", str(out)]) == 0
    assert main(["process", str(mask), "--road-class", "highway"]) == 0
    printed = capsys.readouterr().out.strip().encode()
    assert out.read_bytes() == printed
    assert b": " not in out.read_bytes()


def test_process_overlay_palette(tmp_path):
    mask = rect_mask(tmp_path)
    overlay = tmp_path / "view.ppm"
    assert main(
        ["process", str(mask), "--road-class", "highway", "--overlay", str(overlay)]
    ) == 0
    img = parse_ppm(overlay)
    assert img.shape == (480, 640, 3)
    assert tuple(img[400, 320]) == (0, 0, 255)  # ego fill
    assert tuple(img[400, 110]) == (0, 200, 0)  # left fill
    assert tuple(img[400, 530]) == (255, 0, 0)  # right fill
    assert tuple(img[5, 5]) == (0, 0, 0)  # background stays grayscale


def test_process_rejects_a_truncated_mask_without_partial_output(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n640 480\n255\nnot enough pixels")
    out = tmp_path / "doc.json"
    assert main(["process", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_process_rejects_an_unknown_road_class(tmp_path, capsys):
    mask = rect_mask(tmp_path)
    assert main(["process", str(mask), "--road-class", "airstrip"]) == 2
    assert "error" in capsys.readouterr().err


def test_run_directory_to_directory(tmp_path):
    scenes = tmp_path / "scenes"
    preds = tmp_path / "preds"
    stats_file = tmp_path / "stats.json"
    assert main(
        ["gen", "--count", "3", "--width", "320", "--height", "240",
         "--noise", "0", "--out", str(scenes), "--seed", "5"]
    ) == 0
    assert main(
        ["run", "--source", f"dir:{scenes}", "--sink", f"dir:{preds}",
         "--stats", str(stats_file)]
    ) == 0
    docs = sorted(preds.glob("*.json"))
    assert [p.name for p in docs] == ["000000.json", "000001.json", "000002.json"]
    for p in docs:
        doc = json.loads(p.read_text())
        assert doc["regions"], f"{p.name} found no regions"
    report = json.loads(stats_file.read_text())
    assert report["version"] == __version__
    assert report["stats"]["frames_processed"] == 3
    assert report["stats"]["errors"] == 0


def test_run_exits_nonzero_when_the_source_fails(tmp_path, monkeypatch, capsys):
    def failing_source(spec, seed):
        yield from make_source("gen:2x64x64", seed)
        raise OSError("source went away")

    monkeypatch.setattr(cli, "make_source", failing_source)
    assert main(
        ["run", "--source", "gen:5x64x64", "--stats", str(tmp_path / "s.json")]
    ) == 2
    assert "source went away" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_run_honours_a_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps(
            {
                "extraction": {
                    "downsample_factor": 2,
                    "min_region_area": 64.0,
                    "cluster": {"eps": 1.5, "min_pts": 4, "min_cluster_size": 12},
                },
            }
        )
    )
    stats_file = tmp_path / "stats.json"
    assert main(
        ["run", "--source", "gen:2x320x240", "--config", str(cfg_file),
         "--sink", "null", "--stats", str(stats_file)]
    ) == 0
    report = json.loads(stats_file.read_text())
    assert report["config"]["extraction"]["downsample_factor"] == 2


def test_run_reads_the_config_file_once(tmp_path, monkeypatch):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"extraction": {"downsample_factor": 2}}))
    calls = []
    load = cli._load_config

    def counting_load(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(cli, "_load_config", counting_load)
    assert main(
        ["run", "--source", "gen:1x64x64", "--config", str(cfg_file),
         "--stats", str(tmp_path / "s.json")]
    ) == 0
    assert calls == [str(cfg_file)]


def test_run_rejects_a_config_with_unknown_keys(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"queue_capacity": 3, "burst_mode": True}))
    assert main(
        ["run", "--source", "gen:1x64x64", "--config", str(cfg_file)]
    ) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("factor", ["2.5", "true"])
def test_run_rejects_a_non_integer_downsample_factor_before_the_sink(tmp_path, capsys, factor):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"extraction": {"downsample_factor": %s}}' % factor)
    out = tmp_path / "out"
    assert main(
        ["run", "--source", "gen:1x64x64", "--config", str(cfg_file), "--sink", f"dir:{out}"]
    ) == 2
    assert "downsample_factor" in capsys.readouterr().err
    assert not out.exists()


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("factor", [4, 1])
def test_run_completes_with_an_infinite_eps(tmp_path, factor):
    # eps * eps overflows to inf, and the stencil stops at the grid's size,
    # so this is the eps of the frame's diagonal.
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        '{"extraction": {"downsample_factor": %d, "cluster": {"eps": 1e308}}}' % factor
    )
    stats_file = tmp_path / "s.json"
    assert main(
        ["run", "--source", "gen:1", "--config", str(cfg_file), "--sink", "null",
         "--stats", str(stats_file)]
    ) == 0
    report = json.loads(stats_file.read_text(), parse_constant=refuse_constant)
    assert report["stats"]["frames_processed"] == 1
    assert report["config"]["extraction"]["cluster"]["eps"] == 1e308


@pytest.mark.parametrize("eps", ["Infinity", "-Infinity", "NaN", "1e400"])
def test_run_rejects_a_config_number_that_is_not_finite(tmp_path, capsys, eps):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"extraction": {"cluster": {"eps": %s}}}' % eps)
    out = tmp_path / "out"
    assert main(
        ["run", "--source", "gen:1x64x64", "--config", str(cfg_file), "--sink", f"dir:{out}"]
    ) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extraction, name",
    [
        ('{"cluster": {"min_pts": true, "min_cluster_size": 12.5}}', "min_pts"),
        ('{"cluster": {"min_cluster_size": 12.5}}', "min_cluster_size"),
        ('{"cluster": {"eps": true}}', "eps"),
        ('{"min_region_area": true}', "min_region_area"),
    ],
    ids=["min_pts", "min_cluster_size", "eps", "min_region_area"],
)
def test_run_rejects_a_mistyped_config_value_before_the_sink(tmp_path, capsys, extraction, name):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"extraction": %s}' % extraction)
    out = tmp_path / "out"
    assert main(
        ["run", "--source", "gen:1x64x64", "--config", str(cfg_file), "--sink", f"dir:{out}"]
    ) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_a_bad_source(capsys):
    assert main(["run", "--source", "bogus:thing"]) == 2
    assert "error" in capsys.readouterr().err


def test_run_rejects_a_missing_source_directory(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["run", "--source", f"dir:{missing}", "--sink", "null"]) == 2
    assert "not a directory" in capsys.readouterr().err
    # An existing but empty directory is a valid run of no frames.
    stats_file = tmp_path / "s.json"
    assert main(["run", "--source", f"dir:{tmp_path}", "--stats", str(stats_file)]) == 0
    assert json.loads(stats_file.read_text())["stats"]["frames_processed"] == 0


@pytest.mark.parametrize(
    "source", ["dir:{tmp}/missing", "gen:5x640", "gen:axbxc", "gen:1x16x16"]
)
def test_run_with_a_bad_source_leaves_no_sink_directory(tmp_path, capsys, source):
    out = tmp_path / "out"
    assert main(["run", "--source", source.format(tmp=tmp_path), "--sink", f"dir:{out}"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


class RecordingSink:
    def __init__(self):
        self.closed = False

    def deliver(self, frame_id, document):
        pass

    def close(self):
        self.closed = True


@pytest.mark.parametrize("serve_fails", [False, True])
def test_run_closes_the_sink_of_a_served_pipeline(monkeypatch, capsys, serve_fails):
    sink = RecordingSink()
    served = []

    def fake_serve(address, cfg, extra_sink=None):
        served.append((address, extra_sink))
        if serve_fails:
            raise OSError("connection reset")
        return PipelineStats()

    monkeypatch.setattr(cli, "make_sink", lambda spec: sink)
    monkeypatch.setattr(cli, "serve", fake_serve)
    code = main(["run", "--source", "tcp:127.0.0.1:0", "--sink", "tcp:127.0.0.1:9"])
    assert code == (2 if serve_fails else 0)
    assert served == [("127.0.0.1:0", sink)]
    assert sink.closed


@pytest.mark.parametrize("size", ["0x0", "2x2", "-5x10"])
def test_run_rejects_a_generated_scene_below_16x16(size, capsys):
    assert main(["run", "--source", f"gen:1x{size}", "--sink", "null"]) == 2
    assert capsys.readouterr().err.strip() == "error: scene must be at least 16x16"


def test_eval_of_identical_directories_is_perfect(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    assert main(
        ["gen", "--count", "2", "--width", "320", "--height", "240",
         "--noise", "0", "--out", str(scenes)]
    ) == 0
    capsys.readouterr()
    assert main(["eval", "--pred", str(scenes), "--gt", str(scenes)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["miou"] == pytest.approx(1.0)
    assert report["accuracy"] == pytest.approx(1.0)
    assert report["n_images"] == 2
    for value in report["per_class_iou"].values():
        assert value is None or value == pytest.approx(1.0)


def test_gen_run_eval_round_trip_scores_high(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    preds = tmp_path / "preds"
    assert main(["gen", "--count", "3", "--noise", "0", "--out", str(scenes)]) == 0
    assert main(
        ["run", "--source", f"dir:{scenes}", "--sink", f"dir:{preds}",
         "--stats", str(tmp_path / "s.json")]
    ) == 0
    capsys.readouterr()
    assert main(["eval", "--pred", str(preds), "--gt", str(scenes)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["per_class_iou"]["ego_lane"] >= 0.85
    assert report["per_class_iou"]["background"] >= 0.9
    assert report["miou"] >= 0.85
    assert report["accuracy"] == pytest.approx(1.0)  # documents carry the class


def test_eval_requires_predictions_for_every_frame(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(
        ["gen", "--count", "1", "--width", "320", "--height", "240",
         "--out", str(scenes)]
    ) == 0
    capsys.readouterr()
    assert main(["eval", "--pred", str(empty), "--gt", str(scenes)]) == 2
    assert main(["eval", "--pred", str(scenes), "--gt", str(empty)]) == 2


def test_gen_writes_masks_with_spec_sidecars(tmp_path, capsys):
    out = tmp_path / "scenes"
    assert main(
        ["gen", "--count", "2", "--width", "320", "--height", "240",
         "--lanes", "3", "--out", str(out), "--seed", "4"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["out"] == str(out)
    assert sorted(p.name for p in out.iterdir()) == [
        "000000.json", "000000.pgm", "000001.json", "000001.pgm",
    ]
    spec = json.loads((out / "000000.json").read_text())
    assert [b["lane"] for b in spec["lanes"]] == ["left", "ego", "right"]
    assert spec["road_class"] in {"residential", "highway", "city_street", "others"}


@pytest.mark.parametrize("flags", [["--width", "32"], ["--lanes", "5"]], ids=["width", "lanes"])
def test_gen_rejects_a_bad_spec_before_making_the_output_directory(tmp_path, capsys, flags):
    out = tmp_path / "scenes"
    assert main(["gen", "--count", "2", *flags, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_loss_check_passes_and_reports(tmp_path):
    out = tmp_path / "grad.json"
    assert main(["loss-check", "--cases", "50", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["tolerance"] == 1e-5
    assert report["gradient_check"]["max_rel_error"]["weighted_ce_grad"] < 1e-5


def test_bench_reports_throughput(tmp_path):
    out = tmp_path / "bench.json"
    assert main(
        ["bench", "--frames", "3", "--warmup", "1", "--width", "320",
         "--height", "240", "--out", str(out)]
    ) == 0
    report = json.loads(out.read_text())
    assert report["stats"]["frames_processed"] == 3
    assert report["stats"]["throughput_fps"] > 0
    assert report["warmup"]["frames"] == 1
