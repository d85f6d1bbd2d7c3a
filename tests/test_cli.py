import argparse
import json
import os
import queue
import re
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from lanespace import __version__, cli, pipeline
from lanespace.cli import main
from lanespace.core import RoadClass, SegmentationMask
from lanespace.netpbm import write_mask
from lanespace.pipeline import PipelineClient, encode_frame, make_source, mask_frame
from conftest import CaptureSink, small_frame, stalled_frame_bytes, three_lane_mask

ROOT = Path(__file__).resolve().parents[1]


def parse_ppm(path):
    raw = path.read_bytes()
    magic, dims, maxval, data = raw.split(b"\n", 3)
    assert magic == b"P6" and maxval == b"255"
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)


def rect_mask(tmp_path, name="frame.pgm"):
    path = tmp_path / name
    write_mask(path, three_lane_mask())
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
    assert capsys.readouterr().err == (
        f"error: {bad}: truncated pixel data: expected 307200 bytes, got 17\n"
    )


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


def test_run_exits_1_with_its_report_when_a_frame_fails(tmp_path):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    (scenes / "000000.pgm").write_bytes(b"P5\n64 64\n255\n" + bytes(100))
    stats_file = tmp_path / "stats.json"
    assert main(
        ["run", "--source", f"dir:{scenes}", "--sink", "null", "--stats", str(stats_file)]
    ) == 1
    stats = json.loads(stats_file.read_text())["stats"]
    assert (stats["frames_processed"], stats["errors"]) == (0, 1)
    assert stats["failures"] == [
        f"{scenes / '000000.pgm'}: truncated pixel data: expected 4096 bytes, got 100"
    ]


def test_run_of_generated_frames_exits_0(tmp_path):
    stats_file = tmp_path / "stats.json"
    assert main(
        ["run", "--source", "gen:2x64x64", "--sink", "null", "--stats", str(stats_file)]
    ) == 0
    stats = json.loads(stats_file.read_text())["stats"]
    assert (stats["frames_processed"], stats["errors"]) == (2, 0)


@pytest.mark.parametrize(
    "source, sink",
    [
        ("gen:1", "tcp:127.0.0.1:70000"),
        ("tcp:127.0.0.1:70000", "dir"),
        ("tcp:localhost", "dir"),
    ],
)
def test_run_refuses_a_bad_address_before_making_the_sink(tmp_path, capsys, source, sink):
    out = tmp_path / "out"
    sink = f"dir:{out}" if sink == "dir" else sink
    assert main(["run", "--source", source, "--sink", sink]) == 2
    assert "0-65535" in capsys.readouterr().err
    assert not out.exists()


def start_served_run(monkeypatch, argv):
    """`main(argv)` on a thread, its `serve` telling the port it bound.
    Returns the thread, the list its exit code goes to, and the port."""
    ports = queue.Queue()
    real_serve = cli.serve

    def serve_telling_its_port(address, cfg, **kwargs):
        return real_serve(address, cfg, bound_callback=ports.put, **kwargs)

    monkeypatch.setattr(cli, "serve", serve_telling_its_port)
    codes = []
    runner = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
    runner.start()
    return runner, codes, ports.get(timeout=10.0)


@pytest.mark.parametrize("cut", ["inside the header", "after the header", "inside the payload"])
def test_run_serving_a_peer_that_closes_mid_frame_exits_1(tmp_path, monkeypatch, cut):
    stats_file = tmp_path / "stats.json"
    argv = ["run", "--source", "tcp:127.0.0.1:0", "--sink", "null", "--stats", str(stats_file)]
    runner, codes, port = start_served_run(monkeypatch, argv)
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        conn.sendall(stalled_frame_bytes(cut))
    runner.join(5.0)
    assert not runner.is_alive()
    assert codes == [1]
    stats = json.loads(stats_file.read_text())["stats"]
    assert (stats["frames_processed"], stats["errors"]) == (0, 1)


def test_run_refuses_a_config_that_is_not_an_object(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text("[1]")
    assert main(["run", "--config", str(cfg_file), "--source", "gen:1x64x64"]) == 2
    assert "bad pipeline config" in capsys.readouterr().err


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
    # The whole config is echoed, with its fields in declaration order.
    assert json.dumps(report["config"]) == json.dumps(
        {
            "extraction": {
                "downsample_factor": 2,
                "cluster": {"eps": 1.5, "min_pts": 4, "min_cluster_size": 12},
                "min_region_area": 64.0,
            }
        }
    )


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
    "source",
    ["dir:{tmp}/missing", "gen:5x640", "gen:axbxc", "gen:1x16x16", "gen:2@0.5", "gen:2@abc"],
)
def test_run_with_a_bad_source_leaves_no_sink_directory(tmp_path, capsys, source):
    out = tmp_path / "out"
    assert main(["run", "--source", source.format(tmp=tmp_path), "--sink", f"dir:{out}"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if source.startswith("gen:"):
        assert f"generator spec {source[4:]!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("sink_fails", [False, True])
def test_run_closes_the_sink_of_a_served_pipeline(tmp_path, monkeypatch, sink_fails):
    sink = CaptureSink()
    if sink_fails:
        def refuse(frame_id, document):
            raise OSError("disk full")

        sink.deliver = refuse
    monkeypatch.setattr(cli, "make_sink", lambda spec: sink)
    stats_file = tmp_path / "stats.json"
    argv = ["run", "--source", "tcp:127.0.0.1:0", "--sink", "tcp:127.0.0.1:9"]
    runner, codes, port = start_served_run(monkeypatch, [*argv, "--stats", str(stats_file)])
    client = PipelineClient(f"127.0.0.1:{port}", timeout=10.0)
    try:
        client.send_mask(0, SegmentationMask(np.ones((32, 32), dtype=np.uint8)), RoadClass.HIGHWAY)
        client.finish_sending()
        runner.join(10.0)
    finally:
        client.close()
    assert not runner.is_alive()
    assert codes == [1 if sink_fails else 0]
    assert sink.closed
    stats = json.loads(stats_file.read_text())["stats"]
    assert stats["failures"] == (["sink: disk full"] if sink_fails else [])


def test_run_serving_a_client_that_stops_reading_exits_1_with_its_report(tmp_path, monkeypatch):
    # The client sends masks and reads no reply. Its receive buffer and the
    # server's send buffer are made small so that a few replies fill them;
    # the next reply's send then times out.
    monkeypatch.setattr(pipeline, "IDLE_TIMEOUT_S", 0.2)

    class SmallBufferWireSink(pipeline.WireSink):
        def __init__(self, conn):
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            super().__init__(conn)

    monkeypatch.setattr(pipeline, "WireSink", SmallBufferWireSink)
    stats_file = tmp_path / "stats.json"
    argv = ["run", "--source", "tcp:127.0.0.1:0", "--sink", "null", "--stats", str(stats_file)]
    runner, codes, port = start_served_run(monkeypatch, argv)
    mask = small_frame(0).mask
    with socket.socket() as conn:
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # before connecting
        conn.settimeout(10.0)
        conn.connect(("127.0.0.1", port))
        try:
            for frame_id in range(10_000):
                if not runner.is_alive():
                    break
                conn.sendall(encode_frame(mask_frame(frame_id, mask, RoadClass.HIGHWAY)))
        except OSError:
            pass  # the server closed the connection
        runner.join(10.0)
    assert not runner.is_alive()
    assert codes == [1]
    stats = json.loads(stats_file.read_text())["stats"]
    assert stats["failures"] == ["sink: timed out"]
    assert stats["errors"] == 1 and stats["frames_processed"] > 0


def test_run_to_a_tcp_sink_whose_peer_closes_exits_1_with_its_report(tmp_path, monkeypatch):
    real_make_sink = cli.make_sink
    with socket.create_server(("127.0.0.1", 0)) as server:

        def sink_whose_peer_closes(spec):
            sink = real_make_sink(spec)
            peer, _ = server.accept()
            peer.close()
            return sink

        monkeypatch.setattr(cli, "make_sink", sink_whose_peer_closes)
        stats_file = tmp_path / "stats.json"
        sink = f"tcp:127.0.0.1:{server.getsockname()[1]}"
        argv = ["run", "--source", "gen:300", "--sink", sink, "--stats", str(stats_file)]
        assert main(argv) == 1
    stats = json.loads(stats_file.read_text())["stats"]
    (reason,) = stats["failures"]
    assert reason.startswith("sink: [Errno ")
    assert stats["errors"] == 1 and stats["frames_processed"] < 300


def test_run_to_a_dir_sink_that_cannot_write_exits_1_with_its_report(tmp_path):
    out, stats_file = tmp_path / "out", tmp_path / "stats.json"
    blocked = out / "000001.json"
    blocked.mkdir(parents=True)  # frame 1's document cannot be written
    argv = ["run", "--source", "gen:3x64x64", "--sink", f"dir:{out}", "--stats", str(stats_file)]
    assert main(argv) == 1
    stats = json.loads(stats_file.read_text())["stats"]
    assert stats["failures"] == [f"sink: [Errno 21] Is a directory: '{blocked}'"]
    assert (stats["frames_processed"], stats["errors"]) == (1, 1)
    assert sorted(p.name for p in out.iterdir()) == ["000000.json", "000001.json"]


def truncated_ground_truth(tmp_path):
    gt = tmp_path / "gt"
    gt.mkdir()
    (gt / "000000.pgm").write_bytes(b"P5\n64 64\n255\nxy")
    return gt


def fail_if_called(*args, **kwargs):
    pytest.fail("the command did its work before it opened its output files")


FILE_OPTION_IDS = ["process-out", "process-overlay", "run-stats", "eval-out", "loss-check-out"]


# `work` is the command's first step, patched to fail the test. eval's first
# step reads the ground truth, whose one mask is truncated: read first, it
# would be named in the error line instead of the output path.
@pytest.mark.parametrize(
    "argv, work",
    [
        (["process", "{mask}", "--out", "{bad}"], "read_mask"),
        (["process", "{mask}", "--out", "{tmp}/ok.json", "--overlay", "{bad}"], "read_mask"),
        (["run", "--source", "gen:2x64x64", "--sink", "dir:{tmp}/out", "--stats", "{bad}"], "_stream"),
        (["eval", "--pred", "{gt}", "--gt", "{gt}", "--out", "{bad}"], None),
        (["loss-check", "--cases", "5", "--out", "{bad}"], "check_gradients"),
    ],
    ids=FILE_OPTION_IDS,
)
def test_a_file_the_command_cannot_write_fails_it_before_any_work(
    tmp_path, monkeypatch, capsys, argv, work
):
    bad = tmp_path / "missing" / "x"
    gt = truncated_ground_truth(tmp_path)
    names = {"mask": rect_mask(tmp_path), "gt": gt, "tmp": tmp_path, "bad": bad}
    if work is not None:
        monkeypatch.setattr(cli, work, fail_if_called)
    before = sorted(tmp_path.rglob("*"))
    assert main([arg.format(**names) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err
    assert sorted(tmp_path.rglob("*")) == before  # no ok.json, no sink directory


@pytest.mark.parametrize("found", [False, True], ids=["new", "found"])
@pytest.mark.parametrize(
    "argv",
    [
        ["process", "{gt}/000000.pgm", "--out", "{file}"],
        ["process", "{gt}/000000.pgm", "--overlay", "{file}"],
        ["run", "--source", "dir:{tmp}/missing", "--stats", "{file}"],
        ["eval", "--pred", "{gt}", "--gt", "{gt}", "--out", "{file}"],
        ["loss-check", "--cases", "0", "--out", "{file}"],
    ],
    ids=FILE_OPTION_IDS,
)
def test_a_command_that_fails_leaves_its_output_path_as_it_found_it(tmp_path, capsys, argv, found):
    file = tmp_path / "result"
    if found:
        file.write_bytes(b"earlier report\n")
    names = {"gt": truncated_ground_truth(tmp_path), "tmp": tmp_path, "file": file}
    assert main([arg.format(**names) for arg in argv]) == 2
    if found:
        assert file.read_bytes() == b"earlier report\n"
    else:
        assert not file.exists()


def test_run_serving_on_a_taken_port_leaves_no_sink_directory(tmp_path, capsys):
    out = tmp_path / "out"
    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        code = main(["run", "--source", f"tcp:127.0.0.1:{port}", "--sink", f"dir:{out}"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("size", ["0x0", "2x2", "-5x10"])
def test_run_rejects_a_generated_scene_below_16x16(size, capsys):
    assert main(["run", "--source", f"gen:1x{size}", "--sink", "null"]) == 2
    assert capsys.readouterr().err.strip() == (
        f"error: generator spec '1x{size}': scene must be at least 16x16"
    )


def test_eval_of_identical_directories_is_perfect(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    assert main(
        ["gen", "--count", "2", "--width", "320", "--height", "240",
         "--noise", "0", "--out", str(scenes)]
    ) == 0
    capsys.readouterr()
    assert main(["eval", "--pred", str(scenes), "--gt", str(scenes)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "config" not in report and "seed" not in report
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
    assert capsys.readouterr().err == (
        "error: no prediction for 000000.pgm\n"
        f"error: no *.pgm files under {empty}\n"
    )


@pytest.mark.parametrize(
    "document",
    [
        "not json",
        "[1]",
        "{}",
        '{"frame_id": 0}',
        '{"regions": 5}',
        '{"regions": ["ego"]}',
        '{"regions": [{"lane": "ego"}]}',
        '{"regions": [{"pieces": []}]}',
        '{"regions": [{"lane": "ego", "pieces": [5]}]}',
        '{"regions": [{"lane": "ego", "pieces": [[]]}]}',
        '{"regions": [{"lane": "ego", "pieces": [[[0, 0], [9, "a"], [0, 9]]]}]}',
        '{"regions": [{"lane": "ego", "pieces": [[[0, 0, 0], [9, 0, 0], [0, 9, 0]]]}]}',
        '{"regions": [{"lane": "ego", "pieces": [[[0], [9], [0]]]}]}',
        '{"regions": [{"lane": "ego", "pieces": [[[0, 0], [9, NaN], [0, 9]]]}]}',
        '{"regions": [{"lane": "ego", "pieces": [[[0, 0], [9, 1e400], [0, 9]]]}]}',
    ],
)
def test_eval_refuses_a_document_that_is_not_a_region_document(tmp_path, capsys, document):
    gt, pred = tmp_path / "gt", tmp_path / "pred"
    gt.mkdir()
    pred.mkdir()
    write_mask(gt / "000000.pgm", SegmentationMask(np.zeros((32, 32), dtype=np.uint8)))
    doc = pred / "000000.json"
    doc.write_text(document)
    assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {doc}: not a region document: ")


def test_eval_names_a_ground_truth_mask_it_cannot_read(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    assert main(["gen", "--count", "2", "--width", "64", "--height", "64", "--out", str(scenes)]) == 0
    capsys.readouterr()
    bad = scenes / "000001.pgm"
    bad.write_bytes(b"P5\n64 64\n255\nxy")
    assert main(["eval", "--pred", str(scenes), "--gt", str(scenes)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: truncated pixel data: expected 4096 bytes, got 2\n"
    )


def test_eval_names_a_predicted_mask_of_another_shape(tmp_path, capsys):
    scenes, pred = tmp_path / "scenes", tmp_path / "pred"
    assert main(["gen", "--count", "1", "--width", "64", "--height", "48", "--out", str(scenes)]) == 0
    capsys.readouterr()
    pred.mkdir()
    small = pred / "000000.pgm"
    write_mask(small, SegmentationMask(np.zeros((24, 32), dtype=np.uint8)))
    assert main(["eval", "--pred", str(pred), "--gt", str(scenes)]) == 2
    assert capsys.readouterr().err == (
        f"error: {small}: shape mismatch: pred (24, 32) vs gt (48, 64)\n"
    )


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


@pytest.mark.parametrize(
    "flags",
    [["--width", "32"], ["--lanes", "5"], ["--count", "-2"], ["--count", "0"], ["--obstacles", "-1"]],
    ids=["width", "lanes", "count", "no-count", "obstacles"],
)
def test_gen_rejects_a_bad_spec_before_making_the_output_directory(tmp_path, capsys, flags):
    out = tmp_path / "scenes"
    assert main(["gen", "--count", "2", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""  # no report echoes the bad value
    assert not out.exists()


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_loss_check_refuses_fewer_than_one_case(tmp_path, capsys, cases):
    out = tmp_path / "grad.json"
    assert main(["loss-check", "--cases", cases, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == f"error: --cases must be an integer >= 1, got {cases}"
    assert captured.out == ""
    assert not out.exists()


def test_loss_check_passes_and_reports(tmp_path):
    out = tmp_path / "grad.json"
    assert main(["loss-check", "--cases", "50", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "config" not in report
    assert report["passed"] is True
    assert report["tolerance"] == 1e-5
    assert report["gradient_check"]["max_rel_error"]["weighted_ce_grad"] < 1e-5


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--count", "1", "--config", "{cfg}", "--out", "{out}"],
        ["process", "{mask}", "--seed", "1", "--out", "{out}"],
        ["eval", "--pred", "{tmp}", "--gt", "{tmp}", "--seed", "1", "--out", "{out}"],
        ["eval", "--pred", "{tmp}", "--gt", "{tmp}", "--config", "{cfg}", "--out", "{out}"],
        ["loss-check", "--cases", "1", "--config", "{cfg}", "--out", "{out}"],
        ["run", "--source", "gen:1x64x64", "--out", "{out}"],
    ],
    ids=["gen-config", "process-seed", "eval-seed", "eval-config", "loss-check-config", "run-out"],
)
def test_an_option_the_command_does_not_read_is_refused(tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    out = tmp_path / "out"
    names = {"cfg": cfg, "out": out, "mask": rect_mask(tmp_path), "tmp": tmp_path}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**names) for arg in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def readme_cli_options():
    """Each README `## CLI` table row's command and its backticked long options."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `lanespace "):
            command = line.split()[2].rstrip("`")
            rows[command] = set(re.findall(r"`(--[\w-]+)`", line.split(" | ")[-1]))
    return rows


def test_readme_cli_table_matches_the_parser():
    (commands,) = (
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    parsed = {
        name: {o for a in sub._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, sub in commands.choices.items()
    }
    assert readme_cli_options() == parsed


def test_demo_scene_script_writes_its_four_files(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    out = tmp_path / "demo"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_scene.py"), "--seed", "7", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "document.json", "mask.pgm", "overlay.ppm", "scene.json",
    ]
