import dataclasses
import errno
import json
import socket
import threading
import time

import numpy as np
import pytest

from lanespace.core import RoadClass, SegmentationMask
from lanespace.netpbm import write_mask
from lanespace import pipeline
from lanespace.pipeline import (
    MAGIC,
    MSG_MASK,
    MSG_REGIONS,
    FrameMessage,
    MaskPayload,
    PipelineClient,
    PipelineConfig,
    ProtocolError,
    RegionPayload,
    SourceFailure,
    SourceFrame,
    dir_source,
    encode_frame,
    gen_source,
    make_sink,
    make_source,
    mask_frame,
    parse_address,
    read_road_class,
    read_wire_frame,
    run_pipeline,
    socket_source,
)
from lanespace.regions import ExtractionConfig
from lanespace.scenes import generate, sample_spec
from conftest import (
    CaptureSink,
    header_announcing,
    serve_frames,
    small_frame,
    stalled_frame_bytes,
    start_server,
    traced_peak,
)


class SlowSink(CaptureSink):
    def __init__(self, delay_s):
        super().__init__()
        self.delay_s = delay_s

    def deliver(self, frame_id, document):
        time.sleep(self.delay_s)
        super().deliver(frame_id, document)


FAST_CFG = PipelineConfig(extraction=ExtractionConfig(downsample_factor=1))


def test_output_order_equals_input_order():
    frames = [small_frame(i) for i in (5, 3, 9, 0, 7)]
    sink = CaptureSink()
    stats = run_pipeline(frames, sink, FAST_CFG)
    assert [fid for fid, _ in sink.delivered] == [5, 3, 9, 0, 7]
    assert stats.frames_processed == 5
    assert stats.errors == 0


def test_order_survives_a_jittery_source_and_slow_sink():
    def jittery():
        rng = np.random.default_rng(4)
        for i in range(10):
            time.sleep(float(rng.uniform(0, 0.003)))
            yield small_frame(i)

    sink = SlowSink(0.002)
    stats = run_pipeline(jittery(), sink, FAST_CFG)
    assert [fid for fid, _ in sink.delivered] == list(range(10))
    assert stats.frames_processed == 10


def test_the_source_is_not_read_ahead_of_the_sink():
    events = []

    def source():
        for i in range(4):
            events.append(("read", i))
            yield small_frame(i)

    class LoggingSink(SlowSink):
        def deliver(self, frame_id, document):
            super().deliver(frame_id, document)
            events.append(("delivered", frame_id))

    stats = run_pipeline(source(), LoggingSink(0.01), FAST_CFG)
    assert events == [(e, i) for i in range(4) for e in ("read", "delivered")]
    assert stats.frames_processed == 4


def test_source_failures_are_counted_not_fatal():
    items = [
        small_frame(0),
        SourceFailure("decode blew up"),
        small_frame(1),
        SourceFailure("another"),
        small_frame(2),
    ]
    sink = CaptureSink()
    stats = run_pipeline(items, sink, FAST_CFG)
    assert stats.frames_processed == 3
    assert stats.errors == 2
    assert stats.failures == ["decode blew up", "another"]
    assert [fid for fid, _ in sink.delivered] == [0, 1, 2]


def test_a_raising_source_fails_the_run_after_its_frames():
    def breaks_after_two():
        yield small_frame(0)
        yield small_frame(1)
        raise OSError("camera unplugged")

    sink = CaptureSink()
    with pytest.raises(OSError, match="camera unplugged"):
        run_pipeline(breaks_after_two(), sink, FAST_CFG)
    assert [fid for fid, _ in sink.delivered] == [0, 1]


def test_a_raising_sink_stops_the_source_thread():
    class BrokenSink(CaptureSink):
        def deliver(self, frame_id, document):
            if frame_id == 1:
                raise OSError("disk full")
            super().deliver(frame_id, document)

    before = set(threading.enumerate())
    read, sink, result = [], BrokenSink(), []

    def frames():
        for i in range(50):
            read.append(i)
            yield small_frame(i)

    runner = threading.Thread(
        target=lambda: result.append(run_pipeline(frames(), sink, FAST_CFG)), daemon=True
    )
    runner.start()
    runner.join(10.0)
    assert not runner.is_alive()
    # The failed delivery is one failure with its reason, and no frame is
    # read after it.
    (stats,) = result
    assert (stats.frames_processed, stats.errors) == (1, 1)
    assert stats.failures == ["sink: disk full"]
    assert [fid for fid, _ in sink.delivered] == [0]
    assert read == [0, 1]
    left = [t for t in threading.enumerate() if t not in before]
    assert left == []


def test_stats_shape_and_latency_fields():
    stats = run_pipeline([small_frame(i) for i in range(3)], CaptureSink(), FAST_CFG)
    payload = dataclasses.asdict(stats)
    assert set(payload) == {
        "frames_processed",
        "errors",
        "failures",
        "elapsed_s",
        "throughput_fps",
        "latency_ms",
        "service_ms",
    }
    for key in ("latency_ms", "service_ms"):
        assert set(payload[key]) == {"min", "mean", "p99"}
        assert payload[key]["min"] > 0
        assert payload[key]["p99"] >= payload[key]["mean"] >= payload[key]["min"]
    assert payload["service_ms"]["mean"] <= payload["latency_ms"]["mean"]
    assert payload["throughput_fps"] > 0


def test_service_time_leaves_out_the_wait_for_the_source():
    def slow_source():
        for i in range(4):
            time.sleep(0.05)
            yield small_frame(i)

    stats = run_pipeline(slow_source(), CaptureSink(), FAST_CFG)
    assert stats.frames_processed == 4
    assert stats.latency_ms["mean"] >= 50.0
    assert stats.service_ms["mean"] < 10.0


def test_empty_source_yields_empty_stats():
    stats = run_pipeline([], CaptureSink(), FAST_CFG)
    assert stats.frames_processed == 0
    assert stats.latency_ms["mean"] is None
    assert stats.service_ms["mean"] is None


# --- sources ----------------------------------------------------------------


def test_dir_source_reads_sorted_masks_and_sidecar_labels(tmp_path):
    grid = np.zeros((16, 16), dtype=np.uint8)
    grid[8:, 4:12] = 1
    write_mask(tmp_path / "b.pgm", SegmentationMask(grid))
    write_mask(tmp_path / "a.pgm", SegmentationMask(grid))
    (tmp_path / "a.json").write_text(json.dumps({"road_class": "highway"}))
    (tmp_path / "c.pgm").write_bytes(b"P5\n16 16\n255\nshort")
    items = list(dir_source(tmp_path))
    assert isinstance(items[0], SourceFrame) and items[0].frame_id == 0
    assert items[0].road_class == RoadClass.HIGHWAY  # a.pgm sorts first
    assert items[1].road_class == RoadClass.UNKNOWN
    assert isinstance(items[2], SourceFailure)
    assert items[2].reason.startswith(f"{tmp_path / 'c.pgm'}: truncated pixel data")


@pytest.mark.parametrize(
    "content, expected",
    [
        (None, RoadClass.UNKNOWN),
        ("{not json", RoadClass.UNKNOWN),
        ('["highway"]', RoadClass.UNKNOWN),
        ('{"road_class": "motorway"}', RoadClass.UNKNOWN),
        ('{"lanes": 3}', RoadClass.UNKNOWN),
        ('{"road_class": " City_Street "}', RoadClass.CITY_STREET),
    ],
)
def test_read_road_class_falls_back_to_unknown(tmp_path, content, expected):
    path = tmp_path / "side.json"
    if content is not None:
        path.write_text(content)
    assert read_road_class(path) == expected


def test_gen_source_is_deterministic_and_labelled():
    a = list(gen_source("3x320x240", seed=11))
    b = list(gen_source("3x320x240", seed=11))
    assert [f.frame_id for f in a] == [0, 1, 2]
    for fa, fb in zip(a, b):
        assert fa.mask == fb.mask and fa.road_class == fb.road_class
    assert a[0].mask.data.shape == (240, 320)
    # Scene 0 is drawn before the generator starts, from the same seed as the rest.
    for i, frame in enumerate(a):
        assert frame.mask == generate(sample_spec(11 + i, width=320, height=240))[0]


@pytest.mark.parametrize("spec", ["0", "-3", "5x640", "x", "axbxc", "3@high", "2@0.5", "2x40x40"])
def test_bad_generator_specs_are_rejected(spec):
    with pytest.raises(ValueError):
        gen_source(spec)  # before any frame is asked for


def test_make_source_and_sink_dispatch(tmp_path):
    assert list(make_source("gen:2x64x64", seed=1))[1].frame_id == 1
    sink = make_sink(f"dir:{tmp_path}")
    sink.deliver(4, b"{}")
    assert (tmp_path / "000004.json").read_bytes() == b"{}"
    assert make_sink("null").deliver(0, b"") is None
    for bad in ("gen:", "dir:", "ftp:x", "tcp:nohost"):
        with pytest.raises(ValueError):
            make_source(bad) if bad.startswith(("gen", "dir")) else make_sink(bad)


def test_parse_address():
    assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    for bad in ("localhost", ":123", "host:port"):
        with pytest.raises(ValueError):
            parse_address(bad)


def test_parse_address_refuses_a_port_above_65535():
    assert parse_address("h:65535") == ("h", 65535)
    with pytest.raises(ValueError, match="0-65535"):
        parse_address("h:65536")


@pytest.mark.parametrize(
    "raw", [[1], 5, {"extraction": [1]}, {"extraction": {"cluster": 3}}, "ab", {"extraction": "ab"}]
)
def test_pipeline_config_refuses_a_value_that_is_not_an_object(raw):
    with pytest.raises(ValueError, match="bad pipeline config"):
        PipelineConfig.from_dict(raw)


def test_pipeline_config_round_trip_and_validation():
    cfg = PipelineConfig(extraction=ExtractionConfig(downsample_factor=2))
    assert PipelineConfig.from_dict(dataclasses.asdict(cfg)) == cfg
    for removed in ("worker_pool_size", "queue_capacity"):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({removed: 2})


@pytest.mark.parametrize("factor", [2.5, True])
def test_pipeline_config_rejects_a_non_integer_downsample_factor(factor):
    with pytest.raises(ValueError, match="downsample_factor"):
        PipelineConfig.from_dict({"extraction": {"downsample_factor": factor}})


@pytest.mark.parametrize(
    "extraction, name",
    [
        ({"cluster": {"min_pts": True}}, "min_pts"),
        ({"cluster": {"min_pts": 4.0}}, "min_pts"),
        ({"cluster": {"min_cluster_size": 12.5}}, "min_cluster_size"),
        ({"cluster": {"min_cluster_size": True}}, "min_cluster_size"),
        ({"cluster": {"eps": True}}, "eps"),
        ({"min_region_area": True}, "min_region_area"),
    ],
)
def test_pipeline_config_rejects_booleans_and_fractional_counts(extraction, name):
    with pytest.raises(ValueError, match=name):
        PipelineConfig.from_dict({"extraction": extraction})


def test_pipeline_config_takes_integers_for_its_real_values():
    cfg = PipelineConfig.from_dict({"extraction": {"cluster": {"eps": 2}, "min_region_area": 0}})
    assert (cfg.extraction.cluster.eps, cfg.extraction.min_region_area) == (2, 0)


# --- served deployment ------------------------------------------------------


def test_loopback_answers_match_in_process_results():
    frames = list(gen_source("4x320x240@0.005", seed=21))
    sink = CaptureSink()
    run_pipeline(frames, sink, PipelineConfig())
    answers, stats = serve_frames(frames, PipelineConfig())
    assert answers == dict(sink.delivered)
    assert (stats.frames_processed, stats.errors) == (4, 0)


def test_a_served_frame_is_let_go_before_the_next_is_read():
    # Reading a frame holds its received chunks and their join, two frames'
    # bytes; extracting one at downsample 4 needs about one more frame's worth.
    # A reference to the previous frame kept across the next read, by the
    # source or the loop, would add a third frame to the traced peak.
    frames = [
        encode_frame(mask_frame(i, generate(sample_spec(i, noise_rate=0.01))[0], RoadClass.HIGHWAY))
        for i in range(4)
    ]
    thread, port, result = start_server()
    client = PipelineClient(f"127.0.0.1:{port}")
    try:
        client.conn.sendall(frames[0])  # untraced: allocations made once, on first use
        assert client.recv_regions() is not None

        def the_rest():
            for frame in frames[1:]:
                client.conn.sendall(frame)
                assert client.recv_regions() is not None

        _, peak = traced_peak(the_rest)
        client.finish_sending()
        thread.join(10.0)
    finally:
        client.close()
    assert result["stats"].frames_processed == 4
    assert peak < 2.5 * len(frames[0])


def test_malformed_wire_frame_closes_the_connection():
    thread, port, result = start_server()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        conn.sendall(b"GARBAGE_GARBAGE_GARBAGE")
        try:
            conn.shutdown(socket.SHUT_WR)
            leftover = conn.recv(1024)
        except OSError as e:
            # The server may close first: the shutdown then fails (ENOTCONN)
            # or the read is reset, and either counts as closed unanswered.
            if e.errno not in (errno.ENOTCONN, errno.ECONNRESET):
                raise
            leftover = b""
    thread.join(10.0)
    assert leftover == b""
    assert result["stats"].frames_processed == 0
    assert result["stats"].errors == 1


def test_a_bad_header_is_refused_before_its_payload_arrives():
    # Each header announces a payload that never comes; the server must not
    # wait for a payload it would reject. The 30 s idle timeout is left as it
    # is, so only a refusal at the header ends the run within a second.
    for bad, reason in (
        (header_announcing(b"XXXX", MSG_MASK, 100), "protocol: bad magic b'XXXX'"),
        (header_announcing(MAGIC, MSG_REGIONS, 1 << 20), "protocol: message type 2, expected 1"),
    ):
        thread, port, result = start_server()
        with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
            conn.sendall(bad)
            thread.join(1.0)
            assert not thread.is_alive()
        assert result["stats"].failures == [reason]


def test_the_client_refuses_a_mask_header_before_its_payload_arrives():
    with socket.create_server(("127.0.0.1", 0)) as server:
        client = PipelineClient(f"127.0.0.1:{server.getsockname()[1]}", timeout=5.0)
        peer, _ = server.accept()
        with peer:
            peer.sendall(header_announcing(MAGIC, MSG_MASK, 1 << 20))
            t0 = time.monotonic()
            try:
                with pytest.raises(ProtocolError, match="message type 1, expected 2"):
                    client.recv_regions()
            finally:
                client.close()
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("stall", ["after the header", "inside the payload"])
def test_a_stalled_peer_ends_the_served_run_after_the_idle_timeout(monkeypatch, stall):
    monkeypatch.setattr(pipeline, "IDLE_TIMEOUT_S", 0.2)
    thread, port, result = start_server()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        conn.sendall(stalled_frame_bytes(stall))
        thread.join(5.0)
        assert not thread.is_alive()
    assert "error" not in result
    assert result["stats"].frames_processed == 0
    assert result["stats"].errors == 1


@pytest.mark.parametrize("cut", ["inside the header", "after the header", "inside the payload"])
def test_a_peer_that_closes_mid_frame_ends_the_served_run_with_one_error(cut):
    thread, port, result = start_server()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        conn.sendall(stalled_frame_bytes(cut))
    # The close ends the run, well before the 30 s idle timeout.
    thread.join(5.0)
    assert not thread.is_alive()
    assert "error" not in result
    assert result["stats"].frames_processed == 0
    assert result["stats"].errors == 1


@pytest.mark.parametrize("stall", ["after the header", "inside the payload"])
def test_a_read_timeout_is_one_source_failure_that_names_it(stall):
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(0.2)
        a.sendall(stalled_frame_bytes(stall))
        items = list(socket_source(b))
    assert len(items) == 1
    assert isinstance(items[0], SourceFailure)
    # The frame's bound runs from its first byte, which came with the rest.
    assert items[0].reason == "idle: frame not complete within 0.2 s"


def trickle(conn, data, gap_s, stop, limit_s=5.0):
    """Send data one byte every gap_s until it is all sent, stop() is true,
    limit_s has passed or the peer closes; returns the seconds it ran."""
    t0 = time.monotonic()
    for i in range(len(data)):
        if stop() or time.monotonic() - t0 > limit_s:
            break
        try:
            conn.sendall(data[i : i + 1])
        except OSError:  # the peer closed
            break
        time.sleep(gap_s)
    return time.monotonic() - t0


def encoded_small_frame():
    f = small_frame(0)
    return encode_frame(mask_frame(f.frame_id, f.mask, f.road_class))


def test_a_peer_that_trickles_a_frame_ends_the_served_run_within_the_bound(monkeypatch):
    # A byte every 0.1 s keeps each recv well inside the 0.5 s bound; the
    # frame as a whole is not.
    monkeypatch.setattr(pipeline, "IDLE_TIMEOUT_S", 0.5)
    thread, port, result = start_server()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        took = trickle(conn, encoded_small_frame(), 0.1, lambda: not thread.is_alive())
    thread.join(5.0)
    assert not thread.is_alive()
    assert took < 2 * 0.5
    assert result["stats"].frames_processed == 0
    assert result["stats"].failures == ["idle: frame not complete within 0.5 s"]


def test_a_frame_sent_in_small_chunks_within_the_bound_is_answered(monkeypatch):
    monkeypatch.setattr(pipeline, "IDLE_TIMEOUT_S", 1.0)
    thread, port, result = start_server()
    frame = encoded_small_frame()
    cuts = [0, 5, *range(300, len(frame), 300), len(frame)]  # the header split too
    client = PipelineClient(f"127.0.0.1:{port}")
    try:
        for a, b in zip(cuts, cuts[1:]):  # 15 chunks over about 0.45 s
            client.conn.sendall(frame[a:b])
            time.sleep(0.03)
        reply = client.recv_regions()
        client.finish_sending()
        assert client.recv_regions() is None
    finally:
        client.close()
    thread.join(5.0)
    assert not thread.is_alive()
    assert reply.frame_id == 0
    assert (result["stats"].frames_processed, result["stats"].failures) == (1, [])


def test_a_pause_between_frames_still_ends_the_served_run_as_idle(monkeypatch):
    monkeypatch.setattr(pipeline, "IDLE_TIMEOUT_S", 0.3)
    thread, port, result = start_server()
    client = PipelineClient(f"127.0.0.1:{port}")
    try:
        client.conn.sendall(encoded_small_frame())
        assert client.recv_regions().frame_id == 0
        thread.join(5.0)  # the pause, longer than the bound
        assert not thread.is_alive()
    finally:
        client.close()
    assert result["stats"].frames_processed == 1
    assert result["stats"].failures == ["idle: no bytes from the peer for 0.3 s"]


def test_the_client_times_out_on_a_region_frame_that_trickles():
    frame = encode_frame(FrameMessage(0, RegionPayload(b'{"regions": []}' * 10)))
    stop = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as server:
        client = PipelineClient(f"127.0.0.1:{server.getsockname()[1]}", timeout=0.5)
        peer, _ = server.accept()
        sender = threading.Thread(target=trickle, args=(peer, frame, 0.1, stop.is_set))
        with peer:
            sender.start()
            t0 = time.monotonic()
            try:
                with pytest.raises(TimeoutError, match="^frame not complete within 0.5 s$"):
                    client.recv_regions()
                took = time.monotonic() - t0
            finally:
                stop.set()
                sender.join(5.0)
                client.close()
    assert not sender.is_alive()
    assert took < 2 * 0.5


def test_a_mask_that_is_not_a_mask_is_one_failure_and_the_next_is_answered():
    # mask_frame refuses both masks, so their payloads are built directly: a
    # pixel of code 3, and a width of 0.
    frames = [
        FrameMessage(0, MaskPayload(2, 2, RoadClass.HIGHWAY, bytes([0, 1, 2, 3]))),
        FrameMessage(1, MaskPayload(0, 5, RoadClass.HIGHWAY, b"")),
        mask_frame(2, small_frame(2).mask, RoadClass.HIGHWAY),
    ]
    sink = CaptureSink()
    a, b = socket.socketpair()
    with a, b:
        a.sendall(b"".join(map(encode_frame, frames)))
        a.shutdown(socket.SHUT_WR)
        stats = run_pipeline(socket_source(b), sink, FAST_CFG)
    assert [fid for fid, _ in sink.delivered] == [2]
    assert (stats.frames_processed, stats.errors) == (1, 2)
    assert stats.failures == [
        "frame 0: mask contains invalid class code 3",
        "frame 1: mask must be a 2-D grid, got shape (5, 0)",
    ]


def test_the_tcp_sink_closes_its_socket():
    with socket.create_server(("127.0.0.1", 0)) as server:
        sink = make_sink(f"tcp:127.0.0.1:{server.getsockname()[1]}")
        peer, _ = server.accept()
        with peer:
            peer.settimeout(10.0)
            sink.deliver(3, b"{}")
            sink.close()
            assert sink.conn.fileno() == -1
            assert read_wire_frame(peer, MSG_REGIONS).payload.document == b"{}"
            assert read_wire_frame(peer, MSG_REGIONS) is None


def test_non_increasing_frame_ids_stop_the_stream():
    frames = [small_frame(5), small_frame(3)]
    thread, port, result = start_server()
    client = PipelineClient(f"127.0.0.1:{port}")
    try:
        for f in frames:
            client.send_mask(f.frame_id, f.mask, f.road_class)
        client.finish_sending()
        first = client.recv_regions()
        assert first is not None and first.frame_id == 5
        assert client.recv_regions() is None
    finally:
        client.close()
    thread.join(10.0)
    assert result["stats"].frames_processed == 1
    assert result["stats"].errors == 1
