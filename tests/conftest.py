"""Hypothesis profiles, and the harness and inputs that several test modules
share: a recording sink, a served pipeline in a thread, a traced memory peak,
masks and wire bytes. Test modules import them from here."""
import os
import threading
import tracemalloc

import hypothesis
import numpy as np

from lanespace.core import ClassId, RoadClass, SegmentationMask
from lanespace.pipeline import (
    HEADER_SIZE,
    VERSION,
    PipelineClient,
    SourceFrame,
    encode_frame,
    mask_frame,
    serve,
)

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, print_blob=True
)
hypothesis.settings.register_profile(
    "thorough", deadline=None, max_examples=300, print_blob=True
)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class CaptureSink:
    """Keeps each delivered (frame_id, document) pair, and whether it was closed."""

    def __init__(self):
        self.delivered = []
        self.closed = False

    def deliver(self, frame_id, document):
        self.delivered.append((frame_id, document))

    def close(self):
        self.closed = True


def start_server(cfg=None):
    """`serve` on a free loopback port, in a daemon thread.

    Returns the thread, the port and a dict that gets the run's `stats`. An
    exception that `serve` raises before it binds is raised here at once; a
    later one is left in the dict as `error`.
    """
    port_box: list[int] = []
    ready = threading.Event()
    result: dict = {}

    def run():
        def on_bound(port):
            port_box.append(port)
            ready.set()

        try:
            result["stats"] = serve("127.0.0.1:0", cfg, bound_callback=on_bound)
        except Exception as e:  # surfaces in the test thread
            result["error"] = e
            ready.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10.0)
    if "error" in result:
        raise result["error"]
    return thread, port_box[0], result


def serve_frames(frames, cfg=None):
    """Each frame's document as a served pipeline answers it over loopback,
    by frame id, and the run's stats."""
    thread, port, result = start_server(cfg)
    client = PipelineClient(f"127.0.0.1:{port}")
    try:
        answers = {}
        for f in frames:
            client.send_mask(f.frame_id, f.mask, f.road_class)
            reply = client.recv_regions()
            assert reply is not None
            answers[reply.frame_id] = reply.payload.document
        client.finish_sending()
        assert client.recv_regions() is None
    finally:
        client.close()
    thread.join(10.0)
    assert not thread.is_alive()
    return answers, result["stats"]


def small_frame(frame_id, seed=0):
    """A 64x64 frame with an ego block and an other-lane block beside it."""
    rng = np.random.default_rng(seed + frame_id)
    grid = np.zeros((64, 64), dtype=np.uint8)
    x = int(rng.integers(4, 28))
    grid[20:60, x : x + 20] = int(ClassId.EGO_LANE)
    grid[20:60, x + 28 : x + 36] = int(ClassId.OTHER_LANES)
    return SourceFrame(frame_id, RoadClass.HIGHWAY, SegmentationMask(grid))


def three_lane_mask():
    """A 640x480 mask of three rectangular lanes, the ego in the middle."""
    grid = np.zeros((480, 640), dtype=np.uint8)
    grid[200:480, 40:180] = int(ClassId.OTHER_LANES)
    grid[200:480, 240:400] = int(ClassId.EGO_LANE)
    grid[200:480, 460:600] = int(ClassId.OTHER_LANES)
    return SegmentationMask(grid)


def header_announcing(magic, msg_type, payload_len):
    """A frame header with frame id 0 that announces payload_len bytes."""
    return magic + bytes([VERSION, msg_type]) + (0).to_bytes(4, "big") + payload_len.to_bytes(4, "big")


def stalled_frame_bytes(stall):
    """The bytes of one mask frame up to where its sender stalls or closes."""
    f = small_frame(0)
    frame = encode_frame(mask_frame(f.frame_id, f.mask, f.road_class))
    ends = {
        "inside the header": HEADER_SIZE // 2,
        "after the header": HEADER_SIZE,
        "inside the payload": len(frame) // 2,
    }
    return frame[: ends[stall]]


def traced_peak(read):
    """read()'s result and the tracemalloc peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        out = read()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
