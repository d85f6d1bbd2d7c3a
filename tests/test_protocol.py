import socket
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lanespace.core import RoadClass, SegmentationMask
from lanespace.pipeline import (
    HEADER_SIZE,
    MAGIC,
    MSG_MASK,
    MSG_REGIONS,
    VERSION,
    _MAX_PAYLOAD,
    FrameMessage,
    MaskPayload,
    ProtocolError,
    RegionPayload,
    decode_frame,
    encode_frame,
    mask_frame,
    read_wire_frame,
)
from conftest import header_announcing, traced_peak


def tiny_mask():
    return SegmentationMask(np.array([[0, 1], [2, 0]], dtype=np.uint8))


def good_frame_bytes(frame_id=7):
    return encode_frame(mask_frame(frame_id, tiny_mask(), RoadClass.HIGHWAY))


def test_header_is_fourteen_bytes():
    assert HEADER_SIZE == 14


def test_mask_frame_bytes_match_a_hand_assembled_frame():
    # 14-byte header, 5 fixed payload bytes, then 4 mask bytes: 23 in all.
    expected = (
        MAGIC
        + bytes([VERSION, MSG_MASK])
        + (7).to_bytes(4, "big")
        + (9).to_bytes(4, "big")
        + (2).to_bytes(2, "big")
        + (2).to_bytes(2, "big")
        + bytes([int(RoadClass.HIGHWAY)])
        + bytes([0, 1, 2, 0])
    )
    got = good_frame_bytes()
    assert len(got) == 23
    assert got == expected


def test_mask_round_trip():
    msg = decode_frame(good_frame_bytes(frame_id=41), MSG_MASK)
    assert msg.frame_id == 41
    assert isinstance(msg.payload, MaskPayload)
    assert msg.payload.road_class == RoadClass.HIGHWAY
    assert msg.payload.to_mask() == tiny_mask()


def test_region_round_trip():
    doc = b'{"frame_id":3,"regions":[]}'
    raw = encode_frame(FrameMessage(3, RegionPayload(doc)))
    msg = decode_frame(raw, MSG_REGIONS)
    assert isinstance(msg.payload, RegionPayload)
    assert msg.payload.document == doc


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 9),
    st.integers(1, 9),
    st.sampled_from(sorted(RoadClass, key=int)),
    st.data(),
)
def test_any_mask_survives_the_wire(frame_id, w, h, road_class, data):
    cells = data.draw(
        st.lists(st.integers(0, 2), min_size=w * h, max_size=w * h)
    )
    mask = SegmentationMask(np.array(cells, dtype=np.uint8).reshape(h, w))
    msg = decode_frame(encode_frame(mask_frame(frame_id, mask, road_class)), MSG_MASK)
    assert msg.frame_id == frame_id
    assert msg.payload.road_class == road_class
    assert msg.payload.to_mask() == mask


def test_encode_rejects_inconsistent_mask_length():
    bad = MaskPayload(3, 3, RoadClass.UNKNOWN, b"\x00" * 4)
    with pytest.raises(ValueError):
        encode_frame(FrameMessage(0, bad))


# --- one test per malformation ---------------------------------------------


def test_short_data_is_truncated():
    with pytest.raises(ProtocolError, match="13 bytes is shorter than a header"):
        decode_frame(good_frame_bytes()[: HEADER_SIZE - 1], MSG_MASK)


def test_bad_magic():
    raw = b"XXXX" + good_frame_bytes()[4:]
    with pytest.raises(ProtocolError, match="bad magic b'XXXX'"):
        decode_frame(raw, MSG_MASK)


def test_bad_version():
    raw = bytearray(good_frame_bytes())
    raw[4] = 99
    with pytest.raises(ProtocolError, match="unsupported version 99"):
        decode_frame(bytes(raw), MSG_MASK)


def test_bad_message_type():
    raw = bytearray(good_frame_bytes())
    raw[5] = 3
    with pytest.raises(ProtocolError, match="message type 3, expected 1"):
        decode_frame(bytes(raw), MSG_MASK)
    # A known type is refused the same way where the other one is expected.
    with pytest.raises(ProtocolError, match="message type 1, expected 2"):
        decode_frame(good_frame_bytes(), MSG_REGIONS)


def test_implausible_payload_length():
    raw = bytearray(good_frame_bytes())
    raw[10:14] = (1 << 30).to_bytes(4, "big")
    with pytest.raises(ProtocolError, match=f"payload length {1 << 30} implausible"):
        decode_frame(bytes(raw), MSG_MASK)


def test_truncated_payload():
    with pytest.raises(ProtocolError, match="payload needs 9 bytes, got 8"):
        decode_frame(good_frame_bytes()[:-1], MSG_MASK)


def test_trailing_garbage():
    with pytest.raises(ProtocolError, match="payload needs 9 bytes, got 10"):
        decode_frame(good_frame_bytes() + b"\x00", MSG_MASK)


def test_mask_payload_shorter_than_fixed_fields():
    raw = good_frame_bytes()[:HEADER_SIZE] + b"\x00\x02"
    raw = raw[:10] + (2).to_bytes(4, "big") + raw[14:]
    with pytest.raises(ProtocolError, match="mask payload shorter than its fixed fields"):
        decode_frame(raw, MSG_MASK)


def test_mask_byte_count_mismatch():
    # Claim 3x3 but ship 4 pixels; header length stays consistent.
    body = (3).to_bytes(2, "big") + (3).to_bytes(2, "big") + bytes([0]) + bytes(4)
    raw = header_announcing(MAGIC, MSG_MASK, len(body)) + body
    with pytest.raises(ProtocolError, match="mask needs 9 bytes, got 4"):
        decode_frame(raw, MSG_MASK)


def test_invalid_road_class_code():
    raw = bytearray(good_frame_bytes())
    raw[HEADER_SIZE + 4] = 9
    with pytest.raises(ProtocolError, match="invalid road class code 9"):
        decode_frame(bytes(raw), MSG_MASK)


def test_invalid_pixel_classes_fail_at_mask_construction():
    raw = bytearray(good_frame_bytes())
    raw[-1] = 7
    msg = decode_frame(bytes(raw), MSG_MASK)  # wire-valid: pixels are checked later
    with pytest.raises(ValueError):
        msg.payload.to_mask()


def test_every_protocol_error_is_a_value_error():
    assert issubclass(ProtocolError, ValueError)


def test_fuzzed_frames_never_escape_protocol_errors():
    rng = np.random.default_rng(99)
    base = good_frame_bytes()
    decoded = rejected = 0
    for _ in range(300):
        raw = bytearray(base)
        for _ in range(int(rng.integers(1, 4))):
            raw[int(rng.integers(len(raw)))] = int(rng.integers(256))
        if rng.random() < 0.3:
            raw = raw[: int(rng.integers(len(raw) + 1))]
        try:
            decode_frame(bytes(raw), MSG_MASK)
            decoded += 1
        except ProtocolError:
            rejected += 1
    assert decoded + rejected == 300
    assert rejected > 0


# --- stream reads -----------------------------------------------------------


def test_wire_read_round_trip_and_clean_eof():
    a, b = socket.socketpair()
    with a, b:
        a.sendall(good_frame_bytes(frame_id=5))
        a.shutdown(socket.SHUT_WR)
        msg = read_wire_frame(b, MSG_MASK)
        assert msg is not None and msg.frame_id == 5
        assert read_wire_frame(b, MSG_MASK) is None  # clean end-of-stream


def test_wire_read_rejects_mid_header_close():
    a, b = socket.socketpair()
    with a, b:
        a.sendall(good_frame_bytes()[:6])
        a.shutdown(socket.SHUT_WR)
        with pytest.raises(ProtocolError, match="connection closed inside a header"):
            read_wire_frame(b, MSG_MASK)


def test_wire_read_rejects_mid_payload_close():
    a, b = socket.socketpair()
    with a, b:
        a.sendall(good_frame_bytes()[:-2])
        a.shutdown(socket.SHUT_WR)
        with pytest.raises(ProtocolError, match="payload needs 9 bytes, got 7"):
            read_wire_frame(b, MSG_MASK)


# Whole frames, their headers, and a header announcing the largest payload,
# so the reads get past the header checks as well as fail at them.
_WIRE_PIECES = st.one_of(
    st.binary(max_size=64),
    st.sampled_from(
        [
            good_frame_bytes(),
            encode_frame(FrameMessage(2, RegionPayload(b"{}"))),
            good_frame_bytes()[:HEADER_SIZE],
            header_announcing(MAGIC, MSG_REGIONS, 1 << 26),
        ]
    ),
)


@given(st.lists(_WIRE_PIECES, max_size=40).map(b"".join), st.sampled_from([MSG_MASK, MSG_REGIONS]))
def test_wire_reads_of_any_bytes_end_in_a_frame_eof_or_protocol_error(data, msg_type):
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(5.0)  # a read that would hang fails as a timeout instead
        a.sendall(data)
        a.shutdown(socket.SHUT_WR)
        try:
            while read_wire_frame(b, msg_type) is not None:
                pass
        except ProtocolError:
            pass


def test_region_messages_pass_msg_type_constant():
    raw = encode_frame(FrameMessage(1, RegionPayload(b"{}")))
    assert raw[5] == MSG_REGIONS
    assert good_frame_bytes()[5] == MSG_MASK


def test_encode_refuses_a_mask_side_the_header_cannot_carry():
    mask = SegmentationMask(np.zeros((1, 70000), dtype=np.uint8))
    with pytest.raises(ValueError, match="65535"):
        encode_frame(mask_frame(0, mask, RoadClass.UNKNOWN))


# bytes(n) is zero-filled by calloc, so these untouched payloads cost address
# space, not memory.
_OVERSIZED = {
    "region": lambda: RegionPayload(bytes(_MAX_PAYLOAD + 1)),
    "mask": lambda: MaskPayload(8192, 8192, RoadClass.UNKNOWN, bytes(8192 * 8192)),
}


@pytest.mark.parametrize("kind", sorted(_OVERSIZED))
def test_encode_refuses_a_payload_every_reader_refuses(kind):
    with pytest.raises(ValueError, match="exceeds"):
        encode_frame(FrameMessage(0, _OVERSIZED[kind]()))


# --- memory of a stream read ------------------------------------------------


def test_a_mask_read_and_its_mask_hold_the_frame_about_twice():
    mask = SegmentationMask(np.ones((480, 640), dtype=np.uint8))
    frame = encode_frame(mask_frame(1, mask, RoadClass.HIGHWAY))
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(10.0)
        sender = threading.Thread(target=a.sendall, args=(frame,))

        def read():
            sender.start()
            return read_wire_frame(b, MSG_MASK).payload.to_mask()

        got, peak = traced_peak(read)
        sender.join(10.0)
    assert got == mask
    assert peak <= 2.5 * len(frame)


def test_encoding_a_mask_holds_the_frame_about_once():
    mask = SegmentationMask(np.ones((480, 640), dtype=np.uint8))
    frame, peak = traced_peak(lambda: encode_frame(mask_frame(1, mask, RoadClass.HIGHWAY)))
    assert decode_frame(frame, MSG_MASK).payload.to_mask() == mask
    assert peak <= 1.25 * len(frame)


def test_a_decoded_mask_keeps_the_frame_bytes():
    mask = SegmentationMask(np.arange(12, dtype=np.uint8).reshape(3, 4) % 3)
    frame = encode_frame(mask_frame(1, mask, RoadClass.HIGHWAY))
    got = decode_frame(frame, MSG_MASK).payload.to_mask()
    assert got == mask
    assert np.shares_memory(got.data, np.frombuffer(frame, dtype=np.uint8))


def test_a_column_major_mask_is_sent_in_raster_order():
    grid = np.arange(12, dtype=np.uint8).reshape(3, 4) % 3
    mask = SegmentationMask(np.asfortranarray(grid))
    frame = encode_frame(mask_frame(1, mask, RoadClass.HIGHWAY))
    assert frame[HEADER_SIZE + 5 :] == grid.tobytes()
    assert decode_frame(frame, MSG_MASK).payload.to_mask() == mask


def test_memory_follows_the_bytes_that_arrive_not_the_announced_length():
    header = header_announcing(MAGIC, MSG_MASK, _MAX_PAYLOAD)
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(10.0)
        a.sendall(header + bytes(1000))
        a.shutdown(socket.SHUT_WR)

        def read():
            with pytest.raises(ProtocolError, match=f"payload needs {_MAX_PAYLOAD} bytes, got 1000"):
                read_wire_frame(b, MSG_MASK)

        _, peak = traced_peak(read)
    assert peak < 1 << 20
