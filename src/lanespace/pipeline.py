"""The frame pipeline, its sources and sinks, and the binary frame protocol.

One loop on the calling thread reads a frame from the source, extracts its
regions and hands the document to the sink before it reads the next, so one
frame is in flight and output order equals input order. Backpressure is the
loop not asking for the next frame; when served over TCP, it is the socket's
flow control.
"""
from __future__ import annotations

import json
import os
import socket
import struct
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .clustering import ClusterParams
from .core import RoadClass, SegmentationMask, road_class_from_name
from .netpbm import PnmError, read_mask
from .policy import advise
from .regions import ExtractionConfig, RegionSet, build_document, document_bytes, extract_regions

MAGIC = b"LDLS"
VERSION = 1
MSG_MASK = 1
MSG_REGIONS = 2

_HEADER = struct.Struct(">4sBBII")  # magic, version, msg_type, frame_id, payload_len
_MASK_HEAD = struct.Struct(">HHB")  # width, height, road_class
HEADER_SIZE = _HEADER.size
_MAX_PAYLOAD = 1 << 26
_RECV_CHUNK = 1 << 16  # at most this much per recv, so memory follows the bytes that arrive
# Seconds a served connection waits for the peer's next bytes (then its stream
# ends in one SourceFailure) or to send a reply (then the run raises
# TimeoutError); also the PipelineClient and tcp: sink socket timeout.
IDLE_TIMEOUT_S = 30.0


class ProtocolError(ValueError):
    """Every wire-format refusal; its message names the malformation."""


@dataclass(frozen=True)
class MaskPayload:
    width: int
    height: int
    road_class: RoadClass
    mask_bytes: bytes | memoryview

    def to_mask(self) -> SegmentationMask:
        data = np.frombuffer(self.mask_bytes, dtype=np.uint8)
        return SegmentationMask(data.reshape(self.height, self.width))


@dataclass(frozen=True)
class RegionPayload:
    document: bytes


@dataclass(frozen=True)
class FrameMessage:
    frame_id: int
    payload: MaskPayload | RegionPayload


def mask_frame(frame_id: int, mask: SegmentationMask, road_class: RoadClass) -> FrameMessage:
    return FrameMessage(
        frame_id=frame_id,
        payload=MaskPayload(
            width=mask.width,
            height=mask.height,
            road_class=road_class,
            mask_bytes=memoryview(mask.data).cast("B"),
        ),
    )


def encode_frame(msg: FrameMessage) -> bytes:
    """One frame's bytes; a frame that every reader would refuse raises ValueError."""
    p = msg.payload
    if isinstance(p, MaskPayload):
        if len(p.mask_bytes) != p.width * p.height:
            raise ValueError("mask byte length must equal width*height")
        if max(p.width, p.height) > 0xFFFF:
            raise ValueError(f"a {p.width}x{p.height} mask has a side above 65535")
        parts = (_MASK_HEAD.pack(p.width, p.height, int(p.road_class)), p.mask_bytes)
        msg_type = MSG_MASK
    else:
        parts = (p.document,)
        msg_type = MSG_REGIONS
    payload_len = sum(map(len, parts))
    if payload_len > _MAX_PAYLOAD:
        raise ValueError(f"payload length {payload_len} exceeds {_MAX_PAYLOAD}")
    return b"".join((_HEADER.pack(MAGIC, VERSION, msg_type, msg.frame_id, payload_len), *parts))


def _payload_length(header: bytes | bytearray, msg_type: int) -> tuple[int, int]:
    """The frame id and payload length a header announces, once its magic,
    version, message type (msg_type, and no other) and length bound have
    been checked."""
    magic, version, got_type, frame_id, payload_len = _HEADER.unpack_from(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}")
    if got_type != msg_type:
        raise ProtocolError(f"message type {got_type}, expected {msg_type}")
    if payload_len > _MAX_PAYLOAD:
        raise ProtocolError(f"payload length {payload_len} implausible")
    return frame_id, payload_len


def decode_frame(data: bytes | bytearray, msg_type: int) -> FrameMessage:
    """Decode one complete frame of msg_type, a mask payload as a view into
    data; any malformation raises ProtocolError."""
    if len(data) < HEADER_SIZE:
        raise ProtocolError(f"{len(data)} bytes is shorter than a header")
    frame_id, payload_len = _payload_length(data, msg_type)
    body = memoryview(data)[HEADER_SIZE:]
    if len(body) != payload_len:
        raise ProtocolError(f"payload needs {payload_len} bytes, got {len(body)}")
    if msg_type == MSG_REGIONS:
        return FrameMessage(frame_id, RegionPayload(document=bytes(body)))
    if len(body) < _MASK_HEAD.size:
        raise ProtocolError("mask payload shorter than its fixed fields")
    width, height, rc = _MASK_HEAD.unpack_from(body)
    mask_bytes = body[_MASK_HEAD.size :]
    if len(mask_bytes) != width * height:
        raise ProtocolError(f"mask needs {width * height} bytes, got {len(mask_bytes)}")
    try:
        road_class = RoadClass(rc)
    except ValueError:
        raise ProtocolError(f"invalid road class code {rc}") from None
    return FrameMessage(frame_id, MaskPayload(width, height, road_class, mask_bytes))


# ---------------------------------------------------------------------------
# Sources and sinks


@dataclass(frozen=True)
class SourceFrame:
    frame_id: int
    road_class: RoadClass
    mask: SegmentationMask


@dataclass(frozen=True)
class SourceFailure:
    reason: str


def dir_source(path: str | os.PathLike) -> Iterator[SourceFrame | SourceFailure]:
    """Masks from sorted *.pgm files; frame ids are positional.

    A sibling <name>.json carrying a "road_class" key labels the frame. A
    path that is not a directory raises NotADirectoryError here, before any
    frame is asked for; an empty directory gives no frames.
    """
    root = Path(path)
    if not root.is_dir():
        raise NotADirectoryError(f"source {path} is not a directory")

    def frames() -> Iterator[SourceFrame | SourceFailure]:
        for frame_id, pgm in enumerate(sorted(root.glob("*.pgm"))):
            try:
                mask = read_mask(pgm)
            except (PnmError, OSError) as e:  # each names the file
                yield SourceFailure(str(e))
                continue
            yield SourceFrame(frame_id, read_road_class(pgm.with_suffix(".json")), mask)

    return frames()


def read_road_class(path: str | os.PathLike) -> RoadClass:
    """The road class named by a JSON file's "road_class" key.

    A missing or unreadable file, bad JSON or an unknown name gives UNKNOWN.
    """
    try:
        raw = json.loads(Path(path).read_text())
        if isinstance(raw, dict) and "road_class" in raw:
            return road_class_from_name(str(raw["road_class"]))
    except (ValueError, OSError):
        pass
    return RoadClass.UNKNOWN


def gen_source(spec: str, seed: int = 0) -> Iterator[SourceFrame | SourceFailure]:
    """Synthetic frames from a compact spec: N[xWxH][@noise], e.g. 100x640x480@0.01.

    A malformed spec raises ValueError here, before any frame is asked for.
    """
    from .scenes import generate, sample_spec

    try:
        count, width, height, noise = _parse_gen_spec(spec)
        shared = dict(width=width, height=height, noise_rate=noise)
        first = sample_spec(seed, **shared)  # checks what every scene shares
    except ValueError as e:
        raise ValueError(f"generator spec {spec!r}: {e}") from None

    def frames() -> Iterator[SourceFrame | SourceFailure]:
        for i in range(count):
            scene = sample_spec(seed + i, **shared) if i else first
            mask, _ = generate(scene)
            yield SourceFrame(i, scene.road_class, mask)

    return frames()


def _parse_gen_spec(spec: str) -> tuple[int, int, int, float | None]:
    body, at, rate = spec.partition("@")
    parts = body.split("x")
    if len(parts) == 1:
        parts += ["640", "480"]
    try:
        count, width, height = map(int, parts)  # the wrong number of parts raises too
        noise = float(rate) if at else None
    except ValueError:
        raise ValueError("not N[xWxH][@noise]") from None
    if count < 1:
        raise ValueError("needs at least one frame")
    return count, width, height, noise


def _recv(conn: socket.socket, n: int, chunks: list[bytes]) -> int:
    """Append n bytes from conn to chunks, or fewer if the stream ends first;
    returns how many arrived."""
    left = n
    while left:
        chunk = conn.recv(min(left, _RECV_CHUNK))
        if not chunk:
            break
        chunks.append(chunk)
        left -= len(chunk)
    return n - left


def read_wire_frame(conn: socket.socket, msg_type: int) -> FrameMessage | None:
    """One frame of msg_type from a stream socket, joined into one bytes
    object; None on clean end-of-stream. A bad header, or one of another
    message type, raises before its payload is read, so a stalled peer is
    not awaited."""
    chunks: list[bytes] = []
    got = _recv(conn, HEADER_SIZE, chunks)
    if not got:
        return None
    if got < HEADER_SIZE:
        raise ProtocolError("connection closed inside a header")
    _recv(conn, _payload_length(b"".join(chunks), msg_type)[1], chunks)
    return decode_frame(b"".join(chunks), msg_type)


def socket_source(conn: socket.socket) -> Iterator[SourceFrame | SourceFailure]:
    """Mask frames from a connection until end-of-stream, the first violation
    or a read that times out."""
    last_id = -1
    while True:
        try:
            msg = read_wire_frame(conn, MSG_MASK)
        except ProtocolError as e:
            yield SourceFailure(f"protocol: {e}")
            return
        except TimeoutError:
            yield SourceFailure(f"idle: no bytes from the peer for {conn.gettimeout():g} s")
            return
        if msg is None:
            return
        if msg.frame_id <= last_id:
            yield SourceFailure(
                f"protocol: frame id {msg.frame_id} not increasing after {last_id}"
            )
            return
        last_id = msg.frame_id
        try:
            item = SourceFrame(msg.frame_id, msg.payload.road_class, msg.payload.to_mask())
        except ValueError as e:
            item = SourceFailure(f"frame {msg.frame_id}: {e}")
        # Hold nothing of this frame while the next one is read.
        del msg
        yield item
        del item


class DirSink:
    """Writes each region document to <frame_id>.json under a directory."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)

    def deliver(self, frame_id: int, document: bytes) -> None:
        (self.path / f"{frame_id:06d}.json").write_bytes(document)

    def close(self) -> None:
        pass


class NullSink:
    def deliver(self, frame_id: int, document: bytes) -> None:
        pass

    def close(self) -> None:
        pass


class WireSink:
    """Sends region frames over a connected stream socket, which it closes."""

    def __init__(self, conn: socket.socket):
        self.conn = conn

    def deliver(self, frame_id: int, document: bytes) -> None:
        frame = FrameMessage(frame_id, RegionPayload(document))
        self.conn.sendall(encode_frame(frame))

    def close(self) -> None:
        self.conn.close()


class TeeSink:
    def __init__(self, *sinks):
        self.sinks = sinks

    def deliver(self, frame_id: int, document: bytes) -> None:
        for s in self.sinks:
            s.deliver(frame_id, document)

    def close(self) -> None:
        for s in self.sinks:
            s.close()


# ---------------------------------------------------------------------------
# Pipeline


@dataclass(frozen=True)
class PipelineConfig:
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "PipelineConfig":
        """Read the dataclasses.asdict form; a bad key or shape raises ValueError."""
        try:
            kw = {**raw}  # unlike dict(x), {**x} raises TypeError for every non-mapping
            if "extraction" in kw:
                extraction = {**kw["extraction"]}
                if "cluster" in extraction:
                    extraction["cluster"] = ClusterParams(**extraction["cluster"])
                kw["extraction"] = ExtractionConfig(**extraction)
            return cls(**kw)
        except TypeError as e:
            raise ValueError(f"bad pipeline config: {e}") from None


@dataclass
class PipelineStats:
    frames_processed: int = 0
    errors: int = 0
    failures: list[str] = field(default_factory=list)  # one reason per failed frame, in order
    elapsed_s: float = 0.0
    throughput_fps: float = 0.0
    latency_ms: dict[str, float | None] = field(default_factory=lambda: _spread([]))
    service_ms: dict[str, float | None] = field(default_factory=lambda: _spread([]))


def _spread(values: list[float]) -> dict[str, float | None]:
    """The min, mean and p99 of values; each None when there are none."""
    if not values:
        return dict.fromkeys(("min", "mean", "p99"))
    arr = np.asarray(values)
    return {
        "min": float(arr.min()),
        "mean": float(arr.mean()),
        "p99": float(np.percentile(arr, 99)),
    }


def frame_document(frame: SourceFrame, cfg: ExtractionConfig) -> tuple[RegionSet, bytes]:
    """A frame's regions and the bytes of its region document, with advice."""
    regions = extract_regions(frame.mask, cfg)
    advice = advise(frame.road_class, regions)
    doc = build_document(frame.frame_id, frame.road_class, regions, advice.as_dict())
    return regions, document_bytes(doc)


def run_pipeline(
    source: Iterable[SourceFrame | SourceFailure],
    sink,
    cfg: PipelineConfig | None = None,
) -> PipelineStats:
    """Drive every source frame through extraction to the sink, in order.

    One frame is in flight: the source is asked for the next frame only after
    the sink has taken the previous one. A frame's latency runs from that
    request to the sink's return; its service time runs from the source's
    return to the sink's return, so it leaves out the wait for input (on
    `serve`, the wait for the client's next mask). Exceptions from the
    source, extraction or the sink end the run unchanged.
    """
    cfg = cfg or PipelineConfig()
    stats = PipelineStats()
    latencies: list[float] = []
    services: list[float] = []
    t_start = t_in = time.perf_counter()
    for item in source:
        t_got = time.perf_counter()
        if isinstance(item, SourceFailure):
            stats.failures.append(item.reason)
        else:
            _, document = frame_document(item, cfg.extraction)
            sink.deliver(item.frame_id, document)
            t_done = time.perf_counter()
            latencies.append((t_done - t_in) * 1000.0)
            services.append((t_done - t_got) * 1000.0)
            stats.frames_processed += 1
        del item  # the next frame is read without this one alive
        t_in = time.perf_counter()

    stats.elapsed_s = time.perf_counter() - t_start
    stats.errors = len(stats.failures)
    if stats.elapsed_s > 0:
        stats.throughput_fps = stats.frames_processed / stats.elapsed_s
    stats.latency_ms = _spread(latencies)
    stats.service_ms = _spread(services)
    return stats


# ---------------------------------------------------------------------------
# Socket deployment


def parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit() or int(port) > 0xFFFF:
        raise ValueError(f"address must be host:port with a port in 0-65535, got {address!r}")
    return host, int(port)


def serve(
    address: str,
    cfg: PipelineConfig | None = None,
    extra_sink=None,
    bound_callback: Callable[[int], None] | None = None,
    open_sink: Callable[[], Any] | None = None,
) -> PipelineStats:
    """Answer one region frame per mask frame on a single accepted connection.

    Returns when the client closes the stream. A malformed frame, or a peer
    that sends nothing for IDLE_TIMEOUT_S (30 s) while a frame is awaited,
    closes the connection and is counted in stats.errors. The same timeout
    bounds each reply's send, whose expiry ends the run with TimeoutError.

    Every document also goes to extra_sink, and to the sink open_sink makes
    once the address is bound, so that an address that cannot be bound
    leaves nothing behind; serve closes that sink however it returns.
    """
    with socket.create_server(parse_address(address)) as server:
        if bound_callback is not None:
            bound_callback(server.getsockname()[1])
        opened = open_sink() if open_sink is not None else None
        try:
            conn, _ = server.accept()
            with conn:
                # Without this, Nagle's algorithm holds each small reply until the
                # previous one is ACKed, and the client delays that ACK until it
                # sends its next mask: replies arrive one frame period late.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.settimeout(IDLE_TIMEOUT_S)
                extras = [s for s in (extra_sink, opened) if s is not None]
                return run_pipeline(socket_source(conn), TeeSink(WireSink(conn), *extras), cfg)
        finally:
            if opened is not None:
                opened.close()


class PipelineClient:
    """Blocking client for a served pipeline: send a mask, read the answer."""

    def __init__(self, address: str, timeout: float | None = IDLE_TIMEOUT_S):
        self.conn = socket.create_connection(parse_address(address), timeout=timeout)

    def send_mask(self, frame_id: int, mask: SegmentationMask, road_class: RoadClass) -> None:
        self.conn.sendall(encode_frame(mask_frame(frame_id, mask, road_class)))

    def recv_regions(self) -> FrameMessage | None:
        return read_wire_frame(self.conn, MSG_REGIONS)

    def finish_sending(self) -> None:
        self.conn.shutdown(socket.SHUT_WR)

    def close(self) -> None:
        self.conn.close()


def make_source(spec: str, seed: int = 0) -> Iterable[SourceFrame | SourceFailure]:
    """Build a mask source from a CLI spec: dir:<path> or gen:<spec>."""
    kind, _, rest = spec.partition(":")
    if kind == "dir" and rest:
        return dir_source(rest)
    if kind == "gen" and rest:
        return gen_source(rest, seed)
    raise ValueError(f"unsupported source {spec!r}")


def make_sink(spec: str):
    """Build a region sink from a CLI spec: dir:<path>, tcp:<host:port>, or null."""
    if spec == "null":
        return NullSink()
    kind, _, rest = spec.partition(":")
    if kind == "dir" and rest:
        return DirSink(rest)
    if kind == "tcp" and rest:
        return WireSink(socket.create_connection(parse_address(rest), timeout=IDLE_TIMEOUT_S))
    raise ValueError(f"unsupported sink {spec!r}")
