"""In-memory spans around the calls the program makes into each layer.

The tracer wraps public functions under the names the program looks them up
by (module globals such as ``lanespace.regions.dbscan``), so the program is
not edited and a refactor that stops calling a function shows a zero count
rather than a stale number. Spans stay in memory and are written out when the
traced process ends.

Parenting: a span's parent is the innermost open span of its own thread. A
span opened on a thread with no open span (the per-class worker pool) takes
the open ``extract_regions`` span as its parent, because the pipeline runs
one extraction at a time.
"""
from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

EXTRACT = "regions.extract_regions"
SOURCE = "pipeline.source"
SINK = "pipeline.sink"

# Per-layer metrics from the spans: ms are wall time inside the calls (on the
# per-class pool that includes waiting for the interpreter lock), averaged per
# extracted frame; counts are per frame except pipeline.source_failures (a
# total).
UNITS = {
    "core.downsample_ms": "ms",
    "core.extract_points_ms": "ms",
    "core.points": "count",
    "clustering.dbscan_ms": "ms",
    "clustering.clusters": "count",
    "clustering.clustered_ratio": "ratio",
    "geometry.convex_hull_ms": "ms",
    "geometry.hull_calls": "count",
    "geometry.intersection_calls": "count",
    "geometry.intersection_hit_ratio": "ratio",
    "regions.extract_ms": "ms",
    "regions.extract_self_ms": "ms",
    "regions.resolve_overlaps_ms": "ms",
    "regions.pieces": "count",
    "regions.assign_sides_ms": "ms",
    "regions.serialize_ms": "ms",
    "regions.doc_bytes": "bytes",
    "policy.advise_ms": "ms",
    "netpbm.read_mask_ms": "ms",
    "pipeline.queue_wait_ms": "ms",
    "pipeline.service_ms": "ms",
    "pipeline.in_flight_peak": "count",
    "pipeline.sink_ms": "ms",
    "pipeline.source_failures": "count",
    "pipeline.wire_encode_ms": "ms",
    "pipeline.wire_decode_ms": "ms",
    "pipeline.wire_bytes": "bytes",
}


class Span:
    __slots__ = ("sid", "name", "t0", "t1", "frame", "parent", "thread", "counts")

    def __init__(self, sid: int, name: str, frame: int | None, parent: int | None):
        self.sid = sid
        self.name = name
        self.frame = frame
        self.parent = parent
        self.thread = threading.current_thread().name
        self.counts: dict[str, float] | None = None
        self.t1 = 0.0
        self.t0 = time.perf_counter()

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.t0,
            "end": self.t1,
            "frame": self.frame,
            "parent": self.parent,
            "thread": self.thread,
            "counts": self.counts,
        }


def _len(args, out) -> dict[str, float]:
    return {"n": len(out)}


def _dbscan(args, out) -> dict[str, float]:
    n = len(out)
    return {
        "points": n,
        "clustered": int((out >= 0).sum()) if n else 0,
        "clusters": int(out.max()) + 1 if n else 0,
    }


def _hit(args, out) -> dict[str, float]:
    return {"hit": 0 if out is None else 1}


def _pieces(args, out) -> dict[str, float]:
    return {"pieces": sum(len(pieces) for _, pieces in out)}


def _bytes_out(args, out) -> dict[str, float]:
    return {"bytes": len(out)}


def _bytes_in(args, out) -> dict[str, float]:
    return {"bytes": len(args[0])}


# (module, attribute, span name, counter). Attributes are patched where the
# caller reads them: regions.py calls downsample, dbscan, ... through its own
# globals, and pipeline.py calls extract_regions, advise, ... through its own.
PATCHES: list[tuple[str, str, str, Callable | None]] = [
    ("lanespace.regions", "downsample", "core.downsample", None),
    ("lanespace.regions", "extract_points", "core.extract_points", _len),
    ("lanespace.regions", "dbscan", "clustering.dbscan", _dbscan),
    ("lanespace.regions", "convex_hull", "geometry.convex_hull", None),
    ("lanespace.regions", "convex_intersection", "geometry.convex_intersection", _hit),
    ("lanespace.regions", "convex_subtract", "geometry.convex_subtract", None),
    ("lanespace.regions", "resolve_overlaps", "regions.resolve_overlaps", _pieces),
    ("lanespace.regions", "assign_sides", "regions.assign_sides", None),
    ("lanespace.pipeline", "advise", "policy.advise", None),
    ("lanespace.pipeline", "build_document", "regions.build_document", None),
    ("lanespace.pipeline", "document_bytes", "regions.document_bytes", _bytes_out),
    ("lanespace.pipeline", "read_mask", "netpbm.read_mask", None),
    ("lanespace.pipeline", "decode_frame", "pipeline.decode_frame", _bytes_in),
    ("lanespace.pipeline", "encode_frame", "pipeline.encode_frame", _bytes_out),
    ("lanespace.pipeline:MaskPayload", "to_mask", "pipeline.to_mask", None),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: Span | None = None
        self._frame: int | None = None
        # Frames yielded by the source and not yet extracted, in order.
        self._pending: collections.deque = collections.deque()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, frame: int | None = None, adopt: bool = True) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root if adopt else None
        if frame is None and parent is None and adopt:
            frame = self._frame
        span = Span(next(self._ids), name, frame, parent.sid if parent else None)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span.counts = counter(args, out)
            return out

        return traced

    def wrap_extract(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(mask, *args, **kwargs):
            frame = None
            if self._pending:
                fid, pending_mask = self._pending.popleft()
                if pending_mask is mask:
                    frame = fid
            self._frame = frame
            span = self.open(EXTRACT, frame=frame, adopt=False)
            self._root = span
            try:
                return fn(mask, *args, **kwargs)
            finally:
                self._root = None
                self.close(span)

        return traced

    def source(self, source, failure_type: type):
        it = iter(source)
        while True:
            span = self.open(SOURCE, adopt=False)
            try:
                item = next(it, None)
            finally:
                self.close(span)
            if item is None:
                return
            if isinstance(item, failure_type):
                span.counts = {"failure": 1}
            else:
                span.frame = item.frame_id
                self._pending.append((item.frame_id, item.mask))
            yield item

    def install(self) -> None:
        """Patch every traced call site; absent attributes are recorded, not fatal."""
        import lanespace.pipeline as pipeline

        for path, attr, name, counter in PATCHES:
            owner = _owner(path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{path}.{attr}")
                continue
            self._set(owner, attr, self.wrap(name, fn, counter))
        self._set(pipeline, "extract_regions", self.wrap_extract(pipeline.extract_regions))

        run = pipeline.run_pipeline
        failure = pipeline.SourceFailure

        @functools.wraps(run)
        def traced_run(source, sink, *args, **kwargs):
            return run(self.source(source, failure), _TracedSink(self, sink), *args, **kwargs)

        self._set(pipeline, "run_pipeline", traced_run)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in sorted(self.spans, key=lambda s: s.t0):
                f.write(json.dumps(span.to_dict()) + "\n")


class _TracedSink:
    def __init__(self, tracer: Tracer, inner) -> None:
        self.tracer = tracer
        self.inner = inner

    def deliver(self, frame_id: int, document: bytes) -> None:
        span = self.tracer.open(SINK, frame=frame_id, adopt=False)
        try:
            self.inner.deliver(frame_id, document)
        finally:
            self.tracer.close(span)

    def close(self) -> None:
        self.inner.close()


# ---------------------------------------------------------------------------
# Analysis of a written span file


def load(path: Path) -> list[dict[str, Any]]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Duration minus the part of it covered by the span's children."""
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = [
            (max(a, s["start"]), min(b, s["end"]))
            for a, b in children.get(s["id"], ())
            if min(b, s["end"]) > max(a, s["start"])
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(kids)
    return out


def summarize(spans: list[dict[str, Any]]) -> dict[str, Any]:
    """Per-layer metrics (means per extracted frame unless a count) and a table."""
    by_name: dict[str, list[dict[str, Any]]] = collections.defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    selfs = self_times(spans)
    frames = max(len(by_name[EXTRACT]), 1)

    def ms(*names: str) -> float:
        return sum(s["end"] - s["start"] for n in names for s in by_name[n]) * 1000.0 / frames

    def count(name: str, key: str) -> float:
        return float(sum((s["counts"] or {}).get(key, 0) for s in by_name[name]))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    extract_dur = sum(s["end"] - s["start"] for s in by_name[EXTRACT])
    extract_self = sum(selfs[s["id"]] for s in by_name[EXTRACT])

    # Per-frame pipeline timing: yield (source span end), extraction start,
    # sink return. In flight = yielded and not yet returned from the sink.
    yielded = {s["frame"]: s["end"] for s in by_name[SOURCE] if s["frame"] is not None}
    started = {s["frame"]: s["start"] for s in by_name[EXTRACT] if s["frame"] is not None}
    delivered = {s["frame"]: s["end"] for s in by_name[SINK]}
    waits = [started[f] - yielded[f] for f in started if f in yielded]
    services = [delivered[f] - started[f] for f in started if f in delivered]
    events = sorted([(t, 1) for t in yielded.values()] + [(t, -1) for t in delivered.values()])
    depth = peak = 0
    for _, step in events:
        depth += step
        peak = max(peak, depth)

    metrics = {
        "core.downsample_ms": ms("core.downsample"),
        "core.extract_points_ms": ms("core.extract_points"),
        "core.points": count("core.extract_points", "n") / frames,
        "clustering.dbscan_ms": ms("clustering.dbscan"),
        "clustering.clusters": count("clustering.dbscan", "clusters") / frames,
        "clustering.clustered_ratio": ratio(
            count("clustering.dbscan", "clustered"), count("clustering.dbscan", "points")
        ),
        "geometry.convex_hull_ms": ms("geometry.convex_hull"),
        "geometry.hull_calls": len(by_name["geometry.convex_hull"]) / frames,
        "geometry.intersection_calls": len(by_name["geometry.convex_intersection"]) / frames,
        "geometry.intersection_hit_ratio": ratio(
            count("geometry.convex_intersection", "hit"),
            len(by_name["geometry.convex_intersection"]),
        ),
        "regions.extract_ms": extract_dur * 1000.0 / frames,
        "regions.extract_self_ms": extract_self * 1000.0 / frames,
        "regions.resolve_overlaps_ms": ms("regions.resolve_overlaps"),
        "regions.pieces": count("regions.resolve_overlaps", "pieces") / frames,
        "regions.assign_sides_ms": ms("regions.assign_sides"),
        "regions.serialize_ms": ms("regions.build_document", "regions.document_bytes"),
        "regions.doc_bytes": count("regions.document_bytes", "bytes") / frames,
        "policy.advise_ms": ms("policy.advise"),
        "netpbm.read_mask_ms": ms("netpbm.read_mask"),
        "pipeline.queue_wait_ms": ratio(sum(waits) * 1000.0, len(waits)),
        "pipeline.service_ms": ratio(sum(services) * 1000.0, len(services)),
        "pipeline.in_flight_peak": float(peak),
        "pipeline.sink_ms": ms(SINK),
        "pipeline.source_failures": count(SOURCE, "failure"),
        "pipeline.wire_encode_ms": ms("pipeline.encode_frame"),
        "pipeline.wire_decode_ms": ms("pipeline.decode_frame", "pipeline.to_mask"),
        "pipeline.wire_bytes": (
            count("pipeline.encode_frame", "bytes") + count("pipeline.decode_frame", "bytes")
        ) / frames,
    }

    # Everything under extract_regions, by self time; their sum should match
    # the extraction's duration unless pool threads overlapped.
    parent_of = {s["id"]: s["parent"] for s in spans}
    extract_ids = {s["id"] for s in by_name[EXTRACT]}

    def under_extract(sid: int) -> bool:
        while sid is not None:
            if sid in extract_ids:
                return True
            sid = parent_of.get(sid)
        return False

    table = []
    under_sum = 0.0
    for name in sorted(by_name):
        group = by_name[name]
        self_s = sum(selfs[s["id"]] for s in group)
        if all(under_extract(s["id"]) for s in group):
            under_sum += self_s
        table.append({
            "span": name,
            "calls": len(group),
            "ms_per_frame": sum(s["end"] - s["start"] for s in group) * 1000.0 / frames,
            "self_ms_per_frame": self_s * 1000.0 / frames,
            "threads": sorted({s["thread"] for s in group}),
        })
    return {
        "frames": len(by_name[EXTRACT]),
        "metrics": metrics,
        "table": table,
        "extract_self_sum_ratio": ratio(under_sum, extract_dur),
    }
