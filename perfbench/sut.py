"""Runs lanespace, the system under test, in a fresh process for one benchmark pass.

    sut.py batch --source dir:<path>|npz:<path> --sink dir:<path>|null
                 --downsample F --seconds S --min-frames N
                 --result <json> [--spans <jsonl>]
    sut.py serve --downsample F --result <json> [--spans <jsonl>]

`batch` is a closed loop: the source cycles through the input frames, numbering
them 0, 1, ..., until `--seconds` have passed since the first delivery and at
least `--min-frames` were read. `serve` answers one loopback connection with
`lanespace.pipeline.serve` and prints `PORT <n>` once it listens. Timestamps
are time.monotonic(), which is system-wide on Linux, so the parent can set
them against the time it started this process.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_lanespace() -> None:
    """Import lanespace from the checkout's src/, never from anywhere else."""
    if not (SRC / "lanespace" / "__init__.py").is_file():
        raise SystemExit(f"error: no lanespace package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lanespace

    if Path(lanespace.__file__).resolve().parent != SRC / "lanespace":
        raise SystemExit(f"error: lanespace imported from {lanespace.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    """This process's resident high-water mark.

    VmHWM belongs to the address space made at exec. ru_maxrss does not do:
    the kernel carries the spawning parent's peak over into it.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Sink wrapper that notes each delivery's frame id and time."""

    def __init__(self, inner, keep_docs: bool):
        self.inner = inner
        self.keep_docs = keep_docs
        self.ids: list[int] = []
        self.times: list[float] = []
        self.docs: list[bytes] = []
        self.first: float | None = None
        self.cpu_first = 0.0

    def deliver(self, frame_id: int, document: bytes) -> None:
        self.inner.deliver(frame_id, document)
        now = time.monotonic()
        if self.first is None:
            self.first = now
            self.cpu_first = time.process_time()
        self.ids.append(frame_id)
        self.times.append(now)
        if self.keep_docs:
            self.docs.append(document)

    def cpu_ms_per_frame(self) -> float:
        """CPU time of all this process's threads per frame delivered after the first."""
        n = len(self.ids) - 1
        return (time.process_time() - self.cpu_first) * 1000.0 / n if n > 0 else 0.0

    def close(self) -> None:
        self.inner.close()


def closed_loop(make_iter, recorder: Recorder, seconds: float, min_frames: int,
                reads: list[float], failures: list[str]):
    """Cycle the inner source and renumber frames until the run is long enough."""
    from lanespace.pipeline import SourceFailure

    n = 0
    while True:
        produced = False
        it = iter(make_iter())
        while True:
            first = recorder.first
            if n >= min_frames and first is not None and time.monotonic() >= first + seconds:
                return
            t_read = time.monotonic()
            item = next(it, None)
            if item is None:
                break
            produced = True
            if isinstance(item, SourceFailure):
                failures.append(item.reason)
                yield item
                continue
            reads.append(t_read)
            yield dataclasses.replace(item, frame_id=n)
            n += 1
        if not produced:
            return


def cmd_batch(args) -> dict:
    import_lanespace()
    from lanespace import pipeline
    from lanespace.regions import ExtractionConfig

    load_s = 0.0
    kind, _, where = args.source.partition(":")
    if kind == "dir":
        def make_iter():
            return pipeline.dir_source(where)
    elif kind == "npz":
        import numpy as np

        from lanespace.core import RoadClass, SegmentationMask

        t0 = time.monotonic()
        with np.load(where) as data:
            frames = [
                pipeline.SourceFrame(k, RoadClass(int(rc)), SegmentationMask(m))
                for k, (m, rc) in enumerate(zip(data["masks"], data["road_classes"]))
            ]
        load_s = time.monotonic() - t0

        def make_iter():
            return iter(frames)
    else:
        raise SystemExit(f"error: unknown source {args.source!r}")

    sink = pipeline.NullSink() if args.sink == "null" else pipeline.DirSink(args.sink.partition(":")[2])
    recorder = Recorder(sink, keep_docs=args.sink == "null")
    cfg = pipeline.PipelineConfig(extraction=ExtractionConfig(downsample_factor=args.downsample))
    tracer = _tracer(args)
    reads: list[float] = []
    failures: list[str] = []
    source = closed_loop(make_iter, recorder, args.seconds, args.min_frames, reads, failures)
    try:
        pipeline.run_pipeline(source, recorder, cfg)
    finally:
        recorder.close()
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(args.spans))
    if recorder.keep_docs:
        Path(args.result).with_suffix(".docs").write_bytes(b"".join(d + b"\n" for d in recorder.docs))
    return {
        "ids": recorder.ids,
        "delivered_at": recorder.times,
        "read_at": reads,
        "source_failures": failures,
        "load_s": load_s,
        "cpu_ms_per_frame": recorder.cpu_ms_per_frame(),
        "peak_rss_mb": peak_rss_mb(),
        "trace_missing": tracer.missing if tracer else [],
    }


def cmd_serve(args) -> dict:
    import_lanespace()
    from lanespace import pipeline
    from lanespace.regions import ExtractionConfig

    cfg = pipeline.PipelineConfig(extraction=ExtractionConfig(downsample_factor=args.downsample))
    tracer = _tracer(args)

    def bound(port: int) -> None:
        print(f"PORT {port}", flush=True)

    recorder = Recorder(pipeline.NullSink(), keep_docs=False)
    stats = pipeline.serve("127.0.0.1:0", cfg, extra_sink=recorder, bound_callback=bound)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(args.spans))
    return {
        "source_failures": stats.errors,
        "cpu_ms_per_frame": recorder.cpu_ms_per_frame(),
        "peak_rss_mb": peak_rss_mb(),
        "trace_missing": tracer.missing if tracer else [],
    }


def _tracer(args):
    if not args.spans:
        return None
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("batch", "serve"):
        p = sub.add_parser(mode)
        p.add_argument("--downsample", type=int, required=True)
        p.add_argument("--result", required=True)
        p.add_argument("--spans")
        if mode == "batch":
            p.add_argument("--source", required=True)
            p.add_argument("--sink", required=True)
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--min-frames", type=int, default=1)
    args = parser.parse_args()
    result = cmd_batch(args) if args.mode == "batch" else cmd_serve(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
