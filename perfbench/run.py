"""The lanespace benchmark: one workload per invocation.

    python3 perfbench/run.py --workload batch-ds4 --seed 1 --seconds 10 --trace 0

Inputs are 640x480 scenes at noise 0.01 drawn from the seed; the program sees
only the generated masks. Each pass of the system under test is a fresh
process running perfbench/sut.py against the lanespace package in src/.

  batch-ds4        closed loop: dir_source over .pgm files with sidecars ->
                   run_pipeline (default config: downsample 4, pool 6) -> DirSink
  fullres-ds1      closed loop: in-memory frames -> run_pipeline with
                   downsample 1 -> NullSink
  camera30-socket  open loop: one connection sends a mask every 1/30 s to a
                   separate `serve` process and reads each region frame back

--trace 0 prints the end-to-end metrics: the run's --seconds are shared by
several fresh starts of the system (passes); throughput and CPU time per frame
are the best pass's (see end_to_end), set-up time the median. --trace 1 makes
one untraced and one traced pass, prints the per-layer metrics and the tracing
overhead, and writes the spans and a layer table under .bench_work/trace/.
Every delivered document is checked against a serial reference computed after
the timed passes, and for the default seed against the digest in digests.json.
The last line of stdout is the result JSON; the exit code is non-zero when a
check fails.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
DIGEST_FRAMES = 60  # frames of the first pass covered by the digest and lane IoU
CHILD_GRACE_S = 60.0
PASSES = 5  # fresh starts of the system per --trace 0 run, sharing --seconds


@dataclass(frozen=True)
class Workload:
    name: str
    downsample: int
    pool: int  # distinct scenes, cycled for as long as the run lasts
    deploy: str  # "dir", "memory" or "socket"
    rate: float = 0.0  # open-loop frames per second


WORKLOADS = {w.name: w for w in (
    Workload("batch-ds4", 4, 60, "dir"),
    Workload("fullres-ds1", 1, 30, "memory"),
    Workload("camera30-socket", 4, 300, "socket", rate=30.0),
)}

END_TO_END_UNITS = {
    "throughput_fps": "fps",
    "cpu_ms_per_frame": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lane_iou_mean": "ratio",
}
PER_LAYER_UNITS = {
    **spans.UNITS,
    "loadgen.late_p95_ms": "ms",
    "loadgen.latency_p50_ms": "ms",
    "loadgen.latency_p95_ms": "ms",
    "loadgen.lockstep_ratio": "ratio",
    "baseline.serial_fps": "fps",
}
# Latency is a per-layer metric, without a bound, because on a shared host it
# follows the host's load more than the program. On the socket the host's
# stalls are amplified: `serve` leaves Nagle's algorithm on, so a reply that is
# ready while the one before is still unacknowledged waits for that ACK, which
# the client delays until it sends its next mask. After one stall every reply
# waits so, about one frame period, until the client happens to send late. The
# share of frames in such episodes (loadgen.lockstep_ratio) went from none to
# over half within minutes on one commit on a 2-vCPU shared VM, and the median
# latency from 19 to 35 ms with it. CPU time per frame takes latency's place
# as the bounded per-frame cost.
LOCKSTEP = "loadgen.lockstep_ratio"


class BenchError(RuntimeError):
    pass


@dataclass
class Pass:
    """One start of the system under test and what it delivered."""

    attempted: int
    offset: int  # scene shown by frame 0; frame i shows scene offset + i
    delivered: list[tuple[int, bytes | None]]
    setup_s: float
    peak_rss_mb: float
    cpu_ms_per_frame: float
    # (delivered at, started at) for the frames that count toward timing.
    timed: list[tuple[float, float]] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    lockstep: float = 0.0
    errors: list[str] = field(default_factory=list)
    trace_missing: list[str] = field(default_factory=list)

    def throughput_fps(self) -> float:
        ends = sorted(t for t, _ in self.timed)
        if len(ends) < 2 or ends[-1] <= ends[0]:
            return 0.0
        return (len(ends) - 1) / (ends[-1] - ends[0])


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    """The best pass's throughput and CPU time per frame, and the medians
    over the passes of each pass's latency percentiles.

    Other tenants of the host can only slow the program: they take its vCPUs
    for a while (steal time, which reached a third of the CPU time in some
    runs on a 2-vCPU VM) and share its cores' caches. The best pass is the
    one they disturbed least, the steadiest measure of the program's own
    speed and cost.
    """
    import numpy as np

    def median_of(fn) -> float:
        return statistics.median(fn(p) for p in passes)

    def latency(p: Pass, q: float) -> float:
        lat = [(end - start) * 1000.0 for end, start in p.timed]
        return float(np.percentile(lat, q)) if lat else 0.0

    return {
        "throughput_fps": max(p.throughput_fps() for p in passes),
        "cpu_ms_per_frame": min(p.cpu_ms_per_frame for p in passes),
        "latency_p50_ms": median_of(lambda p: latency(p, 50)),
        "latency_p95_ms": median_of(lambda p: latency(p, 95)),
    }


@contextlib.contextmanager
def spawn(args: list[str], log: Path, stdout=None):
    """Start sut.py; the child is killed and reaped however the block exits."""
    with open(log, "wb") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "sut.py"), *args],
                                stdout=stdout, stderr=err, stdin=subprocess.DEVNULL)
        try:
            yield proc
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()


def _finish(proc, timeout: float, log: Path, tag: str) -> None:
    code = proc.wait(timeout=timeout)
    if code != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"{tag}: system under test exited with {code}\n{tail}")


def batch_pass(w: Workload, work: Path, tag: str, seconds: float, min_frames: int,
               spans_path: Path | None = None) -> Pass:
    result = work / f"{tag}.json"
    args = ["batch", "--downsample", str(w.downsample), "--result", str(result),
            "--seconds", str(seconds), "--min-frames", str(min_frames)]
    out = work / f"{tag}-out"
    if w.deploy == "dir":
        args += ["--source", f"dir:{work / 'scenes'}", "--sink", f"dir:{out}"]
    else:
        args += ["--source", f"npz:{work / 'frames.npz'}", "--sink", "null"]
    if spans_path is not None:
        args += ["--spans", str(spans_path)]
    log = work / f"{tag}.log"
    t_spawn = time.monotonic()
    with spawn(args, log) as proc:
        _finish(proc, seconds + CHILD_GRACE_S, log, tag)
    r = json.loads(result.read_text())
    ids, errors = r["ids"], list(r["source_failures"])
    if not ids:
        raise BenchError(f"{tag}: no document delivered")
    if w.deploy == "dir":
        written = {int(p.stem): p for p in out.glob("*.json")}
        docs = [written[fid].read_bytes() if fid in written else None for fid in ids]
        errors += [f"file for undelivered frame {fid}" for fid in sorted(set(written) - set(ids))]
    else:
        docs = result.with_suffix(".docs").read_bytes().split(b"\n")[:-1]
    reads = r["read_at"]
    return Pass(
        attempted=len(reads) + len(r["source_failures"]),
        offset=0,
        delivered=list(zip(ids, docs)),
        setup_s=r["delivered_at"][0] - t_spawn - r["load_s"],
        peak_rss_mb=r["peak_rss_mb"],
        cpu_ms_per_frame=r["cpu_ms_per_frame"],
        timed=[(t, reads[fid]) for fid, t in zip(ids, r["delivered_at"]) if 0 <= fid < len(reads)],
        errors=errors,
        trace_missing=r["trace_missing"],
    )


def socket_pass(w: Workload, corpus, work: Path, tag: str, count: int, offset: int,
                spans_path: Path | None = None) -> Pass:
    from lanespace.pipeline import PipelineClient

    from loadgen import drive, lockstep_ratio

    result = work / f"{tag}.json"
    args = ["serve", "--downsample", str(w.downsample), "--result", str(result)]
    if spans_path is not None:
        args += ["--spans", str(spans_path)]
    log = work / f"{tag}.log"
    pool = len(corpus)

    def frames(fid: int):
        k = (offset + fid) % pool
        return corpus.masks[k], corpus.road_classes[k]

    t_spawn = time.monotonic()
    with spawn(args, log, stdout=subprocess.PIPE) as proc:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_GRACE_S)
        line = proc.stdout.readline().decode() if ready else ""
        if not line.startswith("PORT "):
            raise BenchError(f"{tag}: server did not start\n{log.read_text(errors='replace')[-2000:]}")
        client = PipelineClient(f"127.0.0.1:{int(line.split()[1])}", timeout=30.0)
        try:
            client.send_mask(0, *frames(0))
            first = client.recv_regions()
            t_first = time.monotonic()
            if first is None:
                raise BenchError(f"{tag}: server closed before answering")
            loop = drive(client, frames, count, w.rate)
        finally:
            client.close()
        _finish(proc, CHILD_GRACE_S, log, tag)
    r = json.loads(result.read_text())
    return Pass(
        attempted=count + 1,
        offset=offset,
        delivered=[(first.frame_id, first.payload.document)]
        + [(fid, doc) for fid, doc, _ in loop.received],
        setup_s=t_first - t_spawn,
        peak_rss_mb=r["peak_rss_mb"],
        cpu_ms_per_frame=r["cpu_ms_per_frame"],
        timed=[(t, loop.due[fid - 1]) for fid, _, t in loop.received if 1 <= fid <= count],
        late=loop.late,
        lockstep=lockstep_ratio({fid - 1: t for fid, _, t in loop.received},
                                [due + late for due, late in zip(loop.due, loop.late)]),
        errors=loop.errors + [f"server: {n} source failures" for n in [r["source_failures"]] if n],
        trace_missing=r["trace_missing"],
    )


def run_pass(w, corpus, work, tag, seconds, index=0, spans_path=None) -> Pass:
    """Batch passes each start at scene 0 and read the whole corpus at least
    once; socket passes continue through the corpus where the last one ended."""
    if w.deploy == "socket":
        count = int(round(w.rate * seconds))
        return socket_pass(w, corpus, work, tag, count, index * (count + 1), spans_path)
    return batch_pass(w, work, tag, seconds, len(corpus), spans_path=spans_path)


def traced_serial(corpus, cfg, path: Path) -> dict:
    """Trace a serial extract_regions loop, where no spans overlap."""
    from lanespace import pipeline

    tracer = spans.Tracer()
    tracer.install()
    try:
        for mask in corpus.masks:
            pipeline.extract_regions(mask, cfg)
    finally:
        tracer.uninstall()
    tracer.write(path)
    return spans.summarize(spans.load(path))


def metadata(args, w: Workload, pool: int, passes: dict[str, Pass]) -> dict:
    import numpy
    import scipy

    lines = sum(
        1
        for path in sorted((SRC / "lanespace").glob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "scenes": pool,
        "downsample": w.downsample,
        "open_loop_fps": w.rate or None,
        "frames": {tag: {"attempted": p.attempted, "delivered": len(p.delivered)}
                   for tag, p in passes.items()},
        "src_lines": lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenes", type=int, help="distinct scenes (default per workload)")
    args = parser.parse_args()
    if not (SRC / "lanespace" / "__init__.py").is_file():
        print(f"error: no lanespace package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return bench(args, w, work)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, w: Workload, work: Path) -> int:
    from corpus import (Reference, check_delivery, corpus_digest, lane_iou,
                        make_corpus, write_npz, write_scene_dir)

    pool = args.scenes or w.pool
    corpus = make_corpus(args.seed, pool)
    if w.deploy == "dir":
        write_scene_dir(corpus, work / "scenes")
    elif w.deploy == "memory":
        write_npz(corpus, work / "frames.npz")

    trace_dir = WORK / "trace" / f"{w.name}-seed{args.seed}"
    passes: dict[str, Pass] = {}
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
        passes["plain"] = run_pass(w, corpus, work, "plain", args.seconds / 2)
        passes["traced"] = run_pass(w, corpus, work, "traced", args.seconds / 2, index=1,
                                    spans_path=trace_dir / "spans.jsonl")
    else:
        for i in range(PASSES):
            passes[f"pass{i}"] = run_pass(w, corpus, work, f"pass{i}", args.seconds / PASSES, i)

    reference = Reference(corpus, w.downsample)
    failures: dict[str, dict[int, str]] = {}
    errors: list[str] = []
    for tag, p in passes.items():
        failures[tag] = check_delivery(
            p.delivered, p.attempted,
            lambda fid, p=p: reference.document(fid, (p.offset + fid) % pool))
        errors += [f"{tag}: {e}" for e in p.errors]
    first_tag = next(iter(passes))
    first = dict(passes[first_tag].delivered)
    covered = min(pool, DIGEST_FRAMES, passes[first_tag].attempted)
    docs = [first.get(fid) or b'{"regions":[]}' for fid in range(covered)]
    digest = corpus_digest(docs)
    if args.seed == DEFAULT_SEED and covered == min(pool, DIGEST_FRAMES):
        recorded = json.loads(DIGESTS.read_text()).get(w.name, {})
        if recorded.get("scenes") == pool and recorded.get("sha256") != digest:
            print(f"check: default-seed digest {digest} != recorded {recorded.get('sha256')}",
                  file=sys.stderr)
            for fid in range(covered):
                failures[first_tag].setdefault(fid, "default-seed digest mismatch")

    attempted = sum(p.attempted for p in passes.values())
    failed = min(attempted, sum(len(f) for f in failures.values()) + len(errors))
    meta = metadata(args, w, pool, passes)
    meta["digest"] = digest
    report = {"meta": meta, "errors": errors,
              "failures": {tag: {str(k): v for k, v in sorted(f.items())[:20]}
                           for tag, f in failures.items() if f}}

    if args.trace:
        summary = spans.summarize(spans.load(trace_dir / "spans.jsonl"))
        serial = traced_serial(corpus, reference.cfg, trace_dir / "serial-spans.jsonl")
        values = dict(summary["metrics"])
        traced = passes["traced"]
        plain, with_spans = end_to_end([passes["plain"]]), end_to_end([traced])
        values["loadgen.late_p95_ms"] = _percentile_ms(traced.late, 95)
        values["loadgen.latency_p50_ms"] = plain["latency_p50_ms"]
        values["loadgen.latency_p95_ms"] = plain["latency_p95_ms"]
        values[LOCKSTEP] = passes["plain"].lockstep
        values["baseline.serial_fps"] = reference.serial_fps
        overhead = {k: with_spans[k] - plain[k] for k in plain}
        units = PER_LAYER_UNITS
        report.update(layers=summary, serial_layers=serial, overhead=overhead,
                      trace_missing=traced.trace_missing)
        (trace_dir / "layers.json").write_text(json.dumps(report, indent=2) + "\n")
        _print_layers(summary, serial, overhead)
    else:
        values = end_to_end(list(passes.values()))
        report["passes"] = {tag: {**end_to_end([p]), "setup_s": p.setup_s, LOCKSTEP: p.lockstep}
                            for tag, p in passes.items()}
        values["setup_s"] = statistics.median(p.setup_s for p in passes.values())
        values["peak_rss_mb"] = max(p.peak_rss_mb for p in passes.values())
        values["lane_iou_mean"] = lane_iou(docs, corpus)
        units = END_TO_END_UNITS
    report["metrics"] = values

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    for e in errors:
        print(f"check: {e}", file=sys.stderr)
    for tag, f in failures.items():
        for fid, why in sorted(f.items())[:5]:
            print(f"check: {tag} frame {fid}: {why}", file=sys.stderr)
    print("meta " + json.dumps(meta))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def _percentile_ms(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1000.0 if values else 0.0


def _print_layers(summary: dict, serial: dict, overhead: dict) -> None:
    print(f"{'span':32} {'calls':>7} {'ms/frame':>9} {'self ms':>9}  threads")
    for row in summary["table"]:
        print(f"{row['span']:32} {row['calls']:>7} {row['ms_per_frame']:>9.3f}"
              f" {row['self_ms_per_frame']:>9.3f}  {','.join(row['threads'])}")
    print("self times under extract_regions / its duration: "
          f"pipeline {summary['extract_self_sum_ratio']:.3f} (per-class pool tasks overlap), "
          f"serial loop {serial['extract_self_sum_ratio']:.3f}")
    print("tracing overhead (traced - untraced): "
          + ", ".join(f"{k} {v:+.3f}" for k, v in overhead.items()))


if __name__ == "__main__":
    sys.exit(main())
