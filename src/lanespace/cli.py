"""Operator entry points: process, run, eval, gen, loss-check, bench."""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .core import RoadClass, SegmentationMask, road_class_from_name, road_class_name
from .geometry import rasterize_pieces
from .losses import check_gradients
from .metrics import N_CLASSES, ConfusionCounts, accuracy, confusion, iou, miou
from .netpbm import PnmError, read_mask, write_mask, write_rgb
from .pipeline import (
    NullSink,
    PipelineConfig,
    gen_source,
    make_sink,
    make_source,
    read_road_class,
    run_pipeline,
    serve,
)
from .policy import advise
from .regions import (
    LANE_EGO,
    LANE_LEFT,
    LANE_RIGHT,
    RegionSet,
    build_document,
    document_bytes,
    extract_regions,
)
from .scenes import generate, sample_spec

GRADIENT_TOLERANCE = 1e-5

# Overlay palette: ego blue, left green, right red; unassigned magenta.
_LANE_COLORS = {
    LANE_EGO: (0, 0, 255),
    LANE_LEFT: (0, 200, 0),
    LANE_RIGHT: (255, 0, 0),
    "unassigned": (255, 0, 255),
}
_GRAY_PER_CLASS = 80  # grayscale rendering: class code * 80


def _finite_number(text: str) -> float:
    # json calls this for numbers with a fraction or exponent (1e400 reads as
    # inf) and for Infinity, -Infinity and NaN, which RFC 8259 does not allow.
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"config holds {text}; only finite JSON numbers are allowed")
    return value


def _load_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    with open(path) as f:
        raw = json.load(f, parse_float=_finite_number, parse_constant=_finite_number)
    return PipelineConfig.from_dict(raw)


def _emit(payload: dict[str, Any], out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n")


def _report(args, cfg: PipelineConfig, **body: Any) -> dict[str, Any]:
    return {
        "version": __version__,
        "seed": args.seed,
        "config": cfg.to_dict(),
        **body,
    }


def render_overlay(mask: SegmentationMask, regions: RegionSet) -> np.ndarray:
    """Region fills over a grayscale rendering of the input mask."""
    gray = (mask.data.astype(np.uint16) * _GRAY_PER_CLASS).astype(np.uint8)
    img = np.repeat(gray[:, :, None], 3, axis=2)
    for region in regions.present():
        covered = rasterize_pieces(region.pieces, mask.width, mask.height)
        img[covered] = _LANE_COLORS[region.lane]
    return img


def cmd_process(args) -> int:
    cfg = _load_config(args.config)
    mask_path = Path(args.mask)
    try:
        mask = read_mask(mask_path)
    except (PnmError, OSError) as e:
        print(f"error: cannot read mask {args.mask}: {e}", file=sys.stderr)
        return 2
    if args.road_class is not None:
        road_class = road_class_from_name(args.road_class)
    else:
        road_class = read_road_class(mask_path.with_suffix(".json"))
    regions = extract_regions(mask, cfg.extraction)
    advice = advise(road_class, regions)
    doc = build_document(0, road_class, regions, advice.as_dict())
    payload = document_bytes(doc)
    if args.out is None:
        sys.stdout.write(payload.decode("utf-8") + "\n")
    else:
        Path(args.out).write_bytes(payload)
    if args.overlay is not None:
        write_rgb(args.overlay, render_overlay(mask, regions))
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    served = args.source.startswith("tcp:")
    # A bad source fails here, before the sink makes its directory.
    source = None if served else make_source(args.source, args.seed)
    sink = make_sink(args.sink)
    try:
        if served:
            stats = serve(args.source[len("tcp:") :], cfg, extra_sink=sink)
        else:
            stats = run_pipeline(source, sink, cfg)
    finally:
        sink.close()
    report = _report(args, cfg, source=args.source, sink=args.sink, stats=stats.to_dict())
    _emit(report, args.stats or args.out)
    return 0


def _document_to_mask(doc_path: Path, width: int, height: int) -> SegmentationMask:
    doc = json.loads(doc_path.read_text())
    grid = np.zeros((height, width), dtype=np.uint8)
    for region in doc.get("regions", []):
        pieces = [np.asarray(p, dtype=np.float64) for p in region["pieces"]]
        covered = rasterize_pieces(pieces, width, height)
        grid[covered] = 1 if region["lane"] == LANE_EGO else 2
    return SegmentationMask(grid)


def cmd_eval(args) -> int:
    gt_dir, pred_dir = Path(args.gt), Path(args.pred)
    gt_files = sorted(gt_dir.glob("*.pgm"))
    if not gt_files:
        print(f"error: no *.pgm files under {gt_dir}", file=sys.stderr)
        return 2
    totals = ConfusionCounts.zero()
    pred_classes: list[int] = []
    gt_classes: list[int] = []
    n_images = 0
    for gt_path in gt_files:
        gt_mask = read_mask(gt_path)
        pred_pgm = pred_dir / gt_path.name
        pred_doc = (pred_dir / gt_path.stem).with_suffix(".json")
        if pred_pgm.exists():
            pred_mask = read_mask(pred_pgm)
            pred_rc = read_road_class(pred_pgm.with_suffix(".json"))
        elif pred_doc.exists():
            pred_mask = _document_to_mask(pred_doc, gt_mask.width, gt_mask.height)
            pred_rc = read_road_class(pred_doc)
        else:
            print(f"error: no prediction for {gt_path.name}", file=sys.stderr)
            return 2
        totals = totals + confusion(pred_mask, gt_mask)
        n_images += 1
        gt_rc = read_road_class(gt_path.with_suffix(".json"))
        if gt_rc != RoadClass.UNKNOWN and pred_rc != RoadClass.UNKNOWN:
            gt_classes.append(int(gt_rc))
            pred_classes.append(int(pred_rc))
    class_names = ["background", "ego_lane", "other_lanes"]
    per_class = {
        class_names[c]: iou(totals, c) for c in range(N_CLASSES)
    }
    report = _report(
        args,
        _load_config(args.config),
        per_class_iou=per_class,
        miou=miou(totals),
        accuracy=accuracy(pred_classes, gt_classes) if gt_classes else None,
        n_images=n_images,
    )
    _emit(report, args.out)
    return 0


def cmd_gen(args) -> int:
    # Draw every spec first: a rejected size or lane count must leave no directory.
    specs = [
        sample_spec(
            args.seed + i,
            width=args.width,
            height=args.height,
            lane_count=args.lanes,
            max_obstacles=args.obstacles,
            noise_rate=args.noise,
        )
        for i in range(args.count)
    ]
    out_dir = Path(args.out or "scenes")
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, spec in enumerate(specs):
        mask, _ = generate(spec)
        write_mask(out_dir / f"{i:06d}.pgm", mask)
        (out_dir / f"{i:06d}.json").write_text(json.dumps(spec.to_dict(), indent=2) + "\n")
    report = {
        "version": __version__,
        "seed": args.seed,
        "config": {
            "count": args.count,
            "width": args.width,
            "height": args.height,
            "lanes": args.lanes,
            "noise": args.noise,
            "obstacles": args.obstacles,
        },
        "out": str(out_dir),
    }
    print(json.dumps(report, indent=2))
    return 0


def cmd_loss_check(args) -> int:
    result = check_gradients(cases=args.cases, seed=args.seed)
    worst = max(result["max_rel_error"].values())
    report = _report(
        args,
        _load_config(args.config),
        gradient_check=result,
        tolerance=GRADIENT_TOLERANCE,
        passed=bool(worst <= GRADIENT_TOLERANCE),
    )
    _emit(report, args.out)
    return 0 if worst <= GRADIENT_TOLERANCE else 1


def cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    spec = f"{args.frames}x{args.width}x{args.height}"
    if args.noise is not None:
        spec += f"@{args.noise}"
    warm = run_pipeline(gen_source(f"{args.warmup}x{args.width}x{args.height}", args.seed), NullSink(), cfg)
    measured = run_pipeline(gen_source(spec, args.seed), NullSink(), cfg)
    report = _report(
        args,
        cfg,
        warmup={"frames": args.warmup, "throughput_fps": warm.throughput_fps},
        stats=measured.to_dict(),
    )
    _emit(report, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--seed", type=int, default=0, help="base RNG seed")
    shared.add_argument("--out", help="write the JSON result here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="lanespace",
        description="Lane region extraction from drivable-area masks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("process", parents=[shared], help="one mask to one region document")
    p.add_argument("mask", help="input P5 mask file")
    p.add_argument("--road-class", help=f"road class name, one of: {', '.join(road_class_name(rc) for rc in RoadClass)}")
    p.add_argument("--overlay", help="also write an RGB overlay to this PPM path")
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("run", parents=[shared], help="stream masks through the pipeline")
    p.add_argument("--source", required=True, help="dir:<path>, gen:<N[xWxH][@noise]>, or tcp:<host:port> to serve")
    p.add_argument("--sink", default="null", help="dir:<path>, tcp:<host:port>, or null")
    p.add_argument("--stats", help="write the stats report here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", parents=[shared], help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="directory of predicted masks or region documents")
    p.add_argument("--gt", required=True, help="directory of ground-truth masks")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", parents=[shared], help="write synthetic scenes with ground truth")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--lanes", type=int, help="fixed lane count 1..3 (default random)")
    p.add_argument("--noise", type=float, help="fixed noise rate (default random up to 0.02)")
    p.add_argument("--obstacles", type=int, default=2, help="max obstacles per scene")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("loss-check", parents=[shared], help="finite-difference gradient audit")
    p.add_argument("--cases", type=int, default=1000)
    p.set_defaults(func=cmd_loss_check)

    p = sub.add_parser("bench", parents=[shared], help="timed pipeline run with warmup")
    p.add_argument("--frames", type=int, default=100)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--noise", type=float)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
