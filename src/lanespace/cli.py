"""Operator entry points: process, run, eval, gen, loss-check."""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .clustering import check_integer
from .core import ClassId, RoadClass, SegmentationMask, road_class_from_name, road_class_name
from .geometry import rasterize_pieces
from .losses import check_gradients
from .metrics import ConfusionCounts, accuracy, confusion, iou, miou
from .netpbm import read_mask, write_mask, write_rgb
from .pipeline import (
    PipelineConfig,
    SourceFrame,
    frame_document,
    make_sink,
    make_source,
    read_road_class,
    run_pipeline,
    serve,
)
from .regions import LANE_EGO, LANE_LEFT, LANE_RIGHT, LANE_UNASSIGNED, RegionSet
from .scenes import generate, sample_spec

GRADIENT_TOLERANCE = 1e-5

# Overlay palette: ego blue, left green, right red; unassigned magenta.
_LANE_COLORS = {
    LANE_EGO: (0, 0, 255),
    LANE_LEFT: (0, 200, 0),
    LANE_RIGHT: (255, 0, 0),
    LANE_UNASSIGNED: (255, 0, 255),
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


def _report(**body: Any) -> dict[str, Any]:
    return {"version": __version__, **body}


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
    mask = read_mask(mask_path)
    if args.road_class is not None:
        road_class = road_class_from_name(args.road_class)
    else:
        road_class = read_road_class(mask_path.with_suffix(".json"))
    regions, payload = frame_document(SourceFrame(0, road_class, mask), cfg.extraction)
    if args.out is None:
        sys.stdout.write(payload.decode("utf-8") + "\n")
    else:
        Path(args.out).write_bytes(payload)
    if args.overlay is not None:
        write_rgb(args.overlay, render_overlay(mask, regions))
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if args.source.startswith("tcp:"):
        # serve makes the sink once it has bound the address, so an address
        # that is bad or taken leaves no sink directory behind.
        address = args.source[len("tcp:") :]
        stats = serve(address, cfg, open_sink=lambda: make_sink(args.sink))
    else:
        # A bad source fails here, before the sink makes its directory.
        source = make_source(args.source, args.seed)
        sink = make_sink(args.sink)
        try:
            stats = run_pipeline(source, sink, cfg)
        finally:
            sink.close()
    report = _report(
        seed=args.seed,
        config=dataclasses.asdict(cfg),
        source=args.source,
        sink=args.sink,
        stats=dataclasses.asdict(stats),
    )
    _emit(report, args.stats)
    # The report is written either way; a frame that failed fails the run.
    return 1 if stats.errors else 0


def _document_to_mask(doc_path: Path, width: int, height: int) -> SegmentationMask:
    grid = np.zeros((height, width), dtype=np.uint8)
    try:
        doc = json.loads(doc_path.read_text())
        for region in doc["regions"]:
            pieces = [np.asarray(p, dtype=np.float64) for p in region["pieces"]]
            covered = rasterize_pieces(pieces, width, height)
            grid[covered] = ClassId.EGO_LANE if region["lane"] == LANE_EGO else ClassId.OTHER_LANES
    # Input that is not a region document fails one of these steps, whichever it is.
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as e:
        raise ValueError(f"{doc_path}: not a region document: {type(e).__name__}: {e}") from None
    return SegmentationMask(grid)


def cmd_eval(args) -> int:
    gt_dir, pred_dir = Path(args.gt), Path(args.pred)
    gt_files = sorted(gt_dir.glob("*.pgm"))
    if not gt_files:
        raise ValueError(f"no *.pgm files under {gt_dir}")
    totals = ConfusionCounts.zero()
    pred_classes: list[int] = []
    gt_classes: list[int] = []
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
            raise ValueError(f"no prediction for {gt_path.name}")
        try:
            totals = totals + confusion(pred_mask, gt_mask)
        except ValueError as e:  # only a mask prediction can have another shape
            raise ValueError(f"{pred_pgm}: {e}") from None
        gt_rc = read_road_class(gt_path.with_suffix(".json"))
        if gt_rc != RoadClass.UNKNOWN and pred_rc != RoadClass.UNKNOWN:
            gt_classes.append(int(gt_rc))
            pred_classes.append(int(pred_rc))
    per_class = {c.name.lower(): iou(totals, c) for c in ClassId}
    report = _report(
        per_class_iou=per_class,
        miou=miou(totals),
        accuracy=accuracy(pred_classes, gt_classes) if gt_classes else None,
        n_images=len(gt_files),
    )
    _emit(report, args.out)
    return 0


def cmd_gen(args) -> int:
    # Check and draw every spec first: a rejected count, obstacle count, size
    # or lane count must leave no directory.
    check_integer("--count", args.count, 1)
    check_integer("--obstacles", args.obstacles, 0)
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
    report = _report(
        seed=args.seed,
        config={
            "count": args.count,
            "width": args.width,
            "height": args.height,
            "lanes": args.lanes,
            "noise": args.noise,
            "obstacles": args.obstacles,
        },
        out=str(out_dir),
    )
    _emit(report, None)
    return 0


def cmd_loss_check(args) -> int:
    result = check_gradients(cases=args.cases, seed=args.seed)
    worst = max(result["max_rel_error"].values())
    report = _report(
        seed=args.seed,
        gradient_check=result,
        tolerance=GRADIENT_TOLERANCE,
        passed=bool(worst <= GRADIENT_TOLERANCE),
    )
    _emit(report, args.out)
    return 0 if worst <= GRADIENT_TOLERANCE else 1


def build_parser() -> argparse.ArgumentParser:
    # Each command takes only the shared options it reads.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON config file")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="base RNG seed")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the JSON result here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="lanespace",
        description="Lane region extraction from drivable-area masks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("process", parents=[config, out], help="one mask to one region document")
    p.add_argument("mask", help="input P5 mask file")
    p.add_argument("--road-class", help=f"road class name, one of: {', '.join(road_class_name(rc) for rc in RoadClass)}")
    p.add_argument("--overlay", help="also write an RGB overlay to this PPM path")
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("run", parents=[config, seed], help="stream masks through the pipeline")
    p.add_argument("--source", required=True, help="dir:<path>, gen:<N[xWxH][@noise]>, or tcp:<host:port> to serve")
    p.add_argument("--sink", default="null", help="dir:<path>, tcp:<host:port>, or null")
    p.add_argument("--stats", help="write the stats report here instead of stdout")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", parents=[out], help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="directory of predicted masks or region documents")
    p.add_argument("--gt", required=True, help="directory of ground-truth masks")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", parents=[seed], help="write synthetic scenes with ground truth")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--lanes", type=int, help="fixed lane count 1..3 (default random)")
    p.add_argument("--noise", type=float, help="fixed noise rate (default random up to 0.02)")
    p.add_argument("--obstacles", type=int, default=2, help="max obstacles per scene")
    p.add_argument("--out", help="directory for the scene files (default scenes)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("loss-check", parents=[seed, out], help="finite-difference gradient audit")
    p.add_argument("--cases", type=int, default=1000)
    p.set_defaults(func=cmd_loss_check)

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
