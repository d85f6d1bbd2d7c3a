"""Generate one synthetic scene, extract its lane regions, and write artifacts.

Writes mask.pgm, overlay.ppm, document.json, and scene.json into --out, then
prints the navigation advisory and the per-lane oracle IoU.

Example:
    python3 scripts/demo_scene.py --seed 7 --out demo
"""
import argparse
import json
from pathlib import Path

from lanespace.cli import render_overlay
from lanespace.geometry import rasterize_pieces
from lanespace.netpbm import write_mask, write_rgb
from lanespace.pipeline import SourceFrame, frame_document
from lanespace.regions import ExtractionConfig
from lanespace.scenes import generate, sample_spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lanes", type=int, choices=(1, 2, 3))
    parser.add_argument("--noise", type=float)
    parser.add_argument("--out", default="demo")
    args = parser.parse_args()

    spec = sample_spec(args.seed, lane_count=args.lanes, noise_rate=args.noise)
    mask, oracle = generate(spec)
    regions, document = frame_document(
        SourceFrame(args.seed, spec.road_class, mask), ExtractionConfig()
    )
    doc = json.loads(document)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_mask(out / "mask.pgm", mask)
    write_rgb(out / "overlay.ppm", render_overlay(mask, regions))
    (out / "document.json").write_bytes(document)
    (out / "scene.json").write_text(json.dumps(spec.to_dict(), indent=2) + "\n")

    print(f"scene seed {args.seed}: {doc['road_class']}, lanes {oracle.roles()}")
    print(f"advice: {json.dumps(doc['advice'])}")
    by_role = {"ego": regions.ego, "left": regions.left, "right": regions.right}
    for role in oracle.roles():
        region = by_role.get(role)
        if region is None:
            print(f"  {role:>5}: missed")
            continue
        covered = rasterize_pieces(region.pieces, spec.width, spec.height)
        truth = oracle.lane_grid(role)
        score = (covered & truth).sum() / (covered | truth).sum()
        print(f"  {role:>5}: area {region.area:>9.1f} px^2, oracle IoU {score:.4f}")
    print(f"artifacts in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
