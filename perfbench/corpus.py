"""Seeded input frames, the serial reference, the output check and lane IoU."""
from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WIDTH, HEIGHT, NOISE = 640, 480, 0.01


@dataclass
class Corpus:
    masks: list  # SegmentationMask
    road_classes: list  # RoadClass
    oracles: list  # SceneOracle

    def __len__(self) -> int:
        return len(self.masks)


def make_corpus(seed: int, size: int) -> Corpus:
    """`size` scenes from the default sampler at 640x480, noise 0.01.

    Scene k has 1 + k % 3 lanes. Lane count sets most of a frame's cost (a
    3-lane frame takes about 2.5x a 1-lane one), so cycling it keeps the mix
    the same for every seed and the run-to-run spread down to the rest of the
    layout: widths, horizon, obstacles, noise and road class.
    """
    from lanespace.scenes import generate, sample_spec

    masks, road_classes, oracles = [], [], []
    for k in range(size):
        spec = sample_spec(seed * 1000 + k, width=WIDTH, height=HEIGHT,
                           lane_count=1 + k % 3, noise_rate=NOISE)
        mask, oracle = generate(spec)
        masks.append(mask)
        road_classes.append(spec.road_class)
        oracles.append(oracle)
    return Corpus(masks, road_classes, oracles)


def write_npz(corpus: Corpus, path: Path) -> None:
    np.savez(path, masks=np.stack([m.data for m in corpus.masks]),
             road_classes=np.array([int(rc) for rc in corpus.road_classes]))


def write_scene_dir(corpus: Corpus, path: Path) -> None:
    """Mask .pgm files with road-class sidecars, as `lanespace gen` writes them."""
    from lanespace.netpbm import write_mask

    path.mkdir(parents=True)
    for k, (mask, oracle) in enumerate(zip(corpus.masks, corpus.oracles)):
        write_mask(path / f"{k:06d}.pgm", mask)
        (path / f"{k:06d}.json").write_text(json.dumps(oracle.spec.to_dict()) + "\n")


class Reference:
    """Serial extract_regions -> advise -> build_document over the corpus.

    Extraction runs with the per-class pool off where the config still has
    that switch; its timing is the single-threaded baseline.
    """

    def __init__(self, corpus: Corpus, downsample: int):
        from lanespace.policy import advise
        from lanespace.regions import ExtractionConfig, extract_regions

        cfg = ExtractionConfig(downsample_factor=downsample)
        if any(f.name == "parallel_classes" for f in dataclasses.fields(cfg)):
            cfg = dataclasses.replace(cfg, parallel_classes=False)
        self.cfg = cfg
        self.road_classes = corpus.road_classes
        self.regions, self.advice = [], []
        busy = 0.0
        for mask, rc in zip(corpus.masks, corpus.road_classes):
            t0 = time.perf_counter()
            regions = extract_regions(mask, cfg)
            busy += time.perf_counter() - t0
            self.regions.append(regions)
            self.advice.append(advise(rc, regions).as_dict())
        self.serial_fps = len(corpus) / busy

    def document(self, frame_id: int, scene: int) -> bytes:
        from lanespace.regions import build_document, document_bytes

        return document_bytes(
            build_document(frame_id, self.road_classes[scene], self.regions[scene], self.advice[scene])
        )


def check_delivery(delivered: list[tuple[int, bytes | None]], attempted: int,
                   expected) -> dict[int, str]:
    """Failed frames with a reason: each of 0..attempted-1 must arrive exactly
    once, in frame order, equal to expected(frame_id)."""
    failed: dict[int, str] = {}
    counts = collections.Counter(fid for fid, _ in delivered)
    for fid in range(attempted):
        if counts[fid] == 0:
            failed[fid] = "not delivered"
        elif counts[fid] > 1:
            failed[fid] = f"delivered {counts[fid]} times"
    highest = -1
    for fid, doc in delivered:
        if not 0 <= fid < attempted:
            failed[fid] = "never sent"
            continue
        if fid < highest:
            failed.setdefault(fid, "out of order")
        highest = max(highest, fid)
        if doc != expected(fid):
            failed.setdefault(fid, "document differs from the serial reference")
    return failed


def corpus_digest(docs: list[bytes]) -> str:
    return hashlib.sha256(b"".join(d + b"\n" for d in docs)).hexdigest()


def lane_iou(documents: list[bytes], corpus: Corpus) -> float:
    """Mean IoU of each ground-truth lane against the delivered region with
    the same role (0 when missing), rasterized at full resolution."""
    from lanespace.geometry import rasterize_pieces

    ious = []
    for doc, oracle in zip(documents, corpus.oracles):
        regions = {r["lane"]: r for r in json.loads(doc)["regions"]}
        for role in oracle.roles():
            truth = oracle.lane_grid(role)
            region = regions.get(role)
            if region is None:
                ious.append(0.0)
                continue
            pieces = [np.asarray(p, dtype=np.float64) for p in region["pieces"]]
            pred = rasterize_pieces(pieces, truth.shape[1], truth.shape[0])
            ious.append(float((pred & truth).sum()) / float((pred | truth).sum()))
    return float(np.mean(ious))
