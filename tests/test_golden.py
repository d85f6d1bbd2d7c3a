"""Golden-output gate: SHA-256 digests of the documents for a fixed corpus.

The digests pin the exact bytes the default pipeline delivers, and the pieces
resolve_overlaps leaves on a corpus of overlapping hulls. A change that
is meant to keep the output (a refactor, a faster kernel) must leave them
alone; a deliberate output change re-pins them and says why in CHANGES.md.
"""
import hashlib

import numpy as np

from lanespace.core import ClassId
from lanespace.pipeline import PipelineConfig, gen_source, run_pipeline
from lanespace.regions import LANE_EGO, DrivableRegion, ExtractionConfig, resolve_overlaps
from oracles import convex_hull

# gen seeds 0-99 at 640x480, noise 0.01, default config.
DEFAULT_DIGEST = "f4ccd7a14129b96b3e781708c33637cd36172ddd700a15699650807d31da3b4c"
# gen seeds 0-3 at 640x480, noise 0.01, downsample_factor=1.
FULLRES_DIGEST = "3255e57e85c9f2b294651bd0b1011a6b6479d19e205a6bb10415991d80e9ebeb"
# resolve_overlaps on the 200 hull sets of overlapping_hull_set.
OVERLAP_DIGEST = "8c19870b5d4629b23da3839e136eeb1e4af5f908252e41d95be7499871beee8f"
# DrivableRegion.from_pieces area and centroid on those resolved pieces,
# scaled by 1 and by 3.
MEASURES_DIGEST = "b181ca2eeeed782327c864b92f2311fb4d28b418745626955909a390ecbf3524"


class HashSink:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.frames = 0

    def deliver(self, frame_id, document):
        self.sha.update(document + b"\n")
        self.frames += 1

    def close(self):
        pass


def corpus_digest(spec, cfg):
    sink = HashSink()
    run_pipeline(gen_source(spec, seed=0), sink, cfg)
    return sink.frames, sink.sha.hexdigest()


def test_default_config_documents_match_the_golden_digest():
    assert corpus_digest("100x640x480@0.01", PipelineConfig()) == (100, DEFAULT_DIGEST)


def test_full_resolution_documents_match_the_golden_digest():
    cfg = PipelineConfig(extraction=ExtractionConfig(downsample_factor=1))
    assert corpus_digest("4x640x480@0.01", cfg) == (4, FULLRES_DIGEST)


def overlapping_hull_set(seed):
    """2-8 hulls of Gaussian clouds packed close enough that most sets overlap.

    Odd seeds round the points first, as hulls of pixel coordinates are.
    """
    rng = np.random.default_rng(seed)
    regions = []
    for _ in range(int(rng.integers(2, 9))):
        n = int(rng.integers(3, 40))
        cloud = rng.normal(rng.uniform(0, 32, 2), rng.uniform(1, 5), (n, 2))
        if seed % 2:
            cloud = np.round(cloud)
        hull = convex_hull(cloud)
        if hull is not None:
            regions.append((ClassId(int(rng.integers(1, 3))), [hull]))
    return regions


def test_overlap_resolution_matches_the_golden_digest():
    # The gen corpus above never produces overlapping hulls, so this corpus
    # is what pins the ceding order and the piece shapes it leaves.
    sha = hashlib.sha256()
    cut_sets = 0
    for seed in range(200):
        regions = overlapping_hull_set(seed)
        out = resolve_overlaps(regions)
        cut_sets += any(
            len(after) != 1 or not np.array_equal(after[0], before[0])
            for (_, before), (_, after) in zip(regions, out)
        )
        for cls, pieces in out:
            sha.update(bytes([int(cls)]))
            sha.update(len(pieces).to_bytes(4, "little"))
            for piece in pieces:
                sha.update(np.ascontiguousarray(piece, dtype=np.float64).tobytes())
    assert cut_sets >= 100
    assert sha.hexdigest() == OVERLAP_DIGEST


def test_region_measures_match_the_golden_digest():
    # Area and centroid are float sums over each region's pieces, so this
    # pins the order of that arithmetic as well as its formulas.
    sha = hashlib.sha256()
    several = 0
    for seed in range(200):
        for _, pieces in resolve_overlaps(overlapping_hull_set(seed)):
            if not pieces:
                continue
            several += len(pieces) > 1
            for scale in (1.0, 3.0):
                region = DrivableRegion.from_pieces(LANE_EGO, [p * scale for p in pieces])
                sha.update(np.array([region.area, *region.centroid]).tobytes())
    assert several >= 300
    assert sha.hexdigest() == MEASURES_DIGEST
