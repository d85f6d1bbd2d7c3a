"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every criterion is self-contained and checks the package against an
independent oracle. The oracles are `tests/oracles.py`'s and the served
harness is `tests/conftest.py`'s, the ones the unit tests use.
"""
import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lanespace.clustering import ClusterParams
from lanespace.core import ClassId, RoadClass, SegmentationMask
from lanespace.geometry import (
    convex_intersection,
    convex_subtract,
    polygon_area,
    rasterize_pieces,
)
from lanespace.losses import (
    LossTerms,
    UncertaintyParams,
    check_gradients,
    enet_weights,
    total_loss,
)
from lanespace.metrics import confusion, iou
from lanespace.pipeline import (
    MSG_MASK,
    MSG_REGIONS,
    NullSink,
    PipelineConfig,
    ProtocolError,
    RegionPayload,
    FrameMessage,
    decode_frame,
    encode_frame,
    gen_source,
    mask_frame,
    run_pipeline,
)
from lanespace.policy import advise
from lanespace.regions import ExtractionConfig, extract_regions
from lanespace.scenes import generate, sample_spec
from conftest import CaptureSink, serve_frames
from oracles import (
    convex_hull,
    dbscan_bruteforce,
    downsample,
    extract_points,
    hull_vertex_mask,
    lattice_labels,
    oracle_labels,
    random_convex,
    region_set,
)


@contextmanager
def criterion(tag: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{tag}: FAIL")
        raise
    print(f"{tag}: PASS ({time.perf_counter() - t0:.1f}s)")


def test_criterion_1_clustering_matches_brute_force():
    with criterion("criterion 1 clustering oracle equivalence"):
        t0 = time.perf_counter()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            height, width = (int(v) for v in rng.integers(8, 41, size=2))
            grid = (rng.random((height, width)) < rng.uniform(0.1, 0.7)).astype(np.uint8)
            params = ClusterParams(
                eps=float(rng.uniform(0.8, 3.0)),
                min_pts=int(rng.integers(2, 9)),
                min_cluster_size=int(rng.integers(3, 20)),
            )
            # The clustering extract_regions runs, painted per pixel.
            labels = lattice_labels(grid, params, (int(ClassId.EGO_LANE),))
            slow = oracle_labels(grid == 1, params, dbscan_bruteforce)
            assert np.array_equal(labels, slow), f"labels differ at seed {seed}"
        assert time.perf_counter() - t0 < 10.0


def test_criterion_2_geometry_oracles():
    with criterion("criterion 2 geometry oracles"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pts = rng.uniform(0, 100, (int(rng.integers(3, 41)), 2))
            hull = convex_hull(pts)
            assert hull is not None
            expected = pts[hull_vertex_mask(pts)]
            got = {(float(x), float(y)) for x, y in hull}
            want = {(float(x), float(y)) for x, y in expected}
            assert got == want, f"hull vertex set differs at seed {seed}"

        for seed in range(100):
            rng = np.random.default_rng(500 + seed)
            a = random_convex(rng, int(rng.integers(3, 12)), 10.0)
            b = random_convex(rng, int(rng.integers(3, 12)), 10.0, rng.uniform(-4, 4, 2))
            inter = convex_intersection(a, b)
            pieces = convex_subtract(a, inter)
            area_a = polygon_area(a)
            area_i = polygon_area(inter) if inter is not None else 0.0
            gap = abs(area_a - area_i - sum(polygon_area(p) for p in pieces))
            assert gap <= 1e-6 * area_a, f"area leak {gap} at seed {seed}"


def test_criterion_3_end_to_end_oracle_recovery():
    with criterion("criterion 3 end-to-end oracle recovery"):
        t0 = time.perf_counter()
        sides_correct = 0
        worst_iou = 1.0
        for seed in range(100):
            spec = sample_spec(seed)
            mask, oracle = generate(spec)
            rs = extract_regions(mask)
            got = {
                role: region
                for role, region in (("ego", rs.ego), ("left", rs.left), ("right", rs.right))
                if region is not None
            }
            if set(got) == set(oracle.roles()) and not rs.unassigned:
                sides_correct += 1
            for role in set(got) & set(oracle.roles()):
                covered = rasterize_pieces(got[role].pieces, spec.width, spec.height)
                truth = oracle.lane_grid(role)
                score = (covered & truth).sum() / (covered | truth).sum()
                worst_iou = min(worst_iou, score)
                assert score >= 0.90, f"lane {role} IoU {score:.4f} at seed {seed}"
            regions = rs.present()
            for i, ra in enumerate(regions):
                for rb in regions[i + 1 :]:
                    limit = 1e-6 * min(ra.area, rb.area)
                    for pa in ra.pieces:
                        for pb in rb.pieces:
                            inter = convex_intersection(pa, pb)
                            if inter is not None:
                                assert polygon_area(inter) <= limit
        elapsed = time.perf_counter() - t0
        assert sides_correct >= 98, f"side labels correct in only {sides_correct}/100"
        assert elapsed < 60.0
        print(
            f"  (worst lane IoU {worst_iou:.4f}, sides correct {sides_correct}/100,"
            f" {elapsed:.1f}s)"
        )


def test_criterion_4_overlap_removed_from_ego():
    with criterion("criterion 4 ego cedes the hull overlap"):
        grid = np.zeros((480, 640), dtype=np.uint8)
        grid[240:480, 0:60] = int(ClassId.EGO_LANE)
        grid[240:480, 240:300] = int(ClassId.EGO_LANE)
        grid[240:264, 0:300] = int(ClassId.EGO_LANE)
        grid[300:424, 120:184] = int(ClassId.OTHER_LANES)
        mask = SegmentationMask(grid)
        cfg = ExtractionConfig()
        rs = extract_regions(mask, cfg)
        assert rs.ego is not None

        small = downsample(mask, cfg.downsample_factor)
        factor2 = float(cfg.downsample_factor) ** 2
        ego_hull = convex_hull(extract_points(small, ClassId.EGO_LANE))
        other_hull = convex_hull(extract_points(small, ClassId.OTHER_LANES))
        overlap = convex_intersection(ego_hull, other_hull)
        assert overlap is not None and polygon_area(overlap) > 0
        expected = (polygon_area(ego_hull) - polygon_area(overlap)) * factor2
        assert abs(rs.ego.area - expected) <= 1e-6 * expected


def test_criterion_5_loss_numerics():
    with criterion("criterion 5 loss numerics"):
        t0 = time.perf_counter()
        w = enet_weights(np.array([0.0, 1.0]), k=1.02)
        assert abs(w[0] - 1.0 / math.log(1.02)) <= 1e-12
        assert abs(w[1] - 1.0 / math.log(2.02)) <= 1e-12

        terms = LossTerms(1.375, 0.625)
        assert total_loss(terms, UncertaintyParams(0.0, 0.0)) == terms.l_seg + terms.l_cls

        report = check_gradients(cases=1000, seed=2026)
        worst = max(report["max_rel_error"].values())
        assert worst <= 1e-5, f"gradient relative error {worst}"
        assert time.perf_counter() - t0 < 10.0


def test_criterion_6_metric_identities():
    with criterion("criterion 6 metric identities"):
        # Rows are gt, columns pred: class 0 has 5 hits, 2 misses and 3 false alarms.
        table = np.array([[5, 2, 0], [3, 0, 0], [0, 0, 0]], dtype=np.int64)
        assert iou(table, 0) == 0.5  # 5 / (3 + 5 + 2), exact

        rng = np.random.default_rng(6)
        batches = [
            (
                SegmentationMask(rng.integers(0, 3, (20, 20)).astype(np.uint8)),
                SegmentationMask(rng.integers(0, 3, (20, 20)).astype(np.uint8)),
            )
            for _ in range(5)
        ]
        summed = sum(confusion(pred, gt) for pred, gt in batches)
        whole = confusion(
            SegmentationMask(np.concatenate([p.data for p, _ in batches])),
            SegmentationMask(np.concatenate([g.data for _, g in batches])),
        )
        assert np.array_equal(summed, whole)


def test_criterion_7_policy_table():
    expected_change = {
        RoadClass.HIGHWAY: "permitted",
        RoadClass.RESIDENTIAL: "forbidden",
        RoadClass.OTHERS: "forbidden",
        RoadClass.CITY_STREET: "undetermined",
        RoadClass.UNKNOWN: "undetermined",
    }
    with criterion("criterion 7 policy decision table"):
        for road_class, change in expected_change.items():
            for ego, left, right in itertools.product([False, True], repeat=3):
                advice = advise(road_class, region_set(ego, left, right))
                assert advice.lane_change == change
                usable = []
                if ego:
                    usable.append("ego")
                if change == "permitted":
                    usable.extend(lane for lane, on in (("left", left), ("right", right)) if on)
                assert list(advice.usable_lanes) == usable


def test_criterion_8_throughput_and_deployment_identity():
    with criterion("criterion 8 throughput and deployment identity"):
        stats = run_pipeline(
            gen_source("60x640x480@0.01", seed=0), NullSink(), PipelineConfig()
        )
        assert stats.frames_processed == 60
        assert stats.throughput_fps >= 20.0, f"{stats.throughput_fps:.1f} fps"

        frames = list(gen_source("6x640x480@0.01", seed=17))
        in_process = CaptureSink()
        run_pipeline(frames, in_process, PipelineConfig())

        over_wire, _ = serve_frames(frames, PipelineConfig())
        assert over_wire == dict(in_process.delivered)
        print(f"  (sustained {stats.throughput_fps:.1f} fps)")


def test_criterion_9_wire_protocol():
    with criterion("criterion 9 wire protocol"):
        rng = np.random.default_rng(90)
        road_classes = sorted(RoadClass, key=int)
        for case in range(1000):
            frame_id = int(rng.integers(0, 2**32))
            if case % 4 == 3:
                payload = rng.integers(0, 256, int(rng.integers(0, 257))).astype(np.uint8)
                msg = FrameMessage(frame_id, RegionPayload(payload.tobytes()))
                msg_type = MSG_REGIONS
            else:
                w, h = (int(v) for v in rng.integers(1, 49, 2))
                mask = SegmentationMask(rng.integers(0, 3, (h, w)).astype(np.uint8))
                rc = road_classes[int(rng.integers(len(road_classes)))]
                msg = mask_frame(frame_id, mask, rc)
                msg_type = MSG_MASK
            again = decode_frame(encode_frame(msg), msg_type)
            assert again == msg, f"round trip differs at case {case}"

        base = encode_frame(
            mask_frame(2, SegmentationMask(np.zeros((2, 2), dtype=np.uint8)), RoadClass.UNKNOWN)
        )
        bad_magic = b"NOPE" + base[4:]
        bad_version = base[:4] + bytes([9]) + base[5:]
        bad_type = base[:5] + bytes([7]) + base[6:]
        truncated = base[:-1]
        oversized = base[:10] + (1 << 30).to_bytes(4, "big") + base[14:]
        trailing = base + b"\x00"
        for raw, msg_type, words in (
            (bad_magic, MSG_MASK, "bad magic"),
            (bad_version, MSG_MASK, "unsupported version 9"),
            (bad_type, MSG_MASK, "message type 7, expected 1"),
            (base, MSG_REGIONS, "message type 1, expected 2"),
            (truncated, MSG_MASK, "payload needs 9 bytes, got 8"),
            (base[:7], MSG_MASK, "7 bytes is shorter than a header"),
            (oversized, MSG_MASK, "implausible"),
            (trailing, MSG_MASK, "payload needs 9 bytes, got 10"),
        ):
            with pytest.raises(ProtocolError, match=words):
                decode_frame(raw, msg_type)
