import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lanespace.core import SegmentationMask
from lanespace.metrics import N_CLASSES, accuracy, confusion, iou, miou


@st.composite
def mask_pairs(draw):
    h = draw(st.integers(1, 16))
    w = draw(st.integers(1, 16))
    cells = st.integers(0, N_CLASSES - 1)
    grid = st.lists(st.lists(cells, min_size=w, max_size=w), min_size=h, max_size=h)
    pred = np.array(draw(grid), dtype=np.uint8)
    gt = np.array(draw(grid), dtype=np.uint8)
    return SegmentationMask(pred), SegmentationMask(gt)


def table_by_tally(pred, gt):
    table = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for p, g in zip(pred.data.ravel(), gt.data.ravel()):
        table[g, p] += 1
    return table


def tp_fp_fn(table):
    tp = np.diag(table)
    return tp, table.sum(axis=0) - tp, table.sum(axis=1) - tp


def masks(pred_rows, gt_rows):
    return (
        SegmentationMask(np.array(pred_rows, dtype=np.uint8)),
        SegmentationMask(np.array(gt_rows, dtype=np.uint8)),
    )


def test_confusion_hand_example():
    pred, gt = masks([[0, 1, 1], [2, 1, 2]], [[0, 1, 2], [1, 1, 2]])
    table = confusion(pred, gt)
    assert table.dtype == np.int64
    assert table.tolist() == [[1, 0, 0], [0, 2, 1], [0, 1, 1]]
    tp, fp, fn = tp_fp_fn(table)
    assert tp.tolist() == [1, 2, 1]
    assert fp.tolist() == [0, 1, 1]
    assert fn.tolist() == [0, 1, 1]


@given(mask_pairs())
def test_confusion_matches_elementwise_tally(pair):
    pred, gt = pair
    assert np.array_equal(confusion(pred, gt), table_by_tally(pred, gt))


@given(mask_pairs())
def test_count_identities(pair):
    pred, gt = pair
    tp, fp, fn = tp_fp_fn(confusion(pred, gt))
    n = pred.data.size
    assert int((tp + fn).sum()) == n  # every pixel has one gt class
    assert int((tp + fp).sum()) == n  # and one predicted class
    assert int(fp.sum()) == int(fn.sum())


def test_confusion_rejects_shape_mismatch():
    pred = SegmentationMask(np.zeros((2, 2), dtype=np.uint8))
    gt = SegmentationMask(np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        confusion(pred, gt)


def test_counts_additivity_over_batches():
    rng = np.random.default_rng(3)
    pairs = []
    for _ in range(4):
        pred = SegmentationMask(rng.integers(0, 3, (8, 8)).astype(np.uint8))
        gt = SegmentationMask(rng.integers(0, 3, (8, 8)).astype(np.uint8))
        pairs.append((pred, gt))
    total = sum(confusion(pred, gt) for pred, gt in pairs)
    merged = confusion(
        SegmentationMask(np.concatenate([p.data for p, _ in pairs])),
        SegmentationMask(np.concatenate([g.data for _, g in pairs])),
    )
    assert np.array_equal(total, merged)


def test_iou_hand_values():
    pred, gt = masks([[0, 1, 1], [2, 1, 2]], [[0, 1, 2], [1, 1, 2]])
    table = confusion(pred, gt)
    assert iou(table, 0) == pytest.approx(1.0)
    assert iou(table, 1) == pytest.approx(0.5)
    assert iou(table, 2) == pytest.approx(1.0 / 3.0)
    assert miou(table) == pytest.approx((1.0 + 0.5 + 1.0 / 3.0) / 3.0)


def test_absent_class_reports_none_and_miou_skips_it():
    pred, gt = masks([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    table = confusion(pred, gt)
    assert iou(table, 0) == pytest.approx(1.0)
    assert iou(table, 1) is None
    assert iou(table, 2) is None
    assert miou(table) == pytest.approx(1.0)


def test_false_positive_only_class_is_not_absent():
    # Class 1 never occurs in gt but is predicted once: IoU 0, not None.
    pred, gt = masks([[1, 0]], [[0, 0]])
    table = confusion(pred, gt)
    assert iou(table, 1) == pytest.approx(0.0)
    assert miou(table) == pytest.approx(0.25)  # (0.5 + 0.0) / 2


def test_miou_with_no_classes_at_all_raises():
    with pytest.raises(ValueError):
        miou(np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64))


@given(mask_pairs())
def test_perfect_prediction_scores_one(pair):
    _, gt = pair
    table = confusion(gt, gt)
    _, fp, fn = tp_fp_fn(table)
    assert fp.sum() == 0 and fn.sum() == 0
    assert miou(table) == pytest.approx(1.0)


@given(mask_pairs(), st.permutations(list(range(N_CLASSES))))
def test_miou_invariant_under_joint_relabeling(pair, perm):
    # Renaming classes in pred and gt together permutes the per-class
    # scores but cannot change their mean.
    pred, gt = pair
    lut = np.array(perm, dtype=np.uint8)
    base = miou(confusion(pred, gt))
    mapped = miou(
        confusion(SegmentationMask(lut[pred.data]), SegmentationMask(lut[gt.data]))
    )
    assert mapped == pytest.approx(base)


def test_accuracy_hand_value():
    assert accuracy([1, 0, 2, 1], [1, 1, 2, 0]) == pytest.approx(0.5)
    assert accuracy([3], [3]) == pytest.approx(1.0)


def test_accuracy_rejects_bad_batches():
    with pytest.raises(ValueError):
        accuracy([1, 2], [1])
    with pytest.raises(ValueError):
        accuracy([], [])
