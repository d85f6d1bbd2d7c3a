import dataclasses
import json

import numpy as np
import pytest

from lanespace.core import ClassId, RoadClass
from lanespace.regions import LANE_EGO, LANE_LEFT, LANE_RIGHT
from lanespace.scenes import LaneBand, SceneOracle, SceneSpec, generate, sample_spec


def simple_spec(**overrides):
    params = dict(
        width=320,
        height=240,
        lanes=(
            LaneBand(LANE_LEFT, (20.0, 90.0), (80.0, 115.0), 80),
            LaneBand(LANE_EGO, (120.0, 190.0), (130.0, 165.0), 80),
            LaneBand(LANE_RIGHT, (220.0, 290.0), (180.0, 215.0), 80),
        ),
    )
    params.update(overrides)
    return SceneSpec(**params)


def test_generation_is_deterministic():
    spec = simple_spec(noise_rate=0.02, seed=42)
    a, _ = generate(spec)
    b, _ = generate(spec)
    assert a == b


def test_different_seeds_move_the_noise():
    base = simple_spec(noise_rate=0.02, seed=1)
    other = simple_spec(noise_rate=0.02, seed=2)
    a, _ = generate(base)
    b, _ = generate(other)
    assert a != b


def test_zero_noise_matches_the_oracle_exactly():
    spec = simple_spec()
    mask, oracle = generate(spec)
    expected = np.zeros((spec.height, spec.width), dtype=np.uint8)
    for role in oracle.roles():
        cls = ClassId.EGO_LANE if role == LANE_EGO else ClassId.OTHER_LANES
        expected[oracle.lane_grid(role)] = int(cls)
    assert np.array_equal(mask.data, expected)


def test_noise_flips_exactly_the_budgeted_pixel_count():
    spec = simple_spec(noise_rate=0.01, seed=5)
    clean, _ = generate(simple_spec())
    noisy, _ = generate(spec)
    flipped = int((clean.data != noisy.data).sum())
    assert flipped == round(0.01 * spec.width * spec.height)


def test_obstacles_punch_background_holes():
    hole = (140, 140, 160, 170)
    spec = simple_spec(obstacles=(hole,))
    mask, oracle = generate(spec)
    x0, y0, x1, y1 = hole
    assert (mask.data[y0:y1, x0:x1] == int(ClassId.BACKGROUND)).all()
    assert not oracle.lane_grid(LANE_EGO)[y0:y1, x0:x1].any()


def test_lane_pixels_empty_above_the_horizon():
    spec = simple_spec()
    mask, _ = generate(spec)
    assert (mask.data[:80] == int(ClassId.BACKGROUND)).all()
    assert (mask.data[-1] != int(ClassId.BACKGROUND)).any()


def test_three_lane_centroids_are_ordered_left_to_right():
    spec = simple_spec()
    _, oracle = generate(spec)
    xs = {}
    for role in oracle.roles():
        cols = np.nonzero(oracle.lane_grid(role))[1]
        xs[role] = cols.mean()
    assert xs[LANE_LEFT] < xs[LANE_EGO] < xs[LANE_RIGHT]


def test_oracle_rejects_missing_role():
    spec = simple_spec(lanes=(LaneBand(LANE_EGO, (120.0, 190.0), (130.0, 165.0), 80),))
    _, oracle = generate(spec)
    with pytest.raises(ValueError):
        oracle.lane_grid(LANE_LEFT)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(width=8),
        dict(noise_rate=0.2),
        dict(lanes=()),
        dict(
            lanes=(
                LaneBand(LANE_LEFT, (20.0, 90.0), (80.0, 115.0), 80),
                LaneBand(LANE_RIGHT, (220.0, 290.0), (180.0, 215.0), 80),
            )
        ),  # no ego
        dict(
            lanes=(
                LaneBand(LANE_EGO, (120.0, 190.0), (130.0, 165.0), 80),
                LaneBand(LANE_EGO, (220.0, 290.0), (180.0, 215.0), 80),
            )
        ),  # duplicate role
        dict(
            lanes=(
                LaneBand(LANE_LEFT, (20.0, 119.5), (80.0, 115.0), 80),
                LaneBand(LANE_EGO, (120.0, 190.0), (130.0, 165.0), 80),
            )
        ),  # sub-pixel gap
        dict(
            lanes=(
                LaneBand(LANE_EGO, (120.0, 190.0), (165.0, 130.0), 80),
            )
        ),  # inverted span
        dict(obstacles=((300, 0, 340, 10),)),
        dict(
            lanes=(LaneBand(LANE_EGO, (120.0, 190.0), (130.0, 165.0), 239),)
        ),  # horizon at the last row
    ],
)
def test_invalid_specs_are_rejected(overrides):
    with pytest.raises(ValueError):
        simple_spec(**overrides)


def test_an_unknown_lane_role_is_refused_by_name():
    lanes = (
        LaneBand("middle", (20.0, 90.0), (80.0, 115.0), 80),
        LaneBand(LANE_EGO, (120.0, 190.0), (130.0, 165.0), 80),
    )
    with pytest.raises(ValueError, match="invalid lane role 'middle'"):
        simple_spec(lanes=lanes)


def test_sampled_specs_are_valid_and_deterministic():
    for seed in range(12):
        spec = sample_spec(seed)
        assert spec == sample_spec(seed)
        assert spec.width == 640 and spec.height == 480
        mask, oracle = generate(spec)
        assert set(oracle.roles()) <= {LANE_LEFT, LANE_EGO, LANE_RIGHT}
        assert LANE_EGO in oracle.roles()
        assert mask.data.shape == (480, 640)


def test_a_spec_survives_its_dict_and_json_forms():
    with_obstacles = 0
    for seed in range(100):
        spec = sample_spec(seed)
        assert SceneSpec.from_dict(spec.to_dict()) == spec
        assert SceneSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        with_obstacles += bool(spec.obstacles)
    assert with_obstacles >= 20


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.pop("seed"),
        lambda d: d.update(lanes=5),
        lambda d: d.update(road_class=3),
        lambda d: d.update(width="wide"),
        lambda d: d.update(width=float("inf")),
        lambda d: d["lanes"][0].update(bottom=[1.0, 2.0, 3.0]),
        lambda d: d["lanes"][0].update(lane=["ego"]),
        lambda d: d["obstacles"].append([1, 2, 3]),
    ],
    ids=["missing-key", "lanes-not-a-list", "road-class-not-a-name", "width-not-a-number",
         "width-infinite", "three-number-span", "unhashable-role", "three-number-obstacle"],
)
def test_from_dict_refuses_what_is_not_a_spec_with_value_error(edit):
    raw = sample_spec(1).to_dict()
    edit(raw)
    with pytest.raises(ValueError):
        SceneSpec.from_dict(raw)


def test_sample_spec_honours_overrides():
    spec = sample_spec(3, lane_count=3, noise_rate=0.0, road_class=RoadClass.HIGHWAY)
    assert [b.lane for b in spec.lanes] == [LANE_LEFT, LANE_EGO, LANE_RIGHT]
    assert spec.noise_rate == 0.0
    assert spec.road_class == RoadClass.HIGHWAY
    with pytest.raises(ValueError):
        sample_spec(3, lane_count=4)


@pytest.mark.parametrize("width", [16, 32, 47])
def test_sample_spec_rejects_scenes_narrower_than_48(width):
    # At these widths the scaled lane gaps fall under 1 px for some draws.
    with pytest.raises(ValueError, match="at least 48 px wide"):
        sample_spec(0, width=width, height=480)


def test_sample_spec_draws_valid_scenes_at_width_48():
    for seed in range(200):
        mask, _ = generate(sample_spec(seed, width=48, height=48))
        assert mask.data.shape == (48, 48)


def test_sampled_obstacles_stay_inside_their_lane():
    checked = 0
    for seed in range(40):
        spec = sample_spec(seed)
        if not spec.obstacles:
            continue
        _, oracle = generate(dataclasses.replace(spec, obstacles=()))
        union = np.zeros((spec.height, spec.width), dtype=bool)
        for role in oracle.roles():
            union |= oracle.lane_grid(role)
        for x0, y0, x1, y1 in spec.obstacles:
            assert union[y0:y1, x0:x1].all()
            checked += 1
    assert checked >= 5


def test_oracle_area_is_scale_free():
    # The same layout at twice the resolution covers about 4x the pixels.
    small = sample_spec(11, width=320, height=240, max_obstacles=0)
    big = sample_spec(11, width=640, height=480, max_obstacles=0)
    small_n = sum(
        SceneOracle(small).lane_grid(r).sum() for r in SceneOracle(small).roles()
    )
    big_n = sum(SceneOracle(big).lane_grid(r).sum() for r in SceneOracle(big).roles())
    assert 3.3 <= big_n / small_n <= 4.7
