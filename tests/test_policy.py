import itertools

import pytest

from lanespace.core import RoadClass
from lanespace.policy import (
    CHANGE_FORBIDDEN,
    CHANGE_PERMITTED,
    CHANGE_UNDETERMINED,
    NavigationAdvice,
    advise,
)
from lanespace.regions import LANE_EGO, LANE_LEFT, LANE_RIGHT, RegionSet
from oracles import region_set, square_region


ALL_PRESENCE = list(itertools.product([False, True], repeat=3))

EXPECTED_CHANGE = {
    RoadClass.HIGHWAY: CHANGE_PERMITTED,
    RoadClass.RESIDENTIAL: CHANGE_FORBIDDEN,
    RoadClass.OTHERS: CHANGE_FORBIDDEN,
    RoadClass.CITY_STREET: CHANGE_UNDETERMINED,
    RoadClass.UNKNOWN: CHANGE_UNDETERMINED,
}

EXPECTED_RATIONALE = {
    RoadClass.HIGHWAY: "one_way_multi_lane",
    RoadClass.RESIDENTIAL: "two_way_or_single_lane",
    RoadClass.OTHERS: "high_error_setting",
    RoadClass.CITY_STREET: "ambiguous_lane_layout",
    RoadClass.UNKNOWN: "no_road_classification",
}

SIDES_MAY_BE_USABLE = {RoadClass.HIGHWAY: True}


@pytest.mark.parametrize("road_class", list(EXPECTED_CHANGE))
@pytest.mark.parametrize("ego,left,right", ALL_PRESENCE)
def test_full_decision_table(road_class, ego, left, right):
    advice = advise(road_class, region_set(ego, left, right))
    assert advice.lane_change == EXPECTED_CHANGE[road_class]
    assert advice.rationale == EXPECTED_RATIONALE[road_class]

    expected = []
    if ego:
        expected.append(LANE_EGO)
    if SIDES_MAY_BE_USABLE.get(road_class, False):
        if left:
            expected.append(LANE_LEFT)
        if right:
            expected.append(LANE_RIGHT)
    assert advice.usable_lanes == tuple(expected)


@pytest.mark.parametrize("road_class", list(EXPECTED_CHANGE))
@pytest.mark.parametrize("ego,left,right", ALL_PRESENCE)
def test_usable_lanes_never_exceed_present_lanes(road_class, ego, left, right):
    rs = region_set(ego, left, right)
    advice = advise(road_class, rs)
    present = {r.lane for r in rs.present()}
    assert set(advice.usable_lanes) <= present


@pytest.mark.parametrize("road_class", list(EXPECTED_CHANGE))
def test_ego_is_usable_exactly_when_present(road_class):
    with_ego = advise(road_class, region_set(ego=True))
    without = advise(road_class, region_set(ego=False, left=True, right=True))
    assert LANE_EGO in with_ego.usable_lanes
    assert LANE_EGO not in without.usable_lanes


def test_side_lanes_unusable_unless_change_is_permitted():
    for road_class, change in EXPECTED_CHANGE.items():
        advice = advise(road_class, region_set(ego=True, left=True, right=True))
        sides = {LANE_LEFT, LANE_RIGHT} & set(advice.usable_lanes)
        if change == CHANGE_PERMITTED:
            assert sides == {LANE_LEFT, LANE_RIGHT}
        else:
            assert sides == set()


def test_unassigned_regions_are_never_usable():
    rs = RegionSet(
        ego=square_region(LANE_EGO, 0.0, 2.0),
        unassigned=(square_region("unassigned", 40.0, 2.0),),
    )
    advice = advise(RoadClass.HIGHWAY, rs)
    assert advice.usable_lanes == (LANE_EGO,)


def test_advice_dict_shape():
    advice = advise(RoadClass.HIGHWAY, region_set(ego=True, right=True))
    payload = advice.as_dict()
    assert list(payload.keys()) == ["usable_lanes", "lane_change", "rationale"]
    assert payload["usable_lanes"] == [LANE_EGO, LANE_RIGHT]
    assert payload["lane_change"] == CHANGE_PERMITTED
    assert isinstance(payload["rationale"], str)


def test_advice_is_a_value_object():
    a = NavigationAdvice((LANE_EGO,), CHANGE_FORBIDDEN, "two_way_or_single_lane")
    b = NavigationAdvice((LANE_EGO,), CHANGE_FORBIDDEN, "two_way_or_single_lane")
    assert a == b
    with pytest.raises(AttributeError):
        a.lane_change = CHANGE_PERMITTED
