"""Seeded parametric road scenes with exact ground-truth geometry.

Lanes are trapezoids (wide at the bottom row, narrow at a horizon row) so the
centroid-based side assignment is exercised under converging perspective-like
geometry. Obstacles punch background rectangles out of lane interiors. Noise
flips a seeded fraction of pixels to a uniformly random other class.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import ClassId, RoadClass, SegmentationMask, road_class_name
from .regions import LANE_EGO, LANE_LEFT, LANE_RIGHT

_ROLE_ORDER = {LANE_LEFT: 0, LANE_EGO: 1, LANE_RIGHT: 2}


@dataclass(frozen=True)
class LaneBand:
    """One trapezoidal lane: x spans at the bottom image row and at the horizon row."""

    lane: str
    bottom: tuple[float, float]
    top: tuple[float, float]
    horizon: int

    def edges_at(self, y: np.ndarray, height: int) -> tuple[np.ndarray, np.ndarray]:
        span = max(height - 1 - self.horizon, 1)
        t = (np.asarray(y, dtype=np.float64) - self.horizon) / span
        xl = self.top[0] + (self.bottom[0] - self.top[0]) * t
        xr = self.top[1] + (self.bottom[1] - self.top[1]) * t
        return xl, xr


def _check_size(width: int, height: int) -> None:
    if width < 16 or height < 16:
        raise ValueError("scene must be at least 16x16")


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    lanes: tuple[LaneBand, ...]
    obstacles: tuple[tuple[int, int, int, int], ...] = ()  # x0, y0, x1, y1 half-open
    noise_rate: float = 0.0
    road_class: RoadClass = RoadClass.UNKNOWN
    seed: int = 0

    def __post_init__(self) -> None:
        _check_size(self.width, self.height)
        if not 0.0 <= self.noise_rate <= 0.05:
            raise ValueError(f"noise_rate must be in [0, 0.05], got {self.noise_rate}")
        if not 1 <= len(self.lanes) <= 3:
            raise ValueError("a scene has 1 to 3 lanes")
        roles = [b.lane for b in self.lanes]
        if len(set(roles)) != len(roles):
            raise ValueError(f"duplicate lane roles: {roles}")
        if LANE_EGO not in roles:
            raise ValueError("every scene needs an ego lane")
        for band in self.lanes:
            if band.lane not in _ROLE_ORDER:
                raise ValueError(f"invalid lane role {band.lane!r}")
            if not 0 <= band.horizon <= self.height - 2:
                raise ValueError(f"horizon {band.horizon} outside image")
            for x0, x1 in (band.bottom, band.top):
                if not (0 <= x0 < x1 <= self.width - 1):
                    raise ValueError(f"span ({x0}, {x1}) degenerate or outside image")
        ordered = sorted(self.lanes, key=lambda b: _ROLE_ORDER[b.lane])
        for a, b in zip(ordered, ordered[1:]):
            ys = np.array([max(a.horizon, b.horizon), self.height - 1])
            _, a_right = a.edges_at(ys, self.height)
            b_left, _ = b.edges_at(ys, self.height)
            # Edges are linear in y, so a gap at both end rows bounds every row.
            if (b_left - a_right < 1.0).any():
                raise ValueError(f"lanes {a.lane} and {b.lane} closer than 1 px")
        for x0, y0, x1, y1 in self.obstacles:
            if not (0 <= x0 < x1 <= self.width and 0 <= y0 < y1 <= self.height):
                raise ValueError(f"obstacle ({x0},{y0},{x1},{y1}) outside image")

    def to_dict(self) -> dict[str, Any]:
        return {
            "width": self.width,
            "height": self.height,
            "road_class": road_class_name(self.road_class),
            "noise_rate": self.noise_rate,
            "seed": self.seed,
            "lanes": [
                {
                    "lane": b.lane,
                    "bottom": list(b.bottom),
                    "top": list(b.top),
                    "horizon": b.horizon,
                }
                for b in self.lanes
            ],
            "obstacles": [list(o) for o in self.obstacles],
        }


@dataclass(frozen=True)
class SceneOracle:
    """Exact expected geometry per lane: trapezoid minus the obstacle rectangles."""

    spec: SceneSpec = field(repr=False)

    def roles(self) -> list[str]:
        return [b.lane for b in self.spec.lanes]

    def lane_grid(self, role: str) -> np.ndarray:
        for band in self.spec.lanes:
            if band.lane == role:
                grid = np.zeros((self.spec.height, self.spec.width), dtype=bool)
                _fill_band(grid, band, True)
                for x0, y0, x1, y1 in self.spec.obstacles:
                    grid[y0:y1, x0:x1] = False
                return grid
        raise ValueError(f"scene has no {role!r} lane")


def _fill_band(grid: np.ndarray, band: LaneBand, value) -> None:
    height, width = grid.shape[:2]
    ys = np.arange(band.horizon, height)
    xl, xr = band.edges_at(ys, height)
    xs = np.arange(width, dtype=np.float64)
    inside = (xs[None, :] >= xl[:, None]) & (xs[None, :] <= xr[:, None])
    grid[band.horizon :][inside] = value


def generate(spec: SceneSpec) -> tuple[SegmentationMask, SceneOracle]:
    """Rasterize the scene: lanes, then obstacle holes, then seeded noise flips."""
    grid = np.zeros((spec.height, spec.width), dtype=np.uint8)
    for band in spec.lanes:
        cls = ClassId.EGO_LANE if band.lane == LANE_EGO else ClassId.OTHER_LANES
        _fill_band(grid, band, int(cls))
    for x0, y0, x1, y1 in spec.obstacles:
        grid[y0:y1, x0:x1] = int(ClassId.BACKGROUND)
    if spec.noise_rate > 0.0:
        rng = np.random.default_rng(spec.seed)
        total = spec.width * spec.height
        n_flip = int(round(spec.noise_rate * total))
        if n_flip:
            flat = grid.reshape(-1)
            idx = rng.choice(total, size=n_flip, replace=False)
            shift = rng.integers(1, 3, size=n_flip, dtype=np.uint8)
            flat[idx] = (flat[idx] + shift) % 3
    return SegmentationMask(grid), SceneOracle(spec)


def sample_spec(
    seed: int,
    width: int = 640,
    height: int = 480,
    lane_count: int | None = None,
    max_obstacles: int = 2,
    noise_rate: float | None = None,
    road_class: RoadClass | None = None,
) -> SceneSpec:
    """Draw a random well-separated scene layout.

    Proportions are tuned at 640x480: lane bottoms 140-170 px wide with gaps
    of at least 36 px, shrinking toward a vanishing center by 0.40-0.55, so
    stride-4 sampling never merges lanes and hull shrinkage stays small.
    """
    _check_size(width, height)
    if width < 48:  # narrower layouts can squeeze the top lane gap under 1 px
        raise ValueError("generated scenes must be at least 48 px wide")
    rng = np.random.default_rng(seed)
    u = width / 640.0
    nl = int(lane_count) if lane_count is not None else int(rng.integers(1, 4))
    if not 1 <= nl <= 3:
        raise ValueError(f"lane_count must be 1..3, got {nl}")
    if nl == 1:
        roles = [LANE_EGO]
    elif nl == 2:
        roles = [LANE_LEFT, LANE_EGO] if rng.random() < 0.5 else [LANE_EGO, LANE_RIGHT]
    else:
        roles = [LANE_LEFT, LANE_EGO, LANE_RIGHT]
    widths = rng.uniform(140 * u, 170 * u, nl)
    gaps = rng.uniform(36 * u, 48 * u, max(nl - 1, 0))
    margin = 16 * u
    total = float(widths.sum() + gaps.sum())
    max_left = (width - 1) - margin - total
    x0 = float(rng.uniform(margin, max(max_left, margin + 1e-6)))
    horizon = int(rng.integers(int(0.30 * height), int(0.45 * height)))
    scale = float(rng.uniform(0.40, 0.55))
    center = float(rng.uniform(0.45, 0.55)) * (width - 1)

    bands: list[LaneBand] = []
    cursor = x0
    for i, role in enumerate(roles):
        b_left, b_right = cursor, cursor + float(widths[i])
        t_left = center + scale * (b_left - center)
        t_right = center + scale * (b_right - center)
        bands.append(
            LaneBand(
                lane=role,
                bottom=(round(b_left, 3), round(b_right, 3)),
                top=(round(t_left, 3), round(t_right, 3)),
                horizon=horizon,
            )
        )
        cursor = b_right + (float(gaps[i]) if i < nl - 1 else 0.0)

    obstacles: list[tuple[int, int, int, int]] = []
    n_obs = int(rng.integers(0, max_obstacles + 1)) if max_obstacles > 0 else 0
    for _ in range(n_obs):
        band = bands[int(rng.integers(nl))]
        rows = height - 1 - band.horizon
        y0 = band.horizon + int(rng.uniform(0.25, 0.55) * rows)
        oh = int(rng.uniform(12, 30) * u)
        y1 = min(y0 + oh, height - 1 - int(0.10 * rows))
        if y1 - y0 < 12:
            continue
        ys = np.array([y0, y1])
        xl, xr = band.edges_at(ys, height)
        lo, hi = float(xl.max()) + 6 * u, float(xr.min()) - 6 * u
        if hi - lo < 12:
            continue
        area_band = 0.5 * (
            (band.bottom[1] - band.bottom[0]) + (band.top[1] - band.top[0])
        ) * rows
        max_w = min(0.35 * (hi - lo), (0.02 * area_band) / (y1 - y0))
        if max_w < 12:
            continue
        ow = float(rng.uniform(12, max_w))
        ox = float(rng.uniform(lo, hi - ow))
        obstacles.append((int(ox), int(y0), int(ox + ow), int(y1)))

    rate = float(rng.uniform(0.0, 0.02)) if noise_rate is None else float(noise_rate)
    rc = (
        road_class
        if road_class is not None
        else RoadClass(int(rng.choice([0, 1, 2, 3])))
    )
    return SceneSpec(
        width=width,
        height=height,
        lanes=tuple(bands),
        obstacles=tuple(obstacles),
        noise_rate=rate,
        road_class=rc,
        seed=int(seed),
    )
