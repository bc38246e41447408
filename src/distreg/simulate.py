"""Synthetic LiDAR: a box-and-cylinder world on a ground plane, scanned by
a spinning multi-ring sensor with range noise.

Every operation is a pure function of (seed, inputs), so sequences are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Frame, FrameSequence
from .errors import check_int
from .geometry import Points, RigidTransform

_DEFAULT_ELEVATIONS = tuple(np.linspace(-15.0, 5.0, 16))


@dataclass(frozen=True)
class LidarConfig:
    """Scan pattern: one ray per (azimuth step, elevation ring)."""

    azimuth_steps: int = 1024
    elevation_angles: tuple[float, ...] = _DEFAULT_ELEVATIONS  # degrees
    max_range: float = 80.0
    range_noise_sigma: float = 0.01

    def __post_init__(self):
        check_int("azimuth_steps", self.azimuth_steps, 8)
        if not 0 < self.max_range < np.inf:
            raise ValueError("max_range must be positive and finite")
        if not 0 <= self.range_noise_sigma < np.inf:
            raise ValueError("range_noise_sigma must be >= 0 and finite")
        angles = tuple(float(e) for e in self.elevation_angles)
        if not angles or not np.isfinite(angles).all():
            raise ValueError("elevation_angles must be one or more finite angles")
        object.__setattr__(self, "elevation_angles", angles)


def _check_geometry(name, value, shape):
    # the caster stacks each kind's parameters into one array, and its ray
    # tests and sector bound assume finite geometry
    if np.shape(value) != shape:
        what = f"{shape[0]} coordinates" if shape else "one number"
        raise ValueError(f"{name} must be {what}, got {value}")
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Box:
    """Axis-aligned box resting in the scene; center z = height/2 keeps it on the ground."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]

    def __post_init__(self):
        _check_geometry("center", self.center, (3,))
        _check_geometry("size", self.size, (3,))
        if min(self.size) <= 0:
            raise ValueError("box dimensions must be positive")
        if self.center[2] - self.size[2] / 2 < -1e-9:
            raise ValueError("box must sit above the ground plane")


@dataclass(frozen=True)
class Cylinder:
    """Vertical cylinder standing on the ground plane, from z=0 to z=height.
    The ray test has no bottom cap; on the ground none is ever seen."""

    center_xy: tuple[float, float]
    radius: float
    height: float

    def __post_init__(self):
        _check_geometry("center_xy", self.center_xy, (2,))
        _check_geometry("radius", self.radius, ())
        _check_geometry("height", self.height, ())
        if self.radius <= 0 or self.height <= 0:
            raise ValueError("cylinder dimensions must be positive")


@dataclass(frozen=True)
class WorldModel:
    """Ground plane z=0 plus obstacles, within a square of side ``extent``."""

    extent: float
    boxes: tuple[Box, ...] = ()
    cylinders: tuple[Cylinder, ...] = ()
    ground: bool = True


def simulate_world(seed: int, extent: float, n_obstacles: int) -> WorldModel:
    """Deterministically place obstacles uniformly within the extent.

    Obstacle kinds alternate between boxes and cylinders.
    """
    if not 0 < extent < np.inf:
        raise ValueError("extent must be positive and finite")
    check_int("seed", seed, 0)
    check_int("n_obstacles", n_obstacles, 0)
    rng = np.random.default_rng(seed)
    half = extent / 2.0
    boxes = []
    cylinders = []
    for i in range(n_obstacles):
        x, y = rng.uniform(-half, half, size=2)
        if i % 2 == 0:
            sx, sy = rng.uniform(1.0, 4.0, size=2)
            h = rng.uniform(1.0, 5.0)
            boxes.append(Box(center=(x, y, h / 2.0), size=(sx, sy, h)))
        else:
            r = rng.uniform(0.3, 1.5)
            h = rng.uniform(1.0, 6.0)
            cylinders.append(Cylinder(center_xy=(x, y), radius=r, height=h))
    return WorldModel(extent=extent, boxes=tuple(boxes), cylinders=tuple(cylinders))


def _ray_directions(cfg: LidarConfig) -> Points:
    az = 2.0 * np.pi * np.arange(cfg.azimuth_steps) / cfg.azimuth_steps
    el = np.radians(np.asarray(cfg.elevation_angles))
    ca, sa = np.cos(az), np.sin(az)
    ce, se = np.cos(el), np.sin(el)
    # (rings, azimuths, 3) flattened ring-major
    dirs = np.empty((el.size, az.size, 3))
    dirs[:, :, 0] = ce[:, None] * ca[None, :]
    dirs[:, :, 1] = ce[:, None] * sa[None, :]
    dirs[:, :, 2] = se[:, None] * np.ones_like(ca)[None, :]
    return dirs.reshape(-1, 3)


def _intersect_ground(origin, dirs) -> np.ndarray:
    t = np.full(dirs.shape[0], np.inf)
    dz = dirs[:, 2]
    going_down = dz < -1e-12
    t[going_down] = -origin[2] / dz[going_down]
    t[t <= 1e-9] = np.inf
    return t


def _intersect_box(origin, dirs, lo, hi) -> np.ndarray:
    """Slab test of each candidate ray ``dirs[k]`` against its box, the
    corners ``lo[k]`` and ``hi[k]``; inf where it misses."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t1 = (lo - origin) * inv
        t2 = (hi - origin) * inv
    tmin = np.nanmax(np.minimum(t1, t2), axis=1)
    tmax = np.nanmin(np.maximum(t1, t2), axis=1)
    hit = (tmax >= tmin) & (tmin > 1e-9)
    t = np.where(hit, tmin, np.inf)
    return t


def _intersect_cylinder(origin, dirs, center_xy, radius, height) -> np.ndarray:
    """Wall and top-cap test of each candidate ray ``dirs[k]`` against its
    cylinder, ``center_xy[k]``, ``radius[k]`` and ``height[k]``; inf where
    it misses."""
    cx, cy = center_xy[:, 0], center_xy[:, 1]
    ox, oy = origin[0] - cx, origin[1] - cy
    dx, dy = dirs[:, 0], dirs[:, 1]
    a = dx * dx + dy * dy
    b = 2.0 * (ox * dx + oy * dy)
    c = ox * ox + oy * oy - radius * radius
    disc = b * b - 4.0 * a * c
    t = np.full(dirs.shape[0], np.inf)
    ok = (disc >= 0) & (a > 1e-16)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    denom = np.where(ok, 2.0 * a, 1.0)
    for sign in (-1.0, 1.0):  # near wall first, far wall as seen from inside
        tc = np.where(ok, (-b + sign * sq) / denom, np.inf)
        z = origin[2] + np.where(ok, tc, 0.0) * dirs[:, 2]
        valid = ok & (tc > 1e-9) & (z >= 0.0) & (z <= height)
        t = np.where(valid & (tc < t), tc, t)
    # top cap
    dz = dirs[:, 2]
    movable = np.abs(dz) > 1e-12
    t_cap = np.where(movable, (height - origin[2]) / np.where(movable, dz, 1.0), np.inf)
    reach = np.where(movable, t_cap, 0.0)
    px = origin[0] + reach * dirs[:, 0] - cx
    py = origin[1] + reach * dirs[:, 1] - cy
    on_cap = movable & (t_cap > 1e-9) & (px * px + py * py <= radius * radius)
    t = np.where(on_cap & (t_cap < t), t_cap, t)
    return t


_SECTOR_MARGIN = 1e-6  # radians added to each side of an obstacle's sector
_CANDIDATE_CHUNK = 65_536  # (obstacle, ray) pairs per narrow-phase pass


def _sector_bounds(origin, center_xy, radius):
    """Azimuth ranges ``[lo, hi)`` of the rays that may meet each bounding
    circle: one per obstacle, then one more per obstacle for the part of a
    sector that wraps past ±π (empty where none does)."""
    dx = center_xy[:, 0] - origin[0]
    dy = center_xy[:, 1] - origin[1]
    dist = np.hypot(dx, dy)
    inside = dist <= radius * (1.0 + 1e-6)
    ratio = np.divide(radius, dist, out=np.ones_like(dist), where=~inside)
    half = np.arcsin(ratio) + _SECTOR_MARGIN
    theta = np.arctan2(dy, dx)
    lo = np.where(inside, -np.inf, theta - half)
    hi = np.where(inside, np.inf, theta + half)
    low_wrap = ~inside & (lo < -np.pi)
    high_wrap = ~inside & (hi > np.pi)
    wrap_lo = np.where(low_wrap, lo + 2.0 * np.pi, -np.inf)
    wrap_hi = np.where(low_wrap, np.inf, np.where(high_wrap, hi - 2.0 * np.pi, -np.inf))
    return np.concatenate([lo, wrap_lo]), np.concatenate([hi, wrap_hi])


def _cast_obstacles(ranges, origin, dirs, azimuth_order, sorted_azimuth, center_xy,
                    radius, intersect, params):
    """Fold into ``ranges`` the first hits of one kind of obstacle. Each
    obstacle's exact test, ``intersect(origin, dirs[rays], *params[owner])``,
    runs on the rays of its sector only, all obstacles in one pass per
    chunk of at most ``_CANDIDATE_CHUNK`` (obstacle, ray) candidates."""
    n = radius.shape[0]
    lo, hi = _sector_bounds(origin, center_xy, radius)
    starts, stops = np.searchsorted(sorted_azimuth, np.concatenate([lo, hi])).reshape(2, -1)
    counts = np.maximum(stops - starts, 0)
    ends = np.cumsum(counts)
    total = int(counts.sum())
    for first in range(0, total, _CANDIDATE_CHUNK):
        flat = np.arange(first, min(first + _CANDIDATE_CHUNK, total))
        sector = np.searchsorted(ends, flat, side="right")
        rays = azimuth_order[starts[sector] + flat - (ends[sector] - counts[sector])]
        owner = sector % n
        t = intersect(origin, dirs[rays], *(p[owner] for p in params))
        np.minimum.at(ranges, rays, t)


def simulate_scan(world: WorldModel, sensor_pose: RigidTransform, cfg: LidarConfig, seed=0) -> Points:
    """Cast one ray per (azimuth, elevation); keep first hits within range.

    Points are returned in sensor-local coordinates with Gaussian range
    noise clipped to ±6σ, so no return exceeds max_range + 6σ. ``seed`` is
    a non-negative integer or a list or tuple of them (``simulate_sequence``
    passes ``[seed, frame]``).

    Broad phase: each obstacle is bounded in xy by a circle (a box by its
    centre and half its footprint diagonal, a cylinder by its own circle).
    Seen from the sensor at distance D, a circle of radius ρ lies within the
    azimuths θ ± arcsin(ρ/D) of the world-frame ray directions, θ the
    azimuth of its centre; a sensor with D <= ρ·(1 + 1e-6) takes every ray.
    Each sector is widened by a margin of 1e-6 rad, and one search over the
    sorted ray azimuths lists the rays inside it. A ray outside the widened
    sector passes the circle in xy by at least about
    D·cos(arcsin(ρ/D))·1e-6, which the inside rule keeps above 1.4e-9·D, or
    moves away from it from at least 1e-6·ρ outside. The exact tests round
    at about 1e-14 m at scene coordinates of tens of metres, so for any
    obstacle wider than a millimetre they miss such a ray as well, and
    skipping it changes no byte. Directions are in the world frame, so any
    orientation, pitched and rolled too, is covered.

    Narrow phase: the candidate (obstacle, ray) pairs of one obstacle kind
    run the exact box or cylinder test in one vectorised pass per chunk,
    with each obstacle's parameters gathered per candidate. The elementwise
    formulas are the same as testing one obstacle against every ray, so each
    candidate's distance has the same bytes, and ``np.minimum.at`` folds them
    into the per-ray first hit exactly, in any order.
    """
    for s in seed if isinstance(seed, (list, tuple)) else (seed,):
        check_int("seed", s, 0)
    origin = sensor_pose.translation
    if origin[2] <= 0:
        raise ValueError("sensor must be above the ground plane")
    dirs_local = _ray_directions(cfg)
    dirs_world = dirs_local @ sensor_pose.rotation.T
    ranges = np.full(dirs_world.shape[0], np.inf)
    if world.ground:
        ranges = np.minimum(ranges, _intersect_ground(origin, dirs_world))
    azimuth = np.arctan2(dirs_world[:, 1], dirs_world[:, 0])
    order = np.argsort(azimuth, kind="stable")
    sorted_azimuth = azimuth[order]
    center = np.array([b.center for b in world.boxes], dtype=np.float64).reshape(-1, 3)
    size = np.array([b.size for b in world.boxes], dtype=np.float64).reshape(-1, 3)
    _cast_obstacles(ranges, origin, dirs_world, order, sorted_azimuth, center[:, :2],
                    0.5 * np.hypot(size[:, 0], size[:, 1]), _intersect_box,
                    (center - size / 2.0, center + size / 2.0))
    cyl = np.array([(*c.center_xy, c.radius, c.height) for c in world.cylinders],
                   dtype=np.float64).reshape(-1, 4)
    _cast_obstacles(ranges, origin, dirs_world, order, sorted_azimuth, cyl[:, :2],
                    cyl[:, 2], _intersect_cylinder, (cyl[:, :2], cyl[:, 2], cyl[:, 3]))

    rng = np.random.default_rng(seed)
    sigma = cfg.range_noise_sigma
    noise = rng.normal(0.0, sigma, size=ranges.shape) if sigma > 0 else np.zeros_like(ranges)
    if sigma > 0:
        noise = np.clip(noise, -6.0 * sigma, 6.0 * sigma)

    hit = ranges <= cfg.max_range
    r = np.maximum(ranges[hit] + noise[hit], 0.0)
    return dirs_local[hit] * r[:, None]


def simulate_sequence(world: WorldModel, trajectory, cfg: LidarConfig, seed=0) -> FrameSequence:
    """One scan per pose; poses recorded as ground truth."""
    check_int("seed", seed, 0)
    trajectory = list(trajectory)
    if not trajectory:
        raise ValueError("trajectory must be non-empty")
    frames = tuple(
        Frame(simulate_scan(world, pose, cfg, seed=[int(seed), i]), pose, i)
        for i, pose in enumerate(trajectory)
    )
    return FrameSequence(frames)


def line_trajectory(
    start_xy: tuple[float, float],
    heading_deg: float,
    spacing: float,
    n_frames: int,
    height: float = 1.5,
) -> list[RigidTransform]:
    """Straight path with the sensor yawed along the heading, ``height``
    meters above the ground plane."""
    check_int("n_frames", n_frames, 1)
    if not 0 < spacing < np.inf:
        raise ValueError("spacing must be positive and finite")
    if not 0 < height < np.inf:
        raise ValueError("height must be positive and finite")
    if not np.isfinite(start_xy).all():
        raise ValueError(f"start_xy must be finite, got {tuple(start_xy)}")
    if not np.isfinite(heading_deg):
        raise ValueError(f"heading_deg must be finite, got {heading_deg}")
    heading = np.radians(heading_deg)
    direction = np.array([np.cos(heading), np.sin(heading), 0.0])
    yaw = np.array(
        [
            [np.cos(heading), -np.sin(heading), 0.0],
            [np.sin(heading), np.cos(heading), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    start = np.array([start_xy[0], start_xy[1], height])
    return [RigidTransform(yaw, start + k * spacing * direction) for k in range(n_frames)]

