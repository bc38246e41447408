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


@dataclass(frozen=True)
class Box:
    """Axis-aligned box resting in the scene; center z = height/2 keeps it on the ground."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]

    def __post_init__(self):
        if min(self.size) <= 0:
            raise ValueError("box dimensions must be positive")
        if self.center[2] - self.size[2] / 2 < -1e-9:
            raise ValueError("box must sit above the ground plane")


@dataclass(frozen=True)
class Cylinder:
    """Vertical cylinder from z=z0 to z=z0+height."""

    center_xy: tuple[float, float]
    radius: float
    height: float
    z0: float = 0.0

    def __post_init__(self):
        if self.radius <= 0 or self.height <= 0:
            raise ValueError("cylinder dimensions must be positive")
        if self.z0 < -1e-9:
            raise ValueError("cylinder must sit above the ground plane")


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


def _intersect_box(origin, dirs, box: Box) -> np.ndarray:
    lo = np.asarray(box.center) - np.asarray(box.size) / 2.0
    hi = np.asarray(box.center) + np.asarray(box.size) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t1 = (lo - origin) * inv
        t2 = (hi - origin) * inv
    tmin = np.nanmax(np.minimum(t1, t2), axis=1)
    tmax = np.nanmin(np.maximum(t1, t2), axis=1)
    hit = (tmax >= tmin) & (tmin > 1e-9)
    t = np.where(hit, tmin, np.inf)
    return t


def _intersect_cylinder(origin, dirs, cyl: Cylinder) -> np.ndarray:
    cx, cy = cyl.center_xy
    z_lo, z_hi = cyl.z0, cyl.z0 + cyl.height
    ox, oy = origin[0] - cx, origin[1] - cy
    dx, dy = dirs[:, 0], dirs[:, 1]
    a = dx * dx + dy * dy
    b = 2.0 * (ox * dx + oy * dy)
    c = ox * ox + oy * oy - cyl.radius * cyl.radius
    disc = b * b - 4.0 * a * c
    t = np.full(dirs.shape[0], np.inf)
    ok = (disc >= 0) & (a > 1e-16)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    denom = np.where(ok, 2.0 * a, 1.0)
    for sign in (-1.0, 1.0):  # near wall first, far wall as seen from inside
        tc = np.where(ok, (-b + sign * sq) / denom, np.inf)
        z = origin[2] + np.where(ok, tc, 0.0) * dirs[:, 2]
        valid = ok & (tc > 1e-9) & (z >= z_lo) & (z <= z_hi)
        t = np.where(valid & (tc < t), tc, t)
    # top cap
    dz = dirs[:, 2]
    movable = np.abs(dz) > 1e-12
    t_cap = np.where(movable, (z_hi - origin[2]) / np.where(movable, dz, 1.0), np.inf)
    reach = np.where(movable, t_cap, 0.0)
    px = origin[0] + reach * dirs[:, 0] - cx
    py = origin[1] + reach * dirs[:, 1] - cy
    on_cap = movable & (t_cap > 1e-9) & (px * px + py * py <= cyl.radius * cyl.radius)
    t = np.where(on_cap & (t_cap < t), t_cap, t)
    return t


def simulate_scan(world: WorldModel, sensor_pose: RigidTransform, cfg: LidarConfig, seed=0) -> Points:
    """Cast one ray per (azimuth, elevation); keep first hits within range.

    Points are returned in sensor-local coordinates with Gaussian range
    noise clipped to ±6σ, so no return exceeds max_range + 6σ.
    """
    origin = sensor_pose.translation
    if origin[2] <= 0:
        raise ValueError("sensor must be above the ground plane")
    dirs_local = _ray_directions(cfg)
    dirs_world = dirs_local @ sensor_pose.rotation.T
    ranges = np.full(dirs_world.shape[0], np.inf)
    if world.ground:
        ranges = np.minimum(ranges, _intersect_ground(origin, dirs_world))
    for box in world.boxes:
        ranges = np.minimum(ranges, _intersect_box(origin, dirs_world, box))
    for cyl in world.cylinders:
        ranges = np.minimum(ranges, _intersect_cylinder(origin, dirs_world, cyl))

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
    trajectory = list(trajectory)
    if not trajectory:
        raise ValueError("trajectory must be non-empty")
    frames = tuple(
        Frame(simulate_scan(world, pose, cfg, seed=[_entropy(seed), i]), pose, i)
        for i, pose in enumerate(trajectory)
    )
    return FrameSequence(frames)


def _entropy(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise TypeError("sequence seed must be an integer")


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

