import numpy as np
import pytest

from distreg import simulate as sim


def relative_rotation_angle_deg(rotation_a, rotation_b) -> float:
    """Relative rotation angle via atan2 of the antisymmetric part;
    well-conditioned near zero, unlike ``geometry.rre``'s arccos form, so
    tests can assert exact recovery to 1e-6 degrees."""
    m = np.asarray(rotation_a, dtype=np.float64).T @ np.asarray(rotation_b, dtype=np.float64)
    s = 0.5 * np.linalg.norm([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    c = (np.trace(m) - 1.0) / 2.0
    return float(np.degrees(np.arctan2(s, c)))


def voxel_reference(cloud, voxel_size):
    """The voxel grid by ``np.unique(axis=0)`` and ``np.add.at``. Both it and
    ``voxel_downsample`` order cells lexicographically and sum each cell's
    members in input order, so their outputs must agree to the byte."""
    pts = np.asarray(cloud, dtype=np.float64)
    cells = np.floor(pts / voxel_size).astype(np.int64)
    uniq, inverse = np.unique(cells, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    sums = np.zeros((uniq.shape[0], 3))
    np.add.at(sums, inverse, pts)
    counts = np.bincount(inverse, minlength=uniq.shape[0]).astype(np.float64)
    return sums / counts[:, None]


def _box_reference(origin, dirs, box):
    lo = np.asarray(box.center) - np.asarray(box.size) / 2.0
    hi = np.asarray(box.center) + np.asarray(box.size) / 2.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t1 = (lo - origin) * inv
        t2 = (hi - origin) * inv
    tmin = np.nanmax(np.minimum(t1, t2), axis=1)
    tmax = np.nanmin(np.maximum(t1, t2), axis=1)
    hit = (tmax >= tmin) & (tmin > 1e-9)
    return np.where(hit, tmin, np.inf)


def _cylinder_reference(origin, dirs, cyl):
    cx, cy = cyl.center_xy
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
    for sign in (-1.0, 1.0):
        tc = np.where(ok, (-b + sign * sq) / denom, np.inf)
        z = origin[2] + np.where(ok, tc, 0.0) * dirs[:, 2]
        valid = ok & (tc > 1e-9) & (z >= 0.0) & (z <= cyl.height)
        t = np.where(valid & (tc < t), tc, t)
    dz = dirs[:, 2]
    movable = np.abs(dz) > 1e-12
    t_cap = np.where(movable, (cyl.height - origin[2]) / np.where(movable, dz, 1.0), np.inf)
    reach = np.where(movable, t_cap, 0.0)
    px = origin[0] + reach * dirs[:, 0] - cx
    py = origin[1] + reach * dirs[:, 1] - cy
    on_cap = movable & (t_cap > 1e-9) & (px * px + py * py <= cyl.radius * cyl.radius)
    return np.where(on_cap & (t_cap < t), t_cap, t)


def scan_reference(world, sensor_pose, cfg, seed=0):
    """``simulate_scan`` without a broad phase: every obstacle's exact test
    runs on every ray, one obstacle at a time, and ``np.minimum`` keeps each
    ray's first hit. The caster tests only the rays in each obstacle's
    azimuth sector, with the same elementwise formulas, so its scans must
    equal these to the byte."""
    origin = sensor_pose.translation
    dirs_local = sim._ray_directions(cfg)
    dirs = dirs_local @ sensor_pose.rotation.T
    ranges = np.full(dirs.shape[0], np.inf)
    if world.ground:
        ranges = np.minimum(ranges, sim._intersect_ground(origin, dirs))
    for box in world.boxes:
        ranges = np.minimum(ranges, _box_reference(origin, dirs, box))
    for cyl in world.cylinders:
        ranges = np.minimum(ranges, _cylinder_reference(origin, dirs, cyl))
    rng = np.random.default_rng(seed)
    sigma = cfg.range_noise_sigma
    noise = rng.normal(0.0, sigma, size=ranges.shape) if sigma > 0 else np.zeros_like(ranges)
    if sigma > 0:
        noise = np.clip(noise, -6.0 * sigma, 6.0 * sigma)
    hit = ranges <= cfg.max_range
    r = np.maximum(ranges[hit] + noise[hit], 0.0)
    return dirs_local[hit] * r[:, None]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_scene():
    """A compact simulated world with one straight trajectory, shared by
    tests that only need plausible scan geometry."""
    world = sim.simulate_world(3, 120.0, 16)
    lidar = sim.LidarConfig(
        azimuth_steps=256,
        elevation_angles=tuple(np.linspace(-15.0, 5.0, 8)),
        max_range=80.0,
        range_noise_sigma=0.01,
    )
    trajectory = sim.line_trajectory((-35.0, 0.0), 0.0, 1.0, 71)
    seq = sim.simulate_sequence(world, trajectory, lidar, seed=1)
    return world, lidar, seq
