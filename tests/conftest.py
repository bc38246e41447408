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
