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
