import re

import numpy as np
import pytest

from distreg import simulate as sim
from distreg.geometry import RigidTransform, overlap_ratio


def flat_pose(height=1.5):
    return RigidTransform(np.eye(3), [0.0, 0.0, height])


class TestWorld:
    def test_zero_obstacles(self):
        w = sim.simulate_world(0, 50.0, 0)
        assert w.boxes == () and w.cylinders == () and w.ground

    def test_same_seed_identical(self):
        assert sim.simulate_world(9, 60.0, 10) == sim.simulate_world(9, 60.0, 10)

    def test_seed_variation_moves_obstacles(self):
        a = sim.simulate_world(1, 60.0, 6)
        b = sim.simulate_world(2, 60.0, 6)
        assert a.boxes[0].center != b.boxes[0].center

    def test_obstacles_within_extent(self):
        w = sim.simulate_world(4, 40.0, 20)
        for box in w.boxes:
            assert abs(box.center[0]) <= 20 and abs(box.center[1]) <= 20
        for cyl in w.cylinders:
            assert abs(cyl.center_xy[0]) <= 20 and abs(cyl.center_xy[1]) <= 20

    def test_validation(self):
        with pytest.raises(ValueError):
            sim.simulate_world(0, -1.0, 0)
        with pytest.raises(ValueError):
            sim.simulate_world(0, 10.0, -1)
        with pytest.raises(ValueError):
            sim.Box(center=(0, 0, 0.1), size=(1, 1, 1))  # sunk into the ground
        with pytest.raises(ValueError):
            sim.Cylinder(center_xy=(0, 0), radius=-1, height=1)

    @pytest.mark.parametrize("value", [2.5, float("nan"), True])
    def test_n_obstacles_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="n_obstacles must be an integer"):
            sim.simulate_world(0, 10.0, value)

    @pytest.mark.parametrize("extent", [float("nan"), float("inf"), 0.0])
    def test_rejects_nan_or_infinite_extent(self, extent):
        with pytest.raises(ValueError, match="extent"):
            sim.simulate_world(0, extent, 3)


class TestLidarConfig:
    @pytest.mark.parametrize("field,value", [
        ("max_range", float("nan")), ("max_range", float("inf")), ("max_range", 0.0),
        ("range_noise_sigma", float("nan")), ("range_noise_sigma", float("inf")),
        ("range_noise_sigma", -0.1), ("elevation_angles", ()),
        ("elevation_angles", (0.0, float("nan"))), ("azimuth_steps", 4),
    ])
    def test_rejects_bad_settings(self, field, value):
        # NaN fails every comparison: a NaN range or no ring would give empty
        # clouds, a NaN sigma noiseless ones
        with pytest.raises(ValueError, match=field):
            sim.LidarConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, 8.5, float("nan"), True])
    def test_azimuth_steps_must_be_an_integer(self, value):
        # 8.5 steps used to give 9 azimuths spaced 2*pi/8.5 apart
        with pytest.raises(ValueError, match="azimuth_steps must be an integer"):
            sim.LidarConfig(azimuth_steps=value)


class TestScan:
    def test_analytic_ground_ring(self):
        cfg = sim.LidarConfig(azimuth_steps=64, elevation_angles=(-10.0,),
                              max_range=80.0, range_noise_sigma=0.0)
        pts = sim.simulate_scan(sim.WorldModel(extent=200.0), flat_pose(1.5), cfg)
        assert len(pts) == 64
        expected = 1.5 / np.sin(np.radians(10.0))
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), expected, atol=1e-9)

    def test_upward_rays_miss_ground(self):
        cfg = sim.LidarConfig(azimuth_steps=32, elevation_angles=(5.0,),
                              max_range=80.0, range_noise_sigma=0.0)
        pts = sim.simulate_scan(sim.WorldModel(extent=100.0), flat_pose(), cfg)
        assert len(pts) == 0

    def test_occluded_box_gets_no_points(self):
        world = sim.WorldModel(extent=200.0, ground=False, boxes=(
            sim.Box(center=(10, 0, 1.0), size=(1, 6, 2)),
            sim.Box(center=(20, 0, 1.0), size=(1, 6, 2)),
        ))
        cfg = sim.LidarConfig(azimuth_steps=512, elevation_angles=(0.0,),
                              max_range=80.0, range_noise_sigma=0.0)
        pts = sim.simulate_scan(world, flat_pose(1.0), cfg)
        assert len(pts) > 0
        assert (pts[:, 0] < 15.0).all()

    def test_cylinder_density_falls_with_distance(self):
        counts = []
        for seed in range(10):
            per_dist = []
            for dist in (5.0, 10.0, 20.0, 40.0):
                world = sim.WorldModel(
                    extent=200.0,
                    cylinders=(sim.Cylinder(center_xy=(dist, 0.0), radius=1.0, height=4.0),),
                )
                cfg = sim.LidarConfig(
                    azimuth_steps=2048,
                    elevation_angles=tuple(np.linspace(-15, 15, 32)),
                    max_range=80.0,
                    range_noise_sigma=0.01,
                )
                pts = sim.simulate_scan(world, flat_pose(), cfg, seed=seed)
                world_pts = pts + np.array([0.0, 0.0, 1.5])
                per_dist.append(int(np.count_nonzero(world_pts[:, 2] > 0.05)))
            counts.append(per_dist)
        for per_dist in counts:
            assert all(per_dist[k + 1] <= per_dist[k] * 1.05 for k in range(3))

    def test_no_point_beyond_range_plus_noise(self):
        cfg = sim.LidarConfig(azimuth_steps=256, elevation_angles=(-3.5, -3.0),
                              max_range=30.0, range_noise_sigma=0.5)
        pts = sim.simulate_scan(sim.WorldModel(extent=500.0), flat_pose(), cfg, seed=3)
        assert len(pts) > 0  # the -3.5 deg ring hits ground at ~24.6 m
        assert np.linalg.norm(pts, axis=1).max() <= 30.0 + 6 * 0.5 + 1e-12

    def test_deterministic(self):
        world = sim.simulate_world(5, 60.0, 8)
        cfg = sim.LidarConfig(azimuth_steps=128, elevation_angles=(-10.0, -5.0, 0.0))
        a = sim.simulate_scan(world, flat_pose(), cfg, seed=11)
        b = sim.simulate_scan(world, flat_pose(), cfg, seed=11)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, [-1, 0], [0, -1], (3, -2), 2.5, [1, 2.5], True,
                                      np.float64(3.0)], ids=repr)
    def test_rejects_negative_or_non_integer_seed_by_name(self, seed):
        cfg = sim.LidarConfig(azimuth_steps=32, elevation_angles=(0.0,))
        with pytest.raises(ValueError, match=re.escape("seed must be an integer >= 0")):
            sim.simulate_scan(sim.WorldModel(extent=10.0), flat_pose(), cfg, seed=seed)

    def test_accepts_numpy_integer_seeds(self):
        world = sim.simulate_world(5, 60.0, 8)
        cfg = sim.LidarConfig(azimuth_steps=128, elevation_angles=(-10.0, -5.0, 0.0))
        np.testing.assert_array_equal(
            sim.simulate_scan(world, flat_pose(), cfg, seed=[np.int64(11), np.uint8(2)]),
            sim.simulate_scan(world, flat_pose(), cfg, seed=[11, 2]))

    def test_sensor_below_ground_rejected(self):
        cfg = sim.LidarConfig(azimuth_steps=32, elevation_angles=(0.0,))
        with pytest.raises(ValueError):
            sim.simulate_scan(sim.WorldModel(extent=10.0),
                              RigidTransform(np.eye(3), [0, 0, -1.0]), cfg)

    def test_output_in_sensor_frame(self):
        # a yawed sensor sees the same local geometry
        world = sim.WorldModel(extent=200.0)
        cfg = sim.LidarConfig(azimuth_steps=64, elevation_angles=(-10.0,),
                              max_range=80.0, range_noise_sigma=0.0)
        yaw = np.radians(90.0)
        rot = np.array([[np.cos(yaw), -np.sin(yaw), 0],
                        [np.sin(yaw), np.cos(yaw), 0], [0, 0, 1]])
        a = sim.simulate_scan(world, flat_pose(), cfg)
        b = sim.simulate_scan(world, RigidTransform(rot, [0, 0, 1.5]), cfg)
        np.testing.assert_allclose(np.sort(np.linalg.norm(a, axis=1)),
                                   np.sort(np.linalg.norm(b, axis=1)), atol=1e-9)


class TestSequence:
    def test_single_pose(self):
        world = sim.simulate_world(2, 40.0, 4)
        cfg = sim.LidarConfig(azimuth_steps=64, elevation_angles=(-5.0,))
        seq = sim.simulate_sequence(world, [flat_pose()], cfg, seed=0)
        assert len(seq) == 1 and seq[0].index == 0

    def test_empty_trajectory_rejected(self):
        cfg = sim.LidarConfig(azimuth_steps=64, elevation_angles=(-5.0,))
        with pytest.raises(ValueError):
            sim.simulate_sequence(sim.simulate_world(0, 10.0, 0), [], cfg)

    def test_adjacent_frames_overlap(self, small_scene):
        _, _, seq = small_scene
        f0, f1 = seq[30], seq[31]
        gt = f1.pose.inverse().compose(f0.pose)
        assert overlap_ratio(f0.cloud, f1.cloud, gt, 0.5) > 0.0

    def test_deterministic(self):
        world = sim.simulate_world(6, 50.0, 6)
        cfg = sim.LidarConfig(azimuth_steps=128, elevation_angles=(-8.0, -3.0))
        traj = sim.line_trajectory((-5, 0), 0.0, 1.0, 5)
        s1 = sim.simulate_sequence(world, traj, cfg, seed=4)
        s2 = sim.simulate_sequence(world, traj, cfg, seed=4)
        for f1, f2 in zip(s1, s2):
            np.testing.assert_array_equal(f1.cloud, f2.cloud)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "3"], ids=repr)
    def test_rejects_negative_or_non_integer_seed_by_name(self, seed):
        cfg = sim.LidarConfig(azimuth_steps=64, elevation_angles=(-5.0,))
        with pytest.raises(ValueError, match=re.escape("seed must be an integer >= 0")):
            sim.simulate_sequence(sim.simulate_world(0, 10.0, 0), [flat_pose()], cfg, seed=seed)

    def test_numpy_integer_seed_gives_the_int_seed_frames(self):
        world = sim.simulate_world(6, 50.0, 6)
        cfg = sim.LidarConfig(azimuth_steps=128, elevation_angles=(-8.0, -3.0))
        traj = sim.line_trajectory((-5, 0), 0.0, 1.0, 3)
        for f1, f2 in zip(sim.simulate_sequence(world, traj, cfg, seed=np.int64(4)),
                          sim.simulate_sequence(world, traj, cfg, seed=4)):
            np.testing.assert_array_equal(f1.cloud, f2.cloud)

    def test_poses_recorded_as_ground_truth(self):
        world = sim.simulate_world(2, 40.0, 0)
        cfg = sim.LidarConfig(azimuth_steps=64, elevation_angles=(-5.0,))
        traj = sim.line_trajectory((0, 0), 30.0, 2.0, 4)
        seq = sim.simulate_sequence(world, traj, cfg, seed=0)
        for frame, pose in zip(seq, traj):
            np.testing.assert_array_equal(frame.pose.matrix34(), pose.matrix34())


class TestTrajectories:
    def test_line_spacing_and_heading(self):
        poses = sim.line_trajectory((1.0, 2.0), 90.0, 0.5, 4, height=2.0)
        assert len(poses) == 4
        np.testing.assert_allclose(poses[0].translation, [1.0, 2.0, 2.0])
        np.testing.assert_allclose(poses[3].translation, [1.0, 3.5, 2.0], atol=1e-12)

    @pytest.mark.parametrize("field,kwargs", [
        ("spacing", dict(spacing=float("nan"))), ("spacing", dict(spacing=-1.0)),
        ("spacing", dict(spacing=float("inf"))), ("height", dict(height=0.0)),
        ("height", dict(height=float("nan"))), ("n_frames", dict(n_frames=0)),
        ("start_xy", dict(start_xy=(float("inf"), 0.0))),
        ("start_xy", dict(start_xy=(0.0, float("nan")))),
        ("heading_deg", dict(heading_deg=float("nan"))),
    ])
    def test_line_rejects_bad_settings(self, field, kwargs):
        args = dict(start_xy=(0.0, 0.0), heading_deg=0.0, spacing=1.0, n_frames=3)
        with pytest.raises(ValueError, match=field):
            sim.line_trajectory(**{**args, **kwargs})

    @pytest.mark.parametrize("value", [2.5, float("nan"), True])
    def test_line_n_frames_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="n_frames must be an integer"):
            sim.line_trajectory((0.0, 0.0), 0.0, 1.0, value)
