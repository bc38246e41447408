import os
import re
import subprocess
import sys

import numpy as np
import pytest
from conftest import scan_reference
from hypothesis import given, settings, strategies as st

from distreg import simulate as sim
from distreg.geometry import RigidTransform, overlap_ratio

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def flat_pose(height=1.5):
    return RigidTransform(np.eye(3), [0.0, 0.0, height])


def rotation(yaw_deg, pitch_deg=0.0, roll_deg=0.0):
    """Yaw about z after pitch about y after roll about x."""
    y, p, r = np.radians([yaw_deg, pitch_deg, roll_deg])
    rz = np.array([[np.cos(y), -np.sin(y), 0.0], [np.sin(y), np.cos(y), 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[np.cos(p), 0.0, np.sin(p)], [0.0, 1.0, 0.0], [-np.sin(p), 0.0, np.cos(p)]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(r), -np.sin(r)], [0.0, np.sin(r), np.cos(r)]])
    return rz @ ry @ rx


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

    @pytest.mark.parametrize("field,kwargs", [
        ("center", dict(center=(0.0, 0.0, float("nan")), size=(1.0, 1.0, float("nan")))),
        ("center", dict(center=(float("inf"), 0.0, 0.5))),
        ("center", dict(center=(0.0, float("nan"), 0.5))),
        ("size", dict(size=(1.0, float("nan"), 1.0))),
        ("size", dict(size=(float("inf"), 1.0, 1.0))),
        ("size", dict(size=(1.0, 1.0, float("inf")))),
    ])
    def test_box_rejects_non_finite_geometry_by_name(self, field, kwargs):
        # min() and the comparisons pass NaN, so such a box used to construct
        # and scan as if it were there
        args = dict(center=(0.0, 0.0, 0.5), size=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            sim.Box(**{**args, **kwargs})

    @pytest.mark.parametrize("field,kwargs", [
        ("center_xy", dict(center_xy=(float("inf"), 0.0))),
        ("center_xy", dict(center_xy=(0.0, float("nan")))),
        ("radius", dict(radius=float("nan"))), ("radius", dict(radius=float("inf"))),
        ("height", dict(height=float("nan"))), ("height", dict(height=float("inf"))),
    ])
    def test_cylinder_rejects_non_finite_geometry_by_name(self, field, kwargs):
        args = dict(center_xy=(0.0, 0.0), radius=1.0, height=2.0)
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            sim.Cylinder(**{**args, **kwargs})

    @pytest.mark.parametrize("make,field", [
        (lambda: sim.Box(center=(0.0, 0.0), size=(1.0, 1.0, 1.0)), "center"),
        (lambda: sim.Box(center=(0.0, 0.0, 0.5), size=(1.0, 1.0, 1.0, 1.0)), "size"),
        (lambda: sim.Cylinder(center_xy=(0.0, 0.0, 5.0), radius=1.0, height=2.0), "center_xy"),
        (lambda: sim.Cylinder(center_xy=(0.0, 0.0), radius=(1.0, 2.0), height=2.0), "radius"),
    ])
    def test_obstacles_reject_wrong_coordinate_counts_by_name(self, make, field):
        # the caster stacks the parameters of all cylinders into one (n, 4)
        # array, which four 3-coordinate centres would have filled silently
        with pytest.raises(ValueError, match=f"^{field} must be (one number|[23] coordinates)"):
            make()

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


coords = st.floats(-25.0, 25.0)
extents = st.floats(0.05, 8.0)
heights = st.floats(0.2, 6.0)
boxes = st.builds(lambda x, y, sx, sy, h: sim.Box((x, y, h / 2.0), (sx, sy, h)),
                  coords, coords, extents, extents, heights)
cylinders = st.builds(lambda x, y, r, h: sim.Cylinder((x, y), r, h),
                      coords, coords, st.floats(0.02, 4.0), heights)


@st.composite
def scan_cases(draw):
    """A world, a sensor pose and a scan pattern, with edge cases for the
    broad phase drawn on purpose: the sensor inside a box footprint or a
    cylinder, a box corner on a ray's azimuth, and a cylinder tangent to a
    ray (its xy trace) from just outside the circle."""
    yaw = draw(st.sampled_from([0.0, 90.0, 180.0, -90.0]) | st.floats(-360.0, 360.0))
    pitch, roll = draw(st.sampled_from([(0.0, 0.0), (6.0, -4.0)])
                       | st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)))
    sensor = np.array([draw(coords), draw(coords), draw(st.floats(0.2, 5.0))])
    pose = RigidTransform(rotation(yaw, pitch, roll), sensor)
    cfg = sim.LidarConfig(
        azimuth_steps=draw(st.sampled_from([8, 37, 64, 90])),
        elevation_angles=draw(st.sampled_from([(-25.0, -8.0, 0.0, 12.0),
                                               (-90.0, -30.0, -2.0, 45.0, 90.0)])),
        max_range=60.0, range_noise_sigma=draw(st.sampled_from([0.0, 0.02])))
    world_boxes = draw(st.lists(boxes, max_size=6))
    world_cylinders = draw(st.lists(cylinders, max_size=6))
    xy = sensor[:2]
    if draw(st.booleans()):  # sensor inside a box footprint
        sx, sy, h = draw(extents), draw(extents), draw(heights)
        fx, fy = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
        world_boxes.append(sim.Box((xy[0] + fx * sx, xy[1] + fy * sy, h / 2.0), (sx, sy, h)))
    if draw(st.booleans()):  # sensor inside a cylinder
        r, h, a = draw(extents), draw(heights), draw(st.floats(-4, 4))
        f = draw(st.sampled_from([0.0, 0.999999, 1.0]) | st.floats(0.0, 1.0))
        world_cylinders.append(sim.Cylinder((xy[0] + f * r * np.cos(a), xy[1] + f * r * np.sin(a)), r, h))
    dirs = sim._ray_directions(cfg) @ pose.rotation.T
    azimuth = np.arctan2(dirs[:, 1], dirs[:, 0])
    if draw(st.booleans()):  # a box corner on one ray's azimuth
        phi = azimuth[draw(st.integers(0, azimuth.size - 1))]
        corner = xy + draw(st.floats(0.5, 40.0)) * np.array([np.cos(phi), np.sin(phi)])
        sx, sy, h = draw(extents), draw(extents), draw(heights)
        qx, qy = draw(st.sampled_from([-1.0, 1.0])), draw(st.sampled_from([-1.0, 1.0]))
        world_boxes.append(sim.Box((corner[0] + qx * sx / 2.0, corner[1] + qy * sy / 2.0, h / 2.0),
                                   (sx, sy, h)))
    if draw(st.booleans()):  # a cylinder tangent to one ray's azimuth
        phi = azimuth[draw(st.integers(0, azimuth.size - 1))]
        r, h = draw(extents), draw(heights)
        d = r * (1.0 + draw(st.sampled_from([1e-7, 1e-6, 2e-6, 1e-3]) | st.floats(0.01, 20.0)))
        beta = phi + draw(st.sampled_from([-1.0, 1.0])) * np.arcsin(r / d)
        world_cylinders.append(sim.Cylinder((xy[0] + d * np.cos(beta), xy[1] + d * np.sin(beta)), r, h))
    world = sim.WorldModel(extent=60.0, boxes=tuple(world_boxes),
                           cylinders=tuple(world_cylinders), ground=draw(st.booleans()))
    return world, pose, cfg, draw(st.integers(0, 2**32))


def assert_same_scans(seq, world, trajectory, cfg, seed):
    for frame, pose in zip(seq, trajectory, strict=True):
        assert frame.cloud.tobytes() == scan_reference(
            world, pose, cfg, seed=[seed, frame.index]).tobytes()


class TestCasterMatchesPerObstacleReference:
    """The azimuth broad phase changes no byte of any scan."""

    @settings(max_examples=300, deadline=None)
    @given(case=scan_cases())
    def test_drawn_worlds_and_poses(self, case):
        world, pose, cfg, seed = case
        assert sim.simulate_scan(world, pose, cfg, seed).tobytes() == \
            scan_reference(world, pose, cfg, seed).tobytes()

    @pytest.mark.parametrize("ground", [True, False])
    @pytest.mark.parametrize("yaw", [0.0, 90.0, 180.0, 33.3])
    def test_no_obstacles(self, ground, yaw):
        world = sim.WorldModel(extent=50.0, ground=ground)
        pose = RigidTransform(rotation(yaw, 5.0, -3.0), [1.0, 2.0, 1.5])
        cfg = sim.LidarConfig(azimuth_steps=64, elevation_angles=(-10.0, 0.0, 10.0))
        pts = sim.simulate_scan(world, pose, cfg, seed=2)
        assert pts.tobytes() == scan_reference(world, pose, cfg, seed=2).tobytes()
        assert (len(pts) > 0) == ground

    def test_sensor_inside_more_circles_than_one_chunk_holds(self):
        # every cylinder holds the sensor, so each takes every ray: 10 x 8192
        # candidates run in two chunks, and the innermost cylinders, the
        # tallest, are in the second
        cylinders = tuple(sim.Cylinder((0.1 * k, -0.05 * k), 8.0 - 0.5 * k, 1.0 + k)
                          for k in range(10))
        world = sim.WorldModel(extent=50.0, cylinders=cylinders, boxes=(
            sim.Box((0.0, 0.0, 3.0), (1.0, 1.0, 6.0)), sim.Box((9.0, 4.0, 1.0), (2.0, 3.0, 2.0))))
        cfg = sim.LidarConfig(azimuth_steps=1024, elevation_angles=tuple(np.linspace(-20, 20, 8)))
        assert len(cylinders) * 1024 * 8 > sim._CANDIDATE_CHUNK
        for pose in (flat_pose(2.0), RigidTransform(rotation(120.0, 10.0, 5.0), [0.2, 0.1, 7.5])):
            assert sim.simulate_scan(world, pose, cfg, seed=4).tobytes() == \
                scan_reference(world, pose, cfg, seed=4).tobytes()

    def test_sequence_of_turning_poses(self):
        # a sequence builds its rays and obstacle arrays once: each frame's
        # own rotation, position and seed still decide its bytes
        world = sim.simulate_world(5, 60.0, 24)
        cfg = sim.LidarConfig(azimuth_steps=128, elevation_angles=(-15.0, -5.0, 0.0, 8.0))
        trajectory = [RigidTransform(rotation(yaw, pitch, roll), [x, -0.5 * x, z])
                      for yaw, pitch, roll, x, z in [(0.0, 0.0, 0.0, -10.0, 1.5),
                                                     (90.0, 6.0, -4.0, -4.0, 2.5),
                                                     (200.0, -10.0, 3.0, 3.0, 1.0),
                                                     (-45.0, 0.0, 0.0, 12.0, 1.5)]]
        seq = sim.simulate_sequence(world, trajectory, cfg, 3)
        assert_same_scans(seq, world, trajectory, cfg, 3)
        assert len({frame.cloud.shape[0] for frame in seq}) > 1

    @pytest.mark.parametrize("seed", [1, 2])
    def test_train_apr_scene(self, seed):
        # perfbench's toy two-vehicle scene at workload seed 0
        world = sim.simulate_world(17, 56.0, 30)
        cfg = sim.LidarConfig(azimuth_steps=320, elevation_angles=tuple(np.linspace(-10, 4, 8)),
                              max_range=60.0, range_noise_sigma=0.01)
        traj = sim.line_trajectory((-20, -5 if seed == 1 else 5), 0.0, 1.0, 41)
        assert_same_scans(sim.simulate_sequence(world, traj, cfg, seed), world, traj, cfg, seed)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_register_bins_scene(self, seed):
        world = sim.simulate_world(23, 50.0, 44)
        cfg = sim.LidarConfig(azimuth_steps=320, elevation_angles=tuple(np.linspace(-8, 0, 6)),
                              max_range=50.0, range_noise_sigma=0.01)
        traj = sim.line_trajectory((-18, -4 if seed == 1 else 4), 0.0, 1.0, 37)
        assert_same_scans(sim.simulate_sequence(world, traj, cfg, seed), world, traj, cfg, seed)

    def test_small_scene(self, small_scene):
        world, cfg, seq = small_scene
        assert_same_scans(seq, world, [f.pose for f in seq], cfg, 1)


SCAN_DIGEST = """
import hashlib
import numpy as np
from distreg import simulate as sim
world = sim.simulate_world(4, 100.0, 60)
seq = sim.simulate_sequence(world, sim.line_trajectory((-10.0, 3.0), 30.0, 1.5, 3), sim.LidarConfig(), seed=7)
print(hashlib.sha256(b"".join(f.cloud.tobytes() for f in seq)).hexdigest())
"""


@pytest.mark.threads
def test_scan_bytes_do_not_depend_on_blas_threads():
    """The scan's one BLAS call is the (R, 3) @ (3, 3) direction product; a
    default-LiDAR scene has the same bytes at one and two OpenBLAS threads."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        digests.append(subprocess.run([sys.executable, "-c", SCAN_DIGEST], env=env,
                                      capture_output=True, text=True, check=True).stdout)
    assert len(digests[0].strip()) == 64
    assert digests[0] == digests[1]


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
