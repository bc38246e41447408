import numpy as np
import pytest

from distreg import aggregate as agg
from distreg.dataio import Frame, FrameSequence
from distreg.errors import EmptyCloud, NoNeighborFrames
from distreg.geometry import RigidTransform, rotation_about_axis, voxel_downsample

CFG = agg.ApgConfig(psi=3, alpha=10.0, scope_radius=50.0, voxel_size=0.3)


def identity_sequence(cloud, n):
    return FrameSequence(tuple(
        Frame(cloud, RigidTransform.identity(), k) for k in range(n)))


class TestConfig:
    def test_defaults_match_protocol(self):
        cfg = agg.ApgConfig()
        assert cfg.psi == 3 and cfg.alpha == 10.0
        assert not cfg.include_key_frame

    def test_validation(self):
        with pytest.raises(ValueError):
            agg.ApgConfig(psi=0)
        with pytest.raises(ValueError):
            agg.ApgConfig(voxel_size=-0.1)
        with pytest.raises(ValueError):
            agg.DisturbConfig(-1)

    @pytest.mark.parametrize("value", [2.5, float("nan"), True])
    def test_psi_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="psi must be an integer"):
            agg.ApgConfig(psi=value)

    @pytest.mark.parametrize("value", [2.5, float("nan"), True])
    def test_n_disturb_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="n_disturb must be an integer"):
            agg.DisturbConfig(value)

    @pytest.mark.parametrize("field", ["alpha", "scope_radius", "voxel_size"])
    @pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0])
    def test_rejects_nan_and_non_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            agg.ApgConfig(**{field: value})

    def test_rejects_infinite_voxel_size(self):
        with pytest.raises(ValueError, match="voxel_size must be finite"):
            agg.ApgConfig(voxel_size=float("inf"))

    @pytest.mark.parametrize("field", ["alpha", "scope_radius"])
    def test_rejects_infinite_spacing_and_scope(self, field):
        # an infinite alpha would select the first frame on each side
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            agg.ApgConfig(**{field: float("inf")})


class TestSelectNonkeyFrames:
    def test_uniform_motion_selects_multiples_of_alpha(self, small_scene):
        _, _, seq = small_scene  # 1 m/frame straight line
        got = agg.select_nonkey_frames(seq, 35, CFG)
        assert got == [5, 15, 25, 45, 55, 65]

    def test_sequence_start_boundary(self, small_scene):
        _, _, seq = small_scene
        got = agg.select_nonkey_frames(seq, 0, agg.ApgConfig(psi=1, alpha=10.0))
        assert got == [10]

    def test_shortfall_near_end(self, small_scene):
        _, _, seq = small_scene
        got = agg.select_nonkey_frames(seq, 69, CFG)
        assert len(got) < 2 * CFG.psi
        assert all(i != 69 for i in got)

    def test_targets_within_half_local_spacing_on_curve(self):
        from distreg import simulate as sim
        world = sim.simulate_world(1, 120.0, 4)
        lidar = sim.LidarConfig(azimuth_steps=64, elevation_angles=(-5.0,))
        # 60 poses 2 degrees apart on a 40 m circle about the origin, yawed
        # along the tangent
        angles = np.radians(2.0 * np.arange(60))
        traj = [RigidTransform(rotation_about_axis((0, 0, 1), phi + np.pi / 2),
                               [40.0 * np.cos(phi), 40.0 * np.sin(phi), 1.5]) for phi in angles]
        seq = sim.simulate_sequence(world, traj, lidar, seed=0)
        cfg = agg.ApgConfig(psi=3, alpha=5.0)
        key = 30
        got = agg.select_nonkey_frames(seq, key, cfg)
        origins = seq.origins()
        d = np.linalg.norm(origins - origins[key], axis=1)
        spacing = np.linalg.norm(origins[1] - origins[0])
        for side, idxs in ((-1, [i for i in got if i < key]), (+1, [i for i in got if i > key])):
            side_positions = np.arange(0, key) if side < 0 else np.arange(key + 1, 60)
            for k in range(1, 4):
                # brute-force best index for this target distance on this side
                best = side_positions[np.argmin(np.abs(d[side_positions] - k * 5.0))]
                assert abs(d[best] - k * 5.0) <= spacing / 2 + 1e-9
                assert int(best) in got


class TestGenerateApc:
    def test_identical_frames_equals_voxelized_key(self, rng):
        pts = rng.uniform(-60, 60, (3000, 3))
        seq = identity_sequence(pts, 7)
        apc = agg.generate_apc(seq, 3, CFG)
        ref = voxel_downsample(pts[np.linalg.norm(pts, axis=1) <= 50.0], 0.3)
        assert apc.shape == ref.shape
        np.testing.assert_allclose(np.sort(apc, axis=0), np.sort(ref, axis=0), atol=1e-12)

    def test_crop_postcondition(self, small_scene):
        _, _, seq = small_scene
        apc = agg.generate_apc(seq, 35, CFG)
        assert np.linalg.norm(apc, axis=1).max() <= CFG.scope_radius

    def test_voxel_single_occupancy(self, small_scene):
        _, _, seq = small_scene
        apc = agg.generate_apc(seq, 35, CFG)
        cells = np.floor(apc / CFG.voxel_size).astype(np.int64)
        assert np.unique(cells, axis=0).shape[0] == cells.shape[0]

    def test_denser_than_key_frame_over_seeds(self):
        from distreg import simulate as sim
        lidar = sim.LidarConfig(azimuth_steps=256, elevation_angles=tuple(np.linspace(-15, 5, 8)),
                                max_range=80.0, range_noise_sigma=0.01)
        for seed in range(10):
            world = sim.simulate_world(seed, 120.0, 12)
            traj = sim.line_trajectory((-35.0, 0.0), 0.0, 1.0, 71)
            seq = sim.simulate_sequence(world, traj, lidar, seed=seed)
            apc = agg.generate_apc(seq, 35, CFG)
            key = seq[35].cloud
            key = key[np.linalg.norm(key, axis=1) <= CFG.scope_radius]
            assert len(apc) >= len(voxel_downsample(key, CFG.voxel_size))

    def test_include_key_frame_flag(self, small_scene):
        _, _, seq = small_scene
        without = agg.generate_apc(seq, 35, CFG)
        with_key = agg.generate_apc(
            seq, 35, agg.ApgConfig(psi=3, alpha=10.0, scope_radius=50.0,
                                   voxel_size=0.3, include_key_frame=True))
        assert len(with_key) >= len(without)

    def test_no_neighbor_frames(self, rng):
        seq = identity_sequence(rng.uniform(-1, 1, (50, 3)), 1)
        with pytest.raises(NoNeighborFrames):
            agg.generate_apc(seq, 0, CFG)

    def test_deterministic_and_disturb_identities(self, small_scene):
        _, _, seq = small_scene
        plain = agg.generate_apc(seq, 35, CFG)
        zero = agg.generate_apc(seq, 35, CFG, agg.DisturbConfig(0, seed=3))
        np.testing.assert_array_equal(zero, plain)

        d1 = agg.generate_apc(seq, 35, CFG, agg.DisturbConfig(3, seed=3))
        d2 = agg.generate_apc(seq, 35, CFG, agg.DisturbConfig(3, seed=3))
        np.testing.assert_array_equal(d1, d2)
        assert not np.array_equal(d1, plain)
        other_seed = agg.generate_apc(seq, 35, CFG, agg.DisturbConfig(3, seed=4))
        assert not np.array_equal(d1, other_seed)

    def test_disturb_exceeding_nonkey_count_rejected(self, small_scene):
        _, _, seq = small_scene
        with pytest.raises(ValueError):
            agg.generate_apc(seq, 35, CFG, agg.DisturbConfig(7, seed=0))

    def test_key_frame_points_never_move_under_disturbance(self, rng):
        # identical frames with identity poses: the selector collapses each
        # side to one frame; disturbing both leaves the included key frame's
        # voxel cells occupied
        pts = rng.uniform(-20, 20, (800, 3))
        seq = identity_sequence(pts, 7)
        cfg = agg.ApgConfig(psi=3, alpha=10.0, scope_radius=25.0, voxel_size=0.5,
                            include_key_frame=True)
        assert agg.select_nonkey_frames(seq, 3, cfg) == [0, 4]
        disturbed = agg.generate_apc(seq, 3, cfg, agg.DisturbConfig(2, seed=1))
        key_cells = {tuple(c) for c in
                     np.floor(pts[np.linalg.norm(pts, axis=1) <= 25.0] / 0.5).astype(int)}
        apc_cells = {tuple(c) for c in np.floor(disturbed / 0.5).astype(int)}
        assert key_cells <= apc_cells


class TestCoverageGain:
    def test_same_cloud_zero(self, rng):
        pts = rng.uniform(-5, 5, (100, 3))
        assert agg.apc_coverage_gain(pts, pts, 0.3) == 0.0

    def test_counting_example(self, rng):
        key = rng.uniform(-5, 5, (99, 3))
        apc = np.vstack([key, [[1000.0, 0.0, 0.0]]])
        assert agg.apc_coverage_gain(key, apc, 0.3) == pytest.approx(1 / 100)

    def test_simulated_gain_positive(self, small_scene):
        _, _, seq = small_scene
        apc = agg.generate_apc(seq, 35, CFG)
        key = seq[35].cloud
        key = key[np.linalg.norm(key, axis=1) <= CFG.scope_radius]
        assert agg.apc_coverage_gain(key, apc, 0.3) > 0.0

    def test_empty_raises(self, rng):
        with pytest.raises(EmptyCloud):
            agg.apc_coverage_gain(np.zeros((0, 3)), rng.uniform(-1, 1, (5, 3)), 0.3)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_tau(self, rng, tau):
        pts = rng.uniform(-1, 1, (5, 3))
        with pytest.raises(ValueError):
            agg.apc_coverage_gain(pts, pts, tau)
