import os
import re
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from distreg import dataio as dio
from distreg import geometry as g
from distreg.errors import MalformedFile, NonRigidPose, UnknownFrame


def file_bytes(header: bytes):
    """Arbitrary bytes, and rows of CSV-like tokens (some not UTF-8) under a
    valid header."""
    tokens = st.sampled_from([b"0", b"1", b"7", b"-", b".", b"e", b"nan", b"inf", b",",
                              b"\n", b"\r", b" ", b'"', b"\xff", b"\x00", b"\xc3\xa9"])
    return st.one_of(st.binary(max_size=300),
                     st.lists(tokens, max_size=80).map(lambda ts: header + b"".join(ts)))


class TestKittiBin:
    def test_single_record(self, tmp_path):
        p = tmp_path / "one.bin"
        p.write_bytes(np.array([1.0, 2.0, 3.0, 0.5], dtype="<f4").tobytes())
        cloud = dio.load_kitti_bin(p)
        np.testing.assert_array_equal(cloud, [[1.0, 2.0, 3.0]])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.bin"
        p.write_bytes(b"")
        assert dio.load_kitti_bin(p).shape == (0, 3)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 20)
        with pytest.raises(MalformedFile):
            dio.load_kitti_bin(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            dio.load_kitti_bin(tmp_path / "nope.bin")

    def test_round_trip_bit_exact(self, tmp_path, rng):
        cloud = rng.uniform(-80, 80, (500, 3)).astype(np.float32).astype(np.float64)
        p = tmp_path / "rt.bin"
        dio.write_kitti_bin(p, cloud)
        back = dio.load_kitti_bin(p)
        np.testing.assert_array_equal(back, cloud)

    def test_order_preserved(self, tmp_path):
        cloud = np.array([[3.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        p = tmp_path / "ord.bin"
        dio.write_kitti_bin(p, cloud)
        np.testing.assert_array_equal(dio.load_kitti_bin(p)[:, 0], [3.0, 1.0, 2.0])


class TestPoseFile:
    def test_identity_line(self, tmp_path):
        p = tmp_path / "poses.txt"
        p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
        poses = dio.load_pose_file(p)
        assert len(poses) == 1
        np.testing.assert_array_equal(poses[0].rotation, np.eye(3))

    def test_translation_line(self, tmp_path):
        p = tmp_path / "poses.txt"
        p.write_text("1 0 0 5 0 1 0 0 0 0 1 0\n")
        np.testing.assert_array_equal(dio.load_pose_file(p)[0].translation, [5.0, 0.0, 0.0])

    def test_round_trip_100_random(self, tmp_path, rng):
        poses = [g.random_transform(rng, 50.0) for _ in range(100)]
        p = tmp_path / "poses.txt"
        dio.write_pose_file(p, poses)
        back = dio.load_pose_file(p)
        assert len(back) == 100
        for a, b in zip(poses, back):
            assert np.abs(a.matrix34() - b.matrix34()).max() < 1e-12

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "poses.txt"
        p.write_text("1 0 0 0 0 1 0 0 0 0 1\n")
        with pytest.raises(MalformedFile):
            dio.load_pose_file(p)

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "poses.txt"
        p.write_text("a 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(MalformedFile):
            dio.load_pose_file(p)

    def test_small_orthonormality_error_repaired(self, tmp_path, rng):
        r = g.random_rotation(rng)
        r_noisy = r + rng.normal(0, 1e-5, (3, 3))
        p = tmp_path / "poses.txt"
        line = " ".join(f"{v:.17g}" for v in np.hstack([r_noisy, np.zeros((3, 1))]).ravel())
        p.write_text(line + "\n")
        pose = dio.load_pose_file(p)[0]
        np.testing.assert_allclose(pose.rotation.T @ pose.rotation, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, value):
        # NaN passes every orthonormality comparison, so it needs its own check
        p = tmp_path / "poses.txt"
        p.write_text(f"{value} 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(MalformedFile, match=re.escape(f"{p}:1: ")):
            dio.load_pose_file(p)

    def test_not_utf8_names_file(self, tmp_path):
        p = tmp_path / "poses.txt"
        p.write_bytes(b"1 0 0 0 0 1 0 0 0 0 1 \xff\n")
        with pytest.raises(MalformedFile, match=re.escape(str(p))):
            dio.load_pose_file(p)

    def test_large_violation_rejected(self, tmp_path):
        bad = np.eye(3) * 1.1
        p = tmp_path / "poses.txt"
        line = " ".join(f"{v:.17g}" for v in np.hstack([bad, np.zeros((3, 1))]).ravel())
        p.write_text(line + "\n")
        with pytest.raises(NonRigidPose):
            dio.load_pose_file(p)


class TestFrameSequence:
    def test_indices_strictly_increasing(self, rng):
        pts = rng.uniform(-1, 1, (5, 3))
        frames = (
            dio.Frame(pts, g.RigidTransform.identity(), 2),
            dio.Frame(pts, g.RigidTransform.identity(), 1),
        )
        with pytest.raises(ValueError):
            dio.FrameSequence(frames)

    def test_negative_index_rejected(self, rng):
        pts = rng.uniform(-1, 1, (5, 3))
        frames = tuple(dio.Frame(pts, g.RigidTransform.identity(), idx) for idx in (-1, 0))
        with pytest.raises(ValueError, match="non-negative"):
            dio.FrameSequence(frames)

    def test_position_of(self, rng):
        pts = rng.uniform(-1, 1, (5, 3))
        seq = dio.FrameSequence(tuple(
            dio.Frame(pts, g.RigidTransform.identity(), idx) for idx in (0, 3, 7)))
        assert seq.position_of(7) == 2
        with pytest.raises(UnknownFrame, match="^no frame with index 4$"):
            seq.position_of(4)
        assert UnknownFrame.exit_code == 3


def make_sequence(clouds, poses, start=0):
    return dio.FrameSequence(tuple(
        dio.Frame(c, p, start + k) for k, (c, p) in enumerate(zip(clouds, poses))))


class TestDistillPairs:
    def test_unlimited_overlap_keeps_all_distance_eligible(self, rng):
        clouds = [rng.uniform(-5, 5, (100, 3)) for _ in range(4)]
        poses = [g.RigidTransform(np.eye(3), [k * 2.0, 0, 0]) for k in range(4)]
        seq = make_sequence(clouds, poses)
        got = dio.distill_records(seq, seq, dio.PairSpec(0.0, 100.0, 1.0), tau=0.5)
        assert [(r.i, r.j) for r in got] == [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def test_indexes_each_frame_once(self, rng, monkeypatch):
        builds = []
        build = g.NeighborIndex.__init__

        def counting_build(index, cloud):
            builds.append(1)
            build(index, cloud)

        monkeypatch.setattr(g.NeighborIndex, "__init__", counting_build)
        clouds = [rng.uniform(-5, 5, (40, 3)) for _ in range(7)]
        poses = [g.RigidTransform(np.eye(3), [k * 2.0, 0, 0]) for k in range(7)]
        seq_a = make_sequence(clouds[:4], poses[:4])
        seq_b = make_sequence(clouds[4:], poses[4:])
        spec = dio.PairSpec(0.0, 100.0, 1.0)
        assert len(dio.distill_records(seq_a, seq_b, spec)) == 4 * 3
        assert len(builds) == 4 + 3
        builds.clear()
        assert len(dio.distill_records(seq_a, seq_a, spec)) == 4 * 3 // 2
        assert len(builds) == 4

    def test_nan_tau_raises(self, rng):
        seq = make_sequence([rng.uniform(-5, 5, (20, 3))] * 2,
                            [g.RigidTransform(np.eye(3), [k * 2.0, 0, 0]) for k in range(2)])
        with pytest.raises(ValueError):
            dio.distill_records(seq, seq, dio.PairSpec(0.0, 100.0, 1.0), tau=float("nan"))

    def test_distance_exclusion(self, rng):
        cloud = rng.uniform(-5, 5, (50, 3))
        seq = make_sequence([cloud, cloud],
                            [g.RigidTransform.identity(), g.RigidTransform.identity()])
        assert dio.distill_records(seq, seq, dio.PairSpec(5.0, 100.0, 1.0)) == []

    def test_matches_brute_force_on_simulated_sequence(self, small_scene):
        _, _, seq = small_scene
        sub = dio.FrameSequence(seq.frames[:50])
        spec = dio.PairSpec(5.0, 30.0, 0.3)
        got = {(r.i, r.j) for r in dio.distill_records(sub, sub, spec, tau=0.5)}
        origins = sub.origins()
        expect = set()
        for a in range(len(sub)):
            for b in range(a + 1, len(sub)):
                d = float(np.linalg.norm(origins[a] - origins[b]))
                if not spec.d1 <= d <= spec.d2:
                    continue
                gt = sub[b].pose.inverse().compose(sub[a].pose)
                ov = g.overlap_ratio(sub[a].cloud, sub[b].cloud, gt, 0.5)
                if ov <= spec.overlap_max:
                    expect.add((sub[a].index, sub[b].index))
        assert got == expect

    def test_cross_sequence_includes_all_orderings(self, rng):
        cloud = rng.uniform(-5, 5, (60, 3))
        seq_a = make_sequence([cloud], [g.RigidTransform.identity()])
        seq_b = make_sequence([cloud + 0.01], [g.RigidTransform(np.eye(3), [3.0, 0, 0])], start=0)
        got = dio.distill_records(seq_a, seq_b, dio.PairSpec(0.0, 10.0, 1.0))
        assert [(r.i, r.j) for r in got] == [(0, 0)]

    def test_single_sequence_symmetry(self, small_scene):
        # each unordered pair appears once; the predicates are symmetric, so
        # (i, j) is included iff the role-swapped (j, i) would be
        _, _, seq = small_scene
        sub = dio.FrameSequence(seq.frames[:25])
        spec = dio.PairSpec(5.0, 20.0, 0.5)
        got = [(r.i, r.j) for r in dio.distill_records(sub, sub, spec, tau=0.5)]
        assert all(i < j for i, j in got)
        origins = sub.origins()
        for a in range(len(sub)):
            for b in range(a + 1, len(sub)):
                d = float(np.linalg.norm(origins[a] - origins[b]))
                if not spec.d1 <= d <= spec.d2:
                    continue
                gt_swapped = sub[a].pose.inverse().compose(sub[b].pose)
                swapped_included = g.overlap_ratio(
                    sub[b].cloud, sub[a].cloud, gt_swapped, 0.5) <= spec.overlap_max
                assert ((a, b) in set(got)) == swapped_included

    def test_records_carry_predicates(self, small_scene):
        _, _, seq = small_scene
        sub = dio.FrameSequence(seq.frames[:30])
        records = dio.distill_records(sub, sub, dio.PairSpec(5.0, 15.0, 1.0), tau=0.5)
        assert records
        origins = sub.origins()
        for r in records:
            d = np.linalg.norm(origins[sub.position_of(r.i)] - origins[sub.position_of(r.j)])
            assert r.distance == pytest.approx(float(d))
            assert 5.0 <= r.distance <= 15.0
            assert 0.0 <= r.overlap <= 1.0


def serial_distill(seq_a, seq_b, spec, tau):
    """The distill loop on one thread, one pair after another: the reference
    the pooled ``distill_records`` must reproduce in order and to the bit."""
    same = seq_a is seq_b
    index_a = [g.NeighborIndex(f.cloud) for f in seq_a]
    index_b = index_a if same else [g.NeighborIndex(f.cloud) for f in seq_b]
    out = []
    for pa, fa in enumerate(seq_a):
        for pb, fb in enumerate(seq_b):
            if same and pb <= pa:
                continue
            d = float(np.linalg.norm(fa.pose.translation - fb.pose.translation))
            if not spec.d1 <= d <= spec.d2:
                continue
            gt = fb.pose.inverse().compose(fa.pose)
            ov = g.overlap_ratio(index_a[pa], index_b[pb], gt, tau)
            if ov <= spec.overlap_max:
                out.append(dio.PairRecord(fa.index, fb.index, d, ov))
    return out


class TestRelativeGt:
    def test_maps_frame_a_coordinates_into_frame_b(self, rng):
        pose_a, pose_b = g.random_transform(rng, 5.0), g.random_transform(rng, 5.0)
        cloud = rng.uniform(-3, 3, (10, 3))
        fa, fb = dio.Frame(cloud, pose_a, 0), dio.Frame(cloud, pose_b, 1)
        expect = g.apply_transform(g.apply_transform(cloud, pose_a), pose_b.inverse())
        np.testing.assert_allclose(g.apply_transform(cloud, dio.relative_gt(fa, fb)), expect,
                                   atol=1e-12)

    def test_pipeline_uses_the_same_definition(self):
        from distreg import pipeline

        assert pipeline.relative_gt is dio.relative_gt


@pytest.mark.threads
class TestPooledDistill:
    """The pool's records equal the serial loop's, whatever the CPU count."""

    @pytest.fixture(params=[1, 2, 5], ids=lambda n: f"{n}cpu")
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
        return request.param

    def check(self, seq_a, seq_b, spec, tau=0.5):
        expect = serial_distill(seq_a, seq_b, spec, tau)
        threads = threading.active_count()
        got = dio.distill_records(seq_a, seq_b, spec, tau)
        assert threading.active_count() == threads
        assert got == expect
        return got

    def test_cross_sequence(self, small_scene, cpus):
        _, _, seq = small_scene
        seq_a = dio.FrameSequence(seq.frames[:12])
        seq_b = dio.FrameSequence(seq.frames[30:42])
        got = self.check(seq_a, seq_b, dio.PairSpec(0.0, 100.0, 1.0))
        assert len(got) == 12 * 12

    def test_same_sequence(self, small_scene, cpus):
        _, _, seq = small_scene
        sub = dio.FrameSequence(seq.frames[:16])
        got = self.check(sub, sub, dio.PairSpec(0.0, 100.0, 1.0))
        assert len(got) == 16 * 15 // 2

    @pytest.mark.parametrize("same,spec", [(False, dio.PairSpec(10.0, 30.0, 0.1)),
                                           (True, dio.PairSpec(3.0, 12.0, 0.25))],
                             ids=["cross", "same"])
    def test_band_and_cap_drop_pairs(self, small_scene, cpus, same, spec):
        _, _, seq = small_scene
        seq_a = dio.FrameSequence(seq.frames[:20])
        seq_b = seq_a if same else dio.FrameSequence(seq.frames[25:45])
        in_band = serial_distill(seq_a, seq_b, dio.PairSpec(spec.d1, spec.d2, 1.0), 0.5)
        candidates = 20 * 19 // 2 if same else 20 * 20
        got = self.check(seq_a, seq_b, spec)
        assert 0 < len(got) < len(in_band) < candidates

    def test_nan_tau_raises_and_joins_workers(self, small_scene, cpus):
        _, _, seq = small_scene
        sub = dio.FrameSequence(seq.frames[:8])
        threads = threading.active_count()
        with pytest.raises(ValueError, match="tau"):
            dio.distill_records(sub, sub, dio.PairSpec(0.0, 100.0, 1.0), tau=float("nan"))
        assert threading.active_count() == threads


class TestPairsFile:
    def test_round_trip(self, tmp_path):
        records = [dio.PairRecord(0, 5, 12.25, 0.3), dio.PairRecord(1, 9, 30.5, 0.01)]
        p = tmp_path / "pairs.csv"
        dio.write_pairs_file(p, records)
        assert dio.read_pairs_file(p) == records

    def test_bad_header(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("a,b\n")
        with pytest.raises(MalformedFile):
            dio.read_pairs_file(p)

    @pytest.mark.parametrize("row", ["0,1,abc,0.5", "0.5,1,12.0,0.5", "0,1,12.0"])
    def test_bad_row_names_line(self, tmp_path, row):
        p = tmp_path / "pairs.csv"
        p.write_text(f"i,j,distance_m,overlap\n0,1,12.0,0.5\n{row}\n")
        with pytest.raises(MalformedFile, match=re.escape(f"{p}:3: ")):
            dio.read_pairs_file(p)


    def test_not_utf8_names_file(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_bytes(b"i,j,distance_m,overlap\n0,1,12.0,0.5\xe9\n")
        with pytest.raises(MalformedFile, match=re.escape(str(p))):
            dio.read_pairs_file(p)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=file_bytes(b"i,j,distance_m,overlap\n"))
    def test_fuzzed_bytes_read_or_malformed(self, tmp_path, data):
        p = tmp_path / "pairs.csv"
        p.write_bytes(data)
        try:
            records = dio.read_pairs_file(p)
        except MalformedFile:
            return
        assert isinstance(records, list)


class TestDatasetDirectory:
    def test_save_load_round_trip(self, tmp_path, rng):
        clouds = [rng.uniform(-10, 10, (40, 3)).astype(np.float32).astype(np.float64)
                  for _ in range(3)]
        poses = [g.random_transform(rng, 5.0) for _ in range(3)]
        seq = make_sequence(clouds, poses)
        dio.save_dataset(tmp_path / "ds", seq, {"seed": 7})
        back = dio.load_dataset(tmp_path / "ds")
        assert len(back) == 3
        for orig, loaded in zip(seq, back):
            np.testing.assert_array_equal(loaded.cloud, orig.cloud)
            assert np.abs(loaded.pose.matrix34() - orig.pose.matrix34()).max() < 1e-12
        assert dio.load_dataset_meta(tmp_path / "ds")["seed"] == 7

    def test_frame_pose_count_mismatch(self, tmp_path, rng):
        seq = make_sequence([rng.uniform(-1, 1, (5, 3))], [g.RigidTransform.identity()])
        dio.save_dataset(tmp_path / "ds", seq)
        (tmp_path / "ds" / "poses.txt").write_text("")
        with pytest.raises(MalformedFile):
            dio.load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("meta", [b"{not json", b"\xff", b"[0]", b'{"seed": 7}',
                                      b'{"frame_indices": [true, 1]}',
                                      b'{"frame_indices": [1, 0]}'],
                             ids=["not-json", "not-utf8", "not-object", "no-frame-indices",
                                  "index-not-int", "not-increasing"])
    def test_bad_meta_json(self, tmp_path, rng, meta):
        seq = make_sequence([rng.uniform(-1, 1, (5, 3))] * 2, [g.RigidTransform.identity()] * 2)
        dio.save_dataset(tmp_path / "ds", seq)
        (tmp_path / "ds" / "meta.json").write_bytes(meta)
        with pytest.raises(MalformedFile, match=re.escape(str(tmp_path / "ds"))):
            dio.load_dataset(tmp_path / "ds")

    def test_negative_frame_index_malformed(self, tmp_path, rng):
        # frames -2 and -1 named as a zero-padded format writes them
        seq = make_sequence([rng.uniform(-1, 1, (5, 3))] * 2, [g.RigidTransform.identity()] * 2)
        ds = tmp_path / "ds"
        dio.save_dataset(ds, seq)
        for k in (0, 1):
            (ds / f"{k:06d}.bin").rename(ds / f"{k - 2:06d}.bin")
        (ds / "meta.json").write_text('{"frame_indices": [-2, -1]}')
        with pytest.raises(MalformedFile, match="non-negative"):
            dio.load_dataset(ds)
