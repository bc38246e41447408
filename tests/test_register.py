import re

import numpy as np
import pytest
from conftest import relative_rotation_angle_deg
from hypothesis import HealthCheck, given, settings, strategies as st

from distreg import register as reg
from distreg.errors import (
    EmptyFeatureMap,
    EmptyResults,
    MalformedFile,
    TooFewCorrespondences,
)
from distreg.geometry import (
    Correspondences,
    RigidTransform,
    apply_transform,
    kabsch_points,
    random_transform,
)


def identity_corr(n):
    return Correspondences(np.stack([np.arange(n)] * 2, axis=1))


def reference_counts(R, t, src, dst, thr):
    """The scorer ransac_register used before the fused kernel: apply each
    hypothesis to every source point, then threshold the Euclidean norm."""
    moved = np.einsum("bij,nj->bni", R, src) + t[:, None, :]
    resid = np.linalg.norm(moved - dst[None, :, :], axis=2)
    return np.count_nonzero(resid < thr, axis=1)


def fused_counts(R, t, src, dst, thr):
    d2 = reg._squared_residuals(R, t, src.T.copy(), dst.T.copy())
    return np.count_nonzero(d2 < reg._squared_threshold(thr), axis=1)


def svd_kabsch(src, dst):
    """The fit ransac_register used before the closed form: one SVD of the
    3x3 cross-covariance per (B, 3, 3) sample triple, with Kabsch's sign fix.
    Also returns the singular values and the fix's sign, -1 where the SVD's
    own orthogonal factor was a reflection."""
    ca = src.mean(axis=1, keepdims=True)
    cb = dst.mean(axis=1, keepdims=True)
    H = np.matmul((src - ca).transpose(0, 2, 1), dst - cb)
    U, S, Vt = np.linalg.svd(H)
    det = np.linalg.det(np.matmul(Vt.transpose(0, 2, 1), U.transpose(0, 2, 1)))
    D = np.tile(np.eye(3), (src.shape[0], 1, 1))
    D[:, 2, 2] = np.sign(det)
    R = np.matmul(Vt.transpose(0, 2, 1), np.matmul(D, U.transpose(0, 2, 1)))
    t = cb[:, 0, :] - np.einsum("bij,bj->bi", R, ca[:, 0, :])
    degenerate = S[:, 1] < 1e-12 * np.maximum(S[:, 0], np.finfo(np.float64).tiny)
    return R, t, degenerate, S, D[:, 2, 2]


def matched_triples(seed, b=4000):
    """(b, 3, 3) source triples and their images under one rigid motion plus
    noise; half of the destination triples are replaced by random points."""
    srng = np.random.default_rng(seed)
    src = srng.uniform(-30, 30, (b, 3, 3))
    motion = random_transform(srng, 10.0)
    dst = src @ motion.rotation.T + motion.translation + srng.normal(0, 0.2, (b, 3, 3))
    outlier = srng.random(b) < 0.5
    dst[outlier] = srng.uniform(-30, 30, (int(outlier.sum()), 3, 3))
    return src, dst


def ransac_scene(seed, n):
    """n correspondences under a random rigid motion, about half of them
    replaced by random points."""
    srng = np.random.default_rng(seed)
    motion = random_transform(srng, 10.0)
    a = srng.uniform(-30, 30, (n, 3))
    b = apply_transform(a, motion) + srng.normal(0, 0.05, (n, 3))
    outlier = srng.random(n) < 0.5
    b[outlier] = srng.uniform(-30, 30, (int(outlier.sum()), 3))
    return a, b


def assert_proper_rotations(R):
    assert np.abs(R @ R.transpose(0, 2, 1) - np.eye(3)).max() < 1e-13
    assert np.abs(np.linalg.det(R) - 1.0).max() < 1e-13


# triples on a coarse grid: coincident, repeated and exactly collinear points
# come up often, and a non-collinear pair of triples keeps
# sigma2 / sigma1 above 1e-8, far from the 1e-12 degenerate cut
grid_triples = st.lists(st.integers(-10, 10), min_size=18, max_size=18).map(
    lambda v: np.array(v, dtype=np.float64).reshape(2, 1, 3, 3) / 2)


positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


class TestCriteria:
    def test_paper_thresholds(self):
        assert (reg.LOOSE.max_rre, reg.LOOSE.max_rte) == (5.0, 2.0)
        assert (reg.NORMAL.max_rre, reg.NORMAL.max_rte) == (1.5, 0.6)
        assert (reg.STRICT.max_rre, reg.STRICT.max_rte) == (0.5, 0.3)

    def test_lookup(self):
        assert reg.criterion_by_name("strict") is reg.STRICT
        with pytest.raises(ValueError):
            reg.criterion_by_name("medium")

    @pytest.mark.parametrize("max_rre,max_rte", [(float("nan"), 1.0), (1.0, float("nan")),
                                                 (0.0, 1.0), (1.0, -0.5)])
    def test_rejects_non_positive_or_nan_thresholds(self, max_rre, max_rte):
        with pytest.raises(ValueError):
            reg.Criterion("x", max_rre, max_rte)


class TestMatchFeatures:
    def test_identity_matching(self, rng):
        f = rng.normal(size=(30, 8))
        corr = reg.match_features(f, f)
        np.testing.assert_array_equal(corr.pairs[:, 0], corr.pairs[:, 1])
        assert len(corr) == 30

    def test_isometry_invariance(self, rng):
        fa = rng.normal(size=(40, 8))
        fb = rng.normal(size=(45, 8))
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        base = reg.match_features(fa, fb)
        rotated = reg.match_features(fa @ q.T, fb @ q.T)
        np.testing.assert_array_equal(base.pairs, rotated.pairs)

    def test_matches_brute_force_mutual_nn(self, rng):
        fa = rng.normal(size=(100, 8))
        fb = rng.normal(size=(100, 8))
        d = np.linalg.norm(fa[:, None, :] - fb[None, :, :], axis=2)
        a2b = d.argmin(axis=1)
        b2a = d.argmin(axis=0)
        expect = [(i, a2b[i]) for i in range(100) if b2a[a2b[i]] == i]
        got = reg.match_features(fa, fb)
        assert [tuple(p) for p in got.pairs] == expect

    def test_swap_transposes(self, rng):
        fa = rng.normal(size=(50, 6))
        fb = rng.normal(size=(60, 6))
        ab = {tuple(p) for p in reg.match_features(fa, fb).pairs}
        ba = {tuple(p[::-1]) for p in reg.match_features(fb, fa).pairs}
        assert ab == ba

    def test_empty_raises(self, rng):
        with pytest.raises(EmptyFeatureMap):
            reg.match_features(np.zeros((0, 4)), rng.normal(size=(5, 4)))

    @pytest.mark.parametrize("shape_a,shape_b", [((5,), (6, 4)), ((5, 4), (6,)), ((5,), (6,)),
                                                 ((2, 5, 4), (2, 6, 4)), ((5, 4), (6, 3))])
    def test_not_2d_or_unequal_width_raises_value_error(self, rng, shape_a, shape_b):
        with pytest.raises(ValueError, match="2-D with equal dimensions"):
            reg.match_features(rng.normal(size=shape_a), rng.normal(size=shape_b))


class TestRansac:
    def test_outlier_free_equals_plain_kabsch(self, rng):
        t_gt = random_transform(rng, 5.0)
        a = rng.uniform(-20, 20, (60, 3))
        b = apply_transform(a, t_gt)
        est = reg.ransac_register(identity_corr(60), a, b,
                                  reg.RansacConfig(iterations=200, inlier_threshold=0.3, seed=0))
        direct = kabsch_points(a, b)
        np.testing.assert_array_equal(est.transform.rotation, direct.rotation)
        np.testing.assert_array_equal(est.transform.translation, direct.translation)
        assert est.inlier_count == 60
        assert relative_rotation_angle_deg(est.transform.rotation, t_gt.rotation) < 1e-6

    def test_thirty_percent_outliers_19_of_20_seeds(self, rng):
        successes = 0
        for seed in range(20):
            srng = np.random.default_rng(900 + seed)
            t_gt = random_transform(srng, 10.0)
            a = srng.uniform(-30, 30, (100, 3))
            b = apply_transform(a, t_gt)
            bad = srng.choice(100, size=30, replace=False)
            b[bad] = srng.uniform(-30, 30, (30, 3))
            est = reg.ransac_register(
                identity_corr(100), a, b,
                reg.RansacConfig(iterations=1000, inlier_threshold=0.3, seed=seed))
            res = reg.evaluate(est.transform, t_gt)
            successes += res.success["normal"]
        assert successes >= 19

    def test_all_outliers_no_consensus(self, rng):
        a = rng.uniform(-50, 50, (100, 3))
        b = rng.uniform(-50, 50, (100, 3))
        est = reg.ransac_register(identity_corr(100), a, b,
                                  reg.RansacConfig(iterations=500, inlier_threshold=0.3, seed=1))
        assert est.inlier_count <= 3

    def test_bit_reproducible(self, rng):
        a = rng.uniform(-10, 10, (50, 3))
        b = rng.uniform(-10, 10, (50, 3))
        cfg = reg.RansacConfig(iterations=300, inlier_threshold=0.5, seed=7)
        e1 = reg.ransac_register(identity_corr(50), a, b, cfg)
        e2 = reg.ransac_register(identity_corr(50), a, b, cfg)
        np.testing.assert_array_equal(e1.transform.rotation, e2.transform.rotation)
        np.testing.assert_array_equal(e1.transform.translation, e2.transform.translation)
        assert e1.inlier_count == e2.inlier_count

    def test_too_few_correspondences(self, rng):
        a = rng.uniform(-1, 1, (2, 3))
        with pytest.raises(TooFewCorrespondences):
            reg.ransac_register(identity_corr(2), a, a, reg.RansacConfig(iterations=10))


class TestClosedFormFit:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_svd_reference(self, seed):
        src, dst = matched_triples(seed)
        R, t, degenerate = reg._batched_kabsch(src, dst)
        R_ref, t_ref, degenerate_ref, S, sign = svd_kabsch(src, dst)
        np.testing.assert_array_equal(degenerate, degenerate_ref)
        assert not degenerate.any()
        # H has rank 2, so the SVD's orthogonal factor is a reflection about
        # half the time; the closed form must agree with the fixed answer
        assert (sign > 0).sum() > 1000 and (sign < 0).sum() > 1000
        assert_proper_rotations(R)
        well = S[:, 1] >= 1e-3 * S[:, 0]
        assert well.mean() > 0.9
        assert np.abs(R - R_ref)[well].max() < 1e-12
        assert np.abs(t - t_ref)[well].max() < 1e-10

    def test_degenerate_flags_match_reference(self):
        srng = np.random.default_rng(3)
        pts = srng.uniform(-30, 30, (6, 3))
        origin, step = srng.integers(-20, 20, (2, 3)).astype(np.float64)
        special = np.stack([
            pts[[0, 0, 1]], pts[[0, 1, 1]], pts[[0, 1, 0]],  # repeated index
            pts[[2, 2, 2]],                                  # all coincident
            np.stack([origin, origin + step, origin + 3 * step]),  # exactly collinear
        ])
        generic = np.broadcast_to(pts[3:], special.shape)
        for src, dst in ((special, generic), (generic, special), (special, special)):
            R, t, degenerate = reg._batched_kabsch(src, dst)
            assert degenerate.all()
            assert np.isfinite(R).all() and np.isfinite(t).all()
            np.testing.assert_array_equal(degenerate, svd_kabsch(src, dst)[2])
        _, _, degenerate = reg._batched_kabsch(generic, generic[:, ::-1])
        assert not degenerate.any()

    def test_nearly_collinear_triples_stay_proper_rotations(self):
        srng = np.random.default_rng(4)
        b = 3000
        base, step = srng.uniform(-30, 30, (b, 3)), srng.normal(size=(b, 3))
        height = 10.0 ** srng.uniform(-11, -3, b)
        src = np.stack([base, base + 2 * step,
                        base + 5 * step + height[:, None] * srng.normal(size=(b, 3))], axis=1)
        dst = srng.uniform(-30, 30, (b, 3, 3))
        R, _, degenerate = reg._batched_kabsch(src, dst)
        np.testing.assert_array_equal(degenerate, svd_kabsch(src, dst)[2])
        assert (~degenerate).sum() > 2000
        assert_proper_rotations(R[~degenerate])

    @given(grid_triples)
    def test_grid_triples_agree_with_reference(self, pair):
        src, dst = pair
        R, t, degenerate = reg._batched_kabsch(src, dst)
        R_ref, t_ref, degenerate_ref, S, _ = svd_kabsch(src, dst)
        np.testing.assert_array_equal(degenerate, degenerate_ref)
        if not degenerate[0]:
            assert_proper_rotations(R)
            if S[0, 1] >= 1e-3 * S[0, 0]:
                assert np.abs(R - R_ref).max() < 1e-12
                assert np.abs(t - t_ref).max() < 1e-10


class TestRansacAgainstSvdFit:
    """ransac_register against the same loop with the SVD fit and unblocked
    scoring, on scenes from 8 to 331 correspondences (below 30, about 3/n of
    the samples repeat an index)."""

    scenes = [(0, 8), (1, 12), (2, 21), (3, 29), (4, 60), (5, 150), (6, 331)]

    @pytest.mark.parametrize("seed,n", scenes)
    def test_per_hypothesis_counts_and_flags_equal(self, seed, n):
        a, b = ransac_scene(seed, n)
        samples = np.random.default_rng(seed).integers(0, n, (3000, 3))
        R, t, degenerate = reg._batched_kabsch(a[samples], b[samples])
        R_ref, t_ref, degenerate_ref, _, _ = svd_kabsch(a[samples], b[samples])
        np.testing.assert_array_equal(degenerate, degenerate_ref)
        if n < 30:
            assert degenerate.mean() > 0.05
        live = ~degenerate
        for thr in (0.1, 0.3, 1.0):
            np.testing.assert_array_equal(fused_counts(R, t, a, b, thr)[live],
                                          fused_counts(R_ref, t_ref, a, b, thr)[live])

    @pytest.mark.parametrize("seed,n", scenes)
    def test_estimate_bytes_equal(self, monkeypatch, seed, n):
        a, b = ransac_scene(seed, n)
        cfg = reg.RansacConfig(iterations=3000, inlier_threshold=0.3, seed=seed)
        est = reg.ransac_register(identity_corr(n), a, b, cfg)
        monkeypatch.setattr(reg, "_batched_kabsch", lambda s, d: svd_kabsch(s, d)[:3])
        monkeypatch.setattr(reg, "_SCORE_BLOCK_BYTES", 1 << 40)
        ref = reg.ransac_register(identity_corr(n), a, b, cfg)
        assert est.transform.rotation.tobytes() == ref.transform.rotation.tobytes()
        assert est.transform.translation.tobytes() == ref.transform.translation.tobytes()
        assert est.inlier_count == ref.inlier_count


    def test_row_blocks_score_every_hypothesis(self, monkeypatch):
        a, b = ransac_scene(6, 331)
        cfg = reg.RansacConfig(iterations=1500, inlier_threshold=0.3, seed=6)
        score, blocks = reg._squared_residuals, []
        monkeypatch.setattr(reg, "_squared_residuals",
                            lambda *args: blocks.append(score(*args)) or blocks[-1])
        reg.ransac_register(identity_corr(331), a, b, cfg)
        assert max(len(d2) for d2 in blocks) < 512
        samples = np.random.default_rng(6).integers(0, 331, (1500, 3))
        R, t, _ = reg._batched_kabsch(a[samples], b[samples])
        np.testing.assert_array_equal(np.concatenate(blocks), score(R, t, a.T.copy(), b.T.copy()))


class TestRansacConfig:
    @pytest.mark.parametrize("thr", [float("nan"), float("inf"), -float("inf"), 0.0, -0.3])
    def test_rejects_bad_inlier_threshold(self, thr):
        with pytest.raises(ValueError):
            reg.RansacConfig(inlier_threshold=thr)


class TestScoringKernel:
    def test_threshold_naive_square_is_one_ulp_high(self):
        x = reg._squared_threshold(0.3)
        assert 0.3 * 0.3 == 0.09
        assert x == 0.08999999999999998 == np.nextafter(0.09, 0)

    @given(positive_floats)
    def test_threshold_is_smallest_square_at_or_above(self, thr):
        x = reg._squared_threshold(thr)
        assert np.sqrt(x) >= thr
        assert np.sqrt(np.nextafter(x, 0.0)) < thr

    @given(positive_floats, st.floats(min_value=0.0, allow_infinity=False))
    def test_squared_compare_equals_root_compare(self, thr, d2):
        assert (d2 < reg._squared_threshold(thr)) == (np.sqrt(d2) < thr)

    @pytest.mark.parametrize("b,n", [(1, 3), (2, 20), (7, 97), (64, 331), (512, 50)])
    def test_counts_equal_einsum_norm_reference(self, b, n):
        srng = np.random.default_rng([b, n])
        src = srng.uniform(-30, 30, (n, 3))
        idx = srng.integers(0, n, (b, 3))
        dst = src @ random_transform(srng, 5.0).rotation.T + srng.normal(0, 0.2, (n, 3))
        R, t, _ = reg._batched_kabsch(src[idx], dst[idx])
        # put hypothesis 0's residuals within a few ulps of the threshold,
        # where any rounding difference between the scorers would flip counts
        thr = 0.3
        moved = src @ R[0].T + t[0]
        u = srng.normal(size=(n, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        dst = moved + u * (thr * (1 + srng.integers(-4, 5, n) * np.finfo(float).eps))[:, None]
        ref = reference_counts(R, t, src, dst, thr)
        if n > 3:
            assert 0 < ref[0] < n
        np.testing.assert_array_equal(fused_counts(R, t, src, dst, thr), ref)
        for other in (0.05, 1.0, 7.5):
            np.testing.assert_array_equal(fused_counts(R, t, src, dst, other),
                                          reference_counts(R, t, src, dst, other))


class TestEvaluate:
    def test_exact_estimate_succeeds_everywhere(self, rng):
        t = random_transform(rng, 3.0)
        res = reg.evaluate(t, t)
        assert all(res.success.values())
        assert res.rre < 3e-6 and res.rte == 0.0

    def test_threshold_table_normal_pass(self):
        gt = RigidTransform.identity()
        est = RigidTransform(
            np.array([[np.cos(np.radians(1.0)), -np.sin(np.radians(1.0)), 0],
                      [np.sin(np.radians(1.0)), np.cos(np.radians(1.0)), 0],
                      [0, 0, 1]]),
            [0.5, 0.0, 0.0],
        )
        res = reg.evaluate(est, gt)
        assert res.success == {"loose": True, "normal": True, "strict": False}

    def test_threshold_table_translation_bound(self):
        gt = RigidTransform.identity()
        est = RigidTransform(
            np.array([[np.cos(np.radians(1.0)), -np.sin(np.radians(1.0)), 0],
                      [np.sin(np.radians(1.0)), np.cos(np.radians(1.0)), 0],
                      [0, 0, 1]]),
            [0.7, 0.0, 0.0],
        )
        res = reg.evaluate(est, gt)
        assert res.success == {"loose": True, "normal": False, "strict": False}

    def test_success_monotone(self, rng):
        for _ in range(50):
            t_gt = random_transform(rng, 2.0)
            noise_rot = rng.uniform(0, 6)
            noise_tr = rng.uniform(0, 2.5)
            from distreg.geometry import rotation_about_axis
            delta = rotation_about_axis(rng.normal(size=3), np.radians(noise_rot))
            est = RigidTransform(delta @ t_gt.rotation,
                                 t_gt.translation + noise_tr * rng.normal(size=3))
            res = reg.evaluate(est, t_gt)
            if res.success["strict"]:
                assert res.success["normal"]
            if res.success["normal"]:
                assert res.success["loose"]


class TestRecallAndExport:
    def _result(self, rre, rte):
        flags = {c.name: bool(rre <= c.max_rre and rte <= c.max_rte) for c in reg.CRITERIA}
        return reg.PairResult(-1, -1, float("nan"), float("nan"), rre, rte, flags)

    def test_recall_all_success(self):
        rs = [self._result(0.1, 0.05)] * 4
        assert reg.registration_recall(rs, reg.STRICT) == 1.0

    def test_recall_fraction(self):
        rs = [self._result(0.1, 0.05), self._result(10, 3), self._result(10, 3),
              self._result(10, 3)]
        assert reg.registration_recall(rs, reg.LOOSE) == 0.25

    def test_recall_matches_manual_count(self, rng):
        rs = [self._result(rng.uniform(0, 8), rng.uniform(0, 3)) for _ in range(60)]
        manual = sum(1 for r in rs if r.rre <= 1.5 and r.rte <= 0.6) / 60
        assert reg.registration_recall(rs, reg.NORMAL) == pytest.approx(manual)

    def test_empty_raises(self):
        with pytest.raises(EmptyResults):
            reg.registration_recall([], reg.NORMAL)

    def test_results_file_round_trip(self, tmp_path, rng):
        records = [
            reg.PairResult(0, 9, 12.5, 0.25, 0.8, 0.3,
                           {"loose": True, "normal": True, "strict": False}, 42),
            reg.PairResult(3, 30, 31.0, 0.05, 7.0, 2.5,
                           {"loose": False, "normal": False, "strict": False}, 5),
        ]
        p = tmp_path / "results.csv"
        reg.write_results(p, records)
        assert reg.read_results(p) == records

    def test_results_header_enforced(self, tmp_path):
        p = tmp_path / "results.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(MalformedFile):
            reg.read_results(p)

    @pytest.mark.parametrize("row", ["0,9,12.5,0.25,abc,0.3,1,1,0,42",
                                     "0,9,12.5,0.25,0.8,0.3,1,1,x,42",
                                     "0,9,12.5,0.25,0.8,0.3,1,1,0"])
    def test_results_bad_row_names_line(self, tmp_path, row):
        p = tmp_path / "results.csv"
        reg.write_results(p, [reg.PairResult(0, 9, 12.5, 0.25, 0.8, 0.3,
                                             {"loose": True, "normal": True, "strict": False},
                                             42)])
        p.write_text(p.read_text() + row + "\n")
        with pytest.raises(MalformedFile, match=re.escape(f"{p}:3: ")):
            reg.read_results(p)

    @pytest.mark.parametrize("field,value", [(6, "7"), (7, "-1"), (8, "2"), (9, "-5")],
                             ids=["success_loose", "success_normal", "success_strict", "inliers"])
    def test_results_impossible_value_rejected(self, tmp_path, field, value):
        p = tmp_path / "results.csv"
        reg.write_results(p, [reg.PairResult(0, 9, 12.5, 0.25, 0.8, 0.3,
                                             {"loose": True, "normal": True, "strict": False},
                                             42)])
        row = "0,9,12.5,0.25,0.8,0.3,1,1,0,42".split(",")
        row[field] = value
        p.write_text(p.read_text() + ",".join(row) + "\n")
        with pytest.raises(MalformedFile, match=re.escape(f"{p}:3: ")):
            reg.read_results(p)

    @pytest.mark.parametrize("row", [b"0,9,12.5,0.25,0.8,0.3,1,1,0,4\xb2\r\n",
                                     b"0," + b"9" * (1 << 18)],
                             ids=["not-utf8", "over-csv-field-limit"])
    def test_results_unreadable_names_file(self, tmp_path, row):
        p = tmp_path / "results.csv"
        reg.write_results(p, [reg.PairResult(0, 9, 12.5, 0.25, 0.8, 0.3,
                                             {"loose": True, "normal": True, "strict": False},
                                             42)])
        p.write_bytes(p.read_bytes() + row)
        with pytest.raises(MalformedFile, match=re.escape(str(p))):
            reg.read_results(p)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(
        st.binary(max_size=300),
        st.lists(st.sampled_from([b"0", b"1", b"2", b"-", b".", b"e", b"nan", b",", b"\r\n",
                                  b"\n", b"\r", b" ", b'"', b"\xff", b"\x00", b"\xc3\xa9"]),
                 max_size=80).map(lambda ts: (
                     b"i,j,distance_m,overlap,rre_deg,rte_m,"
                     b"success_loose,success_normal,success_strict,inliers\r\n" + b"".join(ts)))))
    def test_results_fuzzed_bytes_read_or_malformed(self, tmp_path, data):
        p = tmp_path / "results.csv"
        p.write_bytes(data)
        try:
            records = reg.read_results(p)
        except MalformedFile:
            return
        assert isinstance(records, list)

    def test_summary_aggregates(self):
        records = [
            reg.PairResult(0, 1, 10.0, 0.2, 1.0, 0.5,
                           {"loose": True, "normal": True, "strict": False}, 0),
            reg.PairResult(0, 2, 10.0, 0.2, 4.0, 1.5,
                           {"loose": True, "normal": False, "strict": False}, 0),
        ]
        s = reg.summarize_results(records)
        assert s["normal"]["rr"] == 0.5
        assert s["normal"]["mean_rre_success"] == pytest.approx(1.0)
        assert s["normal"]["mean_rre_all"] == pytest.approx(2.5)
        assert s["loose"]["rr"] == 1.0
