import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    relative_rotation_angle_deg,
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
        return reg.RegistrationResult(RigidTransform.identity(), rre, rte, 0, flags)

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
