import os
import re
import threading

import numpy as np
import pytest
from conftest import relative_rotation_angle_deg
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.spatial import cKDTree

from distreg import model as mdl
from distreg import pipeline as pl
from distreg import register as reg
from distreg.errors import (
    DegenerateGeometry,
    EmptyFeatureMap,
    EmptyResults,
    MalformedFile,
    NonFinite,
    TooFewCorrespondences,
)
from distreg.geometry import (
    RigidTransform,
    apply_transform,
    kabsch_points,
    random_transform,
)


def identity_corr(n):
    return np.stack([np.arange(n)] * 2, axis=1)


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
        assert corr.shape == (30, 2) and corr.dtype == np.int64
        np.testing.assert_array_equal(corr[:, 0], corr[:, 1])

    def test_isometry_invariance(self, rng):
        fa = rng.normal(size=(40, 8))
        fb = rng.normal(size=(45, 8))
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        base = reg.match_features(fa, fb)
        rotated = reg.match_features(fa @ q.T, fb @ q.T)
        np.testing.assert_array_equal(base, rotated)

    def test_matches_brute_force_mutual_nn(self, rng):
        fa = rng.normal(size=(100, 8))
        fb = rng.normal(size=(100, 8))
        d = np.linalg.norm(fa[:, None, :] - fb[None, :, :], axis=2)
        a2b = d.argmin(axis=1)
        b2a = d.argmin(axis=0)
        expect = [(i, a2b[i]) for i in range(100) if b2a[a2b[i]] == i]
        got = reg.match_features(fa, fb)
        assert [tuple(p) for p in got] == expect

    def test_swap_transposes(self, rng):
        fa = rng.normal(size=(50, 6))
        fb = rng.normal(size=(60, 6))
        ab = {tuple(p) for p in reg.match_features(fa, fb)}
        ba = {tuple(p[::-1]) for p in reg.match_features(fb, fa)}
        assert ab == ba

    def test_empty_raises(self, rng):
        with pytest.raises(EmptyFeatureMap):
            reg.match_features(np.zeros((0, 4)), rng.normal(size=(5, 4)))

    @pytest.mark.parametrize("shape_a,shape_b", [((5,), (6, 4)), ((5, 4), (6,)), ((5,), (6,)),
                                                 ((2, 5, 4), (2, 6, 4)), ((5, 4), (6, 3))])
    def test_not_2d_or_unequal_width_raises_value_error(self, rng, shape_a, shape_b):
        with pytest.raises(ValueError, match="2-D with equal dimensions"):
            reg.match_features(rng.normal(size=shape_a), rng.normal(size=shape_b))

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_before_any_product(self, rng, monkeypatch, side, bad):
        maps = [rng.normal(size=(20, 5)), rng.normal(size=(30, 5))]
        maps[side][7, 3] = bad
        monkeypatch.setattr(reg, "_nearest_rows", lambda q, r: pytest.fail("product formed"))
        with pytest.raises(NonFinite, match="feature maps must be finite") as info:
            reg.match_features(*maps)
        assert info.value.exit_code == 5

    def test_overflowing_distances_raise_non_finite(self, rng):
        # every squared distance is inf, and the kd-tree finds no row
        fa, fb = 1e160 * rng.normal(size=(20, 4)), -1e160 * np.ones((1, 4))
        with pytest.raises(NonFinite, match="overflow"):
            reg.match_features(fa, fb)


def kdtree_matches(fa, fb):
    """The matcher match_features used before the product: a cKDTree query
    of each map against the other, then the mutual rule."""
    _, a_to_b = cKDTree(fb).query(fa, k=1)
    _, b_to_a = cKDTree(fa).query(fb, k=1)
    ia = np.arange(fa.shape[0])
    mutual = b_to_a[a_to_b] == ia
    return np.stack([ia[mutual], a_to_b[mutual]], axis=1).astype(np.int64)


class CountingTree(cKDTree):
    """cKDTree that records the number of rows of every query."""

    queried: list = []

    def query(self, x, *args, **kwargs):
        CountingTree.queried.append(len(x))
        return super().query(x, *args, **kwargs)


def feature_maps(seed, n, m, dim, scale=1.0, kind="normal"):
    """(n, dim) and (m, dim) maps: normal draws, small integers (exact ties
    and duplicated rows), or B made of repeated rows of A."""
    srng = np.random.default_rng(seed)
    if kind == "integer":
        return (scale * srng.integers(-2, 3, (n, dim)).astype(np.float64),
                scale * srng.integers(-2, 3, (m, dim)).astype(np.float64))
    fa = scale * srng.normal(size=(n, dim))
    if kind == "repeated":
        return fa, fa[srng.integers(0, n, m)]
    return fa, scale * srng.normal(size=(m, dim))


def near_tie_maps(seed, n, dim):
    """Queries with two reference rows each whose squared distances differ
    by about an ulp: B's odd rows are its even rows with one coordinate
    moved by one ulp, and A holds B's even rows plus a small offset."""
    srng = np.random.default_rng(seed)
    even = srng.integers(-50, 51, (n, dim)).astype(np.float64)
    odd = even.copy()
    axis = srng.integers(0, dim, n)
    step = np.where(srng.random(n) < 0.5, np.inf, -np.inf)
    odd[np.arange(n), axis] = np.nextafter(even[np.arange(n), axis], step)
    fb = np.empty((2 * n, dim))
    fb[0::2], fb[1::2] = even, odd
    fa = even + srng.choice([-0.5, 0.25, 0.0], (n, dim))
    return fa, fb


map_shapes = st.one_of(
    st.tuples(st.integers(150, 500), st.integers(1, 12)),   # N >> M
    st.tuples(st.integers(1, 12), st.integers(150, 500)),   # M >> N
    st.tuples(st.just(1), st.integers(1, 400)),             # 1 x M
    st.tuples(st.integers(20, 200), st.integers(20, 200)),
)


@pytest.mark.threads
class TestProductMatcher:
    """_nearest_rows returns cKDTree's nearest row for every query row, and
    match_features the kd-tree matcher's pairs, byte for byte."""

    @staticmethod
    def assert_equals_kdtree(fa, fb):
        for q, r in ((fa, fb), (fb, fa)):
            np.testing.assert_array_equal(reg._nearest_rows(q, r), cKDTree(r).query(q, k=1)[1])
        got, ref = reg.match_features(fa, fb), kdtree_matches(fa, fb)
        assert got.dtype == np.int64 and got.tobytes() == ref.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), map_shapes, st.integers(1, 64), st.integers(-150, 150),
           st.sampled_from(["normal", "integer", "repeated"]))
    def test_equals_kdtree(self, seed, shape, dim, exponent, kind):
        # at 1e150 and wide maps W passes 1e300 and every row goes to the
        # kd-tree; at 1e-150 subnormal products widen the margin
        fa, fb = feature_maps(seed, *shape, dim, 10.0 ** exponent, kind)
        self.assert_equals_kdtree(fa, fb)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.integers(1, 40))
    def test_one_ulp_near_ties_equal_kdtree(self, seed, n, dim):
        fa, fb = near_tie_maps(seed, n, dim)
        self.assert_equals_kdtree(fa, fb)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 7])
    def test_sizes_straddling_a_block_equal_kdtree(self, monkeypatch, rows, extra):
        # 2 and 3 blocks of `rows` rows, one short, exact, one over and more
        fa, fb = feature_maps(rows + extra, 2 * rows + extra, 3 * rows + extra, 16)
        monkeypatch.setattr(reg, "_MATCH_BLOCK_BYTES", 8 * len(fb) * rows)
        np.testing.assert_array_equal(reg._nearest_rows(fa, fb), cKDTree(fb).query(fa, k=1)[1])
        monkeypatch.setattr(reg, "_MATCH_BLOCK_BYTES", 8 * len(fa) * rows)
        np.testing.assert_array_equal(reg._nearest_rows(fb, fa), cKDTree(fa).query(fb, k=1)[1])
        assert reg.match_features(fa, fb).tobytes() == kdtree_matches(fa, fb).tobytes()

    @pytest.fixture
    def fallback(self, monkeypatch):
        """The row count of every fallback query."""
        monkeypatch.setattr(CountingTree, "queried", [])
        monkeypatch.setattr(reg, "cKDTree", CountingTree)
        return CountingTree.queried

    def test_tie_rows_reach_the_fallback(self, fallback):
        # queries that equal one of two identical reference rows are exact
        # ties; the rest equal a row that has no copy
        srng = np.random.default_rng(4)
        fb = srng.normal(size=(60, 8))
        fb[40:50] = fb[30:40]
        fa = fb[srng.permutation(60)[:45]]
        ties = np.count_nonzero([(row == fb[30:40]).all(axis=1).any() for row in fa])
        assert ties > 0
        nearest = reg._nearest_rows(fa, fb)
        assert fallback == [ties]
        np.testing.assert_array_equal(nearest, cKDTree(fb).query(fa, k=1)[1])

    def test_distinct_rows_never_reach_the_fallback(self, fallback):
        fa, fb = feature_maps(5, 900, 1100, 32)
        assert reg.match_features(fa, fb).tobytes() == kdtree_matches(fa, fb).tobytes()
        assert fallback == []

    def test_one_column_with_overflowing_bound_reaches_the_fallback(self, fallback):
        # a single column is always the row minimum, but where W passes
        # 1e300 the margin is NaN and the kd-tree answers
        fa, fb = feature_maps(6, 30, 1, 4, 1e151)
        np.testing.assert_array_equal(reg._nearest_rows(fa, fb), np.zeros(30))
        assert fallback == [30]

    def test_nan_margin_sends_every_row_to_the_kd_tree(self, monkeypatch, fallback):
        fa, fb = feature_maps(7, 200, 150, 32, kind="repeated")
        monkeypatch.setattr(reg, "_nearest_margin", lambda q, r_sq: np.full(len(q), np.nan))
        assert reg.match_features(fa, fb).tobytes() == kdtree_matches(fa, fb).tobytes()
        assert sorted(fallback) == [150, 200]

    @pytest.mark.parametrize("i,j", [(10, 13), (20, 35), (40, 68)])
    def test_register_pair_estimate_equals_kdtree_matcher(self, monkeypatch, small_scene, i, j):
        _, _, seq = small_scene
        enc, _ = mdl.init_params(3)
        cfg = reg.RansacConfig(iterations=2000, seed=1)
        matched, match = [], pl.match_features
        monkeypatch.setattr(pl, "match_features",
                            lambda fa, fb: matched.append(match(fa, fb)) or matched[-1])
        est = pl.register_pair(seq[i].cloud, seq[j].cloud, enc, cfg, 0.5)
        monkeypatch.setattr(pl, "match_features",
                            lambda fa, fb: matched.append(kdtree_matches(fa, fb)) or matched[-1])
        ref = pl.register_pair(seq[i].cloud, seq[j].cloud, enc, cfg, 0.5)
        assert len(matched[0]) >= 3 and matched[0].tobytes() == matched[1].tobytes()
        assert estimate_bytes(est) == estimate_bytes(ref)


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

    @pytest.mark.parametrize("side,index", [(0, -1), (0, 6), (1, -1), (1, 5)])
    def test_index_out_of_range_raises_value_error(self, rng, side, index):
        # a negative index would otherwise wrap to the end of the cloud
        a = rng.uniform(-10, 10, (6, 3))
        b = rng.uniform(-10, 10, (5, 3))
        pairs = identity_corr(5)
        pairs[2, side] = index
        with pytest.raises(ValueError, match="out of range"):
            reg.ransac_register(pairs, a, b, reg.RansacConfig(iterations=10))

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


def serial_ransac(pairs, a, b, cfg):
    """ransac_register before the pool and the product scorer: one thread,
    chunks of min(512, 4e6 / n) hypotheses, every one scored by
    _squared_residuals, the best kept across chunks by strict >."""
    src, dst = a[pairs[:, 0]], b[pairs[:, 1]]
    n = len(pairs)
    samples = np.random.default_rng(cfg.seed).integers(0, n, size=(cfg.iterations, 3))
    src_t, dst_t = src.T.copy(), dst.T.copy()
    thr2 = reg._squared_threshold(cfg.inlier_threshold)
    best_count, best_R, best_t = -1, np.eye(3), np.zeros(3)
    chunk = max(1, min(512, int(4e6 / max(n, 1))))
    rows = max(1, reg._SCORE_BLOCK_BYTES // (3 * 8 * n))
    for start in range(0, cfg.iterations, chunk):
        block = samples[start : start + chunk]
        R, t, degenerate = reg._batched_kabsch(src[block], dst[block])
        counts = np.empty(len(block), dtype=np.intp)
        for r in range(0, len(block), rows):
            d2 = reg._squared_residuals(R[r : r + rows], t[r : r + rows], src_t, dst_t)
            counts[r : r + rows] = np.count_nonzero(d2 < thr2, axis=1)
        counts[degenerate] = -1
        bi = int(np.argmax(counts))
        if counts[bi] > best_count:
            best_count = int(counts[bi])
            best_R, best_t = R[bi], t[bi]
    if best_count < 0:
        raise TooFewCorrespondences("no non-degenerate minimal sample found")
    inliers = reg._squared_residuals(best_R[None], best_t[None], src_t, dst_t)[0] < thr2
    transform = RigidTransform(best_R, best_t)
    if np.count_nonzero(inliers) >= 3:
        try:
            transform = kabsch_points(src[inliers], dst[inliers])
        except DegenerateGeometry:
            pass
    d2 = reg._squared_residuals(transform.rotation[None], transform.translation[None],
                                src_t, dst_t)[0]
    return reg.RansacEstimate(transform, int(np.count_nonzero(d2 < thr2)))


def estimate_bytes(est):
    return (est.transform.rotation.tobytes(), est.transform.translation.tobytes(),
            est.inlier_count)


@pytest.fixture(params=[1, 2, 5], ids=lambda n: f"{n}cpu")
def cpus(request, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param


def register_joined(pairs, a, b, cfg):
    """ransac_register, checking that it leaves no thread behind."""
    threads = threading.active_count()
    est = reg.ransac_register(pairs, a, b, cfg)
    assert threading.active_count() == threads
    return est


def no_refit(src, dst):  # keeps ransac_register's raw winner
    raise DegenerateGeometry("refit disabled")


@pytest.mark.threads
class TestPooledRansac:
    """The pool's estimate equals the serial loop's, whatever the CPU count."""

    # 12,501 iterations split into full tasks and a short one, 4,097 into one
    # task or a few; 7 iterations over 5 CPUs into tasks of 2. n = 8 and
    # n = 3 take the distinct-sample path (n³ <= iterations)
    @pytest.mark.parametrize("seed,n,iterations", [
        (0, 8, 5000), (3, 29, 4097), (5, 150, 5000), (6, 331, 4097), (7, 60, 7), (8, 3, 50),
        (3, 29, 12_501), (6, 331, 12_501),
    ])
    def test_estimate_bytes_equal_serial_loop(self, cpus, seed, n, iterations):
        a, b = ransac_scene(seed, n)
        cfg = reg.RansacConfig(iterations=iterations, inlier_threshold=0.3, seed=seed)
        est = register_joined(identity_corr(n), a, b, cfg)
        assert estimate_bytes(est) == estimate_bytes(serial_ransac(identity_corr(n), a, b, cfg))

    def test_tie_across_tasks_goes_to_earliest(self, cpus, monkeypatch):
        # noise-free: every non-degenerate sample has all n inliers, so every
        # task ties at n and the raw winner is the first non-degenerate sample
        n, iterations = 40, 30_000
        srng = np.random.default_rng(11)
        a = srng.uniform(-30, 30, (n, 3))
        b = apply_transform(a, random_transform(srng, 10.0))
        cfg = reg.RansacConfig(iterations=iterations, inlier_threshold=0.3, seed=11)
        samples = np.random.default_rng(11).integers(0, n, (iterations, 3))
        R, t, degenerate = reg._batched_kabsch(a[samples], b[samples])
        assert (fused_counts(R, t, a, b, 0.3)[~degenerate] == n).all()
        first = int(np.argmin(degenerate))
        # the hypotheses differ in their last bits, so bytes tell them apart
        assert len({R[i].tobytes() for i in range(iterations) if not degenerate[i]}) > 100
        monkeypatch.setattr(reg, "kabsch_points", no_refit)
        est = register_joined(identity_corr(n), a, b, cfg)
        assert est.transform.rotation.tobytes() == R[first].tobytes()
        assert est.transform.translation.tobytes() == t[first].tobytes()
        assert est.inlier_count == n

    def test_all_degenerate_raises_and_joins_workers(self, cpus):
        a = np.ones((10, 3))
        with pytest.raises(TooFewCorrespondences, match="non-degenerate"):
            register_joined(identity_corr(10), a, a, reg.RansacConfig(iterations=5000))


def product_counts(R, t, src, dst, thr):
    corr = reg._Correspondences.of(src.T.copy(), dst.T.copy())
    return reg._inlier_counts(R, t, corr, reg._squared_threshold(thr))


def boundary_scene(seed, n=120, offset=50.0):
    """n correspondences about ``offset`` metres from the origin under a
    random rigid motion: the first half exact, the rest at residual 0.3 and
    one ulp of 0.3 either side of it."""
    srng = np.random.default_rng(seed)
    motion = random_transform(srng, 10.0)
    a = offset + srng.uniform(-5, 5, (n, 3))
    b = apply_transform(a, motion)
    u = srng.normal(size=(n - n // 2, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    ulp = np.spacing(0.3)
    radius = 0.3 + ulp * np.resize([-1.0, 0.0, 1.0], n - n // 2)
    b[n // 2 :] += u * radius[:, None]
    return a, b


@pytest.fixture
def recorded(monkeypatch):
    """The (R, t, counts) of every _inlier_counts call, as returned."""
    calls, count = [], reg._inlier_counts

    def spy(R, t, *args):
        counts = count(R, t, *args)
        calls.append((R, t, counts.copy()))
        return counts

    monkeypatch.setattr(reg, "_inlier_counts", spy)
    return calls


def hypothesis_samples(samples, n):
    """The sample each of ransac_register's hypotheses stands for, in its
    order: every sample or, where the n³ ordered triples are no more than
    the samples, the first sample of each distinct triple, in order of the
    triple's code (i0 n + i1) n + i2."""
    if n**3 > len(samples):
        return np.arange(len(samples))
    codes = (samples[:, 0] * n + samples[:, 1]) * n + samples[:, 2]
    return np.unique(codes, return_index=True)[1]


@pytest.mark.threads
class TestProductScorer:
    """_inlier_counts gives every hypothesis the count of
    _squared_residuals < thr2, and ransac_register the estimate bytes of
    serial_ransac, which scores every row with _squared_residuals."""

    @staticmethod
    def assert_counts_exact(calls, a, b, cfg):
        """Each task's counts sit at the hypotheses it scored, found by
        comparing bytes with one fit of all hypotheses' samples; together
        they cover every hypothesis once and equal the exact scorer's
        counts."""
        n = len(a)
        samples = np.random.default_rng(cfg.seed).integers(0, n, (cfg.iterations, 3))
        hyp = samples[hypothesis_samples(samples, n)]
        R, t, _ = reg._batched_kabsch(a[hyp], b[hyp])
        counts = np.full(len(hyp), -2)
        task = max(len(c) for _, _, c in calls)
        for Rk, tk, ck in calls:
            start = [s for s in range(0, len(hyp), task)
                     if R[s : s + len(ck)].tobytes() == Rk.tobytes()
                     and t[s : s + len(ck)].tobytes() == tk.tobytes()]
            assert len(start) == 1
            assert (counts[start[0] : start[0] + len(ck)] == -2).all()
            counts[start[0] : start[0] + len(ck)] = ck
        for s in range(0, len(hyp), 4096):  # bounds the exact scorer's (rows, n) arrays
            np.testing.assert_array_equal(counts[s : s + 4096], fused_counts(
                R[s : s + 4096], t[s : s + 4096], a, b, cfg.inlier_threshold))

    def test_every_hypothesis_count_equals_exact_scorer(self, monkeypatch, recorded):
        a, b = ransac_scene(6, 331)
        cfg = reg.RansacConfig(iterations=30_000, inlier_threshold=0.3, seed=6)
        for cpus in (1, 2, 5):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            recorded.clear()
            reg.ransac_register(identity_corr(331), a, b, cfg)
            self.assert_counts_exact(recorded, a, b, cfg)
            assert len(recorded) >= 3  # several tasks, each of several row blocks

    def test_one_product_per_task_counts_exact(self, monkeypatch, recorded):
        # a (task, 16) @ (16, 331) product per task, which a multi-threaded
        # BLAS splits across its threads
        monkeypatch.setattr(reg, "_SCORE_BLOCK_BYTES", 1 << 40)
        a, b = ransac_scene(6, 331)
        cfg = reg.RansacConfig(iterations=9000, inlier_threshold=0.3, seed=6)
        est = reg.ransac_register(identity_corr(331), a, b, cfg)
        self.assert_counts_exact(recorded, a, b, cfg)
        assert estimate_bytes(est) == estimate_bytes(serial_ransac(identity_corr(331), a, b, cfg))

    @pytest.mark.parametrize("b", [1, 4, 5, 6, 19, 20, 21, 43])
    def test_counts_exact_at_sizes_straddling_blocks_and_products(self, monkeypatch, b):
        # 20-row blocks, each formed by products of 5 rows
        n = 150
        src, dst = ransac_scene(5, n)
        monkeypatch.setattr(reg, "_SCORE_BLOCK_BYTES", 8 * n * 20)
        samples = np.random.default_rng(5).integers(0, n, (b, 3))
        R, t, _ = reg._batched_kabsch(src[samples], dst[samples])
        np.testing.assert_array_equal(product_counts(R, t, src, dst, 0.3),
                                      fused_counts(R, t, src, dst, 0.3))

    @pytest.mark.parametrize("seed", range(4))
    def test_counts_at_threshold_and_one_ulp_either_side(self, monkeypatch, seed):
        a, b = boundary_scene(seed)
        n = len(a)
        samples = np.random.default_rng(seed).integers(0, n // 2, (300, 3))
        R, t, degenerate = reg._batched_kabsch(a[samples], b[samples])
        # the exact half fits each hypothesis to about 1e-13 m, so the
        # boundary half sits within the band of every one of them
        rescored, score = [], reg._squared_residuals
        monkeypatch.setattr(reg, "_squared_residuals",
                            lambda R, *args: rescored.append(len(R)) or score(R, *args))
        counts = product_counts(R, t, a, b, 0.3)
        exact = fused_counts(R, t, a, b, 0.3)
        np.testing.assert_array_equal(counts, exact)
        assert sum(rescored) > 0
        live = ~degenerate
        assert (exact[live] > n // 2).all() and (exact[live] < n).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_boundary_scene_estimate_bytes_equal_serial(self, recorded, seed):
        a, b = boundary_scene(seed)
        cfg = reg.RansacConfig(iterations=3000, inlier_threshold=0.3, seed=seed)
        pairs = identity_corr(len(a))
        est = reg.ransac_register(pairs, a, b, cfg)
        self.assert_counts_exact(recorded, a, b, cfg)
        assert estimate_bytes(est) == estimate_bytes(serial_ransac(pairs, a, b, cfg))

    @pytest.mark.parametrize("seed", range(4))
    def test_boundary_scene_refits_the_winners_scored_inliers(self, monkeypatch, seed):
        # the boundary half lies within rounding of the threshold, where a
        # residual formula other than the scorer's picks another set
        a, b = boundary_scene(seed)
        cfg = reg.RansacConfig(iterations=3000, inlier_threshold=0.3, seed=seed)
        samples = np.random.default_rng(seed).integers(0, len(a), (cfg.iterations, 3))
        R, t, degenerate = reg._batched_kabsch(a[samples], b[samples])
        counts = np.where(degenerate, -1, fused_counts(R, t, a, b, 0.3))
        best = int(np.argmax(counts))
        d2 = reg._squared_residuals(R[best : best + 1], t[best : best + 1],
                                    a.T.copy(), b.T.copy())[0]
        scored = d2 < reg._squared_threshold(0.3)
        refit_sets, refit = [], reg.kabsch_points

        def spy(src, dst):
            refit_sets.append(src)
            return refit(src, dst)

        monkeypatch.setattr(reg, "kabsch_points", spy)
        reg.ransac_register(identity_corr(len(a)), a, b, cfg)
        assert len(refit_sets) == 1
        assert len(refit_sets[0]) == counts[best] == np.count_nonzero(scored)
        assert refit_sets[0].tobytes() == a[scored].tobytes()

    def test_huge_margin_scores_every_row_exactly(self, monkeypatch, recorded):
        a, b = ransac_scene(5, 150)
        cfg = reg.RansacConfig(iterations=5000, inlier_threshold=0.3, seed=5)
        rescored, score = [], reg._squared_residuals
        monkeypatch.setattr(reg, "_band_margin",
                            lambda R, t, corr, thr2: np.full(corr.c.shape, 1e300))
        monkeypatch.setattr(reg, "_squared_residuals",
                            lambda R, *args: rescored.append(len(R)) or score(R, *args))
        est = reg.ransac_register(identity_corr(150), a, b, cfg)
        # every hypothesis, then the winner's and the refit's one row each
        assert sum(rescored) == cfg.iterations + 2
        self.assert_counts_exact(recorded, a, b, cfg)
        assert estimate_bytes(est) == estimate_bytes(serial_ransac(identity_corr(150), a, b, cfg))

    def test_non_finite_and_degenerate_hypotheses(self, monkeypatch, recorded):
        # 12 correspondences: 5 inliers, 3 outliers and 4 copies of the first
        # one, so many samples repeat an index or a point and fall back to
        # R = I; the fit is poisoned by each sample's first point, so
        # ransac_register's tasks and serial_ransac's chunks agree on it
        srng = np.random.default_rng(2)
        a = srng.uniform(-30, 30, (12, 3))
        b = apply_transform(a, random_transform(srng, 10.0)) + srng.normal(0, 0.05, (12, 3))
        b[5:8] = srng.uniform(-30, 30, (3, 3))
        a[8:], b[8:] = a[0], b[0]
        cfg = reg.RansacConfig(iterations=3000, inlier_threshold=0.3, seed=2)
        fit = reg._batched_kabsch

        def poisoned_fit(src, dst):
            R, t, degenerate = fit(src, dst)
            first = [(src[:, 0] == a[k]).all(axis=1) for k in (1, 2, 3, 4)]
            R[first[0], 1, 2] = np.nan
            t[first[1], 0] = np.inf
            t[first[2], 2] = -np.inf
            t[first[3]] = np.nan
            return R, t, degenerate

        samples = np.random.default_rng(2).integers(0, 12, (cfg.iterations, 3))
        R, t, degenerate = poisoned_fit(a[samples], b[samples])
        assert degenerate.mean() > 0.2
        assert (R[degenerate] == np.eye(3)).all(axis=(1, 2)).sum() > 100
        assert (~np.isfinite(R).all(axis=(1, 2)) & ~degenerate).sum() > 100
        assert (~np.isfinite(t).all(axis=1) & ~degenerate).sum() > 300
        exact = fused_counts(R, t, a, b, 0.3)
        assert exact.max() >= 5
        np.testing.assert_array_equal(product_counts(R, t, a, b, 0.3), exact)
        recorded.clear()
        monkeypatch.setattr(reg, "_batched_kabsch", poisoned_fit)
        est = reg.ransac_register(identity_corr(12), a, b, cfg)
        self.assert_counts_exact(recorded, a, b, cfg)
        assert estimate_bytes(est) == estimate_bytes(serial_ransac(identity_corr(12), a, b, cfg))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([0.01, 1.0, 50.0, 1e4, 1e7, 1e100, 1e150]),
           st.sampled_from([0.05, 0.3, 2.0]))
    def test_random_scales_equal_exact_scorer(self, seed, scale, thr):
        # residuals drawn around thr, a few of them within ulps of it; at
        # 1e150 m the bound's W passes 1e300 and every entry is rescored
        srng = np.random.default_rng(seed)
        src = scale * srng.uniform(-1, 1, (40, 3))
        R = np.stack([random_transform(srng).rotation for _ in range(16)])
        t = scale * srng.uniform(-1, 1, (16, 3))
        u = srng.normal(size=(40, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        radius = thr * np.where(srng.random(40) < 0.5, srng.uniform(0, 2, 40),
                                1 + srng.integers(-3, 4, 40) * np.finfo(float).eps)
        dst = src @ R[0].T + t[0] + u * radius[:, None]
        np.testing.assert_array_equal(product_counts(R, t, src, dst, thr),
                                      fused_counts(R, t, src, dst, thr))


@pytest.mark.threads
class TestDistinctSamples:
    """Where the n³ ordered triples are no more than the samples,
    ransac_register fits and scores each distinct sampled triple once and
    the earliest sample still wins a tie; either side of that rule the
    estimate is serial_ransac's, whatever the CPU count."""

    # n³ equal to the iterations (distinct triples) and one above them
    # (every sample); 20 and 21 matches are register-bins' smallest pairs
    rule_edge = pytest.mark.parametrize("n,iterations", [
        (20, 8000), (20, 7999), (21, 9261), (21, 9260), (4, 64), (4, 63),
    ])

    @rule_edge
    def test_estimate_bytes_equal_serial_loop(self, cpus, n, iterations):
        a, b = ransac_scene(n, n)
        cfg = reg.RansacConfig(iterations=iterations, inlier_threshold=0.3, seed=n)
        est = register_joined(identity_corr(n), a, b, cfg)
        assert estimate_bytes(est) == estimate_bytes(serial_ransac(identity_corr(n), a, b, cfg))

    @rule_edge
    def test_rows_scored_are_distinct_triples_below_rule(self, cpus, recorded, n, iterations):
        a, b = ransac_scene(n, n)
        cfg = reg.RansacConfig(iterations=iterations, inlier_threshold=0.3, seed=n)
        reg.ransac_register(identity_corr(n), a, b, cfg)
        samples = np.random.default_rng(n).integers(0, n, (iterations, 3))
        distinct = len(np.unique(samples, axis=0))
        assert distinct < iterations
        rows = sum(len(c) for _, _, c in recorded)
        assert rows == (distinct if n**3 <= iterations else iterations)
        TestProductScorer.assert_counts_exact(recorded, a, b, cfg)

    def test_tie_goes_to_first_sample_position(self, cpus, monkeypatch):
        # noise-free: every non-degenerate triple has all n inliers, so the
        # raw winner is the first non-degenerate sample, which is not the
        # first non-degenerate triple in code order
        n, iterations = 12, 3000
        srng = np.random.default_rng(12)
        a = srng.uniform(-30, 30, (n, 3))
        b = apply_transform(a, random_transform(srng, 10.0))
        cfg = reg.RansacConfig(iterations=iterations, inlier_threshold=0.3, seed=12)
        samples = np.random.default_rng(12).integers(0, n, (iterations, 3))
        R, t, degenerate = reg._batched_kabsch(a[samples], b[samples])
        assert (fused_counts(R, t, a, b, 0.3)[~degenerate] == n).all()
        first = int(np.argmin(degenerate))
        hyp = hypothesis_samples(samples, n)
        assert len(hyp) < iterations
        assert R[first].tobytes() != R[hyp[np.argmin(degenerate[hyp])]].tobytes()
        monkeypatch.setattr(reg, "kabsch_points", no_refit)
        est = register_joined(identity_corr(n), a, b, cfg)
        assert est.transform.rotation.tobytes() == R[first].tobytes()
        assert est.transform.translation.tobytes() == t[first].tobytes()
        assert est.inlier_count == n


class TestRansacConfig:
    @pytest.mark.parametrize("thr", [float("nan"), float("inf"), -float("inf"), 0.0, -0.3])
    def test_rejects_bad_inlier_threshold(self, thr):
        with pytest.raises(ValueError):
            reg.RansacConfig(inlier_threshold=thr)

    @pytest.mark.parametrize("iterations", [2.5, np.float64(3.0), "5", True, 0, -1],
                             ids=repr)
    def test_rejects_non_integral_or_small_iterations(self, iterations):
        with pytest.raises(ValueError, match=re.escape("iterations must be an integer >= 1")):
            reg.RansacConfig(iterations=iterations)

    def test_accepts_numpy_integer_iterations(self, rng):
        a = rng.uniform(-10, 10, (20, 3))
        cfg = reg.RansacConfig(iterations=np.int64(30))
        assert reg.ransac_register(identity_corr(20), a, a, cfg).inlier_count == 20


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
