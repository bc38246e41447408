import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from conftest import relative_rotation_angle_deg, voxel_reference
from hypothesis import given, settings, strategies as st

from distreg import geometry as g
from distreg.errors import DegenerateGeometry, EmptyCloud


class TestRigidTransform:
    def test_validation_rejects_non_orthonormal(self):
        bad = np.eye(3)
        bad[0, 0] = 1.001
        with pytest.raises(ValueError):
            g.RigidTransform(bad, np.zeros(3))

    def test_validation_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            g.RigidTransform(refl, np.zeros(3))

    @pytest.mark.parametrize("entry", [(0, 0), (1, 2), (2, 2)])
    def test_validation_rejects_nan_rotation_entry(self, entry):
        rot = np.eye(3)
        rot[entry] = np.nan
        with pytest.raises(ValueError, match="not orthonormal"):
            g.RigidTransform(rot, np.zeros(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_validation_rejects_non_finite_translation(self, value):
        with pytest.raises(ValueError, match="translation not finite"):
            g.RigidTransform(np.eye(3), np.array([0.0, value, 0.0]))

    def test_compose_inverse(self, rng):
        a = g.random_transform(rng, 3.0)
        b = g.random_transform(rng, 3.0)
        pts = rng.uniform(-5, 5, (40, 3))
        via_compose = g.apply_transform(pts, a.compose(b))
        sequential = g.apply_transform(g.apply_transform(pts, b), a)
        np.testing.assert_allclose(via_compose, sequential, atol=1e-9)
        round_trip = g.apply_transform(g.apply_transform(pts, a), a.inverse())
        np.testing.assert_allclose(round_trip, pts, atol=1e-9)


class TestApplyTransform:
    def test_identity(self, rng):
        pts = rng.uniform(-10, 10, (25, 3))
        out = g.apply_transform(pts, g.RigidTransform.identity())
        np.testing.assert_array_equal(out, pts)

    def test_analytic_rotation_90deg(self):
        rot = g.rotation_about_axis([0, 0, 1], np.pi / 2)
        out = g.apply_transform(np.array([[1.0, 0.0, 0.0]]), g.RigidTransform(rot, np.zeros(3)))
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_composition_group_law(self, rng):
        pts = rng.uniform(-10, 10, (30, 3))
        t1 = g.random_transform(rng, 2.0)
        t2 = g.random_transform(rng, 2.0)
        lhs = g.apply_transform(g.apply_transform(pts, t1), t2)
        rhs = g.apply_transform(pts, t2.compose(t1))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_preserves_pairwise_distances(self, rng):
        pts = rng.uniform(-10, 10, (50, 3))
        moved = g.apply_transform(pts, g.random_transform(rng, 5.0))
        d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        d1 = np.linalg.norm(moved[:, None] - moved[None, :], axis=2)
        np.testing.assert_allclose(d1, d0, rtol=1e-9, atol=1e-9)

    def test_input_unmodified(self, rng):
        pts = rng.uniform(-1, 1, (10, 3))
        before = pts.copy()
        g.apply_transform(pts, g.random_transform(rng, 1.0))
        np.testing.assert_array_equal(pts, before)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            g.apply_transform(np.array([[np.nan, 0, 0]]), g.RigidTransform.identity())


class TestKabsch:
    def test_identity_pairing(self, rng):
        pts = rng.uniform(-5, 5, (20, 3))
        t = g.kabsch_points(pts, pts)
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(t.translation, np.zeros(3), atol=1e-9)

    def test_pure_translation(self, rng):
        pts = rng.uniform(-5, 5, (20, 3))
        t = g.kabsch_points(pts, pts + np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(t.translation, [1.0, 2.0, 3.0], atol=1e-9)

    def test_exact_recovery_100_random_transforms(self, rng):
        pts = rng.uniform(-10, 10, (50, 3))
        for _ in range(100):
            t_gt = g.random_transform(rng, 5.0)
            moved = g.apply_transform(pts, t_gt)
            t_est = g.kabsch_points(pts, moved)
            assert relative_rotation_angle_deg(t_est.rotation, t_gt.rotation) < 1e-6
            assert g.rte(t_est.translation, t_gt.translation) < 1e-9

    def test_collinear_raises(self):
        line = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        with pytest.raises(DegenerateGeometry):
            g.kabsch_points(line, line + 1.0)

    def test_coincident_raises(self):
        same = np.zeros((5, 3))
        with pytest.raises(DegenerateGeometry):
            g.kabsch_points(same, same)


@pytest.mark.threads
class TestOrderedMap:
    """``[fn(x) for x in items]`` on the caller plus at most min(cpus, n) - 1
    new threads."""

    @pytest.fixture(params=[1, 2, 5], ids=lambda n: f"{n}cpu")
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
        return request.param

    def test_results_in_item_order(self, cpus):
        def square_later_ones_first(x):
            time.sleep(0.01 * (5 - x))
            return x * x

        assert g.ordered_map(square_later_ones_first, range(6)) == [x * x for x in range(6)]
        assert g.ordered_map(square_later_ones_first, []) == []

    def test_earliest_error_raised_after_every_item(self, cpus):
        # item 3 fails first and item 2 finishes last; item 1's error wins
        finished = []

        def fn(x):
            time.sleep(0.05 if x in (1, 2) else 0.0)
            if x in (1, 3):
                raise ValueError(f"item {x}")
            finished.append(x)

        threads = threading.active_count()
        with pytest.raises(ValueError, match="^item 1$"):
            g.ordered_map(fn, range(5))
        assert sorted(finished) == [0, 2, 4]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_new_threads_at_most_cpus_minus_one(self, cpus, n):
        threads = threading.active_count()
        seen = []

        def fn(x):
            seen.append((threading.get_ident(), threading.active_count()))
            time.sleep(0.05)
            return x

        assert g.ordered_map(fn, range(n)) == list(range(n))
        assert threading.active_count() == threads
        new = {ident for ident, _ in seen} - {threading.get_ident()}
        assert len(new) <= min(cpus, n) - 1
        assert max(active for _, active in seen) - threads <= min(cpus, n) - 1
        if n == 8:  # the caller claims items instead of waiting
            assert threading.get_ident() in {ident for ident, _ in seen}

    def test_each_item_claimed_once_under_frequent_switches(self, monkeypatch):
        # more threads than cores, switching every microsecond
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        calls = []

        def fn(x):
            calls.append(x)
            return -x

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = g.ordered_map(fn, range(3000))
        finally:
            sys.setswitchinterval(interval)
        assert got == [-x for x in range(3000)]
        assert sorted(calls) == list(range(3000))

    def test_nested_call_completes(self, cpus):
        def row(x):
            return g.ordered_map(lambda y: x * y, range(4))

        assert g.ordered_map(row, range(4)) == [[x * y for y in range(4)] for x in range(4)]

    @pytest.mark.parametrize("cpu_count,usable", [(3, 3), (None, 1)])
    def test_no_affinity_call_falls_back_to_cpu_count(self, monkeypatch, cpu_count, usable):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert g.usable_cpus() == usable
        threads = threading.active_count()
        assert g.ordered_map(lambda x: x + 1, range(5)) == [1, 2, 3, 4, 5]
        assert threading.active_count() == threads


class TestNeighborIndex:
    def test_only_index_over_points(self):
        # every kd-tree over points is a NeighborIndex; register builds its
        # own only for feature maps, which may have any width
        sources = sorted(Path(g.__file__).parent.glob("*.py"))
        users = {p.name for p in sources
                 if "cKDTree" in (text := p.read_text()) or "scipy.spatial" in text}
        assert len(sources) > 2 and users == {"geometry.py", "register.py"}

    def test_single_point(self):
        idx = g.NeighborIndex([[1.0, 2.0, 3.0]])
        d, i = idx.nearest([[0.0, 0.0, 0.0]])
        assert i[0] == 0
        np.testing.assert_allclose(d[0], np.sqrt(14.0))

    def test_query_at_indexed_point(self, rng):
        pts = rng.uniform(-5, 5, (30, 3))
        d, i = g.NeighborIndex(pts).nearest(pts[7:8])
        assert d[0] == 0.0 and i[0] == 7

    def test_empty_raises(self):
        with pytest.raises(EmptyCloud):
            g.NeighborIndex(np.zeros((0, 3)))

    def test_matches_brute_force(self, rng):
        pts = rng.uniform(-10, 10, (1000, 3))
        queries = rng.uniform(-10, 10, (100, 3))
        d, i = g.NeighborIndex(pts).nearest(queries)
        d2 = np.linalg.norm(queries[:, None, :] - pts[None, :, :], axis=2)
        np.testing.assert_array_equal(i, np.argmin(d2, axis=1))
        np.testing.assert_allclose(d, d2.min(axis=1), rtol=1e-12)

    def test_knearest_matches_brute_force(self, rng):
        pts = rng.uniform(-10, 10, (300, 3))
        queries = rng.uniform(-10, 10, (40, 3))
        d, i = g.NeighborIndex(pts).knearest(queries, 5)
        d2 = np.linalg.norm(queries[:, None, :] - pts[None, :, :], axis=2)
        expect = np.argsort(d2, axis=1)[:, :5]
        np.testing.assert_array_equal(i, expect)
        assert (np.diff(d, axis=1) >= 0).all()

    def test_within_excludes_exact_radius(self):
        idx = g.NeighborIndex([[0.0, 0.0, 0.0]])
        for r in (0.5, 0.1):
            queries = [[r, 0.0, 0.0], [np.nextafter(r, 0.0), 0.0, 0.0]]
            np.testing.assert_array_equal(idx.within(queries, r), [False, True])

    def test_within_equals_nearest_at_ulp_boundaries(self, rng):
        # radii equal to, one ulp under and one ulp over actual 1-NN distances
        pts = rng.uniform(-10, 10, (500, 3))
        queries = rng.uniform(-10, 10, (200, 3))
        idx = g.NeighborIndex(pts)
        d, _ = idx.nearest(queries)
        for r in d[:40]:
            for radius in (np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)):
                np.testing.assert_array_equal(idx.within(queries, radius), d < radius)

    def test_concurrent_queries_equal_serial_bytes(self, rng):
        # read-only queries from more threads than cores, with the interpreter
        # switching threads as often as it can, give the serial answers
        idx = g.NeighborIndex(rng.uniform(-10, 10, (3000, 3)))
        batches = [rng.uniform(-12, 12, (400, 3)) for _ in range(16)]

        def answers(queries):
            d, i = idx.nearest(queries)
            kd, ki = idx.knearest(queries, 7)
            return [idx.within(queries, 0.6).tobytes(), d.tobytes(), i.tobytes(),
                    kd.tobytes(), ki.tobytes()]

        serial = [answers(q) for q in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(answers, q) for q in batches * 4]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 4


class TestVoxelDownsample:
    def test_two_points_one_cell(self):
        out = g.voxel_downsample([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]], 1.0)
        np.testing.assert_allclose(out, [[0.15, 0.15, 0.15]])

    def test_distinct_cells_is_permutation(self, rng):
        pts = rng.uniform(0, 10, (50, 3))
        pts = np.unique(np.floor(pts), axis=0) + 0.5  # one point per integer cell
        out = g.voxel_downsample(pts, 1.0)
        np.testing.assert_allclose(np.sort(out, axis=0), np.sort(pts, axis=0), atol=1e-12)

    def test_occupancy_matches_hash_oracle(self, rng):
        pts = rng.uniform(0, 10, (10_000, 3))
        out = g.voxel_downsample(pts, 0.5)
        cells = {tuple(c) for c in np.floor(pts / 0.5).astype(int)}
        assert out.shape[0] == len(cells)

    def test_negative_coordinates_cell_convention(self):
        # floor(-0.1/1) = -1: the two points land in different cells
        out = g.voxel_downsample([[-0.1, 0.0, 0.0], [0.1, 0.0, 0.0]], 1.0)
        assert out.shape[0] == 2

    def test_second_pass_keeps_single_occupancy(self, rng):
        pts = rng.uniform(-5, 5, (5000, 3))
        once = g.voxel_downsample(pts, 0.4)
        twice = g.voxel_downsample(once, 0.4)
        assert twice.shape[0] <= once.shape[0]
        cells = np.floor(twice / 0.4).astype(int)
        assert np.unique(cells, axis=0).shape[0] == cells.shape[0]

    def test_order_independent(self, rng):
        pts = rng.uniform(-5, 5, (2000, 3))
        perm = rng.permutation(2000)
        a = g.voxel_downsample(pts, 0.7)
        b = g.voxel_downsample(pts[perm], 0.7)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_input(self):
        assert g.voxel_downsample(np.zeros((0, 3)), 0.5).shape == (0, 3)

    def test_rejects_bad_voxel_size(self):
        with pytest.raises(ValueError):
            g.voxel_downsample(np.zeros((1, 3)), 0.0)

    @pytest.mark.parametrize("voxel_size", [float("nan"), -0.5])
    def test_rejects_nan_and_negative_voxel_size(self, voxel_size):
        with pytest.raises(ValueError, match="positive"):
            g.voxel_downsample(np.zeros((2, 3)), voxel_size)

    def test_rejects_infinite_voxel_size(self):
        # floor(p / inf) puts every point in one cell
        with pytest.raises(ValueError, match="finite"):
            g.voxel_downsample(np.ones((2, 3)), np.inf)

    @pytest.mark.parametrize("point,voxel_size", [
        ((1e10, 0.0, 0.0), 1e-12),
        ((0.0, -1e10, 0.0), 1e-12),
        ((0.0, 0.0, 2.0**63), 1.0),
        # the division itself overflows to inf
        pytest.param((1e300, 0.0, 0.0), 1e-300,
                     marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")),
    ])
    def test_rejects_cells_beyond_int64(self, point, voxel_size):
        with pytest.raises(ValueError, match="int64"):
            g.voxel_downsample([point, (0.0, 0.0, 0.0)], voxel_size)

    def test_int64_edge_cell_accepted(self):
        out = g.voxel_downsample([(-(2.0**63), 0.0, 0.0), (0.0, 2.0**62, 0.0)], 1.0)
        assert out.shape == (2, 3)

    def test_matches_reference_on_scans(self, small_scene):
        _, _, seq = small_scene
        for frame in list(seq)[::10]:
            for voxel_size in (0.05, 0.3, 2.0):
                ref = voxel_reference(frame.cloud, voxel_size)
                assert g.voxel_downsample(frame.cloud, voxel_size).tobytes() == ref.tobytes()

    # 2^63 - 1 = 3577 * 42799 * 60247241209: a box with these spans holds the
    # most cells an int64 key numbers. Spans of 2^21 give 2^63 cells, one
    # too many, and take the lexsort.
    @pytest.mark.parametrize("spans,lexsort", [
        ((3577, 42799, 60247241209), False),
        ((2**21, 2**21, 2**21), True),
    ])
    def test_packed_key_boundary(self, monkeypatch, spans, lexsort):
        far = np.array(spans, dtype=np.float64) - 1.0
        pts = np.array([far, far / 3.0, [0.0, 0.0, 0.0], far, [0.5, far[1], 0.25],
                        [far[0], 0.0, far[2] - 0.5]])
        ref = voxel_reference(pts, 1.0)
        calls = []
        lexsort_fn = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort_fn(keys))
        assert g.voxel_downsample(pts, 1.0).tobytes() == ref.tobytes()
        assert len(calls) == lexsort

    @pytest.mark.parametrize("pts,voxel_size", [
        # one cell: every span is 1 and every key 0
        ([(0.1, 0.2, 0.3), (0.4, 0.5, 0.6), (0.1, 0.2, 0.3)], 1.0),
        # one cell value on the y axis
        ([(0.0, 3.2, 1.0), (5.0, 3.9, -4.0), (-2.0, 3.0, 1.0), (5.5, 3.1, -4.0)], 1.0),
        # negative cells on every axis
        ([(-0.1, -7.3, -2.0), (-9.9, -0.2, -0.01), (-0.05, -7.1, -1.5), (-4.4, -4.4, -4.4)], 0.3),
        # cells at the bottom of int64, packed relative to x0 = -2^63
        ([(-(2.0**63), 0.0, 0.0), (-(2.0**63) + 2048.0, 1.0, 0.0), (-(2.0**63), 0.5, 0.0)], 1.0),
    ])
    def test_small_boxes_match_reference(self, pts, voxel_size):
        pts = np.array(pts)
        out = g.voxel_downsample(pts, voxel_size)
        assert out.tobytes() == voxel_reference(pts, voxel_size).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=st.data())
    def test_matches_reference_bytes(self, case):
        pts, voxel_size = case.draw(_voxel_clouds())
        out = g.voxel_downsample(pts, voxel_size)
        ref = voxel_reference(pts, voxel_size)
        assert out.shape == ref.shape and out.flags.c_contiguous
        assert out.tobytes() == ref.tobytes()


@st.composite
def _voxel_clouds(draw):
    """Clouds of 1-60 points over a few cells with coordinates of either
    sign, up to about 2^40 cells from the origin. A point sits at its cell's
    lower corner, at the centre or anywhere inside, so cell boundaries and
    duplicate points are common, and many points can share one cell."""
    span = draw(st.sampled_from([1, 5, 1000, 2**20, 2**40]))
    voxel_size = draw(st.sampled_from([0.05, 0.3, 1.0, 2.0, 7.3]))
    coord = st.integers(-span, span)
    cells = draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=8))
    frac = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True)
    rows = draw(st.lists(st.tuples(st.integers(0, len(cells) - 1), st.tuples(frac, frac, frac)),
                         min_size=1, max_size=60))
    pts = np.array([(np.array(cells[c], dtype=np.float64) + off) * voxel_size
                    for c, off in rows])
    return pts, voxel_size


class TestInSphere:
    @settings(max_examples=300, deadline=None)
    @given(case=st.data())
    def test_matches_linalg_norm(self, case):
        pts, radius = case.draw(_sphere_cases())
        with np.errstate(over="ignore", under="ignore"):
            want = np.linalg.norm(pts, axis=1) <= radius
            got = g.in_sphere(pts, radius)
        assert got.dtype == np.bool_ and got.tobytes() == want.tobytes()


_SPHERE_COORDS = (
    st.floats(-1e3, 1e3)
    # subnormal and tiny coordinates, whose squares underflow
    | st.floats(-1e-300, 1e-300) | st.sampled_from([5e-324, -5e-324, 2.2e-308])
    # huge coordinates, whose squares overflow to inf
    | st.floats(-1.7e308, 1.7e308) | st.sampled_from([1e154, 1.4e154, -1e200, 1.7e308])
)


@st.composite
def _sphere_cases(draw):
    """Rows of any finite coordinates, with rows of generic coordinates
    (seeded normal draws, whose squares and sums round, unlike most drawn
    floats), and a radius that is either drawn or the norm of one of the
    rows, so that some points lie exactly on the sphere."""
    rows = draw(st.lists(st.tuples(_SPHERE_COORDS, _SPHERE_COORDS, _SPHERE_COORDS),
                         min_size=1, max_size=20))
    scale = draw(st.sampled_from([1e-160, 1e-3, 1.0, 1e3, 1e150]))
    generic = np.random.default_rng(draw(st.integers(0, 2**32))).normal(
        size=(draw(st.integers(0, 20)), 3)) * scale
    pts = np.vstack([np.array(rows, dtype=np.float64), generic])
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(pts, axis=1)
    on_sphere = st.sampled_from([float(v) for v in norms if 0 < v < np.inf] or [1.0])
    radius = draw(on_sphere | st.floats(1e-300, 1e300))
    return pts, radius


class TestOverlapRatio:
    def test_self_overlap_is_one(self, rng):
        pts = rng.uniform(0, 10, (100, 3))
        for tau in (0.01, 0.5, 3.0):
            assert g.overlap_ratio(pts, pts, g.RigidTransform.identity(), tau) == 1.0

    def test_disjoint_clouds(self, rng):
        a = rng.uniform(0, 1, (50, 3))
        b = a + 100.0
        assert g.overlap_ratio(a, b, g.RigidTransform.identity(), 0.5) == 0.0

    def test_constructed_30_percent(self, rng):
        shared = rng.uniform(0, 10, (30, 3))
        only_a = rng.uniform(0, 10, (70, 3)) + np.array([1000.0, 0, 0])
        only_b = rng.uniform(0, 10, (70, 3)) - np.array([1000.0, 0, 0])
        a = np.vstack([shared, only_a])
        b = np.vstack([shared, only_b])
        ov = g.overlap_ratio(a, b, g.RigidTransform.identity(), 0.5)
        assert ov == pytest.approx(0.30)

    def test_symmetric_minimum(self, rng):
        # B contains all of A plus far extras: o_AB=1 but o_BA=0.5
        a = rng.uniform(0, 10, (50, 3))
        b = np.vstack([a, a + 500.0])
        assert g.overlap_ratio(a, b, g.RigidTransform.identity(), 0.5) == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(EmptyCloud):
            g.overlap_ratio(np.zeros((0, 3)), np.zeros((1, 3)), g.RigidTransform.identity(), 0.5)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_tau(self, tau):
        pts = np.zeros((1, 3))
        with pytest.raises(ValueError):
            g.overlap_ratio(pts, pts, g.RigidTransform.identity(), tau)

    def test_point_at_exactly_tau_does_not_count(self):
        # A maps to (1,0,0) and (6,0,0): 0.5 (exactly tau) and 0.25 from B
        a = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        b = np.array([[1.5, 0.0, 0.0], [6.25, 0.0, 0.0]])
        shift = g.RigidTransform(np.eye(3), [1.0, 0.0, 0.0])
        ia, ib = g.NeighborIndex(a), g.NeighborIndex(b)
        for x, y in ((a, b), (ia, ib), (ia, b), (a, ib)):
            assert g.overlap_ratio(x, y, shift, 0.5) == 0.5
            assert g.overlap_ratio(x, y, shift, np.nextafter(0.5, 1.0)) == 1.0

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(*[st.floats(-4.0, 4.0)] * 3), min_size=1, max_size=25),
        st.lists(st.tuples(*[st.floats(-4.0, 4.0)] * 3), min_size=1, max_size=25),
        st.integers(0, 2**32 - 1),
        st.floats(0.05, 3.0),
    )
    def test_arrays_and_indices_match_all_pairs_brute_force(self, a, b, seed, tau):
        a, b = np.array(a), np.array(b)
        transform = g.random_transform(np.random.default_rng(seed), 2.0)
        moved = a @ transform.rotation.T + transform.translation
        d = np.linalg.norm(moved[:, None, :] - b[None, :, :], axis=2)
        expect = min(np.count_nonzero(d.min(axis=1) < tau) / len(a),
                     np.count_nonzero(d.min(axis=0) < tau) / len(b))
        ia, ib = g.NeighborIndex(a), g.NeighborIndex(b)
        for x, y in ((a, b), (ia, ib), (ia, b), (a, ib)):
            assert g.overlap_ratio(x, y, transform, tau) == expect


class TestErrorMetrics:
    def test_rre_zero_for_equal(self, rng):
        r = g.random_rotation(rng)
        assert g.rre(r, r) < 3e-6  # arccos conditioning floor

    def test_rre_constructed_angle(self, rng):
        r = g.random_rotation(rng)
        for axis in ([1, 0, 0], [0, 1, 0], [0.3, -0.5, 0.81]):
            delta = g.rotation_about_axis(axis, np.radians(1.5))
            assert g.rre(delta @ r, r) == pytest.approx(1.5, abs=1e-9)

    def test_rre_matches_quaternion_oracle(self, rng):
        def quat_angle_deg(r1, r2):
            m = r1.T @ r2
            w = np.sqrt(max(0.0, 1.0 + np.trace(m))) / 2.0
            return np.degrees(2.0 * np.arccos(np.clip(w, -1.0, 1.0)))

        for _ in range(100):
            r1, r2 = g.random_rotation(rng), g.random_rotation(rng)
            assert g.rre(r1, r2) == pytest.approx(quat_angle_deg(r2, r1), abs=1e-7)

    def test_rre_symmetric(self, rng):
        for _ in range(20):
            r1, r2 = g.random_rotation(rng), g.random_rotation(rng)
            assert g.rre(r1, r2) == pytest.approx(g.rre(r2, r1), abs=1e-9)

    def test_rre_range(self, rng):
        r = g.rotation_about_axis([0, 0, 1], np.pi)
        assert g.rre(r, np.eye(3)) == pytest.approx(180.0)

    def test_rte(self, rng):
        assert g.rte([1, 2, 3], [1, 2, 3]) == 0.0
        assert g.rte([1.6, 0, 0], [1.0, 0, 0]) == pytest.approx(0.6)
        for _ in range(20):
            a, b = rng.normal(size=3), rng.normal(size=3)
            assert g.rte(a, b) == pytest.approx(np.sqrt(((a - b) ** 2).sum()))
