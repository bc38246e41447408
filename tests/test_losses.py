from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from distreg import losses as lo
from distreg.errors import EmptyCloud, NonFinite, NoPositives
from distreg.geometry import apply_transform, random_transform


def brute_chamfer(a, b):
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return d2.min(axis=1).mean() + d2.min(axis=0).mean()


def ckdtree_chamfer(a, b):
    """``chamfer`` as it was with raw kd-trees, before it used NeighborIndex."""
    n, m = a.shape[0], b.shape[0]
    d_ab, nn_ab = cKDTree(b).query(a, k=1)
    d_ba, nn_ba = cKDTree(a).query(b, k=1)
    value = float(np.mean(d_ab**2) + np.mean(d_ba**2))
    grad = (2.0 / n) * (a - b[nn_ab])
    np.add.at(grad, nn_ba, (2.0 / m) * (a[nn_ba] - b))
    return value, grad


class TestChamfer:
    def test_identical_clouds_zero(self, rng):
        a = rng.uniform(-5, 5, (50, 3))
        value, grad = lo.chamfer(a, a)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(a))

    def test_singleton_pair(self):
        value, _ = lo.chamfer(np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0]]))
        assert value == 2.0

    def test_matches_brute_force(self, rng):
        for _ in range(5):
            a = rng.uniform(-5, 5, (200, 3))
            b = rng.uniform(-5, 5, (200, 3))
            value, _ = lo.chamfer(a, b)
            assert value == pytest.approx(brute_chamfer(a, b), abs=1e-12)

    def test_symmetric(self, rng):
        a = rng.uniform(-5, 5, (80, 3))
        b = rng.uniform(-5, 5, (60, 3))
        assert lo.chamfer(a, b)[0] == lo.chamfer(b, a)[0]

    def test_rigid_invariance(self, rng):
        a = rng.uniform(-5, 5, (70, 3))
        b = rng.uniform(-5, 5, (90, 3))
        t = random_transform(rng, 3.0)
        v0, _ = lo.chamfer(a, b)
        v1, _ = lo.chamfer(apply_transform(a, t), apply_transform(b, t))
        assert v1 == pytest.approx(v0, abs=1e-9)

    def test_nonnegative_zero_iff_mutual_coincidence(self, rng):
        a = rng.uniform(-2, 2, (30, 3))
        b = a[rng.permutation(30)]
        assert lo.chamfer(a, b)[0] == 0.0
        b2 = b.copy()
        b2[0] += 0.5
        assert lo.chamfer(a, b2)[0] > 0.0

    def test_gradient_finite_differences(self, rng):
        a = rng.uniform(-2, 2, (40, 3))
        b = rng.uniform(-2, 2, (35, 3))
        _, grad = lo.chamfer(a, b)
        h = 1e-6
        for _ in range(30):
            i, c = rng.integers(40), rng.integers(3)
            ap = a.copy()
            ap[i, c] += h
            am = a.copy()
            am[i, c] -= h
            fd = (lo.chamfer(ap, b)[0] - lo.chamfer(am, b)[0]) / (2 * h)
            assert abs(fd - grad[i, c]) / max(abs(fd), abs(grad[i, c]), 1e-9) < 1e-6

    def test_empty_raises(self, rng):
        with pytest.raises(EmptyCloud):
            lo.chamfer(np.zeros((0, 3)), rng.uniform(-1, 1, (4, 3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_bytes_match_raw_kdtree_reference(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-5, 5, (300 + 40 * seed, 3))
        # b shares points with a, so both directions see exact-zero ties
        b = np.concatenate([rng.uniform(-5, 5, (250, 3)), a[::7]])
        value, grad = lo.chamfer(a, b)
        ref_value, ref_grad = ckdtree_chamfer(a, b)
        assert value == ref_value
        assert grad.tobytes() == ref_grad.tobytes()


class TestOffsetReg:
    def test_zero_offsets(self):
        value, grad = lo.l2_offset_reg(np.zeros((5, 4, 3)))
        assert value == 0.0 and not grad.any()

    def test_single_offset_norm_squared(self):
        value, _ = lo.l2_offset_reg(np.array([[[3.0, 4.0, 0.0]]]))
        assert value == 25.0

    def test_matches_direct_and_fd(self, rng):
        off = rng.normal(size=(6, 4, 3))
        value, grad = lo.l2_offset_reg(off)
        count = 24
        assert value == pytest.approx(float((off ** 2).sum() / count), abs=1e-13)
        h = 1e-7
        for _ in range(20):
            i, j, c = rng.integers(6), rng.integers(4), rng.integers(3)
            op = off.copy()
            op[i, j, c] += h
            om = off.copy()
            om[i, j, c] -= h
            fd = (lo.l2_offset_reg(op)[0] - lo.l2_offset_reg(om)[0]) / (2 * h)
            assert abs(fd - grad[i, j, c]) < 1e-6 * max(1.0, abs(fd))

    def test_empty(self):
        value, grad = lo.l2_offset_reg(np.zeros((0, 4, 3)))
        assert value == 0.0


def exhaustive_reference(fa, fb, pairs, cfg):
    """Independent implementation mining over all non-corresponding rows."""
    pos_set = {(int(i), int(j)) for i, j in pairs}
    pos = float(np.mean([
        max(np.linalg.norm(fa[i] - fb[j]) - cfg.m_p, 0.0) ** 2 for i, j in pairs]))

    def side(anchors, cands, keys):
        terms = []
        for (i, j) in pairs:
            aid = i if keys == "a" else j
            dists = [np.linalg.norm(anchors[aid] - cands[c])
                     for c in range(len(cands))
                     if ((aid, c) if keys == "a" else (c, aid)) not in pos_set]
            if dists:
                terms.append(max(cfg.m_n - min(dists), 0.0) ** 2)
        return float(np.mean(terms)) if terms else 0.0

    return pos + 0.5 * (side(fa, fb, "a") + side(fb, fa, "b"))


def set_dict_miner(anchors, anchor_ids, partner_ids, candidates, candidate_ids):
    """The miner hardest_contrastive used before the boolean mask: a set of
    forbidden (anchor id, candidate id) pairs, applied through a column dict
    and per-anchor-id row lists. Kept as the reference for its bytes."""
    forbidden = {(int(i), int(j)) for i, j in zip(anchor_ids, partner_ids)}
    d2 = (
        np.sum(anchors * anchors, axis=1)[:, None]
        + np.sum(candidates * candidates, axis=1)[None, :]
        - 2.0 * anchors @ candidates.T
    )
    d = np.sqrt(np.maximum(d2, 0.0))
    col_of = {int(cid): col for col, cid in enumerate(candidate_ids)}
    rows_of: dict[int, list[int]] = {}
    for row, aid in enumerate(anchor_ids):
        rows_of.setdefault(int(aid), []).append(row)
    for aid, cid in forbidden:
        col = col_of.get(cid)
        if col is None:
            continue
        for row in rows_of.get(aid, ()):
            d[row, col] = np.inf
    hardest_col = np.argmin(d, axis=1)
    hardest = d[np.arange(d.shape[0]), hardest_col]
    ok = np.isfinite(hardest)
    return hardest, hardest_col, ok


@st.composite
def _contrastive_cases(draw):
    """Small feature maps with positive pairs whose anchor and partner ids
    repeat, more or fewer pairs than n_pos_pairs, and candidate counts above
    and below n_neg_candidates. A map of one or two rows makes every
    candidate of some anchors a positive partner."""
    n_a, n_b = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    n_pairs = draw(st.integers(1, 16))
    pairs = np.array([[draw(st.integers(0, n_a - 1)), draw(st.integers(0, n_b - 1))]
                      for _ in range(n_pairs)], dtype=np.int64)
    cfg = lo.LossConfig(n_pos_pairs=draw(st.integers(1, 12)),
                        n_neg_candidates=draw(st.integers(1, 10)))
    seed = draw(st.integers(0, 2**32 - 1))
    frng = np.random.default_rng(seed)
    return frng.normal(size=(n_a, 3)), frng.normal(size=(n_b, 3)), pairs, cfg, seed


class TestHardestContrastive:
    CFG = lo.LossConfig(n_pos_pairs=10_000, n_neg_candidates=10_000)

    def test_inactive_hinges_zero(self):
        # positives coincide; the only other rows are farther than m_n
        fa = np.array([[0.0, 0.0], [10.0, 0.0]])
        fb = np.array([[0.0, 0.0], [0.0, 10.0]])
        value, ga, gb = lo.hardest_contrastive(fa, fb, [(0, 0)], self.CFG)
        assert value == 0.0
        assert not ga.any() and not gb.any()

    def test_single_positive_hinge_squared(self):
        fa = np.array([[0.0, 0.0]])
        fb = np.array([[0.3, 0.0]])
        cfg = lo.LossConfig(m_p=0.1, m_n=1.4, n_pos_pairs=10, n_neg_candidates=10)
        value, _, _ = lo.hardest_contrastive(fa, fb, [(0, 0)], cfg)
        assert value == pytest.approx(0.04, abs=1e-12)  # no admissible negatives

    def test_matches_exhaustive_reference(self, rng):
        for trial in range(10):
            fa = rng.normal(size=(10, 4))
            fb = rng.normal(size=(10, 4))
            k = int(rng.integers(1, 8))
            pairs = np.stack([rng.choice(10, k, replace=False),
                              rng.choice(10, k, replace=False)], axis=1)
            value, _, _ = lo.hardest_contrastive(fa, fb, pairs, self.CFG)
            assert value == pytest.approx(exhaustive_reference(fa, fb, pairs, self.CFG),
                                          abs=1e-9)

    def test_gradients_finite_differences(self, rng):
        fa = rng.normal(size=(10, 4))
        fb = rng.normal(size=(10, 4))
        pairs = np.array([[0, 0], [1, 1], [4, 7]])
        value, ga, gb = lo.hardest_contrastive(fa, fb, pairs, self.CFG)
        h = 1e-7
        for _ in range(40):
            side, i, c = rng.integers(2), rng.integers(10), rng.integers(4)
            if side == 0:
                fp, fm = fa.copy(), fa.copy()
                fp[i, c] += h
                fm[i, c] -= h
                lp = lo.hardest_contrastive(fp, fb, pairs, self.CFG)[0]
                lm = lo.hardest_contrastive(fm, fb, pairs, self.CFG)[0]
                g = ga[i, c]
            else:
                fp, fm = fb.copy(), fb.copy()
                fp[i, c] += h
                fm[i, c] -= h
                lp = lo.hardest_contrastive(fa, fp, pairs, self.CFG)[0]
                lm = lo.hardest_contrastive(fa, fm, pairs, self.CFG)[0]
                g = gb[i, c]
            fd = (lp - lm) / (2 * h)
            assert abs(fd - g) / max(abs(fd), abs(g), 1e-8) < 1e-5

    def test_orthogonal_invariance(self, rng):
        fa = rng.normal(size=(12, 6))
        fb = rng.normal(size=(12, 6))
        pairs = [(0, 0), (3, 3), (5, 9)]
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        v0 = lo.hardest_contrastive(fa, fb, pairs, self.CFG)[0]
        v1 = lo.hardest_contrastive(fa @ q.T, fb @ q.T, pairs, self.CFG)[0]
        assert v1 == pytest.approx(v0, abs=1e-9)

    def test_sampling_deterministic_given_rng(self, rng):
        fa = rng.normal(size=(400, 4))
        fb = rng.normal(size=(400, 4))
        pairs = np.stack([np.arange(300), np.arange(300)], axis=1)
        cfg = lo.LossConfig(n_pos_pairs=64, n_neg_candidates=64)
        v1 = lo.hardest_contrastive(fa, fb, pairs, cfg, rng=np.random.default_rng(5))[0]
        v2 = lo.hardest_contrastive(fa, fb, pairs, cfg, rng=np.random.default_rng(5))[0]
        assert v1 == v2

    @settings(max_examples=300, deadline=None)
    @given(case=_contrastive_cases())
    def test_mask_miner_matches_set_dict_reference_bytes(self, case):
        fa, fb, pairs, cfg, seed = case
        got = lo.hardest_contrastive(fa, fb, pairs, cfg, rng=np.random.default_rng(seed))
        with mock.patch.object(lo, "_mine_hardest", set_dict_miner):
            ref = lo.hardest_contrastive(fa, fb, pairs, cfg, rng=np.random.default_rng(seed))
        assert np.float64(got[0]).tobytes() == np.float64(ref[0]).tobytes()
        assert got[1].tobytes() == ref[1].tobytes() and got[2].tobytes() == ref[2].tobytes()
        ids_a, ids_b = pairs[:, 0], pairs[:, 1]
        for mined, expect in zip(lo._mine_hardest(fa[ids_a], ids_a, ids_b, fb, np.arange(len(fb))),
                                 set_dict_miner(fa[ids_a], ids_a, ids_b, fb, np.arange(len(fb)))):
            assert mined.tobytes() == expect.tobytes()

    def test_anchor_whose_candidates_are_all_partners_is_masked(self):
        # fb has one row, the positive partner of both anchors: side A mines
        # nothing, and anchor id 0 appears twice
        fa = np.array([[0.0, 0.0], [0.5, 0.0], [3.0, 0.0]])
        fb = np.array([[0.2, 0.0]])
        ids_a, ids_b = np.array([0, 1, 0]), np.array([0, 0, 0])
        hardest, _, ok = lo._mine_hardest(fa[ids_a], ids_a, ids_b, fb, np.arange(1))
        assert not ok.any() and np.isinf(hardest).all()
        pairs = np.stack([ids_a, ids_b], axis=1)
        got = lo.hardest_contrastive(fa, fb, pairs, self.CFG)
        with mock.patch.object(lo, "_mine_hardest", set_dict_miner):
            ref = lo.hardest_contrastive(fa, fb, pairs, self.CFG)
        assert got[0] == ref[0]
        assert got[1].tobytes() == ref[1].tobytes() and got[2].tobytes() == ref[2].tobytes()

    def test_candidates_drawn_for_a_then_b_after_the_positives(self, rng):
        fa, fb = rng.normal(size=(30, 3)), rng.normal(size=(25, 3))
        pairs = np.stack([np.arange(20), np.arange(20)], axis=1)
        cfg = lo.LossConfig(n_pos_pairs=8, n_neg_candidates=10)
        mine, seen = lo._mine_hardest, []

        def spy(*args):
            seen.append(args[-1])
            return mine(*args)

        with mock.patch.object(lo, "_mine_hardest", spy):
            lo.hardest_contrastive(fa, fb, pairs, cfg, rng=np.random.default_rng(9))
        draws = np.random.default_rng(9)
        draws.choice(20, size=8, replace=False)
        cand_a = np.sort(draws.choice(30, size=10, replace=False))
        cand_b = np.sort(draws.choice(25, size=10, replace=False))
        # side A's anchors mine among B's candidates, then side B's among A's
        np.testing.assert_array_equal(seen[0], cand_b)
        np.testing.assert_array_equal(seen[1], cand_a)

    def test_no_positives_raises(self, rng):
        with pytest.raises(NoPositives):
            lo.hardest_contrastive(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)),
                                   np.zeros((0, 2)), self.CFG)

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            lo.LossConfig(m_p=0.5, m_n=0.5)

    @pytest.mark.parametrize("field", ["lambda1", "lambda2", "m_p", "m_n"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_rejects_nan_infinite_or_negative(self, field, value):
        with pytest.raises(ValueError, match=field):
            lo.LossConfig(**{field: value})


class TestTotalLoss:
    def test_metric_only_ablation(self):
        cfg = lo.LossConfig(lambda1=0.0, lambda2=0.0)
        report = lo.total_loss(1.25, 7.0, 3.0, cfg)
        assert report.total == 1.25

    def test_arithmetic(self):
        cfg = lo.LossConfig(lambda1=1.0, lambda2=0.1)
        report = lo.total_loss(1.0, 2.0, 3.0, cfg)
        assert report.total == pytest.approx(3.3, abs=1e-12)

    def test_report_invariant_random(self, rng):
        for _ in range(50):
            l_ml, l_cd, l_l2 = rng.uniform(0, 10, 3)
            lam1, lam2 = rng.uniform(0, 2, 2)
            cfg = lo.LossConfig(lambda1=lam1, lambda2=lam2)
            rep = lo.total_loss(l_ml, l_cd, l_l2, cfg)
            assert rep.total == pytest.approx(rep.l_ml + lam1 * rep.l_cd + lam2 * rep.l_l2,
                                              abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            lo.total_loss(float("nan"), 0.0, 0.0, lo.LossConfig())
