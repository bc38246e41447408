"""Acceptance gate: every numbered criterion runs at its stated tolerance
and prints one PASS line (run with ``pytest -s`` to see them).

The toy training study (criteria 7 and 8) trains real models and takes a
few minutes. Everything is seeded; trained parameters are bit-identical
only for a fixed numpy/BLAS build and BLAS thread count, and criterion 7's
held-out ratios differ between one and two OpenBLAS threads.
"""

import time

import numpy as np
import pytest
from conftest import relative_rotation_angle_deg

from distreg import cli, dataio, geometry as g, losses as lo, model as mdl
from distreg import aggregate as agg
from distreg import pipeline as pl
from distreg import simulate as sim
from distreg.register import NORMAL, RansacConfig, evaluate, ransac_register, registration_recall


def _report(number, name, elapsed, limit, detail=""):
    tail = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): PASS in {elapsed:.1f}s (limit {limit:.0f}s){tail}")
    assert elapsed < limit, f"criterion {number} exceeded its runtime limit"


# ---------------------------------------------------------------------------
# 1. Geometry oracle suite
# ---------------------------------------------------------------------------

def test_criterion_1_geometry_oracles():
    t0 = time.time()
    rng = np.random.default_rng(101)

    # Kabsch exact recovery over 100 random rigid transforms
    cloud = rng.uniform(-10, 10, (50, 3))
    for _ in range(100):
        t_gt = g.random_transform(rng, 5.0)
        moved = g.apply_transform(cloud, t_gt)
        t_est = g.kabsch_points(cloud, moved)
        assert relative_rotation_angle_deg(t_est.rotation, t_gt.rotation) < 1e-6
        assert g.rte(t_est.translation, t_gt.translation) < 1e-9

    # kd-tree equals brute force on 100 random query sets
    for trial in range(100):
        pts = rng.uniform(-10, 10, (200, 3))
        queries = rng.uniform(-12, 12, (20, 3))
        d, i = g.NeighborIndex(pts).nearest(queries)
        d2 = np.linalg.norm(queries[:, None, :] - pts[None, :, :], axis=2)
        np.testing.assert_array_equal(i, np.argmin(d2, axis=1))
        np.testing.assert_allclose(d, d2.min(axis=1), rtol=1e-12)

    # voxel occupancy property on 10k-point clouds
    for trial in range(3):
        pts = rng.uniform(0, 10, (10_000, 3))
        out = g.voxel_downsample(pts, 0.5)
        cells = {tuple(c) for c in np.floor(pts / 0.5).astype(int)}
        assert out.shape[0] == len(cells)
        out_cells = np.floor(out / 0.5).astype(int)
        assert np.unique(out_cells, axis=0).shape[0] == out.shape[0]

    _report(1, "geometry oracles", time.time() - t0, 10.0)


# ---------------------------------------------------------------------------
# 2. Loss oracle suite
# ---------------------------------------------------------------------------

def test_criterion_2_loss_oracles():
    t0 = time.time()
    rng = np.random.default_rng(202)

    for _ in range(5):
        a = rng.uniform(-5, 5, (200, 3))
        b = rng.uniform(-5, 5, (200, 3))
        value, _ = lo.chamfer(a, b)
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        brute = d2.min(axis=1).mean() + d2.min(axis=0).mean()
        assert abs(value - brute) < 1e-12

    assert lo.chamfer(np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0]]))[0] == 2.0

    cfg = lo.LossConfig(n_pos_pairs=10_000, n_neg_candidates=10_000)
    for trial in range(10):
        fa = rng.normal(size=(10, 4))
        fb = rng.normal(size=(10, 4))
        k = int(rng.integers(1, 8))
        pairs = np.stack([rng.choice(10, k, replace=False),
                          rng.choice(10, k, replace=False)], axis=1)
        value, _, _ = lo.hardest_contrastive(fa, fb, pairs, cfg)
        pos_set = {(int(i), int(j)) for i, j in pairs}
        pos = float(np.mean([max(np.linalg.norm(fa[i] - fb[j]) - cfg.m_p, 0.0) ** 2
                             for i, j in pairs]))

        def side(anchors, cands, forward):
            terms = []
            for i, j in pairs:
                aid = i if forward else j
                ds = [np.linalg.norm(anchors[aid] - cands[c]) for c in range(len(cands))
                      if ((aid, c) if forward else (c, aid)) not in pos_set]
                if ds:
                    terms.append(max(cfg.m_n - min(ds), 0.0) ** 2)
            return float(np.mean(terms)) if terms else 0.0

        reference = pos + 0.5 * (side(fa, fb, True) + side(fb, fa, False))
        assert abs(value - reference) < 1e-9

    _report(2, "loss oracles", time.time() - t0, 10.0)


# ---------------------------------------------------------------------------
# 3. Gradient check: full loss, every parameter, central differences
# ---------------------------------------------------------------------------

def test_criterion_3_gradient_check():
    t0 = time.time()
    seed = 3  # a verified tie-free instance at step 1e-4
    rng = np.random.default_rng(seed)
    cfg_model = mdl.ModelConfig(k=4, l=8, encoder_hidden=(8, 16), encoder_post_hidden=16,
                                phi=2, decoder_hidden=(16, 8))
    enc, dec = mdl.init_params(seed, cfg_model)
    for name, tensor in mdl.named_parameters(enc, dec):
        mdl.set_parameter(enc, dec, name, tensor + 0.05 * rng.normal(size=tensor.shape))

    n = 32
    cloud_a = rng.uniform(-3, 3, (n, 3))
    t_gt = g.random_transform(rng, 1.0)
    cloud_b = g.apply_transform(cloud_a, t_gt) + rng.normal(0, 0.05, (n, 3))
    gt_pairs = g.Correspondences(np.stack([np.arange(n)] * 2, axis=1))
    apc_a = rng.uniform(-3, 3, (60, 3))
    apc_b = rng.uniform(-3, 3, (55, 3))
    loss_cfg = lo.LossConfig(lambda1=1.0, lambda2=0.1,
                             n_pos_pairs=1000, n_neg_candidates=1000)

    _, grads = pl.pair_loss_and_grads(cloud_a, cloud_b, apc_a, apc_b, gt_pairs,
                                      enc, dec, loss_cfg)

    def full_loss(e, d):
        report, _ = pl.pair_loss_and_grads(cloud_a, cloud_b, apc_a, apc_b, gt_pairs,
                                           e, d, loss_cfg)
        return report.total

    import copy
    h = 1e-4
    worst = 0.0
    checked = 0
    for name, tensor in mdl.named_parameters(enc, dec):
        flat = tensor.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            e2, d2 = copy.deepcopy(enc), copy.deepcopy(dec)
            plus = tensor.copy()
            plus.ravel()[idx] = orig + h
            mdl.set_parameter(e2, d2, name, plus)
            up = full_loss(e2, d2)
            minus = tensor.copy()
            minus.ravel()[idx] = orig - h
            mdl.set_parameter(e2, d2, name, minus)
            down = full_loss(e2, d2)
            fd = (up - down) / (2 * h)
            analytic = grads[name].ravel()[idx]
            rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8)
            worst = max(worst, rel)
            checked += 1
            assert rel < 1e-3, f"{name}[{idx}]: fd={fd:.6g} analytic={analytic:.6g}"

    _report(3, "gradient check", time.time() - t0, 60.0,
            f"{checked} parameters, worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. Aggregation suite
# ---------------------------------------------------------------------------

def test_criterion_4_aggregation_suite(small_scene):
    t0 = time.time()
    _, _, seq = small_scene
    cfg = agg.ApgConfig(psi=3, alpha=10.0, scope_radius=50.0, voxel_size=0.3)

    apc = agg.generate_apc(seq, 35, cfg)
    assert np.linalg.norm(apc, axis=1).max() <= cfg.scope_radius
    cells = np.floor(apc / cfg.voxel_size).astype(np.int64)
    assert np.unique(cells, axis=0).shape[0] == cells.shape[0]

    rng = np.random.default_rng(404)
    pts = rng.uniform(-60, 60, (3000, 3))
    ident = dataio.FrameSequence(tuple(
        dataio.Frame(pts, g.RigidTransform.identity(), k) for k in range(7)))
    degenerate = agg.generate_apc(ident, 3, cfg)
    reference = g.voxel_downsample(pts[np.linalg.norm(pts, axis=1) <= 50.0], 0.3)
    assert degenerate.shape == reference.shape
    np.testing.assert_allclose(np.sort(degenerate, axis=0), np.sort(reference, axis=0),
                               atol=1e-12)

    plain = agg.generate_apc(seq, 35, cfg)
    zero_disturb = agg.generate_apc(seq, 35, cfg, agg.DisturbConfig(0, seed=11))
    np.testing.assert_array_equal(zero_disturb, plain)

    d1 = agg.generate_apc(seq, 35, cfg, agg.DisturbConfig(3, seed=11))
    d2 = agg.generate_apc(seq, 35, cfg, agg.DisturbConfig(3, seed=11))
    np.testing.assert_array_equal(d1, d2)

    _report(4, "aggregation suite", time.time() - t0, 10.0)


# ---------------------------------------------------------------------------
# 5. Registration robustness
# ---------------------------------------------------------------------------

def test_criterion_5_ransac_robustness():
    t0 = time.time()
    successes = 0
    corr = g.Correspondences(np.stack([np.arange(100)] * 2, axis=1))
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        t_gt = g.random_transform(rng, 10.0)
        a = rng.uniform(-30, 30, (100, 3))
        b = g.apply_transform(a, t_gt)
        bad = rng.choice(100, size=30, replace=False)
        b[bad] = rng.uniform(-30, 30, (30, 3))
        est = ransac_register(corr, a, b,
                              RansacConfig(iterations=1000, inlier_threshold=0.3, seed=seed))
        successes += evaluate(est.transform, t_gt).success["normal"]
    assert successes >= 19
    _report(5, "registration robustness", time.time() - t0, 30.0,
            f"{successes}/20 seeds under the normal criterion")


# ---------------------------------------------------------------------------
# 6. Distillation correctness through the CLI
# ---------------------------------------------------------------------------

def test_criterion_6_distillation_correctness(tmp_path):
    t0 = time.time()
    ds = tmp_path / "ds"
    assert cli.main([
        "simulate", "--seed", "31", "--frames", "50", "--extent", "70",
        "--obstacles", "16", "--spacing", "1.2", "--start-x", "-29",
        "--azimuth-steps", "128", "--rings", "5", "--ring-lo", "-10",
        "--ring-hi", "2", "--max-range", "60", "--out", str(ds),
    ]) == 0
    pairs_path = tmp_path / "pairs.csv"
    assert cli.main([
        "distill", "--dataset", str(ds), "--d1", "5", "--d2", "30",
        "--max-overlap", "0.3", "--tau", "0.5", "--require-nonempty",
        "--out", str(pairs_path),
    ]) == 0

    seq = dataio.load_dataset(ds)
    records = dataio.read_pairs_file(pairs_path)
    assert records

    def brute_overlap(cloud_a, cloud_b, transform, tau):
        moved = g.apply_transform(cloud_a, transform)
        d_ab = np.linalg.norm(moved[:, None, :] - cloud_b[None, :, :], axis=2)
        o_ab = float(np.count_nonzero(d_ab.min(axis=1) < tau)) / cloud_a.shape[0]
        o_ba = float(np.count_nonzero(d_ab.min(axis=0) < tau)) / cloud_b.shape[0]
        return min(o_ab, o_ba)

    origins = seq.origins()
    for r in records:
        pa, pb = seq.position_of(r.i), seq.position_of(r.j)
        d = float(np.linalg.norm(origins[pa] - origins[pb]))
        assert 5.0 <= d <= 30.0
        assert r.distance == pytest.approx(d, abs=1e-12)
        gt = seq[pb].pose.inverse().compose(seq[pa].pose)
        ov = brute_overlap(seq[pa].cloud, seq[pb].cloud, gt, 0.5)
        assert ov <= 0.3
        assert r.overlap == pytest.approx(ov, abs=1e-12)

    _report(6, "distillation correctness", time.time() - t0, 60.0,
            f"{len(records)} emitted pairs re-verified")


# ---------------------------------------------------------------------------
# 7 + 8. Toy reproduction of the aggregated-reconstruction effect
# ---------------------------------------------------------------------------

TOY_MODEL = mdl.ModelConfig(k=24, l=32, phi=4, decoder_hidden=(512, 256), normalize=False)


def _toy_train_config(lambda1, lambda2, epochs=20, apg=None):
    return pl.TrainConfig(
        epochs=epochs, learning_rate=1e-2, momentum=0.9, seed=5,
        input_voxel_size=0.3, gt_corr_radius=0.45, model=TOY_MODEL,
        apg=apg or agg.ApgConfig(psi=3, alpha=5.0, scope_radius=40.0, voxel_size=0.3),
        loss=lo.LossConfig(lambda1=lambda1, lambda2=lambda2,
                           n_pos_pairs=512, n_neg_candidates=4096),
    )


def _mean_inlier_ratio(enc, seq_a, seq_b, pairs, voxel=0.3):
    ratios = []
    for i, j in pairs:
        fa = seq_a[seq_a.position_of(i)]
        fb = seq_b[seq_b.position_of(j)]
        ca = g.voxel_downsample(fa.cloud, voxel)
        cb = g.voxel_downsample(fb.cloud, voxel)
        feat_a = mdl.encoder_forward(ca, enc)
        feat_b = mdl.encoder_forward(cb, enc)
        ratios.append(pl.feature_inlier_ratio(
            feat_a, feat_b, ca, cb, pl.relative_gt(fa, fb), radius=0.6))
    return float(np.mean(ratios))


@pytest.fixture(scope="session")
def toy_study():
    """Two-vehicle world; both arms trained for equal epochs from identical
    initialization (loss weights are the only difference)."""
    t0 = time.time()
    world = sim.simulate_world(17, 56.0, 30)
    lidar = sim.LidarConfig(azimuth_steps=320,
                            elevation_angles=tuple(np.linspace(-10, 4, 8)),
                            max_range=60.0, range_noise_sigma=0.01)
    seq_a = sim.simulate_sequence(world, sim.line_trajectory((-20, -5), 0.0, 1.0, 41),
                                  lidar, seed=1)
    seq_b = sim.simulate_sequence(world, sim.line_trajectory((-20, +5), 0.0, 1.0, 41),
                                  lidar, seed=2)

    train_records = dataio.distill_records(seq_a, seq_b, dataio.PairSpec(10.0, 20.0, 1.0), 0.5)
    train_pairs = [(r.i, r.j) for r in train_records[::len(train_records) // 16]][:16]
    # held-out pairs: sensor separation >= half the world extent (28 m)
    held_records = dataio.distill_records(seq_a, seq_b, dataio.PairSpec(28.0, 36.0, 1.0), 0.5)
    held_pairs = [(r.i, r.j) for r in held_records[::len(held_records) // 16]][:16]
    assert all(r.distance >= 56.0 / 2 for r in held_records)

    arms = {}
    logs = {}
    for label, (lam1, lam2) in (("baseline", (0.0, 0.0)), ("apr", (0.3, 0.003))):
        enc, dec, log = pl.train(seq_a, seq_b, train_pairs, _toy_train_config(lam1, lam2))
        arms[label] = enc
        logs[label] = log
    return dict(seq_a=seq_a, seq_b=seq_b, train_pairs=train_pairs, held_pairs=held_pairs,
                arms=arms, logs=logs, elapsed=time.time() - t0)


def test_criterion_7_toy_apr_reproduction(toy_study):
    t0 = time.time() - toy_study["elapsed"]
    seq_a, seq_b = toy_study["seq_a"], toy_study["seq_b"]
    held = toy_study["held_pairs"]
    n_train = len(toy_study["train_pairs"])

    # (a) both final losses < 0.5 x initial
    ratios = {}
    for label, log in toy_study["logs"].items():
        first = float(np.mean([s.total for s in log.steps[:n_train]]))
        last = float(np.mean([s.total for s in log.steps[-n_train:]]))
        ratios[label] = last / first
        assert last < 0.5 * first, f"{label} arm: {last:.3f} !< 0.5 * {first:.3f}"

    # (b) trained APR features vs the random-initialization baseline
    enc_random, _ = mdl.init_params(5, TOY_MODEL)
    ratio_random = _mean_inlier_ratio(enc_random, seq_a, seq_b, held)
    ratio_apr = _mean_inlier_ratio(toy_study["arms"]["apr"], seq_a, seq_b, held)
    ratio_base = _mean_inlier_ratio(toy_study["arms"]["baseline"], seq_a, seq_b, held)
    assert ratio_apr >= 3.0 * ratio_random

    # (c) APR arm within 2 percentage points of (here: above) the baseline arm
    assert ratio_apr >= ratio_base - 0.02

    elapsed = time.time() - t0
    _report(7, "toy aggregated-reconstruction study", elapsed, 600.0,
            f"loss ratios base={ratios['baseline']:.3f} apr={ratios['apr']:.3f}; "
            f"held-out inlier ratios random={ratio_random:.5f} "
            f"baseline={ratio_base:.5f} apr={ratio_apr:.5f}")


@pytest.fixture(scope="session")
def dense_scene():
    """Structure-rich world for protocols that need working registration:
    shallow rings and many obstacles keep open ground from dominating."""
    world = sim.simulate_world(23, 50.0, 44)
    lidar = sim.LidarConfig(azimuth_steps=320,
                            elevation_angles=tuple(np.linspace(-8, 0, 6)),
                            max_range=50.0, range_noise_sigma=0.01)
    seq_a = sim.simulate_sequence(world, sim.line_trajectory((-18, -4), 0.0, 1.0, 37),
                                  lidar, seed=1)
    seq_b = sim.simulate_sequence(world, sim.line_trajectory((-18, +4), 0.0, 1.0, 37),
                                  lidar, seed=2)
    return seq_a, seq_b


def test_criterion_8_protocol_smoke_sweeps(dense_scene):
    t0 = time.time()
    seq_a, seq_b = dense_scene
    apg_cfg = agg.ApgConfig(psi=3, alpha=5.0, scope_radius=35.0, voxel_size=0.3)

    # disturbance sweep: one (small) model per n_disturb, clean validation
    tiny = mdl.ModelConfig(k=8, l=16, encoder_hidden=(8, 16), encoder_post_hidden=16,
                           phi=2, decoder_hidden=(64, 32), normalize=False)
    records = [r for r in dataio.distill_records(seq_a, seq_b, dataio.PairSpec(9.0, 18.0, 1.0), 0.5)
               if r.overlap >= 0.12]
    sweep_train = [(r.i, r.j) for r in records[::len(records) // 4]][:4]
    sweep_val = [(r.i, r.j) for r in records[2::len(records) // 3]][:3]
    sweep_cfg = pl.TrainConfig(
        epochs=1, learning_rate=5e-3, momentum=0.9, seed=5,
        input_voxel_size=0.4, gt_corr_radius=0.45, model=tiny, apg=apg_cfg,
        loss=lo.LossConfig(lambda1=0.3, lambda2=0.003),
    )
    disturb_rr = pl.eval_disturb(seq_a, seq_b, sweep_train, sweep_val, sweep_cfg,
                                 [0, 1, 2, 3, 4, 5], NORMAL,
                                 RansacConfig(iterations=500, inlier_threshold=0.4, seed=0))
    assert sorted(disturb_rr) == [0, 1, 2, 3, 4, 5]
    assert all(np.isfinite(v) and 0.0 <= v <= 1.0 for v in disturb_rr.values())

    # density sweep with a briefly trained model on near same-sequence pairs
    # (the density protocol minimizes view disparity by construction)
    train_pairs = [(r.i, r.j) for r in records[::len(records) // 16]][:16]
    enc, _, _ = pl.train(seq_a, seq_b, train_pairs,
                         _toy_train_config(0.3, 0.003, epochs=8, apg=apg_cfg))
    self_records = dataio.distill_records(seq_a, seq_a, dataio.PairSpec(3.0, 8.0, 1.0), 0.5)
    density_pairs = [(r.i, r.j) for r in self_records[::len(self_records) // 8]][:8]
    density = pl.eval_density(enc, seq_a, seq_a, density_pairs, [0.1, 0.2, 0.5, 1.0],
                              RansacConfig(iterations=10_000, inlier_threshold=0.4, seed=0),
                              seed=3, input_voxel_size=0.3)
    density_rr = {r: registration_recall(res, NORMAL) for r, res in density.items()}
    assert sorted(density_rr) == [0.1, 0.2, 0.5, 1.0]
    assert all(np.isfinite(v) for v in density_rr.values())
    assert density_rr[1.0] >= density_rr[0.1]

    _report(8, "protocol smoke sweeps", time.time() - t0, 600.0,
            f"disturb RR {[round(disturb_rr[n], 3) for n in range(6)]}; "
            f"density RR {[round(density_rr[r], 3) for r in (0.1, 0.2, 0.5, 1.0)]}")
