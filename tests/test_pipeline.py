import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from distreg import model as mdl
from distreg import pipeline as pl
from distreg import simulate as sim
from distreg.aggregate import ApgConfig, generate_apc
from distreg.dataio import PairSpec, distill_records
from distreg.errors import EmptyCloud, NoPairs, NonFinite, NonFiniteLoss, UnknownFrame
from distreg.geometry import NeighborIndex, apply_transform, random_transform
from distreg.losses import LossConfig, chamfer, hardest_contrastive, l2_offset_reg, total_loss
from distreg.register import NORMAL, RansacConfig, registration_recall

TINY_MODEL = mdl.ModelConfig(k=6, l=12, encoder_hidden=(8, 16), encoder_post_hidden=16,
                             phi=2, decoder_hidden=(32, 16), normalize=False)


@pytest.fixture(scope="module")
def toy_setup():
    """Small two-vehicle scene: cheap enough for training smoke tests."""
    world = sim.simulate_world(8, 50.0, 18)
    lidar = sim.LidarConfig(azimuth_steps=128, elevation_angles=tuple(np.linspace(-10, 2, 5)),
                            max_range=50.0, range_noise_sigma=0.01)
    seq_a = sim.simulate_sequence(world, sim.line_trajectory((-15, -4), 0.0, 1.5, 21), lidar, seed=1)
    seq_b = sim.simulate_sequence(world, sim.line_trajectory((-15, +4), 0.0, 1.5, 21), lidar, seed=2)
    recs = distill_records(seq_a, seq_b, PairSpec(8.0, 18.0, 1.0), tau=0.5)
    pairs = [(r.i, r.j) for r in recs[:: max(1, len(recs) // 6)]][:6]
    return seq_a, seq_b, pairs


def toy_config(**overrides):
    base = dict(
        epochs=2, learning_rate=5e-3, momentum=0.9, seed=3,
        input_voxel_size=0.5, gt_corr_radius=0.6,
        model=TINY_MODEL,
        apg=ApgConfig(psi=2, alpha=3.0, scope_radius=25.0, voxel_size=0.4),
        loss=LossConfig(lambda1=0.2, lambda2=0.002),
    )
    base.update(overrides)
    return pl.TrainConfig(**base)


class TestGtCorrespondences:
    def test_mutual_within_radius(self, rng):
        a = rng.uniform(-5, 5, (60, 3))
        t = random_transform(rng, 1.0)
        b = apply_transform(a, t)
        pairs = pl.gt_correspondences(a, b, t, 0.1)
        assert pairs.shape == (60, 2) and pairs.dtype == np.int64
        np.testing.assert_array_equal(pairs[:, 0], pairs[:, 1])

    def test_radius_excludes(self, rng):
        a = rng.uniform(-5, 5, (30, 3))
        b = a + np.array([1.0, 0.0, 0.0])
        assert len(pl.gt_correspondences(a, b, __import__("distreg").geometry.RigidTransform.identity(), 0.5)) == 0


class TestTrain:
    def test_no_pairs_raises(self, toy_setup):
        seq_a, seq_b, _ = toy_setup
        with pytest.raises(NoPairs):
            pl.train(seq_a, seq_b, [], toy_config())

    def test_step_accounting_one_epoch(self, toy_setup):
        seq_a, seq_b, pairs = toy_setup
        pairs = pairs[:5]
        _, _, log = pl.train(seq_a, seq_b, pairs, toy_config(epochs=1))
        assert len(log.steps) == 5
        assert [s.step for s in log.steps] == list(range(5))

    def test_bit_identical_reruns(self, toy_setup):
        seq_a, seq_b, pairs = toy_setup
        cfg = toy_config()
        e1, d1, log1 = pl.train(seq_a, seq_b, pairs, cfg)
        e2, d2, log2 = pl.train(seq_a, seq_b, pairs, cfg)
        for (n1, t1), (n2, t2) in zip(mdl.named_parameters(e1, d1), mdl.named_parameters(e2, d2)):
            np.testing.assert_array_equal(t1, t2)
        assert [s.total for s in log1.steps] == [s.total for s in log2.steps]

    def test_in_place_update_matches_out_of_place_reference(self, toy_setup):
        """train's parameters after 2 epochs equal, to the byte, a loop over
        the same steps whose momentum-SGD update builds new arrays."""
        seq_a, seq_b, pairs = toy_setup
        cfg = toy_config()
        enc, dec, _ = pl.train(seq_a, seq_b, pairs, cfg)

        ref_enc, ref_dec = mdl.init_params(cfg.seed, cfg.model)
        velocity = {name: np.zeros_like(t) for name, t in mdl.named_parameters(ref_enc, ref_dec)}
        contexts = [pl._build_pair_context(seq_a, seq_b, i, j, cfg) for i, j in pairs]
        apcs = [(pl.reachable_target(generate_apc(seq_a, i, cfg.apg), ctx.cloud_a),
                 pl.reachable_target(generate_apc(seq_b, j, cfg.apg), ctx.cloud_b))
                for (i, j), ctx in zip(pairs, contexts)]
        decay_epoch = int(np.ceil(cfg.epochs * 2 / 3))
        step = 0
        for epoch in range(cfg.epochs):
            lr = cfg.learning_rate * (0.5 if epoch >= decay_epoch else 1.0)
            for pos in np.random.default_rng([cfg.seed, pl._TAG_SHUFFLE, epoch]).permutation(
                    len(pairs)):
                ctx, (apc_a, apc_b) = contexts[pos], apcs[pos]
                _, grads = pl.pair_loss_and_grads(
                    ctx.cloud_a, ctx.cloud_b, apc_a, apc_b, ctx.gt_pairs, ref_enc, ref_dec,
                    cfg.loss, rng=np.random.default_rng([cfg.seed, pl._TAG_METRIC, step]))
                grads = pl.clip_gradients(grads)
                new = {}
                for name, tensor in mdl.named_parameters(ref_enc, ref_dec):
                    velocity[name] = cfg.momentum * velocity[name] + grads[name]
                    new[name] = tensor - lr * velocity[name]
                ref_enc = replace(ref_enc, layers=tuple(new[n] for n, _ in ref_enc.named_tensors()))
                ref_dec = replace(ref_dec, layers=tuple(new[n] for n, _ in ref_dec.named_tensors()))
                step += 1
        for (n1, t1), (n2, t2) in zip(mdl.named_parameters(enc, dec),
                                      mdl.named_parameters(ref_enc, ref_dec)):
            assert n1 == n2 and t1.tobytes() == t2.tobytes(), n1

    def test_init_tensors_unchanged(self, toy_setup):
        seq_a, seq_b, pairs = toy_setup
        cfg = toy_config(epochs=1)
        init = mdl.init_params(cfg.seed + 1, cfg.model)
        before = [t.copy() for _, t in mdl.named_parameters(*init)]
        enc, dec, _ = pl.train(seq_a, seq_b, pairs, cfg, init=init)
        for (name, t), t0 in zip(mdl.named_parameters(*init), before):
            np.testing.assert_array_equal(t, t0, err_msg=name)
        assert not np.array_equal(enc.layers[0], before[0])

    def test_metric_only_arm_runs_and_matches_weights(self, toy_setup):
        seq_a, seq_b, pairs = toy_setup
        cfg = toy_config(loss=LossConfig(lambda1=0.0, lambda2=0.0))
        enc, dec, log = pl.train(seq_a, seq_b, pairs, cfg)
        assert all(s.l_cd == 0.0 and s.l_l2 == 0.0 for s in log.steps)
        assert all(s.total == s.l_ml for s in log.steps)
        # decoder untouched in the metric-only arm
        enc0, dec0 = mdl.init_params(cfg.seed, cfg.model)
        for (_, t1), (_, t0) in zip(dec.named_tensors(), dec0.named_tensors()):
            np.testing.assert_array_equal(t1, t0)

    def test_arms_share_initialization_and_pair_order(self, toy_setup):
        seq_a, seq_b, pairs = toy_setup
        base = toy_config(loss=LossConfig(lambda1=0.0, lambda2=0.0), epochs=1)
        apr = toy_config(loss=LossConfig(lambda1=0.2, lambda2=0.002), epochs=1)
        assert base.seed == apr.seed
        e0a, _ = mdl.init_params(base.seed, base.model)
        e0b, _ = mdl.init_params(apr.seed, apr.model)
        for (_, ta), (_, tb) in zip(e0a.named_tensors(), e0b.named_tensors()):
            np.testing.assert_array_equal(ta, tb)

    def test_validation_rows(self, toy_setup):
        seq_a, seq_b, pairs = toy_setup
        _, _, log = pl.train(seq_a, seq_b, pairs[:3], toy_config(epochs=2),
                             val_pairs=pairs[3:5])
        assert len(log.epochs) == 2
        assert all(0.0 <= e.val_inlier_ratio <= 1.0 for e in log.epochs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_non_finite_loss_reports_step(self, toy_setup):
        seq_a, seq_b, pairs = toy_setup
        # guaranteed divergence: a clipped step still moves the weights by
        # lr * GRAD_CLIP, far enough to overflow the features
        cfg = toy_config(learning_rate=1e100, epochs=3)
        with pytest.raises(NonFiniteLoss) as exc:
            pl.train(seq_a, seq_b, pairs, cfg)
        assert exc.value.step >= 0

    def test_empty_scope_crop_names_the_frame(self, toy_setup):
        # no return of the scene lies within 1 cm of its sensor
        seq_a, seq_b, pairs = toy_setup
        cfg = toy_config(apg=ApgConfig(psi=2, alpha=3.0, scope_radius=0.01, voxel_size=0.4))
        i = pairs[0][0]
        with pytest.raises(EmptyCloud, match=rf"^frame {i} of the first sequence has no point "
                                             r"within the scope radius 0\.01 m$") as exc:
            pl.train(seq_a, seq_b, pairs[:1], cfg)
        assert exc.value.exit_code == 4


def serial_pair_loss_and_grads(cloud_a, cloud_b, apc_a, apc_b, gt_pairs, enc, dec, cfg, rng):
    """``pl.pair_loss_and_grads`` as one thread ran it: both clouds encoded,
    the contrastive loss, then each cloud's decoder terms and backward in
    turn, summed A then B. A symmetric decoder gets neighborhoods indexed
    afresh from the cloud, so the byte comparison also checks that the
    encoder's neighborhoods, which the step reuses, are the cloud's."""
    fa, cache_a = mdl.encoder_forward_cached(cloud_a, enc)
    fb, cache_b = mdl.encoder_forward_cached(cloud_b, enc)
    l_ml, d_fa, d_fb = hardest_contrastive(fa, fb, gt_pairs, cfg, rng=rng)
    run_decoder = cfg.lambda1 > 0 or cfg.lambda2 > 0
    l_cd = 0.0
    l_l2 = 0.0
    halves = []
    for cloud, feats, apc, cache, d_f in ((cloud_a, fa, apc_a, cache_a, d_fa),
                                          (cloud_b, fb, apc_b, cache_b, d_fb)):
        dec_cache = d_off = None
        if run_decoder:
            idx = None
            if dec.variant == "symmetric":
                _, idx = NeighborIndex(cloud).knearest(cloud, enc.k)
            offsets, dec_cache = mdl.decoder_forward_cached(feats, dec, idx)
            cd, d_recon = chamfer(mdl.fuse(cloud, offsets), apc)
            reg, d_reg = l2_offset_reg(offsets)
            l_cd += cd
            l_l2 += reg
            d_off = cfg.lambda1 * d_recon.reshape(offsets.shape) + cfg.lambda2 * d_reg
        halves.append(mdl.backward(enc, cache, d_f, dec, dec_cache, d_off))
    grads_a, grads_b = halves
    return total_loss(l_ml, l_cd, l_l2, cfg), {n: g + grads_b[n] for n, g in grads_a.items()}


@pytest.fixture(scope="module")
def step_inputs(toy_setup):
    """One training pair's clouds, aggregates and correspondences."""
    seq_a, seq_b, pairs = toy_setup
    cfg = toy_config()
    i, j = pairs[0]
    ctx = pl._build_pair_context(seq_a, seq_b, i, j, cfg)
    apc_a = pl.reachable_target(generate_apc(seq_a, i, cfg.apg), ctx.cloud_a)
    apc_b = pl.reachable_target(generate_apc(seq_b, j, cfg.apg), ctx.cloud_b)
    return ctx.cloud_a, ctx.cloud_b, apc_a, apc_b, ctx.gt_pairs


def generic_params(variant):
    """Init params moved off zero, so that the decoder's offsets and every
    gradient are nonzero."""
    enc, dec = mdl.init_params(4, replace(TINY_MODEL, decoder_variant=variant))
    rng = np.random.default_rng(9)
    for _, t in mdl.named_parameters(enc, dec):
        t += 0.05 * rng.normal(size=t.shape)
    return enc, dec


@pytest.mark.threads
class TestTwoThreadStep:
    @pytest.mark.parametrize("lambdas", [(0.2, 0.002), (0.0, 0.0)], ids=["decoder", "no-decoder"])
    @pytest.mark.parametrize("variant", ["asymmetric", "symmetric"])
    def test_bytes_match_serial_reference(self, step_inputs, variant, lambdas):
        enc, dec = generic_params(variant)
        cfg = LossConfig(lambda1=lambdas[0], lambda2=lambdas[1])
        report, grads = pl.pair_loss_and_grads(*step_inputs, enc, dec, cfg,
                                               rng=np.random.default_rng(11))
        ref_report, ref_grads = serial_pair_loss_and_grads(*step_inputs, enc, dec, cfg,
                                                           np.random.default_rng(11))
        assert report == ref_report
        assert list(grads) == list(ref_grads)
        assert all(grads[n].tobytes() == ref_grads[n].tobytes() for n in grads)
        assert (report.l_cd > 0) == (lambdas[0] > 0)

    @pytest.mark.parametrize("lambdas", [(0.2, 0.002), (0.0, 0.0)], ids=["decoder", "no-decoder"])
    @pytest.mark.parametrize("variant", ["asymmetric", "symmetric"])
    def test_one_backward_per_cloud(self, step_inputs, monkeypatch, variant, lambdas):
        enc, dec = generic_params(variant)
        calls = {"backward": [], "decoder_backward": [], "encoder_backward": []}

        def spy(name):
            fn = getattr(mdl, name)

            def counted(*args):
                calls[name].append(args[1])  # the cache each pass runs on
                return fn(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(mdl, name, spy(name))
        pl.pair_loss_and_grads(*step_inputs, enc, dec, LossConfig(*lambdas),
                               rng=np.random.default_rng(0))
        assert len(calls["backward"]) == 2
        assert calls["backward"][0] is not calls["backward"][1]
        assert len(calls["encoder_backward"]) == 2
        assert len(calls["decoder_backward"]) == (2 if lambdas[0] > 0 else 0)

    @pytest.mark.parametrize("variant", ["asymmetric", "symmetric"])
    def test_kd_trees_built_per_step(self, step_inputs, monkeypatch, variant):
        # one per cloud for the encoder and two per cloud for chamfer; the
        # symmetric decoder pools over the encoder's neighborhoods and builds none
        enc, dec = generic_params(variant)
        builds = []
        init = NeighborIndex.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(NeighborIndex, "__init__", counting_init)
        pl.pair_loss_and_grads(*step_inputs, enc, dec, LossConfig(),
                               rng=np.random.default_rng(0))
        assert len(builds) == 6

    def test_threads_joined_after_a_step(self, step_inputs):
        enc, dec = generic_params("asymmetric")
        before = threading.active_count()
        pl.pair_loss_and_grads(*step_inputs, enc, dec, LossConfig(),
                               rng=np.random.default_rng(0))
        assert threading.active_count() == before

    @pytest.mark.parametrize("side", ["a", "b", "both"])
    def test_error_of_either_half_propagates_a_first(self, step_inputs, monkeypatch, side):
        cloud_a = step_inputs[0]
        enc, dec = generic_params("asymmetric")
        fuse = mdl.fuse

        def failing_fuse(cloud, offsets):
            this = "a" if cloud is cloud_a else "b"
            if side in (this, "both"):
                raise NonFinite(f"offsets of cloud {this}")
            return fuse(cloud, offsets)

        monkeypatch.setattr(mdl, "fuse", failing_fuse)
        before = threading.active_count()
        with pytest.raises(NonFinite, match=f"cloud {'b' if side == 'b' else 'a'}"):
            pl.pair_loss_and_grads(*step_inputs, enc, dec, LossConfig(),
                                   rng=np.random.default_rng(0))
        assert threading.active_count() == before

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_half_reports_its_step(self, toy_setup, monkeypatch, side):
        seq_a, seq_b, pairs = toy_setup
        cfg = toy_config()
        a_clouds = {pl._build_pair_context(seq_a, seq_b, i, j, cfg).cloud_a.tobytes()
                    for i, j in pairs}
        calls = {"a": 0, "b": 0}
        fuse = mdl.fuse

        def failing_fuse(cloud, offsets):
            # each step fuses each of its two clouds once
            this = "a" if cloud.tobytes() in a_clouds else "b"
            calls[this] += 1
            if this == side and calls[this] == 3:
                raise NonFinite("offsets contain non-finite values")
            return fuse(cloud, offsets)

        monkeypatch.setattr(mdl, "fuse", failing_fuse)
        before = threading.active_count()
        with pytest.raises(NonFiniteLoss) as exc:
            pl.train(seq_a, seq_b, pairs, cfg)
        assert exc.value.step == 2
        assert threading.active_count() == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_activation_raises_as_before(self, step_inputs, toy_setup):
        enc, dec = generic_params("asymmetric")
        enc.layers[2][0, 0] = np.nan  # a per-neighbor weight: pooled features turn NaN
        with pytest.raises(NonFinite, match="offsets contain non-finite values"):
            pl.pair_loss_and_grads(*step_inputs, enc, dec, LossConfig(),
                                   rng=np.random.default_rng(0))
        with pytest.raises(NonFinite, match="loss terms must be finite"):
            pl.pair_loss_and_grads(*step_inputs, enc, dec, LossConfig(lambda1=0.0, lambda2=0.0),
                                   rng=np.random.default_rng(0))
        seq_a, seq_b, pairs = toy_setup
        with pytest.raises(NonFiniteLoss) as exc:
            pl.train(seq_a, seq_b, pairs, toy_config(), init=(enc, dec))
        assert exc.value.step == 0

    def test_threads_joined_after_register_pair(self, step_inputs):
        enc, _ = generic_params("asymmetric")
        before = threading.active_count()
        pl.register_pair(step_inputs[0], step_inputs[1], enc, RansacConfig(iterations=100))
        assert threading.active_count() == before


class TestConfigValidation:
    @pytest.mark.parametrize("name, value", [
        ("epochs", 2.5), ("epochs", float("nan")), ("epochs", True), ("epochs", 0),
        ("n_disturb", float("nan")), ("n_disturb", 1.5), ("n_disturb", True), ("n_disturb", -1),
    ])
    def test_train_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            toy_config(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("n_pos_pairs", 2.5), ("n_pos_pairs", float("nan")), ("n_pos_pairs", True),
        ("n_neg_candidates", 2.5), ("n_neg_candidates", float("inf")), ("n_neg_candidates", 0),
    ])
    def test_loss_sample_sizes_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1$"):
            LossConfig(**{name: value})

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_rejects_bad_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            toy_config(learning_rate=lr)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_gt_corr_radius(self, radius):
        # NaN, 0 and -1 admit no positive pair (NoPositives at step 0), and
        # inf makes every mutual-nearest pair a positive at any distance
        with pytest.raises(ValueError, match="^gt_corr_radius must be positive and finite$"):
            toy_config(gt_corr_radius=radius)

    @pytest.mark.parametrize("d2", [float("nan"), float("inf"), -1.0])
    def test_curriculum_rejects_bad_d2(self, d2):
        # NaN compares below 30 m, which would turn finetuning off silently
        with pytest.raises(ValueError, match="d2"):
            pl.CurriculumSpec(d2=d2)


class TestCurriculum:
    def test_finetune_skipped_below_30(self, toy_setup):
        seq_a, seq_b, _ = toy_setup
        spec = pl.CurriculumSpec(pretrain_bin=(8.0, 18.0), d2=18.0)
        assert not spec.finetune_active
        enc, dec, logs = pl.train_curriculum(seq_a, seq_b, toy_config(epochs=1), spec)
        assert len(logs) == 1

    def test_two_phases_at_30_plus(self, toy_setup):
        seq_a, seq_b, _ = toy_setup
        spec = pl.CurriculumSpec(pretrain_bin=(8.0, 18.0), d2=30.0)
        assert spec.finetune_active and spec.finetune_bin == (8.0, 30.0)
        enc, dec, logs = pl.train_curriculum(seq_a, seq_b, toy_config(epochs=1), spec)
        assert len(logs) == 2
        assert logs[1].steps  # second phase actually trained

    def test_second_phase_initialized_from_first(self, toy_setup, monkeypatch):
        seq_a, seq_b, _ = toy_setup
        spec = pl.CurriculumSpec(pretrain_bin=(8.0, 18.0), d2=30.0)
        seen_inits = []
        real_train = pl.train

        def spy(seq_a_, seq_b_, pairs_, cfg_, init=None, val_pairs=None):
            seen_inits.append(init)
            return real_train(seq_a_, seq_b_, pairs_, cfg_, init=init, val_pairs=val_pairs)

        monkeypatch.setattr(pl, "train", spy)
        pl.train_curriculum(seq_a, seq_b, toy_config(epochs=1), spec)
        assert seen_inits[0] is None and seen_inits[1] is not None

    def test_curriculum_reaches_at_most_cold_start_loss(self, toy_setup):
        # warm-started far-bin training ends at or below the loss of the
        # same far-bin run from scratch
        seq_a, seq_b, _ = toy_setup
        cfg = toy_config(epochs=3)
        spec = pl.CurriculumSpec(pretrain_bin=(8.0, 18.0), d2=30.0)
        _, _, logs = pl.train_curriculum(seq_a, seq_b, cfg, spec)
        far_records = distill_records(seq_a, seq_b, PairSpec(8.0, 30.0, 1.0), 0.5)
        far_pairs = [(r.i, r.j) for r in far_records]
        _, _, cold_log = pl.train(seq_a, seq_b, far_pairs, cfg)
        n = len(far_pairs)
        warm_final = float(np.mean([s.total for s in logs[1].steps[-n:]]))
        cold_final = float(np.mean([s.total for s in cold_log.steps[-n:]]))
        assert warm_final <= cold_final


@pytest.fixture(scope="module")
def study_scene():
    """Acceptance criterion 7's two-vehicle world at 2 m frame spacing."""
    world = sim.simulate_world(17, 56.0, 30)
    lidar = sim.LidarConfig(azimuth_steps=320, elevation_angles=tuple(np.linspace(-10, 4, 8)),
                            max_range=60.0, range_noise_sigma=0.01)
    seq_a = sim.simulate_sequence(world, sim.line_trajectory((-20, -5), 0.0, 2.0, 21),
                                  lidar, seed=1)
    seq_b = sim.simulate_sequence(world, sim.line_trajectory((-20, +5), 0.0, 2.0, 21),
                                  lidar, seed=2)
    oa, ob = seq_a.origins(), seq_b.origins()
    pairs = [(fa.index, fb.index) for pa, fa in enumerate(seq_a) for pb, fb in enumerate(seq_b)
             if 10.0 <= np.linalg.norm(oa[pa] - ob[pb]) <= 20.0]
    return seq_a, seq_b, pairs[::len(pairs) // 8][:8]


def study_config(**loss):
    """The toy study's APR training configuration; ``loss`` overrides its
    loss weights."""
    model = mdl.ModelConfig(k=24, l=32, phi=4, decoder_hidden=(512, 256), normalize=False)
    return pl.TrainConfig(epochs=1, learning_rate=1e-2, momentum=0.9, seed=5,
                          input_voxel_size=0.3, gt_corr_radius=0.45, model=model,
                          apg=ApgConfig(psi=3, alpha=5.0, scope_radius=40.0, voxel_size=0.3),
                          loss=LossConfig(**{"lambda1": 0.3, "lambda2": 0.003, **loss,
                                             "n_pos_pairs": 512, "n_neg_candidates": 4096}))


class TestStepMemory:
    def test_apr_step_peak_memory(self, study_scene):
        """tracemalloc peak of one APR step at the toy study's sizes (two
        clouds of about 1,400 points, k = 24, decoder (512, 256), 512
        positives and every row a negative candidate), both threads' halves
        included. Measured on a 2-vCPU host: 29.8 MB with row-blocked
        backward passes and mining, 43.5 MB with full-height decoder
        activations, winner-row gradients and mining distances."""
        seq_a, seq_b, pairs = study_scene
        cfg = study_config()
        i, j = pairs[0]
        ctx = pl._build_pair_context(seq_a, seq_b, i, j, cfg)
        apc_a = pl.reachable_target(generate_apc(seq_a, i, cfg.apg), ctx.cloud_a)
        apc_b = pl.reachable_target(generate_apc(seq_b, j, cfg.apg), ctx.cloud_b)
        assert min(len(ctx.cloud_a), len(ctx.cloud_b)) >= 1_300
        assert len(ctx.gt_pairs) > 0
        enc, dec = mdl.init_params(cfg.seed, cfg.model)
        dec.layers[-2][...] = np.random.default_rng(0).normal(size=dec.layers[-2].shape) / 16
        args = (ctx.cloud_a, ctx.cloud_b, apc_a, apc_b, ctx.gt_pairs, enc, dec, cfg.loss)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report, _ = pl.pair_loss_and_grads(*args, rng=np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert report.l_cd > 0
        assert peak < 36e6, f"peak {peak / 1e6:.1f} MB"


class TestFirstSteps:
    """Unnormalized features of a k=24 encoder start meters wide, so the
    first metric-loss gradients are tens of times the later ones. Unclipped
    momentum steps then overshoot the shrinking features and silence most
    post-pool units for good, and the metric loss trains what is left."""

    def test_post_pool_units_survive_first_epoch(self, study_scene):
        seq_a, seq_b, pairs = study_scene
        cfg = study_config(lambda1=0.0, lambda2=0.0)
        model = cfg.model
        enc, _, _ = pl.train(seq_a, seq_b, pairs, cfg)
        enc0, _ = mdl.init_params(cfg.seed, model)
        cloud = pl.voxel_downsample(seq_a[seq_a.position_of(pairs[0][0])].cloud, 0.3)

        def alive(e):
            _, cache = mdl.encoder_forward_cached(cloud, e)
            return int(np.count_nonzero((cache.pool.post_inputs[1] > 0).any(axis=0)))

        assert alive(enc) >= 0.75 * alive(enc0)

    def test_clip_bounds_global_norm_and_keeps_direction(self, rng):
        grads = {"a": rng.normal(size=(3, 4)) * 10, "b": rng.normal(size=5) * 10}
        clipped = pl.clip_gradients(grads, 1.0)
        norm = np.sqrt(sum(np.sum(g * g) for g in clipped.values()))
        assert norm == pytest.approx(1.0, rel=1e-12)
        scale = clipped["a"][0, 0] / grads["a"][0, 0]
        for name in grads:
            np.testing.assert_allclose(clipped[name], grads[name] * scale, rtol=1e-12)
        assert pl.clip_gradients(grads, 1e6) is grads

    def test_reachable_target(self):
        cloud = np.zeros((1, 3))
        apc = np.array([[0.5, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -0.9]])
        np.testing.assert_array_equal(pl.reachable_target(apc, cloud, 1.0), apc[[0, 2]])

    @pytest.mark.parametrize("seed", range(5))
    def test_reachable_target_matches_raw_kdtree_reference(self, seed):
        def ckdtree_reachable_target(apc, cloud, reach):
            # the crop as it was with a raw kd-tree, before it used NeighborIndex
            d, _ = cKDTree(cloud).query(apc, k=1, distance_upper_bound=reach)
            return apc[np.isfinite(d)]

        rng = np.random.default_rng(seed)
        # the origin is the only cloud point within 2 m of the boundary targets
        cloud = np.concatenate([np.zeros((1, 3)), rng.uniform(3, 9, (400, 3))])
        just_inside = np.nextafter(1.0, 0.0)
        boundary = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0],
                             [just_inside, 0.0, 0.0], [0.0, 0.0, -just_inside]])
        apc = np.concatenate([rng.uniform(1, 11, (600, 3)), boundary])
        got = pl.reachable_target(apc, cloud, pl.RECON_REACH)
        assert pl.RECON_REACH == 1.0
        assert got.tobytes() == ckdtree_reachable_target(apc, cloud, pl.RECON_REACH).tobytes()
        # a target exactly at reach is dropped, one an ulp inside it kept
        assert pl.reachable_target(boundary, cloud, 1.0).tobytes() == boundary[3:].tobytes()


@pytest.fixture(scope="module")
def trained(toy_setup):
    seq_a, seq_b, pairs = toy_setup
    enc, dec, _ = pl.train(seq_a, seq_b, pairs, toy_config())
    return enc


class TestEvaluationPaths:

    @pytest.mark.parametrize("call", ["train", "evaluate_pairs", "eval_density", "generate_apc"])
    def test_missing_frame_raises_unknown_frame(self, toy_setup, trained, call):
        seq_a, seq_b, pairs = toy_setup
        ransac = RansacConfig(iterations=10)
        bad = [pairs[0], (pairs[1][0], 99)]
        run = {
            "train": lambda: pl.train(seq_a, seq_b, bad, toy_config()),
            "evaluate_pairs": lambda: pl.evaluate_pairs(seq_a, seq_b, bad, trained, ransac),
            "eval_density": lambda: pl.eval_density(trained, seq_a, seq_b, bad, [1.0], ransac),
            "generate_apc": lambda: generate_apc(seq_b, 99, toy_config().apg),
        }[call]
        with pytest.raises(UnknownFrame, match="^no frame with index 99$"):
            run()

    def test_register_pair_self(self, toy_setup, trained):
        seq_a, _, _ = toy_setup
        cloud = seq_a[5].cloud
        est = pl.register_pair(cloud, cloud, trained,
                               RansacConfig(iterations=200, inlier_threshold=0.3, seed=0),
                               input_voxel_size=0.5)
        np.testing.assert_allclose(est.transform.rotation, np.eye(3), atol=1e-6)
        np.testing.assert_allclose(est.transform.translation, np.zeros(3), atol=1e-6)

    @pytest.mark.parametrize("input_voxel_size", [float("nan"), -0.5, float("inf")])
    def test_rejects_bad_input_voxel_size(self, toy_setup, trained, input_voxel_size):
        with pytest.raises(ValueError, match="input_voxel_size"):
            toy_config(input_voxel_size=input_voxel_size)
        cloud = toy_setup[0][5].cloud
        with pytest.raises(ValueError, match="input_voxel_size"):
            pl.register_pair(cloud, cloud, trained, RansacConfig(iterations=10), input_voxel_size)

    def test_no_decoder_or_aggregation_on_eval_path(self, toy_setup, trained, monkeypatch):
        seq_a, seq_b, pairs = toy_setup

        def boom(*a, **k):
            raise AssertionError("decoder/aggregation reached from the evaluation path")

        monkeypatch.setattr(mdl, "decoder_forward_cached", boom)
        monkeypatch.setattr(pl, "generate_apc", boom)
        results = pl.evaluate_pairs(seq_a, seq_b, pairs[:2], trained,
                                    RansacConfig(iterations=100, inlier_threshold=0.3, seed=0),
                                    input_voxel_size=0.5)
        assert len(results) == 2

    def test_eval_distance_bins_reports_empty(self, toy_setup, trained):
        seq_a, seq_b, _ = toy_setup
        records = distill_records(seq_a, seq_b, PairSpec(8.0, 15.0, 1.0), 0.5)
        results = pl.evaluate_pairs(seq_a, seq_b, records, trained,
                                    RansacConfig(iterations=100, inlier_threshold=0.3, seed=0),
                                    input_voxel_size=0.5)
        out = pl.eval_distance_bins(results, [(8.0, 14.0), (100.0, 200.0)], NORMAL)
        assert list(out) == [(8.0, 14.0), (100.0, 200.0)]
        assert out[(100.0, 200.0)]["rr"] is None
        assert out[(100.0, 200.0)]["n_pairs"] == 0
        assert out[(8.0, 14.0)]["n_pairs"] > 0
        assert 0.0 <= out[(8.0, 14.0)]["rr"] <= 1.0
        # per-bin counts equal an independent distillation recount
        recount = len(distill_records(seq_a, seq_b, PairSpec(8.0, 14.0, 1.0), 0.5))
        assert out[(8.0, 14.0)]["n_pairs"] == recount < len(results)
        in_bin = [r for r in results if 8.0 <= r.distance <= 14.0]
        assert out[(8.0, 14.0)]["rr"] == registration_recall(in_bin, NORMAL)

    def test_identical_frame_pairs_full_loose_recall(self, toy_setup, trained):
        seq_a, _, _ = toy_setup
        results = pl.evaluate_pairs(
            seq_a, seq_a, [(2, 2), (5, 5), (9, 9)], trained,
            RansacConfig(iterations=200, inlier_threshold=0.3, seed=0),
            input_voxel_size=0.5)
        assert float(np.mean([r.success["loose"] for r in results])) == 1.0

    def test_eval_distance_bins_rejects_overlap(self):
        with pytest.raises(ValueError):
            pl.eval_distance_bins([], [(0.0, 10.0), (5.0, 15.0)], NORMAL)

    @pytest.mark.parametrize("bins", [[(9.0, 4.0)], [(5.0, 5.0)], [(-1.0, 4.0)],
                                      [(4.0, 9.0), (6.0, 14.0)], [(4.0, 9.0), (4.0, 9.0)],
                                      [(float("nan"), 4.0)]])
    def test_check_distance_bins_rejects(self, bins):
        with pytest.raises(ValueError):
            pl.check_distance_bins(bins)

    @pytest.mark.parametrize("ratio", [0.0, -0.5, 1.5, float("nan")])
    def test_check_density_ratios_rejects(self, ratio):
        with pytest.raises(ValueError):
            pl.check_density_ratios([0.5, ratio])

    def test_eval_density_counts_and_identity_ratio(self, toy_setup, trained):
        seq_a, seq_b, pairs = toy_setup
        ransac = RansacConfig(iterations=150, inlier_threshold=0.3, seed=0)
        out = pl.eval_density(trained, seq_a, seq_b, pairs[:3], [0.5, 1.0],
                              ransac, seed=7, input_voxel_size=0.5)
        assert set(out) == {0.5, 1.0}
        assert [len(v) for v in out.values()] == [3, 3]
        plain = pl.evaluate_pairs(seq_a, seq_b, pairs[:3], trained, ransac,
                                  input_voxel_size=0.5)
        rr_plain = float(np.mean([r.success["normal"] for r in plain]))
        assert registration_recall(out[1.0], NORMAL) == rr_plain
        # the identity ratio registers the very same clouds
        fields = [(r.i, r.j, r.rre, r.rte, r.success, r.inlier_count) for r in plain]
        assert [(r.i, r.j, r.rre, r.rte, r.success, r.inlier_count) for r in out[1.0]] == fields

    def test_random_downsample_exact_count(self, rng):
        cloud = rng.uniform(-1, 1, (101, 3))
        for ratio in (0.1, 0.33, 0.5, 1.0):
            kept = pl.random_downsample(cloud, ratio, np.random.default_rng(0))
            assert kept.shape[0] == int(np.ceil(ratio * 101))

    def test_eval_disturb_sweep_accounting(self, toy_setup):
        seq_a, seq_b, pairs = toy_setup
        cfg = toy_config(epochs=1)
        out = pl.eval_disturb(seq_a, seq_b, pairs[:3], pairs[3:5], cfg, [0, 1],
                              NORMAL, RansacConfig(iterations=100, seed=0))
        assert set(out) == {0, 1}
        for rr in out.values():
            assert 0.0 <= rr <= 1.0

    def test_eval_disturb_rejects_excessive(self, toy_setup):
        seq_a, seq_b, pairs = toy_setup
        with pytest.raises(ValueError):
            pl.eval_disturb(seq_a, seq_b, pairs[:2], pairs[2:3], toy_config(),
                            [0, 5], NORMAL, RansacConfig(iterations=10, seed=0))

    def test_disturb_zero_arm_bit_identical_to_plain_train(self, toy_setup):
        seq_a, seq_b, pairs = toy_setup
        cfg_plain = toy_config(epochs=1)
        cfg_zero = toy_config(epochs=1, n_disturb=0)
        e1, d1, log1 = pl.train(seq_a, seq_b, pairs[:3], cfg_plain)
        e2, d2, log2 = pl.train(seq_a, seq_b, pairs[:3], cfg_zero)
        for (_, t1), (_, t2) in zip(mdl.named_parameters(e1, d1), mdl.named_parameters(e2, d2)):
            np.testing.assert_array_equal(t1, t2)
        assert [s.total for s in log1.steps] == [s.total for s in log2.steps]


class TestTrainLogExport:
    def test_export_schema(self, tmp_path):
        log = pl.TrainLog(
            steps=[pl.StepRecord(0, 1.0, 2.0, 3.0, 4.0)],
            epochs=[pl.EpochRecord(0, 0.25)],
        )
        out = tmp_path / "log.csv"
        pl.write_train_log(out, log)
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,index,l_ml,l_cd,l_l2,total,val_inlier_ratio"
        assert lines[1].startswith("step,0,1,2,3,4")
        assert lines[2].startswith("epoch,0,,,,,0.25")
