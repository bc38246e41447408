import struct
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from distreg import model as mdl
from distreg.errors import MalformedFile, MissingCache, ShapeMismatch, TooFewPoints

TINY = mdl.ModelConfig(k=4, l=8, encoder_hidden=(8, 16), encoder_post_hidden=16,
                       phi=2, decoder_hidden=(16, 8))
SYMMETRIC = replace(TINY, decoder_variant="symmetric")
# small enough that header and shape bytes are a fair share of the file
FUZZ = mdl.ModelConfig(k=2, l=2, encoder_hidden=(2, 2), encoder_post_hidden=2,
                       phi=1, decoder_hidden=(2,))


def tiny_params(seed=3, randomize=None, cfg=TINY):
    """Init params; optionally move them to a generic point so no ReLU or
    pooling decision sits exactly on its boundary."""
    enc, dec = mdl.init_params(seed, cfg)
    if randomize is not None:
        rng = np.random.default_rng(randomize)
        for _, t in mdl.named_parameters(enc, dec):
            t += 0.05 * rng.normal(size=t.shape)
    return enc, dec


def lattice_cloud(rng, n, scale=4.0):
    """Cloud on a dyadic grid: translations by lattice vectors stay exact in
    float64, making translation-invariance checks bit-exact."""
    return np.round(rng.uniform(-scale, scale, (n, 3)) * 2048) / 2048


class TestInit:
    def test_deterministic(self):
        e1, d1 = mdl.init_params(7, TINY)
        e2, d2 = mdl.init_params(7, TINY)
        for (n1, t1), (n2, t2) in zip(mdl.named_parameters(e1, d1), mdl.named_parameters(e2, d2)):
            assert n1 == n2
            np.testing.assert_array_equal(t1, t2)

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            mdl.ModelConfig(k=0)
        with pytest.raises(ValueError):
            mdl.ModelConfig(phi=0)

    @pytest.mark.parametrize("name, value", [
        ("k", 2.5), ("k", float("nan")), ("k", True),
        ("l", 8.0), ("encoder_hidden", (8, 2.5)), ("encoder_post_hidden", float("nan")),
        ("phi", True), ("decoder_hidden", (16, 8.5)),
    ])
    def test_non_integer_dims_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1$"):
            replace(TINY, **{name: value})

    def test_numpy_integer_dims_accepted(self):
        cfg = replace(TINY, k=np.int64(4), decoder_hidden=(np.int32(16), 8))
        assert cfg.k == 4

    def test_weight_variance_tracks_fan_in(self):
        cfg = mdl.ModelConfig(k=8, l=64, encoder_hidden=(64, 128), encoder_post_hidden=128,
                              phi=4, decoder_hidden=(256, 128))
        enc, dec = mdl.init_params(0, cfg)
        for w, fan_in in ((enc.layers[2], 64), (enc.layers[4], 256), (dec.layers[2], 256)):
            assert w.var() == pytest.approx(1.0 / fan_in, rel=0.2)

    def test_biases_zero(self):
        enc, dec = mdl.init_params(1, TINY)
        assert not enc.layers[1].any() and not enc.layers[3].any()
        assert not dec.layers[1].any()


class TestEncoderForward:
    def test_output_shape(self, rng):
        enc, _ = tiny_params()
        cloud = rng.uniform(-3, 3, (50, 3))
        assert mdl.encoder_forward(cloud, enc).shape == (50, TINY.l)

    def test_too_few_points(self, rng):
        enc, _ = tiny_params()
        with pytest.raises(TooFewPoints):
            mdl.encoder_forward(rng.uniform(-1, 1, (3, 3)), enc)

    def test_normalized_rows(self, rng):
        enc, _ = tiny_params(randomize=1)
        f = mdl.encoder_forward(rng.uniform(-3, 3, (30, 3)), enc)
        np.testing.assert_allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-6)

    def test_translation_invariance_bit_exact(self, rng):
        enc, _ = tiny_params(randomize=2)
        cloud = lattice_cloud(rng, 40)
        for t in ([1.0, -2.0, 0.5], [128.0, 64.0, -32.0], [0.25, 0.125, 8.0]):
            moved = cloud + np.asarray(t)
            np.testing.assert_array_equal(
                mdl.encoder_forward(moved, enc), mdl.encoder_forward(cloud, enc))

    def test_congruent_patches_identical_features(self, rng):
        enc, _ = tiny_params(randomize=3)
        patch = rng.uniform(-0.5, 0.5, (6, 3))
        far = patch + np.array([100.0, 0.0, 0.0])
        cloud = np.vstack([patch, far])
        f = mdl.encoder_forward(cloud, enc)
        np.testing.assert_allclose(f[:6], f[6:], atol=1e-6)

    def test_permutation_equivariance(self, rng):
        enc, _ = tiny_params(randomize=4)
        cloud = rng.uniform(-3, 3, (40, 3))
        perm = rng.permutation(40)
        f = mdl.encoder_forward(cloud, enc)
        f_perm = mdl.encoder_forward(cloud[perm], enc)
        np.testing.assert_allclose(f_perm, f[perm], atol=1e-9)

    def test_deterministic(self, rng):
        enc, _ = tiny_params(randomize=5)
        cloud = rng.uniform(-3, 3, (25, 3))
        np.testing.assert_array_equal(
            mdl.encoder_forward(cloud, enc), mdl.encoder_forward(cloud, enc))

    def test_row_blocked_matches_cached(self, rng):
        # both paths run the per-neighbor stage in row blocks; only the
        # training path keeps what backward needs
        enc, _ = tiny_params(randomize=6)
        rows_per_block = mdl._BLOCK_ELEMENTS // (TINY.k * TINY.encoder_hidden[1])
        cloud = rng.uniform(-20, 20, (2 * rows_per_block + 7, 3))
        cached, _ = mdl.encoder_forward_cached(cloud, enc)
        assert mdl.encoder_forward(cloud, enc).tobytes() == cached.tobytes()

    def test_scaling_subquadratic(self, rng):
        # empirical complexity across a 16x size range: the fitted exponent
        # stays close to the N log N of the kNN stage. CPU time, and the
        # fastest of several repeats, so that other load on the host does
        # not count
        enc, _ = mdl.init_params(0, mdl.ModelConfig(k=6, l=12, phi=2, decoder_hidden=(32, 16)))
        sizes = (1000, 4000, 16000)
        times = []
        for n in sizes:
            cloud = rng.uniform(-40, 40, size=(n, 3))
            mdl.encoder_forward(cloud, enc)  # warm caches and the allocator
            repeats = []
            for _ in range(9):
                t0 = time.process_time()
                mdl.encoder_forward(cloud, enc)
                repeats.append(time.process_time() - t0)
            times.append(min(repeats))
        exponent = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert exponent < 1.3, f"encoder scaling exponent {exponent:.2f}"


class TestPooledBlock:
    def test_mlp_forward_leaves_input_unchanged(self, rng):
        enc, _ = tiny_params(randomize=2)
        x = rng.normal(size=(5, TINY.k, 2 * TINY.encoder_hidden[1]))
        before = x.copy()
        out, inputs = mdl._mlp_forward(x, enc.layers[4:])
        assert x.tobytes() == before.tobytes()
        assert inputs[0] is x and (inputs[1] >= 0).all()

    def test_argmax_takes_earliest_neighbor_on_ties(self, rng):
        enc, _ = tiny_params(randomize=4)
        n, k, d = 30, TINY.k, 3
        x = rng.normal(size=(n, k, d))
        x[:, 3] = x[:, 1]  # neighbors 1 and 3 tie in every channel
        x[::2] = 0.0       # whole rows tie, most channels at the ReLU's zero
        own = np.zeros((n, TINY.encoder_hidden[1]))
        idx = np.tile(np.arange(k), (n, 1))
        _, cache = mdl._pool_forward(idx, lambda nbrs, rows: x[rows], own, enc.layers, keep=True)
        h2v, _ = mdl._mlp_forward(x, enc.layers[:4])
        reference = np.maximum(h2v, 0.0).argmax(axis=1)
        assert cache.argmax.tobytes() == reference.tobytes()
        assert (cache.argmax != 3).all() and (cache.argmax[::2] == 0).all()

    @pytest.mark.parametrize("n", [5, 16, 41], ids=["one-block", "two-blocks", "many-blocks"])
    @pytest.mark.parametrize("which", ["encoder", "symmetric-decoder"])
    def test_blocked_and_unblocked_cached_forwards_identical(self, rng, monkeypatch, n, which):
        enc, dec = tiny_params(randomize=8, cfg=SYMMETRIC)
        cloud = rng.uniform(-3, 3, (n, 3))
        fm = rng.normal(size=(n, TINY.l))

        def forward():
            if which == "encoder":
                return mdl.encoder_forward_cached(cloud, enc)
            return mdl.decoder_forward_cached(fm, dec, cloud=cloud)

        def flat(out, cache):
            pool = cache.pool
            return [out, pool.idx, *pool.pre_inputs, pool.argmax, *pool.post_inputs]

        monkeypatch.setattr(mdl, "_BLOCK_ELEMENTS", 10**12)
        whole = flat(*forward())
        # eight rows per block
        monkeypatch.setattr(mdl, "_BLOCK_ELEMENTS", 8 * TINY.k * TINY.encoder_hidden[1])
        blocked = flat(*forward())
        assert [a.tobytes() for a in blocked] == [a.tobytes() for a in whole]


class TestDecoderForward:
    def test_zero_params_zero_offsets(self, rng):
        enc, dec = tiny_params()
        for t in dec.layers:
            t[...] = 0.0
        fm = rng.normal(size=(20, TINY.l))
        np.testing.assert_array_equal(mdl.decoder_forward(fm, dec), np.zeros((20, 2, 3)))

    def test_single_linear_layer_passthrough(self):
        dec = mdl.DecoderParams("asymmetric", (np.eye(3, 8), np.zeros(3)))
        fm = np.arange(16.0).reshape(2, 8)
        out = mdl.decoder_forward(fm, dec)
        np.testing.assert_array_equal(out.reshape(2, 3), fm[:, :3])

    def test_permutation_equivariance(self, rng):
        _, dec = tiny_params(randomize=6)
        fm = rng.normal(size=(30, TINY.l))
        perm = rng.permutation(30)
        out = mdl.decoder_forward(fm, dec)
        out_perm = mdl.decoder_forward(fm[perm], dec)
        np.testing.assert_array_equal(out_perm, out[perm])

    def test_shape_mismatch(self, rng):
        _, dec = tiny_params()
        with pytest.raises(ShapeMismatch):
            mdl.decoder_forward(rng.normal(size=(5, TINY.l + 1)), dec)

    def test_symmetric_requires_cloud(self, rng):
        cfg = mdl.ModelConfig(k=4, l=8, encoder_hidden=(8, 16), encoder_post_hidden=16,
                              phi=2, decoder_variant="symmetric")
        enc, dec = mdl.init_params(0, cfg)
        cloud = rng.uniform(-1, 1, (12, 3))
        fm = mdl.encoder_forward(cloud, enc)
        with pytest.raises(ShapeMismatch):
            mdl.decoder_forward(fm, dec)
        out = mdl.decoder_forward(fm, dec, cloud=cloud)
        assert out.shape == (12, 2, 3)


class TestFuse:
    def test_zero_offsets_duplicate_points(self, rng):
        cloud = rng.uniform(-1, 1, (10, 3))
        fused = mdl.fuse(cloud, np.zeros((10, 2, 3)))
        assert fused.shape == (20, 3)
        np.testing.assert_array_equal(fused[0], cloud[0])
        np.testing.assert_array_equal(fused[1], cloud[0])

    def test_single_point_offset(self):
        fused = mdl.fuse([[1.0, 1.0, 1.0]], np.array([[[0.1, 0.0, 0.0]]]))
        np.testing.assert_allclose(fused, [[1.1, 1.0, 1.0]])

    def test_points_equal_source_plus_offset_bit_exact(self, rng):
        cloud = rng.uniform(-5, 5, (15, 3))
        offsets = rng.normal(size=(15, 3, 3))
        fused = mdl.fuse(cloud, offsets)
        assert fused.shape == (45, 3)
        for i in range(15):
            for j in range(3):
                np.testing.assert_array_equal(fused[i * 3 + j], cloud[i] + offsets[i, j])

    def test_provenance_round_trip_bit_exact_on_lattice(self, rng):
        # dyadic coordinates make the subtraction exact, so the offsets
        # are recovered bit-for-bit from rows i*phi .. i*phi + phi - 1
        cloud = lattice_cloud(rng, 15)
        offsets = np.round(rng.normal(size=(15, 3, 3)) * 1024) / 1024
        fused = mdl.fuse(cloud, offsets)
        recovered = fused.reshape(15, 3, 3) - cloud[:, None, :]
        np.testing.assert_array_equal(recovered, offsets)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            mdl.fuse(rng.uniform(-1, 1, (5, 3)), np.zeros((4, 2, 3)))


class TestBackward:
    def test_missing_cache(self, rng):
        enc, dec = tiny_params()
        with pytest.raises(MissingCache):
            mdl.backward(enc, None, np.zeros((5, TINY.l)))

    def test_zero_upstream_zero_grads(self, rng):
        enc, dec = tiny_params(randomize=7)
        cloud = rng.uniform(-2, 2, (20, 3))
        f, ec = mdl.encoder_forward_cached(cloud, enc)
        o, dc = mdl.decoder_forward_cached(f, dec)
        grads = mdl.backward(enc, ec, np.zeros_like(f), dec, dc, np.zeros_like(o))
        for name, g in grads.items():
            assert not g.any(), name

    def test_linear_quadratic_closed_form(self):
        # single linear decoder layer, quadratic loss: gradient = x^T (2(xW^T-y))
        rng = np.random.default_rng(0)
        w = rng.normal(size=(6, 8))
        dec = mdl.DecoderParams("asymmetric", (w, np.zeros(6)))
        x = rng.normal(size=(10, 8))
        y = rng.normal(size=(10, 6))
        out, cache = mdl.decoder_forward_cached(x, dec)
        resid = out.reshape(10, 6) - y
        loss_grad = (2.0 * resid).reshape(10, 2, 3)
        grads, _ = mdl.decoder_backward(dec, cache, loss_grad)
        np.testing.assert_allclose(grads["dec.t0"], (2.0 * resid).T @ x, atol=1e-12)
        np.testing.assert_allclose(grads["dec.t1"], (2.0 * resid).sum(axis=0), atol=1e-12)

    @pytest.mark.parametrize("variant", ["asymmetric", "symmetric"])
    def test_finite_differences(self, rng, variant):
        cfg = mdl.ModelConfig(k=4, l=8, encoder_hidden=(8, 16), encoder_post_hidden=16,
                              phi=2, decoder_hidden=(16, 8), decoder_variant=variant)
        enc, dec = tiny_params(seed=3, randomize=11, cfg=cfg)
        cloud = rng.uniform(-2, 2, (32, 3))
        wf = rng.normal(size=(32, 8))
        wo = rng.normal(size=(32, 2, 3))

        def loss(e, d):
            f = mdl.encoder_forward(cloud, e)
            o = mdl.decoder_forward(f, d, cloud=cloud)
            return float(np.sum(wf * f) + np.sum(wo * o))

        f, ec = mdl.encoder_forward_cached(cloud, enc)
        o, dc = mdl.decoder_forward_cached(f, dec, cloud=cloud)
        grads = mdl.backward(enc, ec, wf, dec, dc, wo)

        h = 1e-6
        for name, tensor in mdl.named_parameters(enc, dec):
            flat = tensor.reshape(-1)  # a view: perturbs the tensor in place
            for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss(enc, dec)
                flat[idx] = orig - h
                down = loss(enc, dec)
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                g = grads[name].ravel()[idx]
                assert abs(fd - g) / max(abs(fd), abs(g), 1e-8) < 1e-4, name


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        enc, dec = tiny_params(seed=9, randomize=9)
        p = tmp_path / "model.ckpt"
        mdl.save_checkpoint(p, enc, dec)
        enc2, dec2 = mdl.load_checkpoint(p)
        assert (enc2.k, enc2.l, enc2.normalize) == (enc.k, enc.l, enc.normalize)
        assert (dec2.variant, dec2.phi) == (dec.variant, dec.phi)
        for (n1, t1), (n2, t2) in zip(mdl.named_parameters(enc, dec),
                                      mdl.named_parameters(enc2, dec2)):
            assert n1 == n2
            np.testing.assert_array_equal(t1, t2)

    def test_symmetric_round_trip(self, tmp_path):
        cfg = mdl.ModelConfig(k=4, l=8, encoder_hidden=(8, 16), encoder_post_hidden=16,
                              phi=2, decoder_variant="symmetric")
        enc, dec = mdl.init_params(2, cfg)
        p = tmp_path / "model.ckpt"
        mdl.save_checkpoint(p, enc, dec)
        _, dec2 = mdl.load_checkpoint(p)
        assert dec2.variant == "symmetric" and dec2.k == 4

    def test_deterministic_bytes(self, tmp_path):
        enc, dec = tiny_params(seed=4)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        mdl.save_checkpoint(a, enc, dec)
        mdl.save_checkpoint(b, enc, dec)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(MalformedFile):
            mdl.load_checkpoint(p)

    # byte layout: magic 0-3, header 4-27, tensor count 28-31, then per
    # tensor one ndim byte, ndim uint32 dims and the float64 data
    @pytest.mark.parametrize("mangle", [
        lambda b: b[:20],
        lambda b: b[:30],
        lambda b: b[:35],
        lambda b: b[:300],
        lambda b: b[:-1],
        lambda b: b + b"\x00",
    ], ids=["header", "tensor-count", "shape", "data", "last-byte", "trailing-byte"])
    def test_truncation_detected(self, tmp_path, mangle):
        enc, dec = tiny_params(seed=5)
        p = tmp_path / "model.ckpt"
        mdl.save_checkpoint(p, enc, dec)
        p.write_bytes(mangle(p.read_bytes()))
        with pytest.raises(MalformedFile):
            mdl.load_checkpoint(p)

    @pytest.mark.parametrize("cfg,mangle", [
        (TINY, lambda e, d: (replace(e, layers=(np.ones((8, 4)), *e.layers[1:])), d)),
        (TINY, lambda e, d: (replace(e, k=0), d)),
        (TINY, lambda e, d: (replace(e, layers=(*e.layers[:6], np.full((8, 16), np.nan),
                                                e.layers[7])), d)),
        (TINY, lambda e, d: (e, replace(d, layers=d.layers[:-1]))),
        (TINY, lambda e, d: (e, replace(d, layers=d.layers[:2] + d.layers[4:]))),
        (SYMMETRIC, lambda e, d: (e, replace(d, k=None))),
        (SYMMETRIC, lambda e, d: (e, replace(d, layers=d.layers + d.layers[-2:]))),
    ], ids=["w1-width", "k-zero", "nan-w4", "decoder-missing-last", "decoder-chain-gap",
            "symmetric-k-zero", "symmetric-extra-layer"])
    def test_inconsistent_params_rejected(self, tmp_path, cfg, mangle):
        p = tmp_path / "model.ckpt"
        mdl.save_checkpoint(p, *mangle(*mdl.init_params(0, cfg)))
        with pytest.raises(MalformedFile):
            mdl.load_checkpoint(p)

    # header fields: k 8, l 12, phi 16, variant 20, normalize 21, reserved 22
    @pytest.mark.parametrize("offset,fmt,value", [
        (12, "<I", 99), (16, "<I", 3), (20, "<B", 2), (21, "<B", 2), (22, "<H", 1),
    ], ids=["l", "phi", "variant", "normalize", "reserved"])
    def test_bad_header_field_rejected(self, tmp_path, offset, fmt, value):
        p = tmp_path / "model.ckpt"
        mdl.save_checkpoint(p, *mdl.init_params(0, TINY))
        raw = bytearray(p.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        p.write_bytes(raw)
        with pytest.raises(MalformedFile):
            mdl.load_checkpoint(p)

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(variant=st.sampled_from(["asymmetric", "symmetric"]),
           flips=st.lists(st.tuples(st.one_of(st.integers(0, 40), st.integers(0, 1000)),
                                    st.integers(1, 255)), max_size=3),
           cut=st.one_of(st.none(), st.integers(0, 1000)))
    def test_fuzzed_bytes_load_or_malformed(self, tmp_path, variant, flips, cut):
        """A mangled checkpoint either raises MalformedFile or loads into
        parameters that save back to the same bytes."""
        p = tmp_path / "model.ckpt"
        mdl.save_checkpoint(p, *mdl.init_params(0, replace(FUZZ, decoder_variant=variant)))
        raw = bytearray(p.read_bytes())
        for pos, mask in flips:
            raw[pos % len(raw)] ^= mask
        raw = bytes(raw if cut is None else raw[:cut % len(raw)])
        p.write_bytes(raw)
        try:
            enc, dec = mdl.load_checkpoint(p)
        except MalformedFile:
            return
        mdl.save_checkpoint(p, enc, dec)
        assert p.read_bytes() == raw
