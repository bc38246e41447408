import json
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from distreg import model as mdl, simulate as sim
from distreg.errors import MalformedFile, MissingCache, ShapeMismatch, TooFewPoints

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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

    def test_scaling_subquadratic(self):
        # empirical complexity across a 16x size range: the fitted exponent
        # stays close to the N log N of the kNN stage. CPU time, and the
        # fastest of several repeats, so that other load on the host does
        # not count; in a child at one BLAS thread, since idle BLAS workers
        # spin and would count as CPU time too
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", ENCODER_SCALING], env=env,
                             capture_output=True, text=True, check=True).stdout
        exponent = float(out)
        assert exponent < 1.3, f"encoder scaling exponent {exponent:.2f}"


# prints the fitted exponent of the encoder's CPU time over the cloud size
ENCODER_SCALING = """
import time
import numpy as np
from distreg import model as mdl
rng = np.random.default_rng(12345)
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
print(np.polyfit(np.log(sizes), np.log(times), 1)[0])
"""


@pytest.mark.threads
class TestPooledBlock:
    def test_mlp_forward_leaves_input_unchanged(self, rng):
        enc, _ = tiny_params(randomize=2)
        x = rng.normal(size=(5, TINY.k, 2 * TINY.encoder_hidden[1]))
        before = x.copy()
        out, inputs = mdl._mlp_forward(x, enc.layers[4:])
        assert x.tobytes() == before.tobytes()
        assert inputs[0] is x and (inputs[1] >= 0).all()

    def test_argmax_takes_earliest_neighbor_on_ties(self, rng):
        """The winner pass reads the largest rank k - j among the maximal
        neighbors j; it picks what argmax picks, at k = 1, at the toy k,
        and with uint8 (k = 255) and uint16 (k = 256) ranks."""
        enc, _ = tiny_params(randomize=4)
        n, d = 30, 3
        for k in (1, TINY.k, 255, 256):
            x = rng.normal(size=(n, k, d))
            if k > 3:
                x[:, 3] = x[:, 1]  # neighbors 1 and 3 tie in every channel
            x[::2] = 0.0       # whole rows tie, most channels at the ReLU's zero
            x[1, 0] = np.nan   # point 1's channels are NaN, equal to no neighbor
            own = np.zeros((n, TINY.encoder_hidden[1]))
            idx = np.tile(np.arange(k), (n, 1))  # a winner row's neighbor index is its position
            _, cache = mdl._pool_forward(idx, lambda nbrs, rows: x[rows], own, enc.layers,
                                         keep=True)
            h2v, (_, h1v) = mdl._mlp_forward(x, enc.layers[:4])
            reference = np.maximum(h2v, 0.0).argmax(axis=1)
            winner = cache.win_ids[cache.slot]
            assert winner.tobytes() == reference.tobytes()
            assert (winner != 3).all() and (winner[::2] == 0).all() and (winner[1] == 0).all()
            if k > 1:
                assert (winner[1::2] > 0).any()  # not every channel is won by neighbor 0
            # the kept rows are exactly the winning (point, neighbor) rows, in
            # row-major order, each with its own layer inputs
            rows = np.arange(n)[:, None]
            won = np.zeros((n, k), dtype=bool)
            won[rows, reference] = True
            assert cache.win_ids.tobytes() == idx[won].tobytes()
            assert cache.win_inputs[0].tobytes() == x[won].tobytes()
            assert cache.win_inputs[1].tobytes() == h1v[won].tobytes()
            assert cache.win_inputs[0][cache.slot].tobytes() == x[rows, reference].tobytes()

    @pytest.mark.parametrize("n", [5, 16, 41], ids=["one-block", "two-blocks", "many-blocks"])
    @pytest.mark.parametrize("which", ["encoder", "symmetric-decoder"])
    def test_blocked_and_unblocked_cached_forwards_identical(self, rng, monkeypatch, n, which):
        """The forward caches, and the gradients backward computes from
        them, do not depend on the row blocks."""
        enc, dec = tiny_params(randomize=8, cfg=SYMMETRIC)
        cloud = rng.uniform(-3, 3, (n, 3))
        fm = rng.normal(size=(n, TINY.l))
        idx = mdl.encoder_forward_cached(cloud, enc)[1].pool.idx
        d_out = rng.normal(size=(n, TINY.l if which == "encoder" else 3 * TINY.phi))

        def forward_and_backward():
            if which == "encoder":
                out, cache = mdl.encoder_forward_cached(cloud, enc)
                grads = [*mdl.encoder_backward(enc, cache, d_out).values()]
            else:
                out, cache = mdl.decoder_forward_cached(fm, dec, idx)
                dec_grads, dfm = mdl.decoder_backward(dec, cache, d_out)
                grads = [*dec_grads.values(), dfm]
            pool = cache.pool
            return [out, pool.idx, *pool.win_inputs, pool.win_ids, pool.slot,
                    *pool.post_inputs, *grads]

        monkeypatch.setattr(mdl, "_BLOCK_ELEMENTS", 10**12)
        whole = forward_and_backward()
        # eight rows per block
        monkeypatch.setattr(mdl, "_BLOCK_ELEMENTS", 8 * TINY.k * TINY.encoder_hidden[1])
        blocked = forward_and_backward()
        assert [a.tobytes() for a in blocked] == [a.tobytes() for a in whole]


def dense_mlp_backward(layers, inputs, d):
    """Reference for a whole ``mdl._mlp_backward`` loop: one product per
    weight gradient over all rows. Returns the gradients and the first
    layer's output gradient."""
    grads = [None] * len(layers)
    for i in range(len(layers) - 2, -1, -2):
        x = inputs[i // 2]
        flat = d.reshape(-1, d.shape[-1])
        grads[i] = flat.T @ x.reshape(-1, x.shape[-1])
        grads[i + 1] = flat.sum(axis=0)
        if i:
            d = d @ layers[i]
            d *= x > 0
    return grads, d


def dense_pool_backward(layers, x, post_inputs, d):
    """Reference for ``mdl._pool_backward``: the dense max-pool backward over
    all (N, k) per-neighbor rows ``x``, zero except at each channel's first
    maximal neighbor. Returns the block's gradients, the (N, k, h1)
    per-neighbor first-layer output gradients and the own-path gradient."""
    h2v, pre_inputs = mdl._mlp_forward(x, layers[:4])
    argmax = np.maximum(h2v, 0.0).argmax(axis=1)
    post_grads, dz = dense_mlp_backward(layers[4:], post_inputs, d)
    dz = dz @ layers[4]
    z = post_inputs[0]
    h2 = z.shape[1] // 2
    da2 = np.zeros((*x.shape[:2], h2))
    np.put_along_axis(da2, argmax[:, None, :],
                      (dz[:, :h2] * (z[:, :h2] > 0))[:, None, :], axis=1)
    pre_grads, d_nbr = dense_mlp_backward(layers[:4], pre_inputs, da2)
    return pre_grads + post_grads, d_nbr, dz[:, h2:]


def dense_symmetric_decoder_backward(layers, cache, fm, d_offsets):
    """Reference for ``mdl.decoder_backward`` of the symmetric decoder, which
    scatters the input gradients of all N·k neighbor rows."""
    grads, d_nbr, down = dense_pool_backward(
        layers, fm[cache.pool.idx], cache.pool.post_inputs, d_offsets.reshape(fm.shape[0], -1))
    own = cache.pool.post_inputs[0][:, down.shape[1]:]
    own_grads, da1_own = dense_mlp_backward(layers[:4], cache.inputs, down * (own > 0))
    for j, g in enumerate(own_grads):
        grads[j] += g
    dfm = np.zeros(fm.shape)
    np.add.at(dfm, cache.pool.idx.reshape(-1), (d_nbr @ layers[0]).reshape(-1, fm.shape[1]))
    dfm += da1_own @ layers[0]
    return {f"dec.t{j}": g for j, g in enumerate(grads)}, dfm


def assert_close(got, want):
    """Equal to 1e-12 of the largest reference entry: the winner-row and the
    dense backward sum the same nonzero terms, in different orders."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)


def monotone(layers):
    """Per-neighbor stage with non-negative weights and zero biases: its
    output grows with every input coordinate, so the neighbor whose
    non-negative input is largest in every coordinate wins every channel."""
    w1, _, w2, _, *post = layers
    return (np.abs(w1), np.zeros(w1.shape[0]), np.abs(w2), np.zeros(w2.shape[0]), *post)


CASES = ["generic", "ties", "dead-channels", "k1", "one-neighbor-wins"]

# each case in backward blocks of 256 rows (one block at these sizes) and of
# 7, where winner-row blocks start inside a point's run of winner rows
BLOCKED_CASES = pytest.mark.parametrize(
    "case, block_rows", [(c, 256) for c in CASES] + [(c, 7) for c in CASES],
    ids=CASES + [f"{c}-7-row-blocks" for c in CASES])


@pytest.mark.threads
class TestWinnerRowBackward:
    @BLOCKED_CASES
    def test_encoder_gradients_match_dense(self, rng, monkeypatch, case, block_rows):
        monkeypatch.setattr(mdl, "_BACKWARD_ROWS", block_rows)
        cfg = replace(TINY, k=1) if case == "k1" else TINY
        enc, _ = tiny_params(randomize=12, cfg=cfg)
        cloud = rng.uniform(-2, 2, (40, 3))
        if case == "ties":
            cloud = np.repeat(cloud[:20], 2, axis=0)  # twins tie at relative coordinate zero
        elif case == "dead-channels":
            enc.layers[3][::2] = -100.0  # even second-layer channels never activate
        elif case == "one-neighbor-wins":
            enc = replace(enc, layers=monotone(enc.layers))
            k = cfg.k
            cloud[k:] += 10.0  # the first k points are point 0's neighborhood
            cloud[0] = 0.0
            cloud[1:k - 1] = -rng.uniform(0.05, 0.4, (k - 2, 3))
            cloud[k - 1] = 0.5  # the farthest neighbor, the only positive one
        f, cache = mdl.encoder_forward_cached(cloud, enc)
        pool = cache.pool
        if case == "dead-channels":
            assert not pool.post_inputs[0][:, :cfg.encoder_hidden[1]:2].any()
        elif case == "one-neighbor-wins":
            assert (pool.win_ids[pool.slot[0]] == cfg.k - 1).all()
            assert pool.idx[0, -1] == cfg.k - 1
        d_f = rng.normal(size=f.shape)
        grads = mdl.encoder_backward(enc, cache, d_f)

        x = cloud[pool.idx] - cloud[:, None, :]
        monkeypatch.setattr(mdl, "_pool_backward", lambda layers, pool_cache, d:
                            dense_pool_backward(layers, x, pool_cache.post_inputs, d)[::2])
        reference = mdl.encoder_backward(enc, cache, d_f)
        assert list(grads) == list(reference)
        for name in grads:
            assert_close(grads[name], reference[name])

    @BLOCKED_CASES
    def test_symmetric_decoder_gradients_match_dense(self, rng, monkeypatch, case, block_rows):
        monkeypatch.setattr(mdl, "_BACKWARD_ROWS", block_rows)
        cfg = replace(SYMMETRIC, k=1) if case == "k1" else SYMMETRIC
        _, dec = tiny_params(randomize=13, cfg=cfg)
        assert dec.layers[6].any()  # init_params' zero output layer would hide the decoder path
        n, k = 40, cfg.k
        fm = rng.normal(size=(n, cfg.l))
        idx = rng.integers(0, n, (n, k))
        if case == "ties":
            idx[:, 3] = idx[:, 1]  # neighbors 1 and 3 tie in every channel
            fm[0] = 0.0
            idx[::2] = 0           # whole rows tie, most channels at the ReLU's zero
        elif case == "dead-channels":
            dec.layers[3][::2] = -100.0
        elif case == "one-neighbor-wins":
            dec = replace(dec, layers=monotone(dec.layers))
            fm = rng.uniform(0.0, 1.0, (n, cfg.l))
            fm[n - 1] = 2.0
            idx[0, -1] = n - 1
        offsets, cache = mdl.decoder_forward_cached(fm, dec, idx)
        pool = cache.pool
        if case == "dead-channels":
            assert not pool.post_inputs[0][:, :cfg.encoder_hidden[1]:2].any()
        elif case == "one-neighbor-wins":
            assert (pool.win_ids[pool.slot[0]] == n - 1).all()
        d_off = rng.normal(size=offsets.shape)
        grads, dfm = mdl.decoder_backward(dec, cache, d_off)
        ref_grads, ref_dfm = dense_symmetric_decoder_backward(dec.layers, cache, fm, d_off)
        assert list(grads) == list(ref_grads)
        for name in grads:
            assert_close(grads[name], ref_grads[name])
        assert_close(dfm, ref_dfm)

    def test_encoder_training_pass_peak_memory(self, small_scene):
        """tracemalloc peak of one cached forward and backward of a LiDAR
        scan (N = 1,515) at the toy study's widths (k = 24, h = 32, 64, 64).
        Measured: 10.9 MB with the winner-row cache and a backward in row
        blocks, 17.3 MB with one (R, h2) winner-row gradient, 45 MB with a
        dense (N, k) cache and backward."""
        world, lidar, _ = small_scene
        pose = sim.line_trajectory((-35.0, 0.0), 0.0, 1.0, 1)[0]
        cloud = sim.simulate_scan(world, pose, replace(lidar, azimuth_steps=288), seed=0)
        assert 1_450 <= len(cloud) <= 1_550
        enc, _ = mdl.init_params(0, mdl.ModelConfig(k=24, l=32, normalize=False))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            f, cache = mdl.encoder_forward_cached(cloud, enc)
            mdl.encoder_backward(enc, cache, np.ones_like(f))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 14e6, f"peak {peak / 1e6:.1f} MB"


def asymmetric_reference(layers, fm, d_offsets):
    """The asymmetric decoder as one MLP over all rows: its offsets, and its
    gradients and feature-map gradient from ``dense_mlp_backward``."""
    out, inputs = mdl._mlp_forward(fm, layers)
    grads, d1 = dense_mlp_backward(layers, inputs, d_offsets.reshape(fm.shape[0], -1))
    return out, grads, d1 @ layers[0]


# One encoder and both decoders' backward at the toy study's sizes; prints a
# digest of every gradient. Run at two BLAS thread counts by the test below.
GRADIENT_DIGESTS = """
import hashlib, json
import numpy as np
from distreg import model as mdl
rng = np.random.default_rng(0)
cloud = rng.uniform(-30.0, 30.0, (1500, 3))
out = {}
for variant in ("asymmetric", "symmetric"):
    cfg = mdl.ModelConfig(k=24, l=32, phi=4, decoder_hidden=(512, 256), normalize=False,
                          decoder_variant=variant)
    enc, dec = mdl.init_params(5, cfg)
    for _, t in mdl.named_parameters(enc, dec):
        t += 0.02 * rng.normal(size=t.shape)
    f, ec = mdl.encoder_forward_cached(cloud, enc)
    offsets, dc = mdl.decoder_forward_cached(f, dec, ec.pool.idx)
    grads, dfm = mdl.decoder_backward(dec, dc, rng.normal(size=offsets.shape))
    grads.update(mdl.encoder_backward(enc, ec, rng.normal(size=f.shape)))
    grads["dfm"] = dfm
    for name, g in grads.items():
        out[variant + " " + name] = hashlib.sha256(g.tobytes()).hexdigest()
print(json.dumps(out))
"""


class TestRowBlockedBackward:
    @pytest.mark.parametrize("n", [0, 1, 5, 255, 256, 257, 1025, 1576])
    def test_row_blocks_cover_rows_in_near_equal_blocks(self, n):
        blocks = mdl._row_blocks(n)
        sizes = [b.stop - b.start for b in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert len(blocks) == max(1, -(-n // mdl._BACKWARD_ROWS))
        assert max(sizes) <= mdl._BACKWARD_ROWS and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("block_rows", [256, 7], ids=["one-block", "7-row-blocks"])
    @pytest.mark.parametrize("hidden", [(), (16,), (16, 8), (16, 8, 12)],
                             ids=["no-hidden", "one-hidden", "two-hidden", "three-hidden"])
    def test_asymmetric_decoder_matches_one_mlp(self, rng, monkeypatch, hidden, block_rows):
        """Blocked forward, recomputed hidden layers and blocked backward
        against the decoder as one MLP over all 41 rows: the same offsets
        and, to rounding, the same gradients."""
        monkeypatch.setattr(mdl, "_BACKWARD_ROWS", block_rows)
        _, dec = tiny_params(randomize=14, cfg=replace(TINY, decoder_hidden=hidden))
        fm = rng.normal(size=(41, TINY.l))
        d_off = rng.normal(size=(41, TINY.phi, 3))
        offsets, cache = mdl.decoder_forward_cached(fm, dec)
        grads, dfm = mdl.decoder_backward(dec, cache, d_off)
        ref_out, ref_grads, ref_dfm = asymmetric_reference(dec.layers, fm, d_off)
        assert offsets.tobytes() == ref_out.reshape(offsets.shape).tobytes()
        assert list(grads) == [f"dec.t{j}" for i in range(len(dec.layers) - 2, -1, -2)
                               for j in (i, i + 1)]
        for name, g in grads.items():
            assert_close(g, ref_grads[int(name[5:])])
        assert_close(dfm, ref_dfm)

    @pytest.mark.parametrize("n", [259, 514, 1025, 1444, 1576])
    def test_decoder_offsets_identical_to_one_product_at_toy_size(self, rng, n):
        """At the toy study's widths (32, 512, 256, 12) the blocked hidden
        layers give the bytes of one full-height product: the sizes include
        those whose 256-row tail would be 1 to 3 or 40 rows."""
        _, dec = mdl.init_params(0, mdl.ModelConfig(k=24, l=32, decoder_hidden=(512, 256)))
        dec.layers[-2][...] = rng.normal(size=dec.layers[-2].shape) / 16
        fm = rng.normal(size=(n, 32))
        offsets, cache = mdl.decoder_forward_cached(fm, dec)
        assert offsets.tobytes() == mdl._mlp_forward(fm, dec.layers)[0].reshape(offsets.shape).tobytes()
        # the cache holds the features and the output layer's input, no (N, 512) array
        assert [x.shape for x in cache.inputs] == [(n, 32), (n, 256)]
        assert cache.inputs[0] is fm

    @pytest.mark.threads
    def test_gradients_equal_at_one_and_two_blas_threads(self):
        """Every encoder and decoder gradient of one backward at the toy
        study's sizes has the same bytes at one and two OpenBLAS threads."""
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            out = subprocess.run([sys.executable, "-c", GRADIENT_DIGESTS], env=env,
                                 capture_output=True, text=True, check=True).stdout
            digests.append(json.loads(out))
        assert len(digests[0]) == 2 * (8 + 1) + 6 + 8
        differing = sorted(name for name in digests[0] if digests[0][name] != digests[1][name])
        assert differing == []


class TestDecoderForward:
    def test_zero_params_zero_offsets(self, rng):
        enc, dec = tiny_params()
        for t in dec.layers:
            t[...] = 0.0
        fm = rng.normal(size=(20, TINY.l))
        np.testing.assert_array_equal(mdl.decoder_forward_cached(fm, dec)[0], np.zeros((20, 2, 3)))

    def test_single_linear_layer_passthrough(self):
        dec = mdl.DecoderParams("asymmetric", (np.eye(3, 8), np.zeros(3)))
        fm = np.arange(16.0).reshape(2, 8)
        out, _ = mdl.decoder_forward_cached(fm, dec)
        np.testing.assert_array_equal(out.reshape(2, 3), fm[:, :3])

    def test_permutation_equivariance(self, rng):
        _, dec = tiny_params(randomize=6)
        fm = rng.normal(size=(30, TINY.l))
        perm = rng.permutation(30)
        out, _ = mdl.decoder_forward_cached(fm, dec)
        out_perm, _ = mdl.decoder_forward_cached(fm[perm], dec)
        np.testing.assert_array_equal(out_perm, out[perm])

    def test_shape_mismatch(self, rng):
        _, dec = tiny_params()
        with pytest.raises(ShapeMismatch):
            mdl.decoder_forward_cached(rng.normal(size=(5, TINY.l + 1)), dec)

    def test_symmetric_requires_neighbor_indices(self, rng):
        cfg = mdl.ModelConfig(k=4, l=8, encoder_hidden=(8, 16), encoder_post_hidden=16,
                              phi=2, decoder_variant="symmetric")
        enc, dec = mdl.init_params(0, cfg)
        cloud = rng.uniform(-1, 1, (12, 3))
        fm, cache = mdl.encoder_forward_cached(cloud, enc)
        with pytest.raises(ShapeMismatch):
            mdl.decoder_forward_cached(fm, dec)
        with pytest.raises(ShapeMismatch):
            mdl.decoder_forward_cached(fm, dec, cache.pool.idx[:-1])
        out, _ = mdl.decoder_forward_cached(fm, dec, cache.pool.idx)
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

    @pytest.mark.parametrize("variant", ["asymmetric", "symmetric"])
    def test_decoder_cache_emptied_before_encoder_backward(self, rng, monkeypatch, variant):
        enc, dec = tiny_params(randomize=7, cfg=replace(TINY, decoder_variant=variant))
        cloud = rng.uniform(-2, 2, (20, 3))
        f, ec = mdl.encoder_forward_cached(cloud, enc)
        o, dc = mdl.decoder_forward_cached(f, dec, ec.pool.idx)
        assert dc.inputs and (dc.pool is not None) == (variant == "symmetric")
        seen = []
        encoder_backward = mdl.encoder_backward

        def spy(*args):
            seen.append((list(dc.inputs), dc.pool))
            return encoder_backward(*args)

        monkeypatch.setattr(mdl, "encoder_backward", spy)
        mdl.backward(enc, ec, np.ones_like(f), dec, dc, np.ones_like(o))
        assert seen == [([], None)]
        assert dc.inputs == [] and dc.pool is None

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
            f, ec = mdl.encoder_forward_cached(cloud, e)
            o, _ = mdl.decoder_forward_cached(f, d, ec.pool.idx)
            return float(np.sum(wf * f) + np.sum(wo * o))

        f, ec = mdl.encoder_forward_cached(cloud, enc)
        o, dc = mdl.decoder_forward_cached(f, dec, ec.pool.idx)
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
        assert struct.unpack_from("<I", p.read_bytes(), 24) == (0,)  # asymmetric decoder k
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
        # the header's decoder k (offset 24) is the encoder's k
        assert struct.unpack_from("<I", p.read_bytes(), 24) == (4,)
        enc2, dec2 = mdl.load_checkpoint(p)
        assert dec2.variant == "symmetric" and enc2.k == 4

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
        (SYMMETRIC, lambda e, d: (e, replace(d, layers=d.layers + d.layers[-2:]))),
    ], ids=["w1-width", "k-zero", "nan-w4", "decoder-missing-last", "decoder-chain-gap",
            "symmetric-extra-layer"])
    def test_inconsistent_params_rejected(self, tmp_path, cfg, mangle):
        p = tmp_path / "model.ckpt"
        mdl.save_checkpoint(p, *mangle(*mdl.init_params(0, cfg)))
        with pytest.raises(MalformedFile):
            mdl.load_checkpoint(p)

    # header fields: k 8, l 12, phi 16, variant 20, normalize 21, reserved 22,
    # decoder k 24 (the encoder's k, 4 here, for a symmetric decoder, else 0)
    @pytest.mark.parametrize("cfg,offset,fmt,value", [
        (TINY, 12, "<I", 99), (TINY, 16, "<I", 3), (TINY, 20, "<B", 2), (TINY, 21, "<B", 2),
        (TINY, 22, "<H", 1),
        (SYMMETRIC, 24, "<I", 0), (SYMMETRIC, 24, "<I", 5), (TINY, 24, "<I", 4),
    ], ids=["l", "phi", "variant", "normalize", "reserved",
            "symmetric-k-zero", "symmetric-k-differs", "asymmetric-k-nonzero"])
    def test_bad_header_field_rejected(self, tmp_path, cfg, offset, fmt, value):
        p = tmp_path / "model.ckpt"
        mdl.save_checkpoint(p, *mdl.init_params(0, cfg))
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
