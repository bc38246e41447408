"""Per-point feature encoder and offset decoder with exact reverse-mode
gradients, written directly in numpy (float64 end to end).

The encoder embeds each point's local neighborhood: k nearest neighbors
are expressed as relative coordinates (so features are translation
invariant by construction), passed through a shared per-neighbor MLP,
max-pooled, concatenated with the point's own first-stage embedding, and
projected to ``l`` dimensions.

The decoder turns one feature vector into ``phi`` location offsets. The
asymmetric variant is a plain row-wise MLP; the symmetric variant mirrors
the encoder stages over the cloud's neighborhoods.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    MalformedFile,
    MissingCache,
    NonFinite,
    ShapeMismatch,
    TooFewPoints,
    check_int,
)
from .geometry import NeighborIndex, Points, as_points

_CHECKPOINT_MAGIC = b"DRFE"
_CHECKPOINT_VERSION = 1

Gradients = dict[str, np.ndarray]

_ENCODER_TENSORS = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4")


@dataclass(frozen=True)
class ModelConfig:
    """Dimension bundle consumed by ``init_params``."""

    k: int = 16
    l: int = 32
    encoder_hidden: tuple[int, int] = (32, 64)
    encoder_post_hidden: int = 64
    normalize: bool = True
    phi: int = 4
    decoder_variant: str = "asymmetric"
    decoder_hidden: tuple[int, ...] = (512, 256)

    def __post_init__(self):
        for name in ("k", "l", "encoder_post_hidden", "phi"):
            check_int(name, getattr(self, name), 1)
        if len(self.encoder_hidden) != 2:
            raise ValueError("encoder_hidden must name the two per-neighbor widths")
        for name in ("encoder_hidden", "decoder_hidden"):
            for width in getattr(self, name):
                check_int(name, width, 1)
        if self.decoder_variant not in ("asymmetric", "symmetric"):
            raise ValueError(f"unknown decoder variant {self.decoder_variant!r}")


@dataclass
class EncoderParams:
    k: int
    normalize: bool
    layers: tuple[np.ndarray, ...]  # _ENCODER_TENSORS order: per-neighbor (w1, b1, w2, b2)
                                    # of shapes (h1, 3), (h2, h1); post-pool (w3, b3, w4, b4)
                                    # of shapes (h3, 2*h2), (l, h3)

    @property
    def l(self) -> int:
        return self.layers[6].shape[0]

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(f"enc.{n}", t) for n, t in zip(_ENCODER_TENSORS, self.layers)]


@dataclass
class DecoderParams:
    variant: str               # "asymmetric" | "symmetric"
    layers: tuple[np.ndarray, ...]  # flat (w, b, w, b, ...) in forward order
    k: int | None = None       # symmetric only: neighborhood size

    @property
    def phi(self) -> int:
        return self.layers[-1].shape[0] // 3

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(f"dec.t{i}", t) for i, t in enumerate(self.layers)]


def named_parameters(enc: EncoderParams, dec: DecoderParams) -> list[tuple[str, np.ndarray]]:
    return enc.named_tensors() + dec.named_tensors()


def init_params(seed, cfg: ModelConfig = ModelConfig()) -> tuple[EncoderParams, DecoderParams]:
    """Deterministic initialization: weights ~ N(0, 1/fan_in), biases zero,
    except the decoder's output layer, which starts at zero.

    Zero offsets make the first reconstruction the input cloud itself. A
    random output layer would scatter the first offsets as far as the
    unnormalized features are wide (meters), and the chamfer gradient of
    that scatter would reach the encoder before the decoder has learnt
    anything."""
    rng = np.random.default_rng(seed)

    def linear(fan_out: int, fan_in: int) -> tuple[np.ndarray, np.ndarray]:
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
        return w, np.zeros(fan_out)

    h1, h2 = cfg.encoder_hidden
    h3 = cfg.encoder_post_hidden
    w1, b1 = linear(h1, 3)
    w2, b2 = linear(h2, h1)
    w3, b3 = linear(h3, 2 * h2)
    w4, b4 = linear(cfg.l, h3)
    enc = EncoderParams(cfg.k, cfg.normalize, (w1, b1, w2, b2, w3, b3, w4, b4))

    out_dim = 3 * cfg.phi
    layers: list[np.ndarray] = []
    if cfg.decoder_variant == "asymmetric":
        dims = (cfg.l, *cfg.decoder_hidden, out_dim)
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w, b = linear(fan_out, fan_in)
            layers += [w, b]
        layers[-2] = np.zeros_like(layers[-2])
        dec = DecoderParams("asymmetric", tuple(layers))
    else:
        v1, c1 = linear(h1, cfg.l)
        v2, c2 = linear(h2, h1)
        v3, c3 = linear(h3, 2 * h2)
        v4, c4 = linear(out_dim, h3)
        dec = DecoderParams("symmetric", (v1, c1, v2, c2, v3, c3, np.zeros_like(v4), c4), k=cfg.k)
    return enc, dec


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _neighbor_indices(cloud: Points, k: int) -> np.ndarray:
    """k nearest neighbors of every point, self included at distance zero."""
    if cloud.shape[0] < k:
        raise TooFewPoints(f"cloud has {cloud.shape[0]} points, encoder needs >= {k}")
    _, idx = NeighborIndex(cloud).knearest(cloud, k)
    return idx


# ---------------------------------------------------------------------------
# Shared blocks: a ReLU MLP and the pooled-neighborhood block
# ---------------------------------------------------------------------------

# per-neighbor activations per row block of the pooled block (2 MB of float64).
# On a 2-vCPU Xeon with 2 MB of L2 per core, blocks of 0.5 to 2 MB encoded
# 1.5k- and 6k-point clouds 9-16% faster than 16 MB blocks, with or without
# the training cache.
_BLOCK_ELEMENTS = 250_000


def _mlp_forward(x: np.ndarray, layers) -> tuple[np.ndarray, list[np.ndarray]]:
    """MLP over the last axis of ``x`` with flat (w, b, w, b, ...) layers and
    ReLU between layers (none after the last); returns the output and the
    input of every layer."""
    inputs = []
    for i in range(0, len(layers), 2):
        if i:
            np.maximum(x, 0.0, out=x)  # x is this call's own product by now
        inputs.append(x)
        x = x @ layers[i].T
        x += layers[i + 1]
    return x, inputs


def _mlp_backward(layers, inputs, d: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Gradients of sum(d * output) for every tensor of ``layers`` (same
    order) and for the first layer's output; a caller that needs the MLP's
    input gradient multiplies the latter by ``layers[0]``. Only the
    weight-gradient products and the bias sums flatten the leading axes;
    ``d @ w`` keeps its shape."""
    grads: list = [None] * len(layers)
    for i in range(len(layers) - 2, -1, -2):
        x = inputs[i // 2]
        flat = d.reshape(-1, d.shape[-1])
        grads[i] = flat.T @ x.reshape(-1, x.shape[-1])
        grads[i + 1] = flat.sum(axis=0)
        if i:
            d = d @ layers[i]
            d *= x > 0
    return grads, d


@dataclass
class PoolCache:
    """What ``_pool_backward`` needs of one pooled-neighborhood block."""

    idx: np.ndarray                # (N, k) neighbor indices
    pre_inputs: list[np.ndarray]   # per-neighbor layer inputs: (N, k, d), (N, k, h1)
    argmax: np.ndarray             # (N, h2) winning neighbor per channel
    post_inputs: list[np.ndarray]  # post-pool layer inputs: z = [pooled, own] (N, 2*h2), (N, h3)


def _pool_forward(idx, gather, own, layers, keep: bool):
    """The block the encoder and the symmetric decoder share: the
    per-neighbor MLP ``layers[:4]`` with ReLU after both layers over
    ``gather(idx[rows], rows)`` (the (B, k, d) inputs of a row slice), a
    channel max-pool over the k neighbors, the concat with the own path's
    (N, h2) activations ``own``, and the post-pool MLP ``layers[4:]``.

    The per-neighbor stage runs in row blocks whose (B, k, h)
    intermediates stay cache-resident at large N; each row's products do
    not depend on the block it falls in. With ``keep`` the blocks' layer
    inputs and winning neighbors are kept and a PoolCache is returned. The
    post-pool MLP always runs once over all rows."""
    pre, post = layers[:4], layers[4:]
    n, k = idx.shape
    pooled = np.empty(own.shape)
    if keep:
        pre_inputs = [np.empty((n, k, w.shape[1])) for w in pre[::2]]
        argmax = np.empty(own.shape, dtype=np.intp)
    block = max(1, _BLOCK_ELEMENTS // (k * own.shape[1]))
    for start in range(0, n, block):
        rows = slice(start, start + block)
        h2v, inputs = _mlp_forward(gather(idx[rows], rows), pre)
        np.maximum(h2v, 0.0, out=h2v)
        pooled[rows] = h2v.max(axis=1)
        if keep:
            # the first neighbor holding each channel's max, as argmax would
            # pick it, from one pass over a boolean array
            argmax[rows] = (h2v == pooled[rows, None, :]).argmax(axis=1)
            for kept, x in zip(pre_inputs, inputs):
                kept[rows] = x
    out, post_inputs = _mlp_forward(np.concatenate([pooled, own], axis=1), post)
    cache = PoolCache(idx, pre_inputs, argmax, post_inputs) if keep else None
    return out, cache


def _pool_backward(layers, cache: PoolCache, d: np.ndarray):
    """Gradients of sum(d * out) for the block's eight tensors (in layer
    order), for the per-neighbor first-layer outputs (N, k, h1) and for
    ``own``."""
    post_grads, dz = _mlp_backward(layers[4:], cache.post_inputs, d)
    dz = dz @ layers[4]
    z = cache.post_inputs[0]
    h2 = z.shape[1] // 2
    # max-pool: route each channel's gradient to its winning neighbor, if
    # that neighbor's activation (the pooled value) is positive
    da2 = np.zeros((*cache.idx.shape, h2))
    np.put_along_axis(da2, cache.argmax[:, None, :],
                      (dz[:, :h2] * (z[:, :h2] > 0))[:, None, :], axis=1)
    pre_grads, d_nbr = _mlp_backward(layers[:4], cache.pre_inputs, da2)
    return pre_grads + post_grads, d_nbr, dz[:, h2:]


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------

@dataclass
class EncoderCache:
    pool: PoolCache        # the pooled block over relative neighbor coordinates
    h1o: np.ndarray        # (h1,) own-path stage activations (zero input)
    h2o: np.ndarray        # (h2,)
    features: np.ndarray   # (N, l) final (possibly normalized)
    norms: np.ndarray      # (N,) clamped row norms (ones when not normalizing)


def _encoder_run(cloud, params: EncoderParams, keep: bool):
    pts = as_points(cloud, allow_empty=False)
    idx = _neighbor_indices(pts, params.k)
    n = pts.shape[0]

    _, b1, w2, b2 = params.layers[:4]
    h1o = _relu(b1)                            # per-neighbor stage at the zero input
    h2o = _relu(w2 @ h1o + b2)
    u, pool = _pool_forward(idx, lambda nbrs, rows: pts[nbrs] - pts[rows, None, :],
                            np.broadcast_to(h2o, (n, h2o.size)), params.layers, keep)

    if params.normalize:
        norms = np.maximum(np.linalg.norm(u, axis=1), 1e-12)
        features = u / norms[:, None]
    else:
        norms = np.ones(n)
        features = u
    return features, EncoderCache(pool, h1o, h2o, features, norms) if keep else None


def encoder_forward(cloud, params: EncoderParams) -> np.ndarray:
    """Per-point features, shape (N, l). Deterministic; translation invariant."""
    features, _ = _encoder_run(cloud, params, keep=False)
    return features


def encoder_forward_cached(cloud, params: EncoderParams) -> tuple[np.ndarray, EncoderCache]:
    return _encoder_run(cloud, params, keep=True)


def encoder_backward(params: EncoderParams, cache: EncoderCache, d_features: np.ndarray) -> Gradients:
    """Exact gradients of sum(d_features * features) w.r.t. encoder tensors."""
    if cache is None:
        raise MissingCache("encoder backward requires the forward cache")
    df = np.asarray(d_features, dtype=np.float64)
    if df.shape != cache.features.shape:
        raise ShapeMismatch(f"feature gradient shape {df.shape} != {cache.features.shape}")

    if params.normalize:
        f = cache.features
        du = (df - f * np.sum(f * df, axis=1, keepdims=True)) / cache.norms[:, None]
    else:
        du = df
    grads, _, down = _pool_backward(params.layers, cache.pool, du)

    # own-path (zero input): contributes to b1, w2, b2 only
    _, b1, w2, _ = params.layers[:4]
    da2o = down.sum(axis=0) * (cache.h2o > 0)
    grads[2] += np.outer(da2o, cache.h1o)
    grads[3] += da2o
    grads[1] += (w2.T @ da2o) * (b1 > 0)
    return {f"enc.{name}": g for name, g in zip(_ENCODER_TENSORS, grads)}


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------

@dataclass
class DecoderCache:
    inputs: list[np.ndarray]  # layer inputs of the row-wise MLP: the asymmetric decoder,
                              # or the symmetric decoder's own path
    pool: PoolCache | None    # the symmetric decoder's pooled block


def _assert_feature_width(fm: np.ndarray, expected: int) -> None:
    if fm.ndim != 2 or fm.shape[1] != expected:
        raise ShapeMismatch(f"feature map has shape {fm.shape}, expected (N, {expected})")


def decoder_forward(fm, params: DecoderParams, cloud=None) -> np.ndarray:
    """Offsets, shape (N, phi, 3). The symmetric variant additionally needs
    the cloud to rebuild neighborhoods."""
    out, _ = decoder_forward_cached(fm, params, cloud=cloud, keep=False)
    return out


def decoder_forward_cached(fm, params: DecoderParams, cloud=None, keep: bool = True):
    """The asymmetric variant is a row-wise MLP; the symmetric one is the
    pooled block over the feature map's neighborhoods, with each point's
    own feature through the per-neighbor stage as the own path."""
    fm = np.asarray(fm, dtype=np.float64)
    _assert_feature_width(fm, params.layers[0].shape[1])
    pool = None
    if params.variant == "asymmetric":
        out, inputs = _mlp_forward(fm, params.layers)
    else:
        if cloud is None:
            raise ShapeMismatch("symmetric decoder requires the source cloud")
        pts = as_points(cloud, allow_empty=False)
        if pts.shape[0] != fm.shape[0]:
            raise ShapeMismatch("feature map rows must match cloud points")
        idx = _neighbor_indices(pts, params.k)
        a2o, inputs = _mlp_forward(fm, params.layers[:4])
        out, pool = _pool_forward(idx, lambda nbrs, rows: fm[nbrs], _relu(a2o),
                                  params.layers, keep)
    cache = DecoderCache(inputs, pool) if keep else None
    return out.reshape(fm.shape[0], -1, 3), cache


def decoder_backward(
    params: DecoderParams, cache: DecoderCache, d_offsets: np.ndarray
) -> tuple[Gradients, np.ndarray]:
    """Gradients w.r.t. decoder tensors plus the feature-map gradient.

    The key order is the order in which ``pipeline.clip_gradients`` sums
    the global norm, so it is part of every trained checkpoint's bytes."""
    if cache is None:
        raise MissingCache("decoder backward requires the forward cache")
    dout = np.asarray(d_offsets, dtype=np.float64).reshape(cache.inputs[0].shape[0], -1)

    if params.variant == "asymmetric":
        grads, da1 = _mlp_backward(params.layers, cache.inputs, dout)
        last_first = [j for i in range(len(grads) - 2, -1, -2) for j in (i, i + 1)]
        return {f"dec.t{j}": grads[j] for j in last_first}, da1 @ params.layers[0]

    grads, da1_nbr, down = _pool_backward(params.layers, cache.pool, dout)
    own = cache.pool.post_inputs[0][:, down.shape[1]:]
    own_grads, da1_own = _mlp_backward(params.layers[:4], cache.inputs, down * (own > 0))
    for j, g in enumerate(own_grads):
        grads[j] += g
    dfm = np.zeros(cache.inputs[0].shape)
    np.add.at(dfm, cache.pool.idx.reshape(-1),
              (da1_nbr @ params.layers[0]).reshape(-1, dfm.shape[1]))
    dfm += da1_own @ params.layers[0]
    return {f"dec.t{j}": g for j, g in enumerate(grads)}, dfm


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------

def fuse(cloud, offsets: np.ndarray) -> Points:
    """The (N·phi, 3) generated points of an (N, 3) cloud and its (N, phi, 3)
    offsets: row i·phi + j is p_i + offset[i, j], exact by construction."""
    pts = as_points(cloud)
    off = np.asarray(offsets, dtype=np.float64)
    if off.ndim != 3 or off.shape[0] != pts.shape[0] or off.shape[2] != 3:
        raise ShapeMismatch(f"offsets shape {off.shape} incompatible with cloud {pts.shape}")
    if not np.isfinite(off).all():
        raise NonFinite("offsets contain non-finite values")
    return (pts[:, None, :] + off).reshape(-1, 3)


# ---------------------------------------------------------------------------
# Combined backward and checkpointing
# ---------------------------------------------------------------------------

def backward(
    enc_params: EncoderParams,
    enc_cache: EncoderCache,
    d_features: np.ndarray,
    dec_params: DecoderParams | None = None,
    dec_cache: DecoderCache | None = None,
    d_offsets: np.ndarray | None = None,
) -> Gradients:
    """Exact gradients of the scalar loss w.r.t. every parameter tensor.

    ``d_features`` is the loss gradient reaching the features directly
    (metric loss); ``d_offsets`` the gradient reaching the decoder output
    (reconstruction + regularization). The decoder's feature gradient is
    accumulated before the encoder backward pass.
    """
    if enc_cache is None:
        raise MissingCache("backward requires the encoder forward cache")
    df = np.asarray(d_features, dtype=np.float64)
    grads: Gradients = {}
    if d_offsets is not None:
        if dec_params is None or dec_cache is None:
            raise MissingCache("offset gradients supplied without a decoder cache")
        dec_grads, dfm = decoder_backward(dec_params, dec_cache, d_offsets)
        grads.update(dec_grads)
        df = df + dfm
    elif dec_params is not None:
        grads.update({name: np.zeros_like(t) for name, t in dec_params.named_tensors()})
    grads.update(encoder_backward(enc_params, enc_cache, df))
    return grads


def add_gradients(a: Gradients, b: Gradients) -> Gradients:
    out = dict(a)
    for name, g in b.items():
        out[name] = out[name] + g if name in out else g
    return out


def save_checkpoint(path, enc: EncoderParams, dec: DecoderParams) -> None:
    """Versioned binary: header (magic, version, k, l, phi, variant,
    normalize, decoder k), then every tensor as little-endian float64 in
    declaration order."""
    variant_code = 0 if dec.variant == "asymmetric" else 1
    tensors = [t for _, t in named_parameters(enc, dec)]
    parts = [
        _CHECKPOINT_MAGIC,
        struct.pack("<IIIIBBHI", _CHECKPOINT_VERSION, enc.k, enc.l, dec.phi,
                    variant_code, int(enc.normalize), 0, dec.k or 0),
        struct.pack("<I", len(tensors)),
    ]
    for t in tensors:
        parts.append(struct.pack("<B", t.ndim))
        parts.append(struct.pack(f"<{t.ndim}I", *t.shape))
        parts.append(np.ascontiguousarray(t, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path) -> tuple[EncoderParams, DecoderParams]:
    """Raises MalformedFile unless ``save_checkpoint`` of what it returns
    would write the file's bytes again."""
    raw = Path(path).read_bytes()
    if raw[:4] != _CHECKPOINT_MAGIC:
        raise MalformedFile(f"{path}: bad checkpoint magic")
    off = 4

    def take(size: int) -> int:
        """Offset of the next ``size`` bytes; raises if the file ends first."""
        nonlocal off
        if len(raw) - off < size:
            raise MalformedFile(f"{path}: truncated checkpoint at byte {len(raw)}")
        off += size
        return off - size

    header = "<IIIIBBHI"
    version, k, l, phi, variant_code, normalize, reserved, dec_k = struct.unpack_from(
        header, raw, take(struct.calcsize(header)))
    if version != _CHECKPOINT_VERSION:
        raise MalformedFile(f"{path}: unsupported checkpoint version {version}")
    (n_tensors,) = struct.unpack_from("<I", raw, take(4))
    tensors = []
    for _ in range(n_tensors):
        (ndim,) = struct.unpack_from("<B", raw, take(1))
        if ndim not in (1, 2):
            raise MalformedFile(f"{path}: tensor with {ndim} dimensions")
        shape = struct.unpack_from(f"<{ndim}I", raw, take(4 * ndim))
        count = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=take(8 * count))
        tensors.append(arr.reshape(shape).copy())
    if off != len(raw):
        raise MalformedFile(f"{path}: trailing bytes in checkpoint")

    def mlp_width(layers, fan_in: int) -> int:
        """Output width of flat (w, b, ...) tensors fed ``fan_in`` inputs;
        raises unless each w is (out >= 1, in) with ``in`` the previous out
        and each b is (out,)."""
        for w, b in zip(layers[::2], layers[1::2]):
            if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] != fan_in or b.shape != w.shape[:1]:
                raise MalformedFile(f"{path}: tensor shapes {w.shape}, {b.shape} do not "
                                    f"follow a layer of width {fan_in}")
            fan_in = w.shape[0]
        return fan_in

    if variant_code not in (0, 1) or normalize not in (0, 1) or reserved:
        raise MalformedFile(f"{path}: bad checkpoint flags {variant_code}, {normalize}, {reserved}")
    symmetric = variant_code == 1
    if k < 1 or (symmetric and dec_k < 1):
        raise MalformedFile(f"{path}: neighborhood sizes {k}, {dec_k} must be >= 1")
    n_dec = len(tensors) - 8
    if n_dec < 2 or n_dec % 2 or (symmetric and n_dec != 8):
        raise MalformedFile(f"{path}: checkpoint has {len(tensors)} tensors")
    if not all(np.isfinite(t).all() for t in tensors):
        raise MalformedFile(f"{path}: non-finite checkpoint value")
    enc_layers, dec_layers = tensors[:8], tensors[8:]
    width = mlp_width(enc_layers[4:], 2 * mlp_width(enc_layers[:4], 3))
    if symmetric:
        out = mlp_width(dec_layers[4:], 2 * mlp_width(dec_layers[:4], width))
    else:
        out = mlp_width(dec_layers, width)
    if (l, 3 * phi) != (width, out):
        raise MalformedFile(f"{path}: header sizes l={l}, phi={phi} disagree with the "
                            f"tensors' {width} features and {out} offset values")
    enc = EncoderParams(k, bool(normalize), tuple(enc_layers))
    dec = DecoderParams("symmetric" if symmetric else "asymmetric", tuple(dec_layers),
                        k=dec_k or None)
    return enc, dec
