"""Per-point feature encoder and offset decoder with exact reverse-mode
gradients, written directly in numpy (float64 end to end).

The encoder embeds each point's local neighborhood: k nearest neighbors
are expressed as relative coordinates (so features are translation
invariant by construction), passed through a shared per-neighbor MLP,
max-pooled, concatenated with the point's own first-stage embedding, and
projected to ``l`` dimensions.

The decoder turns one feature vector into ``phi`` location offsets. It runs
only in training; registration uses the encoder alone. The asymmetric
variant is a plain row-wise MLP; the symmetric variant mirrors the encoder
stages over the encoder's own neighborhoods.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable
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
    """Dimension bundle consumed by ``init_params``. ``decoder_hidden`` sets
    the asymmetric decoder's hidden widths only: the symmetric decoder
    mirrors the encoder's widths and never reads it."""

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
        dec = DecoderParams("symmetric", (v1, c1, v2, c2, v3, c3, np.zeros_like(v4), c4))
    return enc, dec


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# Shared blocks: a ReLU MLP and the pooled-neighborhood block
# ---------------------------------------------------------------------------

# per-neighbor activations per row block of the pooled block (2 MB of float64).
# On a 2-vCPU Xeon with 2 MB of L2 per core, blocks of 0.5 to 2 MB encoded
# 1.5k- and 6k-point clouds 9-16% faster than 16 MB blocks, with or without
# the training cache.
_BLOCK_ELEMENTS = 250_000

# rows per block of every training backward, and of the asymmetric decoder's
# hidden layers. A weight gradient summed over at most 256 rows per product
# has the same bytes at one and two OpenBLAS threads; over 1,024 rows it did
# not (2-vCPU Xeon, N = 1,436, k = 24). Near-equal blocks leave no short last
# block: products of 1 to 3 rows take other BLAS kernels, so their rows would
# differ from the same rows of one taller product.
_BACKWARD_ROWS = 256


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


def _row_blocks(n: int) -> list[slice]:
    """``ceil(n / _BACKWARD_ROWS)`` row slices of near-equal size covering
    ``range(n)`` (one empty slice for n = 0), a fixed function of ``n``."""
    m = max(1, -(-n // _BACKWARD_ROWS))
    bounds = [i * n // m for i in range(m + 1)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _mlp_backward(layers, inputs, d: np.ndarray, grads: list) -> np.ndarray:
    """One row block of an MLP's backward pass: adds the block's gradients of
    sum(d * output) to ``grads`` (one array per tensor of ``layers``, same
    order) and returns its gradient for the first layer's output; a caller
    that needs the MLP's input gradient multiplies it by ``layers[0]``.
    ``inputs`` are the block's layer inputs, (rows, width) each.

    Callers run it over ``_row_blocks`` of their rows, so each weight
    gradient is a sum of products over at most ``_BACKWARD_ROWS`` rows,
    taken in block order, and no temporary is taller than a block."""
    for i in range(len(layers) - 2, -1, -2):
        x = inputs[i // 2]
        grads[i] += d.T @ x
        grads[i + 1] += d.sum(axis=0)
        if i:
            d = d @ layers[i]
            d *= x > 0
    return d


@dataclass
class PoolCache:
    """What ``_pool_backward`` needs of one pooled-neighborhood block. The
    max-pool passes gradient only to the (point, neighbor) rows that win a
    channel; at k = 24 they are about a third of the N·k rows. Only their
    positions are kept, in row-major (point, neighbor) order: the backward
    recomputes their layer inputs from ``gather`` (``_winner_inputs``)."""

    idx: np.ndarray                # (N, k) neighbor indices
    gather: Callable[[np.ndarray, slice], np.ndarray]  # the forward's per-neighbor inputs
    win_pos: np.ndarray            # (R,) winner rows' flat positions p·k + j in idx
    slot: np.ndarray               # (N, h2) winner row of each (point, channel)
    post_inputs: list[np.ndarray]  # post-pool layer inputs: z = [pooled, own] (N, 2*h2), (N, h3)


def _pool_forward(idx, gather, own, layers, keep: bool):
    """The block the encoder and the symmetric decoder share: the
    per-neighbor MLP ``layers[:4]`` with ReLU after both layers over
    ``gather(idx[rows], rows)`` (the (B, k, d) inputs of a row slice), a
    channel max-pool over the k neighbors, the concat with the own path's
    (N, h2) activations ``own``, and the post-pool MLP ``layers[4:]``.

    The per-neighbor stage runs in row blocks whose (B, k, h)
    intermediates stay cache-resident at large N; each row's products do
    not depend on the block it falls in. With ``keep`` each channel's
    winner is the earliest neighbor holding its max (as argmax picks it,
    also when the max is ReLU's zero), the flat positions of the rows that
    win any channel are kept, and a PoolCache is returned; no activation
    of the per-neighbor stage outlives its block. The post-pool MLP always
    runs once over all rows."""
    pre, post = layers[:4], layers[4:]
    n, k = idx.shape
    pooled = np.empty(own.shape)
    if keep:
        slot = np.empty(own.shape, dtype=np.intp)
        kept, n_kept = [], 0
    block = max(1, _BLOCK_ELEMENTS // (k * own.shape[1]))
    if keep:
        # k - j for neighbor j, in the narrowest unsigned type that holds k
        rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
    for start in range(0, n, block):
        rows = slice(start, start + block)
        nbrs = idx[rows]
        h2v, inputs = _mlp_forward(gather(nbrs, rows), pre)
        np.maximum(h2v, 0.0, out=h2v)
        pooled[rows] = h2v.max(axis=1)
        if keep:
            # the first neighbor holding each channel's max: the largest
            # rank among the neighbors equal to it, from one pass over the
            # equality mask read as bytes. A NaN max equals no neighbor and,
            # as with argmax, goes to neighbor 0
            top = (h2v == pooled[rows, None, :]).view(np.uint8) * rank
            first = k - top.max(axis=1).astype(np.intp)
            first %= k
            first += k * np.arange(first.shape[0])[:, None]  # row of the block's (B·k) rows
            wins = np.zeros(nbrs.size, dtype=bool)
            wins[first] = True
            won = np.flatnonzero(wins)
            slot[rows] = np.cumsum(wins)[first] + (n_kept - 1)
            n_kept += won.size
            kept.append(won + start * k)
    out, post_inputs = _mlp_forward(np.concatenate([pooled, own], axis=1), post)
    cache = PoolCache(idx, gather, np.concatenate(kept), slot, post_inputs) if keep else None
    return out, cache


def _winner_inputs(pre, cache: PoolCache, rows: slice) -> tuple[slice, list[np.ndarray]]:
    """The run of points that owns the winner rows ``rows`` and those rows'
    per-neighbor layer inputs, (rows, d) and (rows, h1). The points' inputs
    are gathered again and their first layer ``pre[:2]`` recomputed: the
    forward's own per-point (k, d) @ (d, h1) products, so every value has
    the forward's bytes."""
    k = cache.idx.shape[1]
    pos = cache.win_pos[rows]
    points = slice(pos[0] // k, pos[-1] // k + 1)
    x = cache.gather(cache.idx[points], points)
    a1, _ = _mlp_forward(x, pre[:2])
    at = pos - points.start * k
    inputs = [x.reshape(-1, x.shape[-1]).take(at, axis=0),
              a1.reshape(-1, a1.shape[-1]).take(at, axis=0)]
    np.maximum(inputs[1], 0.0, out=inputs[1])
    return points, inputs


def _pool_backward(layers, cache: PoolCache, d: np.ndarray, d_source=None):
    """Gradients of sum(d * out) for the block's eight tensors (in layer
    order) and for ``own``. With ``d_source``, the gradient of the rows that
    ``gather`` read (the symmetric decoder's features), each winner row's
    input gradient is added to its neighbor's row ``idx.flat[win_pos]``
    there.

    Both MLPs run in ``_row_blocks``: the post-pool one over the N points,
    the per-neighbor one over the R winner rows, whose max-pool gradient
    dz·(z > 0) is routed one block at a time. Each block's layer inputs are
    recomputed from the run of points that owns it (``_winner_inputs``), at
    most ``_BACKWARD_ROWS`` points of k rows each."""
    pre, post = layers[:4], layers[4:]
    grads = [np.zeros(t.shape) for t in layers]
    z = cache.post_inputs[0]
    n, h2 = z.shape[0], z.shape[1] // 2
    dz = np.empty(z.shape)
    for rows in _row_blocks(n):
        dz[rows] = _mlp_backward(post, [x[rows] for x in cache.post_inputs], d[rows],
                                 grads[4:]) @ post[0]
    # max-pool: route each channel's gradient to its winner row, if that
    # row's activation (the pooled value) is positive. A point's winner rows
    # are contiguous, so a block of winner rows is fed by a contiguous run of
    # points, and no (row, channel) is written twice
    routed = dz[:, :h2] * (z[:, :h2] > 0)
    for rows in _row_blocks(cache.win_pos.size):
        points, inputs = _winner_inputs(pre, cache, rows)
        at = cache.slot[points] - rows.start
        point, channel = np.nonzero((at >= 0) & (at < rows.stop - rows.start))
        da2 = np.zeros((rows.stop - rows.start, h2))
        da2[at[point, channel], channel] = routed[points][point, channel]
        d_nbr = _mlp_backward(pre, inputs, da2, grads[:4])
        if d_source is not None:
            np.add.at(d_source, cache.idx.flat[cache.win_pos[rows]], d_nbr @ pre[0])
    return grads, dz[:, h2:]


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
    n = pts.shape[0]
    if n < params.k:
        raise TooFewPoints(f"cloud has {n} points, encoder needs >= {params.k}")
    _, idx = NeighborIndex(pts).knearest(pts, params.k)  # self included, at distance zero

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
    grads, down = _pool_backward(params.layers, cache.pool, du)

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
    """What ``decoder_backward`` needs. The asymmetric decoder keeps only its
    features and its output layer's input. Its hidden layers run in
    ``_row_blocks``, and the backward recomputes the activations in between
    per block, from the same blocks the forward ran, so they have the same
    bytes: at the default (512, 256) widths that is one (rows, l) @ (l, 512)
    product per block instead of an (N, 512) array."""

    inputs: list[np.ndarray]  # asymmetric: features (N, l) and output-layer input;
                              # symmetric: the own path's layer inputs
    pool: PoolCache | None    # the symmetric decoder's pooled block


def _asymmetric_inputs(layers, fm, last, rows: slice) -> list[np.ndarray]:
    """The asymmetric decoder's layer inputs on a row block: the kept
    features and output-layer input, with the hidden activations in between
    recomputed as ``decoder_forward_cached`` computed them."""
    if len(layers) == 2:
        return [last[rows]]
    x, inputs = _mlp_forward(fm[rows], layers[:-4])
    if inputs:  # x is then a hidden layer's own pre-activation
        np.maximum(x, 0.0, out=x)
    return [*inputs, x, last[rows]]


def decoder_forward_cached(fm, params: DecoderParams, idx=None) -> tuple[np.ndarray, DecoderCache]:
    """Offsets (N, phi, 3) and the cache for ``decoder_backward`` (training
    only). The asymmetric variant is a row-wise MLP; its output layer runs
    once over all rows. The symmetric one is the pooled block over the
    encoder's (N, k) neighbor indices of the same cloud
    (``EncoderCache.pool.idx``), with each point's own feature through the
    per-neighbor stage as the own path."""
    fm = np.asarray(fm, dtype=np.float64)
    width = params.layers[0].shape[1]
    if fm.ndim != 2 or fm.shape[1] != width:
        raise ShapeMismatch(f"feature map has shape {fm.shape}, expected (N, {width})")
    pool = None
    if params.variant == "asymmetric":
        *hidden, w, b = params.layers
        last = fm
        if hidden:
            last = np.empty((fm.shape[0], w.shape[1]))
            for rows in _row_blocks(fm.shape[0]):
                np.maximum(_mlp_forward(fm[rows], hidden)[0], 0.0, out=last[rows])
        out = last @ w.T
        out += b
        inputs = [fm, last]
    else:
        if idx is None or idx.shape[0] != fm.shape[0]:
            raise ShapeMismatch("symmetric decoder requires the encoder's neighbor "
                                "indices, one row per feature row")
        a2o, inputs = _mlp_forward(fm, params.layers[:4])
        out, pool = _pool_forward(idx, lambda nbrs, rows: fm[nbrs], _relu(a2o),
                                  params.layers, keep=True)
    return out.reshape(fm.shape[0], -1, 3), DecoderCache(inputs, pool)


def decoder_backward(
    params: DecoderParams, cache: DecoderCache, d_offsets: np.ndarray
) -> tuple[Gradients, np.ndarray]:
    """Gradients w.r.t. decoder tensors plus the feature-map gradient, over
    ``_row_blocks`` of the N rows (and of the winner rows, symmetric).

    The key order is the order in which ``pipeline.clip_gradients`` sums
    the global norm, so it is part of every trained checkpoint's bytes."""
    if cache is None:
        raise MissingCache("decoder backward requires the forward cache")
    layers = params.layers
    n = cache.inputs[0].shape[0]
    dout = np.asarray(d_offsets, dtype=np.float64).reshape(n, -1)

    if params.variant == "asymmetric":
        fm, last = cache.inputs
        grads = [np.zeros(t.shape) for t in layers]
        dfm = np.empty(fm.shape)
        for rows in _row_blocks(n):
            inputs = _asymmetric_inputs(layers, fm, last, rows)
            dfm[rows] = _mlp_backward(layers, inputs, dout[rows], grads) @ layers[0]
        last_first = [j for i in range(len(grads) - 2, -1, -2) for j in (i, i + 1)]
        return {f"dec.t{j}": grads[j] for j in last_first}, dfm

    dfm = np.zeros(cache.inputs[0].shape)
    grads, down = _pool_backward(layers, cache.pool, dout, dfm)
    own = cache.pool.post_inputs[0][:, down.shape[1]:]
    d_own = down * (own > 0)
    for rows in _row_blocks(n):
        dfm[rows] += _mlp_backward(layers[:4], [x[rows] for x in cache.inputs], d_own[rows],
                                   grads[:4]) @ layers[0]
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
    accumulated before the encoder backward pass, and ``dec_cache`` is
    emptied in between to free the decoder's activations first.
    """
    if enc_cache is None:
        raise MissingCache("backward requires the encoder forward cache")
    df = np.asarray(d_features, dtype=np.float64)
    grads: Gradients = {}
    if d_offsets is not None:
        if dec_params is None or dec_cache is None:
            raise MissingCache("offset gradients supplied without a decoder cache")
        dec_grads, dfm = decoder_backward(dec_params, dec_cache, d_offsets)
        dec_cache.inputs.clear()
        dec_cache.pool = None
        grads.update(dec_grads)
        df = df + dfm
    elif dec_params is not None:
        grads.update({name: np.zeros_like(t) for name, t in dec_params.named_tensors()})
    grads.update(encoder_backward(enc_params, enc_cache, df))
    return grads


def save_checkpoint(path, enc: EncoderParams, dec: DecoderParams) -> None:
    """Versioned binary: header (magic, version, k, l, phi, variant,
    normalize, decoder k), then every tensor as little-endian float64 in
    declaration order. Decoder k is the encoder's k for the symmetric decoder,
    which pools over the encoder's neighborhoods, and 0 for the asymmetric."""
    variant_code = 0 if dec.variant == "asymmetric" else 1
    tensors = [t for _, t in named_parameters(enc, dec)]
    parts = [
        _CHECKPOINT_MAGIC,
        struct.pack("<IIIIBBHI", _CHECKPOINT_VERSION, enc.k, enc.l, dec.phi,
                    variant_code, int(enc.normalize), 0, enc.k * variant_code),
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
    if k < 1 or dec_k != k * variant_code:
        raise MalformedFile(f"{path}: encoder k {k}, decoder k {dec_k}; need k >= 1 and "
                            f"decoder k {'equal to it' if symmetric else '0'}")
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
    dec = DecoderParams("symmetric" if symmetric else "asymmetric", tuple(dec_layers))
    return enc, dec
