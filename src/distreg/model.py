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

from .errors import MalformedFile, MissingCache, NonFinite, ShapeMismatch, TooFewPoints
from .geometry import NeighborIndex, Points, as_points

_CHECKPOINT_MAGIC = b"DRFE"
_CHECKPOINT_VERSION = 1

Gradients = dict[str, np.ndarray]


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
        dims = (self.k, self.l, *self.encoder_hidden, self.encoder_post_hidden,
                self.phi, *self.decoder_hidden)
        if any(int(d) < 1 for d in dims):
            raise ValueError("all model dimensions must be >= 1")
        if len(self.encoder_hidden) != 2:
            raise ValueError("encoder_hidden must name the two per-neighbor widths")
        if self.decoder_variant not in ("asymmetric", "symmetric"):
            raise ValueError(f"unknown decoder variant {self.decoder_variant!r}")


@dataclass
class EncoderParams:
    k: int
    l: int
    normalize: bool
    w1: np.ndarray  # (h1, 3) per-neighbor stage
    b1: np.ndarray
    w2: np.ndarray  # (h2, h1)
    b2: np.ndarray
    w3: np.ndarray  # (h3, 2*h2) post-concat stage
    b3: np.ndarray
    w4: np.ndarray  # (l, h3)
    b4: np.ndarray

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(f"enc.{n}", getattr(self, n))
                for n in ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4")]

    def set_tensor(self, name: str, value: np.ndarray) -> None:
        setattr(self, name.removeprefix("enc."), value)


@dataclass
class DecoderParams:
    variant: str               # "asymmetric" | "symmetric"
    phi: int
    layers: tuple[np.ndarray, ...]  # flat (w, b, w, b, ...) in forward order
    k: int | None = None       # symmetric only: neighborhood size

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(f"dec.t{i}", t) for i, t in enumerate(self.layers)]

    def set_tensor(self, name: str, value: np.ndarray) -> None:
        i = int(name.removeprefix("dec.t"))
        layers = list(self.layers)
        layers[i] = value
        self.layers = tuple(layers)


def named_parameters(enc: EncoderParams, dec: DecoderParams) -> list[tuple[str, np.ndarray]]:
    return enc.named_tensors() + dec.named_tensors()


def set_parameter(enc: EncoderParams, dec: DecoderParams, name: str, value: np.ndarray) -> None:
    if name.startswith("enc."):
        enc.set_tensor(name, value)
    else:
        dec.set_tensor(name, value)


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
    enc = EncoderParams(cfg.k, cfg.l, cfg.normalize, w1, b1, w2, b2, w3, b3, w4, b4)

    out_dim = 3 * cfg.phi
    layers: list[np.ndarray] = []
    if cfg.decoder_variant == "asymmetric":
        dims = (cfg.l, *cfg.decoder_hidden, out_dim)
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w, b = linear(fan_out, fan_in)
            layers += [w, b]
        layers[-2] = np.zeros_like(layers[-2])
        dec = DecoderParams("asymmetric", cfg.phi, tuple(layers))
    else:
        v1, c1 = linear(h1, cfg.l)
        v2, c2 = linear(h2, h1)
        v3, c3 = linear(h3, 2 * h2)
        v4, c4 = linear(out_dim, h3)
        dec = DecoderParams("symmetric", cfg.phi, (v1, c1, v2, c2, v3, c3, np.zeros_like(v4), c4),
                            k=cfg.k)
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
# Encoder
# ---------------------------------------------------------------------------

@dataclass
class EncoderCache:
    rel: np.ndarray        # (N, k, 3) relative neighbor coordinates
    a1: np.ndarray         # (N, k, h1) pre-activation
    h1v: np.ndarray        # (N, k, h1)
    a2: np.ndarray         # (N, k, h2)
    argmax: np.ndarray     # (N, h2) winning neighbor per channel
    h1o: np.ndarray        # (h1,) own-path stage activations (zero input)
    a2o: np.ndarray        # (h2,)
    z: np.ndarray          # (N, 2*h2)
    a3: np.ndarray         # (N, h3)
    h3v: np.ndarray        # (N, h3)
    features: np.ndarray   # (N, l) final (possibly normalized)
    norms: np.ndarray      # (N,) clamped row norms (ones when not normalizing)


def _encoder_run(cloud, params: EncoderParams, keep: bool):
    pts = as_points(cloud, allow_empty=False)
    idx = _neighbor_indices(pts, params.k)
    n = pts.shape[0]
    h2 = params.b2.size

    if keep:
        rel = pts[idx] - pts[:, None, :]
        a1 = rel @ params.w1.T + params.b1
        h1v = _relu(a1)
        a2 = h1v @ params.w2.T + params.b2
        h2v = _relu(a2)
        pooled = h2v.max(axis=1)
        argmax = h2v.argmax(axis=1)
    else:
        # inference path: block the per-neighbor stage so the (N, k, h)
        # intermediates stay cache-resident at large N
        rel = a1 = h1v = a2 = argmax = None
        pooled = np.empty((n, h2))
        block = max(1, int(2e6) // max(params.k * h2, 1))
        for start in range(0, n, block):
            stop = min(start + block, n)
            rel_b = pts[idx[start:stop]] - pts[start:stop, None, :]
            h1_b = _relu(rel_b @ params.w1.T + params.b1)
            h2_b = _relu(h1_b @ params.w2.T + params.b2)
            pooled[start:stop] = h2_b.max(axis=1)

    h1o = _relu(params.b1)                     # per-neighbor stage at the zero input
    a2o = params.w2 @ h1o + params.b2
    h2o = _relu(a2o)

    z = np.concatenate([pooled, np.broadcast_to(h2o, (n, h2o.size))], axis=1)
    a3 = z @ params.w3.T + params.b3
    h3v = _relu(a3)
    u = h3v @ params.w4.T + params.b4

    if params.normalize:
        norms = np.maximum(np.linalg.norm(u, axis=1), 1e-12)
        features = u / norms[:, None]
    else:
        norms = np.ones(n)
        features = u

    cache = None
    if keep:
        cache = EncoderCache(rel, a1, h1v, a2, argmax, h1o, a2o, z, a3, h3v, features, norms)
    return features, cache


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

    g_w4 = du.T @ cache.h3v
    g_b4 = du.sum(axis=0)
    dh3 = du @ params.w4
    da3 = dh3 * (cache.a3 > 0)
    g_w3 = da3.T @ cache.z
    g_b3 = da3.sum(axis=0)
    dz = da3 @ params.w3

    h2 = params.b2.size
    dpooled = dz[:, :h2]
    down = dz[:, h2:]

    # max-pool: route each channel's gradient to its winning neighbor
    n, k, _ = cache.a2.shape
    dh2v = np.zeros((n, k, h2))
    np.put_along_axis(dh2v, cache.argmax[:, None, :], dpooled[:, None, :], axis=1)
    da2 = dh2v * (cache.a2 > 0)

    flat_da2 = da2.reshape(-1, h2)
    flat_h1v = cache.h1v.reshape(-1, cache.h1v.shape[2])
    g_w2 = flat_da2.T @ flat_h1v
    g_b2 = flat_da2.sum(axis=0)
    dh1 = da2 @ params.w2
    da1 = dh1 * (cache.a1 > 0)
    flat_da1 = da1.reshape(-1, da1.shape[2])
    g_w1 = flat_da1.T @ cache.rel.reshape(-1, 3)
    g_b1 = flat_da1.sum(axis=0)

    # own-path (zero input): contributes to b1, w2, b2 only
    da2o = down.sum(axis=0) * (cache.a2o > 0)
    g_w2 += np.outer(da2o, cache.h1o)
    g_b2 += da2o
    da1o = (params.w2.T @ da2o) * (params.b1 > 0)
    g_b1 += da1o

    return {
        "enc.w1": g_w1, "enc.b1": g_b1,
        "enc.w2": g_w2, "enc.b2": g_b2,
        "enc.w3": g_w3, "enc.b3": g_b3,
        "enc.w4": g_w4, "enc.b4": g_b4,
    }


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------

@dataclass
class DecoderCache:
    variant: str
    activations: list[np.ndarray]   # asymmetric: inputs to each layer
    preacts: list[np.ndarray]       # asymmetric: pre-activations of hidden layers
    sym: dict | None = None         # symmetric: mirrored-stage intermediates
    n_points: int = 0


def _assert_feature_width(fm: np.ndarray, expected: int) -> None:
    if fm.ndim != 2 or fm.shape[1] != expected:
        raise ShapeMismatch(f"feature map has shape {fm.shape}, expected (N, {expected})")


def _decoder_forward_asym(fm, params, keep):
    layers = params.layers
    _assert_feature_width(fm, layers[0].shape[1])
    x = fm
    activations = [x]
    preacts = []
    n_linear = len(layers) // 2
    for li in range(n_linear):
        w, b = layers[2 * li], layers[2 * li + 1]
        a = x @ w.T + b
        if li < n_linear - 1:
            preacts.append(a)
            x = _relu(a)
            activations.append(x)
        else:
            x = a
    out = x.reshape(fm.shape[0], params.phi, 3)
    cache = DecoderCache("asymmetric", activations, preacts, n_points=fm.shape[0]) if keep else None
    return out, cache


def _decoder_forward_sym(fm, params, cloud, keep):
    if cloud is None:
        raise ShapeMismatch("symmetric decoder requires the source cloud")
    v1, c1, v2, c2, v3, c3, v4, c4 = params.layers
    _assert_feature_width(fm, v1.shape[1])
    pts = as_points(cloud, allow_empty=False)
    if pts.shape[0] != fm.shape[0]:
        raise ShapeMismatch("feature map rows must match cloud points")
    idx = _neighbor_indices(pts, params.k)

    nbr = fm[idx]                              # (N, k, l)
    a1 = nbr @ v1.T + c1
    h1v = _relu(a1)
    a2 = h1v @ v2.T + c2
    h2v = _relu(a2)
    pooled = h2v.max(axis=1)
    argmax = h2v.argmax(axis=1)

    a1o = fm @ v1.T + c1                       # own path: the point's own feature
    h1o = _relu(a1o)
    a2o = h1o @ v2.T + c2
    h2o = _relu(a2o)

    z = np.concatenate([pooled, h2o], axis=1)
    a3 = z @ v3.T + c3
    h3v = _relu(a3)
    out = (h3v @ v4.T + c4).reshape(fm.shape[0], params.phi, 3)

    cache = None
    if keep:
        cache = DecoderCache(
            "symmetric", [], [],
            sym=dict(idx=idx, fm=fm, nbr=nbr, a1=a1, h1v=h1v, a2=a2, argmax=argmax,
                     a1o=a1o, h1o=h1o, a2o=a2o, z=z, a3=a3, h3v=h3v),
            n_points=fm.shape[0],
        )
    return out, cache


def decoder_forward(fm, params: DecoderParams, cloud=None) -> np.ndarray:
    """Offsets, shape (N, phi, 3). The symmetric variant additionally needs
    the cloud to rebuild neighborhoods."""
    out, _ = decoder_forward_cached(fm, params, cloud=cloud, keep=False)
    return out


def decoder_forward_cached(fm, params: DecoderParams, cloud=None, keep: bool = True):
    fm = np.asarray(fm, dtype=np.float64)
    if params.variant == "asymmetric":
        return _decoder_forward_asym(fm, params, keep)
    return _decoder_forward_sym(fm, params, cloud, keep)


def decoder_backward(
    params: DecoderParams, cache: DecoderCache, d_offsets: np.ndarray
) -> tuple[Gradients, np.ndarray]:
    """Gradients w.r.t. decoder tensors plus the feature-map gradient."""
    if cache is None:
        raise MissingCache("decoder backward requires the forward cache")
    dout = np.asarray(d_offsets, dtype=np.float64).reshape(cache.n_points, -1)

    grads: Gradients = {}
    if params.variant == "asymmetric":
        layers = params.layers
        n_linear = len(layers) // 2
        d = dout
        for li in range(n_linear - 1, -1, -1):
            w = layers[2 * li]
            x = cache.activations[li]
            grads[f"dec.t{2 * li}"] = d.T @ x
            grads[f"dec.t{2 * li + 1}"] = d.sum(axis=0)
            d = d @ w
            if li > 0:
                d = d * (cache.preacts[li - 1] > 0)
        return grads, d

    v1, c1, v2, c2, v3, c3, v4, c4 = params.layers
    s = cache.sym
    g_v4 = dout.T @ s["h3v"]
    g_c4 = dout.sum(axis=0)
    dh3 = dout @ v4
    da3 = dh3 * (s["a3"] > 0)
    g_v3 = da3.T @ s["z"]
    g_c3 = da3.sum(axis=0)
    dz = da3 @ v3

    h2 = c2.size
    dpooled = dz[:, :h2]
    down = dz[:, h2:]

    n, k, _ = s["a2"].shape
    dh2v = np.zeros((n, k, h2))
    np.put_along_axis(dh2v, s["argmax"][:, None, :], dpooled[:, None, :], axis=1)
    da2 = dh2v * (s["a2"] > 0)
    flat_da2 = da2.reshape(-1, h2)
    g_v2 = flat_da2.T @ s["h1v"].reshape(-1, s["h1v"].shape[2])
    g_c2 = flat_da2.sum(axis=0)
    dh1 = da2 @ v2
    da1 = dh1 * (s["a1"] > 0)
    flat_da1 = da1.reshape(-1, da1.shape[2])
    g_v1 = flat_da1.T @ s["nbr"].reshape(-1, s["nbr"].shape[2])
    g_c1 = flat_da1.sum(axis=0)

    da2o = down * (s["a2o"] > 0)
    g_v2 += da2o.T @ s["h1o"]
    g_c2 += da2o.sum(axis=0)
    dh1o = da2o @ v2
    da1o = dh1o * (s["a1o"] > 0)
    g_v1 += da1o.T @ s["fm"]
    g_c1 += da1o.sum(axis=0)

    dfm = np.zeros(s["fm"].shape)
    np.add.at(dfm, s["idx"].reshape(-1), (da1 @ v1).reshape(-1, v1.shape[1]))
    dfm += da1o @ v1

    grads = {
        "dec.t0": g_v1, "dec.t1": g_c1,
        "dec.t2": g_v2, "dec.t3": g_c2,
        "dec.t4": g_v3, "dec.t5": g_c3,
        "dec.t6": g_v4, "dec.t7": g_c4,
    }
    return grads, dfm


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructedCloud:
    """N*phi generated points with (source point, offset slot) provenance."""

    points: Points
    source_index: np.ndarray
    slot: np.ndarray


def fuse(cloud, offsets: np.ndarray) -> ReconstructedCloud:
    """Point (i, j) = p_i + offset[i, j]; exact by construction."""
    pts = as_points(cloud)
    off = np.asarray(offsets, dtype=np.float64)
    if off.ndim != 3 or off.shape[0] != pts.shape[0] or off.shape[2] != 3:
        raise ShapeMismatch(f"offsets shape {off.shape} incompatible with cloud {pts.shape}")
    if not np.isfinite(off).all():
        raise NonFinite("offsets contain non-finite values")
    n, phi = off.shape[0], off.shape[1]
    fused = (pts[:, None, :] + off).reshape(n * phi, 3)
    return ReconstructedCloud(
        points=fused,
        source_index=np.repeat(np.arange(n, dtype=np.int64), phi),
        slot=np.tile(np.arange(phi, dtype=np.int64), n),
    )


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
    version, k, l, phi, variant_code, normalize, _, dec_k = struct.unpack_from(
        header, raw, take(struct.calcsize(header)))
    if version != _CHECKPOINT_VERSION:
        raise MalformedFile(f"{path}: unsupported checkpoint version {version}")
    (n_tensors,) = struct.unpack_from("<I", raw, take(4))
    tensors = []
    for _ in range(n_tensors):
        (ndim,) = struct.unpack_from("<B", raw, take(1))
        shape = struct.unpack_from(f"<{ndim}I", raw, take(4 * ndim))
        count = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=take(8 * count))
        tensors.append(arr.reshape(shape).copy())
    if off != len(raw):
        raise MalformedFile(f"{path}: trailing bytes in checkpoint")
    if len(tensors) < 9:
        raise MalformedFile(f"{path}: checkpoint is missing tensors")
    enc = EncoderParams(k, l, bool(normalize), *tensors[:8])
    dec = DecoderParams(
        "asymmetric" if variant_code == 0 else "symmetric",
        phi,
        tuple(tensors[8:]),
        k=dec_k or None,
    )
    return enc, dec
