"""Training loop and experiment protocols: curriculum training,
distance-binned evaluation, alignment-disturbance robustness, and density
variation.

Randomness discipline: every random choice draws from a purpose-specific
generator seeded as ``[seed, tag, step]``, so streams never shift when an
unrelated computation is skipped. Identical (seed, config, data) give
bit-identical training logs and parameters on one numpy/BLAS build at one
BLAS thread count; another thread count rounds the matrix products
differently, and the trained parameters drift apart over the epochs.

Threads: a training step runs its two clouds' halves at once, cloud B's on
a one-worker pool and cloud A's on the calling thread (``on_two_threads``),
and ``register_pair`` encodes its two clouds the same way. Only the
contrastive loss couples the clouds; it runs between the two phases on the
caller. Results are joined in the serial order (A then B), so the bytes do
not depend on the thread timing. One worker plus the caller, rather than
two workers, leaves the caller working instead of waiting and starts one
thread fewer, with one malloc arena fewer: a step's peak memory stays near
the serial step's.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import model as mdl
from .aggregate import ApgConfig, DisturbConfig, generate_apc, select_nonkey_frames
from .dataio import FrameSequence, PairRecord, PairSpec, distill_records, relative_gt
from .errors import NonFinite, NonFiniteLoss, NoPairs, check_int
from .geometry import (
    NeighborIndex,
    Points,
    RigidTransform,
    apply_transform,
    as_points,
    on_two_threads,
    voxel_downsample,
)
from .losses import LossConfig, LossReport, chamfer, hardest_contrastive, l2_offset_reg, total_loss
from .register import (
    CRITERIA,
    Criterion,
    PairResult,
    RansacConfig,
    evaluate,
    match_features,
    mutual_nearest,
    ransac_register,
    registration_recall,
)

# Each training step's gradient is rescaled to at most this L2 norm over
# every tensor. Unnormalized features start meters wide, so the first
# steps' gradients are tens of times the later ones; unclipped, momentum
# overshoots and silences most post-pool units of the encoder for good.
GRAD_CLIP = 3.0
# Reconstruction targets keep only aggregate points within this many meters
# of an input point. The decoder places phi points beside each input point,
# so aggregate geometry the key frame never saw is out of its reach, and
# would otherwise make up nearly all of the chamfer term.
RECON_REACH = 1.0

_TAG_SHUFFLE = 101
_TAG_DISTURB = 211
_TAG_METRIC = 307
_TAG_DENSITY = 401


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 1e-2
    momentum: float = 0.9
    seed: int = 0
    input_voxel_size: float = 0.0      # 0 disables key-frame pre-voxelization
    gt_corr_radius: float = 0.3
    model: mdl.ModelConfig = field(default_factory=mdl.ModelConfig)
    apg: ApgConfig = field(default_factory=ApgConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    n_disturb: int = 0

    def __post_init__(self):
        check_int("epochs", self.epochs, 1)
        check_int("n_disturb", self.n_disturb, 0)
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if not 0 <= self.input_voxel_size < np.inf:
            raise ValueError("input_voxel_size must be >= 0 and finite")


@dataclass(frozen=True)
class CurriculumSpec:
    """Pre-train on a near-distance bin, then finetune on [d1, d2] when the
    far edge reaches 30 m; below that no finetuning is applied."""

    pretrain_bin: tuple[float, float] = (5.0, 20.0)
    d2: float = 20.0
    overlap_max: float = 1.0
    tau: float = 0.5

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not 0 <= self.d2 < np.inf:
            raise ValueError("d2 must be >= 0 and finite")
        self.pair_specs()  # rejects a bad bin or overlap cap

    @property
    def finetune_active(self) -> bool:
        return self.d2 >= 30.0

    @property
    def finetune_bin(self) -> tuple[float, float]:
        return (self.pretrain_bin[0], self.d2)

    def pair_specs(self) -> list[PairSpec]:
        """The pre-training phase's pair selection, then the finetuning
        phase's when it is active."""
        bins = [self.pretrain_bin] + ([self.finetune_bin] if self.finetune_active else [])
        return [PairSpec(*b, self.overlap_max) for b in bins]


@dataclass(frozen=True)
class StepRecord:
    step: int
    l_ml: float
    l_cd: float
    l_l2: float
    total: float


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    val_inlier_ratio: float


@dataclass
class TrainLog:
    steps: list[StepRecord] = field(default_factory=list)
    epochs: list[EpochRecord] = field(default_factory=list)


def write_train_log(path, log: TrainLog) -> None:
    lines = ["kind,index,l_ml,l_cd,l_l2,total,val_inlier_ratio"]
    for s in log.steps:
        lines.append(f"step,{s.step},{s.l_ml:.17g},{s.l_cd:.17g},{s.l_l2:.17g},{s.total:.17g},")
    for e in log.epochs:
        lines.append(f"epoch,{e.epoch},,,,,{e.val_inlier_ratio:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Correspondence and validation helpers
# ---------------------------------------------------------------------------

def gt_correspondences(cloud_a, cloud_b, gt: RigidTransform, radius: float = 0.3) -> np.ndarray:
    """Mutual-closest point pairs within ``radius`` after ground-truth
    alignment of the (N, 3) cloud A onto the (M, 3) cloud B: the (K, 2)
    int64 array of (row of A, row of B) pairs."""
    pairs, d = mutual_nearest(apply_transform(as_points(cloud_a), gt), as_points(cloud_b))
    return pairs[d < radius]


def feature_inlier_ratio(
    features_a, features_b, cloud_a, cloud_b, gt: RigidTransform, radius: float = 0.6
) -> float:
    """Fraction of mutual-NN feature matches whose points land within
    ``radius`` under the ground-truth alignment."""
    matches = match_features(features_a, features_b)
    if len(matches) == 0:
        return 0.0
    a = apply_transform(as_points(cloud_a), gt)
    b = as_points(cloud_b)
    d = np.linalg.norm(a[matches[:, 0]] - b[matches[:, 1]], axis=1)
    return float(np.count_nonzero(d < radius)) / len(matches)


def reachable_target(apc, cloud, reach: float = RECON_REACH) -> Points:
    """Aggregate points within ``reach`` of some point of ``cloud``."""
    target = as_points(apc)
    return target[NeighborIndex(cloud).within(target, reach)]


def clip_gradients(grads: mdl.Gradients, max_norm: float = GRAD_CLIP) -> mdl.Gradients:
    """Scale every tensor by one factor so that the global L2 norm is at
    most ``max_norm``."""
    norm = float(np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values())))
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return {name: g * scale for name, g in grads.items()}


def _prepare_cloud(cloud, input_voxel_size: float) -> Points:
    if not 0 <= input_voxel_size < np.inf:
        raise ValueError("input_voxel_size must be >= 0 and finite")
    if input_voxel_size > 0:
        return voxel_downsample(cloud, input_voxel_size)
    return as_points(cloud)


# ---------------------------------------------------------------------------
# Per-pair loss (the training step core; also the gradient-check target)
# ---------------------------------------------------------------------------

def pair_loss_and_grads(
    cloud_a,
    cloud_b,
    apc_a,
    apc_b,
    gt_pairs: np.ndarray,
    enc: mdl.EncoderParams,
    dec: mdl.DecoderParams,
    cfg: LossConfig,
    rng: np.random.Generator | None = None,
) -> tuple[LossReport, mdl.Gradients]:
    """Full loss l_ml + lambda1·l_cd + lambda2·l_l2 for one training pair,
    with exact gradients for every encoder and decoder tensor.

    The chamfer term reconstructs each cloud against its own aggregate;
    the L2 term sums the two per-cloud offset means.

    Apart from the contrastive term the two clouds never meet, so each
    cloud's half runs on its own thread (``on_two_threads``: cloud B's on
    one worker, cloud A's on the caller): first its encoder forward, then,
    after the contrastive loss on the caller with ``rng``, its decoder,
    chamfer and L2 terms and backward. The halves are joined in the serial
    order, A then B, for the loss sums and for the gradient sum and its key
    order, so the result does not depend on which half finishes first; an
    error of A's half wins over one of B's.
    """
    (fa, cache_a), (fb, cache_b) = on_two_threads(
        lambda: mdl.encoder_forward_cached(cloud_a, enc),
        lambda: mdl.encoder_forward_cached(cloud_b, enc))

    l_ml, d_fa, d_fb = hardest_contrastive(fa, fb, gt_pairs, cfg, rng=rng)

    (cd_a, reg_a, grads_a), (cd_b, reg_b, grads_b) = on_two_threads(
        lambda: _cloud_loss_and_grads(cloud_a, fa, apc_a, cache_a, d_fa, enc, dec, cfg),
        lambda: _cloud_loss_and_grads(cloud_b, fb, apc_b, cache_b, d_fb, enc, dec, cfg))
    grads = mdl.add_gradients(mdl.add_gradients({}, grads_a), grads_b)
    report = total_loss(l_ml, 0.0 + cd_a + cd_b, 0.0 + reg_a + reg_b, cfg)
    return report, grads


def _cloud_loss_and_grads(cloud, feats, apc, cache, d_f, enc, dec, cfg: LossConfig):
    """One cloud's chamfer and L2 terms (zero without the decoder) and its
    gradients, given its metric-loss gradient ``d_f``. The decoder's cache
    goes before the encoder backward runs, which keeps each thread's peak
    down; the keys are in ``mdl.backward``'s order."""
    if not (cfg.lambda1 > 0 or cfg.lambda2 > 0):
        return 0.0, 0.0, mdl.backward(enc, cache, d_f, dec)
    offsets, dec_cache = mdl.decoder_forward_cached(feats, dec, cloud=cloud)
    cd, d_recon = chamfer(mdl.fuse(cloud, offsets), apc)
    reg, d_reg = l2_offset_reg(offsets)
    d_off = cfg.lambda1 * d_recon.reshape(offsets.shape) + cfg.lambda2 * d_reg
    grads, d_fm = mdl.decoder_backward(dec, dec_cache, d_off)
    del dec_cache
    grads.update(mdl.encoder_backward(enc, cache, d_f + d_fm))
    return cd, reg, grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class _PairContext:
    """Immutable per-pair data reused across epochs."""

    cloud_a: Points
    cloud_b: Points
    gt: RigidTransform
    gt_pairs: np.ndarray  # (K, 2) int64, from gt_correspondences


def _build_pair_context(seq_a, seq_b, i, j, cfg: TrainConfig) -> _PairContext:
    fa = seq_a[seq_a.position_of(i)]
    fb = seq_b[seq_b.position_of(j)]
    # keep training inputs within the geometry the aggregate target covers
    r = cfg.apg.scope_radius
    ca = _prepare_cloud(fa.cloud[np.linalg.norm(fa.cloud, axis=1) <= r], cfg.input_voxel_size)
    cb = _prepare_cloud(fb.cloud[np.linalg.norm(fb.cloud, axis=1) <= r], cfg.input_voxel_size)
    gt = relative_gt(fa, fb)
    pairs = gt_correspondences(ca, cb, gt, cfg.gt_corr_radius)
    return _PairContext(ca, cb, gt, pairs)


def train(
    seq_a: FrameSequence,
    seq_b: FrameSequence,
    pairs: list[tuple[int, int]],
    cfg: TrainConfig,
    init: tuple[mdl.EncoderParams, mdl.DecoderParams] | None = None,
    val_pairs: list[tuple[int, int]] | None = None,
) -> tuple[mdl.EncoderParams, mdl.DecoderParams, TrainLog]:
    """Momentum-SGD over per-pair steps; one epoch visits every pair once
    in a seeded shuffled order. Gradients are clipped to ``GRAD_CLIP`` and
    aggregates to ``RECON_REACH``; the learning rate halves at 2/3 of the
    epochs. Deterministic for a fixed (seed, config, data) on one BLAS
    build and thread count.

    Raises NoPairs on an empty pair list and NonFiniteLoss (with the step
    index) if the loss diverges.
    """
    if not pairs:
        raise NoPairs("training requires at least one distilled pair")
    if init is not None:
        enc, dec = copy.deepcopy(init[0]), copy.deepcopy(init[1])
    else:
        enc, dec = mdl.init_params(cfg.seed, cfg.model)

    contexts = {(i, j): _build_pair_context(seq_a, seq_b, i, j, cfg) for i, j in pairs}
    apc_cache: dict[tuple[int, int], Points] = {}

    def apc_for(seq, which, key_index, cloud, step):
        if cfg.n_disturb > 0:
            # near sequence boundaries fewer non-key frames exist; disturb
            # at most what the selector can provide
            available = len(select_nonkey_frames(seq, key_index, cfg.apg))
            disturb = DisturbConfig(min(cfg.n_disturb, available),
                                    seed=[cfg.seed, _TAG_DISTURB, step])
            return reachable_target(generate_apc(seq, key_index, cfg.apg, disturb), cloud)
        cache_key = (which, key_index)
        if cache_key not in apc_cache:
            apc_cache[cache_key] = reachable_target(generate_apc(seq, key_index, cfg.apg), cloud)
        return apc_cache[cache_key]

    velocity = {name: np.zeros_like(t) for name, t in mdl.named_parameters(enc, dec)}
    log = TrainLog()
    decay_epoch = int(np.ceil(cfg.epochs * 2 / 3))
    step = 0
    run_decoder = cfg.loss.lambda1 > 0 or cfg.loss.lambda2 > 0
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, _TAG_SHUFFLE, epoch]).permutation(len(pairs))
        lr = cfg.learning_rate * (0.5 if epoch >= decay_epoch else 1.0)
        for pos in order:
            i, j = pairs[int(pos)]
            ctx = contexts[(i, j)]
            apc_a = apc_for(seq_a, 0, i, ctx.cloud_a, step) if run_decoder else None
            apc_b = apc_for(seq_b, 1, j, ctx.cloud_b, step) if run_decoder else None
            rng_metric = np.random.default_rng([cfg.seed, _TAG_METRIC, step])
            try:
                report, grads = pair_loss_and_grads(
                    ctx.cloud_a, ctx.cloud_b, apc_a, apc_b, ctx.gt_pairs,
                    enc, dec, cfg.loss, rng=rng_metric,
                )
            except NonFinite as exc:
                raise NonFiniteLoss(step) from exc
            if not np.isfinite(report.total):
                raise NonFiniteLoss(step)
            grads = clip_gradients(grads)
            # in place: enc and dec are this call's own copies
            for name, tensor in mdl.named_parameters(enc, dec):
                v = cfg.momentum * velocity[name] + grads[name]
                velocity[name] = v
                tensor -= lr * v
            log.steps.append(StepRecord(step, report.l_ml, report.l_cd, report.l_l2, report.total))
            step += 1
        if val_pairs:
            ratios = []
            for vi, vj in val_pairs:
                key = (vi, vj)
                if key not in contexts:
                    contexts[key] = _build_pair_context(seq_a, seq_b, vi, vj, cfg)
                vctx = contexts[key]
                fa, fb = _encode_pair(vctx.cloud_a, vctx.cloud_b, enc)
                ratios.append(feature_inlier_ratio(fa, fb, vctx.cloud_a, vctx.cloud_b, vctx.gt))
            log.epochs.append(EpochRecord(epoch, float(np.mean(ratios))))
    return enc, dec, log


def train_curriculum(
    seq_a: FrameSequence,
    seq_b: FrameSequence,
    cfg: TrainConfig,
    spec: CurriculumSpec,
) -> tuple[mdl.EncoderParams, mdl.DecoderParams, list[TrainLog]]:
    """Pre-train on the near bin, then (for d2 >= 30) continue from the
    resulting parameters on the widened bin."""
    init, logs = None, []
    for pair_spec in spec.pair_specs():
        records = distill_records(seq_a, seq_b, pair_spec, spec.tau)
        enc, dec, log = train(seq_a, seq_b, [(r.i, r.j) for r in records], cfg, init=init)
        init = (enc, dec)
        logs.append(log)
    return enc, dec, logs


# ---------------------------------------------------------------------------
# Evaluation protocols (encoder only: no aggregation or decoder on this path)
# ---------------------------------------------------------------------------

def _encode_pair(cloud_a, cloud_b, enc: mdl.EncoderParams) -> tuple[np.ndarray, np.ndarray]:
    """Both clouds' features, cloud B's encoded on a second thread."""
    return on_two_threads(lambda: mdl.encoder_forward(cloud_a, enc),
                          lambda: mdl.encoder_forward(cloud_b, enc))


def register_pair(
    cloud_a,
    cloud_b,
    enc: mdl.EncoderParams,
    ransac: RansacConfig,
    input_voxel_size: float = 0.0,
):
    """Online registration: encode both key frames (on two threads),
    match features mutually, estimate the transform robustly."""
    ca = _prepare_cloud(cloud_a, input_voxel_size)
    cb = _prepare_cloud(cloud_b, input_voxel_size)
    fa, fb = _encode_pair(ca, cb, enc)
    corr = match_features(fa, fb)
    return ransac_register(corr, ca, cb, ransac)


def evaluate_pairs(
    seq_a: FrameSequence,
    seq_b: FrameSequence,
    pairs,
    enc: mdl.EncoderParams,
    ransac: RansacConfig,
    input_voxel_size: float = 0.0,
    downsample: tuple[float, int] | None = None,
) -> list[PairResult]:
    """Register and score each pair against its ground-truth transform.

    ``pairs`` holds (i, j) tuples or PairRecord-likes carrying distance and
    overlap. ``downsample=(ratio, seed)`` keeps ceil(ratio*N) points of the
    first cloud of every pair before registration."""
    out = []
    for pair in pairs:
        if isinstance(pair, tuple):
            pair = PairRecord(*pair, float("nan"), float("nan"))
        i, j = pair.i, pair.j
        fa = seq_a[seq_a.position_of(i)]
        fb = seq_b[seq_b.position_of(j)]
        cloud_a = fa.cloud
        if downsample is not None:
            ratio, seed = downsample
            cloud_a = random_downsample(cloud_a, ratio, np.random.default_rng(
                [seed, _TAG_DENSITY, i * 1_000_003 + j]))
        gt = relative_gt(fa, fb)
        est = register_pair(cloud_a, fb.cloud, enc, ransac, input_voxel_size)
        out.append(evaluate(est.transform, gt, CRITERIA, est.inlier_count, pair))
    return out


def random_downsample(cloud, ratio: float, rng: np.random.Generator) -> Points:
    """Uniformly keep ceil(ratio*N) points, preserving input order."""
    if not 0 < ratio <= 1:
        raise ValueError("ratio must be in (0, 1]")
    pts = as_points(cloud)
    n = pts.shape[0]
    keep = int(np.ceil(ratio * n))
    if keep >= n:
        return pts
    idx = np.sort(rng.choice(n, size=keep, replace=False))
    return pts[idx]


def check_distance_bins(bins) -> list[tuple[float, float]]:
    """Distance bins as float pairs; each needs 0 <= lo < hi and no two may
    overlap (touching ends are allowed)."""
    bins = [(float(lo), float(hi)) for lo, hi in bins]
    if any(not 0 <= lo < hi for lo, hi in bins):
        raise ValueError("distance bins need 0 <= lo < hi")
    ordered = sorted(bins)
    for (_, a2), (b1, _) in zip(ordered, ordered[1:]):
        if b1 < a2:
            raise ValueError("distance bins must be non-overlapping")
    return bins


def check_density_ratios(ratios) -> list[float]:
    """Density ratios as floats, each in (0, 1]."""
    ratios = [float(r) for r in ratios]
    if any(not 0 < r <= 1 for r in ratios):
        raise ValueError("density ratios must be in (0, 1]")
    return ratios


def eval_distance_bins(results, bins, criterion: Criterion) -> dict[tuple[float, float], dict]:
    """Recall per inclusive distance bin (lo <= distance <= hi) over pairs
    that were already evaluated, in the order the bins are given. Empty
    bins are reported with rr=None rather than failing."""
    out = {}
    for lo, hi in check_distance_bins(bins):
        grp = [r for r in results if lo <= r.distance <= hi]
        rr = registration_recall(grp, criterion) if grp else None
        out[(lo, hi)] = {"rr": rr, "n_pairs": len(grp)}
    return out


def eval_disturb(
    seq_a: FrameSequence,
    seq_b: FrameSequence,
    train_pairs,
    val_pairs,
    cfg: TrainConfig,
    sweep,
    criterion: Criterion,
    ransac: RansacConfig,
) -> dict[int, float]:
    """Train one model per disturbance count (disturbance only perturbs the
    aggregation targets during training) and report recall on a clean
    validation set."""
    max_nonkey = 2 * cfg.apg.psi
    if any(n > max_nonkey for n in sweep):
        raise ValueError(f"sweep values must be <= {max_nonkey}")
    out = {}
    for n in sweep:
        run_cfg = replace(cfg, n_disturb=int(n))
        enc, _, _ = train(seq_a, seq_b, list(train_pairs), run_cfg)
        results = evaluate_pairs(seq_a, seq_b, list(val_pairs), enc, ransac,
                                 cfg.input_voxel_size)
        out[int(n)] = registration_recall(results, criterion)
    return out


def eval_density(
    enc: mdl.EncoderParams,
    seq_a: FrameSequence,
    seq_b: FrameSequence,
    val_pairs,
    ratios,
    ransac: RansacConfig,
    seed: int = 0,
    input_voxel_size: float = 0.0,
) -> dict[float, list[PairResult]]:
    """Evaluated pairs per ratio, with the first cloud of every pair
    uniformly downsampled to that ratio (ratio 1 keeps the cloud as it is)."""
    return {
        r: evaluate_pairs(seq_a, seq_b, list(val_pairs), enc, ransac, input_voxel_size,
                          downsample=(r, seed))
        for r in check_density_ratios(ratios)
    }
