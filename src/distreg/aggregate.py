"""Aggregated reconstruction targets: pose-align the non-key frames around
a key frame, crop to a scope sphere, and voxel-downsample.

The optional disturbance protocol randomly rotates a subset of the selected
non-key frames about their own sensor origin before aggregation, emulating
alignment failures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import FrameSequence
from .errors import NoNeighborFrames, check_int
from .geometry import (
    NeighborIndex,
    Points,
    apply_transform,
    as_points,
    in_sphere,
    rotation_about_axis,
    voxel_downsample,
)


@dataclass(frozen=True)
class ApgConfig:
    """Aggregation parameters: ``psi`` frames per temporal side, spaced at
    the distance interval ``alpha`` meters."""

    psi: int = 3
    alpha: float = 10.0
    scope_radius: float = 50.0
    voxel_size: float = 0.3

    def __post_init__(self):
        check_int("psi", self.psi, 1)
        for name in ("alpha", "scope_radius", "voxel_size"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive")
            if not value < np.inf:
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class DisturbConfig:
    """Rotate ``n_disturb`` randomly chosen non-key frames by a random angle
    in [-pi, pi] about a random axis."""

    n_disturb: int
    seed: int = 0

    def __post_init__(self):
        check_int("n_disturb", self.n_disturb, 0)


def select_nonkey_frames(seq: FrameSequence, key_index: int, cfg: ApgConfig) -> list[int]:
    """Frame indices nearest (in sensor-origin distance) to each target
    distance k*alpha, k = 1..psi, on each temporal side of the key frame.

    Returns fewer than 2*psi indices near sequence boundaries; duplicates
    collapse when one frame is the best match for several targets.
    """
    key_pos = seq.position_of(key_index)
    origins = seq.origins()
    d = np.linalg.norm(origins - origins[key_pos], axis=1)
    selected: list[int] = []
    for side in (-1, +1):
        if side < 0:
            positions = np.arange(0, key_pos)
        else:
            positions = np.arange(key_pos + 1, len(seq))
        if positions.size == 0:
            continue
        for k in range(1, cfg.psi + 1):
            best = positions[np.argmin(np.abs(d[positions] - k * cfg.alpha))]
            idx = seq[int(best)].index
            if idx not in selected:
                selected.append(idx)
    return sorted(selected)


def _disturb_rotations(n_frames: int, disturb: DisturbConfig) -> dict[int, np.ndarray]:
    """Map position-in-selection -> rotation matrix for disturbed frames."""
    if disturb.n_disturb > n_frames:
        raise ValueError(f"n_disturb={disturb.n_disturb} exceeds {n_frames} non-key frames")
    rng = np.random.default_rng(disturb.seed)
    chosen = rng.choice(n_frames, size=disturb.n_disturb, replace=False)
    rotations = {}
    for pos in sorted(int(c) for c in chosen):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-np.pi, np.pi)
        rotations[pos] = rotation_about_axis(axis, angle)
    return rotations


def generate_apc(
    seq: FrameSequence,
    key_index: int,
    cfg: ApgConfig,
    disturb: DisturbConfig | None = None,
) -> Points:
    """Aggregate the selected non-key frames (never the key frame itself) in
    the key frame's sensor coordinates, crop to the scope sphere, and
    voxel-downsample."""
    nonkey = select_nonkey_frames(seq, key_index, cfg)
    if not nonkey:
        raise NoNeighborFrames(f"no non-key frames available around frame {key_index}")

    rotations: dict[int, np.ndarray] = {}
    if disturb is not None and disturb.n_disturb > 0:
        rotations = _disturb_rotations(len(nonkey), disturb)

    key_pose = seq[seq.position_of(key_index)].pose
    to_key = key_pose.inverse()
    chunks = []
    for pos, idx in enumerate(nonkey):
        frame = seq[seq.position_of(idx)]
        pts = frame.cloud
        if pos in rotations:
            pts = pts @ rotations[pos].T  # about the frame's own sensor origin
        pts = apply_transform(pts, to_key.compose(frame.pose))
        pts = pts[in_sphere(pts, cfg.scope_radius)]
        chunks.append(pts)
    apc = voxel_downsample(np.vstack(chunks), cfg.voxel_size)
    # centroid rounding can push a point past the sphere by ~1 ulp; re-crop
    return apc[in_sphere(apc, cfg.scope_radius)]


def apc_coverage_gain(key_frame_cropped, apc, tau: float) -> float:
    """Fraction of aggregate points farther than tau from every key-frame
    point: geometry present in the target but absent from the input."""
    key = as_points(key_frame_cropped, allow_empty=False)
    agg = as_points(apc, allow_empty=False)
    if not tau > 0:
        raise ValueError("tau must be positive")
    d, _ = NeighborIndex(key).nearest(agg)
    return float(np.count_nonzero(d > tau)) / agg.shape[0]
