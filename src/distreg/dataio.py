"""Dataset ingest and pair distillation.

File formats:
  * point file — binary little-endian float32 quadruples (x, y, z, reflectance)
  * pose file  — text, one frame per line, 12 decimals row-major 3x4 [R|t]
  * dataset directory — ``NNNNNN.bin`` point files + ``poses.txt`` + ``meta.json``
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MalformedFile, NonRigidPose, UnknownFrame
from .geometry import NeighborIndex, Points, RigidTransform, as_points, ordered_map, overlap_ratio

_POSE_REPAIR_TOL = 1e-3


@dataclass(frozen=True)
class Frame:
    """One time-indexed scan with its sensor→world pose."""

    cloud: Points
    pose: RigidTransform
    index: int


@dataclass(frozen=True)
class FrameSequence:
    """Time series of frames with strictly increasing non-negative indices."""

    frames: tuple[Frame, ...]

    def __post_init__(self):
        frames = tuple(self.frames)
        indices = [f.index for f in frames]
        if any(b <= a for a, b in zip([-1] + indices, indices)):
            raise ValueError(f"frame indices must be non-negative and strictly increasing: {indices}")
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, position: int) -> Frame:
        return self.frames[position]

    def __iter__(self):
        return iter(self.frames)

    def position_of(self, frame_index: int) -> int:
        """Position of the frame with index ``frame_index``, else UnknownFrame."""
        for pos, f in enumerate(self.frames):
            if f.index == frame_index:
                return pos
        raise UnknownFrame(f"no frame with index {frame_index}")

    def origins(self) -> Points:
        """Sensor origins (pose translations), shape (F, 3)."""
        return np.array([f.pose.translation for f in self.frames])


def read_text(path) -> str:
    """A text file's contents; bytes that do not decode raise MalformedFile."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: {exc}") from exc


def load_kitti_bin(path) -> Points:
    """Parse a binary point file; reflectance is discarded, order preserved."""
    raw = Path(path).read_bytes()
    if len(raw) % 16 != 0:
        raise MalformedFile(f"{path}: size {len(raw)} is not a multiple of 16 bytes")
    points = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)[:, :3].astype(np.float64)
    if not np.isfinite(points).all():
        raise MalformedFile(f"{path}: non-finite coordinate")
    return points


def write_kitti_bin(path, cloud) -> None:
    """Write points as little-endian float32 (x, y, z, 0) records."""
    pts = as_points(cloud)
    records = np.hstack([pts, np.zeros((pts.shape[0], 1))]).astype("<f4")
    Path(path).write_bytes(records.tobytes())


def load_pose_file(path) -> list[RigidTransform]:
    """Parse 3x4 row-major [R|t] lines; rotations off by ≤ 1e-3 are
    re-orthonormalized via SVD, beyond that NonRigidPose is raised."""
    poses = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 12:
            raise MalformedFile(f"{path}:{lineno}: expected 12 values, got {len(tokens)}")
        try:
            values = np.array([float(t) for t in tokens]).reshape(3, 4)
        except ValueError as exc:
            raise MalformedFile(f"{path}:{lineno}: {exc}") from exc
        if not np.isfinite(values).all():
            raise MalformedFile(f"{path}:{lineno}: non-finite value")
        R = values[:, :3]
        deviation = max(
            np.abs(R.T @ R - np.eye(3)).max(),
            abs(np.linalg.det(R) - 1.0),
        )
        if deviation > _POSE_REPAIR_TOL:
            raise NonRigidPose(f"{path}:{lineno}: orthonormality violation {deviation:.3e}")
        if deviation > 1e-12:
            U, _, Vt = np.linalg.svd(R)
            R = U @ Vt
        poses.append(RigidTransform(R, values[:, 3]))
    return poses


def write_pose_file(path, poses) -> None:
    lines = [" ".join(f"{v:.17g}" for v in p.matrix34().ravel()) for p in poses]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


@dataclass(frozen=True)
class PairSpec:
    """Distance bin and overlap cap selecting registration pairs."""

    d1: float
    d2: float
    overlap_max: float = 1.0

    def __post_init__(self):
        if not 0 <= self.d1 < self.d2:
            raise ValueError("need 0 <= d1 < d2")
        if not 0 < self.overlap_max <= 1:
            raise ValueError("overlap_max must be in (0, 1]")


@dataclass(frozen=True)
class PairRecord:
    """One distilled pair with its selection predicate values."""

    i: int
    j: int
    distance: float
    overlap: float


def relative_gt(frame_a: Frame, frame_b: Frame) -> RigidTransform:
    """Ground-truth transform mapping frame A sensor coords into frame B's."""
    return frame_b.pose.inverse().compose(frame_a.pose)


def distill_records(
    seq_a: FrameSequence,
    seq_b: FrameSequence,
    spec: PairSpec,
    tau: float = 0.5,
) -> list[PairRecord]:
    """Pairs whose sensor separation lies in [d1, d2] and whose overlap
    under the ground-truth alignment is ≤ overlap_max.

    ``seq_a is seq_b`` treats temporally separated frames of one sequence
    as the two vehicles; each unordered pair is emitted once (i < j).
    Each frame's cloud is indexed once, and every overlap test of that
    frame queries the same index. The rows of ``seq_a``'s frames are mapped
    with ``ordered_map``.
    """
    same = seq_a is seq_b
    index_a = [NeighborIndex(f.cloud) for f in seq_a]
    index_b = index_a if same else [NeighborIndex(f.cloud) for f in seq_b]
    origins_a = seq_a.origins()
    origins_b = seq_b.origins()

    def row(pa: int) -> list[PairRecord]:
        fa = seq_a[pa]
        out = []
        for pb, fb in enumerate(seq_b):
            if same and pb <= pa:
                continue
            d = float(np.linalg.norm(origins_a[pa] - origins_b[pb]))
            if not spec.d1 <= d <= spec.d2:
                continue
            ov = overlap_ratio(index_a[pa], index_b[pb], relative_gt(fa, fb), tau)
            if ov <= spec.overlap_max:
                out.append(PairRecord(fa.index, fb.index, d, ov))
        return out

    return [record for records in ordered_map(row, range(len(seq_a))) for record in records]


def write_pairs_file(path, records: list[PairRecord]) -> None:
    lines = ["i,j,distance_m,overlap"]
    lines += [f"{r.i},{r.j},{r.distance:.17g},{r.overlap:.17g}" for r in records]
    Path(path).write_text("\n".join(lines) + "\n")


def read_pairs_file(path) -> list[PairRecord]:
    text = read_text(path).splitlines()
    if not text or text[0].split(",")[:2] != ["i", "j"]:
        raise MalformedFile(f"{path}: missing pairs header")
    records = []
    for lineno, line in enumerate(text[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise MalformedFile(f"{path}:{lineno}: expected 4 fields")
        try:
            records.append(PairRecord(int(parts[0]), int(parts[1]),
                                      float(parts[2]), float(parts[3])))
        except ValueError as exc:
            raise MalformedFile(f"{path}:{lineno}: {exc}") from exc
    return records


def save_dataset(directory, seq: FrameSequence, meta: dict | None = None) -> None:
    """Write per-frame point files, one pose file, and a metadata file."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    for frame in seq:
        write_kitti_bin(d / f"{frame.index:06d}.bin", frame.cloud)
    write_pose_file(d / "poses.txt", [f.pose for f in seq])
    payload = dict(meta or {})
    payload["frame_indices"] = [f.index for f in seq]
    (d / "meta.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_dataset(directory) -> FrameSequence:
    """Load a dataset directory written by ``save_dataset``."""
    d = Path(directory)
    poses = load_pose_file(d / "poses.txt")
    meta_path = d / "meta.json"
    if meta_path.exists():
        indices = load_dataset_meta(d).get("frame_indices")
        if not isinstance(indices, list) or not all(type(i) is int for i in indices):
            raise MalformedFile(f"{meta_path}: frame_indices must be a list of integers")
    else:
        indices = sorted(int(p.stem) for p in d.glob("*.bin"))
    if len(indices) != len(poses):
        raise MalformedFile(f"{directory}: {len(indices)} point files vs {len(poses)} poses")
    frames = tuple(
        Frame(load_kitti_bin(d / f"{idx:06d}.bin"), pose, idx)
        for idx, pose in zip(indices, poses)
    )
    try:
        return FrameSequence(frames)
    except ValueError as exc:
        raise MalformedFile(f"{directory}: {exc}") from exc


def load_dataset_meta(directory) -> dict:
    """The JSON object in a dataset's ``meta.json``."""
    path = Path(directory) / "meta.json"
    try:
        meta = json.loads(read_text(path))
    except ValueError as exc:  # not JSON
        raise MalformedFile(f"{path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise MalformedFile(f"{path}: expected a JSON object")
    return meta
