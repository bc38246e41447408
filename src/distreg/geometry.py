"""Core 3D geometry: point clouds, rigid transforms, nearest neighbors,
voxel downsampling, rigid fitting, and registration error metrics.

Point clouds are plain ``(N, 3)`` float64 arrays in meters. All functions
treat their inputs as immutable and return new arrays.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

from .errors import DegenerateGeometry, EmptyCloud

Points = NDArray[np.float64]  # shape (N, 3)
Mat3 = NDArray[np.float64]    # shape (3, 3)
Vec3 = NDArray[np.float64]    # shape (3,)

_ORTHONORMALITY_TOL = 1e-9


def as_points(points, *, allow_empty: bool = True) -> Points:
    """Validate and convert to a float64 ``(N, 3)`` array.

    Rejects NaN/Inf coordinates. Does not copy when the input already
    satisfies the contract.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        pts = pts.reshape(0, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"point cloud must have shape (N, 3), got {pts.shape}")
    if not allow_empty and pts.shape[0] == 0:
        raise EmptyCloud("operation requires a non-empty cloud")
    if not np.isfinite(pts).all():
        raise ValueError("point cloud contains non-finite coordinates")
    return pts


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion: rotation in SO(3) plus translation in meters.

    Validates orthonormality and det = +1 to 1e-9, and a finite
    translation, on construction.
    """

    rotation: Mat3
    translation: Vec3

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        err = np.abs(R.T @ R - np.eye(3)).max()
        if not err <= _ORTHONORMALITY_TOL:
            raise ValueError(f"rotation not orthonormal (max deviation {err:.3e})")
        det = np.linalg.det(R)
        if not abs(det - 1.0) <= _ORTHONORMALITY_TOL:
            raise ValueError(f"rotation determinant {det:.12f} != +1")
        if not np.isfinite(t).all():
            raise ValueError(f"translation not finite: {t}")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def matrix34(self) -> np.ndarray:
        return np.hstack([self.rotation, self.translation.reshape(3, 1)])

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return self ∘ other: the transform applying ``other`` first."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        Rt = self.rotation.T
        return RigidTransform(Rt, -Rt @ self.translation)


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity set where
    the platform has one, else ``os.cpu_count()``, and at least 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no affinity call
        return os.cpu_count() or 1


def ordered_map(fn, items) -> list:
    """``[fn(x) for x in items]`` on the calling thread plus at most
    ``min(usable_cpus(), len(items)) - 1`` new threads, each claiming the
    next unclaimed item; on one CPU it starts none. All items finish before
    it returns; then the earliest failing item's error is raised. Each call
    owns its threads, so nested calls cannot deadlock and none outlives the
    call. The caller works instead of waiting: n threads cost n - 1 new
    threads and malloc arenas, which keeps peak memory down."""
    items = list(items)
    results, errors = [None] * len(items), [None] * len(items)
    claims, lock = iter(range(len(items))), threading.Lock()

    def drain():
        while True:
            with lock:
                i = next(claims, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised below, after every item
                errors[i] = exc

    helpers = min(usable_cpus(), len(items)) - 1
    if helpers > 0:
        with ThreadPoolExecutor(max_workers=helpers) as pool:
            for _ in range(helpers):
                pool.submit(drain)
            drain()  # leaving the block joins the workers
    else:
        drain()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


class NeighborIndex:
    """Exact nearest-neighbor index over an immutable cloud snapshot.

    Backed by a kd-tree; safe for concurrent read-only queries.
    """

    def __init__(self, cloud):
        pts = as_points(cloud, allow_empty=False)
        self._points = pts.copy()
        self._points.setflags(write=False)
        self._tree = cKDTree(self._points)

    @property
    def points(self) -> Points:
        return self._points

    def __len__(self) -> int:
        return self._points.shape[0]

    def nearest(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Exact 1-NN: (distances, indices) for each query point."""
        q = as_points(queries)
        d, i = self._tree.query(q, k=1)
        return np.asarray(d, dtype=np.float64), np.asarray(i, dtype=np.int64)

    def knearest(self, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact k-NN: (distances, indices), each of shape (Q, k)."""
        if not 1 <= k <= len(self):
            raise ValueError(f"k must be in [1, {len(self)}], got {k}")
        q = as_points(queries)
        d, i = self._tree.query(q, k=k)
        d = np.atleast_2d(np.asarray(d, dtype=np.float64)).reshape(len(q), k)
        i = np.atleast_2d(np.asarray(i, dtype=np.int64)).reshape(len(q), k)
        return d, i

    def within(self, queries, radius: float) -> np.ndarray:
        """Boolean mask: does each query have an indexed point closer than
        ``radius``? Equals ``nearest(queries)[0] < radius`` exactly.

        The search prunes everything at or beyond ``radius``. The tree
        compares squared distances with ``radius**2`` rounded, and any
        squared distance it cuts off has a rounded root of at least
        ``radius``; the strict re-check drops the ulp cases it keeps.
        """
        q = as_points(queries)
        d, _ = self._tree.query(q, k=1, distance_upper_bound=radius)
        return np.asarray(d) < radius


def apply_transform(cloud, transform: RigidTransform) -> Points:
    """Map every point p to R·p + t. Input is left unmodified."""
    pts = as_points(cloud)
    return pts @ transform.rotation.T + transform.translation


def rotation_about_axis(axis, angle_rad: float) -> Mat3:
    """Rodrigues rotation matrix about a (not necessarily unit) axis."""
    a = np.asarray(axis, dtype=np.float64).reshape(3)
    n = np.linalg.norm(a)
    if n == 0:
        raise ValueError("rotation axis must be nonzero")
    x, y, z = a / n
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle_rad) * K + (1.0 - np.cos(angle_rad)) * (K @ K)


def random_rotation(rng: np.random.Generator) -> Mat3:
    """Uniformly random proper rotation (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_transform(rng: np.random.Generator, translation_scale: float = 1.0) -> RigidTransform:
    return RigidTransform(
        random_rotation(rng),
        rng.uniform(-translation_scale, translation_scale, size=3),
    )


def kabsch_points(src: Points, dst: Points) -> RigidTransform:
    """Least-squares rigid fit src→dst for row-aligned point arrays.

    Reflections are excluded by sign-corrected SVD; raises
    DegenerateGeometry when the covariance has rank < 2 (second singular
    value below 1e-12 of the first).
    """
    a = as_points(src)
    b = as_points(dst)
    if a.shape != b.shape:
        raise ValueError("source and destination must be row-aligned")
    if a.shape[0] < 3:
        raise DegenerateGeometry("need at least 3 correspondence points")
    w = np.full(a.shape[0], 1.0 / a.shape[0])
    ca = w @ a
    cb = w @ b
    a0 = a - ca
    b0 = b - cb
    H = (a0 * w[:, None]).T @ b0
    U, S, Vt = np.linalg.svd(H)
    if S[1] < 1e-12 * max(S[0], np.finfo(np.float64).tiny):
        raise DegenerateGeometry("correspondence points are collinear or coincident")
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    t = cb - R @ ca
    return RigidTransform(R, t)


def voxel_downsample(cloud, voxel_size: float) -> Points:
    """Replace each occupied voxel cell by the centroid of its members.

    The cell of point p is (⌊x/s⌋, ⌊y/s⌋, ⌊z/s⌋). Output is ordered by
    lexicographically sorted cell coordinates, so the result does not
    depend on input ordering. Each centroid sums its members in input
    order. Raises ValueError when the size is not positive and finite, or
    when a cell coordinate does not fit in int64.
    """
    if not 0 < voxel_size < np.inf:
        raise ValueError("voxel_size must be positive and finite")
    pts = as_points(cloud)
    if pts.shape[0] == 0:
        return pts
    scaled = np.floor(pts / voxel_size)
    if not (scaled.min() >= -2.0**63 and scaled.max() < 2.0**63):
        raise ValueError("voxel cell coordinates overflow int64; voxel_size too small")
    cells = scaled.astype(np.int64)
    order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))
    ranked = cells[order]
    starts = np.empty(len(order), dtype=bool)
    starts[0] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    sums = np.stack([np.bincount(inverse, weights=pts[:, d]) for d in range(3)], axis=1)
    return sums / np.bincount(inverse).astype(np.float64)[:, None]


def overlap_ratio(cloud_a, cloud_b, transform: RigidTransform, tau: float) -> float:
    """Symmetric-minimum overlap under a ground-truth alignment.

    Returns min(o_AB, o_BA) where o_AB is the fraction of A points whose
    image under ``transform`` lies within ``tau`` of some B point. Either
    cloud may be given as a ``NeighborIndex`` over it, so a caller testing
    many pairs indexes each cloud once; o_BA maps B through the inverse
    transform into A's index.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    a = cloud_a if isinstance(cloud_a, NeighborIndex) else NeighborIndex(cloud_a)
    b = cloud_b if isinstance(cloud_b, NeighborIndex) else NeighborIndex(cloud_b)
    a_in_b = apply_transform(a.points, transform)
    b_in_a = apply_transform(b.points, transform.inverse())
    o_ab = float(np.count_nonzero(b.within(a_in_b, tau))) / len(a)
    o_ba = float(np.count_nonzero(a.within(b_in_a, tau))) / len(b)
    return min(o_ab, o_ba)


def rre(rotation_est: Mat3, rotation_gt: Mat3) -> float:
    """Relative rotation error in degrees, in [0, 180].

    Uses the standard arccos-of-trace form. Note its conditioning floor:
    even identical matrices can report up to ~2e-6 degrees because
    arccos(1-eps) ~ sqrt(2 eps); near-zero angles need the atan2 form over
    the antisymmetric part of R_gt^T R_est instead.
    """
    r_est = np.asarray(rotation_est, dtype=np.float64)
    r_gt = np.asarray(rotation_gt, dtype=np.float64)
    c = (np.trace(r_gt.T @ r_est) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def rte(t_est, t_gt) -> float:
    """Relative translation error: Euclidean norm of the difference, meters."""
    a = np.asarray(t_est, dtype=np.float64).reshape(3)
    b = np.asarray(t_gt, dtype=np.float64).reshape(3)
    return float(np.linalg.norm(a - b))
