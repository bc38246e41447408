"""Online registration from per-point features: mutual-nearest-neighbor
matching, RANSAC rigid estimation with a least-squares refit, and success
evaluation under the loose / normal / strict criteria.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DegenerateGeometry,
    EmptyFeatureMap,
    EmptyResults,
    MalformedFile,
    TooFewCorrespondences,
    check_int,
)
from .geometry import RigidTransform, as_points, kabsch_points, on_two_threads, rre, rte


@dataclass(frozen=True)
class Criterion:
    """Success thresholds: rotation error (degrees) and translation error (m)."""

    name: str
    max_rre: float
    max_rte: float

    def __post_init__(self):
        if not (self.max_rre > 0 and self.max_rte > 0):  # NaN fails too
            raise ValueError("criterion thresholds must be positive")


LOOSE = Criterion("loose", 5.0, 2.0)
NORMAL = Criterion("normal", 1.5, 0.6)
STRICT = Criterion("strict", 0.5, 0.3)
CRITERIA = (LOOSE, NORMAL, STRICT)


def criterion_by_name(name: str) -> Criterion:
    for c in CRITERIA:
        if c.name == name:
            return c
    raise ValueError(f"unknown criterion {name!r}")


@dataclass(frozen=True)
class RansacConfig:
    iterations: int = 50_000
    inlier_threshold: float = 0.3
    seed: int = 0

    def __post_init__(self):
        check_int("iterations", self.iterations, 1)
        check_int("seed", self.seed, 0)
        if not (math.isfinite(self.inlier_threshold) and self.inlier_threshold > 0):
            raise ValueError("inlier_threshold must be positive and finite")


@dataclass(frozen=True)
class RansacEstimate:
    """Robust estimate prior to ground-truth comparison."""

    transform: RigidTransform
    inlier_count: int


@dataclass(frozen=True)
class PairResult:
    """One scored pair: the row of the results file. ``i = j = -1`` and NaN
    distance and overlap when the pair was scored without naming it."""

    i: int
    j: int
    distance: float
    overlap: float
    rre: float
    rte: float
    success: dict[str, bool]
    inlier_count: int = 0


def mutual_nearest(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mutual nearest rows of two (N, D) arrays: (i, j) is kept iff j is i's
    nearest row of B and i is j's nearest row of A. Returns the (M, 2) int64
    pairs and each pair's A→B distance. The two trees are built and queried
    on two threads."""
    (d_ab, a_to_b), (_, b_to_a) = on_two_threads(lambda: cKDTree(b).query(a, k=1),
                                                 lambda: cKDTree(a).query(b, k=1))
    ia = np.arange(a.shape[0])
    mutual = b_to_a[a_to_b] == ia
    pairs = np.stack([ia[mutual], a_to_b[mutual]], axis=1)
    return pairs.astype(np.int64), d_ab[mutual]


def match_features(features_a, features_b) -> np.ndarray:
    """Mutual nearest neighbors in feature space between (N, D) and (M, D)
    maps: the (K, 2) int64 array of (row of A, row of B) pairs."""
    fa = np.asarray(features_a, dtype=np.float64)
    fb = np.asarray(features_b, dtype=np.float64)
    if fa.size == 0 or fb.size == 0:
        raise EmptyFeatureMap("both feature maps must be non-empty")
    if fa.ndim != 2 or fb.ndim != 2 or fa.shape[1] != fb.shape[1]:
        raise ValueError("feature maps must be 2-D with equal dimensions")
    return mutual_nearest(fa, fb)[0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[[1, 2, 0]] * v[[2, 0, 1]] - u[[2, 0, 1]] * v[[1, 2, 0]]


def _triple_frame(p: np.ndarray):
    """Orthonormal frames of (3 points, 3 coords, B) triples, as a (3 axes,
    3 coords, B) array (u1, u2, n): u1 along the edge e1 = p1 - p0, n the
    unit normal, u2 = n × u1. Also the edges' coordinates in their frame,
    e1 = (L, 0) and e2 = p2 - p0 = (g, h), as (B,) arrays L, g, h. Not
    finite for coincident or exactly collinear points."""
    e1, e2 = p[1] - p[0], p[2] - p[0]
    length = np.sqrt(_dot(e1, e1))
    u1 = e1 / length
    n = _cross(e1, e2)
    n /= np.sqrt(_dot(n, n))
    # the cross product of nearly parallel edges leans towards them by about
    # eps / sin(angle); projecting it off u1 once more keeps the frame
    # orthonormal to rounding, so R passes RigidTransform's check
    n -= _dot(n, u1) * u1
    n /= np.sqrt(_dot(n, n))
    u2 = _cross(n, u1)
    return np.stack([u1, u2, n]), length, _dot(e2, u1), _dot(e2, u2)


def _batched_kabsch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares rigid fits for (B, 3, 3) sample triples, in closed form,
    and a flag for each degenerate sample.

    Three centred points span at most a plane, so in the triples' own frames
    F = (u1, u2, n) the cross-covariance H = Σ a_i b_iᵀ reduces to the 2×2
    M = Σ α_i β_iᵀ of in-plane coordinates (built here from offsets to point
    0 with the centring folded in, and scaled by 3). The best in-plane
    rotation scores r = hypot(m00 + m11, m01 − m10) and the best in-plane
    reflection f = hypot(m00 − m11, m01 + m10); H's singular values are
    σ1 = (r + f)/2 and σ2 = (r − f)/2 up to that scale. Both frames follow
    the points' order, so det M = 3 A_src A_dst > 0 for the triangles' areas
    (Cauchy–Binet) and the rotation always wins: R = F_dst Q F_srcᵀ with the
    in-plane rotation Q and n_src ↦ n_dst is the proper rotation Kabsch's
    sign-fixed SVD returns in exact arithmetic. The degenerate rule is the
    SVD's, σ2 < 1e-12 σ1; a sample with no finite frame (repeated index,
    coincident or exactly collinear points) is degenerate too and gets
    R = I. Every step is elementwise over the B samples;
    tests/test_register.py keeps the SVD fit as the reference."""
    p = np.ascontiguousarray(src.transpose(1, 2, 0))  # (3 points, 3 coords, B)
    q = np.ascontiguousarray(dst.transpose(1, 2, 0))
    with np.errstate(invalid="ignore", divide="ignore"):
        fp, L1, g1, h1 = _triple_frame(p)
        fq, L2, g2, h2 = _triple_frame(q)
        # 3 M = 3 Σ x_i y_iᵀ − (Σ x_i)(Σ y_i)ᵀ over the in-plane offsets
        # x = 0, (L1, 0), (g1, h1) and y = 0, (L2, 0), (g2, h2) from point 0
        m00 = 2 * (L1 * L2 + g1 * g2) - L1 * g2 - g1 * L2
        m01 = (2 * g1 - L1) * h2
        m10 = h1 * (2 * g2 - L2)
        m11 = 2 * h1 * h2
        r = np.hypot(m00 + m11, m01 - m10)
        f = np.hypot(m00 - m11, m01 + m10)
        c, s = (m00 + m11) / r, (m01 - m10) / r
        # R takes the source frame's axes u1, u2, n to these
        img = (c * fq[0] + s * fq[1], c * fq[1] - s * fq[0], fq[2])
        R = img[0][:, None] * fp[0] + img[1][:, None] * fp[1] + img[2][:, None] * fp[2]
        # a frame that is not finite leaves sigma2 NaN, which fails the test
        sigma1, sigma2 = 0.5 * (r + f), 0.5 * (r - f)
        degenerate = ~(sigma2 >= 1e-12 * np.maximum(sigma1, np.finfo(np.float64).tiny))
    R[:, :, ~np.isfinite(R).all(axis=(0, 1))] = np.eye(3)[:, :, None]
    cp, cq = p.mean(axis=0), q.mean(axis=0)
    t = cq - (R[:, 0] * cp[0] + R[:, 1] * cp[1] + R[:, 2] * cp[2])
    return np.ascontiguousarray(R.transpose(2, 0, 1)), np.ascontiguousarray(t.T), degenerate


def _squared_threshold(thr: float) -> float:
    """The smallest float64 x with sqrt(x) >= thr. sqrt is correctly rounded
    and monotone, so ``d2 < x`` holds exactly when ``sqrt(d2) < thr``; the
    plain ``thr * thr`` can be off by an ulp (0.3 * 0.3 is 0.09, one above)."""
    thr = float(thr)
    x = thr * thr
    while math.sqrt(x) >= thr:
        x = math.nextafter(x, 0.0)
    while math.sqrt(x) < thr:
        x = math.nextafter(x, math.inf)
    return x


# ransac_register scores each task in row blocks whose three (rows, n)
# float64 _squared_residuals buffers take about this much, so they stay in L2
_SCORE_BLOCK_BYTES = 1 << 20

# hypotheses per ransac_register task: the scoring ufuncs release the GIL but
# the fit's small-array ops hold it, so smaller tasks gain less from the pool
# (512 gained little on 2 CPUs; 2048 to 4096 timed alike, and the smallest
# keeps each task's fit arrays smallest)
_TASK_HYPOTHESES = 2048


def _squared_residuals(R: np.ndarray, t: np.ndarray, src_t: np.ndarray,
                       dst_t: np.ndarray) -> np.ndarray:
    """(B, n) squared distances |R_b s + t_b - d|^2 from (3, n) coordinate
    rows, one axis at a time. They are rounded bit for bit as
    ``np.linalg.norm(np.einsum("bij,nj->bni", R, src) + t[:, None] - dst, axis=2)``
    rounds them before its sqrt: numpy 2's einsum on x86-64 contracts the
    length-3 axis in two SIMD lanes, giving (p0 + p2) + p1, and the norm sums
    the squares left to right. tests/test_register.py keeps that scorer as
    the reference."""
    shape = (R.shape[0], src_t.shape[1])
    d2, e, p = np.empty(shape), np.empty(shape), np.empty(shape)
    sx, sy, sz = src_t
    for c in range(3):
        out = d2 if c == 0 else e
        np.multiply(R[:, c, 0, None], sx, out=out)
        out += np.multiply(R[:, c, 2, None], sz, out=p)
        out += np.multiply(R[:, c, 1, None], sy, out=p)
        out += t[:, c, None]
        out -= dst_t[c]
        np.square(out, out=out)
        if c:
            d2 += e
    return d2


def ransac_register(pairs, cloud_a, cloud_b, cfg: RansacConfig) -> RansacEstimate:
    """Best-of-iterations 3-point hypotheses scored by inlier count, then a
    least-squares refit on the best inlier set. ``pairs`` is a (K, 2) int64
    array of (row of A, row of B) matches into the (N, 3) and (M, 3) clouds;
    an index outside them raises ValueError.

    All samples are drawn up front from ``cfg.seed``. Contiguous tasks of at
    most ``_TASK_HYPOTHESES`` of them (fewer when that leaves a CPU idle)
    are fitted and scored on a thread pool with one worker per CPU the
    process may use (``os.sched_getaffinity``); each task returns only its
    first best hypothesis. The tasks' bests are reduced in task order and a
    later one wins only with strictly more inliers, so ties between
    hypotheses go to the earliest one and the estimate does not depend on
    the thread count."""
    a = as_points(cloud_a)
    b = as_points(cloud_b)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n = pairs.shape[0]
    # a negative index would wrap to the end of the cloud without an error
    if n and not (pairs.min() >= 0 and pairs[:, 0].max() < a.shape[0]
                  and pairs[:, 1].max() < b.shape[0]):
        raise ValueError("correspondence index out of range")
    if n < 3:
        raise TooFewCorrespondences(f"need >= 3 correspondences, got {n}")

    src = a[pairs[:, 0]]
    dst = b[pairs[:, 1]]
    rng = np.random.default_rng(cfg.seed)
    samples = rng.integers(0, n, size=(cfg.iterations, 3))

    src_t, dst_t = src.T.copy(), dst.T.copy()
    thr2 = _squared_threshold(cfg.inlier_threshold)
    rows = max(1, _SCORE_BLOCK_BYTES // (3 * 8 * n))
    workers = len(os.sched_getaffinity(0))
    task = min(_TASK_HYPOTHESES, -(-cfg.iterations // workers))

    def best_of(start: int) -> tuple[int, np.ndarray, np.ndarray]:
        block = samples[start : start + task]
        # repeated indices within a sample make it degenerate; the batched
        # fit flags them along with coincident and collinear triples
        R, t, degenerate = _batched_kabsch(src[block], dst[block])
        counts = np.empty(len(block), dtype=np.intp)
        for r in range(0, len(block), rows):
            d2 = _squared_residuals(R[r : r + rows], t[r : r + rows], src_t, dst_t)
            counts[r : r + rows] = np.count_nonzero(d2 < thr2, axis=1)
        counts[degenerate] = -1
        bi = int(np.argmax(counts))  # first maximum: earliest hypothesis wins ties
        return int(counts[bi]), R[bi].copy(), t[bi].copy()

    best_count, best_R, best_t = -1, None, None
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for count, R, t in pool.map(best_of, range(0, cfg.iterations, task)):
            if count > best_count:  # strict: an earlier task keeps a tie
                best_count, best_R, best_t = count, R, t

    if best_count < 0:
        # every sample degenerate (e.g. all correspondences coincident)
        raise TooFewCorrespondences("no non-degenerate minimal sample found")

    resid = np.linalg.norm(src @ best_R.T + best_t - dst, axis=1)
    inliers = resid < cfg.inlier_threshold
    transform = RigidTransform(best_R, best_t)
    if np.count_nonzero(inliers) >= 3:
        try:
            transform = kabsch_points(src[inliers], dst[inliers])
        except DegenerateGeometry:
            pass  # keep the raw hypothesis when the inlier set is rank-deficient
    final_resid = np.linalg.norm(
        src @ transform.rotation.T + transform.translation - dst, axis=1
    )
    return RansacEstimate(transform, int(np.count_nonzero(final_resid < cfg.inlier_threshold)))


def evaluate(
    transform: RigidTransform,
    gt: RigidTransform,
    criteria=CRITERIA,
    inlier_count: int = 0,
    pair=None,
) -> PairResult:
    """Score an estimate against ground truth: rotation/translation errors
    and the success flag of every criterion (rre ≤ max_rre AND rte ≤
    max_rte). ``pair``, a PairRecord-like with i, j, distance and overlap,
    names the row."""
    e_rot = rre(transform.rotation, gt.rotation)
    e_tr = rte(transform.translation, gt.translation)
    flags = {c.name: bool(e_rot <= c.max_rre and e_tr <= c.max_rte) for c in criteria}
    if pair is None:
        return PairResult(-1, -1, math.nan, math.nan, e_rot, e_tr, flags, inlier_count)
    return PairResult(pair.i, pair.j, pair.distance, pair.overlap, e_rot, e_tr, flags,
                      inlier_count)


def registration_recall(results, criterion: Criterion) -> float:
    """Fraction of PairResults succeeding under the criterion."""
    results = list(results)
    if not results:
        raise EmptyResults("registration recall over zero results")
    return sum(r.success[criterion.name] for r in results) / len(results)


# ---------------------------------------------------------------------------
# Results export
# ---------------------------------------------------------------------------

_RESULT_FIELDS = ["i", "j", "distance_m", "overlap", "rre_deg", "rte_m",
                  *(f"success_{c.name}" for c in CRITERIA), "inliers"]


def write_results(path, records: list[PairResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RESULT_FIELDS)
        for r in records:
            writer.writerow([
                r.i, r.j, f"{r.distance:.17g}", f"{r.overlap:.17g}",
                f"{r.rre:.17g}", f"{r.rte:.17g}",
                *(int(r.success[c.name]) for c in CRITERIA), r.inlier_count,
            ])


def read_results(path) -> list[PairResult]:
    """The rows of a results file; raises MalformedFile for any other
    content."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != _RESULT_FIELDS:
                raise MalformedFile(f"{path}: unexpected results header {header}")
            out = []
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if len(row) != len(_RESULT_FIELDS):
                    raise MalformedFile(f"{where}: expected {len(_RESULT_FIELDS)} fields")
                try:
                    flags = [int(v) for v in row[6:-1]]
                    inliers = int(row[-1])
                    if any(v not in (0, 1) for v in flags):
                        raise ValueError(f"success flags must be 0 or 1, got {row[6:-1]}")
                    if inliers < 0:
                        raise ValueError(f"negative inlier count {inliers}")
                    out.append(PairResult(
                        i=int(row[0]), j=int(row[1]),
                        distance=float(row[2]), overlap=float(row[3]),
                        rre=float(row[4]), rte=float(row[5]),
                        success={c.name: bool(v) for c, v in zip(CRITERIA, flags)},
                        inlier_count=inliers,
                    ))
                except ValueError as exc:
                    raise MalformedFile(f"{where}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MalformedFile(f"{path}: {exc}") from exc
    return out


def summarize_results(records: list[PairResult]) -> dict:
    """Per-criterion recall plus mean errors over successes and over all
    pairs (both aggregates are reported; conventions differ by venue)."""
    if not records:
        raise EmptyResults("cannot summarize zero records")
    out: dict = {"n_pairs": len(records)}
    all_rre = np.array([r.rre for r in records])
    all_rte = np.array([r.rte for r in records])
    for c in CRITERIA:
        flags = np.array([r.success[c.name] for r in records], dtype=bool)
        out[c.name] = {
            "rr": registration_recall(records, c),
            "mean_rre_all": float(np.mean(all_rre)),
            "mean_rte_all": float(np.mean(all_rte)),
            "mean_rre_success": float(np.mean(all_rre[flags])) if flags.any() else float("nan"),
            "mean_rte_success": float(np.mean(all_rte[flags])) if flags.any() else float("nan"),
        }
    return out
