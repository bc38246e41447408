"""Online registration from per-point features: mutual-nearest-neighbor
matching, RANSAC rigid estimation with a least-squares refit, and success
evaluation under the loose / normal / strict criteria.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DegenerateGeometry,
    EmptyFeatureMap,
    EmptyResults,
    MalformedFile,
    TooFewCorrespondences,
)
from .geometry import Correspondences, RigidTransform, as_points, kabsch_points, rre, rte


@dataclass(frozen=True)
class Criterion:
    """Success thresholds: rotation error (degrees) and translation error (m)."""

    name: str
    max_rre: float
    max_rte: float

    def __post_init__(self):
        if self.max_rre <= 0 or self.max_rte <= 0:
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
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (math.isfinite(self.inlier_threshold) and self.inlier_threshold > 0):
            raise ValueError("inlier_threshold must be positive and finite")


@dataclass(frozen=True)
class RansacEstimate:
    """Robust estimate prior to ground-truth comparison."""

    transform: RigidTransform
    inlier_count: int


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    rre: float
    rte: float
    inlier_count: int
    success: dict[str, bool]


def match_features(features_a, features_b) -> Correspondences:
    """Mutual nearest neighbors in feature space: (i, j) is kept iff j is
    i's nearest row of B and i is j's nearest row of A."""
    fa = np.asarray(features_a, dtype=np.float64)
    fb = np.asarray(features_b, dtype=np.float64)
    if fa.size == 0 or fb.size == 0:
        raise EmptyFeatureMap("both feature maps must be non-empty")
    if fa.shape[1] != fb.shape[1]:
        raise ValueError("feature dimensions differ")
    _, a_to_b = cKDTree(fb).query(fa, k=1)
    _, b_to_a = cKDTree(fa).query(fb, k=1)
    ia = np.arange(fa.shape[0])
    mutual = b_to_a[a_to_b] == ia
    pairs = np.stack([ia[mutual], a_to_b[mutual]], axis=1)
    return Correspondences(pairs.astype(np.int64))


def _batched_kabsch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rigid fits for (B, 3, 3) sample triples; flags degenerate samples."""
    ca = src.mean(axis=1, keepdims=True)
    cb = dst.mean(axis=1, keepdims=True)
    H = np.matmul((src - ca).transpose(0, 2, 1), dst - cb)
    U, S, Vt = np.linalg.svd(H)
    det = np.linalg.det(np.matmul(Vt.transpose(0, 2, 1), U.transpose(0, 2, 1)))
    D = np.tile(np.eye(3), (src.shape[0], 1, 1))
    D[:, 2, 2] = np.sign(det)
    R = np.matmul(Vt.transpose(0, 2, 1), np.matmul(D, U.transpose(0, 2, 1)))
    t = cb[:, 0, :] - np.einsum("bij,bj->bi", R, ca[:, 0, :])
    degenerate = S[:, 1] < 1e-12 * np.maximum(S[:, 0], np.finfo(np.float64).tiny)
    return R, t, degenerate


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


def ransac_register(
    corr: Correspondences, cloud_a, cloud_b, cfg: RansacConfig
) -> RansacEstimate:
    """Best-of-iterations 3-point hypotheses scored by inlier count, then a
    least-squares refit on the best inlier set. Deterministic given seed;
    ties between hypotheses go to the earliest one."""
    a = as_points(cloud_a)
    b = as_points(cloud_b)
    corr.validate_against(a.shape[0], b.shape[0])
    if len(corr) < 3:
        raise TooFewCorrespondences(f"need >= 3 correspondences, got {len(corr)}")

    src = a[corr.pairs[:, 0]]
    dst = b[corr.pairs[:, 1]]
    n = len(corr)
    rng = np.random.default_rng(cfg.seed)
    samples = rng.integers(0, n, size=(cfg.iterations, 3))

    src_t, dst_t = src.T.copy(), dst.T.copy()
    thr2 = _squared_threshold(cfg.inlier_threshold)
    best_count = -1
    best_R = np.eye(3)
    best_t = np.zeros(3)
    chunk = max(1, min(512, int(4e6 / max(n, 1))))
    for start in range(0, cfg.iterations, chunk):
        block = samples[start : start + chunk]
        # repeated indices within a sample make it degenerate; the rank test
        # inside the batched fit catches them along with collinear triples
        R, t, degenerate = _batched_kabsch(src[block], dst[block])
        d2 = _squared_residuals(R, t, src_t, dst_t)
        counts = np.count_nonzero(d2 < thr2, axis=1)
        counts[degenerate] = -1
        bi = int(np.argmax(counts))  # first maximum: earliest hypothesis wins ties
        if counts[bi] > best_count:
            best_count = int(counts[bi])
            best_R, best_t = R[bi], t[bi]

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
) -> RegistrationResult:
    """Fill rotation/translation errors against ground truth and the
    success flag of every criterion (rre ≤ max_rre AND rte ≤ max_rte)."""
    e_rot = rre(transform.rotation, gt.rotation)
    e_tr = rte(transform.translation, gt.translation)
    flags = {c.name: bool(e_rot <= c.max_rre and e_tr <= c.max_rte) for c in criteria}
    return RegistrationResult(transform, e_rot, e_tr, inlier_count, flags)


def registration_recall(results, criterion: Criterion) -> float:
    """Fraction of results (RegistrationResult or PairResult) succeeding
    under the criterion."""
    results = list(results)
    if not results:
        raise EmptyResults("registration recall over zero results")
    return sum(r.success[criterion.name] for r in results) / len(results)


# ---------------------------------------------------------------------------
# Results export
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairResult:
    """One evaluated pair, as written to the results file."""

    i: int
    j: int
    distance: float
    overlap: float
    rre: float
    rte: float
    success: dict[str, bool]
    inlier_count: int = 0


_RESULT_FIELDS = ["i", "j", "distance_m", "overlap", "rre_deg", "rte_m",
                  "success_loose", "success_normal", "success_strict", "inliers"]


def write_results(path, records: list[PairResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RESULT_FIELDS)
        for r in records:
            writer.writerow([
                r.i, r.j, f"{r.distance:.17g}", f"{r.overlap:.17g}",
                f"{r.rre:.17g}", f"{r.rte:.17g}",
                int(r.success["loose"]), int(r.success["normal"]), int(r.success["strict"]),
                r.inlier_count,
            ])


def read_results(path) -> list[PairResult]:
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
                out.append(PairResult(
                    i=int(row[0]), j=int(row[1]),
                    distance=float(row[2]), overlap=float(row[3]),
                    rre=float(row[4]), rte=float(row[5]),
                    success={"loose": bool(int(row[6])), "normal": bool(int(row[7])),
                             "strict": bool(int(row[8]))},
                    inlier_count=int(row[9]),
                ))
            except ValueError as exc:
                raise MalformedFile(f"{where}: {exc}") from exc
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
        entry = {
            "rr": float(np.mean(flags)),
            "mean_rre_all": float(np.mean(all_rre)),
            "mean_rte_all": float(np.mean(all_rte)),
            "mean_rre_success": float(np.mean(all_rre[flags])) if flags.any() else float("nan"),
            "mean_rte_success": float(np.mean(all_rte[flags])) if flags.any() else float("nan"),
        }
        out[c.name] = entry
    return out
