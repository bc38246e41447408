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
    NonFinite,
    TooFewCorrespondences,
    check_int,
)
from .geometry import RigidTransform, as_points, kabsch_points, ordered_map, rre, rte, usable_cpus


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


def mutual_nearest(a_to_b: np.ndarray, b_to_a: np.ndarray) -> np.ndarray:
    """The mutual rule over two nearest-row maps: row i of A and row j =
    ``a_to_b[i]`` of B pair iff ``b_to_a[j] == i``. Returns the (K, 2) int64
    (row of A, row of B) pairs in order of i."""
    ia = np.arange(a_to_b.shape[0])
    mutual = b_to_a[a_to_b] == ia
    return np.stack([ia[mutual], a_to_b[mutual]], axis=1).astype(np.int64)


# _nearest_rows forms its products in row blocks of at most this many
# bytes. Matching the 8 register-bins pairs' features (2 vCPUs, one BLAS
# thread, best of 7) took 63 / 55 / 46 / 43 ms for 256 KB / 512 KB / 1 MB /
# 4 MB blocks; a whole 1,400 x 1,450 product would take 16 MB per direction.
_MATCH_BLOCK_BYTES = 1 << 20


def _nearest_margin(q: np.ndarray, r_sq: np.ndarray) -> np.ndarray:
    """A bound m_i, for each row q_i of the (N, D) map q against the M rows
    r_j of the reference map (``r_sq`` holds their computed |r_j|²), such
    that a row whose minimum g_i* of g_ij = |r_j|² − 2 q_i·r_j is lower than
    every other column's by more than m_i has that column as the kd-tree's
    nearest row, whichever BLAS formed g.

    Let u = 2^-53, ρ = max_j |r_j|, W = (|q_i| + ρ)² and d_ij = |q_i − r_j|²
    = |q_i|² + g_ij; every |g_ij| and d_ij is at most W, and so is every
    bound the kd-tree derives from them:
    - the product [q, 1] @ [−2 rᵀ; |r|²] of D + 1 terms, in any summation
      order, FMA or blocking, with |r|² rounded as a D-term sum: (2D + 2)u W
      (Higham 2002, eq. 3.5), once for column * and once for column j;
    - the decision ``g_ij > g_i* + m``, whose sum rounds by u (W + m);
    - cKDTree's own Σ(q − r)², D squared differences summed: (D + 2)u W for
      each of the two columns, so that it ranks * strictly first;
    - its search bounds: D squared gaps to the splitting planes, summed, and
      one subtraction and one addition at each of at most M tree levels
      (each split leaves a row on either side): (D + 2 + 2M)u W. It drops a
      subtree only when its bound exceeds the best distance found, so with
      d_ij − d_i* above that plus j's (D + 2)u W, * is never dropped.
    That is at most (6D + 9 + 2M)u W + u m, and m = (8(D + 4) + 2M)u W
    covers it with room for the rounding of W itself. 2^-1000 is added for
    subnormal products. Where W ≥ 1e300 a sum might overflow, and m is NaN
    there, so no column lies within it and the row goes to the kd-tree."""
    u = 2.0 ** -53  # float64's unit roundoff
    dim, m = q.shape[1], r_sq.shape[0]
    w = (np.sqrt(np.einsum("ij,ij->i", q, q)) + np.sqrt(r_sq.max())) ** 2
    margin = (8 * (dim + 4) + 2 * m) * u * w + 2.0 ** -1000
    return np.where(w < 1e300, margin, np.nan)


def _nearest_rows(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """For each row of the finite (N, D) map q, the index of its nearest
    row of the (M, D) map r, as ``cKDTree(r).query(q)`` returns it.

    Row block by row block, g = |r_j|² − 2 q_i·r_j is one matrix product
    [q, 1] @ [−2 rᵀ; |r|²]. A row is decided when exactly one column lies
    within ``_nearest_margin`` of the row's minimum and that margin is
    finite; every other row (ties, near-ties, overflow) is queried with
    cKDTree. So each index is the kd-tree's whatever the BLAS rounds. A
    row whose every squared distance overflows raises NonFinite."""
    n, dim = q.shape
    m = r.shape[0]
    rhs = np.empty((dim + 1, m))
    np.multiply(r.T, -2.0, out=rhs[:dim])
    np.einsum("ij,ij->i", r, r, out=rhs[dim])
    lhs = np.empty((n, dim + 1))
    lhs[:, :dim] = q
    lhs[:, dim] = 1.0
    margin = _nearest_margin(q, rhs[dim])
    rows = max(1, _MATCH_BLOCK_BYTES // (8 * m))
    g = np.empty((min(rows, n), m))
    near = np.empty(g.shape, dtype=bool)
    nearest = np.empty(n, dtype=np.intp)
    undecided = []
    # a NaN margin or product makes every compare fail: the row is undecided
    with np.errstate(invalid="ignore", over="ignore"):
        for s in range(0, n, rows):
            k = min(rows, n - s)
            gk, nk = g[:k], near[:k]
            np.matmul(lhs[s : s + k], rhs, out=gk)
            best = gk.argmin(axis=1)
            nearest[s : s + k] = best
            reach = gk[np.arange(k), best] + margin[s : s + k]
            np.less_equal(gk, reach[:, None], out=nk)
            within = np.add.reduce(nk.view(np.uint8), axis=1, dtype=np.int32)
            undecided.append(s + np.flatnonzero(within != 1))
    undecided = np.concatenate(undecided)
    if undecided.size:
        nearest[undecided] = cKDTree(r).query(q[undecided], k=1)[1]
        if (nearest[undecided] == m).any():  # the kd-tree's "none": every distance overflowed
            raise NonFinite("squared feature distances overflow float64")
    return nearest


def match_features(features_a, features_b) -> np.ndarray:
    """Mutual nearest neighbors in feature space between (N, D) and (M, D)
    maps: the (K, 2) int64 array of (row of A, row of B) pairs, as
    ``mutual_nearest`` over the kd-tree's nearest rows of each map in the
    other. The two directions are ``_nearest_rows`` calls mapped with
    ``ordered_map``. A NaN or infinite entry, or squared distances beyond
    float64's range, raise NonFinite."""
    fa = np.asarray(features_a, dtype=np.float64)
    fb = np.asarray(features_b, dtype=np.float64)
    if fa.size == 0 or fb.size == 0:
        raise EmptyFeatureMap("both feature maps must be non-empty")
    if fa.ndim != 2 or fb.ndim != 2 or fa.shape[1] != fb.shape[1]:
        raise ValueError("feature maps must be 2-D with equal dimensions")
    if not (np.isfinite(fa).all() and np.isfinite(fb).all()):
        raise NonFinite("feature maps must be finite")
    a_to_b, b_to_a = ordered_map(lambda qr: _nearest_rows(*qr), ((fa, fb), (fb, fa)))
    return mutual_nearest(a_to_b, b_to_a)


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
    R = I. Every step is elementwise over the B samples, so a sample's fit
    is the same bytes in any batch; both sides' triples are framed in one
    call over (3 points, 3 coords, 2B). tests/test_register.py keeps the
    SVD fit as the reference."""
    b = src.shape[0]
    pq = np.empty((3, 3, 2 * b))
    pq[:, :, :b] = src.transpose(1, 2, 0)
    pq[:, :, b:] = dst.transpose(1, 2, 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        frame, L, g, h = _triple_frame(pq)
        fp, L1, g1, h1 = frame[:, :, :b], L[:b], g[:b], h[:b]
        fq, L2, g2, h2 = frame[:, :, b:], L[b:], g[b:], h[b:]
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
    centroid = pq.mean(axis=0)
    cp, cq = centroid[:, :b], centroid[:, b:]
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


# ransac_register scores each task in row blocks of (rows, n) float64 of at
# most this many bytes, each formed by products of a quarter of it.
# OpenBLAS 0.3.31 threads a product from M·N·K ≈ 2^20 on, which 512 KB
# products reach (K = 16), and at two BLAS threads the pool's workers then
# contend for its threads: RANSAC over the 8 register-bins pairs took
# 0.32 s in 1 MB blocks and 0.65 s in 2 MB ones (2 vCPUs, two workers,
# median of 7). Every other call runs once per block, and each call takes
# the GIL once: scoring the 331-match pair's 50,000 hypotheses took 22 ms
# on two workers in 1 MB blocks against 37 ms in 256 KB blocks of one
# product, and 36 against 40 ms on one worker (one BLAS thread, best of
# 15).
_SCORE_BLOCK_BYTES = 1 << 20

# hypotheses per ransac_register task, fewer when that leaves a CPU idle;
# the default 50,000 samples make two tasks per CPU on two CPUs. Each of
# the fit's (B,)-array calls takes the GIL once whatever B, so small tasks
# queue for it, while very large ones outgrow the caches. The fit alone
# over 100,000 hypotheses of the 331-match pair took 49 / 40 / 42 / 61 ms
# on one worker and 43 / 31 / 32 / 54 ms on two, for 2,048 / 6,250 /
# 12,500 / 50,000-row tasks (one BLAS thread, best of 11); a register-bins
# pass on two workers took 488 / 447 / 429 ms for 4,096 / 6,250 / 12,500
# (medians of 4).
_TASK_HYPOTHESES = 12_500


def _squared_residuals(R: np.ndarray, t: np.ndarray, src_t: np.ndarray,
                       dst_t: np.ndarray) -> np.ndarray:
    """(B, n) squared distances |R_b s + t_b - d|^2 from (3, n) coordinate
    rows, one axis at a time: the exact scorer, whose ``d2 < thr2`` decides
    every inlier. They are rounded bit for bit as
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


@dataclass(frozen=True)
class _Correspondences:
    """The per-correspondence side of the product scorer, built once per
    ransac_register call from the (3, n) coordinate rows ``src_t`` and
    ``dst_t``: F = (1, -2d, 2s, -2 vec(d sᵀ)) as a (16, n) matrix, c = |s|² +
    |d|², and the norms |s| and |d|."""

    src_t: np.ndarray
    dst_t: np.ndarray
    features: np.ndarray
    c: np.ndarray
    s_norm: np.ndarray
    d_norm: np.ndarray

    @classmethod
    def of(cls, src_t: np.ndarray, dst_t: np.ndarray) -> "_Correspondences":
        n = src_t.shape[1]
        features = np.empty((16, n))
        features[0] = 1.0
        np.multiply(dst_t, -2.0, out=features[1:4])
        np.multiply(src_t, 2.0, out=features[4:7])
        np.multiply(dst_t[:, None], src_t[None], out=features[7:].reshape(3, 3, n))
        features[7:] *= -2.0
        s2, d2 = _dot(src_t, src_t), _dot(dst_t, dst_t)
        return cls(src_t, dst_t, features, s2 + d2, np.sqrt(s2), np.sqrt(d2))


def _band_margin(R: np.ndarray, t: np.ndarray, corr: _Correspondences, thr2: float) -> np.ndarray:
    """A bound m_n, for every correspondence n, on |d2 - (G + c)| plus the
    rounding of ``thr2 - c ∓ m``, for all B hypotheses (R, t) at once: d2 is
    ``_squared_residuals``' value and G the product A F in any summation
    order, with A = (|t|², t, Rᵀt, vec(R)) and F, c those of ``corr``.

    In exact arithmetic |R s + t - d|² = G + c + sᵀ(RᵀR - I)s. Let u =
    2^-53, a = |s|, b = |d|, τ the largest |t| of the B hypotheses and δ a
    bound on ‖RᵀR - I‖₂ over them; ρ = sqrt(1 + δ) bounds ‖R‖₂, so the
    entrywise |R| has ‖|R|‖₂ ≤ √3 ρ. With W = (√3 ρ a + τ + b)², every term
    below is at most a multiple of W:
    - the 16-term product: γ16 Σ|A_k F_k| ≤ γ16 (1 + γ3) W, whatever the
      summation order, FMA or blocking (Higham 2002, eq. 3.5);
    - the rounding of A and F (|t|², Rᵀt and d sᵀ): γ3 W;
    - the rounding of c: γ4 (a² + b²) ≤ γ4 W;
    - R's orthonormality defect: |sᵀ(RᵀR - I)s| ≤ δ a² ≤ δ W;
    - the exact scorer, each axis a 5-term sum then squared, and the three
      squares summed: (γ5 (2 + γ5) + γ3 (1 + γ5)²) W ≈ 13u W;
    - ``thr2 - c ∓ m``: 2.01u (thr2 + W) + u m.
    That is at most (38.2u + δ)(W + thr2) + u m, and m = (64u + 2δ)(W + thr2)
    covers it with room for the rounding of W, a, b, τ and δ themselves.
    δ is 3 max|fl(RᵀR - I)| (Frobenius over the largest entry) plus the
    γ3 ρ² error of each computed entry, 16u (1 + 3 max). 2^-1000 is added
    for subnormal products. Where W ≥ 1e300 a product might overflow, and
    a non-finite R or t gives a NaN bound: m is NaN there, so every
    comparison with it fails and the entry is scored exactly."""
    u = 2.0 ** -53  # float64's unit roundoff
    cols = R.transpose(2, 1, 0)  # cols[j] is column j of every R, as (3, B)
    defect = np.max([np.abs(_dot(cols[j], cols[k]) - (j == k)).max()
                     for j in range(3) for k in range(j, 3)])  # NaN propagates
    delta = 3 * defect + 16 * u * (1 + 3 * defect)
    tau = np.linalg.norm(t, axis=1).max()
    w = (np.sqrt(3 * (1 + delta)) * corr.s_norm + tau + corr.d_norm) ** 2
    margin = (64 * u + 2 * delta) * (w + thr2) + 2.0 ** -1000
    return np.where(w < 1e300, margin, np.nan)


def _inlier_counts(R: np.ndarray, t: np.ndarray, corr: _Correspondences,
                   thr2: float) -> np.ndarray:
    """Each of the B hypotheses' count of ``_squared_residuals < thr2``.

    Row block by row block, G = A F is formed by matrix products of a
    quarter block each (see ``_band_margin``), and ``G < thr2 - c - m`` is
    a sure inlier and ``G >= thr2 - c + m`` a sure outlier. A row with any
    entry in neither, NaN included, is rescored with ``_squared_residuals``,
    so every count is the exact scorer's whatever the BLAS and its thread
    count."""
    b, n = R.shape[0], corr.c.shape[0]
    A = np.empty((b, 16))
    A[:, 0] = _dot(t.T, t.T)
    A[:, 1:4] = t
    A[:, 4:7] = np.einsum("bij,bi->bj", R, t)
    A[:, 7:] = R.reshape(b, 9)
    rows = max(1, _SCORE_BLOCK_BYTES // (8 * n))
    product_rows = max(1, rows // 4)
    g = np.empty((min(rows, b), n))
    mask = np.empty(g.shape, dtype=bool)
    counts = np.empty(b, dtype=np.intp)
    # a non-finite hypothesis makes NaNs, which the exact scorer settles
    with np.errstate(invalid="ignore", over="ignore"):
        margin = _band_margin(R, t, corr, thr2)
        lo = (thr2 - corr.c) - margin
        hi = (thr2 - corr.c) + margin
        for r in range(0, b, rows):
            k = min(rows, b - r)
            gk, mk = g[:k], mask[:k]
            for p in range(0, k, product_rows):
                q = min(k, p + product_rows)
                np.matmul(A[r + p : r + q], corr.features, out=gk[p:q])
            inside = np.add.reduce(np.less(gk, lo, out=mk).view(np.uint8), axis=1,
                                   dtype=np.int32)
            counts[r : r + k] = inside
            if np.count_nonzero(np.greater_equal(gk, hi, out=mk)) + inside.sum() != k * n:
                outside = np.count_nonzero(mk, axis=1)
                unsure = r + np.flatnonzero(inside + outside != n)
                d2 = _squared_residuals(R[unsure], t[unsure], corr.src_t, corr.dst_t)
                counts[unsure] = np.count_nonzero(d2 < thr2, axis=1)
    return counts


def ransac_register(pairs, cloud_a, cloud_b, cfg: RansacConfig) -> RansacEstimate:
    """Best-of-iterations 3-point hypotheses scored by inlier count, then a
    least-squares refit on the best inlier set. ``pairs`` is a (K, 2) int64
    array of (row of A, row of B) matches into the (N, 3) and (M, 3) clouds;
    an index outside them raises ValueError.

    All samples are drawn up front from ``cfg.seed``. Where the n³ ordered
    triples of the n correspondences are no more than the samples, each
    distinct sampled triple is one hypothesis, fitted and scored once, and
    every sample takes its triple's count; otherwise each sample is one.
    (On 50,000 samples the distinct triples alone were faster up to n³ ≈ 3
    times the samples, but their codes and count table take 8 bytes per
    sample and per ordered triple; at n³ ≤ samples that stays below the
    samples' own 24 bytes each.) Contiguous tasks of at most
    ``_TASK_HYPOTHESES`` hypotheses (fewer when that leaves a CPU idle) are
    mapped with ``ordered_map``, their counts joined in order, and the
    first maximum in sample order wins, so ties go to the earliest sample
    whatever the thread count. The fit is elementwise, so the winning
    sample refitted alone has the bytes it was scored with.

    Inliers are counted by ``_inlier_counts``: each row block's matrix
    products decide every entry farther than a rigorous rounding bound from
    the threshold, and a row with an entry inside that band is rescored
    with the exact scorer ``_squared_residuals``. Every count, and so the
    estimate, is the exact scorer's whatever the BLAS rounds; so are the
    refit's inlier set, the one the winner was counted with, and the count.

    Over the 8 register-bins pairs (20 to 331 matches, 50,000 samples; the
    two smallest take the distinct path) RANSAC took 341 ms on one worker
    and 241 ms on two, against 413 and 361 ms when every sample was fitted
    in 4,096-sample tasks that kept their own best (2 vCPUs, one BLAS
    thread, in the benchmark's process after its set-up, medians of 6)."""
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

    # distinct hypotheses are held as their codes in the n³ space, ascending
    distinct = n**3 <= cfg.iterations
    if distinct:
        codes = np.ravel_multi_index(samples.T, (n, n, n))
        table = np.zeros(n**3, dtype=np.intp)
        table[codes] = 1
        hypotheses = np.flatnonzero(table)
    else:
        hypotheses = samples

    corr = _Correspondences.of(src.T.copy(), dst.T.copy())
    thr2 = _squared_threshold(cfg.inlier_threshold)
    task = min(_TASK_HYPOTHESES, -(-len(hypotheses) // usable_cpus()))

    def counts_of(start: int) -> np.ndarray:
        block = hypotheses[start : start + task]
        # (3 points, B) indices; each side is gathered as (3 coords, 3 points,
        # B) rows and fitted through a (B, 3, 3) view of them
        index = np.stack(np.unravel_index(block, (n, n, n))) if distinct else block.T
        s = corr.src_t.take(index, axis=1).transpose(2, 1, 0)
        d = corr.dst_t.take(index, axis=1).transpose(2, 1, 0)
        # repeated indices within a sample make it degenerate; the batched
        # fit flags them along with coincident and collinear triples
        R, t, degenerate = _batched_kabsch(s, d)
        counts = _inlier_counts(R, t, corr, thr2)
        counts[degenerate] = -1
        return counts

    counts = np.concatenate(ordered_map(counts_of, range(0, len(hypotheses), task)))
    if distinct:  # each sample takes its triple's count
        table[hypotheses] = counts
        counts = table[codes]
    best = int(np.argmax(counts))  # first maximum: the earliest sample wins ties
    if counts[best] < 0:
        # every sample degenerate (e.g. all correspondences coincident)
        raise TooFewCorrespondences("no non-degenerate minimal sample found")
    # the fit is elementwise, so the winning sample alone refits to the bytes
    # it was scored with, and the exact scorer gives back its inlier set
    winner = samples[best : best + 1]
    R, t, _ = _batched_kabsch(src[winner], dst[winner])
    inliers = _squared_residuals(R, t, corr.src_t, corr.dst_t)[0] < thr2
    transform = RigidTransform(R[0], t[0])
    if np.count_nonzero(inliers) >= 3:
        try:
            transform = kabsch_points(src[inliers], dst[inliers])
        except DegenerateGeometry:
            pass  # keep the raw hypothesis when the inlier set is rank-deficient
    final = _squared_residuals(transform.rotation[None], transform.translation[None],
                               corr.src_t, corr.dst_t)[0]
    return RansacEstimate(transform, int(np.count_nonzero(final < thr2)))


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
