"""Training objectives with exact gradients: symmetric chamfer
reconstruction loss, offset L2 regularization, and the hardest-negative
contrastive metric loss over correspondence features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NoPositives, check_int
from .geometry import NeighborIndex, as_points


@dataclass(frozen=True)
class LossConfig:
    lambda1: float = 1.0        # weight on the chamfer term
    lambda2: float = 0.1        # weight on the offset L2 term
    m_p: float = 0.1            # positive margin
    m_n: float = 1.4            # negative margin
    n_pos_pairs: int = 256      # positive pairs sampled per step
    n_neg_candidates: int = 256  # negatives mined per anchor

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "m_p", "m_n"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be >= 0 and finite")
        if not self.m_n > self.m_p:
            raise ValueError("negative margin must exceed positive margin")
        check_int("n_pos_pairs", self.n_pos_pairs, 1)
        check_int("n_neg_candidates", self.n_neg_candidates, 1)


@dataclass(frozen=True)
class LossReport:
    total: float
    l_ml: float
    l_cd: float
    l_l2: float


def chamfer(cloud_a, cloud_b) -> tuple[float, np.ndarray]:
    """Symmetric mean-of-squared nearest-neighbor distances, plus the
    gradient w.r.t. A's points (nearest-neighbor assignments held fixed;
    a valid subgradient at ties).

    Both directional terms contribute to the A gradient: A→B through each
    A point's nearest B neighbor, and B→A through the A points selected as
    nearest to some B point.
    """
    a = as_points(cloud_a, allow_empty=False)
    b = as_points(cloud_b, allow_empty=False)
    n, m = a.shape[0], b.shape[0]

    d_ab, nn_ab = NeighborIndex(b).nearest(a)
    d_ba, nn_ba = NeighborIndex(a).nearest(b)
    value = float(np.mean(d_ab**2) + np.mean(d_ba**2))

    grad = (2.0 / n) * (a - b[nn_ab])
    np.add.at(grad, nn_ba, (2.0 / m) * (a[nn_ba] - b))
    return value, grad


def l2_offset_reg(offsets) -> tuple[float, np.ndarray]:
    """Mean squared offset norm over all N*phi offsets; gradient 2·o/count.

    Apply per cloud; a training pair sums the two per-cloud means."""
    off = np.asarray(offsets, dtype=np.float64)
    if off.size == 0:
        return 0.0, np.zeros_like(off)
    count = off.shape[0] * off.shape[1] if off.ndim == 3 else off.shape[0]
    flat = off.reshape(count, -1)
    value = float(np.sum(flat * flat) / count)
    return value, (2.0 / count) * off


def _mine_hardest(
    anchors: np.ndarray,
    anchor_ids: np.ndarray,
    partner_ids: np.ndarray,
    candidates: np.ndarray,
    candidate_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per anchor: distance to and column of the nearest non-corresponding
    candidate. Row p is the anchor side of the positive pair (anchor_ids[p],
    partner_ids[p]); a candidate is corresponding for every row sharing that
    anchor id. ``candidate_ids`` must be sorted and unique. Anchors with no
    admissible candidate are masked out."""
    d2 = (
        np.sum(anchors * anchors, axis=1)[:, None]
        + np.sum(candidates * candidates, axis=1)[None, :]
        - 2.0 * anchors @ candidates.T
    )
    d = np.sqrt(np.maximum(d2, 0.0))
    # one row per distinct anchor id, marking its partners among the candidates
    _, group = np.unique(anchor_ids, return_inverse=True)
    col = np.searchsorted(candidate_ids, partner_ids)
    present = candidate_ids[np.minimum(col, len(candidate_ids) - 1)] == partner_ids
    blocked = np.zeros((group.max() + 1, len(candidate_ids)), dtype=bool)
    blocked[group[present], col[present]] = True
    d[blocked[group]] = np.inf
    hardest_col = np.argmin(d, axis=1)
    hardest = d[np.arange(d.shape[0]), hardest_col]
    ok = np.isfinite(hardest)
    return hardest, hardest_col, ok


def hardest_contrastive(
    features_a,
    features_b,
    positive_pairs,
    cfg: LossConfig,
    rng: np.random.Generator | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Hardest-negative contrastive loss over sampled positive pairs.

    positive term: mean over sampled pairs of [d(f_i, f_j) − m_p]₊²
    negative terms: mean of [m_n − min_k d(f, f_k)]₊² over each side's
    anchors, mined among ``n_neg_candidates`` randomly selected
    non-corresponding rows of the opposite map.
    total = positive + 0.5·(neg_a + neg_b); d is Euclidean.

    Returns (value, grad_features_a, grad_features_b). ``rng`` drives the
    sampling; with sizes at least as large as the inputs the loss is
    exhaustive and rng-independent.
    """
    fa = np.asarray(features_a, dtype=np.float64)
    fb = np.asarray(features_b, dtype=np.float64)
    if fa.ndim != 2 or fb.ndim != 2 or fa.shape[1] != fb.shape[1]:
        raise ValueError("feature maps must be 2-D with equal widths")
    pairs = np.asarray(positive_pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.shape[0] == 0:
        raise NoPositives("metric loss needs at least one positive pair")
    if rng is None:
        rng = np.random.default_rng(0)

    if pairs.shape[0] > cfg.n_pos_pairs:
        keep = rng.choice(pairs.shape[0], size=cfg.n_pos_pairs, replace=False)
        pairs = pairs[np.sort(keep)]
    cand_a, cand_b = [
        np.sort(rng.choice(n, size=cfg.n_neg_candidates, replace=False))
        if n > cfg.n_neg_candidates else np.arange(n)
        for n in (fa.shape[0], fb.shape[0])
    ]

    ia, ib = pairs[:, 0], pairs[:, 1]

    ga = np.zeros_like(fa)
    gb = np.zeros_like(fb)

    # positive hinge
    diff = fa[ia] - fb[ib]
    d_pos = np.sqrt(np.maximum(np.sum(diff * diff, axis=1), 0.0))
    viol = np.maximum(d_pos - cfg.m_p, 0.0)
    pos_term = float(np.mean(viol**2))
    safe = np.where(d_pos > 1e-12, d_pos, 1.0)
    coeff = np.where(viol > 0, 2.0 * viol / (pairs.shape[0] * safe), 0.0)
    np.add.at(ga, ia, coeff[:, None] * diff)
    np.add.at(gb, ib, -coeff[:, None] * diff)

    def negative_side(anchor_feats, anchor_ids, partner_ids, cand_feats, cand_ids,
                      g_anchor, g_cand, weight):
        hardest, col, ok = _mine_hardest(anchor_feats, anchor_ids, partner_ids, cand_feats,
                                         cand_ids)
        n_ok = int(np.count_nonzero(ok))
        if n_ok == 0:
            return 0.0
        hinge = np.maximum(cfg.m_n - hardest[ok], 0.0)
        term = float(np.sum(hinge**2) / n_ok)
        rows = np.flatnonzero(ok)[hinge > 0]
        if rows.size:
            h = hardest[rows]
            cols = col[rows]
            dvec = anchor_feats[rows] - cand_feats[cols]
            c = weight * (-2.0) * (cfg.m_n - h) / (n_ok * np.where(h > 1e-12, h, 1.0))
            np.add.at(g_anchor, anchor_ids[rows], c[:, None] * dvec)
            np.add.at(g_cand, cand_ids[cols], -c[:, None] * dvec)
        return term

    neg_a = negative_side(fa[ia], ia, ib, fb[cand_b], cand_b, ga, gb, 0.5)
    neg_b = negative_side(fb[ib], ib, ia, fa[cand_a], cand_a, gb, ga, 0.5)

    value = pos_term + 0.5 * (neg_a + neg_b)
    return value, ga, gb


def total_loss(l_ml: float, l_cd: float, l_l2: float, cfg: LossConfig) -> LossReport:
    """Weighted combination l_ml + lambda1·l_cd + lambda2·l_l2."""
    terms = (l_ml, l_cd, l_l2)
    if not all(np.isfinite(t) for t in terms):
        raise NonFinite(f"loss terms must be finite, got {terms}")
    return LossReport(
        total=l_ml + cfg.lambda1 * l_cd + cfg.lambda2 * l_l2,
        l_ml=float(l_ml),
        l_cd=float(l_cd),
        l_l2=float(l_l2),
    )
