"""Span tracer installed from outside the program.

Timing wrappers replace the module attributes that distreg's own code calls
through (for example ``distreg.pipeline.ransac_register`` and the
``NeighborIndex`` methods), so the program itself is not edited. Each call
records a span (name, start, end, parent) in memory; counters are bumped at
the same boundaries. Self time of a span is its duration minus the
durations of its direct children, which nest because the program runs on
one thread.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import distreg.aggregate as agg
import distreg.dataio as dataio
import distreg.geometry as geo
import distreg.model as mdl
import distreg.pipeline as pl
import distreg.register as reg
import distreg.simulate as sim


# on_call hooks: (counts, args, kwargs, result) -> None
def _count_ransac(counts, args, kwargs, est):
    corr, cfg = args[0], args[3]
    counts["register.matches"] += len(corr)
    counts["register.inliers"] += est.inlier_count
    counts["register.ransac.hypotheses_configured"] += cfg.iterations


def _count_encoded(counts, args, kwargs, features):
    counts["model.points_encoded"] += features.shape[0]


def _count_knn_queries(counts, args, kwargs, result):
    counts["geometry.knearest.queries"] += result[0].shape[0]


def _count_apc_points(counts, args, kwargs, apc):
    counts["aggregate.apc_points"] += apc.shape[0]


def _count_emitted(counts, args, kwargs, records):
    counts["dataio.distill.emitted"] += len(records)


def _count_bytes(counts, args, kwargs, result):
    counts["dataio.bytes_read"] += Path(args[0]).stat().st_size


# (owner, attribute, span name, on_call). Several attributes may share one
# span name when modules import the same function under their own names.
WRAP_POINTS = [
    (sim, "simulate_sequence", "simulate.simulate_sequence", None),
    (dataio, "save_dataset", "dataio.save_dataset", None),
    (dataio, "load_dataset", "dataio.load_dataset", None),
    (dataio, "load_kitti_bin", "dataio.load_kitti_bin", _count_bytes),
    (dataio, "load_pose_file", "dataio.load_pose_file", _count_bytes),
    (dataio, "distill_records", "dataio.distill_records", _count_emitted),
    (dataio, "overlap_ratio", "geometry.overlap_ratio", None),
    (pl, "voxel_downsample", "geometry.voxel_downsample", None),
    (agg, "voxel_downsample", "geometry.voxel_downsample", None),
    (geo.NeighborIndex, "__init__", "geometry.NeighborIndex.build", None),
    (geo.NeighborIndex, "knearest", "geometry.knearest", _count_knn_queries),
    (geo.NeighborIndex, "nearest", "geometry.nearest", None),
    (agg, "generate_apc", "aggregate.generate_apc", _count_apc_points),
    (pl, "generate_apc", "aggregate.generate_apc", _count_apc_points),
    (mdl, "encoder_forward", "model.encoder_forward", _count_encoded),
    (mdl, "encoder_forward_cached", "model.encoder_forward_cached", None),
    (mdl, "encoder_backward", "model.encoder_backward", None),
    (mdl, "decoder_forward_cached", "model.decoder_forward_cached", None),
    (mdl, "decoder_backward", "model.decoder_backward", None),
    (mdl, "backward", "model.backward", None),
    (mdl, "fuse", "model.fuse", None),
    (pl, "chamfer", "losses.chamfer", None),
    (pl, "hardest_contrastive", "losses.hardest_contrastive", None),
    (pl, "l2_offset_reg", "losses.l2_offset_reg", None),
    (pl, "pair_loss_and_grads", "pipeline.pair_loss_and_grads", None),
    (pl, "train", "pipeline.train", None),
    (pl, "register_pair", "pipeline.register_pair", None),
    (pl, "match_features", "register.match_features", None),
    (pl, "ransac_register", "register.ransac_register", _count_ransac),
    (reg, "evaluate", "register.evaluate", None),
]


class Tracer:
    """Records spans and counts while installed (use as a context manager)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, on_call):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            counts[name + ".calls"] += 1
            if on_call is not None:
                on_call(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for owner, attr, name, on_call in WRAP_POINTS:
            original = owner.__dict__.get(attr)
            if original is None:
                continue  # gone from the program: its metrics read 0
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, on_call))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[sid]
        return out

    def write(self, path: Path, label: str) -> None:
        """Append the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "a") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": label, "id": sid, "name": name,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent}) + "\n")
