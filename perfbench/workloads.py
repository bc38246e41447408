"""The three benchmark workloads.

Each workload builds its inputs in ``setup`` (timed as ``setup_s``). A pass
over its work is split into ``parts(state)``, and ``run_unit(state, part)``
runs one of them: one pair in register-bins, a whole training run or a whole
preparation pass in the other two. The benchmark cycles through the parts
until its time is up. Only distreg's public API is called, always through
the module attribute (``pl.train``, ``dataio.distill_records``, ...) so the
tracer's wrappers see every call. ``check`` verifies a unit's outputs
outside the timed region; ``quality`` turns them into the workload's
quality figure and ``figures`` into its other deterministic figures.

A run measures at least ``min_passes`` passes, so that every operation is
timed more than once: on a shared host single timings of the same work
spread by tens of percent, while their mean over tens of seconds repeats to
a few percent.

Scenes are the acceptance suite's fixtures. ``--seed`` drives what may vary
without making the figures a lottery: the pair order in register-bins, the
scan-noise draw in train-apr and prepare-data, and the disturbance and
re-verification draws in prepare-data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import distreg.aggregate as agg
import distreg.dataio as dataio
import distreg.losses as lo
import distreg.model as mdl
import distreg.pipeline as pl
import distreg.register as reg
import distreg.simulate as sim
from distreg.errors import DistregError


@dataclass
class Unit:
    """Outputs of one unit of work plus its timings."""

    rows: list = field(default_factory=list)       # must match between repeats of a part
    latencies: dict = field(default_factory=dict)  # operation -> seconds; same keys every repeat
    work: int = 0                                  # operations counted by throughput
    work_parts: dict = field(default_factory=dict)  # key -> seconds; together they take the work
    attempted: int = 0
    failed: int = 0
    extra: dict = field(default_factory=dict)      # outputs needed by check/quality, not compared

    @classmethod
    def merge(cls, units):
        """One unit holding the outputs of a whole pass."""
        if len(units) == 1:
            return units[0]
        out = cls()
        for u in units:
            out.rows += u.rows
            out.latencies.update(u.latencies)
            out.work += u.work
            out.work_parts.update(u.work_parts)
            out.attempted += u.attempted
            out.failed += u.failed
            for key, values in u.extra.items():
                out.extra.setdefault(key, []).extend(values)
        return out


class CallLog:
    """Wraps one module attribute for the length of a unit and records, for
    every call, the clock at entry and ``value(result)``: one clock read per
    call, on calls that each take milliseconds or more."""

    def __init__(self, owner, attr, value=lambda result: None):
        self.owner, self.attr, self.value = owner, attr, value
        self.starts: list[float] = []
        self.values: list = []

    def __enter__(self):
        self._original = getattr(self.owner, self.attr)
        original, value = self._original, self.value

        def logged(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            self.starts.append(start)
            self.values.append(value(result))
            return result

        setattr(self.owner, self.attr, logged)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self._original)
        return False


def _pairs_in_band(seq_a, seq_b, d1, d2):
    """(i, j) frame pairs whose sensor separation lies in [d1, d2], in the
    order distill_records emits them. With an overlap cap of 1.0 (which
    every pair meets) this is the list distill_records returns, without
    computing overlaps during set-up."""
    same = seq_a is seq_b
    oa, ob = seq_a.origins(), seq_b.origins()
    out = []
    for pa, fa in enumerate(seq_a):
        for pb, fb in enumerate(seq_b):
            if same and pb <= pa:
                continue
            if d1 <= float(np.linalg.norm(oa[pa] - ob[pb])) <= d2:
                out.append((fa.index, fb.index))
    return out


def _stride(items, n):
    """n items spread evenly over the list, as the acceptance suite picks pairs."""
    return items[:: max(1, len(items) // n)][:n]


def _frame(seq, index):
    return seq[seq.position_of(index)]


TOY_MODEL = mdl.ModelConfig(k=24, l=32, phi=4, decoder_hidden=(512, 256), normalize=False)


def _toy_lidar():
    return sim.LidarConfig(azimuth_steps=320, elevation_angles=tuple(np.linspace(-10, 4, 8)),
                           max_range=60.0, range_noise_sigma=0.01)


def _toy_scene(seed):
    """Acceptance criterion 7's two-vehicle world; the scan noise comes from
    the workload seed (seed 0 gives the suite's own scans)."""
    world = sim.simulate_world(17, 56.0, 30)
    lidar = _toy_lidar()
    seq_a = sim.simulate_sequence(world, sim.line_trajectory((-20, -5), 0.0, 1.0, 41),
                                  lidar, seed=1 + 2 * seed)
    seq_b = sim.simulate_sequence(world, sim.line_trajectory((-20, +5), 0.0, 1.0, 41),
                                  lidar, seed=2 + 2 * seed)
    return seq_a, seq_b


# ---------------------------------------------------------------------------
# register-bins
# ---------------------------------------------------------------------------

class RegisterBins:
    """Online registration at the default RansacConfig on a fixed pair set:
    same-sequence near pairs (which register today) and cross-vehicle pairs
    from the 10-20 m and 20-30 m bins (which do not)."""

    name = "register-bins"
    min_passes = 2  # every pair is timed at least twice; a pass takes about 16 s
    voxel = 0.3
    near_band = (3.0, 8.0)
    n_near = 6
    far_bins = ((10.0, 20.0), (20.0, 30.0))
    # Short seeded training in set-up. The contrastive-only arm: one epoch
    # of the APR arm registers no pair at all, which would leave the
    # recall figure at zero.
    train_cfg = pl.TrainConfig(
        epochs=1, learning_rate=1e-2, momentum=0.9, seed=5, input_voxel_size=0.3,
        gt_corr_radius=0.45, model=TOY_MODEL,
        apg=agg.ApgConfig(psi=3, alpha=5.0, scope_radius=35.0, voxel_size=0.3),
        loss=lo.LossConfig(lambda1=0.0, lambda2=0.0, n_pos_pairs=512, n_neg_candidates=4096),
    )

    # The default config, sampling seed included: with another sampling seed
    # one near pair flips between success and failure.
    ransac = reg.RansacConfig()

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        world = sim.simulate_world(23, 50.0, 44)
        lidar = sim.LidarConfig(azimuth_steps=320, elevation_angles=tuple(np.linspace(-8, 0, 6)),
                                max_range=50.0, range_noise_sigma=0.01)
        seq_a = sim.simulate_sequence(world, sim.line_trajectory((-18, -4), 0.0, 1.0, 37),
                                      lidar, seed=1)
        seq_b = sim.simulate_sequence(world, sim.line_trajectory((-18, +4), 0.0, 1.0, 37),
                                      lidar, seed=2)
        # training pairs as acceptance criterion 8 picks them; the overlap
        # floor guarantees ground-truth positives in every pair
        records = dataio.distill_records(seq_a, seq_b, dataio.PairSpec(9.0, 18.0, 1.0), 0.5)
        train_pairs = _stride([(r.i, r.j) for r in records if r.overlap >= 0.12], 16)
        enc, _, log = pl.train(seq_a, seq_b, train_pairs, self.train_cfg)
        pairs = [("near", seq_a, seq_a, i, j)
                 for i, j in _stride(_pairs_in_band(seq_a, seq_a, *self.near_band), self.n_near)]
        for d1, d2 in self.far_bins:
            band = _pairs_in_band(seq_a, seq_b, d1, d2)
            i, j = band[len(band) // 2]
            pairs.append(("far", seq_a, seq_b, i, j))
        order = np.random.default_rng([self.seed, 1]).permutation(len(pairs))
        return {"pairs": [pairs[k] for k in order], "enc": enc,
                "digest": (tuple(s.total for s in log.steps),
                           tuple(t.tobytes() for _, t in enc.named_tensors()))}

    def parts(self, state):
        return list(range(len(state["pairs"])))

    def run_unit(self, state, part):
        """Registers and scores one pair."""
        u = Unit()
        with CallLog(pl, "match_features", len) as matches:
            self._register(state["pairs"][part], state["enc"], u)
        u.extra["matches"] = matches.values
        return u

    def _register(self, pair, enc, u):
        kind, seq_a, seq_b, i, j = pair
        fa, fb = _frame(seq_a, i), _frame(seq_b, j)
        gt = pl.relative_gt(fa, fb)
        u.attempted += 1
        t0 = time.perf_counter()
        try:
            est = pl.register_pair(fa.cloud, fb.cloud, enc, self.ransac, self.voxel)
        except DistregError as exc:
            u.failed += 1
            u.rows.append((kind, i, j, "raised", type(exc).__name__))
            return
        dt = time.perf_counter() - t0
        res = reg.evaluate(est.transform, gt, reg.CRITERIA, est.inlier_count)
        u.latencies[(kind, i, j)] = dt
        u.work += 1
        u.work_parts[(kind, i, j)] = dt
        u.rows.append((kind, i, j, res.rre, res.rte, res.inlier_count,
                       tuple(sorted(res.success.items()))))

    def check(self, u):
        """Every pair is scored with finite errors; returns failed count."""
        return sum(1 for r in u.rows if r[3] != "raised" and not
                   (np.isfinite(r[3]) and np.isfinite(r[4])))

    @staticmethod
    def recall(rows, kind):
        scored = [r for r in rows if r[0] == kind]
        return sum(1 for r in scored if r[3] != "raised" and dict(r[6])["normal"]) / len(scored)

    def quality(self, u):
        return self.recall(u.rows, "near")

    def figures(self, u):
        return {"register.recall_near": (self.recall(u.rows, "near"), "ratio"),
                "register.recall_far": (self.recall(u.rows, "far"), "ratio")}

    def named(self, u, latency_p50, throughput):
        return {"register.pair_s.p50": (latency_p50, "s"),
                "register.pairs_per_s": (throughput, "1/s"), **self.figures(u)}

    def inputs(self, state, u):
        sizes = []
        for _, seq_a, seq_b, i, j in state["pairs"]:
            for seq, idx in ((seq_a, i), (seq_b, j)):
                cloud = _frame(seq, idx).cloud
                sizes.append((cloud.shape[0], pl.voxel_downsample(cloud, self.voxel).shape[0]))
        return {"pairs": [(k, i, j) for k, _, _, i, j in state["pairs"]],
                "points_per_cloud_mean": float(np.mean([s[0] for s in sizes])),
                "points_per_cloud_voxelized_mean": float(np.mean([s[1] for s in sizes])),
                "matches_per_pair": u.extra["matches"],
                "ransac_iterations": self.ransac.iterations}


# ---------------------------------------------------------------------------
# train-apr
# ---------------------------------------------------------------------------

class TrainApr:
    """``pipeline.train`` with acceptance criterion 7's toy-study APR
    configuration, for a fixed number of epochs so the loss log repeats."""

    name = "train-apr"
    min_passes = 2
    n_pairs = 16
    cfg = pl.TrainConfig(
        epochs=2, learning_rate=1e-2, momentum=0.9, seed=5, input_voxel_size=0.3,
        gt_corr_radius=0.45, model=TOY_MODEL,
        apg=agg.ApgConfig(psi=3, alpha=5.0, scope_radius=40.0, voxel_size=0.3),
        loss=lo.LossConfig(lambda1=0.3, lambda2=0.003, n_pos_pairs=512, n_neg_candidates=4096),
        n_disturb=0,
    )

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        seq_a, seq_b = _toy_scene(self.seed)
        pairs = _stride(_pairs_in_band(seq_a, seq_b, 10.0, 20.0), self.n_pairs)
        return {"seq_a": seq_a, "seq_b": seq_b, "pairs": pairs,
                "digest": tuple(f.cloud.tobytes() for f in (*seq_a, *seq_b))}

    def parts(self, state):
        return [None]

    def run_unit(self, state, part):
        u = Unit()
        # a step starts where pipeline.train asks for that step's loss
        with CallLog(pl, "pair_loss_and_grads") as clock:
            t0 = time.perf_counter()
            try:
                enc, dec, log = pl.train(state["seq_a"], state["seq_b"], state["pairs"], self.cfg)
            except DistregError as exc:
                n = self.cfg.epochs * len(state["pairs"])
                u.attempted, u.failed = n, n
                u.rows.append(("raised", type(exc).__name__))
                return u
            t1 = time.perf_counter()
        u.latencies = dict(enumerate(np.diff(clock.starts + [t1]).tolist()))
        u.work = len(log.steps)
        # the steps plus what train does before its first step cover its whole wall
        u.work_parts = {**u.latencies, "before_first_step": clock.starts[0] - t0}
        u.attempted = len(log.steps)
        u.rows = [(s.step, s.l_ml, s.l_cd, s.l_l2, s.total) for s in log.steps]
        u.rows.append(tuple(t.tobytes() for _, t in mdl.named_parameters(enc, dec)))
        return u

    def check(self, u):
        """Every loss term is finite; returns failed count."""
        return sum(1 for r in u.rows[:-1] if not np.isfinite(r[1:]).all())

    def _epoch_means(self, u):
        totals = [r[4] for r in u.rows[:-1]]
        return float(np.mean(totals[:self.n_pairs])), float(np.mean(totals[-self.n_pairs:]))

    def quality(self, u):
        """Loss reduction: first-epoch mean total loss over last-epoch mean."""
        first, last = self._epoch_means(u)
        return first / last

    def figures(self, u):
        first, last = self._epoch_means(u)
        return {"train.loss_first_epoch": (first, "loss"),
                "train.loss_last_epoch": (last, "loss")}

    def named(self, u, latency_p50, throughput):
        return {"train.step_s.p50": (latency_p50, "s"),
                "train.steps_per_s": (throughput, "1/s"), **self.figures(u)}

    def inputs(self, state, u):
        r = self.cfg.apg.scope_radius
        sizes = []
        for i, j in state["pairs"]:
            for seq, idx in ((state["seq_a"], i), (state["seq_b"], j)):
                cloud = _frame(seq, idx).cloud
                cropped = cloud[np.linalg.norm(cloud, axis=1) <= r]
                sizes.append(pl.voxel_downsample(cropped, self.cfg.input_voxel_size).shape[0])
        return {"pairs": state["pairs"], "epochs": self.cfg.epochs,
                "steps_per_run": self.cfg.epochs * len(state["pairs"]),
                "points_per_cloud_voxelized_mean": float(np.mean(sizes))}


# ---------------------------------------------------------------------------
# prepare-data
# ---------------------------------------------------------------------------

class PrepareData:
    """Offline data preparation on the toy-study scene: load both sequences
    from disk, distill every F x F frame pair, aggregate every key frame
    (with alignment disturbance on the second sequence)."""

    name = "prepare-data"
    min_passes = 2
    # d2 exceeds the scene's largest sensor separation (about 41 m), so every
    # F x F candidate reaches the overlap test.
    spec = dataio.PairSpec(0.0, 60.0, overlap_max=0.3)
    tau = 0.5
    apg = agg.ApgConfig(psi=3, alpha=5.0, scope_radius=40.0, voxel_size=0.3)
    n_disturb = 2
    n_verify = 6

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir_a = Path(workdir) / "seq_a"
        self.dir_b = Path(workdir) / "seq_b"

    def setup(self):
        seq_a, seq_b = _toy_scene(self.seed)
        dataio.save_dataset(self.dir_a, seq_a, {"vehicle": "a"})
        dataio.save_dataset(self.dir_b, seq_b, {"vehicle": "b"})
        return {"digest": tuple(f.cloud.tobytes() for f in (*seq_a, *seq_b))}

    def parts(self, state):
        return [None]

    def run_unit(self, state, part):
        u = Unit()
        seq_a = dataio.load_dataset(self.dir_a)
        seq_b = dataio.load_dataset(self.dir_b)
        t1 = time.perf_counter()
        records = dataio.distill_records(seq_a, seq_b, self.spec, self.tau)
        u.work = len(seq_a) * len(seq_b)
        u.work_parts = {"distill": time.perf_counter() - t1}
        u.rows.append(tuple((r.i, r.j, r.distance, r.overlap) for r in records))
        apcs = []
        for seq, disturbed in ((seq_a, False), (seq_b, True)):
            for frame in seq:
                disturb = None
                if disturbed:
                    # near the ends fewer non-key frames exist; disturb at
                    # most what the selector provides, as training does
                    available = len(agg.select_nonkey_frames(seq, frame.index, self.apg))
                    disturb = agg.DisturbConfig(min(self.n_disturb, available),
                                                seed=[self.seed, frame.index])
                u.attempted += 1
                t = time.perf_counter()
                try:
                    apc = agg.generate_apc(seq, frame.index, self.apg, disturb)
                except DistregError as exc:
                    u.failed += 1
                    u.rows.append((frame.index, "raised", type(exc).__name__))
                    continue
                u.latencies[(disturbed, frame.index)] = time.perf_counter() - t
                apcs.append((frame, apc))
                u.rows.append((frame.index, apc.shape[0], apc.tobytes()))
        u.extra = {"seq_a": seq_a, "seq_b": seq_b, "records": records, "apcs": apcs}
        return u

    def check(self, u):
        """Aggregates lie inside the scope sphere, and a seeded subsample of
        emitted pairs matches brute-force overlap and the distance bin (as
        acceptance criterion 6 checks). Returns failed count."""
        failed = 0
        for _, apc in u.extra["apcs"]:
            if apc.shape[0] == 0 or np.linalg.norm(apc, axis=1).max() > self.apg.scope_radius:
                failed += 1
        seq_a, seq_b, records = u.extra["seq_a"], u.extra["seq_b"], u.extra["records"]
        rng = np.random.default_rng([self.seed, 2])
        picks = rng.choice(len(records), size=min(self.n_verify, len(records)), replace=False)
        u.attempted += len(picks)
        for k in picks:
            r = records[int(k)]
            fa, fb = _frame(seq_a, r.i), _frame(seq_b, r.j)
            d = float(np.linalg.norm(fa.pose.translation - fb.pose.translation))
            gt = fb.pose.inverse().compose(fa.pose)
            ov = _brute_overlap(fa.cloud, fb.cloud, gt.rotation, gt.translation, self.tau)
            ok = (self.spec.d1 <= d <= self.spec.d2 and abs(r.distance - d) <= 1e-12
                  and ov <= self.spec.overlap_max and abs(r.overlap - ov) <= 1e-12)
            failed += not ok
        return failed

    def quality(self, u):
        """Mean coverage gain of the undisturbed aggregates: the share of
        aggregate points farther than tau from every key-frame point."""
        r = self.apg.scope_radius
        gains = []
        for frame, apc in u.extra["apcs"][: len(u.extra["seq_a"])]:
            key = frame.cloud[np.linalg.norm(frame.cloud, axis=1) <= r]
            gains.append(agg.apc_coverage_gain(key, apc, self.tau))
        return float(np.mean(gains))

    def figures(self, u):
        return {}

    def named(self, u, latency_p50, throughput):
        return {"prepare.frame_pairs_per_s": (throughput, "1/s"),
                "prepare.apcs_per_s": (1.0 / latency_p50, "1/s")}

    def inputs(self, state, u):
        seq_a, seq_b = u.extra["seq_a"], u.extra["seq_b"]
        return {"frames": [len(seq_a), len(seq_b)],
                "frame_pair_candidates": len(seq_a) * len(seq_b),
                "pairs_emitted": len(u.extra["records"]),
                "points_per_cloud_mean": float(np.mean([f.cloud.shape[0] for f in (*seq_a, *seq_b)])),
                "apc_points_mean": float(np.mean([a.shape[0] for _, a in u.extra["apcs"]])),
                "n_disturb": self.n_disturb}


def _brute_overlap(cloud_a, cloud_b, rotation, translation, tau, chunk=256):
    """min(o_AB, o_BA) from all pairwise distances, in row chunks."""
    moved = cloud_a @ rotation.T + translation
    min_ab = np.empty(moved.shape[0])
    min_ba = np.full(cloud_b.shape[0], np.inf)
    for s in range(0, moved.shape[0], chunk):
        d = np.linalg.norm(moved[s:s + chunk, None, :] - cloud_b[None, :, :], axis=2)
        min_ab[s:s + chunk] = d.min(axis=1)
        np.minimum(min_ba, d.min(axis=0), out=min_ba)
    o_ab = float(np.count_nonzero(min_ab < tau)) / cloud_a.shape[0]
    o_ba = float(np.count_nonzero(min_ba < tau)) / cloud_b.shape[0]
    return min(o_ab, o_ba)


WORKLOADS = {w.name: w for w in (RegisterBins, TrainApr, PrepareData)}
