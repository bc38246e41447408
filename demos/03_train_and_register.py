"""Train the feature encoder on a tiny scene, then register a pair online.

The full study lives in the test suite; this is a quick narrative version
(about 2 s on a laptop CPU): train briefly with the aggregated-reconstruction
loss, watch the loss fall, and run the online path (encode, match, RANSAC).
The briefly trained model does not register these pairs yet: its estimates
stay near the identity, and its one loose "pass" is that identity estimate
inside the loose criterion's 2 m bound.
"""

import numpy as np

from distreg import model as mdl
from distreg import pipeline as pl
from distreg import simulate as sim
from distreg.aggregate import ApgConfig
from distreg.dataio import PairSpec, distill_records
from distreg.losses import LossConfig
from distreg.register import CRITERIA, RansacConfig, evaluate

world = sim.simulate_world(seed=8, extent=50.0, n_obstacles=18)
lidar = sim.LidarConfig(azimuth_steps=128, elevation_angles=tuple(np.linspace(-10, 2, 5)),
                        max_range=50.0, range_noise_sigma=0.01)
seq_a = sim.simulate_sequence(world, sim.line_trajectory((-15, -4), 0.0, 1.5, 21), lidar, seed=1)
seq_b = sim.simulate_sequence(world, sim.line_trajectory((-15, +4), 0.0, 1.5, 21), lidar, seed=2)

records = distill_records(seq_a, seq_b, PairSpec(8.0, 18.0, 1.0), tau=0.5)
pairs = [(r.i, r.j) for r in records[:: max(1, len(records) // 6)]][:6]
print(f"training on {len(pairs)} cross-vehicle pairs")

cfg = pl.TrainConfig(
    epochs=4,
    learning_rate=5e-3,
    seed=3,
    input_voxel_size=0.5,
    gt_corr_radius=0.6,
    model=mdl.ModelConfig(k=6, l=12, encoder_hidden=(8, 16), encoder_post_hidden=16,
                          phi=2, decoder_hidden=(32, 16), normalize=False),
    apg=ApgConfig(psi=2, alpha=3.0, scope_radius=25.0, voxel_size=0.4),
    loss=LossConfig(lambda1=0.2, lambda2=0.002),
)
enc, dec, log = pl.train(seq_a, seq_b, pairs, cfg)

per_epoch = len(pairs)
for epoch in range(cfg.epochs):
    chunk = log.steps[epoch * per_epoch:(epoch + 1) * per_epoch]
    mean_total = float(np.mean([s.total for s in chunk]))
    print(f"epoch {epoch}: mean loss {mean_total:.3f} "
          f"(metric {np.mean([s.l_ml for s in chunk]):.3f}, "
          f"reconstruction {np.mean([s.l_cd for s in chunk]):.3f})")

# Online path: only the two key frames and the encoder are involved.
# RANSAC's consensus here is the near-identity one on the unfiltered
# ground (ROADMAP item 1): each translation error is about the frames'
# separation, and the loose "pass" at 1.5 m is the identity estimate
# falling inside the loose criterion's 2 m bound, not a registration. The
# calibrated study (tests/test_acceptance.py) trains 20 epochs on a richer
# scene.
print("\nonline registration at increasing frame separation:")
for j in (5, 6, 7):
    fa, fb = seq_a[4], seq_a[j]
    est = pl.register_pair(fa.cloud, fb.cloud, enc,
                           RansacConfig(iterations=5000, inlier_threshold=0.5, seed=0),
                           input_voxel_size=0.5)
    gt = pl.relative_gt(fa, fb)
    result = evaluate(est.transform, gt, CRITERIA, est.inlier_count)
    verdicts = " ".join(
        f"{c.name}:{'pass' if result.success[c.name] else 'fail'}" for c in CRITERIA)
    d = np.linalg.norm(fa.pose.translation - fb.pose.translation)
    print(f"  frames {fa.index}->{fb.index} ({d:.1f} m apart): "
          f"rre {result.rre:.2f} deg, rte {result.rte:.2f} m | {verdicts}")
print("the estimates stay near the identity (rte is about the separation), so a "
      "loose pass here is the identity inside the 2 m bound")
