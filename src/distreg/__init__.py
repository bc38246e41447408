"""distreg: distant LiDAR point-cloud registration.

Trains a per-point feature encoder whose features must suffice to
reconstruct a denser multi-frame aggregate of the surrounding scene, then
registers distant point-cloud pairs online from those features alone.
"""

from .aggregate import ApgConfig, DisturbConfig, apc_coverage_gain, generate_apc, select_nonkey_frames
from .dataio import (
    Frame,
    FrameSequence,
    PairRecord,
    PairSpec,
    distill_records,
    load_dataset,
    load_kitti_bin,
    load_pose_file,
    save_dataset,
    write_kitti_bin,
    write_pose_file,
)
from .geometry import (
    NeighborIndex,
    RigidTransform,
    apply_transform,
    overlap_ratio,
    rre,
    rte,
    voxel_downsample,
)
from .losses import LossConfig, LossReport, chamfer, hardest_contrastive, l2_offset_reg, total_loss
from .model import (
    DecoderParams,
    EncoderParams,
    ModelConfig,
    backward,
    decoder_forward,
    encoder_forward,
    fuse,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .pipeline import (
    CurriculumSpec,
    TrainConfig,
    TrainLog,
    eval_density,
    eval_distance_bins,
    eval_disturb,
    register_pair,
    train,
    train_curriculum,
)
from .register import (
    CRITERIA,
    LOOSE,
    NORMAL,
    STRICT,
    Criterion,
    PairResult,
    RansacConfig,
    evaluate,
    match_features,
    ransac_register,
    registration_recall,
)
from .simulate import (
    Box,
    Cylinder,
    LidarConfig,
    WorldModel,
    line_trajectory,
    simulate_scan,
    simulate_sequence,
    simulate_world,
)

__version__ = "0.1.0"
