#!/bin/sh
# End-to-end CLI walkthrough: simulate two vehicles through one world,
# distill low-overlap pairs, train and evaluate.
set -e

OUT=${1:-/tmp/distreg-demo}
mkdir -p "$OUT"

# Two trajectories through the same world (same seed -> same obstacles).
distreg simulate --seed 9 --frames 30 --extent 50 --obstacles 20 \
    --start-x -14 --start-y -4 --spacing 1.0 \
    --azimuth-steps 256 --rings 6 --ring-lo -10 --ring-hi 2 --max-range 50 \
    --out "$OUT/vehicle_a" --force
distreg simulate --seed 9 --frames 30 --extent 50 --obstacles 20 \
    --start-x -14 --start-y 4 --spacing 1.0 \
    --azimuth-steps 256 --rings 6 --ring-lo -10 --ring-hi 2 --max-range 50 \
    --out "$OUT/vehicle_b" --force

# Cross-vehicle pairs between 8 and 20 m apart.
distreg distill --dataset "$OUT/vehicle_a" --dataset-b "$OUT/vehicle_b" \
    --d1 8 --d2 20 --max-overlap 1.0 --out "$OUT/pairs.csv" --force

# A small model, trained briefly (bump --epochs for real runs).
distreg train --dataset "$OUT/vehicle_a" --dataset-b "$OUT/vehicle_b" \
    --pairs "$OUT/pairs.csv" --epochs 2 --k 8 --feature-dim 16 --phi 2 \
    --decoder-hidden 64,32 --psi 2 --alpha 4 --scope-radius 25 \
    --input-voxel-size 0.4 --seed 3 \
    --out "$OUT/model.ckpt" --log "$OUT/trainlog.csv" --force

# Score every pair under all three criteria.
distreg evaluate --checkpoint "$OUT/model.ckpt" \
    --dataset "$OUT/vehicle_a" --dataset-b "$OUT/vehicle_b" \
    --pairs "$OUT/pairs.csv" --ransac-iterations 2000 --input-voxel-size 0.4 \
    --out "$OUT/results.csv" --force

echo "outputs in $OUT"
