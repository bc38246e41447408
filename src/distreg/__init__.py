"""distreg: distant LiDAR point-cloud registration.

Trains a per-point feature encoder whose features must suffice to
reconstruct a denser multi-frame aggregate of the surrounding scene, then
registers distant point-cloud pairs online from those features alone.
"""
