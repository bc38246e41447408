"""Typed errors raised across the library.

All library-specific failures derive from ``DistregError`` so callers can
catch one base class at a process boundary while tests assert the precise
subclass.

Each class carries the process exit code the CLI returns for it, and this
module is the one place that says which: 1 internal error (the base), 2
usage, 3 I/O or a malformed input file, 4 nothing to work on (an empty
result, or too little input for a stage), 5 numeric failure.
"""

import numbers


def check_int(name: str, value, low: int) -> None:
    """Raise a ValueError naming the setting unless ``value`` is an integer
    of at least ``low``. A bool is not a count, and a float or NaN would pass
    a bare comparison only to fail later, in ``range`` or as an array size."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}")


class DistregError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class EmptyCloud(DistregError):
    """An operation required a non-empty point cloud."""

    exit_code = 4


class DegenerateGeometry(DistregError):
    """Correspondence geometry is collinear or coincident (covariance rank < 2)."""


class MalformedFile(DistregError):
    """A file failed structural validation (truncation, bad field count)."""

    exit_code = 3


class UnknownFrame(DistregError):
    """A frame index that the sequence does not hold."""

    exit_code = 3


class NonRigidPose(DistregError):
    """A parsed pose violates orthonormality beyond the repair threshold."""

    exit_code = 3


class TooFewPoints(DistregError):
    """Cloud has fewer points than the encoder neighborhood size."""

    exit_code = 4


class ShapeMismatch(DistregError):
    """Array shapes are inconsistent with the declared model dimensions."""


class MissingCache(DistregError):
    """Backward pass invoked without the forward activations."""


class NoPositives(DistregError):
    """Metric loss needs at least one positive correspondence."""

    exit_code = 4


class EmptyFeatureMap(DistregError):
    """Feature matching needs non-empty feature maps."""


class TooFewCorrespondences(DistregError):
    """Robust estimation needs at least the minimal sample size."""

    exit_code = 4


class EmptyResults(DistregError):
    """Recall aggregation over an empty result list."""

    exit_code = 4


class NoNeighborFrames(DistregError):
    """Aggregation found no usable non-key frames around the key frame."""

    exit_code = 4


class NoPairs(DistregError):
    """Training or evaluation was given no pairs."""

    exit_code = 4


class NonFiniteLoss(DistregError):
    """Training loss became NaN/Inf; carries the failing step index."""

    exit_code = 5

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")


class NonFinite(DistregError):
    """An input expected to be finite was NaN/Inf, or overflowed to it."""

    exit_code = 5


class UsageError(DistregError):
    """A command line or config file the CLI cannot run."""

    exit_code = 2


class CliIOError(DistregError):
    """An input the CLI needs is missing, or an output it may not write."""

    exit_code = 3


class EmptyResultGuard(DistregError):
    """``--require-nonempty`` hit an empty result."""

    exit_code = 4
