"""Exception types shared across the package."""


class UatrackError(Exception):
    """Base class for all package-specific errors."""


class DegenerateCorrespondence(UatrackError):
    """Affine fit is underdetermined (e.g. collinear source points)."""


class TooLarge(UatrackError):
    """Brute-force matching refused: problem exceeds the enumeration bound."""


class EmptyHistory(UatrackError):
    """Tracklet uncertainty requested for an empty delta history."""


class DimensionMismatch(UatrackError):
    """Embedding vectors of inconsistent length."""


class OutOfOrderFrame(UatrackError):
    """Frames must be presented with strictly increasing indices."""


class NoCandidates(UatrackError):
    """No tracklet is present at the requested frame."""


class NoHistory(UatrackError):
    """Tracklet has no record strictly before the requested frame."""


class DegenerateBox(UatrackError):
    """Bounding box with non-positive or non-finite size."""


class InsufficientData(UatrackError):
    """Training requires at least two pseudo-tracklets."""


class InvalidConfig(UatrackError):
    """Configuration value out of range; message names the field."""


class MissingGroundTruth(UatrackError):
    """A (frame, det_index) pair could not be resolved to ground truth."""


class ParseError(UatrackError):
    """Malformed input line; message carries the line number."""


class MissingEmbedding(UatrackError):
    """A detection has no embedding row."""


class IoFailure(UatrackError):
    """Filesystem write failed."""
