"""Exception hierarchy shared across the package."""


class HstarkitError(Exception):
    """Base class for all package errors."""


class NotASimplexError(HstarkitError):
    """Vertex list is affinely dependent."""


class DimensionMismatchError(HstarkitError):
    """Vertex or matrix dimensions do not match the ambient space."""


class SingularMatrixError(HstarkitError):
    """A square matrix required to be nonsingular has determinant zero."""


class VolumeTooLargeError(HstarkitError):
    """Normalized volume exceeds the configured enumeration cap; the message
    names the stage, the volume and the cap."""

    def __init__(self, volume: int, cap: int, stage: str):
        super().__init__(f"{stage}: normalized volume {volume} exceeds cap {cap}")
        self.volume = volume
        self.cap = cap
        self.stage = stage


class ScanTooLargeError(HstarkitError):
    """A scan's bounding box holds more candidate points than the scan cap;
    the message names the stage, the candidate count and the cap."""

    def __init__(self, candidates: int, cap: int, stage: str):
        super().__init__(f"{stage}: {candidates} box candidates exceed scan cap {cap}")
        self.candidates = candidates
        self.cap = cap
        self.stage = stage


class TooManyFacesError(HstarkitError):
    """Face enumeration refused: 2^(n+1) would be excessive."""


class HypothesisNotMetError(HstarkitError):
    """A checker's stated hypothesis fails for the given input."""


class InvalidParametersError(HstarkitError):
    """Family generator called with parameters outside its documented range."""


class InternalCheckError(HstarkitError):
    """A proved identity failed on computed data; indicates a bug."""


class DocumentError(HstarkitError):
    """A JSON document does not conform to the expected schema."""
