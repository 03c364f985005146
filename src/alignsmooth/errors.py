"""Exception types shared across the toolkit."""


class AlignmentToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class DataFormatError(AlignmentToolkitError):
    """A corpus, annotation, or model file violates its expected format."""


class UnknownTokenError(AlignmentToolkitError, LookupError):
    """A token (or token id) cannot be resolved against a vocabulary."""


class TuningError(AlignmentToolkitError):
    """The scale search could not proceed (e.g. objective never finite).

    ``lam`` names the offending candidate when one exists.
    """

    def __init__(self, message, lam=None):
        super().__init__(message)
        self.lam = lam
