"""Exception hierarchy shared by all isoflow modules."""


class IsoflowError(Exception):
    """Base class for all isoflow errors."""


class InvalidInputError(IsoflowError, ValueError):
    """A value violates an operation's precondition (non-finite, wrong range, ...)."""


class SingularParallelError(IsoflowError):
    """The parallel offset hit a focal point: the denominator c - kappa*s vanished."""

    def __init__(self, message, xi=None, kappa=None):
        super().__init__(message)
        self.xi = xi
        self.kappa = kappa


class InvalidFrameError(IsoflowError, ValueError):
    """An ambient (position, normal) pair violates the space-form constraints."""


class FamilyMismatchError(IsoflowError, ValueError):
    """A surface was passed to a resolver for a different family."""


class UnsupportedEmbeddingError(IsoflowError):
    """The family has no explicit ambient embedding available."""


class IntegrationFailureError(IsoflowError):
    """The ODE integrator gave up before the end of its run, e.g. on meeting the singularity."""


class NumericalRangeError(IsoflowError):
    """A valid input drove a result out of double range: to inf or nan, or to a zero divisor."""


class AnalysisIncompleteError(IsoflowError):
    """A flow profile does not carry enough data to classify its limit."""
