"""Exception hierarchy shared by all isoflow modules."""


class IsoflowError(Exception):
    """Base class for all isoflow errors."""


class InvalidInputError(IsoflowError, ValueError):
    """A value violates an operation's precondition (non-finite, wrong range, ...)."""


class SingularParallelError(IsoflowError):
    """The parallel offset hit a focal point: the denominator c - kappa*s vanished."""


class InvalidFrameError(IsoflowError, ValueError):
    """An ambient (position, normal) pair violates the space-form constraints."""


class UnsupportedEmbeddingError(IsoflowError):
    """The family has no explicit ambient embedding available."""


class IntegrationFailureError(IsoflowError):
    """The ODE integrator gave up before the end of its run, e.g. on meeting the singularity."""


class NumericalRangeError(IsoflowError):
    """A valid input drove a result out of double range: to inf or nan, or to a zero divisor."""


class AnalysisIncompleteError(IsoflowError):
    """A flow profile does not carry enough data to classify its limit."""
