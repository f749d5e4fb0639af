"""Exception types shared across the package."""


class HypogradError(Exception):
    """Base class for package errors."""


class ConfigurationError(HypogradError):
    """Invalid model/experiment declaration (bad dimensions, missing keys)."""


class NotApplicableError(HypogradError):
    """A construction's structural precondition fails (e.g. rank deficiency)."""


class MethodMisuseError(HypogradError):
    """An estimator was called on a model/function it does not qualify for."""


class RunDegenerateError(HypogradError):
    """Too many paths rejected; the whole run is unreliable."""
