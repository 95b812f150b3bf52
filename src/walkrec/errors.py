"""Exception types shared across the package."""


class WalkrecError(Exception):
    """Base class for package-specific errors."""


class ParseError(WalkrecError):
    """A data file line could not be parsed."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class EmptyDatasetError(WalkrecError):
    """No usable interactions remain after loading or filtering."""


class ConfigError(WalkrecError, ValueError):
    """Invalid or inconsistent run configuration (also a ValueError)."""


class GuardError(WalkrecError):
    """A size guard refused an operation intended for small instances."""


class EstimatorError(WalkrecError):
    """A sampling distribution cannot support an unbiased estimator."""
