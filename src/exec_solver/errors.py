"""Exception hierarchy shared by all modules."""


class ExecSolverError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ExecSolverError):
    """Invalid argument: bad parameter range, length mismatch, grid mismatch."""


class ConfigError(ExecSolverError):
    """Invalid or unparseable run configuration."""


class NumericError(ExecSolverError):
    """Numerical failure: singular system, non-finite result."""


class UnsupportedSignalError(ExecSolverError):
    """Signal model cannot provide the requested quantity."""


class ModelError(ExecSolverError):
    """Model misspecification, e.g. a non-admissible kernel making the
    discrete objective lose concavity."""
