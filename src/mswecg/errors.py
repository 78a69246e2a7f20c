"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands or buffers have incompatible shapes."""


class AdmissibilityError(ValueError):
    """Patch/window geometry violates a divisibility or range condition."""


class ConfigError(ValueError):
    """A configuration value is missing, unknown, or out of range."""


class DataError(ValueError):
    """A dataset file or record is malformed."""


class GraphError(RuntimeError):
    """Misuse of the autodiff graph (non-scalar loss, repeated backward, ...)."""


class NumericError(RuntimeError):
    """A numeric abort, e.g. a non-finite training loss."""
