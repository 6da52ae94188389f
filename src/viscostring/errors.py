"""Exception taxonomy shared by all modules.

The CLI maps these onto process exit codes: ConfigError -> 2,
NumericalFailure -> 3, DataFormatError -> 4.
"""

__all__ = [
    "GridMismatchError",
    "KernelValidationError",
    "ConfigError",
    "DataFormatError",
    "NumericalFailure",
]


class GridMismatchError(ValueError):
    """Operands sampled on incompatible grids."""


class KernelValidationError(ValueError):
    """Relaxation kernel violates a structural requirement (e.g. N(0) != 1)."""


class ConfigError(ValueError):
    """Invalid or unknown run-configuration entry."""


class DataFormatError(ValueError):
    """On-disk bundle violates the manifest/CSV contract."""


class NumericalFailure(RuntimeError):
    """A solver failed to produce a usable result (degenerate diagonal,
    diverging correction sweep, non-PSD Gram, ...)."""
