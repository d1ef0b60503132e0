"""Exception hierarchy shared across the package."""


class PenflowError(Exception):
    """Base class for all package-specific errors."""


class CorruptionError(PenflowError):
    """A field contains NaN or Inf samples."""


class SymmetryError(PenflowError):
    """Spectral coefficients violate Hermitian symmetry beyond tolerance."""


class ArityError(PenflowError):
    """Wrong component count or mismatched grids."""


class GaugeError(PenflowError):
    """Poisson right-hand side has a nonzero mean mode."""


class RegimeError(PenflowError):
    """Thermodynamic state left the valid regime (e.g. nonpositive pressure)."""


class DataError(PenflowError):
    """Missing snapshot or empty series where data is required."""


class ConfigError(PenflowError):
    """Invalid configuration.  Carries the full list of problems found.

    fields runs parallel to issues: the setting each issue is about, or
    None where no single setting applies.
    """

    def __init__(self, issues, fields=None):
        if isinstance(issues, str):
            issues = [issues]
        self.issues = list(issues)
        self.fields = list(fields) if fields is not None else [None] * len(self.issues)
        super().__init__("; ".join(self.issues))


def check_rules(*rules) -> None:
    """Raise one ConfigError naming every failed (field, passed, message) rule."""
    failed = [(name, message) for name, passed, message in rules if not passed]
    if failed:
        raise ConfigError([m for _, m in failed], [f for f, _ in failed])


class DivergenceError(PenflowError):
    """NaN/Inf appeared during time integration (numerical blow-up)."""

    def __init__(self, time, message=None):
        self.time = time
        super().__init__(message or f"numerical divergence at t = {time:.6g}")
