"""Exception types shared across the solvers and the CLI."""


class DomainError(ValueError):
    """A state or query point lies outside the admissible region."""


class NonPositiveCoefficient(ValueError):
    """A coefficient field failed the positivity audit on the domain box."""


class ConstraintBreach(RuntimeError):
    """A boundary trajectory touched its hard constraint surface."""


class StepError(RuntimeError):
    """A step at the shortest allowed length still missed the per-step error target."""


class NonConvergence(RuntimeError):
    """A block of a reflection region's sweep is singular or not finite."""


class UnderdeterminedRegion(ValueError):
    """Boundary data does not pin down the reflection-region coefficients."""


class ConfigError(ValueError):
    """A run configuration file is malformed or inconsistent."""


class ResolutionWarning(UserWarning):
    """Grid resolution is suspect, e.g. sign changes in adjacent cells."""
