"""Exception types shared across the library."""


class StructuralError(ValueError):
    """Inputs are structurally invalid: wrong shapes, empty mixtures, bad schedules."""


class DomainError(ValueError):
    """A scalar argument lies outside the domain where the operation is defined."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values."""


class ConfigError(ValueError):
    """An experiment configuration is invalid."""


class ScheduleOverrun(RuntimeError):
    """Not raised: a schedule that would exhaust a chunk fails at construction instead."""
