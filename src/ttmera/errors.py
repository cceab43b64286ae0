"""Exception types shared across the package.

Shape and argument problems raise plain ``ValueError`` with a message that
names the offending mode or dimension.  The classes below exist where the
command line needs to distinguish failure modes by exit code.
"""

__all__ = ["CapacityError", "NumericError", "ConfigError", "FormatError"]


class CapacityError(RuntimeError):
    """A dense materialization would exceed the configured entry budget."""


class NumericError(RuntimeError):
    """Non-finite values were produced or encountered mid-computation."""


class ConfigError(ValueError):
    """An experiment configuration is inconsistent or out of range."""


class FormatError(ValueError):
    """A binary artifact is malformed: bad magic, truncation, or bad sizes."""
