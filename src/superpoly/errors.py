"""Exceptions raised by the engine.

Verification *findings* (a nonzero residual, a failed certification) are not
exceptions: they are reported in result records so batch runs can aggregate
them.  Exceptions are reserved for misuse and for data that violates an
operation's preconditions.
"""


class SuperpolyError(Exception):
    """Base class for all engine errors."""


class ParameterError(SuperpolyError):
    """Parameters outside the valid domain (r >= 2, m >= 2, -2r <= j0 <= -1, ...)."""


class SupportError(SuperpolyError):
    """A three-term recurrence coefficient is asked for where its denominator vanishes."""


class AlignmentError(SuperpolyError):
    """No index shift in {0, r, 2r} certifies against the fourth-order operator."""


class TruncationError(SuperpolyError):
    """A series operation needs more generated members than are available."""


class FitError(SuperpolyError):
    """An exact linear fit is degenerate or the fitting system is underdetermined."""
