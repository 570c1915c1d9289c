"""Shared exception types."""
from __future__ import annotations


class BellcertError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(BellcertError, ValueError):
    """Operands have incompatible shapes or dimensions."""


class ValidationError(BellcertError, ValueError):
    """An object violates a structural invariant beyond tolerance."""


class ConfigurationError(BellcertError, ValueError):
    """Invalid or inconsistent configuration values."""


class FamilyError(BellcertError, ValueError):
    """An operation was applied to a key of the wrong function family."""


class InvalidImageError(BellcertError, ValueError):
    """An image is not in the range of the keyed function pair."""


class ProtocolStateError(BellcertError, RuntimeError):
    """A protocol message arrived out of order or in the wrong phase."""


class MalformedMessageError(BellcertError, ValueError):
    """A wire or transcript message fails schema validation."""


class AbortSessionError(BellcertError, RuntimeError):
    """A session was given up: the claw oracle failed to invert a fresh image,
    the peer closed the connection mid-session, or the session deadline passed."""
