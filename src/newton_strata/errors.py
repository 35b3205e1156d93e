"""Rejected-input conditions raised across the library.

Everything here derives from :class:`SlopeDataError`, which the CLI maps to
exit code 2 (bad input).  Anything else escaping a command handler is a bug
and maps to exit code 1.
"""


class SlopeDataError(ValueError):
    """Base class for every rejected-input condition."""


class SchemaError(SlopeDataError):
    """Malformed document: wrong JSON shape, unknown key, bad name, bad flag."""


class SlopeOutOfRange(SlopeDataError):
    """A slope fell outside [0, 1]."""


class NonPositiveMultiplicity(SlopeDataError):
    """A slope multiplicity was < 1."""


class IncomparableEndpoints(SlopeDataError):
    """Polygons compared under the partial order have different endpoints."""


class PeriodMismatch(SlopeDataError):
    """The permutation power does not fix the cocharacter vector."""


class NotCM(SlopeDataError):
    """Operation requires a tower with a genuine quadratic extension (cm=true)."""


class NonIntegralMultiplicity(SlopeDataError):
    """Dimension data does not divide evenly into a slope multiplicity."""


class NotSymmetric(SlopeDataError):
    """Decomposition requested for slope data that is not symmetric."""


class PreconditionNotHypersymmetric(SlopeDataError):
    """Subfield transfer requested for data admitting no hypersymmetric point."""


class BoundExceeded(SlopeDataError):
    """Enumeration size parameter above the configured bound."""


class MixedEndpoints(SlopeDataError):
    """Poset construction received polygons with unequal (height, dim)."""


class NoUniqueExtreme(SlopeDataError):
    """Poset construction found no unique minimum or maximum."""


class RangeError(SlopeDataError):
    """Polygon-family parameter outside its admissible range."""


class SlopesDoNotPair(SlopeDataError):
    """Conjugate place slopes do not sum to 1."""


def require_int(value, label: str, minimum: int | None = None) -> int:
    """Return ``value`` if it is an int (never a bool) and at least ``minimum``.

    Otherwise raise :class:`SchemaError` with ``"{label}, got {value!r}"``, so
    ``label`` states the requirement, e.g. ``"d must be a positive integer"``.
    """
    if isinstance(value, bool) or not isinstance(value, int) or (
        minimum is not None and value < minimum
    ):
        raise SchemaError(f"{label}, got {value!r}")
    return value
