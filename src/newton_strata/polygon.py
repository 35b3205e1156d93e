"""Exact Newton-polygon arithmetic.

A Newton polygon is a canonical multiset of (slope, multiplicity) pairs with
rational slopes in [0, 1], or equivalently the convex path from (0, 0) whose
segments carry those slopes in ascending order.  Everything here is exact
rational arithmetic on :class:`fractions.Fraction`; there is no floating-point
mode.

The partial order is oriented so that "lies on or above = smaller": the
straight-line (basic) polygon is the unique minimum among polygons with the
same endpoints, and the most-broken (ordinary) polygon is the maximum.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    IncomparableEndpoints,
    NonPositiveMultiplicity,
    PeriodMismatch,
    SchemaError,
    SlopeOutOfRange,
    require_int,
)

# A slope is just a Fraction that has passed as_slope().
Slope = Fraction

_SLOPE_RE = re.compile(r"^(0|[1-9][0-9]*)(/([1-9][0-9]*))?$")


def as_slope(value) -> Fraction:
    """Coerce ``value`` to an exact rational and check it lies in [0, 1]."""
    try:
        s = Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a rational slope: {value!r}") from exc
    if s < 0 or s > 1:
        raise SlopeOutOfRange(f"slope {s} outside [0, 1]")
    return s


def parse_slope(text: str) -> Fraction:
    """Parse the wire form of a slope: ``"a"`` or ``"a/b"`` with a, b decimal."""
    if not isinstance(text, str) or not _SLOPE_RE.match(text):
        raise SchemaError(f"slope string must look like 'a' or 'a/b', got {text!r}")
    return as_slope(text)


@dataclass(frozen=True)
class PolygonMeasures:
    """Endpoint data and the convex path traced by a polygon.

    ``breakpoints`` starts at (0, 0), appends one vertex per part, and ends at
    (height, dim).  The path is convex because slopes ascend.
    """

    height: int
    dim: Fraction
    breakpoints: tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class NewtonPolygon:
    """Canonical multiset of (slope, multiplicity) pairs.

    The constructor normalizes: slopes are reduced and validated, equal slopes
    merge with summed multiplicities, and parts are sorted by ascending slope.
    The empty polygon is a legal value.  Instances are immutable and hashable.
    """

    parts: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        merged: dict[Fraction, int] = {}
        for entry in self.parts:
            try:
                raw_slope, mult = entry
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"polygon part must be a (slope, mult) pair: {entry!r}") from exc
            slope = as_slope(raw_slope)
            require_int(mult, "multiplicity must be an integer")
            if mult < 1:
                raise NonPositiveMultiplicity(f"multiplicity {mult} for slope {slope}")
            merged[slope] = merged.get(slope, 0) + mult
        canonical = tuple(sorted(merged.items()))
        object.__setattr__(self, "parts", canonical)

    # -- basic views ---------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.parts

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(s for s, _ in self.parts)

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.parts)

    @property
    def height(self) -> int:
        return sum(m for _, m in self.parts)

    @property
    def dim(self) -> Fraction:
        return sum((s * m for s, m in self.parts), Fraction(0))

    def measures(self) -> PolygonMeasures:
        """Height, dim, and the convex breakpoint path from (0, 0)."""
        x, y = Fraction(0), Fraction(0)
        points = [(x, y)]
        for slope, mult in self.parts:
            x += mult
            y += slope * mult
            points.append((x, y))
        return PolygonMeasures(height=int(x), dim=y, breakpoints=tuple(points))

    # -- algebra -------------------------------------------------------------

    def amalgamate(self, other: "NewtonPolygon") -> "NewtonPolygon":
        """Multiset union; equal slopes merge, height and dim are additive."""
        return NewtonPolygon(self.parts + other.parts)

    def __add__(self, other: "NewtonPolygon") -> "NewtonPolygon":
        return self.amalgamate(other)

    def dual(self) -> "NewtonPolygon":
        """The polarization involution sending each slope s to 1 - s."""
        return NewtonPolygon(tuple((1 - s, m) for s, m in self.parts))

    def leq(self, other: "NewtonPolygon") -> bool:
        """Partial order: True iff this path lies pointwise on or above ``other``.

        Only defined for polygons with equal height and dim; raises
        :class:`IncomparableEndpoints` otherwise.
        """
        a, b = self.measures(), other.measures()
        if a.height != b.height or a.dim != b.dim:
            raise IncomparableEndpoints(
                f"endpoints ({a.height}, {a.dim}) vs ({b.height}, {b.dim})"
            )
        return path_dominates(a.breakpoints, b.breakpoints)

    # -- rendering and wire form ----------------------------------------------

    def exponent_str(self) -> str:
        """Exponent notation, e.g. ``(0)^1 (1/2)^3``; the empty polygon is ∅."""
        if not self.parts:
            return "∅"
        return " ".join(f"({s})^{m}" for s, m in self.parts)

    def to_json(self) -> list:
        return [[str(s), m] for s, m in self.parts]

    @classmethod
    def from_json(cls, data) -> "NewtonPolygon":
        if not isinstance(data, list):
            raise SchemaError("polygon must be a JSON array of [slope, multiplicity] pairs")
        parts = []
        for entry in data:
            if not isinstance(entry, list) or len(entry) != 2:
                raise SchemaError(f"polygon entry must be a [slope, multiplicity] pair: {entry!r}")
            slope_text, mult = entry
            parts.append((parse_slope(slope_text), mult))
        return cls(tuple(parts))

    def __str__(self) -> str:
        return self.exponent_str()


EMPTY = NewtonPolygon(())


def path_dominates(
    upper: Sequence[tuple[Fraction, Fraction]],
    lower: Sequence[tuple[Fraction, Fraction]],
) -> bool:
    """True iff the piecewise-linear path ``upper`` is >= ``lower`` pointwise.

    Both paths must share first and last vertices.  Piecewise linearity means
    checking at the union of breakpoint abscissae suffices.
    """
    xs = sorted({x for x, _ in upper} | {x for x, _ in lower})
    return all(path_value(upper, x) >= path_value(lower, x) for x in xs)


def path_value(points: Sequence[tuple[Fraction, Fraction]], x: Fraction) -> Fraction:
    """Evaluate the piecewise-linear path at abscissa ``x``."""
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    if points and x == points[0][0]:
        return points[0][1]
    raise IncomparableEndpoints(f"abscissa {x} outside path")


def newton_point_average(
    mu: Sequence, sigma: Sequence[int], r: int
) -> tuple[Fraction, ...]:
    """Average the r permuted copies of ``mu`` under the coordinate action of ``sigma``.

    ``sigma`` acts by (sigma . v)[i] = v[sigma[i]].  The power sigma^r must fix
    ``mu`` as a vector (not necessarily as a permutation); otherwise
    :class:`PeriodMismatch` is raised.  Coordinates are unconstrained exact
    rationals.
    """
    vec = tuple(Fraction(v) for v in mu)
    n = len(vec)
    if any(isinstance(i, bool) or not isinstance(i, int) for i in sigma) or sorted(
        sigma
    ) != list(range(n)):
        raise SchemaError(f"sigma must be a permutation of 0..{n - 1}")
    require_int(r, "period r must be a positive integer", 1)

    def apply(v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        return tuple(v[sigma[i]] for i in range(n))

    copies = [vec]
    for _ in range(r - 1):
        copies.append(apply(copies[-1]))
    if apply(copies[-1]) != vec:
        raise PeriodMismatch(f"sigma^{r} does not fix the input vector")
    return tuple(sum(c[i] for c in copies) / r for i in range(n))
