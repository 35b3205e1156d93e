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
from itertools import accumulate
from math import lcm
from typing import Sequence

from .errors import (
    IncomparableEndpoints,
    NonPositiveMultiplicity,
    PeriodMismatch,
    SchemaError,
    SlopeOutOfRange,
    require_int,
)

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

        Both paths are swept by :func:`path_heights` on the union of their vertex
        abscissae; the comparison stops at the first point where this path lies
        below, and the last point gives the endpoint check.  Raises
        :class:`IncomparableEndpoints` unless height and dim are equal.
        """
        mine = list(accumulate(self.multiplicities()))
        theirs = list(accumulate(other.multiplicities()))
        if mine[-1:] == theirs[-1:]:  # equal heights
            grid = sorted({*mine, *theirs})
            scale = lcm(*(s.denominator for s, _ in self.parts + other.parts))
            pairs = list(zip(*(path_heights(p.parts, grid, scale) for p in (self, other))))
            if not pairs or pairs[-1][0] == pairs[-1][1]:  # equal dims
                return all(a >= b for a, b in pairs)
        raise IncomparableEndpoints(
            f"endpoints ({self.height}, {self.dim}) vs ({other.height}, {other.dim})"
        )

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


def path_heights(parts, xs, scale: int):
    """Yield ``scale`` times the path's height at each abscissa of ``xs``.

    ``xs`` is an ascending grid of integers in [0, height] and ``scale`` a
    multiple of every slope denominator, so every value is an int.  One pass
    over ``parts`` interpolates along the slope as y0 + slope * (x - x0), in
    O(len(parts) + len(xs)) work however large the height.
    """
    pending = iter(parts)
    x0 = x1 = y0 = rise = 0
    for x in xs:
        while x > x1:
            y0 += rise * (x1 - x0)
            x0 = x1
            slope, mult = next(pending)
            rise = slope.numerator * (scale // slope.denominator)
            x1 += mult
        yield y0 + rise * (x - x0)


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
