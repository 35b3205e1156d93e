"""Stratification posets of symmetric Newton polygons.

Enumeration covers the principally polarized case: all self-dual polygons with
height 2g, dim g, and integral breakpoints (the classical admissibility
criterion, adopted here as the definition).  The poset carries the "lies above
= smaller" order, so the straight-line polygon is basic (minimal) and the
most-broken one ordinary (maximal).

Also provides the one-parameter unitary family N(r) + (1/2)^(n-2r), in both
the literal exponent reading and the times_r reading (neither normalization is
forced by the source description, so both are exposed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import BoundExceeded, MixedEndpoints, NoUniqueExtreme, RangeError, SchemaError
from .errors import require_int
from .polygon import EMPTY, NewtonPolygon, path_value

DEFAULT_MAX_G = 12

LITERAL = "literal"
TIMES_R = "times_r"


@dataclass(frozen=True)
class StrataPoset:
    """Finite poset of same-endpoint polygons with its extremes identified.

    ``relation`` holds every ordered pair (i, j) with node i <= node j,
    including the diagonal.  ``cover_edges`` is the transitive reduction,
    oriented small -> large.
    """

    nodes: tuple[NewtonPolygon, ...]
    relation: frozenset[tuple[int, int]]
    cover_edges: tuple[tuple[int, int], ...]
    basic_index: int
    ordinary_index: int

    def le(self, i: int, j: int) -> bool:
        return (i, j) in self.relation


def enumerate_siegel(g: int, max_g: int = DEFAULT_MAX_G) -> list[NewtonPolygon]:
    """All self-dual polygons of height 2g, dim g with integral breakpoints.

    Integral breakpoints force each part's multiplicity to be a multiple of
    its slope denominator, so the polygons are assembled from half-profiles of
    slopes below 1/2 (mirrored through the involution) plus an even block at
    slope 1/2.  Output is deduplicated and in canonical order: lexicographic
    on breakpoint lists, refined to a minimal-first topological order.
    """
    require_int(g, "g must be a nonnegative integer", 0)
    if g > max_g:
        raise BoundExceeded(f"g={g} exceeds the configured bound {max_g}")
    if g == 0:
        return [EMPTY]
    polygons = set()
    half = Fraction(1, 2)
    for mid_mult in range(0, 2 * g + 1, 2):
        per_side = (2 * g - mid_mult) // 2
        for profile in _half_profiles(per_side):
            parts = list(profile)
            if mid_mult:
                parts.append((half, mid_mult))
            parts.extend((1 - s, m) for s, m in profile)
            polygons.add(NewtonPolygon(tuple(parts)))
    return _canonical_order(polygons)


def _half_profiles(height: int) -> list[tuple[tuple[Fraction, int], ...]]:
    """Ascending multisets of (slope < 1/2, mult) with denominator | mult and total ``height``."""
    half = Fraction(1, 2)
    candidates = sorted(
        {
            Fraction(a, b)
            for b in range(1, height + 1)
            for a in range(0, b)
            if Fraction(a, b) < half
        }
    )
    profiles: list[tuple[tuple[Fraction, int], ...]] = []

    def grow(start: int, remaining: int, acc: list[tuple[Fraction, int]]) -> None:
        if remaining == 0:
            profiles.append(tuple(acc))
            return
        for idx in range(start, len(candidates)):
            slope = candidates[idx]
            step = slope.denominator
            mult = step
            while mult <= remaining:
                acc.append((slope, mult))
                grow(idx + 1, remaining - mult, acc)
                acc.pop()
                mult += step

    grow(0, height, [])
    return profiles


def _dominance_table(paths) -> list[tuple[int, ...]]:
    """Integer-scaled path values on the common breakpoint grid.

    All breakpoints of every path are grid points, so two paths compare
    pointwise iff their value vectors compare componentwise.  Values are
    rescaled to integers to keep the quadratic comparison pass cheap.
    """
    grid = sorted({x for path in paths for x, _ in path})
    rows = [[path_value(path, x) for x in grid] for path in paths]
    scale = lcm(1, *(v.denominator for row in rows for v in row))
    return [tuple(int(v * scale) for v in row) for row in rows]


def _dominates(row_hi: tuple[int, ...], row_lo: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(row_hi, row_lo))


def _canonical_order(polygons) -> list[NewtonPolygon]:
    nodes = sorted(set(polygons), key=lambda p: p.measures().breakpoints)
    table = _dominance_table([p.measures().breakpoints for p in nodes])
    n = len(nodes)
    preds = [
        {j for j in range(n) if j != i and _dominates(table[j], table[i])}
        for i in range(n)
    ]
    done: set[int] = set()
    order: list[int] = []
    while len(order) < n:
        ready = min(i for i in range(n) if i not in done and preds[i] <= done)
        order.append(ready)
        done.add(ready)
    return [nodes[i] for i in order]


def build_poset(nodes) -> StrataPoset:
    """Compute the order relation, covering edges, and extremes for ``nodes``.

    Nodes must be nonempty and share (height, dim); duplicates collapse.
    Raises if the minimum or maximum is not unique.
    """
    deduped: list[NewtonPolygon] = []
    for node in nodes:
        if node not in deduped:
            deduped.append(node)
    if not deduped:
        raise SchemaError("poset needs at least one node")
    measures = [p.measures() for p in deduped]
    endpoints = {(m.height, m.dim) for m in measures}
    if len(endpoints) != 1:
        raise MixedEndpoints(f"nodes mix endpoints: {sorted(endpoints)}")
    n = len(deduped)
    table = _dominance_table([m.breakpoints for m in measures])
    relation = frozenset(
        (i, j)
        for i in range(n)
        for j in range(n)
        if _dominates(table[i], table[j])
    )
    minima = [i for i in range(n) if all((i, j) in relation for j in range(n))]
    maxima = [j for j in range(n) if all((i, j) in relation for i in range(n))]
    if len(minima) != 1 or len(maxima) != 1:
        raise NoUniqueExtreme(
            f"found {len(minima)} minima and {len(maxima)} maxima"
        )
    strict = {(i, j) for (i, j) in relation if i != j}
    covers = tuple(
        sorted(
            (i, j)
            for (i, j) in strict
            if not any((i, k) in strict and (k, j) in strict for k in range(n))
        )
    )
    return StrataPoset(
        nodes=tuple(deduped),
        relation=relation,
        cover_edges=covers,
        basic_index=minima[0],
        ordinary_index=maxima[0],
    )


def bueltel_wedhorn(n: int, r: int, scaling: str = LITERAL) -> NewtonPolygon:
    """The admissible polygon N(r) + (1/2)^(n-2r) of the signature-(1, n-1) family.

    N(r) is empty for r = 0 and otherwise carries the slope pair
    1/2 -+ 1/(2r), with exponent 1 (r even) or 2 (r odd).  ``literal`` reads
    the exponents as multiplicities; ``times_r`` multiplies them by r, the
    reading under which the family has three equal-multiplicity slopes when
    n = 3r (r even) or n = 4r (r odd).
    """
    require_int(n, "n must be a positive integer", 1)
    require_int(r, "r must be a nonnegative integer", 0)
    if scaling not in (LITERAL, TIMES_R):
        raise SchemaError(f"scaling must be '{LITERAL}' or '{TIMES_R}', got {scaling!r}")
    if 2 * r > n:
        raise RangeError(f"r={r} exceeds n/2 for n={n}")
    parts: list[tuple[Fraction, int]] = []
    if r > 0:
        offset = Fraction(1, 2 * r)
        exponent = 1 if r % 2 == 0 else 2
        if scaling == TIMES_R:
            exponent *= r
        parts.append((Fraction(1, 2) - offset, exponent))
        parts.append((Fraction(1, 2) + offset, exponent))
    if n - 2 * r > 0:
        parts.append((Fraction(1, 2), n - 2 * r))
    return NewtonPolygon(tuple(parts))


def to_dot(poset: StrataPoset) -> str:
    """Byte-stable DOT rendering: one node per polygon, edges small -> large."""
    lines = ["digraph strata {"]
    for i, node in enumerate(poset.nodes):
        lines.append(f'  n{i} [label="{node.exponent_str()}"];')
    for a, b in poset.cover_edges:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
