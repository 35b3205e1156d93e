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
from functools import reduce
from heapq import heappop, heappush
from itertools import accumulate, compress, count
from math import lcm
from operator import and_, or_

from .errors import BoundExceeded, MixedEndpoints, NoUniqueExtreme, RangeError, SchemaError
from .errors import require_int
from .polygon import NewtonPolygon, path_heights

DEFAULT_MAX_G = 12

LITERAL = "literal"
TIMES_R = "times_r"


@dataclass(frozen=True)
class StrataPoset:
    """Finite poset of same-endpoint polygons with its extremes identified.

    The order is stored only as bitsets: bit j of ``up[i]`` is set iff node
    i <= node j (diagonal included); ``relation`` builds the pair set from them
    on each access.  ``cover_edges`` is the transitive reduction, small -> large.
    """

    nodes: tuple[NewtonPolygon, ...]
    up: tuple[int, ...]
    cover_edges: tuple[tuple[int, int], ...]
    basic_index: int
    ordinary_index: int

    def le(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    @property
    def relation(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, mask in enumerate(self.up) for j in _bits(mask))


def enumerate_siegel(g: int, max_g: int = DEFAULT_MAX_G) -> list[NewtonPolygon]:
    """All self-dual polygons of height 2g, dim g with integral breakpoints.

    Integral breakpoints force each part's multiplicity to be a multiple of
    its slope denominator, so the polygons are assembled from half-profiles of
    slopes below 1/2 (mirrored through the involution) plus an even block at
    slope 1/2.  Output is deduplicated and in canonical order: lexicographic
    on breakpoint lists, refined to a minimal-first topological order of the
    "lies on or above" relation (see :func:`_canonical_order`).
    """
    require_int(g, "g must be a nonnegative integer", 0)
    if g > max_g:
        raise BoundExceeded(f"g={g} exceeds the configured bound {max_g}")
    polygons = set()
    for mid_mult in range(0, 2 * g + 1, 2):
        per_side = (2 * g - mid_mult) // 2
        for profile in _half_profiles(per_side):
            parts = list(profile)
            if mid_mult:
                parts.append((Fraction(1, 2), mid_mult))
            parts.extend((1 - s, m) for s, m in profile)
            polygons.add(NewtonPolygon(tuple(parts)))
    return _canonical_order(polygons)


def _half_profiles(height: int) -> list[tuple[tuple[Fraction, int], ...]]:
    """Ascending multisets of (slope < 1/2, mult) with denominator | mult and total ``height``."""
    candidates = sorted(
        {Fraction(a, b) for b in range(1, height + 1) for a in range(b) if 2 * a < b}
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


def _vertices(nodes) -> list[tuple[tuple[int, int], ...]]:
    """Vertices after (0, 0) as (x, lcm * y), one lcm for all nodes; sorted as breakpoints are."""
    scale = lcm(*(s.denominator for node in nodes for s, _ in node.parts))
    return [
        tuple(zip(accumulate(node.multiplicities()),
                  accumulate(s.numerator * (scale // s.denominator) * m for s, m in node.parts)))
        for node in nodes
    ]


def _up_sets(nodes) -> tuple[list[int], list[int]]:
    """Bitsets ``up[i]`` = {j : nodes[i] <= nodes[j]} and ``down[i]`` = {j : nodes[j] <= nodes[i]}.

    The one place nodes are compared.  Each node (all share (height, dim)) is
    swept once on the union of all vertex abscissae, heights scaled to integers;
    per grid column, ``up[i]`` keeps the nodes no higher than i, ``down[i]`` those no lower.
    """
    grid = sorted({x for node in nodes for x in accumulate(node.multiplicities())})
    scale = lcm(*(s.denominator for node in nodes for s, _ in node.parts))
    everyone = (1 << len(nodes)) - 1
    up, down = [everyone] * len(nodes), [everyone] * len(nodes)
    for column in zip(*(path_heights(node.parts, grid, scale) for node in nodes)):
        no_higher, no_lower, mask = {}, {}, 0
        for i in sorted(range(len(nodes)), key=column.__getitem__):
            no_lower.setdefault(column[i], everyone ^ mask)
            mask |= 1 << i
            no_higher[column[i]] = mask
        up = [u & no_higher[y] for u, y in zip(up, column)]
        down = [d & no_lower[y] for d, y in zip(down, column)]
    return up, down


_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> list[int]:
    """Ascending indices of the set bits of ``mask``, selected by its binary digits, low first."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BINARY_DIGITS)))


def _canonical_order(polygons) -> list[NewtonPolygon]:
    """Lexicographic order on breakpoints, refined by Kahn's algorithm on :func:`_up_sets`.

    A min-heap places the smallest lexicographic index among the ready nodes
    next; a node waits for each of its strict predecessors.
    """
    distinct = list(set(polygons))
    nodes = [node for _, node in sorted(zip(_vertices(distinct), distinct))]
    up, down = _up_sets(nodes)
    waiting = [mask.bit_count() - 1 for mask in down]
    ready = [j for j, w in enumerate(waiting) if not w]
    order = []
    while ready:
        i = heappop(ready)
        order.append(nodes[i])
        for j in _bits(up[i] ^ (1 << i)):
            waiting[j] -= 1
            if not waiting[j]:
                heappush(ready, j)
    return order


def build_poset(nodes) -> StrataPoset:
    """Compute the order bitsets, covering edges, and extremes for ``nodes``.

    Nodes must be nonempty and share (height, dim); duplicates collapse.
    Raises if the minimum or maximum is not unique.  The covers of i are its
    strict successors that succeed no other strict successor of i.
    """
    deduped = list(dict.fromkeys(nodes))
    if not deduped:
        raise SchemaError("poset needs at least one node")
    if len({vertices[-1:] for vertices in _vertices(deduped)}) != 1:
        endpoints = sorted({(p.height, p.dim) for p in deduped})
        raise MixedEndpoints(f"nodes mix endpoints: {endpoints}")
    up, _ = _up_sets(deduped)
    minima = [i for i, mask in enumerate(up) if mask == (1 << len(up)) - 1]
    maxima = _bits(reduce(and_, up))
    if len(minima) != 1 or len(maxima) != 1:
        raise NoUniqueExtreme(f"found {len(minima)} minima and {len(maxima)} maxima")
    strict = [mask ^ (1 << i) for i, mask in enumerate(up)]
    covers = tuple(
        (i, j)
        for i, mask in enumerate(strict)
        for j in _bits(mask & ~reduce(or_, map(strict.__getitem__, _bits(mask)), 0))
    )
    return StrataPoset(tuple(deduped), tuple(up), covers, minima[0], maxima[0])


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
