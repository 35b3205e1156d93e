"""Independent brute-force oracles and random-data generators for the tests.

Nothing here may call the code path it checks: the symmetry oracle searches
partitions directly from the definition, and the polygon enumerator walks
convex integral lattice paths instead of assembling mirror pairs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from newton_strata import EMPTY, NewtonPolygon, PELSlopeDatum, PlaceTower, SignatureDatum


def _surjections(n_items: int, k: int):
    for labels in product(range(k), repeat=n_items):
        if len(set(labels)) == k:
            yield labels


def partition_search_symmetric(datum: PELSlopeDatum) -> bool:
    """Exhaustive search for a partition into disjoint balanced components.

    Each place's distinct slopes are assigned component labels (every
    component must appear at every place); a labeling works when every
    component has one block size and one multiplicity throughout.
    """
    polys = [poly for _, poly in datum.polygons]
    counts = [len(p.parts) for p in polys]
    if min(counts) == 0:
        return False
    for k in range(1, min(counts) + 1):
        per_place = [list(_surjections(c, k)) for c in counts]
        for assignment in product(*per_place):
            if _assignment_balanced(polys, assignment, k):
                return True
    return False


def _assignment_balanced(polys, assignment, k: int) -> bool:
    for label in range(k):
        sizes = set()
        mults = set()
        for poly, labels in zip(polys, assignment):
            block = [poly.parts[i] for i, lab in enumerate(labels) if lab == label]
            sizes.add(len(block))
            mults.update(m for _, m in block)
        if len(sizes) != 1 or len(mults) != 1:
            return False
    return True


def mu_ordinary_by_slopes(sig: SignatureDatum) -> dict[str, NewtonPolygon]:
    """The mu-ordinary counting formula evaluated slope by slope, in O(d * n).

    The j-th slope (j = 1..d) is the fraction of the orbit's values exceeding
    d - j; equal slopes merge in the constructor.
    """
    result = {}
    for orbit in sig.orbits:
        size = len(orbit.f_values)
        slopes = [
            Fraction(sum(1 for v in orbit.f_values if v > sig.d - j), size)
            for j in range(1, sig.d + 1)
        ]
        result[orbit.name] = NewtonPolygon(tuple((s, 1) for s in slopes))
    return result


def breakpoints(poly: NewtonPolygon) -> list[tuple[Fraction, Fraction]]:
    """The convex path of ``poly`` as its vertex list from (0, 0)."""
    x, y = Fraction(0), Fraction(0)
    points = [(x, y)]
    for slope, mult in poly.parts:
        x, y = x + mult, y + slope * mult
        points.append((x, y))
    return points


def path_value(points, x) -> Fraction:
    """Evaluate the piecewise-linear path through ``points`` at abscissa ``x``."""
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    if points and x == points[0][0]:
        return points[0][1]
    raise ValueError(f"abscissa {x} outside path")


def path_dominates(upper, lower) -> bool:
    """True iff the piecewise-linear path ``upper`` is >= ``lower`` pointwise.

    Both paths must share first and last vertices.  Piecewise linearity means
    checking at the union of breakpoint abscissae suffices.
    """
    xs = sorted({x for x, _ in upper} | {x for x, _ in lower})
    return all(path_value(upper, x) >= path_value(lower, x) for x in xs)


def reference_leq(p: NewtonPolygon, q: NewtonPolygon) -> bool:
    """``p.leq(q)`` for polygons with equal endpoints, by Fraction interpolation."""
    return path_dominates(breakpoints(p), breakpoints(q))


def merge_parts(p: NewtonPolygon, i: int, j: int) -> NewtonPolygon:
    """Replace parts i < j by one part at their weighted-average slope.

    Preserves (height, dim) and always moves up the path, i.e. down the order.
    """
    (s1, m1), (s2, m2) = p.parts[i], p.parts[j]
    rest = [part for k, part in enumerate(p.parts) if k not in (i, j)]
    merged = ((s1 * m1 + s2 * m2) / (m1 + m2), m1 + m2)
    return NewtonPolygon(tuple(rest + [merged]))


def random_merge(rng: random.Random, p: NewtonPolygon) -> NewtonPolygon:
    """Merge random pairs of parts of ``p`` a random number of times (possibly none)."""
    for _ in range(rng.randint(0, len(p.parts) - 1)):
        i, j = sorted(rng.sample(range(len(p.parts)), 2))
        p = merge_parts(p, i, j)
    return p


def lattice_path_polygons(g: int) -> set[NewtonPolygon]:
    """Self-dual polygons of height 2g, dim g via convex integral lattice paths.

    Walks every path from (0, 0) to (2g, g) whose vertices are lattice points
    and whose segment slopes strictly increase within [0, 1], then filters for
    self-duality.  Strictly increasing slopes make each polygon arise from
    exactly one path.
    """
    if g == 0:
        return {EMPTY}
    width, height = 2 * g, g
    found: set[NewtonPolygon] = set()

    def extend(x: int, y: int, last_slope: Fraction, parts: list) -> None:
        if x == width:
            if y == height:
                poly = NewtonPolygon(tuple(parts))
                if poly == poly.dual():
                    found.add(poly)
            return
        for nx in range(x + 1, width + 1):
            for ny in range(y, height + 1):
                dx, dy = nx - x, ny - y
                if dy > dx:
                    continue
                slope = Fraction(dy, dx)
                if slope <= last_slope:
                    continue
                parts.append((slope, dx))
                extend(nx, ny, slope, parts)
                parts.pop()

    extend(0, 0, Fraction(-1), [])
    return found


SLOPE_UNIVERSE_DEN4 = sorted(
    {Fraction(a, b) for b in range(1, 5) for a in range(0, b + 1)}
)


def slope_universe(max_denominator: int) -> list[Fraction]:
    return sorted(
        {Fraction(a, b) for b in range(1, max_denominator + 1) for a in range(0, b + 1)}
    )


def random_polygon(
    rng: random.Random,
    max_parts: int = 5,
    max_mult: int = 6,
    max_denominator: int = 12,
    min_parts: int = 0,
) -> NewtonPolygon:
    universe = slope_universe(max_denominator)
    n = rng.randint(min_parts, max_parts)
    slopes = rng.sample(universe, n)
    return NewtonPolygon(tuple((s, rng.randint(1, max_mult)) for s in slopes))


def random_datum(
    rng: random.Random,
    max_places: int = 3,
    max_parts: int = 3,
    max_mult: int = 3,
    max_denominator: int = 4,
) -> PELSlopeDatum:
    universe = slope_universe(max_denominator)
    n_places = rng.randint(1, max_places)
    tower = PlaceTower.degenerate([f"p{i}" for i in range(n_places)])
    polygons = {}
    for i in range(n_places):
        n = rng.randint(1, max_parts)
        slopes = rng.sample(universe, n)
        polygons[f"p{i}"] = NewtonPolygon(
            tuple((s, rng.randint(1, max_mult)) for s in slopes)
        )
    return PELSlopeDatum.of(tower, polygons)


def random_symmetric_datum(
    rng: random.Random,
    max_places: int = 4,
    max_parts: int = 4,
    max_mult: int = 5,
    max_denominator: int = 8,
) -> PELSlopeDatum:
    """Symmetric by construction: one multiplicity multiset shuffled per place."""
    universe = slope_universe(max_denominator)
    n_places = rng.randint(1, max_places)
    n = rng.randint(1, max_parts)
    multiset = [rng.randint(1, max_mult) for _ in range(n)]
    tower = PlaceTower.degenerate([f"p{i}" for i in range(n_places)])
    polygons = {}
    for i in range(n_places):
        slopes = sorted(rng.sample(universe, n))
        mults = multiset[:]
        rng.shuffle(mults)
        polygons[f"p{i}"] = NewtonPolygon(tuple(zip(slopes, mults)))
    return PELSlopeDatum.of(tower, polygons)
