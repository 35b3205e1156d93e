"""Facts the benchmark checks program output against.

Nothing here imports ``newton_strata``: every expected answer is computed
from the generated input or from a closed form, never by the code under
measurement.  Polygons are plain ``{Fraction: multiplicity}`` dicts.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

HALF = Fraction(1, 2)


def slope_text(s: Fraction) -> str:
    return str(s.numerator) if s.denominator == 1 else f"{s.numerator}/{s.denominator}"


def poly_json(poly: dict) -> list:
    """Canonical wire form: ascending slopes, reduced, merged."""
    return [[slope_text(s), m] for s, m in sorted(poly.items()) if m]


def poly_from_json(parts) -> dict:
    out: dict = {}
    for text, mult in parts:
        s = Fraction(text)
        out[s] = out.get(s, 0) + mult
    return out


def exponent_text(poly: dict) -> str:
    if not poly:
        return "∅"
    return " ".join(f"({slope_text(s)})^{m}" for s, m in sorted(poly.items()))


def add_polys(a: dict, b: dict) -> dict:
    out = dict(a)
    for s, m in b.items():
        out[s] = out.get(s, 0) + m
    return out


def path_values(poly: dict, width: int) -> list:
    """y-values of the ascending-slope path at x = 0..width."""
    values, x, y = [Fraction(0)], 0, Fraction(0)
    for s, m in sorted(poly.items()):
        for _ in range(m):
            x += 1
            y += s
            values.append(y)
    if x != width:
        raise ValueError(f"polygon height {x} != {width}")
    return values


def lies_above(upper: list, lower: list) -> bool:
    """Pointwise order of two paths sampled on the same integer abscissae.

    Exact for polygons with integral breakpoints, whose paths are linear
    between consecutive integers.
    """
    return all(a >= b for a, b in zip(upper, lower))


# -- symmetric Newton strata -------------------------------------------------------


def siegel_count(g: int) -> int:
    """Number of symmetric polygons of height 2g with integral breakpoints.

    Such a polygon is a half-profile of distinct slopes a/b < 1/2, each with a
    positive multiple of b as multiplicity, of total width w <= g, mirrored
    around an even block of slope 1/2.  The half-profiles of width w are
    counted by the coefficients of prod_b (1 - x^b)^(-phi(b)), phi(b) the
    number of reduced a/b below 1/2.
    """
    coeffs = [1] + [0] * g
    for b in range(1, g + 1):
        phi = sum(1 for a in range(b) if 2 * a < b and gcd(a, b) == 1)
        for _ in range(phi):
            for w in range(b, g + 1):
                coeffs[w] += coeffs[w - b]
    return sum(coeffs)


def oort_rank(poly: dict, g: int) -> int:
    """#{(x, y) in Z^2 : 0 < x <= g, xi(x) <= y < x/2} for the path xi.

    Oort's dimension of the stratum of xi: every cover raises it by one,
    basic has 0 and ordinary floor((g+1)^2/4).
    """
    xi = path_values(poly, 2 * g)
    return sum(_ceil(Fraction(x, 2)) - _ceil(xi[x]) for x in range(1, g + 1))


def _ceil(q: Fraction) -> int:
    return -(-q.numerator // q.denominator)


def siegel_admissible(poly: dict, g: int) -> bool:
    """Height 2g, dim g, self-dual, integral breakpoints."""
    return (
        sum(poly.values()) == 2 * g
        and sum(s * m for s, m in poly.items()) == g
        and all(poly.get(1 - s) == m for s, m in poly.items())
        and all(m % s.denominator == 0 for s, m in poly.items())
    )


def poset_problems(g: int, nodes: list, covers, basic: int, ordinary: int) -> list:
    """Mismatches between a claimed stratification poset and Oort's rank facts.

    Every cover raises the rank by exactly one (purity), so the covers are
    exactly the comparable pairs whose ranks differ by one; comparability is
    decided here on the nodes' own paths.
    """
    problems = []
    if len(nodes) != siegel_count(g):
        problems.append(f"g={g}: {len(nodes)} nodes, expected {siegel_count(g)}")
    if len({tuple(sorted(p.items())) for p in nodes}) != len(nodes):
        problems.append(f"g={g}: duplicate nodes")
    bad = [i for i, p in enumerate(nodes) if not siegel_admissible(p, g)]
    if bad:
        return problems + [f"g={g}: inadmissible nodes {bad[:3]}"]
    rank = [oort_rank(p, g) for p in nodes]
    if rank[basic] != 0 or rank[ordinary] != (g + 1) ** 2 // 4:
        problems.append(f"g={g}: extreme ranks {rank[basic]}, {rank[ordinary]}")
    paths = [path_values(p, 2 * g) for p in nodes]
    by_rank: dict = {}
    for i, r in enumerate(rank):
        by_rank.setdefault(r, []).append(i)
    want = {(i, j) for i, r in enumerate(rank) for j in by_rank.get(r + 1, ())
            if lies_above(paths[i], paths[j])}
    got = {tuple(edge) for edge in covers}
    if got != want:
        problems.append(f"g={g}: covers missing {sorted(want - got)[:3]}, unexpected {sorted(got - want)[:3]}")
    return problems


# -- closed forms for the request commands --------------------------------------------


def mu_ordinary(d: int, f: list) -> dict:
    """Slopes k/|f| with multiplicity the k-th gap of the values sorted descending."""
    desc = [d] + sorted(f, reverse=True) + [0]
    poly: dict = {}
    for k in range(len(f) + 1):
        gap = desc[k] - desc[k + 1]
        if gap:
            poly[Fraction(k, len(f))] = gap
    return poly


def bueltel_wedhorn(n: int, r: int, scaling: str) -> dict:
    """N(r) + (1/2)^(n-2r): slopes 1/2 -+ 1/(2r) with exponent 1 (r even) or 2 (r odd)."""
    poly: dict = {}
    if r:
        e = (1 if r % 2 == 0 else 2) * (r if scaling == "times_r" else 1)
        poly[HALF - Fraction(1, 2 * r)] = e
        poly[HALF + Fraction(1, 2 * r)] = e
    if n - 2 * r:
        poly[HALF] = n - 2 * r
    return poly


def weil_problems(h: int, pairs: list, result: dict) -> list:
    """m/c = min(s, 1-s), c the least even multiple of every denominator, a = h*c."""
    slopes = [Fraction(p["slope"]) for p in pairs]
    c = lcm(2, *(s.denominator for s in slopes))
    problems = []
    if result.get("c") != c or result.get("a") != h * c:
        problems.append(f"a/c = {result.get('a')}/{result.get('c')}, expected {h * c}/{c}")
    rows = result.get("per_pair", [])
    if len(rows) != len(pairs):
        return problems + ["pair count"]
    for pair, s, row in zip(pairs, slopes, rows):
        m = min(s, 1 - s) * c
        want = {"w": pair["w"], "wbar": pair["wbar"], "slope": slope_text(s),
                "m": int(m), "n": c - int(m), "inert_compatible": 2 * m == c}
        if row != want:
            problems.append(f"pair {pair['w']}: {row} != {want}")
    return problems
