import random
from fractions import Fraction
from itertools import combinations, permutations
from math import ceil

import pytest

from newton_strata import (
    EMPTY,
    NewtonPolygon,
    build_poset,
    bueltel_wedhorn,
    enumerate_siegel,
    to_dot,
)
from newton_strata.errors import (
    BoundExceeded,
    MixedEndpoints,
    NoUniqueExtreme,
    RangeError,
    SchemaError,
)
from newton_strata.strata import _up_sets, _vertices

from oracles import (
    breakpoints,
    lattice_path_polygons,
    path_value,
    random_merge,
    random_polygon,
    reference_leq,
)

P = NewtonPolygon


# -- enumeration ---------------------------------------------------------------


def test_g0_is_the_empty_polygon():
    assert enumerate_siegel(0) == [EMPTY]


def test_g1_exactly_two():
    assert set(enumerate_siegel(1)) == {P([(0, 1), (1, 1)]), P([("1/2", 2)])}


def test_g2_exactly_three():
    assert set(enumerate_siegel(2)) == {
        P([(0, 2), (1, 2)]),
        P([(0, 1), ("1/2", 2), (1, 1)]),
        P([("1/2", 4)]),
    }


@pytest.mark.parametrize("g", [0, 1, 2, 3, 4, 5, 6])
def test_counts_match_lattice_path_oracle(g):
    assert set(enumerate_siegel(g)) == lattice_path_polygons(g)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
def test_enumeration_structure(g):
    nodes = enumerate_siegel(g)
    assert len(nodes) == len(set(nodes))
    straight = P([("1/2", 2 * g)])
    broken = P([(0, g), (1, g)])
    assert straight in nodes and broken in nodes
    for node in nodes:
        m = node.measures()
        assert m.height == 2 * g and m.dim == g
        assert node.dual() == node
        assert all(x.denominator == 1 and y.denominator == 1 for x, y in m.breakpoints)


def test_enumeration_is_deterministic():
    assert enumerate_siegel(5) == enumerate_siegel(5)


def test_enumeration_is_topologically_sorted():
    for g in (2, 3, 4, 5):
        nodes = enumerate_siegel(g)
        for i, j in combinations(range(len(nodes)), 2):
            # a later node never lies below an earlier one
            assert not (nodes[j].leq(nodes[i]) and nodes[i] != nodes[j])


def test_enumeration_bound():
    with pytest.raises(BoundExceeded):
        enumerate_siegel(13)
    with pytest.raises(SchemaError):
        enumerate_siegel(-1)
    with pytest.raises(BoundExceeded):
        enumerate_siegel(6, max_g=5)
    assert len(enumerate_siegel(5, max_g=5)) == len(enumerate_siegel(5))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_order_laws_on_enumerated_sets(g):
    nodes = enumerate_siegel(g)
    for p in nodes:
        assert p.leq(p)
    for p, q in permutations(nodes, 2):
        if p.leq(q) and q.leq(p):
            assert p == q
    for p, q, r in permutations(nodes, 3):
        if p.leq(q) and q.leq(r):
            assert p.leq(r)


# -- poset construction ----------------------------------------------------------


def test_g2_poset_is_a_chain():
    poset = build_poset(enumerate_siegel(2))
    assert poset.nodes[poset.basic_index] == P([("1/2", 4)])
    assert poset.nodes[poset.ordinary_index] == P([(0, 2), (1, 2)])
    assert poset.cover_edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_extremes_are_straight_line_and_most_broken(g):
    poset = build_poset(enumerate_siegel(g))
    assert poset.nodes[poset.basic_index] == P([("1/2", 2 * g)])
    assert poset.nodes[poset.ordinary_index] == P([(0, g), (1, g)])


def test_single_node_poset():
    poset = build_poset([P([("1/2", 2)])])
    assert poset.basic_index == poset.ordinary_index == 0
    assert poset.cover_edges == ()


def test_cover_edges_have_no_shortcuts():
    for g in (3, 4, 5):
        poset = build_poset(enumerate_siegel(g))
        strict = {(i, j) for (i, j) in poset.relation if i != j}
        for i, j in poset.cover_edges:
            assert (i, j) in strict
            assert not any(
                (i, k) in strict and (k, j) in strict for k in range(len(poset.nodes))
            )
        # reachability through covers reproduces the strict relation
        reach = _transitive_closure(poset.cover_edges, len(poset.nodes))
        assert reach == strict


def _transitive_closure(edges, n):
    reach = {(i, j) for i, j in edges}
    changed = True
    while changed:
        changed = False
        for i, k in list(reach):
            for k2, j in list(reach):
                if k == k2 and (i, j) not in reach:
                    reach.add((i, j))
                    changed = True
    return reach


def _oort_rank(node, g):
    """#{(x, y) in Z^2 : 0 < x <= g, node(x) <= y < x/2}, Oort's codimension of the stratum."""
    path = breakpoints(node)
    return sum(max(0, ceil(Fraction(x, 2)) - ceil(path_value(path, x))) for x in range(1, g + 1))


@pytest.mark.parametrize("g", range(1, 10))
def test_covers_raise_oort_rank_by_one(g):
    # Oort (2000): the symmetric Newton strata are catenary, so the covers are
    # exactly the comparable pairs one rank apart
    poset = build_poset(enumerate_siegel(g))
    rank = [_oort_rank(node, g) for node in poset.nodes]
    assert rank[poset.basic_index] == 0
    assert rank[poset.ordinary_index] == (g + 1) ** 2 // 4
    paths = [breakpoints(node) for node in poset.nodes]
    heights = [[path_value(path, x) for x in range(2 * g + 1)] for path in paths]
    comparable = [
        (i, j)
        for i, hi in enumerate(heights)
        for j, hj in enumerate(heights)
        if all(a >= b for a, b in zip(hi, hj))
    ]
    assert set(poset.cover_edges) == {(i, j) for i, j in comparable if rank[j] == rank[i] + 1}


@pytest.mark.parametrize("seed", range(12))
def test_poset_matches_brute_force_off_the_siegel_grid(seed):
    # merges of one random polygon share its endpoints and have fractional
    # heights; the polygon itself is the maximum and its one-part merge the minimum
    family = _merge_family(seed)
    top, bottom = family[:2]
    poset = build_poset(family)
    nodes = poset.nodes
    n = len(nodes)
    assert nodes == tuple(dict.fromkeys(family))
    relation = {(i, j) for i in range(n) for j in range(n) if reference_leq(nodes[i], nodes[j])}
    assert poset.relation == relation
    strict = {(i, j) for i, j in relation if i != j}
    reduction = {
        (i, j)
        for i, j in strict
        if not any((i, k) in strict and (k, j) in strict for k in range(n))
    }
    assert poset.cover_edges == tuple(sorted(reduction))
    assert nodes[poset.basic_index] == bottom and nodes[poset.ordinary_index] == top


def _merge_family(seed):
    """A seeded same-endpoint family: a random polygon, its one-part merge, random merges."""
    rng = random.Random(seed)
    top = random_polygon(rng, min_parts=3, max_parts=6)
    bottom = P([(top.dim / top.height, top.height)])
    return [top, bottom] + [random_merge(rng, top) for _ in range(14)]


@pytest.mark.parametrize("g", range(7))
def test_le_returns_bool_objects_and_matches_relation(g):
    poset = build_poset(enumerate_siegel(g))
    n = len(poset.nodes)
    answers = {(i, j): poset.le(i, j) for i in range(n) for j in range(n)}
    assert all(answer is True or answer is False for answer in answers.values())
    assert poset.relation == {pair for pair, answer in answers.items() if answer}
    assert all(answers[i, j] == poset.nodes[i].leq(poset.nodes[j]) for i, j in answers)


@pytest.mark.parametrize("seed", range(12))
def test_down_sets_are_the_transpose_of_the_up_sets(seed):
    family = list(dict.fromkeys(_merge_family(seed)))
    up, down = _up_sets(family)
    n = len(family)
    assert len(up) == len(down) == n
    for i in range(n):
        for j in range(n):
            assert (up[i] >> j & 1) == (down[j] >> i & 1) == reference_leq(family[i], family[j])
    assert all(mask < 1 << n for mask in up + down)


@pytest.mark.parametrize("seed", range(12))
def test_integer_vertices_sort_like_fraction_breakpoints(seed):
    # mixed slope denominators up to 12, arbitrary endpoints, plus a merge family
    rng = random.Random(seed)
    family = list({random_polygon(rng, max_denominator=12) for _ in range(40)})
    family += [p for p in dict.fromkeys(_merge_family(seed)) if p not in family]
    by_fraction = sorted(family, key=lambda p: p.measures().breakpoints)
    by_integer = [p for _, p in sorted(zip(_vertices(family), family))]
    assert by_integer == by_fraction
    assert len(set(_vertices(family))) == len(family)


def test_mixed_dims_at_equal_height_are_rejected_with_fraction_endpoints():
    with pytest.raises(MixedEndpoints) as info:
        build_poset([P([(0, 1), (1, 1)]), P([(0, 2)])])
    assert str(info.value) == "nodes mix endpoints: [(2, Fraction(0, 1)), (2, Fraction(1, 1))]"
    with pytest.raises(MixedEndpoints) as info:
        build_poset([P([("1/2", 2)]), P([("1/3", 3)]), P([("1/2", 4)])])
    assert str(info.value) == (
        "nodes mix endpoints: [(2, Fraction(1, 1)), (3, Fraction(1, 1)), (4, Fraction(2, 1))]"
    )


def test_poset_work_is_bounded_by_parts_not_height():
    straight = P([("1/2", 10**12)])
    broken = P([(0, 5 * 10**11), (1, 5 * 10**11)])
    poset = build_poset([broken, straight])
    assert poset.relation == {(0, 0), (1, 1), (1, 0)}
    assert poset.cover_edges == ((1, 0),)


def test_incomparable_synthesized_pair_has_no_extreme():
    # same endpoints (6, 3), crossing paths
    a = P([(0, 2), ("3/4", 4)])
    b = P([("1/4", 4), (1, 2)])
    with pytest.raises(NoUniqueExtreme):
        build_poset([a, b])


def test_incomparable_self_dual_pair_at_g4():
    a = P([("1/4", 4), ("3/4", 4)])
    b = P([(0, 1), ("1/2", 6), (1, 1)])
    assert a in enumerate_siegel(4) and b in enumerate_siegel(4)
    with pytest.raises(NoUniqueExtreme):
        build_poset([a, b])


def test_poset_rejects_mixed_endpoints():
    with pytest.raises(MixedEndpoints):
        build_poset([P([("1/2", 2)]), P([("1/2", 4)])])


def test_poset_dedupes_nodes():
    p = P([("1/2", 2)])
    poset = build_poset([p, p, P([(0, 1), (1, 1)])])
    assert len(poset.nodes) == 2


def test_poset_rejects_empty():
    with pytest.raises(SchemaError):
        build_poset([])


# -- the unitary family ------------------------------------------------------------


def test_family_r0_is_all_half():
    assert bueltel_wedhorn(3, 0) == P([("1/2", 3)])


def test_family_odd_literal():
    assert bueltel_wedhorn(4, 1) == P([(0, 2), ("1/2", 2), (1, 2)])


def test_family_even_literal():
    assert bueltel_wedhorn(6, 2) == P([("1/4", 1), ("1/2", 2), ("3/4", 1)])


def test_family_even_times_r():
    assert bueltel_wedhorn(6, 2, "times_r") == P([("1/4", 2), ("1/2", 2), ("3/4", 2)])


def test_family_range_checks():
    with pytest.raises(RangeError):
        bueltel_wedhorn(4, 3)
    with pytest.raises(SchemaError):
        bueltel_wedhorn(0, 0)
    with pytest.raises(SchemaError):
        bueltel_wedhorn(4, -1)
    with pytest.raises(SchemaError):
        bueltel_wedhorn(4, 1, "half")


def test_family_self_dual_everywhere():
    for n in range(1, 13):
        for r in range(0, n // 2 + 1):
            for scaling in ("literal", "times_r"):
                poly = bueltel_wedhorn(n, r, scaling)
                assert poly.dual() == poly


@pytest.mark.parametrize("n, r", [(6, 2), (12, 4), (4, 1), (12, 3)])
def test_family_times_r_equalizes_multiplicities(n, r):
    mults = set(bueltel_wedhorn(n, r, "times_r").multiplicities())
    assert len(mults) == 1


def test_family_times_r_diagonal_is_balanced():
    # n = 3r for even r, n = 4r for odd r: three equal-multiplicity slopes
    for r in range(1, 7):
        n = 3 * r if r % 2 == 0 else 4 * r
        poly = bueltel_wedhorn(n, r, "times_r")
        assert len(poly.parts) == 3
        assert len(set(poly.multiplicities())) == 1


# -- DOT output ---------------------------------------------------------------------


def test_dot_bytes_for_g2(corpus):
    poset = build_poset(enumerate_siegel(2))
    golden = (corpus / "golden" / "poset-g2.dot").read_text()
    assert to_dot(poset) == golden


def test_dot_for_g0_single_empty_node():
    poset = build_poset(enumerate_siegel(0))
    assert to_dot(poset) == 'digraph strata {\n  n0 [label="∅"];\n}\n'
