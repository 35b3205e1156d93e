import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from newton_strata import EMPTY, NewtonPolygon, newton_point_average
from newton_strata.errors import (
    IncomparableEndpoints,
    NonPositiveMultiplicity,
    PeriodMismatch,
    SchemaError,
    SlopeOutOfRange,
)

from oracles import breakpoints, merge_parts, random_merge, random_polygon, reference_leq

slopes = st.integers(1, 10).flatmap(
    lambda den: st.integers(0, den).map(lambda num: F(num, den))
)


@st.composite
def polygons(draw, min_parts=0, max_parts=5, max_mult=6):
    parts = draw(
        st.lists(slopes, min_size=min_parts, max_size=max_parts, unique=True)
    )
    return NewtonPolygon(tuple((s, draw(st.integers(1, max_mult))) for s in parts))


# -- normalize ---------------------------------------------------------------


def test_normalize_merges_and_sorts():
    p = NewtonPolygon([(F(1, 2), 2), (F(0), 1), (F(1, 2), 1)])
    assert p.parts == ((F(0), 1), (F(1, 2), 3))


def test_normalize_empty_is_legal():
    assert NewtonPolygon([]) == EMPTY
    assert EMPTY.parts == ()


def test_normalize_reduces_fractions():
    assert NewtonPolygon([("3/6", 2)]).parts == ((F(1, 2), 2),)


def test_normalize_rejects_out_of_range():
    with pytest.raises(SlopeOutOfRange):
        NewtonPolygon([(F(3, 2), 1)])
    with pytest.raises(SlopeOutOfRange):
        NewtonPolygon([(F(-1, 2), 1)])


def test_normalize_rejects_bad_multiplicity():
    with pytest.raises(NonPositiveMultiplicity):
        NewtonPolygon([(F(1, 2), 0)])
    with pytest.raises(NonPositiveMultiplicity):
        NewtonPolygon([(F(1, 2), -3)])
    with pytest.raises(SchemaError):
        NewtonPolygon([(F(1, 2), 1.5)])


@given(polygons())
def test_normalize_idempotent(p):
    assert NewtonPolygon(p.parts) == p


# -- amalgamate --------------------------------------------------------------


def test_amalgamate_examples():
    p = NewtonPolygon([(0, 1), (1, 1)])
    q = NewtonPolygon([("1/2", 2)])
    assert p.amalgamate(q).parts == ((F(0), 1), (F(1, 2), 2), (F(1), 1))
    assert p.amalgamate(EMPTY) == p
    assert NewtonPolygon([("1/3", 1)]).amalgamate(
        NewtonPolygon([("1/3", 2)])
    ) == NewtonPolygon([("1/3", 3)])


@given(polygons(), polygons(), polygons())
def test_amalgamate_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p + EMPTY == p
    mp, mq, ms = p.measures(), q.measures(), (p + q).measures()
    assert ms.height == mp.height + mq.height
    assert ms.dim == mp.dim + mq.dim


# -- dual ----------------------------------------------------------------------


def test_dual_examples():
    assert NewtonPolygon([(0, 1), ("1/2", 3)]).dual() == NewtonPolygon(
        [("1/2", 3), (1, 1)]
    )
    fixed = NewtonPolygon([("1/2", 4)])
    assert fixed.dual() == fixed


@given(polygons())
def test_dual_involution(p):
    assert p.dual().dual() == p


def test_dual_involution_random_sweep():
    rng = random.Random(61_803)
    for _ in range(300):
        p = random_polygon(rng)
        assert p.dual().dual() == p


# -- measures --------------------------------------------------------------------


def test_measures_examples():
    m = NewtonPolygon([(0, 1), ("1/2", 3)]).measures()
    assert m.height == 4 and m.dim == F(3, 2)
    e = EMPTY.measures()
    assert e.height == 0 and e.dim == 0 and e.breakpoints == ((F(0), F(0)),)
    m2 = NewtonPolygon([("1/2", 4)]).measures()
    assert m2.height == 4 and m2.dim == 2
    assert m2.breakpoints == ((F(0), F(0)), (F(4), F(2)))


@given(polygons())
def test_measures_trace_convex_path(p):
    m = p.measures()
    assert m.breakpoints[0] == (0, 0)
    assert m.breakpoints[-1] == (m.height, m.dim)
    segment_slopes = [
        (y1 - y0) / (x1 - x0)
        for (x0, y0), (x1, y1) in zip(m.breakpoints, m.breakpoints[1:])
    ]
    assert segment_slopes == sorted(segment_slopes)


# -- leq -------------------------------------------------------------------------


def test_leq_examples():
    basic = NewtonPolygon([("1/2", 4)])
    ordinary = NewtonPolygon([(0, 2), (1, 2)])
    assert basic.leq(ordinary)
    assert not ordinary.leq(basic)
    assert basic.leq(basic)


def test_leq_rejects_mixed_endpoints():
    with pytest.raises(IncomparableEndpoints):
        NewtonPolygon([("1/2", 2)]).leq(NewtonPolygon([("1/2", 4)]))
    with pytest.raises(IncomparableEndpoints):
        NewtonPolygon([(0, 2), (1, 2)]).leq(NewtonPolygon([("1/4", 4)]))


@given(polygons(min_parts=2), st.data())
def test_leq_merging_parts_moves_down(p, data):
    i = data.draw(st.integers(0, len(p.parts) - 2))
    j = data.draw(st.integers(i + 1, len(p.parts) - 1))
    q = merge_parts(p, i, j)
    assert q.leq(p)
    if q != p:
        assert not p.leq(q)  # antisymmetry


@given(polygons(min_parts=3), st.data())
def test_leq_transitive_on_merge_chain(p, data):
    q = merge_parts(p, 0, 1)
    if len(q.parts) >= 2:
        r = merge_parts(q, 0, len(q.parts) - 1)
        assert q.leq(p) and r.leq(q) and r.leq(p)


@given(polygons(min_parts=1))
def test_leq_basic_polygon_is_minimal(p):
    m = p.measures()
    basic = NewtonPolygon([(m.dim / m.height, m.height)])
    assert basic.leq(p)


def test_leq_matches_reference_on_random_pairs():
    # pairs of merges of one random polygon share endpoints, often have
    # fractional heights and are often incomparable
    rng = random.Random(14_142)
    verdicts = set()
    fractional = 0
    for _ in range(400):
        p = random_polygon(rng, min_parts=2, max_parts=6)
        q, r = random_merge(rng, p), random_merge(rng, p)
        for a, b in ((p, q), (q, p), (q, r), (r, q)):
            assert a.leq(b) is reference_leq(a, b)
        verdicts.add((q.leq(r), r.leq(q)))
        fractional += any(y.denominator > 1 for _, y in breakpoints(q))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}
    assert fractional > 100


def test_leq_work_is_bounded_by_parts_not_height():
    straight = NewtonPolygon([("1/2", 10**12)])
    broken = NewtonPolygon([(0, 5 * 10**11), (1, 5 * 10**11)])
    assert straight.leq(broken) is True
    assert broken.leq(straight) is False


# -- newton_point_average -----------------------------------------------------------


def test_average_swap():
    assert newton_point_average((1, 0), (1, 0), 2) == (F(1, 2), F(1, 2))


def test_average_identity_permutation():
    mu = (F(5), F(-1, 3), F(2))
    assert newton_point_average(mu, (0, 1, 2), 7) == mu


def test_average_three_cycle():
    assert newton_point_average((1, 0, 0), (1, 2, 0), 3) == (F(1, 3),) * 3


def test_average_period_mismatch():
    with pytest.raises(PeriodMismatch):
        newton_point_average((1, 0, 0), (1, 2, 0), 2)


def test_average_rejects_non_permutation():
    with pytest.raises(SchemaError):
        newton_point_average((1, 0), (0, 0), 2)
    with pytest.raises(SchemaError):
        newton_point_average((1, 0), (1, 0), 0)


@given(
    st.lists(st.fractions(), min_size=1, max_size=6),
    st.randoms(use_true_random=False),
)
def test_average_invariant_under_sigma(mu, rng):
    n = len(mu)
    sigma = list(range(n))
    rng.shuffle(sigma)
    # any multiple of the permutation order fixes every vector
    order = _permutation_order(sigma)
    result = newton_point_average(mu, sigma, order)
    assert tuple(result[sigma[i]] for i in range(n)) == result


def _permutation_order(sigma):
    order = 1
    current = list(sigma)
    identity = list(range(len(sigma)))
    while current != identity:
        current = [sigma[i] for i in current]
        order += 1
    return order


# -- wire form ------------------------------------------------------------------


def test_json_round_trip_is_canonical():
    p = NewtonPolygon.from_json([["2/4", 1], ["0", 2], ["1/2", 1]])
    assert p.to_json() == [["0", 2], ["1/2", 2]]
    assert NewtonPolygon.from_json(p.to_json()) == p


@given(polygons())
def test_json_round_trip(p):
    assert NewtonPolygon.from_json(json.loads(json.dumps(p.to_json()))) == p


@pytest.mark.parametrize(
    "bad",
    [[["1.5", 1]], [["-1/2", 1]], [["1/0", 1]], [["01", 1]], [["", 1]], [[1, 1]], ["x"], "x"],
)
def test_json_rejects_bad_forms(bad):
    with pytest.raises(SchemaError):
        NewtonPolygon.from_json(bad)


def test_json_rejects_out_of_range_slope():
    with pytest.raises(SlopeOutOfRange):
        NewtonPolygon.from_json([["3/2", 1]])


def test_exponent_notation():
    assert NewtonPolygon([(0, 1), ("1/2", 3)]).exponent_str() == "(0)^1 (1/2)^3"
    assert EMPTY.exponent_str() == "∅"
