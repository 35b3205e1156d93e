import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from newton_strata import (
    BasePlace,
    NewtonPolygon,
    Orbit,
    PlaceTower,
    SignatureDatum,
    VerdictLevel,
    as_datum,
    hypersymmetric_verdict,
    mu_ordinary,
)
from newton_strata.errors import SchemaError
from oracles import mu_ordinary_by_slopes

P = NewtonPolygon


def sig(d, *orbit_values):
    return SignatureDatum(
        d, tuple(Orbit(f"o{i}", vals) for i, vals in enumerate(orbit_values))
    )


# -- worked instances ----------------------------------------------------------


def test_split_pair_instance():
    polys = mu_ordinary(sig(4, (3, 0), (1, 4)))
    assert polys["o0"] == P([(0, 1), ("1/2", 3)])
    assert polys["o1"] == P([("1/2", 3), (1, 1)])


def test_self_paired_orbit_instance():
    polys = mu_ordinary(sig(4, (3, 1)))
    assert polys["o0"] == P([(0, 1), ("1/2", 2), (1, 1)])


def test_all_zero_and_all_full():
    for d in (1, 3, 6):
        assert mu_ordinary(sig(d, (0,) * 2))["o0"] == P([(0, d)])
        assert mu_ordinary(sig(d, (d,) * 3))["o0"] == P([(1, d)])


def test_counting_formula_directly():
    # one orbit of size 2 with values (0, 4) at d=4 averages to all-1/2
    polys = mu_ordinary(sig(4, (0, 4)))
    assert polys["o0"] == P([("1/2", 4)])


def test_large_d_is_read_off_the_gaps():
    s = SignatureDatum.from_json({"d": 3000000, "orbits": [{"name": "o", "f": [1]}]})
    assert mu_ordinary(s) == {"o": P([(0, 2999999), (1, 1)])}


def test_gaps_match_slope_by_slope_oracle():
    rng = random.Random(271_828)
    for _ in range(3000):
        d = rng.randint(1, 30)
        orbits = [
            tuple(rng.randint(0, d) for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 3))
        ]
        s = sig(d, *orbits)
        got = mu_ordinary(s)
        assert got == mu_ordinary_by_slopes(s)
        assert list(got) == [o.name for o in s.orbits]


# -- structural properties -------------------------------------------------------


signatures = st.integers(1, 8).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(0, d), min_size=1, max_size=4),
        min_size=1,
        max_size=3,
    ).map(lambda orbits: sig(d, *map(tuple, orbits)))
)


@given(signatures)
def test_each_orbit_polygon_has_height_d(s):
    for poly in mu_ordinary(s).values():
        assert poly.height == s.d


@given(signatures)
def test_raw_slope_sequence_is_weakly_increasing(s):
    # mirror of the counting rule: collapsing equal values loses nothing
    for o in s.orbits:
        raw = [
            F(sum(1 for v in o.f_values if v > s.d - j), len(o.f_values))
            for j in range(1, s.d + 1)
        ]
        assert raw == sorted(raw)
        assert all(0 <= a <= 1 for a in raw)
        assert mu_ordinary(s)[o.name] == P(tuple((a, 1) for a in raw))


@given(signatures)
def test_duality_under_value_complement(s):
    flipped = sig(s.d, *(tuple(s.d - v for v in o.f_values) for o in s.orbits))
    lhs = mu_ordinary(flipped)
    rhs = {name: poly.dual() for name, poly in mu_ordinary(s).items()}
    assert lhs == rhs


def test_duality_seeded_sweep():
    rng = random.Random(314_159)
    for _ in range(100):
        d = rng.randint(1, 9)
        orbits = tuple(
            tuple(rng.randint(0, d) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 3))
        )
        s = sig(d, *orbits)
        flipped = sig(d, *(tuple(d - v for v in o) for o in orbits))
        assert mu_ordinary(flipped) == {
            name: poly.dual() for name, poly in mu_ordinary(s).items()
        }


@given(st.integers(1, 8), st.lists(st.integers(0, 8), min_size=1, max_size=5))
def test_single_orbit_equal_multiplicities_admit_hypersymmetric_point(d, values):
    values = [min(v, d) for v in values]
    s = sig(d, tuple(values))
    datum = as_datum(s, PlaceTower.degenerate(["v"]))
    if len(set(datum.polygon("v").multiplicities())) == 1:
        assert hypersymmetric_verdict(datum).level is not VerdictLevel.NONE


# -- tower attachment --------------------------------------------------------------


def test_as_datum_by_list_order():
    s = sig(4, (3, 0), (1, 4))
    tower = PlaceTower((BasePlace("v0", "split", ("v", "vstar")),), True)
    d = as_datum(s, tower)
    assert d.polygon("v") == P([(0, 1), ("1/2", 3)])
    assert d.polygon("vstar") == P([("1/2", 3), (1, 1)])


def test_as_datum_rejects_count_mismatch():
    s = sig(4, (3, 0), (1, 4))
    with pytest.raises(SchemaError):
        as_datum(s, PlaceTower.degenerate(["v"]))


# -- validation and wire form --------------------------------------------------------


def test_signature_validation():
    with pytest.raises(SchemaError):
        SignatureDatum(0, (Orbit("o1", (0,)),))
    with pytest.raises(SchemaError):
        SignatureDatum(4, ())
    with pytest.raises(SchemaError):
        SignatureDatum(4, (Orbit("o1", ()),))
    with pytest.raises(SchemaError):
        SignatureDatum(4, (Orbit("o1", (5,)),))
    with pytest.raises(SchemaError):
        SignatureDatum(4, (Orbit("o1", (0,)), Orbit("o1", (1,))))


def test_signature_from_json(corpus):
    raw = json.loads((corpus / "signature-3-5.json").read_text())
    s = SignatureDatum.from_json(raw)
    assert s.d == 4
    assert [o.name for o in s.orbits] == ["o1", "o2"]
    assert s.orbits[0].f_values == (3, 0)


def test_signature_json_rejects_unknown_keys():
    with pytest.raises(SchemaError):
        SignatureDatum.from_json({"d": 4, "orbits": [], "extra": 1})
    with pytest.raises(SchemaError):
        SignatureDatum.from_json({"d": 4, "orbits": [{"name": "o1", "fs": [1]}]})
