"""The mu-ordinary slope formula from multiplication-type data.

Each Frobenius orbit of complex embeddings, with its multiplication-type
values, determines the slopes of the maximal stratum at the corresponding
place.  The orbit-to-place bijection is by list order against a caller-supplied
tower.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SchemaError, require_int
from .pel import PELSlopeDatum, PlaceTower, _check_name, _expect_keys
from .polygon import NewtonPolygon


@dataclass(frozen=True)
class Orbit:
    name: str
    f_values: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_name(self.name)
        object.__setattr__(self, "f_values", tuple(self.f_values))
        if not self.f_values:
            raise SchemaError(f"orbit {self.name}: needs at least one value")
        label = f"orbit {self.name}: values must be integers"
        for v in self.f_values:
            require_int(v, label)


@dataclass(frozen=True)
class SignatureDatum:
    """Total degree d and the multiplication-type values per orbit."""

    d: int
    orbits: tuple[Orbit, ...]

    def __post_init__(self) -> None:
        require_int(self.d, "d must be a positive integer", 1)
        object.__setattr__(self, "orbits", tuple(self.orbits))
        if not self.orbits:
            raise SchemaError("at least one orbit required")
        names = [o.name for o in self.orbits]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate orbit names")
        for orbit in self.orbits:
            for v in orbit.f_values:
                if not 0 <= v <= self.d:
                    raise SchemaError(
                        f"orbit {orbit.name}: value {v} outside [0, {self.d}]"
                    )

    @classmethod
    def from_json(cls, obj) -> "SignatureDatum":
        _expect_keys(obj, {"d", "orbits"}, "signature")
        raw = obj["orbits"]
        if not isinstance(raw, list):
            raise SchemaError("signature key 'orbits' must be an array")
        orbits = []
        for entry in raw:
            _expect_keys(entry, {"name", "f"}, "orbit")
            if not isinstance(entry["f"], list):
                raise SchemaError(f"orbit {entry.get('name')!r}: 'f' must be an array")
            orbits.append(Orbit(entry["name"], tuple(entry["f"])))
        return cls(obj["d"], tuple(orbits))


def mu_ordinary(sig: SignatureDatum) -> dict[str, NewtonPolygon]:
    """Per-orbit slopes of the maximal stratum, keyed by orbit name in orbit order.

    The j-th slope (j = 1..d) is the fraction of the orbit's n values exceeding
    d - j.  With the values sorted as w_1 >= ... >= w_n, w_0 = d and
    w_{n+1} = 0, that fraction is k/n for exactly w_k - w_{k+1} values of j,
    so the polygon is read off the gaps in O(n log n), independent of d.
    Each orbit's polygon has height exactly d.
    """
    result: dict[str, NewtonPolygon] = {}
    for orbit in sig.orbits:
        size = len(orbit.f_values)
        w = [sig.d, *sorted(orbit.f_values, reverse=True), 0]
        result[orbit.name] = NewtonPolygon(
            tuple((Fraction(k, size), w[k] - w[k + 1]) for k in range(size + 1) if w[k] > w[k + 1])
        )
    return result


def as_datum(sig: SignatureDatum, tower: PlaceTower) -> PELSlopeDatum:
    """Attach mu-ordinary polygons to a tower, orbit i to upper place i."""
    uppers = tower.upper_places()
    if len(uppers) != len(sig.orbits):
        raise SchemaError(
            f"tower has {len(uppers)} upper places but signature has "
            f"{len(sig.orbits)} orbits"
        )
    polys = mu_ordinary(sig)
    return PELSlopeDatum.of(
        tower, {upper: polys[orbit.name] for upper, orbit in zip(uppers, sig.orbits)}
    )
