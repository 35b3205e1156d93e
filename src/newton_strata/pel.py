"""Slope data over a tower of places.

A :class:`PlaceTower` records the places of a totally real base field above p
and, above each, either one inert place or an ordered split pair (u, u*) of a
quadratic extension.  A :class:`PELSlopeDatum` assigns one Newton polygon to
every upper place.  The tower is purely combinatorial: no residue degrees, no
ramification (p is assumed unramified throughout).

Restriction to the base field follows the two displayed rules: amalgamate the
pair at a split place, double every multiplicity at an inert place (the local
degree there is 2; other degrees are rejected because the extension is always
quadratic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import NonIntegralMultiplicity, NotCM, SchemaError, SlopeDataError, require_int
from .polygon import NewtonPolygon

INERT = "inert"
SPLIT = "split"


def _check_name(name) -> str:
    if not isinstance(name, str) or not name.isidentifier() or not name.isascii():
        raise SchemaError(f"place name must be a nonempty ASCII identifier, got {name!r}")
    return name


@dataclass(frozen=True)
class BasePlace:
    """One place of the base field: inert with one upper place, or a split pair.

    The split pair is ordered (u, u*) only for serialization stability; every
    predicate in this package is symmetric in the pair.
    """

    name: str
    kind: str
    above: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_name(self.name)
        if self.kind not in (INERT, SPLIT):
            raise SchemaError(f"place {self.name}: kind must be 'inert' or 'split'")
        object.__setattr__(self, "above", tuple(_check_name(u) for u in self.above))
        expected = 1 if self.kind == INERT else 2
        if len(self.above) != expected:
            raise SchemaError(
                f"place {self.name}: {self.kind} place needs exactly {expected} upper place(s)"
            )
        if len(set(self.above)) != len(self.above):
            raise SchemaError(f"place {self.name}: split pair must be two distinct places")


@dataclass(frozen=True)
class PlaceTower:
    """The base places above p and their upper places.

    ``cm=False`` is the degenerate tower (no extension): every base place must
    be inert with its single upper place named identically.
    """

    base_places: tuple[BasePlace, ...]
    cm: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_places", tuple(self.base_places))
        if not self.base_places:
            raise SchemaError("tower must contain at least one place")
        base_names = [bp.name for bp in self.base_places]
        upper_names = [u for bp in self.base_places for u in bp.above]
        if len(set(base_names)) != len(base_names):
            raise SchemaError("duplicate base place names")
        if len(set(upper_names)) != len(upper_names):
            raise SchemaError("duplicate upper place names")
        if self.cm:
            if set(base_names) & set(upper_names):
                raise SchemaError("base and upper place names must be disjoint")
        else:
            for bp in self.base_places:
                if bp.kind != INERT or bp.above != (bp.name,):
                    raise SchemaError(
                        f"place {bp.name}: a degenerate (cm=false) tower must be inert "
                        "with the upper place equal to the base place"
                    )

    def upper_places(self) -> tuple[str, ...]:
        return tuple(u for bp in self.base_places for u in bp.above)

    @classmethod
    def degenerate(cls, names: Iterable[str]) -> "PlaceTower":
        return cls(
            base_places=tuple(BasePlace(n, INERT, (n,)) for n in names),
            cm=False,
        )


@dataclass(frozen=True)
class PELSlopeDatum:
    """One Newton polygon per upper place of a tower.

    ``polygons`` is stored as (name, polygon) pairs in tower order, so equal
    data compare equal and serialization is deterministic.  At least one
    polygon must be nonempty.
    """

    tower: PlaceTower
    polygons: tuple[tuple[str, NewtonPolygon], ...]

    def __post_init__(self) -> None:
        given = dict(self.polygons)
        if len(given) != len(self.polygons):
            raise SchemaError("duplicate polygon keys")
        uppers = self.tower.upper_places()
        if set(given) != set(uppers):
            missing = set(uppers) - set(given)
            extra = set(given) - set(uppers)
            raise SchemaError(
                f"polygons must cover the upper places exactly "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        ordered = tuple((u, given[u]) for u in uppers)
        object.__setattr__(self, "polygons", ordered)
        if all(p.is_empty() for _, p in ordered):
            raise SchemaError("at least one polygon must be nonempty")

    @classmethod
    def of(cls, tower: PlaceTower, polygons: Mapping[str, NewtonPolygon]) -> "PELSlopeDatum":
        return cls(tower=tower, polygons=tuple(polygons.items()))

    def polygon(self, upper_name: str) -> NewtonPolygon:
        for name, poly in self.polygons:
            if name == upper_name:
                return poly
        raise KeyError(upper_name)

    @property
    def polygon_map(self) -> dict[str, NewtonPolygon]:
        return dict(self.polygons)

    # -- wire form -------------------------------------------------------------

    def to_json(self) -> dict:
        by_name = self.polygon_map
        return {
            "cm": self.tower.cm,
            "places": [
                {
                    "name": bp.name,
                    "kind": bp.kind,
                    "above": [
                        {"name": u, "polygon": by_name[u].to_json()} for u in bp.above
                    ],
                }
                for bp in self.tower.base_places
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "PELSlopeDatum":
        _expect_keys(obj, {"cm", "places"}, "datum")
        cm = obj["cm"]
        if not isinstance(cm, bool):
            raise SchemaError("datum key 'cm' must be a boolean")
        raw_places = obj["places"]
        if not isinstance(raw_places, list):
            raise SchemaError("datum key 'places' must be an array")
        base_places = []
        polygons: dict[str, NewtonPolygon] = {}
        for raw in raw_places:
            _expect_keys(raw, {"name", "kind", "above"}, "place")
            above = raw["above"]
            if not isinstance(above, list):
                raise SchemaError(f"place {raw.get('name')!r}: 'above' must be an array")
            upper_names = []
            for upper in above:
                _expect_keys(upper, {"name", "polygon"}, "upper place")
                uname = _check_name(upper["name"])
                try:
                    polygons[uname] = NewtonPolygon.from_json(upper["polygon"])
                except SlopeDataError as exc:
                    raise type(exc)(f"place {uname}: {exc}") from exc
                upper_names.append(uname)
            base_places.append(BasePlace(raw["name"], raw["kind"], tuple(upper_names)))
        tower = PlaceTower(tuple(base_places), cm)
        return cls.of(tower, polygons)


def _expect_keys(obj, keys: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    unknown = set(obj) - keys
    if unknown:
        raise SchemaError(f"unknown key {sorted(unknown)[0]!r} in {what}")
    missing = keys - set(obj)
    if missing:
        raise SchemaError(f"missing key {sorted(missing)[0]!r} in {what}")


# -- operations ------------------------------------------------------------------


def restrict(datum: PELSlopeDatum) -> PELSlopeDatum:
    """Push slope data down to the base field.

    Split place: amalgamate the pair.  Inert place: double every multiplicity
    (local degree 2).  The result lives over the degenerate tower on the base
    names.
    """
    if not datum.tower.cm:
        raise NotCM("datum is already over the base field")
    restricted: dict[str, NewtonPolygon] = {}
    for bp in datum.tower.base_places:
        if bp.kind == SPLIT:
            u, ustar = bp.above
            restricted[bp.name] = datum.polygon(u).amalgamate(datum.polygon(ustar))
        else:
            (u,) = bp.above
            doubled = tuple((s, 2 * m) for s, m in datum.polygon(u).parts)
            restricted[bp.name] = NewtonPolygon(doubled)
    tower = PlaceTower.degenerate([bp.name for bp in datum.tower.base_places])
    return PELSlopeDatum.of(tower, restricted)


def condition_star(datum: PELSlopeDatum) -> bool:
    """True iff at every split pair the two slope sets are disjoint.

    Inert places impose no constraint.
    """
    if not datum.tower.cm:
        raise NotCM("condition (*) only applies over a quadratic extension")
    for bp in datum.tower.base_places:
        if bp.kind == SPLIT:
            u, ustar = bp.above
            if set(datum.polygon(u).slopes()) & set(datum.polygon(ustar).slopes()):
                return False
    return True


def multiplicity_from_dims(
    dim_component: int, local_degree: int, b_rank_sqrt: int
) -> int:
    """Slope multiplicity from an isotypic-component dimension.

    Divides the component dimension by local_degree * b_rank_sqrt and requires
    the division to be exact; a remainder signals inconsistent input data.
    """
    require_int(dim_component, "dim_component must be a positive integer", 1)
    require_int(local_degree, "local_degree must be a positive integer", 1)
    require_int(b_rank_sqrt, "b_rank_sqrt must be a positive integer", 1)
    denom = local_degree * b_rank_sqrt
    quotient, remainder = divmod(dim_component, denom)
    if remainder:
        raise NonIntegralMultiplicity(
            f"{dim_component} is not divisible by {local_degree} * {b_rank_sqrt}"
        )
    return quotient
