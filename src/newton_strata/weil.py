"""Valuation exponents for a Weil number with prescribed slopes at CM places.

Given slopes at split conjugate pairs (w, wbar) with slope(w) + slope(wbar) = 1
and an ideal class number h, this produces the exponent data (a, c, m, n) of
the standard construction: write the smaller slope of each pair as m/c for one
common even denominator c, set n = c - m, and take a = h * c.  Only valuation
vectors are modeled; the algebraic numbers themselves are not.  Ramification
indices are taken to be 1 (p unramified).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import SchemaError, SlopesDoNotPair, require_int
from .pel import _check_name, _expect_keys
from .polygon import as_slope, parse_slope


@dataclass(frozen=True)
class CMPlaceSlopes:
    """Slope at each split pair (w, wbar); the conjugate slope 1 - s is derived."""

    pairs: tuple[tuple[str, str, Fraction], ...]
    class_number_h: int

    def __post_init__(self) -> None:
        require_int(self.class_number_h, "class number must be a positive integer", 1)
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if not self.pairs:
            raise SchemaError("at least one place pair required")
        names = []
        checked = []
        for w, wbar, slope in self.pairs:
            names += [_check_name(w), _check_name(wbar)]
            checked.append((w, wbar, as_slope(slope)))
        if len(set(names)) != len(names):
            raise SchemaError("place names must be distinct across all pairs")
        object.__setattr__(self, "pairs", tuple(checked))

    @classmethod
    def from_pairs(cls, entries, class_number_h: int) -> "CMPlaceSlopes":
        """Build from (w, wbar, slope_w[, slope_wbar]) tuples.

        When the conjugate slope is given explicitly it must satisfy
        slope_w + slope_wbar = 1.
        """
        pairs = []
        for entry in entries:
            if len(entry) == 3:
                w, wbar, slope = entry
            elif len(entry) == 4:
                w, wbar, slope, conj = entry
                if as_slope(slope) + as_slope(conj) != 1:
                    raise SlopesDoNotPair(
                        f"pair ({w}, {wbar}): slopes {slope} and {conj} do not sum to 1"
                    )
            else:
                raise SchemaError(f"pair entry must have 3 or 4 fields: {entry!r}")
            pairs.append((w, wbar, as_slope(slope)))
        return cls(tuple(pairs), class_number_h)

    @classmethod
    def from_json(cls, obj) -> "CMPlaceSlopes":
        _expect_keys(obj, {"h", "pairs"}, "weil input")
        raw = obj["pairs"]
        if not isinstance(raw, list):
            raise SchemaError("weil input key 'pairs' must be an array")
        pairs = []
        for entry in raw:
            _expect_keys(entry, {"w", "wbar", "slope"}, "pair")
            pairs.append((entry["w"], entry["wbar"], parse_slope(entry["slope"])))
        return cls(tuple(pairs), obj["h"])


@dataclass(frozen=True)
class WeilExponents:
    """Exponent data: a = h * c, c even, and (m, n) with m + n = c per pair."""

    a: int
    c: int
    per_pair: tuple[tuple[int, int], ...]


def weil_parameters(slopes: CMPlaceSlopes, scale: int = 1) -> WeilExponents:
    """Exponents realizing the prescribed slopes as valuation ratios.

    ``c`` is the least even positive integer divisible by every slope
    denominator (the minimal "sufficiently divisible" choice), times the
    optional ``scale`` factor; scaling c leaves every ratio fixed.
    """
    require_int(scale, "scale must be a positive integer", 1)
    denominators = [s.denominator for _, _, s in slopes.pairs]
    c = lcm(2, *denominators) * scale
    per_pair = []
    for _, _, slope in slopes.pairs:
        low = min(slope, 1 - slope)
        m = int(low * c)
        per_pair.append((m, c - m))
    return WeilExponents(a=slopes.class_number_h * c, c=c, per_pair=tuple(per_pair))


def valuation_ratios(
    slopes: CMPlaceSlopes, exponents: WeilExponents
) -> tuple[tuple[Fraction, Fraction], ...]:
    """Reconstructed ratios (at w, at wbar) for each pair.

    The exponent m sits at the place achieving the smaller slope and n at its
    conjugate, so the ratios must reproduce the prescribed slopes exactly.
    """
    out = []
    for (_, _, slope), (m, n) in zip(slopes.pairs, exponents.per_pair):
        at_min = Fraction(m, exponents.c)
        at_max = Fraction(n, exponents.c)
        if slope <= Fraction(1, 2):
            out.append((at_min, at_max))
        else:
            out.append((at_max, at_min))
    return tuple(out)


def exponents_to_json(slopes: CMPlaceSlopes, exponents: WeilExponents) -> dict:
    return {
        "a": exponents.a,
        "c": exponents.c,
        "per_pair": [
            {
                "w": w,
                "wbar": wbar,
                "slope": str(slope),
                "m": m,
                "n": n,
                "inert_compatible": m == n,
            }
            for (w, wbar, slope), (m, n) in zip(slopes.pairs, exponents.per_pair)
        ],
    }
