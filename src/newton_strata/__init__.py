"""Exact Newton-polygon combinatorics and hypersymmetric-existence verdicts."""

from .errors import SlopeDataError
from .hypersym import (
    BalancedDecomposition,
    HypothesisReport,
    HypVerdict,
    SplittingBranch,
    TransferVerdict,
    VerdictLevel,
    decompose,
    hypersymmetric_verdict,
    is_B_symmetric,
    is_balanced,
    is_zeta_B,
    subfield_transfer,
    theorem_checklist,
)
from .muord import Orbit, SignatureDatum, as_datum, mu_ordinary
from .pel import (
    BasePlace,
    PELSlopeDatum,
    PlaceTower,
    condition_star,
    multiplicity_from_dims,
    restrict,
)
from .polygon import (
    EMPTY,
    NewtonPolygon,
    PolygonMeasures,
    as_slope,
    newton_point_average,
)
from .strata import StrataPoset, bueltel_wedhorn, build_poset, enumerate_siegel, to_dot
from .weil import CMPlaceSlopes, WeilExponents, valuation_ratios, weil_parameters

__all__ = [
    "BalancedDecomposition",
    "BasePlace",
    "CMPlaceSlopes",
    "EMPTY",
    "HypVerdict",
    "HypothesisReport",
    "NewtonPolygon",
    "Orbit",
    "PELSlopeDatum",
    "PlaceTower",
    "PolygonMeasures",
    "SignatureDatum",
    "SlopeDataError",
    "SplittingBranch",
    "StrataPoset",
    "TransferVerdict",
    "VerdictLevel",
    "WeilExponents",
    "as_datum",
    "as_slope",
    "bueltel_wedhorn",
    "build_poset",
    "condition_star",
    "decompose",
    "enumerate_siegel",
    "hypersymmetric_verdict",
    "is_B_symmetric",
    "is_balanced",
    "is_zeta_B",
    "mu_ordinary",
    "multiplicity_from_dims",
    "newton_point_average",
    "restrict",
    "subfield_transfer",
    "theorem_checklist",
    "to_dot",
    "valuation_ratios",
    "weil_parameters",
]
