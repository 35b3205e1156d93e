"""Existence criteria for hypersymmetric points from slope data.

Balanced: every upper place carries the same number of distinct slopes and a
single common multiplicity.  Symmetric: every upper place carries the same
slope count and the same multiset of multiplicities; equivalently the data is
an amalgamation of pairwise slope-disjoint balanced components, which
:func:`decompose` produces explicitly.  A stratum contains a simple
hypersymmetric point iff its data is balanced, and some hypersymmetric point
iff it is symmetric.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import NotCM, NotSymmetric, PreconditionNotHypersymmetric, SchemaError, require_int
from .pel import INERT, SPLIT, PELSlopeDatum, condition_star
from .polygon import Fraction, NewtonPolygon


class VerdictLevel(enum.Enum):
    SIMPLE = "simple"
    HYPERSYMMETRIC = "hypersymmetric"
    NONE = "none"


class TransferVerdict(enum.Enum):
    TRANSFERS = "transfers"
    UNKNOWN = "unknown"


class SplittingBranch(enum.Enum):
    INERT = "inert"
    SPLIT_WITH_STAR = "split_with_star"
    FAILS = "fails"


@dataclass(frozen=True)
class BalancedDecomposition:
    """Pairwise slope-disjoint balanced components amalgamating to the input."""

    components: tuple[PELSlopeDatum, ...]


@dataclass(frozen=True)
class HypVerdict:
    level: VerdictLevel
    witness: BalancedDecomposition | None

    def __post_init__(self) -> None:
        if self.level is not VerdictLevel.NONE and self.witness is None:
            raise SchemaError("non-None verdict requires a witness decomposition")


@dataclass(frozen=True)
class HypothesisReport:
    """Checklist for the two density-theorem hypotheses.

    ``hypersymmetric`` is the existence hypothesis; ``branch`` records which
    splitting hypothesis holds (all places inert, or all split with disjoint
    pair slopes), and ``satisfied`` is their conjunction.
    """

    hypersymmetric: bool
    branch: SplittingBranch
    satisfied: bool


def is_balanced(datum: PELSlopeDatum) -> bool:
    """Symmetric, with one common multiplicity throughout."""
    if not is_B_symmetric(datum):
        return False
    return len({m for _, p in datum.polygons for m in p.multiplicities()}) == 1


def is_B_symmetric(datum: PELSlopeDatum) -> bool:
    """Same slope count and same multiplicity multiset at every place."""
    polys = [p for _, p in datum.polygons]
    counts = {len(p.parts) for p in polys}
    if len(counts) != 1 or counts == {0}:
        return False
    multisets = {tuple(sorted(p.multiplicities())) for p in polys}
    return len(multisets) == 1


def decompose(datum: PELSlopeDatum) -> BalancedDecomposition:
    """Split symmetric data into disjoint balanced components.

    Slopes are grouped by multiplicity value; a multiplicity appearing c times
    per place yields c components of one slope per place, pairing slopes across
    places by ascending order within the class.  Components are emitted in
    (multiplicity, slope-rank) order, which makes the output deterministic.
    """
    if not is_B_symmetric(datum):
        raise NotSymmetric("datum is not symmetric; no balanced decomposition exists")
    by_mult: dict[str, dict[int, list[Fraction]]] = {}
    for name, poly in datum.polygons:
        classes: dict[int, list[Fraction]] = {}
        for slope, mult in poly.parts:
            classes.setdefault(mult, []).append(slope)
        by_mult[name] = classes
    class_sizes = sorted(
        (mult, len(slopes))
        for mult, slopes in by_mult[datum.polygons[0][0]].items()
    )
    components = []
    for mult, size in class_sizes:
        for i in range(size):
            piece = {
                name: NewtonPolygon(((by_mult[name][mult][i], mult),))
                for name, _ in datum.polygons
            }
            components.append(PELSlopeDatum.of(datum.tower, piece))
    return BalancedDecomposition(components=tuple(components))


def hypersymmetric_verdict(datum: PELSlopeDatum) -> HypVerdict:
    """Simple if balanced, hypersymmetric if merely symmetric, none otherwise."""
    if is_balanced(datum):
        return HypVerdict(VerdictLevel.SIMPLE, decompose(datum))
    if is_B_symmetric(datum):
        return HypVerdict(VerdictLevel.HYPERSYMMETRIC, decompose(datum))
    return HypVerdict(VerdictLevel.NONE, None)


def subfield_transfer(datum: PELSlopeDatum) -> TransferVerdict:
    """Whether hypersymmetry provably descends to the base field.

    Transfers when every base place is inert, or when every base place is
    split and the pair slope sets are disjoint.  Anything else is Unknown:
    these are sufficient conditions only, and mixed or failing towers are
    genuinely undecided.
    """
    if not datum.tower.cm:
        raise NotCM("transfer only applies over a quadratic extension")
    if hypersymmetric_verdict(datum).level is VerdictLevel.NONE:
        raise PreconditionNotHypersymmetric(
            "datum admits no hypersymmetric point; nothing to transfer"
        )
    if _splitting_branch(datum) is SplittingBranch.FAILS:
        return TransferVerdict.UNKNOWN
    return TransferVerdict.TRANSFERS


def _splitting_branch(datum: PELSlopeDatum) -> SplittingBranch:
    """All places inert, or all split with condition (*), or neither."""
    kinds = {bp.kind for bp in datum.tower.base_places}
    if kinds == {INERT}:
        return SplittingBranch.INERT
    if kinds == {SPLIT} and condition_star(datum):
        return SplittingBranch.SPLIT_WITH_STAR
    return SplittingBranch.FAILS


def is_zeta_B(datum: PELSlopeDatum, brauer_order: int) -> bool:
    """True iff every upper place carries exactly (1/2)^brauer_order.

    The Brauer-class order is a caller input, never computed here.
    """
    require_int(brauer_order, "brauer_order must be a positive integer", 1)
    target = NewtonPolygon(((Fraction(1, 2), brauer_order),))
    return all(poly == target for _, poly in datum.polygons)


def theorem_checklist(datum: PELSlopeDatum) -> HypothesisReport:
    """Evaluate both density-theorem hypotheses on a tower with extension."""
    if not datum.tower.cm:
        raise NotCM("checklist only applies over a quadratic extension")
    hyp1 = hypersymmetric_verdict(datum).level is not VerdictLevel.NONE
    branch = _splitting_branch(datum)
    return HypothesisReport(
        hypersymmetric=hyp1,
        branch=branch,
        satisfied=hyp1 and branch is not SplittingBranch.FAILS,
    )


def verdict_to_json(verdict: HypVerdict) -> dict:
    components = verdict.witness.components if verdict.witness is not None else ()
    return {
        "level": verdict.level.value,
        "components": [c.to_json() for c in components],
    }
