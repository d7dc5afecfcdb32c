"""Decompose intergenerational change in homogamy into its two drivers.

The observed change in the share of same-education couples between an
earlier and a later generation mixes two forces: the marginal educational
distributions changed (the structural factor), and who wants to marry whom
changed (the non-structural factor, the sorting behavior itself). Fitting
the later table onto the earlier marginals isolates the second force: the
counterfactual share answers "what if only sorting had changed".

Two accounting schemes are offered. ``sequential`` charges the remainder to
the structural factor, so the two effects add up to the observed change.
``with-interaction`` evaluates each factor's effect at the early baseline
(which also requires fitting the early table onto the late marginals) and
reports the cross term separately; swapping the generations then negates
``nonstructural + interaction``, making the attribution order-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .counterfactual import fit
from .errors import InsufficientDataError, ShapeError
from .indicators import PAPER_INTEGER
from .tables import (
    ContingencyTable,
    TableWithSingles,
    couples_of,
    homogamy_share,
    marginals,
)

SEQUENTIAL = "sequential"
WITH_INTERACTION = "with-interaction"
SCHEMES = (SEQUENTIAL, WITH_INTERACTION)


@dataclass(frozen=True)
class DecompositionResult:
    """Shares and effects for one generation pair and one method."""

    method: str
    scheme: str
    share_early: float
    share_late: float
    share_counterfactual: float
    nonstructural_effect: float
    structural_effect: float
    interaction_effect: float | None = None


@dataclass(frozen=True)
class TrendSeries:
    """Observed anchor level plus cumulated sorting-only effects per wave.

    ``effects[decade]`` is the non-structural effect of that decade's
    generation change (None when the decade is missing or excluded).
    ``cumulative[year]`` is the anchor value plus all effects up to that
    wave; once a decade is missing or excluded, later waves cannot be
    anchored and stay None (gaps are not interpolated).
    """

    anchor_year: int
    anchor_value: float | None  # None when the anchor wave cannot be cut
    effects: Mapping[str, float | None]
    cumulative: Mapping[int, float | None]


def fit_onto(source, target_table, method: str, rounding: str, tol, max_iter):
    """``method``'s fit of ``source`` onto ``target_table``'s couple margins
    and, for ``csa``, onto its singles as well."""
    singles = None
    if isinstance(target_table, TableWithSingles):
        singles = (target_table.single_men, target_table.single_women)
    elif method.strip().lower() == "csa":
        raise ShapeError("the surplus-based method needs singles on both sides")
    return fit(method, source, marginals(couples_of(target_table)), rounding=rounding,
               tol=tol, max_iter=max_iter, target_singles=singles)


def decompose(
    early: ContingencyTable | TableWithSingles,
    late: ContingencyTable | TableWithSingles,
    method: str = "nm",
    scheme: str = SEQUENTIAL,
    rounding: str = PAPER_INTEGER,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> DecompositionResult:
    """Split the change in homogamy share between two generations.

    The counterfactual table carries the late generation's sorting on the
    early generation's marginals, so

    * ``nonstructural_effect = share(counterfactual) - share(early)``;
    * ``sequential``: ``structural_effect`` is the remainder, and the two
      effects add up to ``share(late) - share(early)`` exactly;
    * ``with-interaction``: ``structural_effect`` is instead evaluated at the
      early sorting (fitting the early table onto the late marginals) and
      ``interaction_effect`` is the residual cross term.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme: {scheme!r}")
    early_c, late_c = couples_of(early), couples_of(late)
    if early_c.row_labels != late_c.row_labels or early_c.col_labels != late_c.col_labels:
        raise ShapeError("generation tables must share category labels")

    share_early = homogamy_share(early_c)
    share_late = homogamy_share(late_c)
    counter = fit_onto(late, early, method, rounding, tol, max_iter)
    share_cf = homogamy_share(counter.table)
    nonstructural = share_cf - share_early
    delta = share_late - share_early

    if scheme == SEQUENTIAL:
        return DecompositionResult(
            method=counter.method,
            scheme=scheme,
            share_early=share_early,
            share_late=share_late,
            share_counterfactual=share_cf,
            nonstructural_effect=nonstructural,
            structural_effect=share_late - share_cf,
        )

    reverse = fit_onto(early, late, method, rounding, tol, max_iter)
    structural = homogamy_share(reverse.table) - share_early
    return DecompositionResult(
        method=counter.method,
        scheme=scheme,
        share_early=share_early,
        share_late=share_late,
        share_counterfactual=share_cf,
        nonstructural_effect=nonstructural,
        structural_effect=structural,
        interaction_effect=delta - nonstructural - structural,
    )


def decade_label(start_year: int) -> str:
    return f"{start_year}s"


def cumulative_series(
    waves: Sequence[int],
    tables: Mapping[int, ContingencyTable | TableWithSingles],
    method: str = "nm",
    scheme: str = SEQUENTIAL,
    rounding: str = PAPER_INTEGER,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> TrendSeries:
    """Cumulate per-decade sorting effects on top of the first observed share.

    ``waves`` is the configured census-year grid; ``tables`` maps the years
    that are actually present. Effects are computed between adjacent grid
    years; a missing wave leaves that decade's effect (and every later
    cumulative value) as a gap.
    """
    present = [y for y in waves if y in tables]
    if len(present) < 2:
        raise InsufficientDataError("need at least two waves to build a trend series")
    effects = {
        decade_label(prev): (
            decompose(
                tables[prev], tables[cur], method, scheme, rounding, tol, max_iter
            ).nonstructural_effect
            if prev in tables and cur in tables
            else None
        )
        for prev, cur in zip(waves, waves[1:])
    }
    anchor_value = homogamy_share(couples_of(tables[present[0]]))
    return cumulate(waves, present[0], anchor_value, effects)


def cumulate(
    waves: Sequence[int],
    anchor_year: int,
    anchor_value: float | None,
    effects: Mapping[str, float | None],
) -> TrendSeries:
    """Add up per-decade effects on top of the anchor wave's share.

    ``effects`` maps each decade label of the ``waves`` grid to its effect,
    None for a missing or excluded decade. Waves before the anchor, and
    every wave from the end of a gap on, get a None cumulative value, as
    every wave does when the anchor's share is None.
    """
    cumulative: dict[int, float | None] = {waves[0]: None}
    running: float | None = None
    for prev, cur in zip(waves, waves[1:]):
        if prev == anchor_year:
            running = anchor_value
            cumulative[prev] = anchor_value
        effect = effects[decade_label(prev)]
        running = None if running is None or effect is None else running + effect
        cumulative[cur] = running
    return TrendSeries(
        anchor_year=anchor_year,
        anchor_value=anchor_value,
        effects=dict(effects),
        cumulative=cumulative,
    )
