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

import numpy as np

from .counterfactual import _METHODS, fit, fit_stack
from .errors import HomlabError, ShapeError
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


def _target_singles(target_table, method: str):
    """The singles a fit onto ``target_table`` targets: its own, or None for
    a table without them, which ``csa`` refuses."""
    if isinstance(target_table, TableWithSingles):
        return target_table.single_men, target_table.single_women
    if method.strip().lower() == "csa":
        raise ShapeError("the surplus-based method needs singles on both sides")
    return None


def fit_onto(source, target_table, method: str, rounding: str, tol, max_iter):
    """``method``'s fit of ``source`` onto ``target_table``'s couple margins
    and, for ``csa``, onto its singles as well."""
    return fit(method, source, marginals(couples_of(target_table)), rounding=rounding,
               tol=tol, max_iter=max_iter,
               target_singles=_target_singles(target_table, method))


def _stacked_singles(tables):
    """The singles of ``tables`` as (T, n) men and (T, m) women stacks, or
    None unless every table carries them."""
    if not all(isinstance(t, TableWithSingles) for t in tables):
        return None
    return (np.stack([t.single_men for t in tables]),
            np.stack([t.single_women for t in tables]))


def _fit_all(method, sources, targets, rounding, tol, max_iter):
    """One ``fit_stack`` of ``sources`` onto the margins and singles of
    ``targets``, or the error it raises for the whole stack."""
    counts = np.stack([couples_of(t).counts for t in sources])
    target = np.stack([couples_of(t).counts for t in targets])
    try:
        return fit_stack(method, counts, target.sum(axis=2), target.sum(axis=1),
                         rounding, tol, max_iter, _stacked_singles(sources),
                         _stacked_singles(targets))
    except ValueError as exc:  # ShapeError too: a check that fails every problem
        return exc


def _fitted_share(fits, k: int, source) -> float:
    """Problem ``k``'s counterfactual share, or the error its fit raised."""
    error = fits if isinstance(fits, Exception) else fits.errors[k]
    if error is not None:
        raise error
    return homogamy_share(couples_of(source).with_counts(fits.counts[k]))


def decompose_stack(
    pairs: Sequence[tuple[ContingencyTable | TableWithSingles,
                          ContingencyTable | TableWithSingles]],
    method: str = "nm",
    scheme: str = SEQUENTIAL,
    rounding: str = PAPER_INTEGER,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> list[DecompositionResult | Exception]:
    """:func:`decompose` on every ``(early, late)`` pair, fitted as stacks.

    The pairs are grouped by source shape; each group takes one
    :func:`~homlab.counterfactual.fit_stack` call that fits the late tables
    onto the early margins and, under ``with-interaction``, a second one
    that fits the early tables onto the late margins. Entry ``i`` of the
    result is what ``decompose`` returns on pair ``i``, bit for bit, or the
    error it raises there, with the same class and message.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme: {scheme!r}")
    outcomes: list = [None] * len(pairs)
    shares: dict[int, tuple[float, float]] = {}
    groups: dict[tuple, list[int]] = {}
    for i, (early, late) in enumerate(pairs):
        early_c, late_c = couples_of(early), couples_of(late)
        try:
            if (early_c.row_labels != late_c.row_labels
                    or early_c.col_labels != late_c.col_labels):
                raise ShapeError("generation tables must share category labels")
            shares[i] = homogamy_share(early_c), homogamy_share(late_c)
            _target_singles(early, method)  # fit_onto's check: csa needs early singles
        except HomlabError as exc:
            outcomes[i] = exc
            continue
        key = (late_c.counts.shape, isinstance(late, TableWithSingles))
        groups.setdefault(key, []).append(i)

    for members in groups.values():
        early = [pairs[i][0] for i in members]
        late = [pairs[i][1] for i in members]
        forward = _fit_all(method, late, early, rounding, tol, max_iter)
        reverse = (_fit_all(method, early, late, rounding, tol, max_iter)
                   if scheme == WITH_INTERACTION else None)
        for k, i in enumerate(members):
            share_early, share_late = shares[i]
            try:
                share_cf = _fitted_share(forward, k, late[k])
                nonstructural = share_cf - share_early
                if reverse is None:
                    structural, interaction = share_late - share_cf, None
                else:
                    structural = _fitted_share(reverse, k, early[k]) - share_early
                    delta = share_late - share_early
                    interaction = delta - nonstructural - structural
            except (HomlabError, ValueError) as exc:
                outcomes[i] = exc
                continue
            outcomes[i] = DecompositionResult(
                _METHODS[method.strip().lower()][0], scheme, share_early, share_late,
                share_cf, nonstructural, structural, interaction)
    return outcomes


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

    This is :func:`decompose_stack` on one pair, and it raises that pair's
    error.
    """
    (result,) = decompose_stack([(early, late)], method, scheme, rounding, tol, max_iter)
    if isinstance(result, Exception):
        raise result
    return result


def decade_label(start_year: int) -> str:
    return f"{start_year}s"


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
