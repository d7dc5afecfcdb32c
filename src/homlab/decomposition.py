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

from .counterfactual import _METHODS, fit_stack
from .errors import ShapeError, TableError
from .indicators import PAPER_INTEGER
from .tables import (
    ContingencyTable,
    TableWithSingles,
    _refused,
    couples_of,
    homogamy_share,
    homogamy_shares,
)

SEQUENTIAL = "sequential"
WITH_INTERACTION = "with-interaction"
SCHEMES = (SEQUENTIAL, WITH_INTERACTION)
# the value columns of decomposition.csv, in DecompositionResult's order
DECOMPOSITION_COLUMNS = ("share_early", "share_late", "share_counterfactual", "nonstructural",
                         "structural", "interaction")


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


def _fitted_shares(method, sources, targets, singles, target_singles, rounding, tol,
                   max_iter):
    """One ``fit_stack`` of ``sources`` onto the margins of ``targets``: each
    problem's counterfactual share, as one array, and the error its fit
    raises (for the whole stack, a check that fails every problem) or that
    its fitted counts fail ``ContingencyTable``'s checks with, else None."""
    try:
        fits = fit_stack(method, sources, targets.sum(axis=2), targets.sum(axis=1),
                         rounding, tol, max_iter, singles, target_singles)
    except ValueError as exc:  # ShapeError too
        return np.full(len(sources), np.nan), [exc] * len(sources)
    with np.errstate(invalid="ignore", divide="ignore"):
        shares = homogamy_shares(fits.counts)
    errors = list(fits.errors)
    for k in np.flatnonzero(_refused(fits.counts)):
        if errors[k] is None:
            try:
                ContingencyTable(fits.counts[k])
            except TableError as exc:
                errors[k] = exc
    return shares, errors


def _decompose_columns(early, late, method, scheme, rounding, tol, max_iter, singles):
    """:func:`decompose` on each pair ``(early[i], late[i])`` of two stacks
    of square tables of one shape, (P, n, n), with the early and the late
    (single men, single women) stacks in ``singles`` for ``csa``.

    Returns the :data:`DECOMPOSITION_COLUMNS` by name, each a list of floats
    over the pairs (the interaction all None under ``sequential``), and each
    pair's error or None. Pair ``i``'s values are the ones ``decompose``
    reports, bit for bit, and its error the one it raises; a failed pair's
    values carry no meaning, and its forward fit's error comes first. The
    scheme is not checked here.

    Each side's shares come from one :func:`~homlab.tables.homogamy_shares`
    call, each direction's fits from one
    :func:`~homlab.counterfactual.fit_stack` call, and each effect from one
    array operation in the per-pair float arithmetic's order, bit for bit.
    """
    shares_early, shares_late = homogamy_shares(early), homogamy_shares(late)
    settings = (rounding, tol, max_iter)
    shares_cf, errors = _fitted_shares(method, late, early, singles[1], singles[0], *settings)
    with np.errstate(invalid="ignore"):  # a failed pair's NaN or inf
        nonstructural = shares_cf - shares_early
        if scheme != WITH_INTERACTION:
            structural, interaction = shares_late - shares_cf, [None] * len(errors)
        else:
            shares_rev, reverse = _fitted_shares(method, early, late, singles[0], singles[1],
                                                 *settings)
            errors = [e if e is not None else r for e, r in zip(errors, reverse)]
            structural = shares_rev - shares_early
            interaction = (shares_late - shares_early - nonstructural - structural).tolist()
    values = (shares_early, shares_late, shares_cf, nonstructural, structural)
    return dict(zip(DECOMPOSITION_COLUMNS, [*(v.tolist() for v in values), interaction])), errors


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

    The pair is checked first: the category labels of its two tables, the
    square tables the share needs, and for ``csa`` the early singles. It is
    then :func:`_decompose_columns` on stacks of one, and raises that pair's
    error.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme: {scheme!r}")
    early_c, late_c = couples_of(early), couples_of(late)
    if early_c.row_labels != late_c.row_labels or early_c.col_labels != late_c.col_labels:
        raise ShapeError("generation tables must share category labels")
    for side in (early_c, late_c):
        if not side.is_square():
            homogamy_share(side)  # raises the share's ShapeError
    singles = [(t.single_men[None], t.single_women[None])
               if isinstance(t, TableWithSingles) else None for t in (early, late)]
    if singles[0] is None and method == "csa":
        raise ShapeError("the surplus-based method needs singles on both sides")
    columns, (error,) = _decompose_columns(early_c.counts[None], late_c.counts[None], method,
                                           scheme, rounding, tol, max_iter, singles)
    if error is not None:
        raise error
    return DecompositionResult(_METHODS[method][0], scheme, *(v[0] for v in columns.values()))


def decade_label(start_year: int) -> str:
    return f"{start_year}s"


def cumulate(
    waves: Sequence[int],
    anchor_year: int,
    anchor_value: float | None,
    effects: Mapping[str, float | None],
) -> dict[int, float | None]:
    """Add up per-decade effects on top of the anchor wave's share: the
    cumulative value of each wave.

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
    return cumulative
