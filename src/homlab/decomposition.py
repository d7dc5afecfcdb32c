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

from typing import Mapping, Sequence

import numpy as np

from .counterfactual import fit_stack
from .errors import ShapeError
from .indicators import PAPER_INTEGER
from .tables import ContingencyTable, _as_stack, _check_vectors, homogamy_shares

SEQUENTIAL = "sequential"
WITH_INTERACTION = "with-interaction"
SCHEMES = (SEQUENTIAL, WITH_INTERACTION)
# the value columns of decomposition.csv, and the keys of what decompose returns
DECOMPOSITION_COLUMNS = ("share_early", "share_late", "share_counterfactual", "nonstructural",
                         "structural", "interaction")


def _fitted_shares(method, sources, targets, singles, target_singles, rounding, tol,
                   max_iter):
    """One ``fit_stack`` of ``sources`` onto the margins of ``targets``: each
    problem's counterfactual share, as one array, and the error its fit
    raises (for the whole stack, a check that fails every problem), else
    None. A failed problem's fitted counts, and so its share, are NaN."""
    try:
        fits = fit_stack(method, sources, targets.sum(axis=2), targets.sum(axis=1),
                         rounding, tol, max_iter, singles, target_singles)
    except ValueError as exc:  # ShapeError too
        return np.full(len(sources), np.nan), [exc] * len(sources)
    return homogamy_shares(fits.counts), list(fits.errors)


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
    nonstructural = shares_cf - shares_early  # a failed pair's share is NaN
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
    early: ContingencyTable,
    late: ContingencyTable,
    method: str = "nm",
    scheme: str = SEQUENTIAL,
    rounding: str = PAPER_INTEGER,
    tol: float = 1e-10,
    max_iter: int = 10000,
    singles=None,
) -> dict[str, float | None]:
    """Split the change in homogamy share between two generations.

    The counterfactual table carries the late generation's sorting on the
    early generation's marginals, so

    * ``nonstructural = share(counterfactual) - share(early)``;
    * ``sequential``: ``structural`` is the remainder, and the two effects
      add up to ``share(late) - share(early)`` exactly;
    * ``with-interaction``: ``structural`` is instead evaluated at the
      early sorting (fitting the early table onto the late marginals) and
      ``interaction`` is the residual cross term (None under
      ``sequential``).

    ``singles``, which ``csa`` needs, holds each side's (single men, single
    women), early first. Returns the :data:`DECOMPOSITION_COLUMNS` by name.
    The pair is checked first: each side's singles, the scheme, the
    category labels of its two tables, the square tables the share needs,
    and for ``csa`` the early singles. It is then :func:`_decompose_columns`
    on stacks of one, and raises that pair's error.
    """
    sides = singles or (None, None)
    for table, side in zip((early, late), sides):
        _check_vectors(table.counts.shape, singles=side)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme: {scheme!r}")
    if early.row_labels != late.row_labels or early.col_labels != late.col_labels:
        raise ShapeError("generation tables must share category labels")
    for table in (early, late):
        if not table.is_square():
            raise ShapeError(
                f"homogamy share needs a square table, got {table.n_rows}x{table.n_cols}"
            )
    if sides[0] is None and method == "csa":
        raise ShapeError("the surplus-based method needs singles on both sides")
    columns, (error,) = _decompose_columns(
        early.counts[None], late.counts[None], method, scheme, rounding, tol, max_iter,
        [None if side is None else _as_stack(*side) for side in sides],
    )
    if error is not None:
        raise error
    return {name: values[0] for name, values in columns.items()}


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
