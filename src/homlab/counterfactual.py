"""Counterfactual contingency tables under five factor-preserving methods.

Each method answers the same question: what would the joint educational
distribution of couples look like with one generation's marginal educational
distributions (the structural factor) but the other generation's sorting
behavior (the non-structural factor)? The methods differ only in which
statistic of the source table they hold fixed while re-targeting the
marginals:

========  =====================================================
method    preserved statistic of the source table
========  =====================================================
IPF       2x2 odds ratio (all cross ratios for larger tables)
MDbA      matrix determinant, rescaled to the target total
MEDA      projection weight between random and assortative
CSA       marital surplus matrix (needs singles counts)
NM        full matrix of split-wise LL values
========  =====================================================

All fits are pure and deterministic given their parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    InfeasibilityError,
    ShapeError,
    UndefinedWeightError,
)
from .indicators import (
    PAPER_INTEGER,
    ROUNDING_MODES,
    _ll_benchmark,
    gll,
    surplus_matrix,
)
from .tables import (
    ContingencyTable,
    Marginals,
    TableWithSingles,
    couples_of,
    marginals,
    pam_match,
    random_match,
)

# The method registry. Its order fixes the criteria RNG stream of each
# method and the column order of the method criteria matrix.
METHOD_TAGS = ("ipf", "mdba", "meda", "csa", "nm")

_NEG_TOL = 1e-9

# the reachability check enumerates every subset of the shorter axis, so
# wider tables are left to the sweep loop
_REACH_MAX_CATEGORIES = 12


@dataclass(frozen=True)
class CounterfactualResult:
    """A fitted table plus convergence and feasibility diagnostics."""

    table: ContingencyTable
    method: str
    iterations: int = 0
    max_marginal_error: float = 0.0
    feasible: bool = True
    diagnostics: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class SurvivalGrid:
    """Top-right cumulative sums of a table, the inversion device for NM.

    ``values[j, k]`` is the mass in rows strictly above split ``j`` and
    columns strictly above split ``k`` (1-based cells ``i > j``, ``l > k``),
    for ``j = 0..n`` and ``k = 0..m``. ``values[0, 0]`` is the total and the
    last row and column are zero. Cells are recovered by inclusion-exclusion:
    ``cell[i, l] = S[i-1, l-1] - S[i, l-1] - S[i-1, l] + S[i, l]``.
    """

    values: np.ndarray

    @classmethod
    def from_table(cls, table: ContingencyTable) -> "SurvivalGrid":
        n, m = table.n_rows, table.n_cols
        values = np.zeros((n + 1, m + 1))
        values[:n, :m] = table.counts[::-1, ::-1].cumsum(0).cumsum(1)[::-1, ::-1]
        return cls(values=values)

    def to_cells(self) -> np.ndarray:
        s = self.values
        return s[:-1, :-1] - s[1:, :-1] - s[:-1, 1:] + s[1:, 1:]


def _check_dims(source_rows: int, source_cols: int, target: Marginals):
    if target.n_rows != source_rows or target.n_cols != source_cols:
        raise ShapeError(
            f"target marginals are {target.n_rows}x{target.n_cols}, "
            f"source table is {source_rows}x{source_cols}"
        )
    if target.total <= 0:
        raise DegenerateInputError("target total must be positive")


def _marginal_error(counts: np.ndarray, target: Marginals) -> float:
    row_err = np.abs(counts.sum(axis=1) - target.row_sums).max()
    col_err = np.abs(counts.sum(axis=0) - target.col_sums).max()
    return float(max(row_err, col_err))


def _clamp_tiny_negatives(counts: np.ndarray, context: str) -> np.ndarray:
    worst = counts.min()
    if worst < -_NEG_TOL:
        i, j = np.unravel_index(np.argmin(counts), counts.shape)
        raise InfeasibilityError(
            f"{context}: cell ({i},{j}) would be {worst:.6g} < 0",
            context={"cell": (int(i), int(j)), "value": float(worst)},
        )
    return np.where(counts < 0, 0.0, counts)


def _reject_unreachable_target(support: np.ndarray, target: Marginals, tol: float):
    """Raise when no table on ``support`` comes within ``tol`` of ``target``.

    Hall's condition for a transportation problem (Gale 1957): a set of rows
    ``R`` can only send its target mass to the columns ``N(R)`` that its
    support cells reach. If ``rows(R) - cols(N(R))`` exceeds ``(n + m) * tol``,
    then every table on this support misses some marginal by more than
    ``tol``, because the row and column errors over ``R`` and ``N(R)`` add up
    to at least that gap. Subsets are enumerated over the shorter axis.
    """
    need, have, axis, other = target.row_sums, target.col_sums, "rows", "columns"
    if support.shape[0] > support.shape[1]:
        support, need, have = support.T, have, need
        axis, other = other, axis
    k = support.shape[0]
    if k > _REACH_MAX_CATEGORIES:
        return
    subsets = (np.arange(1, 2**k)[:, None] >> np.arange(k)) & 1
    reached = (subsets @ support) > 0
    gaps = subsets @ need - reached @ have
    worst = int(np.argmax(gaps))
    if gaps[worst] > sum(support.shape) * tol:
        members = np.flatnonzero(subsets[worst]).tolist()
        reachable = np.flatnonzero(reached[worst]).tolist()
        raise InfeasibilityError(
            f"target unreachable: source {axis} {members} reach only {other} "
            f"{reachable}, whose target falls short by {gaps[worst]:.6g}",
            context={axis: members, other: reachable, "gap": float(gaps[worst])},
        )


def ipf_fit(
    source: ContingencyTable,
    target: Marginals,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> CounterfactualResult:
    """Iterative proportional fitting: alternate row and column rescaling.

    Each sweep multiplies every row by the ratio of its target sum to its
    current sum, then does the same for columns, until the largest absolute
    marginal discrepancy falls below ``tol``. Rescaling never changes cross
    ratios, so on a strictly positive 2x2 source the odds ratio of the result
    equals that of the source; zero cells of the source are structural and
    stay zero. A target that the source's zero pattern cannot reach raises
    :class:`InfeasibilityError` before any sweep; a target reachable only in
    the limit (a support cell tending to zero) still sweeps until ``max_iter``
    and raises :class:`ConvergenceError`.
    """
    _check_dims(source.n_rows, source.n_cols, target)
    counts = source.counts.astype(float).copy()
    row_target, col_target = target.row_sums, target.col_sums
    rs = counts.sum(axis=1)
    cs = counts.sum(axis=0)
    if np.any((rs == 0) & (row_target > 0)):
        raise InfeasibilityError("a target row is positive but the source row is all zeros")
    if np.any((cs == 0) & (col_target > 0)):
        raise InfeasibilityError("a target column is positive but the source column is all zeros")
    if counts.min() == 0:
        _reject_unreachable_target(counts > 0, target, tol)

    n, m = counts.shape
    err = max(np.abs(rs - row_target).max(), np.abs(cs - col_target).max())
    iterations = 0
    while err > tol:
        if iterations >= max_iter:
            raise ConvergenceError(
                f"IPF did not reach tol={tol:g} in {max_iter} sweeps "
                f"(residual {err:.3g})"
            )
        counts *= np.divide(row_target, rs, out=np.zeros(n), where=rs > 0)[:, None]
        cs = counts.sum(axis=0)
        counts *= np.divide(col_target, cs, out=np.zeros(m), where=cs > 0)[None, :]
        iterations += 1
        # these row sums are also the next sweep's divisors
        rs = counts.sum(axis=1)
        err = max(np.abs(rs - row_target).max(), np.abs(counts.sum(axis=0) - col_target).max())

    return CounterfactualResult(
        table=source.with_counts(counts),
        method="IPF",
        iterations=iterations,
        max_marginal_error=float(err),
        feasible=True,
        diagnostics={"tol": tol},
    )


def mdba_fit(source: ContingencyTable, target: Marginals) -> CounterfactualResult:
    """Determinant-preserving transform, defined for 2x2 tables only.

    With the marginals fixed the determinant is affine in the single free
    cell ``d``, so the method solves one linear equation. The preserved value
    is the source determinant rescaled to the target total (the determinant
    grows with the square of the population, so the raw value would mix
    sorting with population size). A solution with a negative cell does not
    exist as a table and raises.
    """
    if source.n_rows != 2 or source.n_cols != 2:
        raise ShapeError("the determinant-based method needs dichotomous traits")
    _check_dims(2, 2, target)
    (a, b), (c, d) = source.counts
    det_source = float(a * d - b * c)
    scale = target.total / source.total
    det_target = det_source * scale * scale
    row_h = float(target.row_sums[1])
    col_h = float(target.col_sums[1])
    # det = d*T - col_h*row_h once the marginals are substituted in
    d_new = (det_target + col_h * row_h) / target.total
    counts = np.array(
        [
            [target.row_sums[0] - (col_h - d_new), col_h - d_new],
            [row_h - d_new, d_new],
        ]
    )
    counts = _clamp_tiny_negatives(counts, "determinant-preserving fit")
    return CounterfactualResult(
        table=source.with_counts(counts),
        method="MDbA",
        iterations=0,
        max_marginal_error=_marginal_error(counts, target),
        feasible=True,
        diagnostics={"det_target": det_target},
    )


def meda_weight(source: ContingencyTable) -> float:
    """Least-squares weight of the source between random and assortative.

    The weight minimizes the Euclidean distance between the source and the
    combination ``(1 - v) * random + v * assortative`` built on the source's
    own marginals; in closed form it is the ratio of two inner products.
    """
    m = marginals(source)
    rnd = random_match(m).counts
    pam = pam_match(m).counts
    direction = pam - rnd
    dd = float((direction * direction).sum())
    if dd <= (1e-9 * m.total) ** 2:
        raise UndefinedWeightError(
            "projection weight undefined: the random and assortative "
            "benchmarks coincide for these marginals"
        )
    offset = source.counts - rnd
    return float((offset * direction).sum() / dd)


def meda_fit(source: ContingencyTable, target: Marginals) -> CounterfactualResult:
    """Transplant the source's projection weight onto the target marginals.

    The result is ``(1 - v) * random + v * assortative`` evaluated at the
    target marginals, with ``v`` estimated from the source. ``v`` is not
    clamped to [0, 1]: a weight outside that range that produces a negative
    cell is exactly the impossible-counterfactual signal and raises, with the
    unclamped weight reported.
    """
    _check_dims(source.n_rows, source.n_cols, target)
    v = meda_weight(source)
    rnd = random_match(target, source.row_labels, source.col_labels).counts
    pam = pam_match(target, source.row_labels, source.col_labels).counts
    counts = (1.0 - v) * rnd + v * pam
    worst = counts.min()
    if worst < -_NEG_TOL:
        i, j = np.unravel_index(np.argmin(counts), counts.shape)
        raise InfeasibilityError(
            f"projection fit: weight v={v:.6g} drives cell ({i},{j}) to {worst:.6g}",
            context={"v": float(v), "cell": (int(i), int(j)), "value": float(worst)},
        )
    counts = np.where(counts < 0, 0.0, counts)
    return CounterfactualResult(
        table=source.with_counts(counts),
        method="MEDA",
        iterations=0,
        max_marginal_error=_marginal_error(counts, target),
        feasible=True,
        diagnostics={"v": v},
    )


def nm_fit(
    source: ContingencyTable,
    target: Marginals,
    rounding: str = PAPER_INTEGER,
) -> CounterfactualResult:
    """Rebuild a table on the target marginals with the source's LL matrix.

    For every ordered split the LL value of the target aggregation is forced
    to equal the source's, which pins the top-right survival sum at that
    split: ``d = level * (d_max - rho) + rho``, with the random benchmark
    ``rho`` and the ceiling ``d_max`` taken from the same helper the LL
    kernel of ``gll`` uses, evaluated on all splits at once. The full
    survival grid (boundaries come from the target marginals alone) then
    yields the cells by inclusion-exclusion. ``rounding`` selects
    how the random benchmark is treated inside each split: floored as in the
    integer-count formula (``paper-integer``) or kept exact (``continuous``,
    the well-posed choice on non-integer marginals and the mode that commutes
    with category merging). A negative recovered cell means no table with the
    target marginals carries this much sorting; that raises, carrying the
    offending cell.
    """
    if rounding not in ROUNDING_MODES:
        raise ValueError(f"unknown rounding mode: {rounding!r}")
    _check_dims(source.n_rows, source.n_cols, target)
    levels = gll(source, rounding)

    n, m = source.n_rows, source.n_cols
    total = target.total
    row_tail = np.concatenate([np.cumsum(target.row_sums[::-1])[::-1], [0.0]])
    col_tail = np.concatenate([np.cumsum(target.col_sums[::-1])[::-1], [0.0]])

    grid = np.zeros((n + 1, m + 1))
    grid[:, 0] = row_tail
    grid[0, :] = col_tail
    grid[0, 0] = total
    _, rho, d_max = _ll_benchmark(
        row_tail[1:n, None], col_tail[None, 1:m], total, rounding
    )
    grid[1:n, 1:m] = levels * (d_max - rho) + rho

    counts = SurvivalGrid(values=grid).to_cells()
    counts = _clamp_tiny_negatives(counts, "LL-preserving fit")
    return CounterfactualResult(
        table=source.with_counts(counts),
        method="NM",
        iterations=0,
        max_marginal_error=_marginal_error(counts, target),
        feasible=True,
        diagnostics={"rounding": rounding},
    )


def csa_solve(
    msm: np.ndarray,
    target_men: np.ndarray,
    target_women: np.ndarray,
    tol: float = 1e-11,
    max_iter: int = 10000,
):
    """Core fixed point of the surplus-preserving re-matching.

    Finds singles vectors ``mu_m, mu_w`` and couples
    ``mu[i, j] = msm[i, j] * sqrt(mu_m[i] * mu_w[j])`` such that singles plus
    spouses add up to the target population of every category and sex. In
    ``x = sqrt(mu_m)``, ``y = sqrt(mu_w)`` that is the 2k-dimensional system

        F(x, y) = [x**2 + x * (msm @ y) - men, y**2 + y * (msm.T @ x) - women]

    whose root in the positive orthant is unique. Newton's method solves it
    from ``x = sqrt(men)``, ``y = sqrt(women)`` with the Jacobian

        [[diag(2x + msm @ y), diag(x) msm], [diag(y) msm.T, diag(2y + msm.T @ x)]]

    (one linear solve per step). A step that would leave the positive
    orthant is halved until ``x`` and ``y`` stay strictly positive.
    Convergence is measured by the largest relative population-identity
    residual; ``iterations`` counts Newton steps.

    Returns ``(couples, mu_m, mu_w, iterations, residual)``.
    """
    msm = np.asarray(msm, dtype=float)
    men = np.asarray(target_men, dtype=float)
    women = np.asarray(target_women, dtype=float)
    if msm.shape != (men.shape[0], women.shape[0]):
        raise ShapeError("surplus matrix and target populations disagree in shape")
    if np.any(men <= 0) or np.any(women <= 0):
        raise DegenerateInputError("target populations must be strictly positive")
    if np.any(msm < 0) or not np.all(np.isfinite(msm)):
        raise DegenerateInputError("surplus matrix must be finite and nonnegative")

    k = men.shape[0]
    scale = np.concatenate([np.maximum(men, 1.0), np.maximum(women, 1.0)])
    jacobian = np.zeros((k + women.shape[0],) * 2)
    x, y = np.sqrt(men), np.sqrt(women)
    iteration = 0
    while True:
        my, mx = msm @ y, msm.T @ x
        excess = np.concatenate([x * (x + my) - men, y * (y + mx) - women])
        residual = float((np.abs(excess) / scale).max())
        if residual <= tol:
            break
        if iteration == max_iter:
            raise ConvergenceError(
                f"surplus-preserving fit did not reach tol={tol:g} in {max_iter} "
                f"iterations (residual {residual:.3g})"
            )
        iteration += 1
        np.fill_diagonal(jacobian, np.concatenate([2.0 * x + my, 2.0 * y + mx]))
        jacobian[:k, k:] = x[:, None] * msm
        jacobian[k:, :k] = y[:, None] * msm.T
        step = np.linalg.solve(jacobian, -excess)
        t = 1.0
        while np.any(x + t * step[:k] <= 0) or np.any(y + t * step[k:] <= 0):
            t *= 0.5
            if t < 1e-12:
                raise InfeasibilityError(
                    "surplus-preserving fit cannot stay in the positive orthant",
                    context={"iteration": iteration},
                )
        x, y = x + t * step[:k], y + t * step[k:]
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InfeasibilityError(
                "surplus-preserving fit left the positive orthant",
                context={"iteration": iteration},
            )

    return msm * np.outer(x, y), x * x, y * y, iteration, residual


def csa_fit(
    source: TableWithSingles,
    target_men: np.ndarray,
    target_women: np.ndarray,
    tol: float = 1e-11,
    max_iter: int = 10000,
) -> CounterfactualResult:
    """Re-match target populations holding the source's surplus matrix fixed.

    See :func:`csa_solve` for the fixed point. The result table holds the
    fitted couples; the fitted singles vectors travel in the diagnostics.
    """
    msm = surplus_matrix(source).values
    couples, mu_m, mu_w, iterations, residual = csa_solve(
        msm, target_men, target_women, tol=tol, max_iter=max_iter
    )
    table = ContingencyTable(
        np.where(couples < 0, 0.0, couples),
        source.couples.row_labels,
        source.couples.col_labels,
    )
    return CounterfactualResult(
        table=table,
        method="CSA",
        iterations=iterations,
        max_marginal_error=residual,
        feasible=True,
        diagnostics={
            "single_men": [float(v) for v in mu_m],
            "single_women": [float(v) for v in mu_w],
        },
    )


def fit(
    method: str,
    source: ContingencyTable | TableWithSingles,
    target: Marginals,
    rounding: str = PAPER_INTEGER,
    tol: float = 1e-10,
    max_iter: int = 10000,
    target_singles: tuple[np.ndarray, np.ndarray] | None = None,
) -> CounterfactualResult:
    """Uniform dispatcher over the five methods by lower-case tag.

    For ``csa`` the source must carry singles counts and the target
    populations are the target couple marginals plus ``target_singles``
    (falling back to the source's own singles when not provided).
    """
    tag = method.strip().lower()
    if tag == "csa":
        if not isinstance(source, TableWithSingles):
            raise ShapeError("the surplus-based method needs singles counts")
        singles = target_singles if target_singles is not None else (
            source.single_men,
            source.single_women,
        )
        men = np.asarray(target.row_sums, dtype=float) + np.asarray(singles[0], float)
        women = np.asarray(target.col_sums, dtype=float) + np.asarray(singles[1], float)
        return csa_fit(source, men, women, tol=min(tol, 1e-11), max_iter=max_iter)
    couples = couples_of(source)
    if tag == "ipf":
        return ipf_fit(couples, target, tol=tol, max_iter=max_iter)
    if tag == "mdba":
        return mdba_fit(couples, target)
    if tag == "meda":
        return meda_fit(couples, target)
    if tag == "nm":
        return nm_fit(couples, target, rounding=rounding)
    raise ValueError(f"unknown method tag: {method!r}")
