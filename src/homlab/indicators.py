"""Directly computed statistical homophily indicators.

Ten measures of how strongly couples sort on education, each a pure function
of a contingency table (one of them needs singles counts as well). For a 2x2
table the cells are referred to as::

        a  b      a = low-low couples,  b = low-high,
        c  d      c = high-low,         d = high-high.

The scalar measures are defined on 2x2 tables; the matrix-valued measure
aggregates an n-by-m table into every ordered 2x2 coarsening and evaluates
the scalar ratio measure on each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GllUndefinedError, ShapeError, UndefinedIndicatorError
from .tables import ContingencyTable, TableWithSingles, merge_categories

PAPER_INTEGER = "paper-integer"
CONTINUOUS = "continuous"
ROUNDING_MODES = (PAPER_INTEGER, CONTINUOUS)


@dataclass(frozen=True)
class RegressionPair:
    """Both slope coefficients of the dichotomous education regressions.

    ``beta_wm`` explains the wife's education level (0/1) by the husband's,
    ``beta_mw`` the other way around. Both share the sign of ``ad - bc``.
    """

    beta_wm: float
    beta_mw: float


@dataclass(frozen=True)
class MspComponents:
    """Local and aggregate marital sorting parameters under random matching.

    ``msp_l`` (``msp_h``) is the observed low-low (high-high) couple share
    relative to its share under random matching; ``aggregate`` is their
    average weighted by the observed diagonal counts. All three equal 1 on an
    independence table.
    """

    msp_l: float
    msp_h: float
    aggregate: float


@dataclass(frozen=True)
class LiuLuDecomposition:
    """Intermediate quantities of the normalized excess-homogamy ratio.

    ``r`` is the expected high-high count under random matching, ``int_r``
    its floor (or ``r`` itself in continuous mode), ``d_obs`` the observed
    high-high count and ``d_max`` the largest high-high count feasible for
    the marginals. ``value`` is ``(d_obs - int_r) / (d_max - int_r)``.
    ``negative_sorting`` flags tables where the observed count falls short of
    the random benchmark; the value is then the signed ratio.
    """

    r: float
    int_r: float
    d_obs: float
    d_max: float
    value: float
    rounding: str = PAPER_INTEGER
    negative_sorting: bool = False


@dataclass(frozen=True)
class AggregationSplit:
    """A 2x2 coarsening point: rows 1..j vs j+1..n, columns 1..k vs k+1..m."""

    j: int
    k: int


def splits(n_rows: int, n_cols: int) -> list[AggregationSplit]:
    """Every ordered 2x2 coarsening point of an n-by-m table, row-major."""
    return [
        AggregationSplit(j, k)
        for j in range(1, n_rows)
        for k in range(1, n_cols)
    ]


@dataclass(frozen=True)
class SurplusMatrix:
    """Couple counts normalized by the geometric mean of the singles pools."""

    values: np.ndarray


def _require_2x2(table: ContingencyTable, what: str):
    if table.n_rows != 2 or table.n_cols != 2:
        raise ShapeError(
            f"{what} is defined for 2x2 tables, got {table.n_rows}x{table.n_cols}"
        )


def _abcd(table: ContingencyTable) -> tuple[float, float, float, float]:
    (a, b), (c, d) = table.counts
    return float(a), float(b), float(c), float(d)


def odds_ratio(table: ContingencyTable) -> float:
    """``ad / bc``; positive infinity when ``bc = 0`` while ``ad > 0``."""
    _require_2x2(table, "odds ratio")
    a, b, c, d = _abcd(table)
    if b * c == 0:
        if a * d == 0:
            raise UndefinedIndicatorError("odds ratio undefined: ad = bc = 0")
        return math.inf
    return (a * d) / (b * c)


def determinant(table: ContingencyTable) -> float:
    """``ad - bc``. Scales with the square of the population size."""
    _require_2x2(table, "matrix determinant")
    a, b, c, d = _abcd(table)
    return a * d - b * c


def covariance(table: ContingencyTable) -> float:
    """Determinant normalized by the squared total; scale free."""
    _require_2x2(table, "covariance coefficient")
    a, b, c, d = _abcd(table)
    return (a * d - b * c) / (a + b + c + d) ** 2


def _marginal_products(table: ContingencyTable):
    a, b, c, d = _abcd(table)
    return a, b, c, d, a + b, c + d, a + c, b + d


def correlation(table: ContingencyTable) -> float:
    """Determinant normalized by the geometric mean of the marginal products."""
    _require_2x2(table, "correlation coefficient")
    a, b, c, d, ab, cd, ac, bd = _marginal_products(table)
    denom = ab * cd * ac * bd
    if denom == 0:
        raise UndefinedIndicatorError("correlation undefined: zero marginal sum")
    return (a * d - b * c) / math.sqrt(denom)


def regression(table: ContingencyTable) -> RegressionPair:
    """Slopes of regressing one partner's 0/1 education on the other's."""
    _require_2x2(table, "regression coefficient")
    a, b, c, d, ab, cd, ac, bd = _marginal_products(table)
    if ab * cd == 0 or ac * bd == 0:
        raise UndefinedIndicatorError("regression undefined: zero marginal sum")
    det = a * d - b * c
    return RegressionPair(beta_wm=det / (ab * cd), beta_mw=det / (ac * bd))


def aggregate_msp(table: ContingencyTable) -> MspComponents:
    """Marital sorting parameters relative to random matching."""
    _require_2x2(table, "marital sorting parameter")
    a, b, c, d, ab, cd, ac, bd = _marginal_products(table)
    total = a + b + c + d
    if a + d == 0:
        raise UndefinedIndicatorError("sorting parameter undefined: empty diagonal")
    if ab * cd * ac * bd == 0:
        raise UndefinedIndicatorError("sorting parameter undefined: zero marginal sum")
    msp_l = a * total / (ab * ac)
    msp_h = d * total / (cd * bd)
    return MspComponents(
        msp_l=msp_l,
        msp_h=msp_h,
        aggregate=(msp_l * a + msp_h * d) / (a + d),
    )


def v_value(table: ContingencyTable) -> float:
    """Determinant over one marginal product, the branch picked by ``b >= c``.

    Equals the weight that projects the table onto the segment between its
    random-matching and perfectly-assortative benchmarks, so it reads as a
    position between no sorting (0) and maximal sorting (1).
    """
    _require_2x2(table, "V-value")
    a, b, c, d, ab, cd, ac, bd = _marginal_products(table)
    denom = cd * ac if b >= c else bd * ab
    if denom == 0:
        raise UndefinedIndicatorError("V-value undefined: zero denominator branch")
    return (a * d - b * c) / denom


_LL_UNDEFINED = "LL indicator undefined: zero denominator"


def _check_rounding(rounding: str):
    if rounding not in ROUNDING_MODES:
        raise ValueError(f"unknown rounding mode: {rounding!r}")


def _ll_benchmark(cd, bd, total, rounding: str):
    """Random-matching benchmark and ceiling of the high-high count.

    Returns ``(r, rho, d_max)``: ``r = cd * bd / total`` is the high-high
    count expected under random matching, ``rho`` is its floor in
    ``paper-integer`` mode and ``r`` itself in ``continuous`` mode, and
    ``d_max = min(bd, cd)`` is the largest feasible high-high count. Works
    elementwise on arrays of splits; ``nm_fit`` inverts LL through the same
    two numbers.
    """
    r = cd * bd / total
    rho = np.floor(r) if rounding == PAPER_INTEGER else r
    return r, rho, np.minimum(bd, cd)


def _ll(a, b, c, d, rounding: str):
    """LL on 2x2 block sums, elementwise over equal-shape arrays of splits.

    Returns ``(r, rho, d_max, value, undefined)`` with ``value = (d - rho) /
    (d_max - rho)``; ``undefined`` marks the splits where that denominator is
    zero, and ``value`` is NaN there. The operation order is the one of the
    scalar formula, so a split gives the same bits whether it is evaluated
    alone or with the others.
    """
    cd = c + d
    bd = b + d
    total = a + b + c + d
    r, rho, d_max = _ll_benchmark(cd, bd, total, rounding)
    denom = d_max - rho
    undefined = denom == 0
    value = (d - rho) / np.where(undefined, np.nan, denom)
    return r, rho, d_max, value, undefined


def ll_simplified(
    table: ContingencyTable, rounding: str = PAPER_INTEGER
) -> LiuLuDecomposition:
    """Normalized excess of high-high couples over the random benchmark.

    ``value = (d - int(R)) / (min(b + d, c + d) - int(R))`` where
    ``R = (c + d)(b + d) / N`` is the high-high count expected under random
    matching. ``int()`` is the floor in ``paper-integer`` mode, matching the
    integer-count origin of the formula, and the identity in ``continuous``
    mode, which is the well-posed choice on real-valued (rescaled or fitted)
    tables. Nonnegative sorting puts the value in [0, 1]; tables with fewer
    high-high couples than the random benchmark yield the signed value and
    are flagged.
    """
    _require_2x2(table, "LL indicator")
    _check_rounding(rounding)
    a, b, c, d = _abcd(table)
    r, int_r, d_max, value, undefined = _ll(a, b, c, d, rounding)
    if undefined:
        raise UndefinedIndicatorError(_LL_UNDEFINED)
    return LiuLuDecomposition(
        r=float(r),
        int_r=float(int_r),
        d_obs=d,
        d_max=float(d_max),
        value=float(value),
        rounding=rounding,
        negative_sorting=bool(d < int_r),
    )


def aggregate_2x2(table: ContingencyTable, j: int, k: int) -> ContingencyTable:
    """Coarsen to 2x2 at an ordered split: rows 1..j vs rest, cols 1..k vs rest."""
    n, m = table.n_rows, table.n_cols
    if not (1 <= j <= n - 1) or not (1 <= k <= m - 1):
        raise ShapeError(f"split ({j},{k}) out of range for a {n}x{m} table")
    return merge_categories(
        table,
        [tuple(range(j)), tuple(range(j, n))],
        [tuple(range(k)), tuple(range(k, m))],
    )


def _split_sums(counts: np.ndarray) -> np.ndarray:
    """Block sums ``a, b, c, d`` of every ordered split, shape ``(4, n-1, m-1)``.

    Each block is summed as a contiguous copy, the way ``merge_categories``
    sums it, so every split's sums equal the cells of its merged 2x2 table
    bit for bit (a running cumulative sum rounds differently on non-integer
    counts).
    """
    n, m = counts.shape
    sums = np.empty((4, n - 1, m - 1))
    for j in range(1, n):
        top, bottom = counts[:j], counts[j:]
        for k in range(1, m):
            sums[0, j - 1, k - 1] = top[:, :k].copy().sum()
            sums[1, j - 1, k - 1] = top[:, k:].copy().sum()
            sums[2, j - 1, k - 1] = bottom[:, :k].copy().sum()
            sums[3, j - 1, k - 1] = bottom[:, k:].copy().sum()
    return sums


def gll(table: ContingencyTable, rounding: str = PAPER_INTEGER) -> np.ndarray:
    """Matrix of LL values over every ordered 2x2 coarsening.

    Entry ``(j, k)`` (0-based) is ``ll_simplified`` of the aggregation that
    groups rows ``1..j+1`` against the rest and columns ``1..k+1`` against
    the rest; a 2x2 input yields the 1x1 matrix of its scalar value. The
    split sums are read straight off the counts and one LL kernel, shared
    with ``ll_simplified`` and the NM inversion, evaluates every split at
    once, bit for bit equal to ``ll_simplified(aggregate_2x2(...))``.
    Entries are independent; if any are undefined, a
    :class:`~homlab.errors.GllUndefinedError` reports every failing split and
    carries the partial matrix.
    """
    _check_rounding(rounding)
    *_, out, undefined = _ll(*_split_sums(table.counts), rounding)
    if undefined.any():
        failures = [
            (int(j) + 1, int(k) + 1, _LL_UNDEFINED)
            for j, k in zip(*np.nonzero(undefined))
        ]
        raise GllUndefinedError(failures, out)
    return out


def surplus_matrix(tws: TableWithSingles) -> SurplusMatrix:
    """Couples normalized by the singles pools they are drawn against.

    ``values[i, j] = couples[i, j] / sqrt(single_men[i] * single_women[j])``.
    Requires every singles count to be positive.
    """
    if np.any(tws.single_men <= 0) or np.any(tws.single_women <= 0):
        raise UndefinedIndicatorError("surplus matrix undefined: zero singles count")
    denom = np.sqrt(np.outer(tws.single_men, tws.single_women))
    return SurplusMatrix(values=tws.couples.counts / denom)
