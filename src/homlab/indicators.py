"""Directly computed statistical homophily indicators.

Ten measures of how strongly couples sort on education, each a pure function
of a contingency table (one of them needs singles counts as well). For a 2x2
table the cells are referred to as::

        a  b      a = low-low couples,  b = low-high,
        c  d      c = high-low,         d = high-high.

Eight measures are defined on 2x2 tables: the odds ratio ``ad / bc``
(``or``), the determinant ``ad - bc`` (``det``, also on any square table),
the covariance and correlation coefficients (``cov``, ``corr``), both
regression slopes (``reg``), the marital sorting parameter relative to
random matching (``msp``), the V-value, a position between random (0) and
maximal (1) sorting (``v``), and LL, the normalized excess of high-high
couples over the random benchmark (``ll``). ``msm`` divides the couples by
the geometric mean of the singles pools, and ``gll`` is LL on every ordered
2x2 coarsening of an n-by-m table. ``evaluate_stack`` is the one map from a
tag of ``INDICATOR_TAGS`` to its measure; ``evaluate`` is it on one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GllUndefinedError, ShapeError, UndefinedIndicatorError
from .tables import ContingencyTable, _as_stack, _block_sum, _check_vectors

PAPER_INTEGER = "paper-integer"
CONTINUOUS = "continuous"
ROUNDING_MODES = (PAPER_INTEGER, CONTINUOUS)


# Kernels: each 2x2 formula once, elementwise over the block sums ``a, b, c,
# d``, equal-shape arrays of a stack of tables or of splits. Each takes the
# rounding mode last, which only LL reads, and returns its value(s) and then
# ``undefined``, the mask of the tables where the measure is undefined;
# values there carry no meaning. No kernel divides by zero.

def _over(num, den, undefined):
    """``num / den``, NaN where ``undefined`` (which must cover ``den == 0``)."""
    return num / np.where(undefined, np.nan, den)


def _margins(a, b, c, d):
    return a + b, c + d, a + c, b + d


def _or(a, b, c, d, rounding):
    ad, bc = a * d, b * c
    return np.where(bc == 0, np.inf, _over(ad, bc, bc == 0)), (bc == 0) & (ad == 0)


def _det(a, b, c, d, rounding):
    return a * d - b * c, np.zeros(np.shape(a), dtype=bool)


def _cov(a, b, c, d, rounding):
    total = a + b + c + d
    undefined = total == 0
    return _over(a * d - b * c, total ** 2, undefined), undefined


def _corr(a, b, c, d, rounding):
    ab, cd, ac, bd = _margins(a, b, c, d)
    denom = ab * cd * ac * bd
    undefined = denom == 0
    return _over(a * d - b * c, np.sqrt(denom), undefined), undefined


def _reg(a, b, c, d, rounding):
    ab, cd, ac, bd = _margins(a, b, c, d)
    rows, cols = ab * cd, ac * bd
    undefined = (rows == 0) | (cols == 0)
    det = a * d - b * c
    return _over(det, rows, undefined), _over(det, cols, undefined), undefined


def _msp(a, b, c, d, rounding):
    ab, cd, ac, bd = _margins(a, b, c, d)
    total = a + b + c + d
    undefined = (a + d == 0) | (ab * cd * ac * bd == 0)
    msp_l = _over(a * total, ab * ac, undefined)
    msp_h = _over(d * total, cd * bd, undefined)
    return msp_l, msp_h, _over(msp_l * a + msp_h * d, a + d, undefined), undefined


def _v(a, b, c, d, rounding):
    ab, cd, ac, bd = _margins(a, b, c, d)
    denom = np.where(b >= c, cd * ac, bd * ab)
    undefined = denom == 0
    return _over(a * d - b * c, denom, undefined), undefined


def _check_rounding(rounding: str):
    if rounding not in ROUNDING_MODES:
        raise ValueError(f"unknown rounding mode: {rounding!r}")


def _ll_benchmark(cd, bd, total, rounding: str):
    """Random-matching benchmark and ceiling of the high-high count.

    Returns ``(r, rho, d_max)``: ``r = cd * bd / total`` is the high-high
    count expected under random matching, ``rho`` is its floor in
    ``paper-integer`` mode and ``r`` itself in ``continuous`` mode, and
    ``d_max = min(bd, cd)`` is the largest feasible high-high count. Works
    elementwise on arrays of splits; the ``nm`` fit inverts LL through the
    same two numbers.
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
    alone or with the others. A split with fewer high-high couples than
    ``rho`` gets the signed (negative) value.
    """
    _check_rounding(rounding)
    cd = c + d
    bd = b + d
    total = a + b + c + d
    r, rho, d_max = _ll_benchmark(cd, bd, total, rounding)
    denom = d_max - rho
    undefined = denom == 0
    return r, rho, d_max, _over(d - rho, denom, undefined), undefined


_LL_UNDEFINED = "LL indicator undefined: zero denominator"
_SURPLUS_UNDEFINED = "surplus matrix undefined: zero singles count"


def _msp_undefined(a, b, c, d) -> str:
    reason = "empty diagonal" if a + d == 0 else "zero marginal sum"
    return f"sorting parameter undefined: {reason}"


@dataclass(frozen=True)
class _Measure:
    """A 2x2 tag: its kernel, the kernel outputs ``evaluate`` reports, the
    measure's name in its ShapeError, and its UndefinedIndicatorError
    message (a function of the block sums where it names the cause)."""

    kernel: Callable
    reported: tuple[int, ...]
    name: str
    undefined: str | Callable[..., str]

    def run(self, counts: np.ndarray, rounding: str):
        """The kernel on a ``(T, 2, 2)`` stack, after the shape (ShapeError)
        and then the rounding mode (ValueError) are checked."""
        n, m = counts.shape[1:]
        if (n, m) != (2, 2):
            raise ShapeError(f"{self.name} is defined for 2x2 tables, got {n}x{m}")
        _check_rounding(rounding)
        return self.kernel(*counts.reshape(len(counts), 4).T, rounding)


_TWO_BY_TWO = {
    "or": _Measure(_or, (0,), "odds ratio", "odds ratio undefined: ad = bc = 0"),
    # only a non-square table, which ``evaluate_stack`` marks, has no determinant
    "det": _Measure(_det, (0,), "matrix determinant", "determinant needs a square table"),
    "cov": _Measure(_cov, (0,), "covariance coefficient", "covariance undefined: zero total"),
    "corr": _Measure(
        _corr, (0,), "correlation coefficient",
        "correlation undefined: zero marginal sum",
    ),
    "reg": _Measure(
        _reg, (0, 1), "regression coefficient",
        "regression undefined: zero marginal sum",
    ),
    "msp": _Measure(_msp, (2,), "marital sorting parameter", _msp_undefined),
    "v": _Measure(_v, (0,), "V-value", "V-value undefined: zero denominator branch"),
    "ll": _Measure(_ll, (3,), "LL indicator", _LL_UNDEFINED),
}
# Written out: this order seeds each criteria cell's random stream and
# orders the criteria matrix columns.
INDICATOR_TAGS = ("or", "det", "cov", "corr", "reg", "msp", "v", "msm", "ll", "gll")
# one value per 2x2 couples table (``reg`` reports ``beta_wm`` first)
SCALAR_TAGS = tuple(tag for tag in INDICATOR_TAGS if tag in _TWO_BY_TWO)


def _undefined_error(tag: str, counts: np.ndarray) -> UndefinedIndicatorError:
    """The error of a table where the indicator ``tag`` (not ``gll``) is undefined."""
    message = _SURPLUS_UNDEFINED if tag == "msm" else _TWO_BY_TWO[tag].undefined
    return UndefinedIndicatorError(
        message if isinstance(message, str) else message(*counts.ravel())
    )


def _split_sums(counts: np.ndarray) -> np.ndarray:
    """Block sums ``a, b, c, d`` of every ordered split.

    ``counts`` of shape ``(..., n, m)``, a table or a stack of tables, gives
    shape ``(4, ..., n-1, m-1)``. Each block is summed by
    ``tables._block_sum``, so every split's sums equal the cells of its
    merged 2x2 table bit for bit.
    """
    *lead, n, m = counts.shape
    sums = np.empty((4, *lead, n - 1, m - 1))
    for j in range(1, n):
        for k in range(1, m):
            sums[:, ..., j - 1, k - 1] = [
                _block_sum(counts, rows, cols)
                for rows in (slice(None, j), slice(j, None))
                for cols in (slice(None, k), slice(k, None))
            ]
    return sums


def gll(table: ContingencyTable, rounding: str = PAPER_INTEGER) -> np.ndarray:
    """Matrix of LL values over every ordered 2x2 coarsening.

    Entry ``(j, k)`` (0-based) is the ``ll`` indicator of the aggregation
    that groups rows ``1..j+1`` against the rest and columns ``1..k+1``
    against the rest; a 2x2 input yields the 1x1 matrix of its ``ll`` value.
    The split sums are read straight off the counts and one LL kernel,
    shared with ``evaluate("ll", ...)`` and the NM inversion, evaluates every
    split at once, bit for bit equal to ``ll`` of the 2x2 table that
    ``merge_categories`` makes at that split. This is ``evaluate``'s ``gll``
    case, as a matrix.
    Entries are independent; if any are undefined, a
    :class:`~homlab.errors.GllUndefinedError` reports every failing split and
    carries the partial matrix.
    """
    _check_rounding(rounding)  # before the table is read
    *_, out, undefined = _ll(*_split_sums(table.counts), rounding)
    if undefined.any():
        raise _gll_error(out, undefined)
    return out


def _gll_error(values: np.ndarray, undefined: np.ndarray) -> GllUndefinedError:
    """The error of a GLL matrix with undefined splits, naming each one."""
    spots = zip(*np.nonzero(undefined))
    return GllUndefinedError([(int(j) + 1, int(k) + 1, _LL_UNDEFINED) for j, k in spots], values)


def _surplus(counts, single_men, single_women):
    """``counts[i, j] / sqrt(single_men[i] * single_women[j])`` for one
    table or a stack, and the mask of the tables with a nonpositive singles
    count, where the values are NaN."""
    undefined = (single_men <= 0).any(axis=-1) | (single_women <= 0).any(axis=-1)
    denom = np.sqrt(single_men[..., :, None] * single_women[..., None, :])
    return counts / np.where(undefined[..., None, None], np.nan, denom), undefined


def evaluate(
    tag: str, table: ContingencyTable, rounding: str = PAPER_INTEGER, singles=None
) -> np.ndarray:
    """The indicator ``tag`` of a table as a flat vector:
    :func:`evaluate_stack` on a stack of one.

    Matrix-valued measures flatten row-major; ``reg`` gives ``(beta_wm,
    beta_mw)``, ``msp`` the aggregate parameter, and ``det`` works on any
    square table. ``msm`` needs ``singles``, the table's (single men,
    single women) per category, which every other tag ignores; given
    singles are checked first, for every tag
    (:func:`~homlab.tables._check_vectors`). ``rounding`` applies to the LL
    family, and every tag refuses an unknown mode after its shape checks.
    Where the stack marks the table undefined, the measure's own
    UndefinedIndicatorError is raised.
    """
    _check_vectors(table.counts.shape, singles=singles)
    if tag == "gll":
        return gll(table, rounding).ravel()
    if tag == "msm" and singles is None:
        raise UndefinedIndicatorError("surplus matrix needs singles counts")
    values, undefined = evaluate_stack(tag, table.counts[None], rounding,
                                       None if singles is None else _as_stack(*singles))
    if undefined[0]:
        raise _undefined_error(tag, table.counts)
    return values[0]


def evaluate_stack(
    tag: str, counts, rounding: str = PAPER_INTEGER, singles=None
) -> tuple[np.ndarray, np.ndarray]:
    """The indicator ``tag`` of every table in a stack.

    ``counts`` has shape ``(T, n, m)``; ``msm`` also needs ``singles``, the
    single men ``(T, n)`` and single women ``(T, m)`` of each table, which
    every other tag ignores. Returns ``(values, undefined)``: ``values[t]``,
    of shape ``(k,)``, is the indicator of table ``t`` (with its singles),
    and ``undefined[t]`` marks where it is undefined (``values[t]`` then
    carries no meaning); no table's values depend on the rest of the
    stack. The shape is checked first, then the rounding mode; a non-square
    ``det`` table is undefined under any mode. A stack of any other shape,
    or mis-shaped singles, raise :class:`ShapeError` before the tag is read.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 3:
        raise ShapeError(f"a stack of tables has shape (T, n, m), got {counts.shape}")
    size, n, m = counts.shape
    if tag == "msm":
        men, women = (np.asarray(s, dtype=float) for s in singles or ((), ()))
        if men.shape != (size, n) or women.shape != (size, m):
            raise ShapeError(f"surplus matrix needs singles stacks of shapes "
                             f"({size}, {n}) and ({size}, {m})")
        _check_rounding(rounding)
        values, undefined = _surplus(counts, men, women)
        return values.reshape(size, n * m), undefined
    if tag == "gll":  # sizes given, not inferred, so an empty stack reshapes too
        *_, values, undefined = _ll(*_split_sums(counts), rounding)
        return values.reshape(size, (n - 1) * (m - 1)), undefined.any(axis=(1, 2))
    if tag == "det" and (n, m) != (2, 2):
        if n != m:
            return np.full((size, 1), np.nan), np.ones(size, dtype=bool)
        _check_rounding(rounding)
        return np.linalg.det(counts)[:, None], np.zeros(size, dtype=bool)
    measure = _TWO_BY_TWO.get(tag)
    if measure is None:
        raise ValueError(f"unknown indicator tag: {tag!r}")
    *outputs, undefined = measure.run(counts, rounding)
    return np.array([outputs[i] for i in measure.reported]).T, undefined
