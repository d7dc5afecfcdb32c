"""Core contingency-table data model.

Conventions used throughout the package:

* rows are husband (male partner) education categories, columns are wife
  (female partner) categories, both ordered from lowest to highest;
* counts are stored as nonnegative floats because counterfactual tables are
  generally non-integer, while ingestion validates integrality at load time;
* all values are immutable after construction, so tables are safe to share
  across threads and to map over in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    EnumerationCapError,
    PartitionError,
    TableError,
)

_REL_TOL = 1e-9


@lru_cache(maxsize=None)
def _default_labels(prefix: str, k: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(k))


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ContingencyTable:
    """Joint distribution of couples over ordered education categories.

    Parameters
    ----------
    counts : array-like, shape (n, m)
        Nonnegative couple counts; ``counts[i, j]`` is the number of couples
        with a husband in row category ``i`` and a wife in column category
        ``j``.
    row_labels, col_labels : sequence of str, optional
        Ordered category names (lowest first). Generated when omitted.
    """

    counts: np.ndarray
    row_labels: tuple[str, ...] = ()
    col_labels: tuple[str, ...] = ()

    def __post_init__(self):
        counts = _frozen_array(self.counts)
        error = _counts_error(counts)
        if error is not None:
            raise error
        n, m = counts.shape
        rows = tuple(self.row_labels) or _default_labels("r", n)
        cols = tuple(self.col_labels) or _default_labels("c", m)
        if len(rows) != n or len(cols) != m:
            raise TableError("label lengths must match table dimensions")
        if len(set(rows)) != n or len(set(cols)) != m:
            raise TableError("category labels must be unique")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "row_labels", rows)
        object.__setattr__(self, "col_labels", cols)

    @property
    def n_rows(self) -> int:
        return self.counts.shape[0]

    @property
    def n_cols(self) -> int:
        return self.counts.shape[1]

    def is_square(self) -> bool:
        return self.n_rows == self.n_cols


def _refused(counts: np.ndarray) -> np.ndarray:
    """Which tables of a stack (T, n, m) :class:`ContingencyTable` refuses
    for their counts, in one pass over each (NaN fails both comparisons)."""
    low = counts.min(axis=(-2, -1), initial=0.0)
    high = counts.max(axis=(-2, -1), initial=0.0)
    return ~((low >= 0) & (0 < high) & (high < np.inf))


def _counts_error(counts: np.ndarray) -> TableError | None:
    """The :class:`TableError` that :class:`ContingencyTable` raises for the
    cells ``counts``, or None: the one check of what a table's counts are."""
    if counts.ndim != 2:
        return TableError(f"counts must be 2-dimensional, got ndim={counts.ndim}")
    n, m = counts.shape
    if n < 2 or m < 2:
        return TableError(f"table must be at least 2x2, got {n}x{m}")
    # one pass accepts every valid table; the others replay the checks in
    # order, for their message
    if not _refused(counts[None])[0]:
        return None
    if not np.all(np.isfinite(counts)):
        return TableError("counts must be finite")
    if counts.min() < 0:
        return TableError("counts must be nonnegative")
    return TableError("at least one count must be positive")


def _check_vectors(shape=None, margins=None, singles=None):
    """Raise the :class:`TableError` of library inputs that no table has:
    ``singles`` (single men, single women) that are not one finite,
    nonnegative count per category of a table of ``shape`` (n, m), and target
    ``margins`` (row sums, column sums) that are not vectors, are negative
    or not finite, or whose column sums miss the row sums' total by more
    than 1e-9 of it; without ``shape``, only the singles' values are
    checked. ``fit``, ``evaluate``, ``decompose`` and ``lattice`` check here
    before any stacked work; the stacked functions trust their inputs."""
    if singles is not None:
        men, women = (np.asarray(values, dtype=float) for values in singles)
        if shape and (men.ndim != 1 or men.shape[0] != shape[0]):
            raise TableError("single_men must have one entry per husband category")
        if shape and (women.ndim != 1 or women.shape[0] != shape[1]):
            raise TableError("single_women must have one entry per wife category")
        if not (np.isfinite(men).all() and np.isfinite(women).all()):
            raise TableError("singles counts must be finite")
        if np.any(men < 0) or np.any(women < 0):
            raise TableError("singles counts must be nonnegative")
    if margins is not None:
        rows, cols = (np.asarray(values, dtype=float) for values in margins)
        if rows.ndim != 1 or cols.ndim != 1:
            raise TableError("marginal sums must be vectors")
        # fmin skips NaN and the initial 0 covers empty vectors, so this is
        # the elementwise sign test in one reduction per vector
        if np.fmin.reduce(rows, initial=0.0) < 0 or np.fmin.reduce(cols, initial=0.0) < 0:
            raise TableError("marginal sums must be nonnegative")
        total, col_total = float(rows.sum()), cols.sum()
        # one scalar: NaN or inf anywhere makes the sum non-finite
        if not math.isfinite(total + col_total):
            raise TableError("marginal sums must be finite")
        if abs(col_total - total) > _REL_TOL * max(abs(total), 1.0):
            raise TableError("column sums do not add up to the total")


def _as_stack(*arrays):
    """Each array as a float stack of one."""
    return tuple(np.asarray(a, dtype=float)[None] for a in arrays)


def _validate_partition(partition: Sequence[Iterable[int]], size: int, axis: str):
    """The blocks of an ordered cover of ``size`` categories, one slice each."""
    blocks = [tuple(int(i) for i in block) for block in partition]
    if len(blocks) < 2:
        raise PartitionError(f"{axis} partition must keep at least two blocks")
    expected = 0
    for block in blocks:
        if not block:
            raise PartitionError(f"{axis} partition contains an empty block")
        if list(block) != list(range(block[0], block[-1] + 1)):
            raise PartitionError(f"{axis} partition block {block} is not contiguous")
        if block[0] != expected:
            raise PartitionError(
                f"{axis} partition is not an ordered cover: block {block} "
                f"starts at {block[0]}, expected {expected}"
            )
        expected = block[-1] + 1
    if expected != size:
        raise PartitionError(f"{axis} partition does not cover all {size} categories")
    return [slice(block[0], block[-1] + 1) for block in blocks]


def _block_sum(values: np.ndarray, rows: slice, cols: slice | None = None) -> np.ndarray:
    """Sum of one contiguous block, ``values[..., rows, cols]`` of a table or
    stack (..., n, m), or ``values[..., rows]`` of vectors (..., k). Every
    category merge sums here, so a block gives the same bits whoever asks.
    The block is flattened and reduced as one contiguous run: a running
    ``cumsum`` would be cheaper over many splits, but it rounds differently
    on non-integer counts. The block's size is given, not inferred, so an
    empty stack sums to an empty result."""
    block = values[..., rows] if cols is None else values[..., rows, cols]
    lead = values.shape[:-1] if cols is None else values.shape[:-2]
    return np.add.reduce(block.reshape(*lead, math.prod(block.shape[len(lead):])), axis=-1)


def merge_categories(
    table: ContingencyTable,
    row_partition: Sequence[Iterable[int]],
    col_partition: Sequence[Iterable[int]],
) -> ContingencyTable:
    """Merge neighboring categories into blocks, summing the grouped cells.

    Partitions are sequences of blocks of 0-based indices. Blocks must be
    contiguous, ordered and cover every category, because the assorted trait
    is ordered; arbitrary regroupings are rejected. The merged table must
    remain at least 2x2.
    """
    rows = _validate_partition(row_partition, table.n_rows, "row")
    cols = _validate_partition(col_partition, table.n_cols, "column")
    out = [[_block_sum(table.counts, r, c) for c in cols] for r in rows]
    row_labels = tuple("+".join(table.row_labels[r]) for r in rows)
    col_labels = tuple("+".join(table.col_labels[c]) for c in cols)
    return ContingencyTable(out, row_labels, col_labels)


def random_counts(row_sums, col_sums, total) -> np.ndarray:
    """Cells of random matching, ``row_sums[i] * col_sums[j] / total``.

    Works on one set of margins or on a stack: ``row_sums`` (..., n),
    ``col_sums`` (..., m) and ``total`` (...) give cells (..., n, m).
    """
    return row_sums[..., :, None] * col_sums[..., None, :] / np.asarray(total)[..., None, None]


def pam_counts(row_sums: np.ndarray, col_sums: np.ndarray) -> np.ndarray:
    """Cells of perfectly assortative matching for a stack of margins.

    ``row_sums`` (T, n) and ``col_sums`` (T, m) give cells (T, n, m). Each
    instance is a greedy descent from the top: the highest unexhausted
    husband category is matched with the highest unexhausted wife category,
    so someone marries below their own level only once nobody of equal or
    higher education remains unmatched on the other side. The categories
    are totally ordered, so the descent is deterministic; it runs on Python
    floats, which round as numpy's float64 does.
    """
    out = np.zeros((*row_sums.shape, col_sums.shape[-1]))
    for cells, rows, cols in zip(out, row_sums.tolist(), col_sums.tolist()):
        i, j = len(rows) - 1, len(cols) - 1
        while i >= 0 and j >= 0:
            take = min(rows[i], cols[j])
            cells[i, j] = take
            rows[i] -= take
            cols[j] -= take
            # subtracting the min leaves an exact zero on at least one side;
            # advance past every exhausted category
            if rows[i] == 0:
                i -= 1
            if cols[j] == 0:
                j -= 1
    return out


def homogamy_shares(counts: np.ndarray) -> np.ndarray:
    """Diagonal share of a square table's cells, or of each table of a
    stack (..., n, n)."""
    return np.trace(counts, axis1=-2, axis2=-1) / counts.sum(axis=(-2, -1))


def _integer_vector(values, what: str) -> list[int]:
    values = np.asarray(values, dtype=float)
    rounded = np.rint(values)
    if (np.abs(values - rounded) > 1e-9).any():
        raise DegenerateInputError(f"{what} must be integers for enumeration")
    return [int(v) for v in rounded]


def _compositions(amount: int, parts: int) -> np.ndarray:
    """Every way to write ``amount`` as ``parts`` nonnegative integers, in
    lexicographic order, shape ``(C, parts)``."""
    heads = np.indices((amount + 1,) * (parts - 1)).reshape(
        parts - 1, (amount + 1) ** (parts - 1)
    ).T
    sums = heads.sum(axis=1)
    keep = sums <= amount
    return np.concatenate([heads[keep], (amount - sums[keep])[:, None]], axis=1)


def lattice(rows, cols, cap: int = 40) -> np.ndarray:
    """All nonnegative integer tables with row sums ``rows`` and column sums
    ``cols``, stacked.

    The lattice points of the transportation polytope as one integer array
    of shape ``(T, n, m)``, in lexicographic order of their row-major cells.
    The lattice grows row by row: each partial table is extended by every
    composition of the next row sum that fits its remaining column sums, and
    the last row is what remains. Intended as a brute-force oracle for
    criteria checks on tiny instances; totals above ``cap`` (default 40) are
    refused because the polytope size explodes, and a zero total is refused
    because its only point is not a table. The margins are checked first,
    as every library entry point checks them.
    """
    _check_vectors(margins=(rows, cols))
    rows = _integer_vector(rows, "row sums")
    cols = _integer_vector(cols, "column sums")
    total = sum(rows)
    if total != sum(cols):
        raise DegenerateInputError("row and column sums disagree")
    if total > cap:
        raise EnumerationCapError(
            f"total {total} exceeds the enumeration cap {cap}"
        )
    if total == 0:
        raise DegenerateInputError("enumeration requires a positive total")
    points = np.zeros((1, 0, len(cols)), dtype=np.int64)
    remaining = np.array([cols], dtype=np.int64)
    for amount in rows[:-1]:
        comps = _compositions(amount, len(cols))
        fits = (comps[None, :, :] <= remaining[:, None, :]).all(axis=2)
        # row-major nonzero keeps the points in lexicographic order
        point_ix, comp_ix = np.nonzero(fits)
        points = np.concatenate([points[point_ix], comps[comp_ix, None, :]], axis=1)
        remaining = remaining[point_ix] - comps[comp_ix]
    return np.concatenate([points, remaining[:, None, :]], axis=1)
