"""Data ingestion, run configuration, and the panel pipeline.

Input files are plain UTF-8 comma-separated CSV:

couples  header ``year,state,husband_edu,wife_edu,count``; one row per cell
         of a (state, census year) table, categories drawn from the
         configured ordered label list, counts nonnegative integers
         (duplicate keys are summed). Age filtering happens upstream; the
         file carries pre-filtered counts.
income   header ``state,year,top10_share``; the top decile income share as
         a fraction strictly between 0 and 1.
singles  header ``year,state,sex,edu,count`` with sex ``m`` or ``w``; only
         needed for the surplus-based method.

Records under the reserved state code ``UNKNOWN`` are excluded from both the
state level and the national aggregate unless explicitly configured in. A
bad line raises a DataError that names the file and its physical line; of
several bad lines, the first is reported.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import operator
from dataclasses import dataclass, field
from functools import partial
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import indicators as ind
from .counterfactual import METHOD_TAGS
from .decomposition import (SCHEMES, SEQUENTIAL, WITH_INTERACTION, cumulate, decade_label,
                            decompose_counts)
from .errors import (
    ConvergenceError,
    DataError,
    InfeasibilityError,
    ShapeError,
    TableError,
    UndefinedIndicatorError,
)
from .tables import ContingencyTable, _block_sum, _refused, homogamy_shares
from .trend import DecadeChange

THREE_LEVEL = "three"
HS_CUT = "hs"
COLLEGE_CUT = "college"
CATEGORY_SCHEMES = (THREE_LEVEL, HS_CUT, COLLEGE_CUT)
_CUTS = {HS_CUT: [slice(0, 1), slice(1, 3)], COLLEGE_CUT: [slice(0, 2), slice(2, 3)]}

DEFAULT_WAVES = (1960, 1970, 1980, 1990, 2000, 2010)
DEFAULT_LABELS = ("no_high_school", "high_school", "college")
UNKNOWN_STATE = "UNKNOWN"
NATIONAL = "US"

_ROUNDING_ALIASES = {
    "paper": ind.PAPER_INTEGER,
    "paper-integer": ind.PAPER_INTEGER,
    "continuous": ind.CONTINUOUS,
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run depends on; defaults follow the six-wave
    decennial protocol with three education levels."""

    waves: tuple[int, ...] = DEFAULT_WAVES
    labels: tuple[str, ...] = DEFAULT_LABELS
    categories: str = THREE_LEVEL
    method: str = "nm"
    measure: str = ""
    scheme: str = "auto"
    rounding: str = ind.PAPER_INTEGER
    tol: float = 1e-10
    max_iter: int = 10000
    seed: int = 0
    sample_count: int = 200
    include_unknown: bool = False
    split_state: str = "Mississippi"

    def __post_init__(self):
        if not isinstance(self.waves, (list, tuple)):
            raise DataError(f"waves must be a list of integers, got {self.waves!r}")
        labels = self.labels
        if (not isinstance(labels, (list, tuple)) or not all(isinstance(x, str) for x in labels)
                or len(set(labels)) != len(labels)):
            raise DataError(f"labels must be a list of distinct strings, got {labels!r}")
        if len(labels) < 2:  # no table, and no homogamy change, has one category
            raise DataError(f"labels must name at least two categories, got {labels!r}")
        typed = [*(("each wave", year, Integral) for year in self.waves), ("tol", self.tol, Real),
                 *((name, getattr(self, name), Integral)
                   for name in ("max_iter", "seed", "sample_count"))]
        for name, value, kind in typed:  # a bool is neither a number nor an integer here
            if isinstance(value, bool) or not isinstance(value, kind):
                what = "a number" if kind is Real else "an integer"
                raise DataError(f"{name} must be {what}, got {value!r}")
        if not 0 < self.tol < float("inf"):  # NaN fails this comparison too
            raise DataError(f"tol must be positive and finite, got {self.tol!r}")
        if self.max_iter < 1:
            raise DataError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.categories not in CATEGORY_SCHEMES:
            raise DataError(f"unknown category scheme: {self.categories!r}")
        rounding = _ROUNDING_ALIASES.get(self.rounding)
        if rounding is None:
            raise DataError(f"unknown rounding mode: {self.rounding!r}")
        object.__setattr__(self, "rounding", rounding)
        object.__setattr__(self, "waves", tuple(int(y) for y in self.waves))
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.scheme not in ("auto", *SCHEMES):
            raise DataError(f"unknown decomposition scheme: {self.scheme!r}")
        if self.sample_count < 1:
            raise DataError(f"sample count must be at least 1, got {self.sample_count}")
        if self.seed < 0:
            raise DataError(f"seed must be nonnegative, got {self.seed}")

    @property
    def resolved_measure(self) -> str:
        return (self.measure or self.method).lower()

    @property
    def resolved_scheme(self) -> str:
        if self.scheme != "auto":
            return self.scheme
        return WITH_INTERACTION if self.resolved_measure == "nm" else SEQUENTIAL

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise DataError(f"{path}: not a JSON file: {exc}") from exc
        if not isinstance(raw, dict):
            raise DataError(f"{path}: the configuration must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def with_overrides(self, **overrides) -> "RunConfig":
        values = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **values) if values else self


@dataclass
class PanelDataset:
    """The couples of every (state, census year) as one array, with optional
    income and singles.

    ``counts[index[(state, year)]]`` is that wave's table, with ``labels``
    on both axes (lowest first); each must pass :class:`ContingencyTable`'s
    checks, and :func:`load_couples` keeps only the waves with at least one
    couple. ``states`` lists the states in sorted order,
    ``UNKNOWN`` left out. The national aggregate of each year is summed once,
    at construction, over ``states`` in order and then over ``UNKNOWN`` when
    ``include_unknown`` is set. ``income`` maps (state, year) to the top
    decile share, ``singles`` to the (single men, single women) vectors of
    :func:`load_singles`. The pipeline reads the arrays, cut once per run.
    """

    counts: np.ndarray
    index: dict[tuple[str, int], int]
    labels: tuple[str, ...]
    waves: tuple[int, ...]
    states: tuple[str, ...]
    income: dict[tuple[str, int], float] = field(default_factory=dict)
    singles: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    include_unknown: bool = False
    national_counts: dict[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        k = len(self.labels)
        if self.counts.shape != (len(self.index), k, k):
            raise TableError(f"counts must hold one {k}x{k} table per key, "
                             f"got shape {self.counts.shape}")
        for counts in self.counts[_refused(self.counts)]:
            ContingencyTable(counts, self.labels, self.labels)  # raises its TableError
        members = (*self.states, UNKNOWN_STATE) if self.include_unknown else self.states
        self.national_counts = {}
        for year in sorted({year for _, year in self.index}):
            rows = [self.index[(s, year)] for s in members if (s, year) in self.index]
            if rows:
                self.national_counts[year] = self.counts[rows].sum(axis=0)

    def unit_counts(self, unit: str, year: int) -> np.ndarray | None:
        """One wave's couples counts of a state, or of the national aggregate
        ``US``."""
        if unit == NATIONAL:
            return self.national_counts.get(year)
        row = self.index.get((unit, year))
        return None if row is None else self.counts[row]


_COUPLES = ("year", "state", "husband_edu", "wife_edu", "count")
_SINGLES = ("year", "state", "sex", "edu", "count")
_INCOME = ("state", "year", "top10_share")


def _read_rows(path: str | Path, required: tuple[str, ...]):
    """Each data line of a CSV file as ``(line number, fields)``: the
    ``required`` columns' fields in that order, None for a field the line
    ends before. Blank lines are skipped; line numbers are physical."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None) or []
        if not set(required) <= set(header):
            raise DataError(
                f"{path}: header must contain {sorted(required)}, got "
                f"{sorted(set(header))}"
            )
        position = {name: i for i, name in enumerate(header)}  # the last one wins
        pick = operator.itemgetter(*(position[name] for name in required))
        width = len(header)
        for row in reader:
            if row:
                if len(row) < width:
                    row += [None] * (width - len(row))
                yield reader.line_num, pick(row)


def _complete(fields, required, path, lineno):
    """Refuse a line that ends before one of its ``required`` fields."""
    for name, value in zip(required, fields):
        if value is None:
            raise DataError(f"{path}: line {lineno}: no {name!r} field")


def _parse_columns(path: str | Path, required: tuple[str, ...], parsers) -> list[list]:
    """The ``required`` columns of a CSV file, each field parsed by its
    column's ``parse(value, path, lineno)``.

    Each distinct value of a column is parsed once. If a parser refuses a
    value, the first line that holds a refused value is checked again field
    by field, in column order, and raises that field's DataError: the first
    bad line is the one reported.
    """
    records = list(_read_rows(path, required))
    columns = list(zip(*(fields for _, fields in records))) or [()] * len(required)
    parsed, first_bad = [], len(records)
    for column, parse in zip(columns, parsers):
        known = {}  # a parser never returns None, so None marks a refused value
        for value in set(column):
            try:
                known[value] = None if value is None else parse(value, path, 0)
            except DataError:
                known[value] = None
        first_bad = min([first_bad, *(column.index(v) for v, r in known.items() if r is None)])
        parsed.append(list(map(known.__getitem__, column)))
    if first_bad < len(records):
        lineno, fields = records[first_bad]
        _complete(fields, required, path, lineno)
        for value, parse in zip(fields, parsers):
            parse(value, path, lineno)
    return parsed


def _summed(path: str | Path, required: tuple[str, ...], parsers,
            cells) -> tuple[dict, np.ndarray]:
    """Each line's count added, with one ``np.add.at``, to its cell of an
    array of ``cells`` per distinct (state, year). The columns are ``year``,
    ``state``, the cell's indices and ``count``, checked by ``parsers`` as
    :func:`_parse_columns` does. Returns each (state, year) with its row,
    in order of first appearance, and the array (keys, *cells)."""
    years, states, *cell, counts = _parse_columns(path, required, parsers)
    keys = {key: i for i, key in enumerate(dict.fromkeys(zip(states, years)))}
    rows = list(map(keys.__getitem__, zip(states, years)))
    summed = np.zeros((len(keys), *cells))
    np.add.at(summed, tuple(np.array(c, dtype=np.intp) for c in (rows, *cell)),
              np.array(counts, dtype=float))
    return keys, summed


def _parse_count(value: str, path, lineno) -> int:
    try:
        count = int(value)
    except (TypeError, ValueError):
        raise DataError(f"{path}: line {lineno}: count {value!r} is not an integer")
    if count < 0:
        raise DataError(f"{path}: line {lineno}: negative count {count}")
    return count


def _parse_year(value: str, path, lineno, waves) -> int:
    try:
        year = int(value)
    except (TypeError, ValueError):
        raise DataError(f"{path}: line {lineno}: year {value!r} is not an integer")
    if year not in waves:
        raise DataError(
            f"{path}: line {lineno}: year {year} not in configured waves {waves}"
        )
    return year


def _parse_state(value, path, lineno) -> str:
    state = (value or "").strip()
    if not state:
        raise DataError(f"{path}: line {lineno}: empty state")
    return state


def _parse_label(value: str, path, lineno, labels, detail: str = "") -> int:
    if value not in labels:
        raise DataError(f"{path}: line {lineno}: unknown category {value!r}{detail}")
    return labels.index(value)


def _parse_sex(value: str, path, lineno) -> int:
    sex = value.strip().lower()
    if sex not in ("m", "w"):
        raise DataError(f"{path}: line {lineno}: sex must be 'm' or 'w'")
    return ("m", "w").index(sex)


def load_couples(path: str | Path, config: RunConfig | None = None) -> PanelDataset:
    """Assemble the per-(state, year) tables of a couples CSV, read column by
    column into one array."""
    config = config or RunConfig()
    k = len(config.labels)
    category = partial(_parse_label, labels=config.labels,
                       detail=f" (configured: {list(config.labels)})")
    keys, grid = _summed(path, _COUPLES, (partial(_parse_year, waves=config.waves), _parse_state,
                                          category, category, _parse_count), (k, k))
    kept = grid.any(axis=(1, 2))
    index = {key: i for i, key in enumerate(key for key, keep in zip(keys, kept) if keep)}
    states = tuple(sorted({state for state, _ in index} - {UNKNOWN_STATE}))
    return PanelDataset(grid[kept], index, config.labels, config.waves, states,
                        include_unknown=config.include_unknown)


def load_income(path: str | Path) -> dict[tuple[str, int], float]:
    """Top decile income share per (state, year); a repeated (state, year)
    is refused."""
    shares: dict[tuple[str, int], float] = {}
    for lineno, fields in _read_rows(path, _INCOME):
        _complete(fields, _INCOME, path, lineno)
        state, year, share = fields
        try:
            year = int(year)
            share = float(share)
        except (TypeError, ValueError):
            raise DataError(f"{path}: line {lineno}: malformed income row")
        if not 0.0 < share < 1.0:
            raise DataError(
                f"{path}: line {lineno}: top10_share must be strictly between "
                f"0 and 1, got {share}"
            )
        key = (_parse_state(state, path, lineno), year)
        if key in shares:
            raise DataError(f"{path}: line {lineno}: a second top10_share for "
                            f"{key[0]} {year}")
        shares[key] = share
    return shares


def load_singles(
    path: str | Path, config: RunConfig | None = None
) -> dict[tuple[str, int], tuple[np.ndarray, np.ndarray]]:
    """Single men / single women counts per (state, year), read column by
    column into one (keys, sex, category) array."""
    config = config or RunConfig()
    keys, pools = _summed(path, _SINGLES, (
        partial(_parse_year, waves=config.waves), _parse_state, _parse_sex,
        partial(_parse_label, labels=config.labels), _parse_count), (2, len(config.labels)))
    return {key: (pools[i, 0], pools[i, 1]) for key, i in keys.items()}


def format_number(x: float) -> str:
    """Fixed 12-significant-digit rendering so outputs are byte-stable."""
    if x != x:
        return "nan"
    if x in (float("inf"), float("-inf")):
        return "inf" if x > 0 else "-inf"
    if float(x) == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.12g}"


def _divide(scheme: str, counts: np.ndarray, pools=None):
    """A stack of tables (N, n, m), with or without its (men, women)
    singles stacks, on ``scheme``'s divide: each block summed in one
    :func:`~homlab.tables._block_sum` pass over the stack. Returns the cut,
    its singles and the blocks (None for the three-level scheme, which
    leaves the stack as it is), or raises the DataError that refuses it."""
    if scheme == THREE_LEVEL:
        return counts, pools, None
    if counts.shape[1:] != (3, 3):
        raise DataError(f"the {scheme!r} divide needs a three-level table, "
                        f"got {counts.shape[1]}x{counts.shape[2]}")
    blocks = _CUTS[scheme]
    cut = np.stack([np.stack([_block_sum(counts, r, c) for c in blocks], axis=-1)
                    for r in blocks], axis=-2)
    if pools is not None:
        pools = tuple(np.stack([_block_sum(pool, b) for b in blocks], axis=-1)
                      for pool in pools)
    return cut, pools, blocks


# ---------------------------------------------------------------------------
# pipeline helpers
# ---------------------------------------------------------------------------

def units(panel: PanelDataset) -> tuple[str, ...]:
    """National aggregate first, then states in sorted order."""
    return (NATIONAL, *panel.states)


_NO_SINGLES = "the surplus-based method needs singles counts"

# pairs that these errors make impossible are reported, not raised
EXCLUDED = (
    UndefinedIndicatorError,
    InfeasibilityError,
    ConvergenceError,
    ShapeError,
    DataError,
)


@dataclass
class _RunCut:
    """Every present wave of a run's units, cut once, as one stack.

    ``rows[unit]`` maps each present year, in wave order, to its row of
    ``counts`` (N, n, n), whose homogamy shares are ``shares``; both are
    None when the divide cannot cut the tables, as are ``labels``, the
    categories of the cut on both axes. ``errors[i]`` is the error that
    excludes row ``i`` (no singles for ``csa``, or a divide that cannot cut
    it), or None, and ``singles`` holds the single men and women stacks
    (N, n) for ``csa``.
    """

    rows: dict[str, dict[int, int]]
    errors: list
    counts: np.ndarray | None = None
    shares: list | None = None
    singles: tuple[np.ndarray, np.ndarray] | None = None
    labels: tuple[str, ...] | None = None


def _cut_run(panel: PanelDataset, config: RunConfig, unit_list, method: str = "") -> _RunCut:
    """The present waves of ``unit_list``'s units on the configured divide,
    in one cut of their stack; with their singles for ``csa``."""
    rows: dict[str, dict[int, int]] = {}
    tables, pools = [], []
    for unit in unit_list:
        rows[unit] = {}
        for year in config.waves:
            counts = panel.unit_counts(unit, year)
            if counts is not None:
                rows[unit][year] = len(tables)
                tables.append(counts)
                own = (unit, year) in panel.index  # the national aggregate has no singles
                pools.append(panel.singles.get((unit, year)) if own else None)
    missing = DataError(_NO_SINGLES)
    errors = [missing if method == "csa" and pool is None else None for pool in pools]
    k = len(panel.labels)
    counts, singles = np.array(tables).reshape(-1, k, k), None
    if method == "csa":
        singles = tuple(np.array([(pool or (np.zeros(k),) * 2)[sex] for pool in pools])
                        .reshape(-1, k) for sex in (0, 1))
    try:
        counts, singles, blocks = _divide(config.categories, counts, singles)
    except DataError as exc:
        return _RunCut(rows, [error or exc for error in errors])
    labels = panel.labels if blocks is None else tuple("+".join(panel.labels[b])
                                                       for b in blocks)
    return _RunCut(rows, errors, counts, homogamy_shares(counts).tolist(), singles, labels)


def indicator_rows(panel: PanelDataset, config: RunConfig) -> list[dict]:
    """Per-unit, per-wave indicator values on the configured divide.

    Two-level divides carry the scalar indicator battery; the three-level
    scheme carries the homogamy share and every split of the matrix-valued
    measure. Each tag is evaluated once, on the stack of the run's cut
    waves. Undefined values, including single undefined splits of the
    matrix, come through as empty strings.
    """
    cut = _cut_run(panel, config, units(panel))
    three_level = config.categories == THREE_LEVEL
    if cut.shares:  # cut, and not empty
        values = {tag: ind.evaluate_stack(tag, cut.counts, config.rounding)
                  for tag in (("gll",) if three_level else ind.SCALAR_TAGS)}
        splits = (cut.counts.shape[1] - 1,) * 2
    rows = []
    for unit, years in cut.rows.items():
        for year, i in years.items():
            row: dict[str, object] = {"state": unit, "year": year}
            if cut.errors[i] is not None:  # no divide to report on: every value blank
                rows.append({**row, "share": "", **dict.fromkeys(ind.SCALAR_TAGS, "")})
                continue
            row["share"] = cut.shares[i]
            if three_level:
                for (j, k), value in np.ndenumerate(values["gll"][0][i].reshape(splits)):
                    row[f"gll_{j + 1}_{k + 1}"] = "" if np.isnan(value) else value
            else:
                for tag, (tag_values, undefined) in values.items():
                    row[tag] = "" if undefined[i] else float(tag_values[i, 0])
            rows.append(row)
    return rows


def _scalar_values(tag: str, cut: _RunCut, rounding: str) -> list:
    """A scalar indicator's reported value on each row of the run's cut, or
    the error that excludes the row: one evaluation of the whole stack."""
    if not cut.shares:  # uncut or empty: every row carries its cut's error
        return list(cut.errors)
    if cut.counts.shape[1] != 2:
        error = DataError("scalar indicators need a two-level divide")
        return [cut_error or error for cut_error in cut.errors]
    values, undefined = ind.evaluate_stack(tag, cut.counts, rounding)
    return [error if error is not None
            else ind._undefined_error(tag, cut.counts[i]) if undefined[i]
            else float(values[i, 0])
            for i, error in enumerate(cut.errors)]


def _excluded(unit: str, decade: str, exc: Exception) -> DecadeChange:
    return DecadeChange(unit, decade, None, False, f"{type(exc).__name__}: {exc}")


def _decade_pass(panel: PanelDataset, config: RunConfig, unit_list):
    """The decade changes of every unit in ``unit_list``, in order.

    The units' present waves are cut once, as one stack. A scalar measure
    is evaluated once on that stack, and a change is late minus early; the
    pairs of a method measure go to one :func:`decompose_counts` call.
    Returns the changes, the decompositions of the valid pairs by ``(unit,
    decade)``, the run's cut and the measure's value on each of its rows
    (all None for a method measure).
    """
    measure = config.resolved_measure
    cut = _cut_run(panel, config, unit_list, measure)
    values = (_scalar_values(measure, cut, config.rounding)
              if measure in ind.SCALAR_TAGS else [None] * len(cut.errors))
    unknown = (measure not in METHOD_TAGS and measure not in ind.SCALAR_TAGS
               and DataError(f"unknown measure: {measure!r}"))
    changes: list = []
    pending = []  # (index in changes, unit, decade, early row, late row)
    for unit, years in cut.rows.items():
        for early_year, late_year in zip(config.waves, config.waves[1:]):
            decade = decade_label(early_year)
            if early_year not in years or late_year not in years:
                changes.append(DecadeChange(unit, decade, None, False, "missing wave"))
                continue
            early, late = years[early_year], years[late_year]
            steps = (unknown, cut.errors[early], cut.errors[late], values[late], values[early])
            error = next((step for step in steps if isinstance(step, Exception)), None)
            if error is not None:
                changes.append(_excluded(unit, decade, error))
            elif measure in METHOD_TAGS:
                pending.append((len(changes), unit, decade, early, late))
                changes.append(None)  # filled in from the stacked pass
            else:
                changes.append(DecadeChange(unit, decade, values[late] - values[early]))

    details: dict[tuple[str, str], object] = {}
    if not pending:
        return changes, details, cut, values
    sides = [[p[3] for p in pending], [p[4] for p in pending]]
    results = decompose_counts(
        *(cut.counts[side] for side in sides), measure, config.resolved_scheme,
        config.rounding, config.tol, config.max_iter,
        [cut.singles and tuple(pool[side] for pool in cut.singles) for side in sides])
    for (index, unit, decade, _, _), result in zip(pending, results):
        if isinstance(result, EXCLUDED):
            changes[index] = _excluded(unit, decade, result)
        elif isinstance(result, Exception):
            raise result
        else:
            changes[index] = DecadeChange(unit, decade, float(result.nonstructural_effect))
            details[(unit, decade)] = result
    return changes, details, cut, values


def decade_changes(panel: PanelDataset, config: RunConfig):
    """Per-state decade changes of the configured measure, in state and
    decade order, and the decompositions of the valid pairs by ``(state,
    decade)``; the national aggregate is not included.

    Each present wave is cut once, and the pairs of all states go to one
    :func:`decompose_counts` call. Pairs with a missing endpoint wave, an
    undefined measure, an infeasible or non-converging counterfactual, or
    tables of the wrong shape for the method are returned invalid with the
    reason attached, never silently dropped.
    """
    return _decade_pass(panel, config, panel.states)[:2]


def trend_series(panel: PanelDataset, config: RunConfig):
    """The states' decade changes of the configured measure, and the series
    rows of every unit, from one decade pass over :func:`units`.

    For a method measure, a unit with two or more present waves has one row
    per configured wave: ``effect`` is the decade starting at that wave, and
    ``cumulative`` the share of the unit's first present wave plus the
    effects so far (see :func:`~homlab.decomposition.cumulate`). For a
    scalar measure, each present (unit, wave) has one row whose
    ``cumulative`` is the wave's value, blank where the wave is undefined or
    uncut, and whose ``effect`` is blank.
    """
    changes, _, cut, values = _decade_pass(panel, config, units(panel))
    span = len(config.waves) - 1  # the decades of one unit
    method = config.resolved_measure in METHOD_TAGS
    rows = []
    for i, (unit, years) in enumerate(cut.rows.items()):
        if not method:
            rows += [{"state": unit, "year": year, "effect": "",
                      "cumulative": values[r] if isinstance(values[r], float) else ""}
                     for year, r in years.items()]
            continue
        if len(years) < 2:
            continue
        first = next(iter(years))
        # the first wave's share on its plain cut, which csa without singles
        # lacks; an uncut unit's series is all gaps
        anchor = cut.shares[years[first]] if cut.shares else None
        effects = {c.decade: c.delta if c.valid else None
                   for c in changes[i * span:(i + 1) * span]}
        cumulative = cumulate(config.waves, first, anchor, effects)
        rows += [{"state": unit, "year": year, "cumulative": cumulative[year],
                  "effect": effects.get(decade_label(year), "")}
                 for year in config.waves]
    return changes[span:], rows


def income_decade_deltas(
    income: dict[tuple[str, int], float], waves
) -> dict[tuple[str, str], float]:
    """Change in the top decile share per (state, decade)."""
    deltas = {}
    states = {state for state, _ in income}
    for state in states:
        for early_year, late_year in zip(waves, waves[1:]):
            a = income.get((state, early_year))
            b = income.get((state, late_year))
            if a is not None and b is not None:
                deltas[(state, decade_label(early_year))] = b - a
    return deltas
