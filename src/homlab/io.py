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
state level and the national aggregate unless explicitly configured in. The
code ``US`` names the national aggregate, so a couples or singles line may
not carry it. A bad line raises a DataError that names the file and its
physical line, as do bytes that are not UTF-8 and a field longer than
``csv.field_size_limit()``; of several bad lines, the first is reported.
Each file is read column by column; only a refused line's number is looked
up, by a second scan, and couples and singles counts are summed by
``np.bincount``. The pipeline stays columnar to the writers: a run's waves
are gathered by row index into one stack, and the decade pass and the
indicators return columns aligned with the rows of their CSV files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import operator
from dataclasses import KW_ONLY, dataclass, field
from functools import partial
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import indicators as ind
from .counterfactual import METHOD_TAGS
from .decomposition import (DECOMPOSITION_COLUMNS, SCHEMES, SEQUENTIAL, WITH_INTERACTION,
                            _decompose_columns, cumulate, decade_label)
from .errors import DataError, HomlabError, TableError
from .tables import _block_sum, _counts_error, _refused, homogamy_shares
from .trend import FIRST_HALF_LAST_STATE, DecadeChange

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
    split_state: str = FIRST_HALF_LAST_STATE

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
        for name, kind, what in (("include_unknown", bool, "true or false"),
                                 ("split_state", str, "a string")):
            if not isinstance(getattr(self, name), kind):  # "no" would read as true
                raise DataError(f"{name} must be {what}, got {getattr(self, name)!r}")
        if any(early >= late for early, late in zip(self.waves, self.waves[1:])):
            # a decade runs from one wave to the next, later one
            raise DataError(f"waves must be increasing, got {self.waves!r}")
        if not 0 < self.tol < float("inf"):  # NaN fails this comparison too
            raise DataError(f"tol must be positive and finite, got {self.tol!r}")
        if self.max_iter < 1:
            raise DataError(f"max_iter must be at least 1, got {self.max_iter}")
        # the one place a method or measure tag is checked and lowered
        for name, tags in (("method", METHOD_TAGS),
                           ("measure", ("", *METHOD_TAGS, *ind.SCALAR_TAGS))):
            tag = getattr(self, name)
            if not isinstance(tag, str) or tag.lower() not in tags:
                raise DataError(f"unknown {name}: {tag!r} (one of "
                                f"{', '.join(filter(None, tags))})")
            object.__setattr__(self, name, tag.lower())
        if self.categories not in CATEGORY_SCHEMES:
            raise DataError(f"unknown category scheme: {self.categories!r}")
        # a list or an object is no mode, and not a key to look up
        rounding = _ROUNDING_ALIASES.get(self.rounding) if isinstance(self.rounding, str) else None
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
        return self.measure or self.method

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
    on both axes (lowest first), and ``national_counts[year]`` that year's
    national aggregate. Each table's counts must pass the counts check of
    :class:`~homlab.tables.ContingencyTable`, whose ``TableError`` the
    first that fails raises, and :func:`load_couples` keeps only the waves
    with at least one couple. ``states`` lists the states of ``index`` in
    sorted order, ``UNKNOWN`` left out; ``US`` as a state is a DataError,
    as in the loaders. The national aggregate of each year is summed once,
    at construction, over ``states`` in order and then over ``UNKNOWN``
    when ``include_unknown`` is set. ``income`` maps (state, year) to the
    top decile share, ``singles`` to the (single men, single women) vectors
    of :func:`load_singles`. The pipeline reads the arrays, cut once per
    run.
    """

    counts: np.ndarray
    index: dict[tuple[str, int], int]
    labels: tuple[str, ...]
    _: KW_ONLY
    income: dict[tuple[str, int], float] = field(default_factory=dict)
    singles: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    include_unknown: bool = False
    states: tuple[str, ...] = field(init=False)
    national_counts: dict[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.states = tuple(sorted({state for state, _ in self.index} - {UNKNOWN_STATE}))
        if NATIONAL in self.states:
            raise DataError(f"state code {NATIONAL!r} is reserved for the national aggregate")
        k = len(self.labels)
        if self.counts.shape != (len(self.index), k, k):
            raise TableError(f"counts must hold one {k}x{k} table per key, "
                             f"got shape {self.counts.shape}")
        for counts in self.counts[_refused(self.counts)]:
            raise _counts_error(counts)
        members = (*self.states, UNKNOWN_STATE) if self.include_unknown else self.states
        self.national_counts = {}
        for year in sorted({year for _, year in self.index}):
            rows = [self.index[(s, year)] for s in members if (s, year) in self.index]
            if rows:
                self.national_counts[year] = self.counts[rows].sum(axis=0)


_COUPLES = ("year", "state", "husband_edu", "wife_edu", "count")
_SINGLES = ("year", "state", "sex", "edu", "count")
_INCOME = ("state", "year", "top10_share")


def _read_rows(path: str | Path, required: tuple[str, ...]):
    """Each data line of a CSV file as its ``required`` columns' fields, in
    that order, None for a field the line ends before: one ``csv.reader``
    pass into a list. Blank lines are skipped; undecodable bytes and an
    overlong field raise a DataError with the physical line of the bad byte,
    or of the point where the field passes the limit: inside a quoted field
    that spans lines, a later line than the one its record starts on."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None) or []
            if not set(required) <= set(header):
                raise DataError(f"{path}: header must contain {sorted(required)}, got "
                                f"{sorted(set(header))}")
            rows = list(filter(None, reader))
        except UnicodeDecodeError:
            raise DataError(f"{path}: line {_undecodable_line(path)}: not UTF-8 text") from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    width, lengths = len(header), set(map(len, rows))
    if min(lengths, default=width) < width:
        rows = [row + [None] * (width - len(row)) for row in rows]
    if header == list(required) and max(lengths, default=width) <= width:
        return rows  # each line already is its fields
    position = {name: i for i, name in enumerate(header)}  # the last one wins
    return list(map(operator.itemgetter(*(position[name] for name in required)), rows))


def _undecodable_line(path) -> int:
    """The physical line of a file's first byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[:exc.start]
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n") + 1


def _complete(fields, required, path, lineno):
    """Refuse a line that ends before one of its ``required`` fields."""
    for name, value in zip(required, fields):
        if value is None:
            raise DataError(f"{path}: line {lineno}: no {name!r} field")


def _parse_columns(path: str | Path, required: tuple[str, ...], parsers,
                   refuse=None) -> list[list]:
    """The ``required`` columns of a CSV file, each field parsed by its
    column's ``parse(value, path, lineno)``: each distinct value once, and a
    count column in one ``map(int, ...)`` by :func:`_parse_count`'s rule.

    ``refuse``, if given, takes the parsed columns (None for a refused
    value) and returns the first line it refuses, with why, or None. Only a
    bad line's number is found, by a second scan of the file: the first bad
    line is checked again field by field, in column order, and raises its
    first field's DataError, else ``refuse``'s.
    """
    records = list(_read_rows(path, required))
    columns = list(zip(*records)) or [()] * len(required)
    parsed, first_bad = [], len(records)
    for column, parse in zip(columns, parsers):
        try:  # every count at once, unless one is refused
            counts = list(map(int, column)) if parse is _parse_count else None
        except (TypeError, ValueError):
            counts = None
        if counts is not None and min(counts, default=0) >= 0:
            parsed.append(counts)
            continue
        known = {}  # a parser never returns None, so None marks a refused value
        for value in set(column):
            try:
                known[value] = None if value is None else parse(value, path, 0)
            except DataError:
                known[value] = None
        first_bad = min([first_bad, *(column.index(v) for v, r in known.items() if r is None)])
        parsed.append(list(map(known.__getitem__, column)))
    whole = refuse(parsed) if refuse else None
    if whole:
        first_bad = min(first_bad, whole[0])
    if first_bad < len(records):
        with open(path, newline="", encoding="utf-8") as fh:  # the header is line 1
            reader = csv.reader(fh)
            lineno = [reader.line_num for row in reader if row][first_bad + 1]
        _complete(records[first_bad], required, path, lineno)
        for value, parse in zip(records[first_bad], parsers):
            parse(value, path, lineno)
        raise DataError(f"{path}: line {lineno}: {whole[1]}")
    return parsed


def _summed(path: str | Path, required: tuple[str, ...], parsers,
            cells) -> tuple[dict, np.ndarray]:
    """Each line's count added to its cell of an array of ``cells`` per
    distinct (state, year), by one ``np.bincount`` over the cells' flat
    indices. The columns are ``year``, ``state``, the cell's indices and
    ``count``, checked by ``parsers`` as :func:`_parse_columns` does.
    Returns each (state, year) with its row, in order of first appearance,
    and the array (keys, *cells)."""
    years, states, *cell, counts = _parse_columns(path, required, parsers)
    keys = {key: i for i, key in enumerate(dict.fromkeys(zip(states, years)))}
    rows = list(map(keys.__getitem__, zip(states, years)))
    shape = (len(keys), *cells)
    flat = np.ravel_multi_index(tuple(np.array(c, dtype=np.intp) for c in (rows, *cell)), shape)
    summed = np.bincount(flat, np.array(counts, dtype=float), minlength=np.prod(shape))
    return keys, summed.astype(float, copy=False).reshape(shape)  # float with no lines too


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
    if state == NATIONAL:
        raise DataError(f"{path}: line {lineno}: state code {state!r} is reserved "
                        "for the national aggregate")
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
    return PanelDataset(grid[kept], index, config.labels,
                        include_unknown=config.include_unknown)


def _parse_income(value: str, path, lineno, kind=int):
    try:  # an income year (int) or top decile share (float)
        number = kind(value)
    except ValueError:
        raise DataError(f"{path}: line {lineno}: malformed income row")
    if kind is float and not 0.0 < number < 1.0:
        raise DataError(f"{path}: line {lineno}: top10_share must be strictly between "
                        f"0 and 1, got {number}")
    return number


def _income_refused(columns):
    """The first income line with an empty state, or with the (state, year)
    of an earlier line: checked after the line's numbers."""
    seen = set()
    for i, key in enumerate(zip(*columns[:2])):
        if not key[0] or key in seen:
            return i, f"a second top10_share for {key[0]} {key[1]}" if key[0] else "empty state"
        seen.add(key)


def load_income(path: str | Path) -> dict[tuple[str, int], float]:
    """Top decile share per (state, year), read column by column; a
    repeated (state, year) is refused. US rows are read, though no output
    uses them."""
    states, years, shares = _parse_columns(path, _INCOME, (
        lambda value, *_: value.strip(), _parse_income, partial(_parse_income, kind=float)),
        _income_refused)
    return dict(zip(zip(states, years), shares))


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
    """Fixed 12-significant-digit rendering so outputs are byte-stable.

    ``f"{x:.12g}"``, except that an integral value below 1e15 is written out
    in full where that text has an exponent or reads ``-0``: those are the
    only texts of an integral value that differ from its ``int``.
    """
    text = f"{x:.12g}"
    if ("e" in text or text == "-0") and abs(x) < 1e15 and x == int(x):
        return str(int(x))
    return text


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
    in one cut of their stack, gathered by row index from the panel's
    tables and national aggregates; with their singles for ``csa``."""
    k = len(panel.labels)
    national = {(NATIONAL, year): len(panel.counts) + i
                for i, year in enumerate(panel.national_counts)}
    where = {**panel.index, **national}
    rows: dict[str, dict[int, int]] = {}
    gathered = []
    for unit in unit_list:
        rows[unit] = present = {}
        for year in config.waves:
            row = where.get((unit, year))
            if row is not None:
                present[year] = len(gathered)
                gathered.append(row)
    stack = np.concatenate((panel.counts, np.reshape(list(panel.national_counts.values()),
                                                     (-1, k, k))))
    counts, errors, singles = stack[gathered], [None] * len(gathered), None
    if method == "csa":  # the national aggregate has no singles
        pools = [None if (unit, year) in national else panel.singles.get((unit, year))
                 for unit, years in rows.items() for year in years]
        missing = DataError(_NO_SINGLES)
        errors = [missing if pool is None else None for pool in pools]
        singles = tuple(np.array([(pool or (np.zeros(k),) * 2)[sex] for pool in pools])
                        .reshape(-1, k) for sex in (0, 1))
    try:
        counts, singles, blocks = _divide(config.categories, counts, singles)
    except DataError as exc:
        return _RunCut(rows, [error or exc for error in errors])
    labels = panel.labels if blocks is None else tuple("+".join(panel.labels[b])
                                                       for b in blocks)
    return _RunCut(rows, errors, counts, homogamy_shares(counts).tolist(), singles, labels)


def _blanked(values: np.ndarray, undefined: np.ndarray) -> list:
    """A column of floats with an empty string where ``undefined``."""
    column = values.astype(object)
    column[undefined] = ""
    return column.tolist()


def indicator_rows(panel: PanelDataset, config: RunConfig) -> dict[str, list]:
    """Per-unit, per-wave indicator values on the configured divide, as
    columns aligned with the rows of ``indicators.csv``: ``state``, ``year``
    and ``share``, then the value columns in name order.

    Two-level divides carry the scalar indicator battery; the three-level
    scheme carries the homogamy share and every split of the matrix-valued
    measure. Each tag is evaluated once, on the stack of the run's cut
    waves. Undefined values, including single undefined splits of the
    matrix, come through as empty strings, as does every value of a run
    whose divide cannot cut its tables.
    """
    cut = _cut_run(panel, config, units(panel))
    columns: dict[str, list] = {
        "state": [unit for unit, years in cut.rows.items() for _ in years],
        "year": [year for years in cut.rows.values() for year in years]}
    size = len(columns["year"])
    if not cut.shares:  # uncut or empty: no divide to report on
        return {**columns, **{name: [""] * size for name in (
            "share", *(sorted(ind.SCALAR_TAGS) if size else ()))}}
    values = {}
    if config.categories == THREE_LEVEL:
        splits, _ = ind.evaluate_stack("gll", cut.counts, config.rounding)
        side = cut.counts.shape[1] - 1
        for j, column in enumerate(splits.T):
            values[f"gll_{j // side + 1}_{j % side + 1}"] = _blanked(column, np.isnan(column))
    else:
        for tag in ind.SCALAR_TAGS:
            tag_values, undefined = ind.evaluate_stack(tag, cut.counts, config.rounding)
            values[tag] = _blanked(tag_values[:, 0], undefined)
    return {**columns, "share": cut.shares, **dict(sorted(values.items()))}


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
    return DecadeChange(unit, decade, None, reason=f"{type(exc).__name__}: {exc}")


def _decade_pass(panel: PanelDataset, config: RunConfig, unit_list):
    """The decade changes of every unit in ``unit_list``, in order.

    The units' present waves are cut once, as one stack. A scalar measure
    is evaluated once on that stack, and a change is late minus early; the
    pairs of a method measure go to one call of the stacked decomposition
    core. Returns the changes, the core's columns by name aligned with them
    (None where a pair has no decomposition), the run's cut and the
    measure's value on each of its rows (all None for a method measure).
    """
    measure = config.resolved_measure
    cut = _cut_run(panel, config, unit_list, measure)
    values = (_scalar_values(measure, cut, config.rounding)
              if measure in ind.SCALAR_TAGS else [None] * len(cut.errors))
    decades = list(zip(map(decade_label, config.waves), config.waves, config.waves[1:]))
    changes: list = []
    pending = []  # (index in changes, unit, decade, early row, late row)
    for unit, years in cut.rows.items():
        for decade, early_year, late_year in decades:
            if early_year not in years or late_year not in years:
                changes.append(DecadeChange(unit, decade, None, reason="missing wave"))
                continue
            early, late = years[early_year], years[late_year]
            steps = (cut.errors[early], cut.errors[late], values[late], values[early])
            error = next((step for step in steps if isinstance(step, Exception)), None)
            if error is not None:
                changes.append(_excluded(unit, decade, error))
            elif measure in METHOD_TAGS:
                pending.append((len(changes), unit, decade, early, late))
                changes.append(None)  # filled in from the stacked pass
            else:
                changes.append(DecadeChange(unit, decade, values[late] - values[early]))

    columns = {name: [None] * len(changes) for name in DECOMPOSITION_COLUMNS}
    if pending:
        sides = [[p[3] for p in pending], [p[4] for p in pending]]
        stacked, errors = _decompose_columns(
            *(cut.counts[side] for side in sides), measure, config.resolved_scheme,
            config.rounding, config.tol, config.max_iter,
            [cut.singles and tuple(pool[side] for pool in cut.singles) for side in sides])
        for k, ((index, unit, decade, _, _), error) in enumerate(zip(pending, errors)):
            if error is None:
                changes[index] = DecadeChange(unit, decade, stacked["nonstructural"][k])
                for name, column in columns.items():
                    column[index] = stacked[name][k]
            elif isinstance(error, HomlabError):  # any other error is a bug
                changes[index] = _excluded(unit, decade, error)
            else:
                raise error
    return changes, columns, cut, values


def decade_changes(panel: PanelDataset, config: RunConfig):
    """Per-state decade changes of the configured measure, in state and
    decade order, and the value columns of ``decomposition.csv`` aligned
    with them: :data:`~homlab.decomposition.DECOMPOSITION_COLUMNS` by name,
    None where a pair has no decomposition. The national aggregate is not
    included.

    Each present wave is cut once, and the pairs of all states go to one
    call of the stacked decomposition core. A pair with a missing endpoint
    wave, or that raises any ``HomlabError`` (an undefined measure, an
    infeasible or non-converging counterfactual, a method/shape mismatch
    ...), is returned with no delta and the reason attached, never
    silently dropped.
    """
    return _decade_pass(panel, config, panel.states)[:2]


def trend_series(panel: PanelDataset, config: RunConfig):
    """The states' decade changes of the configured measure, and the
    columns of ``trend_series.csv`` (``state``, ``year``, ``cumulative``,
    ``effect``) for every unit, from one decade pass over :func:`units`.

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
    labels = [decade_label(year) for year in config.waves]
    method = config.resolved_measure in METHOD_TAGS
    columns: dict[str, list] = {"state": [], "year": [], "cumulative": [], "effect": []}
    for i, (unit, years) in enumerate(cut.rows.items()):
        if not method:
            columns["state"] += [unit] * len(years)
            columns["year"] += years
            columns["cumulative"] += [values[r] if isinstance(values[r], float) else ""
                                      for r in years.values()]
            columns["effect"] += [""] * len(years)
            continue
        if len(years) < 2:
            continue
        first = next(iter(years))
        # the first wave's share on its plain cut, which csa without singles
        # lacks; an uncut unit's series is all gaps
        anchor = cut.shares[years[first]] if cut.shares else None
        effects = {c.decade: c.delta for c in changes[i * span:(i + 1) * span]}
        cumulative = cumulate(config.waves, first, anchor, effects)
        columns["state"] += [unit] * len(config.waves)
        columns["year"] += config.waves
        columns["cumulative"] += [cumulative[year] for year in config.waves]
        columns["effect"] += [effects.get(label, "") for label in labels]
    return changes[span:], columns


def income_decade_deltas(
    income: dict[tuple[str, int], float], waves
) -> dict[tuple[str, str], float]:
    """Change in the top decile share per (state, decade)."""
    deltas = {}
    for state in sorted({state for state, _ in income}):
        for early_year, late_year in zip(waves, waves[1:]):
            a = income.get((state, early_year))
            b = income.get((state, late_year))
            if a is not None and b is not None:
                deltas[(state, decade_label(early_year))] = b - a
    return deltas
