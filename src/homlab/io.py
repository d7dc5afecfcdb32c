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
state level and the national aggregate unless explicitly configured in.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import indicators as ind
from .counterfactual import METHOD_TAGS
from .decomposition import (SCHEMES, SEQUENTIAL, WITH_INTERACTION, cumulate, decade_label,
                            decompose_stack)
from .errors import (
    ConvergenceError,
    DataError,
    InfeasibilityError,
    ShapeError,
    UndefinedIndicatorError,
)
from .tables import (
    ContingencyTable,
    TableWithSingles,
    couples_of,
    homogamy_share,
    merge_categories,
    merge_with_singles,
)
from .trend import DecadeChange

THREE_LEVEL = "three"
HS_CUT = "hs"
COLLEGE_CUT = "college"
CATEGORY_SCHEMES = (THREE_LEVEL, HS_CUT, COLLEGE_CUT)
_CUTS = {HS_CUT: [(0,), (1, 2)], COLLEGE_CUT: [(0, 1), (2,)]}

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
    """Tables per (state, census year), with optional income and singles."""

    tables: dict[tuple[str, int], ContingencyTable]
    waves: tuple[int, ...]
    states: tuple[str, ...]
    income: dict[tuple[str, int], float] = field(default_factory=dict)
    singles: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    include_unknown: bool = False

    def table(self, state: str, year: int) -> ContingencyTable | None:
        return self.tables.get((state, year))

    def national(self, year: int) -> ContingencyTable | None:
        parts = [
            self.tables[(state, year)].counts
            for state in self.states
            if (state, year) in self.tables
        ]
        if self.include_unknown and (UNKNOWN_STATE, year) in self.tables:
            parts.append(self.tables[(UNKNOWN_STATE, year)].counts)
        if not parts:
            return None
        reference = next(iter(self.tables.values()))
        return ContingencyTable(
            np.sum(parts, axis=0), reference.row_labels, reference.col_labels
        )

    def unit_table(self, unit: str, year: int) -> ContingencyTable | None:
        """One wave of a state, or of the national aggregate ``US``."""
        return self.national(year) if unit == NATIONAL else self.table(unit, year)

    def with_singles(self, state: str, year: int) -> TableWithSingles | None:
        table = self.table(state, year)
        pools = self.singles.get((state, year))
        if table is None or pools is None:
            return None
        return TableWithSingles(table, pools[0], pools[1])


def _read_rows(path: str | Path, required: set[str]):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = set(reader.fieldnames or ())
        if not required <= header:
            raise DataError(
                f"{path}: header must contain {sorted(required)}, got "
                f"{sorted(header)}"
            )
        for lineno, row in enumerate(reader, start=2):
            yield lineno, row


def _parse_count(value: str, path, lineno) -> int:
    try:
        count = int(value)
    except (TypeError, ValueError):
        raise DataError(f"{path}: line {lineno}: count {value!r} is not an integer")
    if count < 0:
        raise DataError(f"{path}: line {lineno}: negative count {count}")
    return count


def _parse_year(value: str, waves, path, lineno) -> int:
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


def load_couples(path: str | Path, config: RunConfig | None = None) -> PanelDataset:
    """Assemble per-(state, year) tables from a couples CSV."""
    config = config or RunConfig()
    index = {label: i for i, label in enumerate(config.labels)}
    k = len(config.labels)
    cells: dict[tuple[str, int], np.ndarray] = {}
    for lineno, row in _read_rows(path, {"year", "state", "husband_edu", "wife_edu", "count"}):
        year = _parse_year(row["year"], config.waves, path, lineno)
        state = _parse_state(row["state"], path, lineno)
        for col in ("husband_edu", "wife_edu"):
            if row[col] not in index:
                raise DataError(
                    f"{path}: line {lineno}: unknown category {row[col]!r} "
                    f"(configured: {list(config.labels)})"
                )
        count = _parse_count(row["count"], path, lineno)
        grid = cells.setdefault((state, year), np.zeros((k, k)))
        grid[index[row["husband_edu"]], index[row["wife_edu"]]] += count

    tables = {
        key: ContingencyTable(grid, config.labels, config.labels)
        for key, grid in cells.items()
        if grid.any()
    }
    states = tuple(
        sorted({state for state, _ in tables} - {UNKNOWN_STATE})
    )
    return PanelDataset(
        tables=tables,
        waves=config.waves,
        states=states,
        include_unknown=config.include_unknown,
    )


def load_income(path: str | Path) -> dict[tuple[str, int], float]:
    """Top decile income share per (state, year)."""
    shares: dict[tuple[str, int], float] = {}
    for lineno, row in _read_rows(path, {"state", "year", "top10_share"}):
        try:
            year = int(row["year"])
            share = float(row["top10_share"])
        except (TypeError, ValueError):
            raise DataError(f"{path}: line {lineno}: malformed income row")
        if not 0.0 < share < 1.0:
            raise DataError(
                f"{path}: line {lineno}: top10_share must be strictly between "
                f"0 and 1, got {share}"
            )
        shares[(_parse_state(row["state"], path, lineno), year)] = share
    return shares


def load_singles(
    path: str | Path, config: RunConfig | None = None
) -> dict[tuple[str, int], tuple[np.ndarray, np.ndarray]]:
    """Single men / single women counts per (state, year)."""
    config = config or RunConfig()
    index = {label: i for i, label in enumerate(config.labels)}
    k = len(config.labels)
    pools: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
    for lineno, row in _read_rows(path, {"year", "state", "sex", "edu", "count"}):
        year = _parse_year(row["year"], config.waves, path, lineno)
        state = _parse_state(row["state"], path, lineno)
        sex = row["sex"].strip().lower()
        if sex not in ("m", "w"):
            raise DataError(f"{path}: line {lineno}: sex must be 'm' or 'w'")
        if row["edu"] not in index:
            raise DataError(f"{path}: line {lineno}: unknown category {row['edu']!r}")
        count = _parse_count(row["count"], path, lineno)
        men, women = pools.setdefault((state, year), (np.zeros(k), np.zeros(k)))
        (men if sex == "m" else women)[index[row["edu"]]] += count
    return pools


def format_number(x: float) -> str:
    """Fixed 12-significant-digit rendering so outputs are byte-stable."""
    if x != x:
        return "nan"
    if x in (float("inf"), float("-inf")):
        return "inf" if x > 0 else "-inf"
    if float(x) == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.12g}"


def write_couples(panel: PanelDataset, path: str | Path):
    """Emit a panel back to the couples CSV schema (round-trip safe)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "state", "husband_edu", "wife_edu", "count"])
        for (state, year) in sorted(panel.tables, key=lambda k: (k[0], k[1])):
            table = panel.tables[(state, year)]
            for i, hlabel in enumerate(table.row_labels):
                for j, wlabel in enumerate(table.col_labels):
                    writer.writerow(
                        [year, state, hlabel, wlabel,
                         format_number(float(table.counts[i, j]))]
                    )


def dichotomize(subject: ContingencyTable | TableWithSingles, scheme: str):
    """Collapse a three-level table, with or without its singles, to the
    requested two-level divide."""
    if scheme == THREE_LEVEL:
        return subject
    table = couples_of(subject)
    if table.n_rows != 3 or table.n_cols != 3:
        raise DataError(f"the {scheme!r} divide needs a three-level table, "
                        f"got {table.n_rows}x{table.n_cols}")
    parts = _CUTS.get(scheme)
    if parts is None:
        raise DataError(f"no cut partition for scheme: {scheme!r}")
    merge = merge_with_singles if isinstance(subject, TableWithSingles) else merge_categories
    return merge(subject, parts, parts)


# ---------------------------------------------------------------------------
# pipeline helpers
# ---------------------------------------------------------------------------

def units(panel: PanelDataset) -> tuple[str, ...]:
    """National aggregate first, then states in sorted order."""
    return (NATIONAL, *panel.states)


# pairs that these errors make impossible are reported, not raised
EXCLUDED = (
    UndefinedIndicatorError,
    InfeasibilityError,
    ConvergenceError,
    ShapeError,
    DataError,
)


def cut_wave(panel: PanelDataset, config: RunConfig, unit: str, year: int,
             table: ContingencyTable, method: str = ""):
    """``unit``'s present wave ``table`` on the configured divide, as
    ``method`` takes it: with its singles for ``csa`` (a DataError without
    them), alone for any other method or indicator and for the share.
    """
    subject = panel.with_singles(unit, year) if method == "csa" else table
    if subject is None:
        raise DataError("the surplus-based method needs singles counts")
    return dichotomize(subject, config.categories)


def _unit_waves(panel: PanelDataset, config: RunConfig, unit_list, method: str = ""):
    """Each unit of ``unit_list`` with its present waves, each cut once by
    :func:`cut_wave`: ``(unit, {year: the cut or the EXCLUDED error it
    raised})``, in wave order."""
    for unit in unit_list:
        cuts = {}
        for year in config.waves:
            table = panel.unit_table(unit, year)
            if table is None:
                continue
            try:
                cuts[year] = cut_wave(panel, config, unit, year, table, method)
            except EXCLUDED as exc:
                cuts[year] = exc
        yield unit, cuts


def _stacked(tag: str, cuts: dict, rounding: str) -> dict:
    """``tag`` evaluated once on the stack of one unit's cut waves, tables
    of one shape (the waves that could not be cut are left out):
    ``{year: (values, undefined)}``."""
    tables = {year: cut for year, cut in cuts.items() if not isinstance(cut, Exception)}
    if not tables:
        return {}
    counts = np.array([table.counts for table in tables.values()])
    return dict(zip(tables, zip(*ind.evaluate_stack(tag, counts, rounding))))


def _scalar_waves(tag: str, cuts: dict, rounding: str) -> dict:
    """A scalar indicator's reported value on each cut wave of one unit, or
    the error that excludes the wave."""
    waves = {year: DataError("scalar indicators need a two-level divide")
             for year, cut in cuts.items()
             if not isinstance(cut, Exception) and cut.n_rows != 2}
    two_level = {year: cut for year, cut in cuts.items() if year not in waves}
    for year, (values, undefined) in _stacked(tag, two_level, rounding).items():
        if not undefined:
            waves[year] = float(values[0])
            continue
        try:  # raises the measure's own error of the undefined wave
            ind.evaluate(tag, two_level[year], rounding)
        except UndefinedIndicatorError as exc:
            waves[year] = exc
    return waves


def indicator_rows(panel: PanelDataset, config: RunConfig) -> list[dict]:
    """Per-unit, per-wave indicator values on the configured divide.

    Two-level divides carry the scalar indicator battery; the three-level
    scheme carries the homogamy share and every split of the matrix-valued
    measure. Each tag is evaluated once per unit, on the stack of its cut
    waves. Undefined values, including single undefined splits of the
    matrix, come through as empty strings.
    """
    three_level = config.categories == THREE_LEVEL
    tags = ("gll",) if three_level else ind.SCALAR_TAGS
    rows = []
    for unit, cuts in _unit_waves(panel, config, units(panel)):
        stacked = {tag: _stacked(tag, cuts, config.rounding) for tag in tags}
        for year, cut in cuts.items():
            row: dict[str, object] = {"state": unit, "year": year}
            if isinstance(cut, Exception):  # no divide to report on: every value blank
                rows.append({**row, "share": "", **dict.fromkeys(ind.SCALAR_TAGS, "")})
                continue
            row["share"] = homogamy_share(cut) if cut.is_square() else ""
            if three_level:
                values, _ = stacked["gll"][year]
                splits = values.reshape(cut.n_rows - 1, cut.n_cols - 1)
                for (j, k), value in np.ndenumerate(splits):
                    row[f"gll_{j + 1}_{k + 1}"] = "" if np.isnan(value) else value
            else:
                for tag in tags:
                    values, undefined = stacked[tag][year]
                    row[tag] = "" if undefined else float(values[0])
            rows.append(row)
    return rows


def _excluded(unit: str, decade: str, exc: Exception) -> DecadeChange:
    return DecadeChange(unit, decade, None, False, f"{type(exc).__name__}: {exc}")


def _decade_pass(panel: PanelDataset, config: RunConfig, unit_list):
    """The decade changes of every unit in ``unit_list``, in order.

    Each present wave is cut once. A scalar measure is evaluated once per
    wave, on the stack of the unit's cut waves, and a change is late minus
    early; the pairs of a method measure go to one :func:`decompose_stack`
    call. Returns the changes, the decompositions of the valid pairs by
    ``(unit, decade)``, and each unit's ``(unit, cuts, scalar values)``.
    """
    measure = config.resolved_measure
    changes: list = []
    unit_waves = []
    pending = []  # (index in changes, unit, decade, early cut, late cut)
    for unit, cuts in _unit_waves(panel, config, unit_list, measure):
        values = (_scalar_waves(measure, cuts, config.rounding)
                  if measure in ind.SCALAR_TAGS else {})
        unit_waves.append((unit, cuts, values))
        for early_year, late_year in zip(config.waves, config.waves[1:]):
            decade = decade_label(early_year)
            if early_year not in cuts or late_year not in cuts:
                changes.append(DecadeChange(unit, decade, None, False, "missing wave"))
                continue
            early, late = cuts[early_year], cuts[late_year]
            try:
                if measure not in METHOD_TAGS and measure not in ind.SCALAR_TAGS:
                    raise DataError(f"unknown measure: {measure!r}")
                for step in (early, late, values.get(late_year), values.get(early_year)):
                    if isinstance(step, Exception):
                        raise step
                if measure in METHOD_TAGS:
                    pending.append((len(changes), unit, decade, early, late))
                    changes.append(None)  # filled in from the stacked pass
                    continue
            except EXCLUDED as exc:
                changes.append(_excluded(unit, decade, exc))
                continue
            changes.append(DecadeChange(unit, decade, values[late_year] - values[early_year]))

    details: dict[tuple[str, str], object] = {}
    results = decompose_stack([(early, late) for *_, early, late in pending], measure,
                              config.resolved_scheme, config.rounding, config.tol,
                              config.max_iter)
    for (index, unit, decade, _, _), result in zip(pending, results):
        if isinstance(result, EXCLUDED):
            changes[index] = _excluded(unit, decade, result)
        elif isinstance(result, Exception):
            raise result
        else:
            changes[index] = DecadeChange(unit, decade, float(result.nonstructural_effect))
            details[(unit, decade)] = result
    return changes, details, unit_waves


def unit_decade_changes(panel: PanelDataset, config: RunConfig, unit: str):
    """One unit's decade changes of the configured measure, each computed once.

    ``unit`` is a state or the national aggregate ``US``. Each present wave
    is cut once, then each adjacent pair is decomposed or evaluated once.
    Pairs with a missing endpoint wave, an undefined measure, an infeasible
    or non-converging counterfactual, or tables of the wrong shape for the
    method are returned invalid with the reason attached, never silently
    dropped. Returns the changes in decade order and the decompositions of
    the valid pairs, keyed by ``(unit, decade)``.
    """
    return _decade_pass(panel, config, (unit,))[:2]


def decade_changes(panel: PanelDataset, config: RunConfig):
    """Per-state decade changes of the configured measure.

    :func:`unit_decade_changes` over every state in order, with the pairs
    of all states decomposed in one :func:`decompose_stack` call; the
    national aggregate is not included.
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
    changes, _, unit_waves = _decade_pass(panel, config, units(panel))
    span = len(config.waves) - 1  # the decades of one unit
    rows = []
    for i, (unit, cuts, values) in enumerate(unit_waves):
        if config.resolved_measure not in METHOD_TAGS:
            for year in cuts:  # a value, the error that excludes it, or none
                value = values.get(year)
                rows.append({"state": unit, "year": year, "effect": "",
                             "cumulative": value if isinstance(value, float) else ""})
            continue
        if len(cuts) < 2:
            continue
        first = next(iter(cuts))
        try:  # the first wave's share on its plain cut, which csa without singles lacks
            cut = cuts[first]
            if isinstance(cut, Exception):
                cut = cut_wave(panel, config, unit, first, panel.unit_table(unit, first))
            anchor = homogamy_share(couples_of(cut))
        except EXCLUDED:
            anchor = None  # an uncut unit's series is all gaps
        series = cumulate(config.waves, first, anchor,
                          {c.decade: c.delta if c.valid else None
                           for c in changes[i * span:(i + 1) * span]})
        rows += [{"state": unit, "year": year, "cumulative": series.cumulative[year],
                  "effect": series.effects.get(decade_label(year), "")}
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
