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
from pathlib import Path

import numpy as np

from . import indicators as ind
from .counterfactual import METHOD_TAGS
from .decomposition import SCHEMES, SEQUENTIAL, WITH_INTERACTION, decade_label, decompose
from .errors import (
    ConvergenceError,
    DataError,
    GllUndefinedError,
    HomlabError,
    InfeasibilityError,
    ShapeError,
    UndefinedIndicatorError,
)
from .tables import (
    ContingencyTable,
    TableWithSingles,
    homogamy_share,
    merge_categories,
    merge_with_singles,
)
from .trend import DecadeChange

THREE_LEVEL = "three"
HS_CUT = "hs"
COLLEGE_CUT = "college"
CATEGORY_SCHEMES = (THREE_LEVEL, HS_CUT, COLLEGE_CUT)

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
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
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


def cut_partition(scheme: str) -> list[tuple[int, ...]]:
    if scheme == HS_CUT:
        return [(0,), (1, 2)]
    if scheme == COLLEGE_CUT:
        return [(0, 1), (2,)]
    raise DataError(f"no cut partition for scheme: {scheme!r}")


def dichotomize(table: ContingencyTable, scheme: str) -> ContingencyTable:
    """Collapse a three-level table to the requested two-level divide."""
    if scheme == THREE_LEVEL:
        return table
    if table.n_rows != 3 or table.n_cols != 3:
        raise DataError(
            f"the {scheme!r} divide needs a three-level table, got "
            f"{table.n_rows}x{table.n_cols}"
        )
    parts = cut_partition(scheme)
    return merge_categories(table, parts, parts)


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
    if method != "csa":
        return dichotomize(table, config.categories)
    with_singles = panel.with_singles(unit, year)
    if with_singles is None:
        raise DataError("the surplus-based method needs singles counts")
    if config.categories == THREE_LEVEL:
        return with_singles
    parts = cut_partition(config.categories)
    return merge_with_singles(with_singles, parts, parts)


def _scalar_value(tag: str, cut: ContingencyTable, rounding: str) -> float:
    """A scalar indicator's reported value, the first of its 2x2 measure."""
    if cut.n_rows != 2:
        raise DataError("scalar indicators need a two-level divide")
    return float(ind.evaluate(tag, cut, rounding)[0])


def indicator_rows(panel: PanelDataset, config: RunConfig) -> list[dict]:
    """Per-unit, per-wave indicator values on the configured divide.

    Two-level divides carry the scalar indicator battery; the three-level
    scheme carries the homogamy share and every split of the matrix-valued
    measure. Undefined values, including single undefined splits of the
    matrix, come through as empty strings.
    """
    rows = []
    for unit in units(panel):
        for year in config.waves:
            table = panel.unit_table(unit, year)
            if table is None:
                continue
            row: dict[str, object] = {"state": unit, "year": year}
            try:
                cut = cut_wave(panel, config, unit, year, table)
            except DataError:  # no divide to report on: every value blank
                rows.append({**row, "share": "", **dict.fromkeys(ind.SCALAR_TAGS, "")})
                continue
            row["share"] = homogamy_share(cut) if cut.is_square() else ""
            if config.categories == THREE_LEVEL:
                try:
                    values = ind.gll(cut, config.rounding)
                except GllUndefinedError as exc:
                    values = exc.partial
                for (j, k), value in np.ndenumerate(values):
                    row[f"gll_{j + 1}_{k + 1}"] = "" if np.isnan(value) else value
            else:
                for tag in ind.SCALAR_TAGS:
                    try:
                        row[tag] = _scalar_value(tag, cut, config.rounding)
                    except HomlabError:
                        row[tag] = ""
            rows.append(row)
    return rows


def _measure_delta(config: RunConfig, early, late):
    """Signed change of the configured measure between two cut waves.

    Returns ``(delta, decomposition-or-None)``; raises package errors when
    a wave could not be cut, the measure is undefined or the counterfactual
    infeasible.
    """
    measure = config.resolved_measure
    if measure not in METHOD_TAGS and measure not in ind.SCALAR_TAGS:
        raise DataError(f"unknown measure: {measure!r}")
    for cut in (early, late):
        if isinstance(cut, Exception):
            raise cut
    if measure in METHOD_TAGS:
        result = decompose(
            early,
            late,
            method=measure,
            scheme=config.resolved_scheme,
            rounding=config.rounding,
            tol=config.tol,
            max_iter=config.max_iter,
        )
        return result.nonstructural_effect, result
    return (
        _scalar_value(measure, late, config.rounding)
        - _scalar_value(measure, early, config.rounding),
        None,
    )


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
    cuts = {}
    for year in config.waves:
        table = panel.unit_table(unit, year)
        if table is None:
            continue
        try:
            cuts[year] = cut_wave(
                panel, config, unit, year, table, config.resolved_measure
            )
        except EXCLUDED as exc:
            cuts[year] = exc
    changes: list[DecadeChange] = []
    details: dict[tuple[str, str], object] = {}
    for early_year, late_year in zip(config.waves, config.waves[1:]):
        decade = decade_label(early_year)
        if early_year not in cuts or late_year not in cuts:
            changes.append(DecadeChange(unit, decade, None, False, "missing wave"))
            continue
        try:
            delta, detail = _measure_delta(config, cuts[early_year], cuts[late_year])
        except EXCLUDED as exc:
            changes.append(
                DecadeChange(
                    unit, decade, None, False, f"{type(exc).__name__}: {exc}"
                )
            )
            continue
        changes.append(DecadeChange(unit, decade, float(delta)))
        if detail is not None:
            details[(unit, decade)] = detail
    return changes, details


def decade_changes(panel: PanelDataset, config: RunConfig):
    """Per-state decade changes of the configured measure.

    :func:`unit_decade_changes` over every state in order; the national
    aggregate is not included.
    """
    changes: list[DecadeChange] = []
    details: dict[tuple[str, str], object] = {}
    for state in panel.states:
        state_changes, state_details = unit_decade_changes(panel, config, state)
        changes += state_changes
        details.update(state_details)
    return changes, details


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
