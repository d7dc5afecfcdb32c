import csv
import dataclasses
import inspect
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from homlab.cli import _fmt, _write_json, main
from homlab.counterfactual import METHOD_TAGS, fit
from homlab.decomposition import _decompose_columns, cumulate, decompose
from homlab.errors import DataError, GllUndefinedError, HomlabError, ShapeError, TableError
from homlab.indicators import PAPER_INTEGER, SCALAR_TAGS, evaluate, gll
from homlab.io import (
    DECOMPOSITION_COLUMNS,
    PanelDataset,
    RunConfig,
    _cut_run,
    _decade_pass,
    decade_changes,
    format_number,
    income_decade_deltas,
    indicator_rows,
    load_couples,
    load_income,
    load_singles,
    trend_series,
)
from homlab.tables import ContingencyTable, homogamy_shares, merge_categories
from homlab.trend import DecadeChange, TrendStats, score

from test_tables import margins

FIXTURES = Path(__file__).parent / "fixtures"

TWO_LEVEL = dict(labels=["L", "H"], categories="three")


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _write_couples(panel: PanelDataset, path: Path):
    """A panel back in the couples CSV schema."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "state", "husband_edu", "wife_edu", "count"])
        for (state, year) in sorted(panel.index):
            counts = panel.counts[panel.index[(state, year)]]
            for i, hlabel in enumerate(panel.labels):
                for j, wlabel in enumerate(panel.labels):
                    writer.writerow([year, state, hlabel, wlabel,
                                     format_number(float(counts[i, j]))])


def _unit_table(panel: PanelDataset, unit: str, year: int):
    """One wave of a state, or of the national aggregate ``US``, as a table."""
    if unit == "US":
        counts = panel.national_counts.get(year)
    else:
        row = panel.index.get((unit, year))
        counts = None if row is None else panel.counts[row]
    return None if counts is None else ContingencyTable(counts, panel.labels, panel.labels)


def _unit_changes(panel: PanelDataset, config: RunConfig, unit: str):
    """One unit's decade changes and decomposition columns, from a decade
    pass over that unit alone."""
    return _decade_pass(panel, config, (unit,))[:2]


def rows_of(columns):
    """Columns by name as one dict per row, as the CSV writer lays them out."""
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_defaults_follow_the_protocol():
    config = RunConfig()
    assert config.waves == (1960, 1970, 1980, 1990, 2000, 2010)
    assert config.labels == ("no_high_school", "high_school", "college")
    assert config.categories == "three"
    assert config.resolved_scheme == "with-interaction"  # nm default
    assert config.with_overrides(method="ipf").resolved_scheme == "sequential"


def test_config_stores_method_and_measure_tags_in_lower_case():
    config = RunConfig(method="IPF", measure="LL")
    assert (config.method, config.measure, config.resolved_measure) == ("ipf", "ll", "ll")
    assert RunConfig(method="CSA").resolved_measure == "csa"
    assert config.with_overrides(measure="Nm").resolved_scheme == "with-interaction"


def test_config_file_and_overrides(tmp_path):
    path = write(
        tmp_path / "config.json",
        json.dumps({"method": "ipf", "seed": 5, "rounding": "paper"}),
    )
    config = RunConfig.from_file(path)
    assert config.method == "ipf" and config.seed == 5
    assert config.rounding == "paper-integer"
    assert config.with_overrides(seed=9).seed == 9
    assert config.with_overrides(seed=None).seed == 5


def test_config_rejects_unknown_keys(tmp_path):
    path = write(tmp_path / "config.json", json.dumps({"methods": "ipf"}))
    with pytest.raises(DataError):
        RunConfig.from_file(path)


BAD_TYPES = (
    ("waves", "1960", "waves must be a list of integers, got '1960'"),
    ("waves", ["x"], "each wave must be an integer, got 'x'"),
    ("waves", [1960.5], "each wave must be an integer, got 1960.5"),
    ("tol", "x", "tol must be a number, got 'x'"),
    ("max_iter", "10", "max_iter must be an integer, got '10'"),
    ("max_iter", 10.0, "max_iter must be an integer, got 10.0"),
    ("seed", True, "seed must be an integer, got True"),
    ("sample_count", "5", "sample_count must be an integer, got '5'"),
    # a string flag is truthy whatever it says, and the split compares names
    ("include_unknown", "no", "include_unknown must be true or false, got 'no'"),
    ("include_unknown", 1, "include_unknown must be true or false, got 1"),
    ("split_state", 5, "split_state must be a string, got 5"),
    ("split_state", None, "split_state must be a string, got None"),
    ("split_state", ["A"], "split_state must be a string, got ['A']"),
)

# well typed, but values no run can use
BAD_VALUES = (
    ("labels", "LH", "labels must be a list of distinct strings, got 'LH'"),
    ("labels", ["L", "H", "L"], "labels must be a list of distinct strings, "
                                "got ['L', 'H', 'L']"),
    ("labels", ["L", 1], "labels must be a list of distinct strings, got ['L', 1]"),
    # a repeated wave would pair a wave with itself, and a decade runs forward
    ("waves", [1960, 1960, 1970], "waves must be increasing, got [1960, 1960, 1970]"),
    ("waves", [1970, 1960], "waves must be increasing, got [1970, 1960]"),
    ("tol", float("nan"), "tol must be positive and finite, got nan"),
    ("tol", 0, "tol must be positive and finite, got 0"),
    ("tol", -1e-10, "tol must be positive and finite, got -1e-10"),
    ("tol", float("inf"), "tol must be positive and finite, got inf"),
    ("max_iter", 0, "max_iter must be at least 1, got 0"),
    ("method", "bogus", "unknown method: 'bogus' (one of ipf, mdba, meda, csa, nm)"),
    ("method", ["ipf"], "unknown method: ['ipf'] (one of ipf, mdba, meda, csa, nm)"),
    ("measure", "bogus", "unknown measure: 'bogus' (one of ipf, mdba, meda, csa, nm, "
                         "or, det, cov, corr, reg, msp, v, ll)"),
    ("measure", 1, "unknown measure: 1 (one of ipf, mdba, meda, csa, nm, "
                   "or, det, cov, corr, reg, msp, v, ll)"),
    ("rounding", ["paper"], "unknown rounding mode: ['paper']"),
)


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(DataError):
        RunConfig(categories="two")
    with pytest.raises(DataError):
        RunConfig(rounding="nearest")
    with pytest.raises(DataError):
        RunConfig(scheme="shapley")
    with pytest.raises(DataError):
        RunConfig(sample_count=0)
    # refused here, before numpy's seed sequence fails on it
    with pytest.raises(DataError, match="seed must be nonnegative, got -1"):
        RunConfig(seed=-1)
    # wrongly typed values are refused by name, not left to fail later or
    # to be rounded silently
    for field, value, message in BAD_TYPES:
        with pytest.raises(DataError) as info:
            RunConfig(**{field: value})
        assert str(info.value) == message
    # a string of labels is not read as one label per character, duplicate
    # labels would fold two categories into one cell, and a NaN tolerance
    # would let every fit stop at once, unfitted
    for field, value, message in BAD_VALUES:
        with pytest.raises(DataError) as info:
            RunConfig(**{field: value})
        assert str(info.value) == message
    # so is a config file that is not JSON, or not an object
    for text, message in (("{\"rounding\": ", "not a JSON file"),
                          ("[1, 2]", "the configuration must be a JSON object")):
        path = write(tmp_path / "config.json", text)
        with pytest.raises(DataError, match=message):
            RunConfig.from_file(path)


# ---------------------------------------------------------------------------
# couples ingestion
# ---------------------------------------------------------------------------

def test_load_couples_assembles_tables(tmp_path):
    path = write(
        tmp_path / "couples.csv",
        "year,state,husband_edu,wife_edu,count\n"
        "1960,Iowa,L,L,40\n1960,Iowa,L,H,10\n1960,Iowa,H,L,20\n1960,Iowa,H,H,30\n"
        "1970,Iowa,L,L,20\n1970,Iowa,L,H,20\n1970,Iowa,H,L,10\n1970,Iowa,H,H,50\n",
    )
    panel = load_couples(path, RunConfig(**TWO_LEVEL))
    assert panel.states == ("Iowa",)
    assert list(panel.index) == [("Iowa", 1960), ("Iowa", 1970)]
    assert panel.counts[panel.index[("Iowa", 1960)]].tolist() == [[40, 10], [20, 30]]


def test_load_couples_sums_duplicates(tmp_path):
    path = write(
        tmp_path / "couples.csv",
        "year,state,husband_edu,wife_edu,count\n"
        "1960,Iowa,L,L,40\n1960,Iowa,L,L,2\n1960,Iowa,H,H,30\n",
    )
    panel = load_couples(path, RunConfig(**TWO_LEVEL))
    assert panel.counts[panel.index[("Iowa", 1960)]][0, 0] == 42
    # a repeated singles key is summed as a couples key is
    path = write(tmp_path / "singles.csv",
                 "year,state,sex,edu,count\n1960,Iowa,w,H,40\n1960,Iowa,m,H,7\n1960, Iowa ,w,H,2\n")
    men, women = load_singles(path, RunConfig(**TWO_LEVEL))[("Iowa", 1960)]
    assert women.tolist() == [0, 42] and men.tolist() == [0, 7]


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("1955,Iowa,L,L,10", "line 2"),
        ("1960,Iowa,doctorate,L,10", "line 2"),
        ("1960,Iowa,L,L,-1", "line 2"),
        ("1960,Iowa,L,L,2.5", "line 2"),
        ("1960,,L,L,10", "line 2"),
    ],
)
def test_load_couples_validation(tmp_path, row, fragment):
    path = write(
        tmp_path / "couples.csv",
        "year,state,husband_edu,wife_edu,count\n" + row + "\n",
    )
    with pytest.raises(DataError) as err:
        load_couples(path, RunConfig(**TWO_LEVEL))
    assert fragment in str(err.value)


def test_load_couples_requires_header(tmp_path):
    path = write(tmp_path / "couples.csv", "a,b\n1,2\n")
    with pytest.raises(DataError):
        load_couples(path, RunConfig(**TWO_LEVEL))


@pytest.mark.parametrize("loader,header", [
    (load_couples, "year,state,husband_edu,wife_edu,count"),
    (load_income, "state,year,top10_share"),
    (load_singles, "year,state,sex,edu,count"),
], ids=["couples", "income", "singles"])
@pytest.mark.parametrize("blank", ["", "\n\n"], ids=["header", "header-and-blank-lines"])
def test_loaders_read_a_header_only_file(tmp_path, loader, header, blank):
    path = write(tmp_path / "rows.csv", f"{header}\n{blank}")
    if loader is load_income:
        assert load_income(path) == {}
        return
    loaded = loader(path, RunConfig(**TWO_LEVEL))
    if loader is load_singles:
        assert loaded == {}
        return
    assert loaded.index == {} and loaded.states == () and loaded.national_counts == {}
    assert loaded.counts.shape == (0, 2, 2) and loaded.counts.dtype == np.float64


def test_roundtrip_identical(tmp_path):
    panel = load_couples(FIXTURES / "synthetic_panel.csv", RunConfig(**TWO_LEVEL))
    out = tmp_path / "again.csv"
    _write_couples(panel, out)
    again = load_couples(out, RunConfig(**TWO_LEVEL))
    assert set(again.index) == set(panel.index)
    for key, row in panel.index.items():
        assert np.array_equal(again.counts[again.index[key]], panel.counts[row])


def test_national_aggregation_and_unknown(tmp_path):
    path = write(
        tmp_path / "couples.csv",
        "year,state,husband_edu,wife_edu,count\n"
        "1960,Iowa,L,L,10\n1960,Iowa,H,H,10\n"
        "1960,Ohio,L,L,5\n1960,Ohio,H,H,5\n"
        "1960,UNKNOWN,L,L,100\n1960,UNKNOWN,H,H,100\n",
    )
    panel = load_couples(path, RunConfig(**TWO_LEVEL))
    assert panel.states == ("Iowa", "Ohio")
    assert panel.national_counts[1960][0, 0] == 15
    panel_inc = load_couples(path, RunConfig(**TWO_LEVEL, include_unknown=True))
    assert panel_inc.national_counts[1960][0, 0] == 115
    assert panel_inc.states == ("Iowa", "Ohio")


def test_panel_refuses_tables_a_contingency_table_refuses():
    labels = ("L", "H")
    good = [[1.0, 2.0], [3.0, 4.0]]
    for bad, message in (([[1.0, -2.0], [3.0, 4.0]], "counts must be nonnegative"),
                         ([[1.0, np.nan], [3.0, 4.0]], "counts must be finite"),
                         ([[0.0, 0.0], [0.0, 0.0]], "at least one count must be positive")):
        with pytest.raises(TableError, match=message):
            panel_of({("A", 1960): good, ("A", 1970): bad}, labels)
    with pytest.raises(TableError, match=r"one 2x2 table per key, got shape \(1, 3, 3\)"):
        panel_of({("A", 1960): np.ones((3, 3))}, labels)


# ---------------------------------------------------------------------------
# income and singles ingestion
# ---------------------------------------------------------------------------

def test_load_income(tmp_path):
    path = write(
        tmp_path / "income.csv",
        "state,year,top10_share\nIowa,1960,0.31\nIowa,1970,0.29\n",
    )
    income = load_income(path)
    assert income[("Iowa", 1960)] == 0.31
    deltas = income_decade_deltas(income, (1960, 1970, 1980))
    assert deltas == {("Iowa", "1960s"): pytest.approx(-0.02)}


def test_load_income_requires_fraction(tmp_path):
    path = write(tmp_path / "income.csv", "state,year,top10_share\nIowa,1960,31\n")
    with pytest.raises(DataError):
        load_income(path)


def test_load_singles(tmp_path):
    path = write(
        tmp_path / "singles.csv",
        "year,state,sex,edu,count\n"
        "1960,Iowa,m,L,3\n1960,Iowa,m,H,4\n1960,Iowa,w,L,5\n1960,Iowa,w,H,6\n",
    )
    pools = load_singles(path, RunConfig(**TWO_LEVEL))
    men, women = pools[("Iowa", 1960)]
    assert men.tolist() == [3, 4]
    assert women.tolist() == [5, 6]


@pytest.mark.parametrize("loader,header,row", [
    (load_couples, "year,state,husband_edu,wife_edu,count", "1960,{},L,L,10"),
    (load_income, "state,year,top10_share", "{},1960,0.31"),
    (load_singles, "year,state,sex,edu,count", "1960,{},m,L,3"),
], ids=["couples", "income", "singles"])
@pytest.mark.parametrize("state", ["", "   "], ids=["empty", "blank"])
def test_loaders_refuse_a_row_without_a_state(tmp_path, loader, header, row, state):
    path = write(tmp_path / "rows.csv", f"{header}\n{row.format(state)}\n")
    options = () if loader is load_income else (RunConfig(**TWO_LEVEL),)
    with pytest.raises(DataError, match="line 2: empty state"):
        loader(path, *options)


COUPLES_HEADER = "year,state,husband_edu,wife_edu,count"
SINGLES_HEADER = "year,state,sex,edu,count"
INCOME_HEADER = "state,year,top10_share"


@pytest.mark.parametrize("loader,header,good,row", [
    (load_couples, COUPLES_HEADER, "1960,Iowa,L,L,10", "1960,{},L,L,10"),
    (load_singles, SINGLES_HEADER, "1960,Iowa,m,L,3", "1960,{},m,L,3"),
], ids=["couples", "singles"])
@pytest.mark.parametrize("state", ["US", " US "])
def test_loaders_refuse_the_national_code_as_a_state(tmp_path, loader, header, good, row,
                                                     state):
    # a couples state coded US used to load silently: the national aggregate
    # then took its key, and its own rows were dropped
    path = write(tmp_path / "rows.csv", f"{header}\n{good}\n{row.format(state)}\n")
    with pytest.raises(DataError) as info:
        loader(path, RunConfig(**TWO_LEVEL))
    assert str(info.value) == (f"{path}: line 3: state code 'US' is reserved for the "
                               "national aggregate")
    # the income file's US rows are read, though no output uses them
    income = write(tmp_path / "income.csv", f"{INCOME_HEADER}\n{state},1960,0.31\n")
    assert load_income(income) == {("US", 1960): 0.31}


def test_cli_refuses_the_national_code_as_a_state_in_one_line(tmp_path):
    couples = write(tmp_path / "couples.csv",
                    f"{COUPLES_HEADER}\n1960,Iowa,L,L,10\n1960,US,H,H,10\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["decompose", "--config", str(config_file(tmp_path)),
                                       "--couples", str(couples), "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == (f"Error: {couples}: line 3: state code 'US' is reserved for "
                             "the national aggregate\n")
    assert not out.exists()


@pytest.mark.parametrize("keys", [[("US", 1960), ("Iowa", 1960)], [("US", 1960), ("US", 1970)]],
                         ids=["in-a-key", "alone"])
def test_a_panel_built_directly_refuses_the_national_code_as_a_state(keys):
    # a direct panel with a US state used to answer the national aggregate
    # for it: indicator_rows gave one US row, share 0.6, and no state row
    counts = np.array([[[5, 1], [1, 5]], [[1, 3], [3, 1]]], dtype=float)
    with pytest.raises(DataError, match="^state code 'US' is reserved for the national "
                                        "aggregate$"):
        PanelDataset(counts, {key: i for i, key in enumerate(keys)}, ("L", "H"))


LINE_CASES = pytest.mark.parametrize("loader,header,good,bad,message", [
    (load_couples, COUPLES_HEADER, "1960,Iowa,L,L,10", "1960,Iowa,L,H,-4",
     "line 5: negative count -4"),
    (load_income, INCOME_HEADER, "Iowa,1960,0.31", "Iowa,1970,31",
     "line 5: top10_share must be strictly between 0 and 1, got 31.0"),
    (load_income, INCOME_HEADER, "Iowa,1960,0.31", "Iowa,1970,x",
     "line 5: malformed income row"),
    (load_singles, SINGLES_HEADER, "1960,Iowa,m,L,3", "1960,Iowa,x,L,3",
     "line 5: sex must be 'm' or 'w'"),
], ids=["couples", "income", "income-malformed", "singles"])


@LINE_CASES
def test_loaders_number_lines_as_the_file_does(tmp_path, loader, header, good, bad, message):
    # two blank lines before the bad row: it is on line 5 of the file
    path = write(tmp_path / "rows.csv", f"{header}\n{good}\n\n\n{bad}\n")
    options = () if loader is load_income else (RunConfig(**TWO_LEVEL),)
    with pytest.raises(DataError) as info:
        loader(path, *options)
    assert str(info.value) == f"{path}: {message}"


@LINE_CASES
@pytest.mark.parametrize("spans,line", [((True, False), 6), ((True, True), 7)],
                         ids=["good-spans", "both-span"])
def test_loaders_count_every_physical_line_of_a_quoted_field(
        tmp_path, loader, header, good, bad, message, spans, line):
    # a quoted state that spans two physical lines counts both: the bad row
    # after it is on line 6, and a bad row that spans two itself ends on line 7
    good, bad = (row.replace("Iowa", '"Io\nwa"') if span else row
                 for row, span in zip((good, bad), spans))
    path = write(tmp_path / "rows.csv", f"{header}\n{good}\n\n\n{bad}\n")
    options = () if loader is load_income else (RunConfig(**TWO_LEVEL),)
    with pytest.raises(DataError) as info:
        loader(path, *options)
    assert str(info.value) == f"{path}: {message.replace('line 5', f'line {line}')}"


SHORT_ROWS = pytest.mark.parametrize("loader,header,row,missing", [
    (load_couples, COUPLES_HEADER, "1960,Iowa,college", "wife_edu"),
    (load_income, INCOME_HEADER, "Iowa", "year"),
    (load_singles, SINGLES_HEADER, "1960,Iowa,m", "edu"),
], ids=["couples", "income", "singles"])


@SHORT_ROWS
def test_loaders_refuse_a_short_row_by_its_first_missing_field(
        tmp_path, loader, header, row, missing):
    path = write(tmp_path / "rows.csv", f"{header}\n{row}\n")
    options = () if loader is load_income else (RunConfig(),)
    with pytest.raises(DataError) as info:
        loader(path, *options)
    assert str(info.value) == f"{path}: line 2: no {missing!r} field"


@SHORT_ROWS
def test_loaders_refuse_a_short_row_after_blank_lines_by_its_own_line(
        tmp_path, loader, header, row, missing):
    # three blank lines after the header: the short row is on line 5
    path = write(tmp_path / "rows.csv", f"{header}\n\n\n\n{row}\n")
    options = () if loader is load_income else (RunConfig(),)
    with pytest.raises(DataError) as info:
        loader(path, *options)
    assert str(info.value) == f"{path}: line 5: no {missing!r} field"


def test_load_income_refuses_a_repeated_state_and_year(tmp_path):
    path = write(tmp_path / "income.csv",
                 f"{INCOME_HEADER}\nIowa,1960,0.31\nIowa,1970,0.29\n Iowa ,1960,0.45\n")
    with pytest.raises(DataError) as info:
        load_income(path)
    assert str(info.value) == f"{path}: line 4: a second top10_share for Iowa 1960"


@pytest.mark.parametrize("rows,message", [
    (("Iowa,1960,0.31", "Iowa,1960,0.29", "Iowa,1970,x"),
     "line 3: a second top10_share for Iowa 1960"),
    (("Iowa,1960,0.31", "Iowa,1970,x", "Iowa,1960,0.29"), "line 3: malformed income row"),
    (("Iowa,1960,0.31", ",1970,0.2", "Iowa,1960,0.29"), "line 3: empty state"),
    (("Iowa,1960,0.31", "Iowa,1960,2", "Iowa,1970,x"),
     "line 3: top10_share must be strictly between 0 and 1, got 2.0"),
    # within a line: a malformed number, then the range, then the state
    (("Iowa,1960,0.31", ",x,0.2"), "line 3: malformed income row"),
    (("Iowa,1960,0.31", ",1970,2"),
     "line 3: top10_share must be strictly between 0 and 1, got 2.0"),
], ids=["repeat-then-malformed", "malformed-then-repeat", "empty-state-then-repeat",
        "repeat-out-of-range", "malformed-before-state", "range-before-state"])
def test_load_income_reports_a_repeat_or_a_bad_line_whichever_comes_first(
        tmp_path, rows, message):
    path = write(tmp_path / "income.csv", "\n".join((INCOME_HEADER, *rows)) + "\n")
    with pytest.raises(DataError) as info:
        load_income(path)
    assert str(info.value) == f"{path}: {message}"


def test_load_income_reads_its_columns_by_name(tmp_path):
    # columns in another order, and one more: read by name; a short row
    # names its first missing field in the order state, year, top10_share
    path = write(tmp_path / "income.csv",
                 "top10_share,year,note,state\n0.31,1960,a,Iowa\n0.29,1970,b, Ohio\n")
    assert load_income(path) == {("Iowa", 1960): 0.31, ("Ohio", 1970): 0.29}
    path = write(tmp_path / "income.csv", "top10_share,year,state\n0.31,1960,Iowa\n0.3\n")
    with pytest.raises(DataError) as info:
        load_income(path)
    assert str(info.value) == f"{path}: line 3: no 'state' field"


# each line fails in every field from one on: the first failing field of the
# line is reported, in the order year, state, category, count
COUPLES_FIELD_ORDER = (
    ("1955,,doctorate,PhD,-1", "year 1955 not in configured waves"),
    ("1960,,doctorate,PhD,-1", "empty state"),
    ("1960,Iowa,doctorate,PhD,-1", "unknown category 'doctorate'"),
    ("1960,Iowa,L,PhD,-1", "unknown category 'PhD'"),
    ("1960,Iowa,L,L,-1", "negative count -1"),
)
SINGLES_FIELD_ORDER = (
    ("x,,f,PhD,2.5", "year 'x' is not an integer"),
    ("1960,,f,PhD,2.5", "empty state"),
    ("1960,Iowa,f,PhD,2.5", "sex must be 'm' or 'w'"),
    ("1960,Iowa,w,PhD,2.5", "unknown category 'PhD'"),
    ("1960,Iowa,w,L,2.5", "count '2.5' is not an integer"),
)


@pytest.mark.parametrize("loader,header,good,lines", [
    (load_couples, COUPLES_HEADER, "1960,Iowa,L,L,10", COUPLES_FIELD_ORDER),
    (load_singles, SINGLES_HEADER, "1960,Iowa,m,L,3", SINGLES_FIELD_ORDER),
], ids=["couples", "singles"])
def test_loaders_report_the_first_bad_line_and_its_first_bad_field(
        tmp_path, loader, header, good, lines):
    config = RunConfig(**TWO_LEVEL)
    for row, message in lines:
        path = write(tmp_path / "rows.csv", f"{header}\n{good}\n{row}\n")
        with pytest.raises(DataError) as info:
            loader(path, config)
        assert str(info.value).startswith(f"{path}: line 3: {message}"), row
    # bad on lines 3 and 5, and again on line 6: line 3 is reported, though
    # line 5's bad value comes first in column order
    first, _ = lines[-1]
    later, _ = lines[0]
    path = write(tmp_path / "rows.csv",
                 f"{header}\n{good}\n{first}\n{good}\n{later}\n{first}\n")
    with pytest.raises(DataError) as info:
        loader(path, config)
    assert str(info.value).startswith(f"{path}: line 3: {lines[-1][1]}")


# ---------------------------------------------------------------------------
# dichotomization
# ---------------------------------------------------------------------------

def test_the_run_cut_divides_and_labels_the_stack():
    labels = ("no_hs", "hs", "college")
    counts = np.arange(1, 10, dtype=float).reshape(3, 3)
    panel = panel_of({("A", 1960): counts}, labels)
    for categories, cells, cut_labels in (
            ("hs", [[1, 5], [11, 28]], ("no_hs", "hs+college")),
            ("college", [[12, 9], [15, 9]], ("no_hs+hs", "college")),
            ("three", counts.tolist(), labels)):  # the stack as it is
        config = RunConfig(waves=(1960,), labels=labels, categories=categories)
        cut = _cut_run(panel, config, ("A",))
        assert cut.counts.tolist() == [cells] and cut.labels == cut_labels
        assert cut.rows == {"A": {1960: 0}} and cut.errors == [None]
    # a two-level table has no high-school divide: every row carries why
    two_level = panel_of({("A", 1960): [[1, 5], [11, 28]]}, ("L", "H"))
    cut = _cut_run(two_level, RunConfig(waves=(1960,), labels=("L", "H"), categories="hs"),
                   ("US", "A"))
    assert cut.counts is None and cut.labels is None
    assert [type(error) for error in cut.errors] == [DataError, DataError]
    assert str(cut.errors[0]) == "the 'hs' divide needs a three-level table, got 2x2"


# ---------------------------------------------------------------------------
# the formatting contract
# ---------------------------------------------------------------------------

def _reference_format_number(x: float) -> str:
    """The four-branch rendering the CSV outputs were first written with."""
    if x != x:
        return "nan"
    if x in (float("inf"), float("-inf")):
        return "inf" if x > 0 else "-inf"
    if float(x) == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.12g}"


def test_format_number():
    assert format_number(42.0) == "42"
    assert format_number(0.5) == "0.5"
    assert format_number(1 / 3) == "0.333333333333"
    assert format_number(float("inf")) == "inf"
    assert format_number(float("nan")) == "nan"
    # where 12 significant digits would show an exponent or a sign of zero,
    # an integral value below 1e15 is written out in full
    for x, text in ((-0.0, "0"), (999999999999.0, "999999999999"), (1e12, "1000000000000"),
                    (123456789012345.0, "123456789012345"), (1e15, "1e+15"),
                    (-1e15 + 1, "-999999999999999"), (float("-inf"), "-inf"),
                    (5e-324, "4.94065645841e-324"), (0.1 + 0.2, "0.3"),
                    (-1e-7, "-1e-07"), (2.5e13, "25000000000000")):
        assert format_number(x) == text, x
    rng = np.random.default_rng(20261019)
    integral = np.rint(10.0 ** rng.uniform(0, 16, 4000)) * rng.choice([-1.0, 1.0], 4000)
    doubles = rng.integers(0, 2**64, 4000, dtype=np.uint64, endpoint=False).view(np.float64)
    near = np.concatenate([rng.uniform(-1e6, 1e6, 1000), rng.normal(0, 1e-3, 1000)])
    for x in map(float, np.concatenate([integral, doubles, near])):
        assert format_number(x) == _reference_format_number(x), repr(x)


def test_fmt_renders_each_cell_type():
    assert _fmt(np.float32(0.1)) == "0.10000000149"
    assert _fmt(np.float64(2.0)) == "2"
    assert _fmt(np.int64(-7)) == "-7"
    assert _fmt(True) == "1"
    assert _fmt(None) == "" and _fmt("") == ""
    assert _fmt("excluded: missing wave") == "excluded: missing wave"
    assert _fmt(1 / 3) == "0.333333333333" and _fmt(-0.0) == "0" and _fmt(3) == "3"


# ---------------------------------------------------------------------------
# panel pipeline on the synthetic fixture
# ---------------------------------------------------------------------------

def synthetic_panel():
    config = RunConfig(**TWO_LEVEL, method="nm")
    panel = load_couples(FIXTURES / "synthetic_panel.csv", config)
    panel.income = load_income(FIXTURES / "synthetic_income.csv")
    return panel, config


def test_synthetic_panel_scores_exactly():
    panel, config = synthetic_panel()
    changes, _ = decade_changes(panel, config)
    stats = score(changes, income_decade_deltas(panel.income, config.waves))
    assert (stats.n_u, stats.n_s, stats.n_alpha, stats.n_omega) == (11, 10, 3, 7)
    assert (stats.n_total, stats.n_alpha_total, stats.n_omega_total) == (15, 5, 10)


def without_rows(tmp_path, prefix: str, source=FIXTURES / "synthetic_panel.csv") -> Path:
    """A copy of a couples file without the lines that start with ``prefix``."""
    rows = source.read_text(encoding="utf-8").splitlines()
    return write(tmp_path / "couples.csv",
                 "\n".join(row for row in rows if not row.startswith(prefix)) + "\n")


def test_missing_wave_reduces_totals_exactly(tmp_path):
    panel, config = synthetic_panel()
    panel = load_couples(without_rows(tmp_path, "1970,Texas,"), config)
    panel.income = load_income(FIXTURES / "synthetic_income.csv")
    changes, _ = decade_changes(panel, config)
    stats = score(changes, income_decade_deltas(panel.income, config.waves))
    assert stats.n_total == 13
    assert stats.n_u == 10
    excluded = [c for c in changes if not c.valid]
    assert {(c.state, c.decade) for c in excluded} == {
        ("Texas", "1960s"), ("Texas", "1970s"),
    }
    assert all(c.reason == "missing wave" for c in excluded)


def test_indicator_rows_keep_the_defined_gll_splits():
    # an empty top row with non-integer counts: in paper-integer mode only
    # split (1,1) has a zero denominator, the other three are defined
    panel = panel_of({("A", 1960): [[0, 0, 0], [4.5, 3.5, 3.0], [2.5, 3.0, 4.5]]},
                     STRESS_LABELS)
    rows = rows_of(indicator_rows(panel, RunConfig(waves=(1960,))))
    assert [row["state"] for row in rows] == ["US", "A"]
    for row in rows:
        assert row["gll_1_1"] == ""
        assert row["gll_1_2"] == pytest.approx(1.0)
        assert row["gll_2_1"] == pytest.approx(0.375)
        assert row["gll_2_2"] == pytest.approx(1 / 3)


def test_decade_changes_report_mis_shaped_pairs():
    # three-level tables, which the determinant-based method cannot take
    large = [[5, 1, 1], [1, 5, 1], [1, 1, 5]]
    panel = panel_of({("A", 1960): large, ("A", 1970): large}, STRESS_LABELS)
    changes, columns = decade_changes(
        panel, RunConfig(waves=(1960, 1970), labels=STRESS_LABELS, method="mdba")
    )
    assert not _decomposed(changes, columns)
    assert [(c.valid, c.reason.split(":")[0]) for c in changes] == [
        (False, "ShapeError")
    ]


def test_measure_can_be_an_indicator(tmp_path):
    panel, config = synthetic_panel()
    config = config.with_overrides(measure="ll")
    changes, _ = decade_changes(panel, config)
    stats = score(changes, income_decade_deltas(panel.income, config.waves))
    # constant margins: the ratio measure moves with the share, same signs
    assert (stats.n_u, stats.n_total) == (11, 15)


# ---------------------------------------------------------------------------
# the stacked decade pass against the per-pair loop it replaced
# ---------------------------------------------------------------------------

def _share(table):
    """The homogamy share of one table, as a float; a non-square table has
    none."""
    if not table.is_square():
        raise ShapeError(f"homogamy share needs a square table, got {table.n_rows}x{table.n_cols}")
    return float(homogamy_shares(table.counts))


def _subject(table, pools=None):
    """A (table, singles) subject: its (single men, single women) as float
    vectors, or None."""
    return table, None if pools is None else tuple(np.asarray(p, dtype=float) for p in pools)


def _reference_fit(source, target, method, rounding, tol, max_iter):
    """``method``'s single-table fit of the (table, singles) ``source`` onto
    the couple margins of the (table, singles) ``target`` and, for ``csa``,
    onto its singles."""
    return fit(method, source[0], *margins(target[0]), rounding=rounding, tol=tol,
               max_iter=max_iter, singles=source[1], target_singles=target[1])


def _reference_decompose(early, late, method, scheme, rounding, tol, max_iter):
    """One pair of (table, singles) subjects decomposed with one single-table
    fit per direction: the decomposition columns by name."""
    early_c, late_c = early[0], late[0]
    if early_c.row_labels != late_c.row_labels or early_c.col_labels != late_c.col_labels:
        raise ShapeError("generation tables must share category labels")
    share_early = _share(early_c)
    share_late = _share(late_c)
    counter = _reference_fit(late, early, method, rounding, tol, max_iter)
    share_cf = float(homogamy_shares(counter.counts[0]))
    nonstructural = share_cf - share_early
    delta = share_late - share_early
    if scheme == "sequential":
        values = (share_early, share_late, share_cf, nonstructural, share_late - share_cf, None)
        return dict(zip(DECOMPOSITION_COLUMNS, values))
    reverse = _reference_fit(early, late, method, rounding, tol, max_iter)
    structural = float(homogamy_shares(reverse.counts[0])) - share_early
    values = (share_early, share_late, share_cf, nonstructural, structural,
              delta - nonstructural - structural)
    return dict(zip(DECOMPOSITION_COLUMNS, values))


def _reference_dichotomize(subject, scheme):
    """One (table, singles) subject cut by the per-table merges."""
    if scheme == "three":
        return subject
    table, singles = subject
    if table.n_rows != 3 or table.n_cols != 3:
        raise DataError(f"the {scheme!r} divide needs a three-level table, "
                        f"got {table.n_rows}x{table.n_cols}")
    parts = {"hs": [(0,), (1, 2)], "college": [(0, 1), (2,)]}[scheme]
    merged = merge_categories(table, parts, parts)
    if singles is None:
        return _subject(merged)
    return _subject(merged, ([pool[list(block)].sum() for block in parts] for pool in singles))


def _with_singles(panel, unit, year):
    """A state's wave with its singles, or None without them; the national
    aggregate has none."""
    pools = panel.singles.get((unit, year)) if (unit, year) in panel.index else None
    return None if pools is None else _subject(_unit_table(panel, unit, year), pools)


def _reference_cut(panel, config, unit, year, method=""):
    """One present wave cut alone, as ``method`` takes it: a (table,
    singles) subject."""
    subject = _subject(_unit_table(panel, unit, year))
    if method == "csa":
        subject = _with_singles(panel, unit, year)
        if subject is None:
            raise DataError("the surplus-based method needs singles counts")
    return _reference_dichotomize(subject, config.categories)


def _reference_cuts(panel, config, unit, method=""):
    """A unit's present waves, each cut once: the cut or the error it raised."""
    cuts = {}
    for year in config.waves:
        if _unit_table(panel, unit, year) is None:
            continue
        try:
            cuts[year] = _reference_cut(panel, config, unit, year, method)
        except HomlabError as exc:
            cuts[year] = exc
    return cuts


def _reference_changes(panel, config, unit_list):
    """Each unit's waves cut once, then each decade decomposed on its own
    (the per-pair loop of a method measure)."""
    measure = config.resolved_measure
    changes, details = [], {}
    for unit in unit_list:
        cuts = _reference_cuts(panel, config, unit, measure)
        for early_year, late_year in zip(config.waves, config.waves[1:]):
            decade = f"{early_year}s"
            if early_year not in cuts or late_year not in cuts:
                changes.append(DecadeChange(unit, decade, None, reason="missing wave"))
                continue
            try:
                for cut in (cuts[early_year], cuts[late_year]):
                    if isinstance(cut, Exception):
                        raise cut
                result = _reference_decompose(
                    cuts[early_year], cuts[late_year], measure, config.resolved_scheme,
                    config.rounding, config.tol, config.max_iter)
            except HomlabError as exc:
                changes.append(DecadeChange(unit, decade, None,
                                            reason=f"{type(exc).__name__}: {exc}"))
                continue
            changes.append(DecadeChange(unit, decade, float(result["nonstructural"])))
            details[(unit, decade)] = result
    return changes, details


def _bits(record):
    """A dataclass's fields, each float as its bytes."""
    return _float_bits(dataclasses.astuple(record))


def _float_bits(values):
    """The values, each float as its bytes."""
    return tuple(np.float64(value).tobytes() if isinstance(value, float) else value
                 for value in values)


def _decomposed(changes, columns):
    """The decomposition columns aligned with ``changes`` as ``{(unit,
    decade): values}`` over the pairs they decompose, each float as its
    bytes."""
    assert tuple(columns) == DECOMPOSITION_COLUMNS
    return {(c.state, c.decade): _float_bits(values)
            for c, *values in zip(changes, *columns.values()) if values != [None] * 6}


STRESS_LABELS = ("L", "M", "H")
STRESS_STATES = ("Ames", "Bend", "Cary", "Dale", "Erie")


def panel_of(tables, labels, singles=None):
    """The panel of ``tables``, ``{(state, year): counts}``, with ``singles``."""
    keys = list(tables)
    return PanelDataset(np.array([tables[key] for key in keys], dtype=float),
                        {key: i for i, key in enumerate(keys)}, tuple(labels),
                        singles=singles or {})


def stress_data():
    """Five three-level states over six waves, each built to fail somewhere:
    their tables and singles, by (state, year)."""
    rng = np.random.default_rng(5)
    tables, singles = {}, {}
    for state in STRESS_STATES:
        for year in RunConfig().waves:
            counts = rng.integers(1, 40, (3, 3)).astype(float)
            counts[np.diag_indices(3)] += rng.integers(0, 80, 3)
            tables[(state, year)] = counts
            singles[(state, year)] = (rng.integers(1, 20, 3).astype(float),
                                      rng.integers(1, 20, 3).astype(float))
    del tables[("Bend", 1980)]  # a missing wave
    tables[("Cary", 1990)][2] = 0  # a zero row: an undefined NM split, IPF refuses
    tables[("Dale", 2000)] = np.diag([50.0, 30.0, 20.0])  # IPF: Hall's condition fails
    del singles[("Erie", 1970)]  # csa cannot cut that wave
    singles[("Erie", 2000)][0][1] = 0  # csa: surplus matrix undefined
    return tables, singles


def stress_panel():
    tables, singles = stress_data()
    return panel_of(tables, STRESS_LABELS, singles=singles)


# every exclusion each method meets on the stress panel, by reason prefix
STRESS_REASONS = {
    "ipf": ("missing wave",
            "InfeasibilityError: a target row is positive but the source row",
            "InfeasibilityError: target unreachable",
            "ConvergenceError: IPF did not reach"),
    "mdba": ("ShapeError: the determinant-based method needs dichotomous traits",
             "InfeasibilityError: determinant-preserving fit"),
    "meda": ("UndefinedWeightError: projection weight undefined",),
    "csa": ("DataError: the surplus-based method needs singles counts",
            "UndefinedIndicatorError: surplus matrix undefined: zero singles count",
            "ConvergenceError: surplus-preserving fit did not reach"),
    "nm": ("InfeasibilityError: LL-preserving fit",
           "GllUndefinedError: undefined at splits"),
}


@pytest.mark.parametrize("method", sorted(STRESS_REASONS))
def test_stacked_decade_pass_matches_the_per_pair_loop_bit_for_bit(method):
    panel = stress_panel()
    reasons = set()
    for scheme, categories, max_iter in itertools.product(
            ("sequential", "with-interaction"), ("three", "college"), (10000, 2)):
        config = RunConfig(labels=STRESS_LABELS, method=method, scheme=scheme,
                           categories=categories, max_iter=max_iter)
        runs = [(decade_changes(panel, config),
                 _reference_changes(panel, config, panel.states))]
        for unit in ("US", "Cary"):
            runs.append((_unit_changes(panel, config, unit),
                         _reference_changes(panel, config, (unit,))))
        for (changes, columns), (expected, expected_details) in runs:
            assert [_bits(c) for c in changes] == [_bits(c) for c in expected], config
            # the six values of each decomposed pair, after its method and scheme
            assert list(_decomposed(changes, columns).items()) == [
                (key, _float_bits(d.values())) for key, d in expected_details.items()], config
            reasons |= {c.reason for c in changes if not c.valid}
    for prefix in STRESS_REASONS[method]:
        assert any(reason.startswith(prefix) for reason in reasons), prefix


# ---------------------------------------------------------------------------
# the run's one cut and the stacked shares against the per-table loops
# ---------------------------------------------------------------------------

def _same_cut(got, expected):
    """Two (table, singles) cuts with equal labels and the same float bytes,
    singles too."""
    (table, singles), (reference, reference_singles) = got, expected
    assert (table.row_labels, table.col_labels) == (reference.row_labels, reference.col_labels)
    assert table.counts.tobytes() == reference.counts.tobytes()
    assert (singles is None) == (reference_singles is None)
    if reference_singles is not None:
        assert singles[0].tobytes() == reference_singles[0].tobytes()
        assert singles[1].tobytes() == reference_singles[1].tobytes()


@pytest.mark.parametrize("categories", ["three", "hs", "college"])
def test_the_run_cut_matches_the_per_table_merges_bit_for_bit(categories):
    from homlab.io import _cut_run, units

    for panel in (series_stress_panel(), four_level_panel()[0]):
        config = RunConfig(labels=panel.labels, categories=categories)
        for method in ("", "csa"):
            cut = _cut_run(panel, config, units(panel), method)
            assert list(cut.rows) == list(units(panel))
            for unit, years in cut.rows.items():
                assert list(years) == [year for year in config.waves
                                       if _unit_table(panel, unit, year) is not None]
                for year, row in years.items():
                    try:
                        expected = _reference_cut(panel, config, unit, year, method)
                    except DataError as exc:
                        error = cut.errors[row]
                        assert type(error) is DataError and str(error) == str(exc)
                        continue
                    assert cut.errors[row] is None
                    got = _subject(ContingencyTable(cut.counts[row], cut.labels, cut.labels),
                                   cut.singles and [pool[row] for pool in cut.singles])
                    _same_cut(got, expected)
                    share = _share(expected[0])
                    assert np.float64(cut.shares[row]).tobytes() == np.float64(share).tobytes()


def _stacked(subjects):
    """The counts of the (table, singles) ``subjects`` as one stack, and
    their (single men, single women) stacks, or None unless every table
    carries singles."""
    counts = np.stack([t.counts for t, _ in subjects])
    if any(singles is None for _, singles in subjects):
        return counts, None
    return counts, tuple(np.stack(pools) for pools in zip(*(s for _, s in subjects)))


def test_stacked_fitted_shares_match_the_per_pair_shares_bit_for_bit(monkeypatch):
    import homlab.counterfactual

    # a kernel's fitted stack with a NaN, a negative and an empty problem
    # among valid ones: fit_stack fails each with the message of
    # ContingencyTable's checks, which the reference below builds
    fitted = []
    original = homlab.counterfactual._settled

    def spoiled(fits):
        counts = fits.counts.copy()
        valid = [k for k, error in enumerate(fits.errors) if error is None]
        counts[valid[0], 0, 0] = np.nan
        counts[valid[1], 1, 0] = -0.5
        counts[valid[2]] = 0.0
        fitted.append(dataclasses.replace(fits, counts=counts.copy()))
        return original(dataclasses.replace(fits, counts=counts))

    def share(fits, k, source):  # the per-pair share of one fitted problem
        if fits.errors[k] is not None:
            raise fits.errors[k]
        return _share(ContingencyTable(fits.counts[k]))

    monkeypatch.setattr(homlab.counterfactual, "_settled", spoiled)
    panel = stress_panel()
    messages = set()
    for method, scheme in itertools.product(("ipf", "nm", "csa"),
                                            ("sequential", "with-interaction")):
        config = RunConfig(labels=STRESS_LABELS, method=method)
        pairs = []
        for unit in ("US", *panel.states):
            cuts = _reference_cuts(panel, config, unit, method)
            pairs += [(cuts[a], cuts[b]) for a, b in zip(config.waves, config.waves[1:])
                      if not isinstance(cuts.get(a, DataError()), Exception)
                      and not isinstance(cuts.get(b, DataError()), Exception)]
        fitted.clear()
        sides = [_stacked([pair[side] for pair in pairs]) for side in (0, 1)]
        columns, errors = _decompose_columns(sides[0][0], sides[1][0], method, scheme,
                                             PAPER_INTEGER, 1e-10, 10000,
                                             [sides[0][1], sides[1][1]])
        assert len(fitted) == (2 if scheme == "with-interaction" else 1)
        for k, ((early, late), error, *values) in enumerate(
                zip(pairs, errors, *columns.values())):
            share_early, share_late = (_share(t) for t, _ in (early, late))
            try:
                share_cf = share(fitted[0], k, late)
                structural = (share_late - share_cf if len(fitted) == 1
                              else share(fitted[1], k, early) - share_early)
            except (HomlabError, ValueError) as exc:
                assert type(error) is type(exc) and str(error) == str(exc), k
                messages.add(str(exc))
                continue
            assert error is None, k
            nonstructural = share_cf - share_early
            interaction = (None if len(fitted) == 1
                           else share_late - share_early - nonstructural - structural)
            assert _float_bits(values) == _float_bits((
                share_early, share_late, share_cf, nonstructural, structural, interaction)), k
    assert {"counts must be finite", "counts must be nonnegative",
            "at least one count must be positive"} <= messages


@pytest.mark.parametrize("method", ["ipf", "nm"])
def test_cli_decomposition_path_builds_no_result_objects(tmp_path, monkeypatch, method):
    # decompose and trend carry the stacked fits to the writers as columns,
    # one fit_stack per direction; the library's decompose returns the same
    # columns as plain floats
    import homlab.decomposition

    fits = []
    original_fit_stack = homlab.decomposition.fit_stack

    def counting_fit_stack(*args, **kwargs):
        fits.append(args[0])
        return original_fit_stack(*args, **kwargs)

    monkeypatch.setattr(homlab.decomposition, "fit_stack", counting_fit_stack)
    directions = 2 if RunConfig(method=method).resolved_scheme == "with-interaction" else 1
    for command in ("decompose", "trend"):
        fits.clear()
        out = tmp_path / command
        cli(command, "--config", config_file(tmp_path), "--method", method,
            "--couples", FIXTURES / "synthetic_panel.csv", "--out", out)
        assert any(out.iterdir())
        assert fits == [method] * directions, command
    fits.clear()
    table = ContingencyTable(np.array([[40.0, 10.0], [20.0, 30.0]]))
    result = decompose(table, table, method)  # sequential: one direction
    assert tuple(result) == DECOMPOSITION_COLUMNS and fits == [method]


def test_cli_data_paths_and_ac12_build_no_table_object(tmp_path, monkeypatch):
    # below the library surface the pipeline reads arrays: no subcommand on
    # the data path, nor the AC12 check, constructs a ContingencyTable, for
    # a fitted pair or for a pair whose fit fails
    from homlab.criteria import check_method

    built = []
    post_init = ContingencyTable.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ContingencyTable, "__post_init__", counting_post_init)
    # the 1980 table sorts negatively and has no single L men: every
    # method's fit of it onto the 1970 margins fails
    couples = write(tmp_path / "couples.csv", "year,state,husband_edu,wife_edu,count\n"
                    "1970,Example,L,L,50\n1970,Example,L,H,10\n"
                    "1970,Example,H,L,10\n1970,Example,H,H,30\n"
                    "1980,Example,L,L,0\n1980,Example,L,H,10\n"
                    "1980,Example,H,L,10\n1980,Example,H,H,0\n")
    singles = write(tmp_path / "singles.csv", "year,state,sex,edu,count\n"
                    "1970,Example,m,L,5\n1970,Example,m,H,5\n"
                    "1970,Example,w,L,5\n1970,Example,w,H,5\n"
                    "1980,Example,m,L,0\n1980,Example,m,H,5\n"
                    "1980,Example,w,L,5\n1980,Example,w,H,5\n")
    cfg = config_file(tmp_path)
    fixtures = ("--couples", FIXTURES / "synthetic_panel.csv",
                "--income", FIXTURES / "synthetic_income.csv",
                "--singles", FIXTURES / "synthetic_singles.csv")
    cli("indicators", "--config", cfg, *fixtures[:4], "--out", tmp_path / "indicators")
    for method in METHOD_TAGS:
        for command in ("decompose", "trend"):
            cli(command, "--config", cfg, "--method", method, *fixtures,
                "--out", tmp_path / f"{command}-{method}")
        outcomes = []
        for name, data, state, years in (
                ("fitted", fixtures, "Alabama", (1960, 1970)),
                ("failed", ("--couples", couples, "--singles", singles), "Example",
                 (1970, 1980))):
            out = tmp_path / f"counterfactual-{method}-{name}"
            cli("counterfactual", "--config", cfg, "--method", method, *data,
                "--state", state, "--early-year", years[0], "--late-year", years[1],
                "--out", out)
            outcomes.append(json.loads((out / "counterfactual.json").read_text())["feasible"])
        assert outcomes == [True, False], method
        assert check_method("AC12", method).witness["kind"] == "sic"
    assert built == []


# ---------------------------------------------------------------------------
# indicators on the stack of a unit's waves against the per-table loops
# ---------------------------------------------------------------------------

def _reference_scalar_value(tag, cut, rounding):
    """A scalar indicator's reported value on one cut wave, a (table,
    singles) subject, evaluated alone."""
    if cut[0].n_rows != 2:
        raise DataError("scalar indicators need a two-level divide")
    return float(evaluate(tag, cut[0], rounding)[0])


def _reference_rows(panel, config):
    """Indicator rows built one table and one tag at a time."""
    rows = []
    for unit in ("US", *panel.states):
        for year, cut in _reference_cuts(panel, config, unit).items():
            row = {"state": unit, "year": year}
            if isinstance(cut, Exception):
                rows.append({**row, "share": "", **dict.fromkeys(SCALAR_TAGS, "")})
                continue
            row["share"] = _share(cut[0]) if cut[0].is_square() else ""
            if config.categories == "three":
                try:
                    values = gll(cut[0], config.rounding)
                except GllUndefinedError as exc:
                    values = exc.partial
                for (j, k), value in np.ndenumerate(values):
                    row[f"gll_{j + 1}_{k + 1}"] = "" if np.isnan(value) else float(value)
            else:
                for tag in SCALAR_TAGS:
                    try:
                        row[tag] = _reference_scalar_value(tag, cut, config.rounding)
                    except HomlabError:
                        row[tag] = ""
            rows.append(row)
    return rows


def _reference_scalar_changes(panel, config, unit_list):
    """Each unit's waves cut once, then each decade's scalar change
    evaluated pair by pair: the late wave's value minus the early one's."""
    measure = config.resolved_measure
    changes = []
    for unit in unit_list:
        cuts = _reference_cuts(panel, config, unit, measure)
        for early_year, late_year in zip(config.waves, config.waves[1:]):
            decade = f"{early_year}s"
            if early_year not in cuts or late_year not in cuts:
                changes.append(DecadeChange(unit, decade, None, reason="missing wave"))
                continue
            early, late = cuts[early_year], cuts[late_year]
            try:
                for cut in (early, late):
                    if isinstance(cut, Exception):
                        raise cut
                delta = (_reference_scalar_value(measure, late, config.rounding)
                         - _reference_scalar_value(measure, early, config.rounding))
            except HomlabError as exc:
                changes.append(DecadeChange(unit, decade, None,
                                            reason=f"{type(exc).__name__}: {exc}"))
                continue
            changes.append(DecadeChange(unit, decade, float(delta)))
    return changes


def _row_bits(row):
    """A row's values, each float as its type and bytes."""
    return {key: (type(value), np.float64(value).tobytes())
            if isinstance(value, (float, np.floating)) else value
            for key, value in row.items()}


def scalar_stress_data():
    """The stress data with waves whose cuts leave scalar indicators
    undefined: an empty diagonal on the college divide, a lone high-high
    cell on the high-school divide."""
    tables, singles = stress_data()
    tables[("Erie", 1960)] = np.array([[0, 0, 5], [0, 0, 5], [5, 5, 0]])
    tables[("Ames", 2010)] = np.array([[0, 0, 0], [0, 3, 2], [0, 2, 3]])
    return tables, singles


def scalar_stress_panel():
    tables, singles = scalar_stress_data()
    return panel_of(tables, STRESS_LABELS, singles=singles)


@pytest.mark.parametrize("categories", ["three", "hs", "college"])
def test_stacked_indicators_match_the_per_table_loops_bit_for_bit(categories):
    flagged = set()
    for panel, labels in ((scalar_stress_panel(), STRESS_LABELS),
                          (synthetic_panel()[0], ("L", "H"))):
        for rounding in ("paper", "continuous"):
            config = RunConfig(labels=labels, categories=categories, rounding=rounding)
            rows = rows_of(indicator_rows(panel, config))
            assert [_row_bits(r) for r in rows] == [
                _row_bits(r) for r in _reference_rows(panel, config)], config
            flagged |= {key for row in rows for key, value in row.items() if value == ""}
            for tag in SCALAR_TAGS:
                config = config.with_overrides(measure=tag)
                runs = [(decade_changes(panel, config)[0],
                         _reference_scalar_changes(panel, config, panel.states))]
                for unit in ("US", "Ames", "Erie"):
                    runs.append((_unit_changes(panel, config, unit)[0],
                                 _reference_scalar_changes(panel, config, (unit,))))
                for changes, expected in runs:
                    assert [_bits(c) for c in changes] == [_bits(c) for c in expected], config
    # blanks come from undefined splits and values, and from uncut waves
    assert flagged


def test_scalar_trend_measures_exclude_pairs_with_their_own_reason():
    two_level = "DataError: scalar indicators need a two-level divide"
    tables, _ = stress_data()
    tables[("Bend", 1980)] = tables[("Bend", 1970)]  # every wave present
    three_level = panel_of(tables, STRESS_LABELS)
    config = RunConfig(labels=STRESS_LABELS, measure="or")
    for changes, _ in (decade_changes(three_level, config),
                       _unit_changes(three_level, config, "Ames")):
        assert changes and all(c.reason == two_level for c in changes)

    # msp undefined on single waves of a two-level unit, for two causes
    waves = (1960, 1970, 1980, 1990, 2000)
    counts = {1960: [[40, 10], [20, 30]],
              1970: [[0, 5], [5, 0]],  # an empty diagonal
              1980: [[0, 0], [3, 4]],  # a zero marginal sum
              1990: [[40, 10], [20, 30]],
              2000: [[30, 10], [10, 30]]}
    panel = panel_of({("A", year): c for year, c in counts.items()}, ("L", "H"))
    config = RunConfig(waves=waves, labels=("L", "H"), measure="msp")
    changes, _ = _unit_changes(panel, config, "A")
    undefined = "UndefinedIndicatorError: sorting parameter undefined: "
    assert [c.reason for c in changes] == [
        undefined + "empty diagonal",     # the late wave only
        undefined + "zero marginal sum",  # both waves: the late wave's cause
        undefined + "zero marginal sum",  # the early wave only
        "",
    ]
    late, early = (_unit_table(panel, "A", year) for year in (2000, 1990))
    assert changes[-1].delta == evaluate("msp", late)[0] - evaluate("msp", early)[0]
    assert decade_changes(panel, config)[0] == changes

    # a missing wave, and waves of four levels that the divide cannot cut
    del counts[1990]
    panel = panel_of({("A", year): c for year, c in counts.items()}, ("L", "H"))
    assert [c.reason for c in _unit_changes(panel, config, "A")[0][2:]] == [
        "missing wave", "missing wave"]
    labels = ("A", "B", "C", "D")
    rng = np.random.default_rng(4)
    four_level = panel_of({("A", year): rng.integers(1, 40, (4, 4)) for year in waves},
                          labels)
    config = RunConfig(waves=waves, labels=labels, categories="hs", measure="msp")
    uncut = "DataError: the 'hs' divide needs a three-level table, got 4x4"
    for changes, _ in (decade_changes(four_level, config),
                       _unit_changes(four_level, config, "US")):
        assert [c.reason for c in changes] == [uncut] * 4


# ---------------------------------------------------------------------------
# the series of one decade pass against the trend command's own loops
# ---------------------------------------------------------------------------

def _reference_series(panel, config):
    """The series rows as the trend command built them itself: an anchor and
    ``cumulate`` loop over the states' and the national aggregate's decade
    changes for a method measure, a column of the indicator rows for any
    other measure."""
    if config.resolved_measure not in METHOD_TAGS:
        return [{"state": row["state"], "year": row["year"],
                 "cumulative": row.get(config.resolved_measure, ""), "effect": ""}
                for row in rows_of(indicator_rows(panel, config))]
    changes, _ = decade_changes(panel, config)
    national, _ = _unit_changes(panel, config, "US")
    rows = []
    for unit, unit_changes in itertools.groupby(national + changes, lambda c: c.state):
        tables = {year: _unit_table(panel, unit, year) for year in config.waves}
        present = [year for year, table in tables.items() if table is not None]
        if len(present) < 2:
            continue
        try:
            anchor = _share(_reference_cut(panel, config, unit, present[0])[0])
        except HomlabError:
            anchor = None
        effects = {c.decade: c.delta if c.valid else None for c in unit_changes}
        cumulative = cumulate(config.waves, present[0], anchor, effects)
        for year in config.waves:
            rows.append({"state": unit, "year": year, "cumulative": cumulative[year],
                         "effect": effects.get(f"{year}s", "")})
    return rows


def series_stress_panel():
    """The scalar stress panel with a state of one present wave, and a
    state whose first wave has no singles, so its csa anchor comes from
    the table cut alone."""
    tables, singles = scalar_stress_data()
    tables[("Fife", 1990)] = tables[("Dale", 1990)]
    del singles[("Ames", 1960)]
    return panel_of(tables, STRESS_LABELS, singles=singles)


def four_level_panel():
    """One state of four-level tables, which no two-level divide can cut."""
    labels = ("A", "B", "C", "D")
    rng = np.random.default_rng(4)
    return panel_of({("A", year): rng.integers(1, 40, (4, 4)) for year in RunConfig().waves},
                    labels), labels


@pytest.mark.parametrize("categories", ["three", "hs", "college"])
def test_trend_series_matches_the_trend_command_loops_bit_for_bit(categories):
    seen = set()
    panels = [(series_stress_panel(), STRESS_LABELS), four_level_panel()]
    if categories != "three":  # two-level tables stay uncut
        panels.append((synthetic_panel()[0], ("L", "H")))
    for (panel, labels), measure, rounding in itertools.product(
            panels, (*METHOD_TAGS, *SCALAR_TAGS), ("paper", "continuous")):
        config = RunConfig(labels=labels, categories=categories, rounding=rounding,
                           measure=measure)
        changes, columns = trend_series(panel, config)
        rows = rows_of(columns)
        assert [_bits(c) for c in changes] == [
            _bits(c) for c in decade_changes(panel, config)[0]], config
        expected = _reference_series(panel, config)
        assert [_row_bits(r) for r in rows] == [_row_bits(r) for r in expected], config
        seen |= {(row["state"], type(row["cumulative"])) for row in rows}
    # every case shows: gaps, values, the one-wave state (scalar rows only),
    # and the csa anchor of a state without its first wave's singles
    assert {("Erie", float), ("A", str)} <= seen and "Fife" in {state for state, _ in seen}
    rows = rows_of(trend_series(series_stress_panel(), RunConfig(
        labels=STRESS_LABELS, categories=categories, measure="csa"))[1])
    ames = next(row for row in rows if row["state"] == "Ames")
    assert ames["year"] == 1960 and isinstance(ames["cumulative"], float)


def test_scalar_series_reads_the_values_it_scores():
    # a two-level table on the three-level scheme: the trend command read
    # the series from the matrix-valued indicator rows and left it blank,
    # although the decade changes scored the scalar values
    panel, _ = synthetic_panel()
    for measure in SCALAR_TAGS:
        config = RunConfig(**TWO_LEVEL, measure=measure)
        changes, columns = trend_series(panel, config)
        rows = rows_of(columns)
        assert all(row["cumulative"] == "" for row in _reference_series(panel, config))
        values = {(row["state"], row["year"]): row["cumulative"] for row in rows}
        for change in changes:
            early = int(change.decade[:4])
            late = config.waves[config.waves.index(early) + 1]
            if change.valid:
                assert change.delta == (values[(change.state, late)]
                                        - values[(change.state, early)]), measure
        assert any(change.valid for change in changes), measure


def test_trend_series_evaluates_only_its_measure_once_per_unit(monkeypatch):
    import homlab.indicators

    tags = []
    original = homlab.indicators.evaluate_stack

    def counting(tag, *args, **kwargs):
        tags.append(tag)
        return original(tag, *args, **kwargs)

    monkeypatch.setattr(homlab.indicators, "evaluate_stack", counting)
    panel = series_stress_panel()
    config = RunConfig(labels=STRESS_LABELS, categories="college", measure="msp")
    rows = rows_of(trend_series(panel, config)[1])
    # one stack for the whole run; the undefined waves' messages need no
    # evaluation of their own
    assert tags == ["msp"]
    assert any(row["cumulative"] == "" for row in rows)


# ---------------------------------------------------------------------------
# command-line surface
# ---------------------------------------------------------------------------

def cli(*args):
    runner = CliRunner()
    result = runner.invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, result.output
    return result


def config_file(tmp_path, **extra) -> Path:
    payload = {"labels": ["L", "H"], "categories": "three", **extra}
    return write(tmp_path / "config.json", json.dumps(payload))


def test_cli_indicators(tmp_path):
    cfg = config_file(tmp_path, categories="three")
    out = tmp_path / "out"
    cli("indicators", "--config", cfg, "--couples", FIXTURES / "synthetic_panel.csv",
        "--out", out)
    lines = (out / "indicators.csv").read_text().strip().splitlines()
    assert lines[0].startswith("state,year,share")
    assert len(lines) == 1 + 4 * 6  # US + 3 states, 6 waves


def test_cli_cuts_the_three_level_fixture(tmp_path):
    # default labels, an UNKNOWN row (left out) and Ohio's missing 1980 wave
    couples = FIXTURES / "three_level_panel.csv"
    cli("indicators", "--categories", "college", "--couples", couples,
        "--out", tmp_path / "ind")
    rows = read_rows(tmp_path / "ind" / "indicators.csv")
    assert [(row["state"], row["year"]) for row in rows] == [
        (unit, str(year)) for unit in ("US", "Iowa", "Ohio", "Texas")
        for year in (1960, 1970, 1980, 1990, 2000, 2010) if (unit, year) != ("Ohio", 1980)]
    assert all(row[tag] != "" for row in rows for tag in ("share", *SCALAR_TAGS))
    cli("decompose", "--categories", "hs", "--method", "ipf", "--couples", couples,
        "--out", tmp_path / "dec")
    statuses = {(row["state"], row["decade"]): row["status"]
                for row in read_rows(tmp_path / "dec" / "decomposition.csv")}
    assert len(statuses) == 3 * 5
    assert {key for key, status in statuses.items() if status != "ok"} == {
        ("Ohio", "1970s"), ("Ohio", "1980s")}


def test_cli_counterfactual(tmp_path):
    cfg = config_file(tmp_path, method="nm")
    out = tmp_path / "out"
    cli("counterfactual", "--config", cfg,
        "--couples", FIXTURES / "divergence_couples.csv",
        "--state", "Example", "--early-year", 1980, "--late-year", 1990,
        "--out", out)
    payload = json.loads((out / "counterfactual.json").read_text())
    assert payload["method"] == "NM"
    assert payload["feasible"] is True
    got = np.array(payload["counts"])
    assert got.sum() == pytest.approx(162.0)


def test_cli_decompose_divergence(tmp_path):
    out_ipf = tmp_path / "ipf"
    out_nm = tmp_path / "nm"
    cfg = config_file(tmp_path, scheme="sequential")
    for method, out in (("ipf", out_ipf), ("nm", out_nm)):
        cli("decompose", "--config", cfg, "--method", method,
            "--couples", FIXTURES / "divergence_couples.csv", "--out", out)

    def effect(path):
        lines = (path / "decomposition.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            if row["status"] == "ok":
                return float(row["nonstructural"])
        raise AssertionError("no valid decade row")

    assert effect(out_ipf) < 0 < effect(out_nm)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_cli_decompose_and_trend_report_non_converging_fits(tmp_path):
    cfg = config_file(tmp_path, method="ipf", max_iter=2)
    out = tmp_path / "out"
    for command in ("decompose", "trend"):
        cli(command, "--config", cfg,
            "--couples", FIXTURES / "divergence_couples.csv", "--out", out)
    lines = (out / "decomposition.csv").read_text().strip().splitlines()
    row = next(line for line in lines if line.startswith("Example,1980s,"))
    assert row.endswith(
        ",excluded: ConvergenceError: IPF did not reach tol=1e-10 in 2 sweeps "
        "(residual 2.77)"
    )
    stats = json.loads((out / "trend_stats.json").read_text(),
                       parse_constant=_reject_constant)
    assert stats["N"] == 0
    assert stats["n_u_over_N"] is None and stats["n_s_over_N"] is None
    assert any(p.startswith("Example/1980s: ConvergenceError:")
               for p in stats["excluded_pairs"])


def test_cli_trend_on_synthetic_panel(tmp_path):
    cfg = config_file(tmp_path, method="nm")
    out = tmp_path / "out"
    cli("trend", "--config", cfg,
        "--couples", FIXTURES / "synthetic_panel.csv",
        "--income", FIXTURES / "synthetic_income.csv",
        "--out", out)
    stats = json.loads((out / "trend_stats.json").read_text())
    assert stats["n_u"] == 11 and stats["N"] == 15
    assert stats["n_s"] == 10
    series = (out / "trend_series.csv").read_text().strip().splitlines()
    assert series[0] == "state,year,cumulative,effect"
    assert any(line.startswith("US,1960,") for line in series[1:])


def test_cli_criteria_outputs_are_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        cli("criteria", "--samples", 25, "--seed", 3, "--out", out)
    for name in ("criteria_indicators.csv", "criteria_methods.csv",
                 "criteria_witnesses.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    matrix = (out_a / "criteria_indicators.csv").read_text().strip().splitlines()
    assert matrix[0] == "criterion,or,det,cov,corr,reg,msp,v,msm,ll,gll"
    assert len(matrix) == 1 + 13


def test_cli_criteria_refuses_a_negative_sample_count(tmp_path):
    result = CliRunner().invoke(main, [
        "criteria", "--samples", "-5", "--out", str(tmp_path)])
    assert result.exit_code == 2  # a usage error, not a traceback
    assert "sample count must be at least 1, got -5" in result.output
    assert not (tmp_path / "criteria_indicators.csv").exists()


def test_cli_criteria_refuses_a_negative_seed(tmp_path):
    result = CliRunner().invoke(main, [
        "criteria", "--seed", "-1", "--samples", "2", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "seed must be nonnegative, got -1" in result.output
    assert not (tmp_path / "criteria_indicators.csv").exists()


def test_cli_input_errors_exit_as_one_line_messages(tmp_path):
    # a bad configuration value is a usage error (exit code 2), a bad input
    # file an error with its line (exit code 1); neither is a traceback
    bad_config = write(tmp_path / "bad.json", json.dumps({"rounding": "nearest"}))
    result = CliRunner().invoke(main, [
        "indicators", "--config", str(bad_config),
        "--couples", str(FIXTURES / "synthetic_panel.csv"), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "unknown rounding mode: 'nearest'" in result.output
    couples = write(tmp_path / "couples.csv",
                    "year,state,husband_edu,wife_edu,count\n1960,Texas,L,L,x\n")
    result = CliRunner().invoke(main, [
        "indicators", "--config", str(config_file(tmp_path)),
        "--couples", str(couples), "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert result.output == f"Error: {couples}: line 2: count 'x' is not an integer\n"
    assert not (tmp_path / "indicators.csv").exists()
    # a config file that is not JSON, not an object, or holds a wrongly
    # typed value is a usage error too
    texts = ["{\"rounding\": ", "[1, 2]", *(json.dumps({field: value})
                                            for field, value, _ in BAD_TYPES + BAD_VALUES)]
    assert '{"tol": NaN}' in texts  # Python's json reads NaN
    for text in texts:
        bad_config = write(tmp_path / "bad.json", text)
        result = CliRunner().invoke(main, [
            "indicators", "--config", str(bad_config),
            "--couples", str(FIXTURES / "synthetic_panel.csv"), "--out", str(tmp_path)])
        assert result.exit_code == 2, (text, result.output)
        assert isinstance(result.exception, SystemExit), text
        errors = [line for line in result.output.splitlines() if line.startswith("Error: ")]
        assert len(errors) == 1 and "Traceback" not in result.output, text
    assert not (tmp_path / "indicators.csv").exists()


# each loader's header and a good line of it, whose state a defect replaces
LOADER_LINES = {
    "couples": ("year,state,husband_edu,wife_edu,count", "1960,Iowa,L,L,5"),
    "income": ("state,year,top10_share", "Iowa,1960,0.3"),
    "singles": ("year,state,sex,edu,count", "1960,Iowa,m,L,4"),
}


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("defect", ["not-utf8", "long-field"])
@pytest.mark.parametrize("loader", sorted(LOADER_LINES))
def test_cli_refuses_undecodable_bytes_or_an_overlong_field_in_one_line(
        tmp_path, loader, defect, quoted):
    # both used to escape the CSV reader as an exit-1 traceback: a
    # UnicodeDecodeError, and _csv.Error "field larger than field limit".
    # Quoted, each state spans two lines and the defect sits on the second
    # line of the second: the line reported is the bad byte's, or the one
    # where the field passes the limit, not the line its record starts on
    header, line = LOADER_LINES[loader]
    state = (b"Iow\xe9" if defect == "not-utf8"
             else b"x" * (csv.field_size_limit() + 1))
    good, bad = (b'"Io\r\nwa"', b'"Io\r\n' + state + b'"') if quoted else (b"Iowa", state)
    path = tmp_path / f"{loader}.csv"
    path.write_bytes(f"{header}\r\n".encode() + line.encode().replace(b"Iowa", good) + b"\r\n"
                     + line.encode().replace(b"Iowa", bad))
    data = ["--couples", str(path if loader == "couples" else FIXTURES / "synthetic_panel.csv")]
    if loader != "couples":
        data += [f"--{loader}", str(path)]
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["indicators", "--config", str(config_file(tmp_path)),
                                       *data, "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    why = ("not UTF-8 text" if defect == "not-utf8"
           else f"field larger than field limit ({csv.field_size_limit()})")
    assert result.output == f"Error: {path}: line {5 if quoted else 3}: {why}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["indicators", "counterfactual", "decompose", "trend",
                                     "criteria"])
@pytest.mark.parametrize("labels", [["A"], []])
def test_cli_refuses_fewer_than_two_labels_as_a_usage_error(tmp_path, command, labels):
    # a file whose couples all carry the one label: counterfactual used to
    # die on a 1x1 table with a TableError traceback
    couples = write(tmp_path / "couples.csv", "year,state,husband_edu,wife_edu,count\n"
                    "1960,Iowa,A,A,5\n1970,Iowa,A,A,7\n")
    cfg = write(tmp_path / "config.json", json.dumps({"labels": labels}))
    data = [] if command == "criteria" else ["--couples", str(couples)]
    pair = (["--state", "Iowa", "--early-year", "1960", "--late-year", "1970"]
            if command == "counterfactual" else [])
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command, "--config", str(cfg), *data, *pair,
                                       "--out", str(out)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("Error: ")]
    assert errors == [f"Error: labels must name at least two categories, got {labels!r}"]
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("command,name,value,flag", [
    *(pytest.param(command, name, value, False, id=f"{case}-{command}")
      for case, name, value in (("method", "method", "bogus"), ("measure", "measure", "bogus"),
                                ("measure-not-a-string", "measure", ["ll"]))
      for command in ("indicators", "counterfactual", "decompose", "trend", "criteria")),
    # --method is a choice, so only --measure is free text; only these two read it
    *(pytest.param(command, "measure", "bogus", True, id=f"measure-flag-{command}")
      for command in ("decompose", "trend")),
])
def test_cli_refuses_an_unknown_method_or_measure_as_a_usage_error(
        tmp_path, command, name, value, flag):
    # an unknown method in a config used to die in counterfactual with a
    # ValueError traceback, and an unknown measure to exclude every pair
    couples = write(tmp_path / "couples.csv", "year,state,husband_edu,wife_edu,count\n"
                    "1960,Iowa,L,L,5\n1970,Iowa,H,H,7\n")
    data = [] if command == "criteria" else ["--couples", str(couples)]
    pair = (["--state", "Iowa", "--early-year", "1960", "--late-year", "1970"]
            if command == "counterfactual" else [])
    options = ([f"--{name}", value] if flag
               else ["--config", str(config_file(tmp_path, **{name: value}))])
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command, *options, *data, *pair, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("Error: ")]
    assert len(errors) == 1 and errors[0].startswith(f"Error: unknown {name}: {value!r}")
    assert "Traceback" not in result.output
    assert not out.exists()


# the flags each subcommand takes besides --config, --out and the input files
CLI_FLAGS = {
    "indicators": ("categories", "rounding"),
    "counterfactual": ("method", "categories", "rounding", "state", "early_year",
                       "late_year"),
    "decompose": ("method", "measure", "categories", "rounding", "scheme"),
    "trend": ("method", "measure", "categories", "rounding", "scheme"),
    "criteria": ("seed", "samples"),
}
# a valid value of every RunConfig flag
RUN_FLAGS = {"method": "ipf", "measure": "ll", "categories": "hs", "rounding": "paper",
             "scheme": "sequential", "seed": "3", "samples": "5"}


def test_cli_subcommands_take_only_the_flags_they_read():
    for name, command in main.commands.items():
        inputs = () if name == "criteria" else ("couples", "income", "singles")
        assert sorted(param.name for param in command.params) == sorted(
            ("config", "out", *CLI_FLAGS[name], *inputs)), name
    assert sum(len(command.params) for command in main.commands.values()) == 42


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in CLI_FLAGS.items()
    for flag in RUN_FLAGS if flag not in flags
])
def test_cli_refuses_a_flag_its_subcommand_does_not_read(tmp_path, command, flag):
    # every subcommand used to take all nine run flags and ignore the ones
    # it does not read: criteria --method ipf ran the default matrix
    data = [] if command == "criteria" else [
        "--config", str(config_file(tmp_path)),
        "--couples", str(FIXTURES / "synthetic_panel.csv")]
    pair = (["--state", "Alabama", "--early-year", "1960", "--late-year", "1970"]
            if command == "counterfactual" else [])
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command, *data, *pair, f"--{flag}", RUN_FLAGS[flag],
                                       "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("Error: ")]
    assert len(errors) == 1 and errors[0].lower().startswith("error: no such option")
    assert not out.exists()


# the job shapes bench/run.py runs, as (command, method, divide)
BENCH_SHAPES = [("indicators", None, "three"), ("indicators", None, "college"),
                *((command, method, divide)
                  for method, divide in (("ipf", "three"), ("meda", "three"), ("nm", "three"),
                                         ("mdba", "college"), ("csa", "three"))
                  for command in ("decompose", "trend", "counterfactual"))]


@pytest.mark.parametrize("command,method,divide", BENCH_SHAPES)
def test_cli_runs_each_benchmark_job_shape(tmp_path, command, method, divide):
    # the benchmark passes one set of input files to every data subcommand;
    # csa reads the two-level synthetic panel, with its singles
    argv = [command, "--couples", str(FIXTURES / "three_level_panel.csv"),
            "--income", str(FIXTURES / "synthetic_income.csv"), "--categories", divide]
    state = "Iowa"
    if method == "csa":
        argv[2] = str(FIXTURES / "synthetic_panel.csv")
        argv += ["--config", str(config_file(tmp_path)),
                 "--singles", str(FIXTURES / "synthetic_singles.csv")]
        state = "Alabama"
    if method:
        argv += ["--method", method]
    if command == "counterfactual":
        argv += ["--state", state, "--early-year", "1960", "--late-year", "2010"]
    cli(*argv, "--out", tmp_path / "out")
    assert any((tmp_path / "out").iterdir())


def test_cli_runs_the_benchmark_criteria_shape(tmp_path):
    cli("criteria", "--samples", 5, "--seed", 3, "--out", tmp_path / "out")
    assert (tmp_path / "out" / "criteria_methods.csv").exists()


# each method's name in results, on a fitted pair and a failed one alike
METHOD_NAMES = {"ipf": "IPF", "mdba": "MDbA", "meda": "MEDA", "csa": "CSA", "nm": "NM"}


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_cli_counterfactual_names_a_method_alike_on_success_and_failure(tmp_path, method):
    # a failed fit used to write the upper-cased tag ("MDBA"), a fitted one
    # the registry's name ("MDbA")
    payloads = []
    for divide in ("three", "hs"):  # hs cannot cut the two-level panel
        out = tmp_path / divide
        cli("counterfactual", "--config", config_file(tmp_path), "--method", method,
            "--categories", divide, "--couples", FIXTURES / "synthetic_panel.csv",
            "--singles", FIXTURES / "synthetic_singles.csv", "--state", "Alabama",
            "--early-year", 1960, "--late-year", 1970, "--out", out)
        payloads.append(json.loads((out / "counterfactual.json").read_text()))
    fitted, failed = payloads
    assert (fitted["feasible"], failed["feasible"]) == (True, False)
    assert failed["method"] == fitted["method"] == METHOD_NAMES[method]


def test_cli_counterfactual_reports_infeasibility_in_output(tmp_path):
    # negative-sorting source pushed onto very skewed margins: the
    # LL-preserving fit must signal inside the JSON, not crash
    couples = write(
        tmp_path / "couples.csv",
        "year,state,husband_edu,wife_edu,count\n"
        "1980,Example,L,L,10\n1980,Example,L,H,30\n"
        "1980,Example,H,L,30\n1980,Example,H,H,30\n"
        "1990,Example,L,L,1\n1990,Example,L,H,9\n"
        "1990,Example,H,L,9\n1990,Example,H,H,81\n",
    )
    cfg = config_file(tmp_path, method="nm")
    out = tmp_path / "out"
    cli("counterfactual", "--config", cfg, "--couples", couples,
        "--state", "Example", "--early-year", 1990, "--late-year", 1980,
        "--out", out)
    payload = json.loads((out / "counterfactual.json").read_text())
    assert payload["feasible"] is False
    assert payload["error"]["type"] == "InfeasibilityError"


def test_cli_reports_an_unreachable_ipf_target_as_infeasible(tmp_path):
    # the 1990 table is diagonal, so its L husbands can only be raked onto
    # L wives: 30 of them in 1980 against 20 L wives
    couples = write(
        tmp_path / "couples.csv",
        "year,state,husband_edu,wife_edu,count\n"
        "1980,Example,L,L,20\n1980,Example,L,H,10\n"
        "1980,Example,H,L,0\n1980,Example,H,H,10\n"
        "1990,Example,L,L,10\n1990,Example,L,H,0\n"
        "1990,Example,H,L,0\n1990,Example,H,H,10\n",
    )
    cfg = config_file(tmp_path, method="ipf")
    out = tmp_path / "out"
    cli("counterfactual", "--config", cfg, "--couples", couples,
        "--state", "Example", "--early-year", 1980, "--late-year", 1990,
        "--out", out)
    payload = json.loads((out / "counterfactual.json").read_text())
    assert payload["feasible"] is False
    assert payload["error"]["type"] == "InfeasibilityError"
    cli("decompose", "--config", cfg, "--couples", couples, "--out", out)
    with open(out / "decomposition.csv", newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.DictReader(fh) if row["decade"] == "1980s"]
    assert [row["state"] for row in rows] == ["Example"]
    for row in rows:
        assert row["status"].startswith(
            "excluded: InfeasibilityError: target unreachable: "
            "source rows [0] reach only columns [0]"
        ), row["status"]


def test_cli_counterfactual_with_singles(tmp_path):
    singles = write(
        tmp_path / "singles.csv",
        "year,state,sex,edu,count\n"
        "1980,Example,m,L,10\n1980,Example,m,H,12\n"
        "1980,Example,w,L,11\n1980,Example,w,H,13\n"
        "1990,Example,m,L,9\n1990,Example,m,H,14\n"
        "1990,Example,w,L,8\n1990,Example,w,H,15\n",
    )
    cfg = config_file(tmp_path, method="csa")
    out = tmp_path / "out"
    cli("counterfactual", "--config", cfg,
        "--couples", FIXTURES / "divergence_couples.csv", "--singles", singles,
        "--state", "Example", "--early-year", 1980, "--late-year", 1990,
        "--out", out)
    payload = json.loads((out / "counterfactual.json").read_text())
    assert payload["method"] == "CSA"
    assert payload["feasible"] is True
    # population identities against the early generation hold
    counts = np.array(payload["counts"])
    men = np.array(payload["diagnostics"]["single_men"]) + counts.sum(axis=1)
    assert np.allclose(men, [54 + 20 + 10, 27 + 61 + 12], atol=1e-6)


def test_cli_trend_outputs_are_byte_stable(tmp_path):
    cfg = config_file(tmp_path, method="nm")
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        cli("trend", "--config", cfg,
            "--couples", FIXTURES / "synthetic_panel.csv",
            "--income", FIXTURES / "synthetic_income.csv", "--out", out)
    for name in ("trend_stats.json", "trend_series.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_decompose_measure_picks_the_scheme_of_that_method(tmp_path):
    # the default method is nm, whose default scheme is with-interaction;
    # --measure ipf must decompose as --method ipf does
    cfg = config_file(tmp_path)
    outs = [tmp_path / "measure", tmp_path / "method"]
    for option, out in zip(("--measure", "--method"), outs):
        cli("decompose", "--config", cfg, option, "ipf",
            "--couples", FIXTURES / "synthetic_panel.csv", "--out", out)
    assert (outs[0] / "decomposition.csv").read_bytes() == (
        outs[1] / "decomposition.csv").read_bytes()


def test_cli_decompose_rejects_indicator_measure(tmp_path):
    cfg = config_file(tmp_path)
    runner = CliRunner()
    result = runner.invoke(main, [
        "decompose", "--config", str(cfg), "--measure", "ll",
        "--couples", str(FIXTURES / "divergence_couples.csv"),
        "--out", str(tmp_path / "x"),
    ])
    assert result.exit_code != 0


@pytest.mark.parametrize("command,flags", [
    ("trend", ("--method", "ipf")), ("decompose", ("--method", "ipf")), ("trend", ())],
    ids=["trend-method", "decompose-method", "trend-file-only"])
def test_cli_method_flag_overrides_a_file_measure(tmp_path, command, flags):
    # the flag used to lose to the file's measure: trend wrote "ll", and
    # decompose exited 2 asking for a method measure
    out = tmp_path / "out"
    cli(command, "--config", config_file(tmp_path, measure="ll"), *flags,
        "--couples", FIXTURES / "synthetic_panel.csv", "--out", out)
    expected = flags[-1] if flags else "ll"
    if command == "trend":
        assert json.loads((out / "trend_stats.json").read_text())["measure"] == expected
    else:
        rows = read_rows(out / "decomposition.csv")
        assert rows and {row["method"] for row in rows} == {expected}


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_cli_trend_csa_series_covers_every_unit(tmp_path):
    lines = ["year,state,sex,edu,count"]
    for year in (1960, 1970, 1980, 1990, 2000, 2010):
        for i, state in enumerate(("Alabama", "Missouri", "Texas")):
            for sex, edu, count in (("m", "L", 12), ("m", "H", 9),
                                    ("w", "L", 10), ("w", "H", 11)):
                lines.append(f"{year},{state},{sex},{edu},{count + i + year % 7}")
    singles = write(tmp_path / "singles.csv", "\n".join(lines) + "\n")
    cfg = config_file(tmp_path, method="csa")
    out = tmp_path / "out"
    for command in ("decompose", "trend"):
        cli(command, "--config", cfg,
            "--couples", FIXTURES / "synthetic_panel.csv", "--singles", singles,
            "--out", out)
    decomposition = read_rows(out / "decomposition.csv")
    assert {row["status"] for row in decomposition} == {"ok"}
    series = read_rows(out / "trend_series.csv")
    # one row per (unit, wave), the national aggregate first
    assert [(row["state"], row["year"]) for row in series] == [
        (unit, str(year))
        for unit in ("US", "Alabama", "Missouri", "Texas")
        for year in (1960, 1970, 1980, 1990, 2000, 2010)
    ]
    effects = {(row["state"], f"{row['year']}s"): row["effect"] for row in series}
    for row in decomposition:
        assert effects[(row["state"], row["decade"])] == row["nonstructural"]
    # the national aggregate has no singles: its decades are gaps
    national = [row for row in series if row["state"] == "US"]
    assert national[0]["cumulative"] != ""
    assert all(row["effect"] == "" for row in national)
    assert all(row["cumulative"] == "" for row in national[1:])


def test_cli_trend_series_keeps_a_unit_with_an_infeasible_decade(tmp_path):
    # 1970 -> 1980 carries a negative-sorting table onto skewed margins,
    # which the LL-preserving fit cannot do; the decades around it can
    tables = {
        1960: [[30, 10], [10, 50]],
        1970: [[1, 9], [9, 81]],
        1980: [[10, 30], [30, 30]],
        1990: [[30, 20], [20, 30]],
    }
    lines = ["year,state,husband_edu,wife_edu,count"]
    for year, ((a, b), (c, d)) in tables.items():
        lines += [f"{year},Example,L,L,{a}", f"{year},Example,L,H,{b}",
                  f"{year},Example,H,L,{c}", f"{year},Example,H,H,{d}"]
    couples = write(tmp_path / "couples.csv", "\n".join(lines) + "\n")
    cfg = config_file(tmp_path, method="nm", waves=list(tables))
    out = tmp_path / "out"
    for command in ("decompose", "trend"):
        cli(command, "--config", cfg, "--couples", couples, "--out", out)
    status = {row["decade"]: row for row in read_rows(out / "decomposition.csv")}
    assert status["1970s"]["status"].startswith("excluded: InfeasibilityError")
    series = [row for row in read_rows(out / "trend_series.csv")
              if row["state"] == "Example"]
    assert [row["year"] for row in series] == ["1960", "1970", "1980", "1990"]
    assert [row["effect"] for row in series] == [
        status["1960s"]["nonstructural"], "", status["1980s"]["nonstructural"], "",
    ]
    assert float(series[0]["cumulative"]) == pytest.approx(0.8)
    assert float(series[1]["cumulative"]) == pytest.approx(
        0.8 + float(status["1960s"]["nonstructural"])
    )
    assert series[2]["cumulative"] == series[3]["cumulative"] == ""


def test_cli_trend_decomposes_each_unit_decade_once(tmp_path, monkeypatch):
    import homlab.decomposition

    stacks = []
    original = homlab.decomposition.fit_stack

    def counting(method, counts, rows, cols, *args, **kwargs):
        stacks.append(list(zip(counts.tolist(), rows.tolist(), cols.tolist())))
        return original(method, counts, rows, cols, *args, **kwargs)

    monkeypatch.setattr(homlab.decomposition, "fit_stack", counting)
    rows = (FIXTURES / "synthetic_panel.csv").read_text().splitlines()
    couples = write(
        tmp_path / "couples.csv",
        "\n".join(row for row in rows if not row.startswith("1970,Texas,")) + "\n",
    )
    cfg = config_file(tmp_path, method="nm")
    cli("trend", "--config", cfg, "--couples", couples, "--out", tmp_path / "out")
    # US and the states in one stack per direction (with-interaction)
    assert len(stacks) == 2
    # 5 decades for US, Alabama and Missouri; Texas lacks 1970, so 3: each
    # pair fits late onto early margins once, and early onto late once
    config = RunConfig.from_file(cfg)
    panel = load_couples(couples, config)
    expected = []
    for unit in ("US", *panel.states):
        for early_year, late_year in zip(config.waves, config.waves[1:]):
            early = _unit_table(panel, unit, early_year)
            late = _unit_table(panel, unit, late_year)
            if early is None or late is None:
                continue
            for source, target in ((late, early), (early, late)):
                expected.append((source.counts.tolist(),
                                 target.counts.sum(axis=1).tolist(),
                                 target.counts.sum(axis=0).tolist()))
    assert len(expected) == 2 * 18
    fitted = [problem for stack in stacks for problem in stack]
    assert sorted(map(repr, fitted)) == sorted(map(repr, expected))


def test_cli_trend_keeps_an_uncut_unit_as_gaps(tmp_path):
    # two-level labels cannot be cut at the college divide: every pair is
    # excluded, and the series anchor no longer crashes the run; with its
    # singles, the surplus-based method's table is refused the same way
    cfg = config_file(tmp_path, categories="college")
    singles = ("--singles", FIXTURES / "synthetic_singles.csv")
    detail = "the 'college' divide needs a three-level table, got 2x2"
    for method, extra in (("ipf", ()), ("csa", singles)):
        out = tmp_path / method
        for command in ("decompose", "trend"):
            cli(command, "--config", cfg, "--method", method,
                "--couples", FIXTURES / "synthetic_panel.csv", *extra, "--out", out)
        with open(out / "decomposition.csv", newline="") as fh:
            statuses = [row["status"] for row in csv.DictReader(fh)]
        assert statuses == [f"excluded: DataError: {detail}"] * (3 * 5)
        stats = json.loads((out / "trend_stats.json").read_text())
        assert stats["N"] == 0
        assert len(stats["excluded_pairs"]) == 3 * 5
        assert all(pair.endswith(f": DataError: {detail}") for pair in stats["excluded_pairs"])
        with open(out / "trend_series.csv", newline="") as fh:
            series = list(csv.DictReader(fh))
        assert len(series) == 4 * 6  # US + 3 states keep their rows
        assert all(row["cumulative"] == row["effect"] == "" for row in series)
    # the same pair is an infeasible counterfactual, not a crash
    cli("counterfactual", "--config", cfg, "--method", "csa",
        "--couples", FIXTURES / "synthetic_panel.csv", *singles,
        "--state", "Texas", "--early-year", 1960, "--late-year", 1970,
        "--out", tmp_path / "cf")
    payload = json.loads((tmp_path / "cf" / "counterfactual.json").read_text())
    assert payload["feasible"] is False
    assert payload["error"] == {"type": "DataError", "detail": detail}


THREE_LEVEL_COUPLES = "".join(
    f"{year},Example,{h},{w},{count}\n"
    for year, counts in ((1980, (30, 12, 5, 10, 40, 9, 4, 11, 25)),
                         (1990, (22, 14, 8, 9, 45, 12, 3, 10, 35)))
    for (h, w), count in zip(
        [(h, w) for h in ("no_high_school", "high_school", "college")
         for w in ("no_high_school", "high_school", "college")],
        counts,
    )
)


def test_cli_counterfactual_reports_a_method_divide_mismatch(tmp_path):
    couples = write(tmp_path / "couples.csv",
                    "year,state,husband_edu,wife_edu,count\n" + THREE_LEVEL_COUPLES)
    out = tmp_path / "out"
    cli("counterfactual", "--method", "mdba", "--categories", "three",
        "--couples", couples, "--state", "Example",
        "--early-year", 1980, "--late-year", 1990, "--out", out)
    payload = json.loads((out / "counterfactual.json").read_text())
    assert payload["feasible"] is False
    assert payload["error"]["type"] == "ShapeError"
    # the same pair is an excluded row of decompose
    cli("decompose", "--method", "mdba", "--categories", "three",
        "--couples", couples, "--out", out)
    lines = (out / "decomposition.csv").read_text().splitlines()
    assert lines[3].startswith("Example,1980s,mdba,")
    assert ",excluded: ShapeError: " in lines[3]

    # a missing state-year is an input failure, not a result
    result = CliRunner().invoke(main, [
        "counterfactual", "--method", "ipf", "--couples", str(couples),
        "--state", "Example", "--early-year", "1980", "--late-year", "2000",
        "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == "Error: no table for (Example, 2000)\n"


@pytest.mark.parametrize("categories", ["three", "hs", "college"])
def test_cli_writes_empty_outputs_for_a_couples_file_without_couples(tmp_path, categories):
    # a header alone, or only zero counts: no wave is present, so the run's
    # cut is a stack of none, and every output is empty but written
    header = "year,state,husband_edu,wife_edu,count\n"
    for name, text in (("header", header), ("zeros", header + "1960,Iowa,college,college,0\n")):
        couples, out = write(tmp_path / f"{name}.csv", text), tmp_path / name
        for command in ("indicators", "decompose", "trend"):
            cli(command, "--categories", categories, "--couples", couples, "--out", out)
        assert (out / "indicators.csv").read_text() == "state,year,share\n"
        assert len((out / "decomposition.csv").read_text().splitlines()) == 1
        assert (out / "trend_series.csv").read_text() == "state,year,cumulative,effect\n"
        assert json.loads((out / "trend_stats.json").read_text())["N"] == 0
        # an unknown state has no table, whatever the divide
        result = CliRunner().invoke(main, [
            "counterfactual", "--categories", categories, "--couples", str(couples),
            "--state", "Nowhere", "--early-year", "1960", "--late-year", "1970",
            "--out", str(out)])
        assert (result.exit_code, result.output) == (1, "Error: no table for (Nowhere, 1960)\n")


def _write_stress_inputs(tmp_path, panel):
    """``panel``'s couples and singles as the CLI's input files."""
    couples = tmp_path / "couples.csv"
    _write_couples(panel, couples)
    lines = ["year,state,sex,edu,count"]
    for (state, year), pools in sorted(panel.singles.items()):
        for sex, pool in zip("mw", pools):
            lines += [f"{year},{state},{sex},{label},{format_number(float(count))}"
                      for label, count in zip(panel.labels, pool)]
    return couples, write(tmp_path / "singles.csv", "\n".join(lines) + "\n")


def _reference_counterfactual(panel, config, state, years):
    """The counterfactual payload of one pair, with each wave cut alone and
    fitted by the single-table ``fit``."""
    payload = {"method": METHOD_NAMES[config.method], "state": state,
               "early_year": years[0], "late_year": years[1]}
    try:
        early, late = (_reference_cut(panel, config, state, year, config.method)
                       for year in years)
        result = _reference_fit(late, early, config.method, config.rounding, config.tol,
                                config.max_iter)
    except HomlabError as exc:
        return {**payload, "feasible": False,
                "error": {"type": type(exc).__name__, "detail": str(exc)}}
    # the options each method reports, then its kernel's extra values
    options = {"ipf": {"tol": config.tol}, "nm": {"rounding": config.rounding}}
    diagnostics = {**options.get(config.method, {}),
                   **{name: values[0].tolist() for name, values in result.extra.items()}}
    return {**payload, "row_labels": list(late[0].row_labels),
            "col_labels": list(late[0].col_labels),
            "counts": [[float(x) for x in row] for row in result.counts[0]],
            "iterations": int(result.iterations[0]),
            "max_marginal_error": float(result.residual[0]),
            "feasible": True, "diagnostics": diagnostics}


@pytest.mark.parametrize("categories", ["three", "hs", "college"])
def test_cli_counterfactual_matches_the_per_table_fit_bit_for_bit(tmp_path, categories):
    # US, a state, and a state whose early wave has no singles (which csa
    # cannot cut), for every method; mdba on three levels is a ShapeError
    panel = series_stress_panel()
    couples, singles = _write_stress_inputs(tmp_path, panel)
    cfg = write(tmp_path / "config.json", json.dumps({"labels": list(STRESS_LABELS)}))
    errors, feasible = set(), 0
    for method, (state, *years) in itertools.product(
            METHOD_TAGS, (("US", 1960, 2010), ("Cary", 1980, 1990), ("Ames", 1960, 1970))):
        config = RunConfig(labels=STRESS_LABELS, categories=categories, method=method)
        out = tmp_path / f"{method}-{state}"
        cli("counterfactual", "--config", cfg, "--categories", categories, "--method", method,
            "--couples", couples, "--singles", singles, "--state", state,
            "--early-year", years[0], "--late-year", years[1], "--out", out)
        expected = _reference_counterfactual(panel, config, state, years)
        _write_json(tmp_path / "expected.json", expected)
        got = (out / "counterfactual.json").read_bytes()
        assert got == (tmp_path / "expected.json").read_bytes(), (method, state)
        errors.add(expected.get("error", {}).get("detail", "")[:40])
        feasible += expected["feasible"]
    assert feasible >= 5
    assert "the surplus-based method needs singles c" in errors
    assert (categories == "three") == any(e.startswith("the determinant-based") for e in errors)


def _fresh_python(probe: str, **env) -> list[str]:
    """The words ``probe`` prints in a fresh interpreter on this checkout,
    without OPENBLAS_NUM_THREADS unless ``env`` sets it."""
    src = Path(__file__).resolve().parent.parent / "src"
    environ = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
    environ.update(env, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", probe], env=environ, check=True,
                          capture_output=True, text=True, timeout=60).stdout.split()


def test_importing_the_cli_does_not_run_the_criteria_module():
    # only the criteria subcommand pays for importing homlab.criteria: the
    # module is registered in sys.modules, but its body runs on first use;
    # nor does any other one import multiprocessing, which only it uses
    probe = (
        "import sys, homlab.cli\n"
        "module = sys.modules['homlab.criteria']\n"
        "print('check_indicator' in object.__getattribute__(module, '__dict__'))\n"
        "print('multiprocessing' in sys.modules)\n"
        "print(homlab.cli.cr.VIOLATION_TOL, module is sys.modules['homlab.criteria'])\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    assert _fresh_python(probe) == ["False", "False", "1e-07", "True", "True"]


def test_importing_the_package_loads_no_numpy_and_sets_nothing():
    probe = (
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import homlab\n"
        "print(dict(os.environ) == before, 'numpy' in sys.modules)\n"
    )
    assert _fresh_python(probe) == ["True", "False"]


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("4", "4")])
def test_the_cli_picks_one_blas_thread_unless_told_otherwise(preset, expected):
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    probe = "import os, homlab.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
    assert _fresh_python(probe, **env) == [expected]


# the library surface: what the CLI, the criteria and the README use
EXPORTED = [
    "CONTINUOUS", "ContingencyTable", "DecadeChange", "PAPER_INTEGER", "TrendStats",
    "decompose", "evaluate", "fit", "gll", "merge_categories", "score",
]

# the per-table entry points that the kernels replaced, by module
DELETED = {
    "counterfactual": ("SurvivalGrid", "csa_fit", "csa_solve", "ipf_fit", "mdba_fit",
                       "meda_fit", "meda_weight", "nm_fit", "CounterfactualResult", "_result"),
    "indicators": ("aggregate_2x2", "odds_ratio", "determinant", "covariance", "correlation",
                   "regression", "aggregate_msp", "v_value", "ll_simplified",
                   "surplus_matrix", "RegressionPair", "MspComponents",
                   "LiuLuDecomposition", "SurplusMatrix", "_outputs"),
    "decomposition": ("decompose_counts", "DecompositionResult"),
    "trend": ("classify_u_shape", "_u_shape_flag", "income_consistency"),
    "tables": ("enumerate_tables", "merge_with_singles", "pam_match", "random_match",
               "TableWithSingles", "couples_of", "Marginals", "marginals", "homogamy_share"),
    "io": ("EXCLUDED", "unit_decade_changes", "write_couples"),
    "criteria": ("MarginalPerturbation", "apply_perturbation", "_one"),
}


def test_every_exported_name_resolves():
    probe = (
        "import homlab\n"
        "from homlab import *\n"
        "missing = [n for n in homlab.__all__ if getattr(homlab, n, None) is None]\n"
        "print(','.join(homlab.__all__), missing)\n"
        "print(homlab.evaluate is homlab.indicators.evaluate)\n"
    )
    exported, missing, same = _fresh_python(probe)
    assert exported.split(",") == EXPORTED
    assert missing == "[]" and same == "True"


def test_the_replaced_entry_points_are_gone():
    import importlib

    import homlab

    for module, names in DELETED.items():
        defining = importlib.import_module(f"homlab.{module}")
        for name, owner in itertools.product(names, (homlab, defining)):
            with pytest.raises(AttributeError):
                getattr(owner, name)
    assert not hasattr(PanelDataset, "unit_table")
    for name in ("scaled", "transposed", "with_counts", "total"):
        assert not hasattr(ContingencyTable, name), name


def test_derived_values_are_no_constructor_arguments():
    derived = {DecadeChange: ("valid",), TrendStats: ("n_s", "n_total"),
               PanelDataset: ("waves", "states")}
    for cls, names in derived.items():
        assert not set(names) & set(inspect.signature(cls).parameters), cls
    # a stale positional call fails, and binds nothing to the next field
    counts, index = np.ones((1, 2, 2)), {("A", 1960): 0}
    with pytest.raises(TypeError):
        PanelDataset(counts, index, ("L", "H"), (1960,), ("A",))
    assert PanelDataset(counts, index, ("L", "H")).states == ("A",)


# ---------------------------------------------------------------------------
# the structured sweep: no input gives a traceback
# ---------------------------------------------------------------------------

SWEEP_TABLES = {
    "positive": [[5, 2], [3, 4]],
    "empty-row": [[0, 0], [3, 4]],
    "empty-column": [[0, 2], [0, 4]],
    "diagonal": [[5, 0], [0, 4]],
    "anti-diagonal": [[0, 2], [3, 0]],
    "one-cell": [[5, 0], [0, 0]],
}
# single men and single women by category, of one wave
SWEEP_SINGLES = {
    "positive": ([2, 3], [4, 1]),
    "zero-man": ([0, 3], [4, 1]),
    "zero-woman": ([2, 3], [4, 0]),
    "all-zero": ([0, 0], [0, 0]),
}
SWEEP_PAIR = ["--state", "Iowa", "--early-year", "1960", "--late-year", "1970"]


def _sweep_couples(tables: dict, labels=("L", "H")) -> str:
    lines = [COUPLES_HEADER]
    for year, counts in tables.items():
        lines += [f"{year},Iowa,{h},{w},{count}"
                  for h, row in zip(labels, counts) for w, count in zip(labels, row)]
    return "\n".join(lines) + "\n"


def _sweep_singles(early: str, late: str) -> str:
    lines = [SINGLES_HEADER]
    for year, name in ((1960, early), (1970, late)):
        for sex, pool in zip("mw", SWEEP_SINGLES[name]):
            lines += [f"{year},Iowa,{sex},{label},{count}"
                      for label, count in zip(("L", "H"), pool)]
    return "\n".join(lines) + "\n"


def _sweep_outcome(runner, argv) -> str:
    """A run's outcome, or why it breaks the contract: exit 0, or exit 1
    or 2 with one ``Error:`` line and no exception but SystemExit."""
    result = runner.invoke(main, argv)
    if result.exit_code == 0 and result.exception is None:
        return "ok"
    errors = [line for line in result.output.splitlines() if line.startswith("Error: ")]
    if (result.exit_code in (1, 2) and isinstance(result.exception, SystemExit)
            and len(errors) == 1):
        return "error"
    return f"exit {result.exit_code}: {result.exception!r}"


def test_structured_inputs_give_outputs_or_one_line_errors(tmp_path):
    # every 2x2 zero pattern of two waves, under each method of the three
    # pair commands, with each singles pattern of each wave for csa; 90 csa
    # pairs whose early wave has a category of no men or no women used to
    # die with a DegenerateInputError traceback
    runner = CliRunner()
    out = str(tmp_path / "out")
    cfg = str(config_file(tmp_path, waves=[1960, 1970]))
    singles = {pair: str(write(tmp_path / f"singles-{pair[0]}-{pair[1]}.csv",
                               _sweep_singles(*pair)))
               for pair in itertools.product(SWEEP_SINGLES, repeat=2)}
    commands = {"decompose": [], "trend": [], "counterfactual": SWEEP_PAIR}
    cases = []
    for (early, a), (late, b) in itertools.product(SWEEP_TABLES.items(), repeat=2):
        couples = str(write(tmp_path / f"couples-{early}-{late}.csv",
                            _sweep_couples({1960: a, 1970: b})))
        for method in METHOD_TAGS:
            for pattern in (singles if method == "csa" else [None]):
                data = ["--couples", couples,
                        *(["--singles", singles[pattern]] if pattern else [])]
                cases += [(f"{command} {method} {early}/{late} {pattern}",
                           [command, "--config", cfg, "--method", method, *data, *extra,
                            "--out", out])
                          for command, extra in commands.items()]
    # degenerate files: header-only, zeros-only, a label absent from the
    # data, labels none of the data carries, and a single wave
    files = {
        "header-only": (cfg, COUPLES_HEADER + "\n"),
        "zeros-only": (cfg, _sweep_couples({1960: [[0, 0], [0, 0]], 1970: [[0, 0], [0, 0]]})),
        "absent-label": (str(write(tmp_path / "three.json", json.dumps(
            {"labels": ["L", "M", "H"], "waves": [1960, 1970]}))),
            _sweep_couples({1960: SWEEP_TABLES["positive"], 1970: SWEEP_TABLES["diagonal"]})),
        "foreign-labels": (str(write(tmp_path / "foreign.json", json.dumps(
            {"labels": ["A", "B"], "waves": [1960, 1970]}))),
            _sweep_couples({1960: SWEEP_TABLES["positive"]})),
        "one-wave-file": (cfg, _sweep_couples({1960: SWEEP_TABLES["positive"]})),
        "one-wave-config": (str(write(tmp_path / "one-wave.json", json.dumps(
            {"labels": ["L", "H"], "waves": [1960]}))),
            _sweep_couples({1960: SWEEP_TABLES["positive"]})),
    }
    for name, (config, text) in files.items():
        couples = str(write(tmp_path / f"file-{name}.csv", text))
        for method, (command, extra) in itertools.product(METHOD_TAGS, commands.items()):
            data = ["--couples", couples, *(["--singles", singles["positive", "positive"]]
                                            if method == "csa" else [])]
            cases.append((f"{command} {method} {name}",
                          [command, "--config", config, "--method", method, *data, *extra,
                           "--out", out]))
    outcomes = {name: _sweep_outcome(runner, argv) for name, argv in cases}
    broken = {name: outcome for name, outcome in outcomes.items()
              if outcome not in ("ok", "error")}
    assert not broken
    assert len(outcomes) == 3 * 36 * (4 + 16) + 3 * 5 * len(files)


def test_cli_reports_a_csa_pair_without_an_early_population_as_excluded(tmp_path):
    # no husbands and no single men of category L in the early wave: the
    # target population of L is 0, which the CSA fit refuses
    couples = write(tmp_path / "couples.csv", _sweep_couples(
        {1960: SWEEP_TABLES["empty-row"], 1970: SWEEP_TABLES["positive"]}))
    singles = write(tmp_path / "singles.csv", _sweep_singles("zero-man", "positive"))
    cfg = config_file(tmp_path, waves=[1960, 1970], method="csa")
    data = ["--config", cfg, "--couples", couples, "--singles", singles]
    reason = "DegenerateInputError: target populations must be strictly positive"
    cli("decompose", *data, "--out", tmp_path / "decompose")
    with open(tmp_path / "decompose" / "decomposition.csv", encoding="utf-8") as fh:
        assert [row["status"] for row in csv.DictReader(fh)] == [f"excluded: {reason}"]
    cli("trend", *data, "--out", tmp_path / "trend")
    stats = json.loads((tmp_path / "trend" / "trend_stats.json").read_text(encoding="utf-8"))
    assert stats["excluded_pairs"] == [f"Iowa/1960s: {reason}"]
    cli("counterfactual", *data, *SWEEP_PAIR, "--out", tmp_path / "counterfactual")
    payload = json.loads((tmp_path / "counterfactual" / "counterfactual.json").read_text(
        encoding="utf-8"))
    assert payload["feasible"] is False
    assert payload["error"] == {"type": "DegenerateInputError",
                                "detail": "target populations must be strictly positive"}
