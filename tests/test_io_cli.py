import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from homlab.cli import main
from homlab.errors import DataError
from homlab.io import (
    PanelDataset,
    RunConfig,
    decade_changes,
    dichotomize,
    format_number,
    income_decade_deltas,
    indicator_rows,
    load_couples,
    load_income,
    load_singles,
    write_couples,
)
from homlab.tables import ContingencyTable
from homlab.trend import score

FIXTURES = Path(__file__).parent / "fixtures"

TWO_LEVEL = dict(labels=["L", "H"], categories="three")


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


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


def test_config_rejects_bad_values():
    with pytest.raises(DataError):
        RunConfig(categories="two")
    with pytest.raises(DataError):
        RunConfig(rounding="nearest")
    with pytest.raises(DataError):
        RunConfig(scheme="shapley")
    with pytest.raises(DataError):
        RunConfig(sample_count=0)


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
    assert len(panel.tables) == 2
    assert panel.table("Iowa", 1960).counts.tolist() == [[40, 10], [20, 30]]


def test_load_couples_sums_duplicates(tmp_path):
    path = write(
        tmp_path / "couples.csv",
        "year,state,husband_edu,wife_edu,count\n"
        "1960,Iowa,L,L,40\n1960,Iowa,L,L,2\n1960,Iowa,H,H,30\n",
    )
    panel = load_couples(path, RunConfig(**TWO_LEVEL))
    assert panel.table("Iowa", 1960).counts[0, 0] == 42


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


def test_roundtrip_identical(tmp_path):
    panel = load_couples(FIXTURES / "synthetic_panel.csv", RunConfig(**TWO_LEVEL))
    out = tmp_path / "again.csv"
    write_couples(panel, out)
    again = load_couples(out, RunConfig(**TWO_LEVEL))
    assert set(again.tables) == set(panel.tables)
    for key, tab in panel.tables.items():
        assert np.array_equal(again.tables[key].counts, tab.counts)


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
    assert panel.national(1960).counts[0, 0] == 15
    panel_inc = load_couples(path, RunConfig(**TWO_LEVEL, include_unknown=True))
    assert panel_inc.national(1960).counts[0, 0] == 115
    assert panel_inc.states == ("Iowa", "Ohio")


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


# ---------------------------------------------------------------------------
# dichotomization
# ---------------------------------------------------------------------------

def test_dichotomize_cuts():
    t = ContingencyTable(
        np.arange(1, 10, dtype=float).reshape(3, 3),
        ("no_hs", "hs", "college"),
        ("no_hs", "hs", "college"),
    )
    hs = dichotomize(t, "hs")
    assert hs.counts.tolist() == [[1, 5], [11, 28]]
    college = dichotomize(t, "college")
    assert college.counts.tolist() == [[12, 9], [15, 9]]
    assert dichotomize(t, "three") is t
    with pytest.raises(DataError):
        dichotomize(hs, "hs")


# ---------------------------------------------------------------------------
# the formatting contract
# ---------------------------------------------------------------------------

def test_format_number():
    assert format_number(42.0) == "42"
    assert format_number(0.5) == "0.5"
    assert format_number(1 / 3) == "0.333333333333"
    assert format_number(float("inf")) == "inf"
    assert format_number(float("nan")) == "nan"


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


def test_missing_wave_reduces_totals_exactly():
    panel, config = synthetic_panel()
    del panel.tables[("Texas", 1970)]
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
    t = ContingencyTable([[0, 0, 0], [4.5, 3.5, 3.0], [2.5, 3.0, 4.5]])
    panel = PanelDataset({("A", 1960): t}, waves=(1960,), states=("A",))
    rows = indicator_rows(panel, RunConfig(waves=(1960,)))
    assert [row["state"] for row in rows] == ["US", "A"]
    for row in rows:
        assert row["gll_1_1"] == ""
        assert row["gll_1_2"] == pytest.approx(1.0)
        assert row["gll_2_1"] == pytest.approx(0.375)
        assert row["gll_2_2"] == pytest.approx(1 / 3)


def test_decade_changes_report_mis_shaped_pairs():
    small = ContingencyTable([[5, 1], [1, 5]])
    large = ContingencyTable([[5, 1, 1], [1, 5, 1], [1, 1, 5]])
    panel = PanelDataset(
        {("A", 1960): small, ("A", 1970): large}, waves=(1960, 1970), states=("A",)
    )
    changes, details = decade_changes(
        panel, RunConfig(waves=(1960, 1970), method="ipf")
    )
    assert not details
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
    assert result.exit_code != 0
    assert isinstance(result.exception, DataError)
    assert not (tmp_path / "criteria_indicators.csv").exists()


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
    import homlab.io

    calls = []
    original = homlab.decomposition.decompose

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(homlab.io, "decompose", counting)
    monkeypatch.setattr(homlab.decomposition, "decompose", counting)
    rows = (FIXTURES / "synthetic_panel.csv").read_text().splitlines()
    couples = write(
        tmp_path / "couples.csv",
        "\n".join(row for row in rows if not row.startswith("1970,Texas,")) + "\n",
    )
    cfg = config_file(tmp_path, method="nm")
    cli("trend", "--config", cfg, "--couples", couples, "--out", tmp_path / "out")
    # 5 decades for US, Alabama and Missouri; Texas lacks 1970, so 3
    assert len(calls) == 3 * 5 + 3


def test_cli_trend_keeps_an_uncut_unit_as_gaps(tmp_path):
    # two-level labels cannot be cut at the college divide: every pair is
    # excluded, and the series anchor no longer crashes the run
    cfg = config_file(tmp_path, categories="college", method="ipf")
    out = tmp_path / "out"
    for command in ("decompose", "trend"):
        cli(command, "--config", cfg,
            "--couples", FIXTURES / "synthetic_panel.csv", "--out", out)
    with open(out / "decomposition.csv", newline="") as fh:
        statuses = [row["status"] for row in csv.DictReader(fh)]
    assert len(statuses) == 3 * 5
    assert all(s.startswith("excluded: DataError: ") for s in statuses)
    stats = json.loads((out / "trend_stats.json").read_text())
    assert stats["N"] == 0
    assert len(stats["excluded_pairs"]) == 3 * 5
    assert all(": DataError: " in pair for pair in stats["excluded_pairs"])
    with open(out / "trend_series.csv", newline="") as fh:
        series = list(csv.DictReader(fh))
    assert len(series) == 4 * 6  # US + 3 states keep their rows
    assert all(row["cumulative"] == row["effect"] == "" for row in series)


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
    assert result.exit_code != 0
    assert isinstance(result.exception, DataError)


def test_importing_the_cli_does_not_run_the_criteria_module():
    # only the criteria subcommand pays for importing homlab.criteria: the
    # module is registered in sys.modules, but its body runs on first use
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = (
        "import sys, homlab.cli\n"
        "module = sys.modules['homlab.criteria']\n"
        "print('check_indicator' in object.__getattribute__(module, '__dict__'))\n"
        "print(homlab.cli.cr.VIOLATION_TOL, module is sys.modules['homlab.criteria'])\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["False", "1e-07", "True"]
