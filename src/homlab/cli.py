"""Command-line surface: homlab <subcommand> [options].

Subcommands: indicators, counterfactual, decompose, trend, criteria. All
outputs are CSV or JSON with numbers at 12 significant digits, so repeated
runs over the same inputs and configuration are byte-identical. Per-pair
infeasibilities and exclusions are reported inside the outputs; only I/O and
configuration failures exit nonzero.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import sys
from itertools import groupby
from pathlib import Path

import click
import numpy as np

from . import counterfactual as cf
from .decomposition import SCHEMES, cumulate, decade_label, fit_onto
from .errors import DataError
from .indicators import SCALAR_TAGS
from .io import (
    CATEGORY_SCHEMES,
    EXCLUDED,
    NATIONAL,
    RunConfig,
    cut_wave,
    decade_changes,
    format_number,
    income_decade_deltas,
    indicator_rows,
    load_couples,
    load_income,
    load_singles,
    unit_decade_changes,
)
from .tables import homogamy_share
from .trend import score


def _lazy(name: str):
    """The module ``name``, registered in ``sys.modules`` but run only when
    an attribute is first read (the ``importlib`` lazy-import recipe)."""
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


# Only the criteria subcommand runs this module, so no other one pays for
# its import; bench/tracer.py still finds it in sys.modules.
cr = _lazy("homlab.criteria")


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_number(float(value))
    return str(value)


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name, "")) for name in fieldnames])


def _write_json(path: Path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_fmt)
        fh.write("\n")


def _config_from(ctx_params) -> RunConfig:
    config = (
        RunConfig.from_file(ctx_params["config"])
        if ctx_params.get("config")
        else RunConfig()
    )
    return config.with_overrides(
        method=ctx_params.get("method"),
        measure=ctx_params.get("measure"),
        categories=ctx_params.get("categories"),
        rounding=ctx_params.get("rounding"),
        scheme=ctx_params.get("scheme"),
        seed=ctx_params.get("seed"),
        sample_count=ctx_params.get("samples"),
    )


def _panel_from(ctx_params, config: RunConfig):
    panel = load_couples(ctx_params["couples"], config)
    if ctx_params.get("income"):
        panel.income = load_income(ctx_params["income"])
    if ctx_params.get("singles"):
        panel.singles = load_singles(ctx_params["singles"], config)
    return panel


def _common_options(fn):
    options = [
        click.option("--config", type=click.Path(exists=True), default=None,
                     help="JSON run configuration; flags override file values."),
        click.option("--out", type=click.Path(file_okay=False), default=".",
                     help="Output directory (created if missing)."),
        click.option("--method",
                     type=click.Choice(cf.METHOD_TAGS),
                     default=None),
        click.option("--measure", default=None,
                     help="Trend measure: an indicator tag "
                          f"({', '.join(SCALAR_TAGS)}) or a method tag; "
                          "defaults to the configured method."),
        click.option("--categories", type=click.Choice(CATEGORY_SCHEMES),
                     default=None),
        click.option("--rounding", type=click.Choice(["paper", "continuous"]),
                     default=None),
        click.option("--scheme", type=click.Choice(("auto", *SCHEMES)),
                     default=None),
        click.option("--seed", type=int, default=None),
        click.option("--samples", type=int, default=None,
                     help="Sample count for the criteria checkers."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _data_options(fn):
    options = [
        click.option("--couples", type=click.Path(exists=True), required=True,
                     help="Couples CSV: year,state,husband_edu,wife_edu,count."),
        click.option("--income", type=click.Path(exists=True), default=None,
                     help="Income CSV: state,year,top10_share."),
        click.option("--singles", type=click.Path(exists=True), default=None,
                     help="Singles CSV: year,state,sex,edu,count (needed for "
                          "the surplus-based method)."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


@click.group()
def main():
    """Educational homophily toolkit: indicators, counterfactual tables,
    analytical criteria checks, decomposition and trend scoring."""


@main.command()
@_common_options
@_data_options
def indicators(**params):
    """Per-(state, wave) indicator values on the configured divide."""
    config = _config_from(params)
    panel = _panel_from(params, config)
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    rows = indicator_rows(panel, config)
    names = ["state", "year", "share"]
    extra = sorted({k for row in rows for k in row} - set(names))
    _write_csv(out / "indicators.csv", names + extra, rows)
    click.echo(f"wrote {out / 'indicators.csv'} ({len(rows)} rows)")


@main.command()
@_common_options
@_data_options
@click.option("--state", default="US", show_default=True)
@click.option("--early-year", type=int, required=True)
@click.option("--late-year", type=int, required=True)
def counterfactual(**params):
    """Fit the late table onto the early marginals; emit table and diagnostics."""
    config = _config_from(params)
    panel = _panel_from(params, config)
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    state = params["state"]
    method = config.method.lower()
    years = (params["early_year"], params["late_year"])
    tables = [panel.unit_table(state, year) for year in years]
    for year, table in zip(years, tables):
        if table is None:
            raise DataError(f"no table for ({state}, {year})")
    payload = {
        "method": config.method.upper(),
        "state": state,
        "early_year": params["early_year"],
        "late_year": params["late_year"],
    }
    try:
        early, late = (
            cut_wave(panel, config, state, year, table, method)
            for year, table in zip(years, tables)
        )
        result = fit_onto(
            late, early, method, config.rounding, config.tol, config.max_iter
        )
    except EXCLUDED as exc:
        # a pair that decompose would exclude is a result, not a crash
        payload.update(
            feasible=False,
            error={"type": type(exc).__name__, "detail": str(exc)},
        )
    else:
        payload.update(
            method=result.method,
            row_labels=list(result.table.row_labels),
            col_labels=list(result.table.col_labels),
            counts=[[float(x) for x in row] for row in result.table.counts],
            iterations=result.iterations,
            max_marginal_error=result.max_marginal_error,
            feasible=result.feasible,
            diagnostics=dict(result.diagnostics),
        )
    _write_json(out / "counterfactual.json", payload)
    click.echo(f"wrote {out / 'counterfactual.json'}")


@main.command()
@_common_options
@_data_options
def decompose(**params):
    """Per-(state, decade) decomposition of the homogamy change."""
    config = _config_from(params)
    if config.resolved_measure not in cf.METHOD_TAGS:
        raise click.UsageError("decompose needs a method measure (use --method)")
    panel = _panel_from(params, config)
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    changes, details = decade_changes(panel, config)
    rows = []
    for change in changes:
        row = {
            "state": change.state,
            "decade": change.decade,
            "method": config.resolved_measure,
            "scheme": config.resolved_scheme,
            "status": "ok" if change.valid else f"excluded: {change.reason}",
        }
        detail = details.get((change.state, change.decade))
        if detail is not None:
            row.update(
                share_early=detail.share_early,
                share_late=detail.share_late,
                share_counterfactual=detail.share_counterfactual,
                nonstructural=detail.nonstructural_effect,
                structural=detail.structural_effect,
                interaction=(
                    "" if detail.interaction_effect is None
                    else detail.interaction_effect
                ),
            )
        rows.append(row)
    _write_csv(
        out / "decomposition.csv",
        ["state", "decade", "method", "scheme", "share_early", "share_late",
         "share_counterfactual", "nonstructural", "structural", "interaction",
         "status"],
        rows,
    )
    click.echo(f"wrote {out / 'decomposition.csv'} ({len(rows)} rows)")


@main.command()
@_common_options
@_data_options
def trend(**params):
    """Decade-state trend statistics plus plot-ready cumulative series."""
    config = _config_from(params)
    panel = _panel_from(params, config)
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)

    changes, _ = decade_changes(panel, config)
    income_deltas = income_decade_deltas(panel.income, config.waves)
    stats = score(changes, income_deltas, config.split_state)
    payload = {
        "measure": config.resolved_measure,
        "categories": config.categories,
        "scheme": config.resolved_scheme,
        "n_u": stats.n_u,
        "n_s": stats.n_s,
        "n_alpha": stats.n_alpha,
        "n_omega": stats.n_omega,
        "N": stats.n_total,
        "N_alpha": stats.n_alpha_total,
        "N_omega": stats.n_omega_total,
        "n_u_over_N": stats.u_share,
        "n_s_over_N": stats.income_share,
        "n_alpha_over_N_alpha": stats.alpha_share,
        "n_omega_over_N_omega": stats.omega_share,
        "excluded_pairs": sorted(
            f"{c.state}/{c.decade}: {c.reason}" for c in changes if not c.valid
        ),
    }
    _write_json(out / "trend_stats.json", payload)

    series_rows = []
    if config.resolved_measure in cf.METHOD_TAGS:
        national, _ = unit_decade_changes(panel, config, NATIONAL)
        for unit, unit_changes in groupby(national + changes, lambda c: c.state):
            tables = {year: panel.unit_table(unit, year) for year in config.waves}
            present = [year for year, table in tables.items() if table is not None]
            if len(present) < 2:
                continue
            try:
                anchor = homogamy_share(
                    cut_wave(panel, config, unit, present[0], tables[present[0]])
                )
            except EXCLUDED:
                anchor = None  # an uncut unit's series is all gaps
            series = cumulate(
                config.waves, present[0], anchor,
                {c.decade: c.delta if c.valid else None for c in unit_changes},
            )
            for year in config.waves:
                series_rows.append({
                    "state": unit,
                    "year": year,
                    "cumulative": series.cumulative[year],
                    "effect": series.effects.get(decade_label(year), ""),
                })
    else:
        for row in indicator_rows(panel, config):
            value = row.get(config.resolved_measure, "")
            series_rows.append({
                "state": row["state"],
                "year": row["year"],
                "cumulative": value,
                "effect": "",
            })
    _write_csv(
        out / "trend_series.csv",
        ["state", "year", "cumulative", "effect"],
        series_rows,
    )
    click.echo(f"wrote {out / 'trend_stats.json'} and {out / 'trend_series.csv'}")


@main.command()
@_common_options
def criteria(**params):
    """Run every analytical criterion checker; emit matrices and witnesses."""
    config = _config_from(params)
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)

    ind_matrix = cr.indicator_matrix(config.sample_count, config.seed)
    meth_matrix = cr.method_matrix(config.sample_count, config.seed)

    ind_rows = []
    for criterion in cr.INDICATOR_CRITERIA:
        row = {"criterion": criterion}
        for tag in cr.INDICATOR_TAGS:
            row[tag] = cr.VERDICT_CODES[ind_matrix[(criterion, tag)].verdict]
        ind_rows.append(row)
    _write_csv(
        out / "criteria_indicators.csv",
        ["criterion", *cr.INDICATOR_TAGS],
        ind_rows,
    )

    meth_rows = []
    for criterion in cr.METHOD_CRITERIA:
        row = {"criterion": criterion}
        for tag in cr.METHOD_TAGS:
            row[tag] = cr.VERDICT_CODES[meth_matrix[(criterion, tag)].verdict]
        meth_rows.append(row)
    _write_csv(
        out / "criteria_methods.csv",
        ["criterion", *cr.METHOD_TAGS],
        meth_rows,
    )

    witnesses = {}
    for (criterion, tag), report in {**ind_matrix, **meth_matrix}.items():
        if report.witness is not None or report.notes:
            witnesses[f"{criterion}|{tag}"] = {
                "verdict": report.verdict,
                "sample_size": report.sample_size,
                "notes": report.notes,
                "witness": report.witness,
            }
    _write_json(out / "criteria_witnesses.json", witnesses)
    click.echo(
        f"wrote {out / 'criteria_indicators.csv'}, "
        f"{out / 'criteria_methods.csv'} and {out / 'criteria_witnesses.json'}"
    )


if __name__ == "__main__":
    main()
