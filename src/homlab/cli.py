"""Command-line surface: homlab <subcommand> [options].

Subcommands: indicators, counterfactual, decompose, trend, criteria. CSV
numbers have 12 significant digits and JSON floats their full ``repr``, so
repeated runs on the same inputs and configuration are byte-identical;
``criteria`` runs its cells across the CPUs the process may use (``taskset``
limits them) and writes the same bytes whatever their number. Per-pair
infeasibilities and exclusions are reported inside the outputs; only I/O and
configuration failures exit nonzero.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import os
import sys
from pathlib import Path

# Set before numpy loads: OpenBLAS would otherwise start one thread per core,
# which the CLI's small tables never use but every start pays for. An
# explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click
import numpy as np

from . import counterfactual as cf
from .decomposition import SCHEMES
from .errors import DataError
from .indicators import SCALAR_TAGS
from .io import (
    CATEGORY_SCHEMES,
    EXCLUDED,
    RunConfig,
    _cut_run,
    decade_changes,
    format_number,
    income_decade_deltas,
    indicator_rows,
    load_couples,
    load_income,
    load_singles,
    trend_series,
)
from .tables import ContingencyTable, TableWithSingles, marginals
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
    """The run configuration; a bad value is a usage error (exit code 2)."""
    try:
        path = ctx_params.get("config")
        config = RunConfig.from_file(path) if path else RunConfig()
        return config.with_overrides(
            method=ctx_params.get("method"),
            measure=ctx_params.get("measure"),
            categories=ctx_params.get("categories"),
            rounding=ctx_params.get("rounding"),
            scheme=ctx_params.get("scheme"),
            seed=ctx_params.get("seed"),
            sample_count=ctx_params.get("samples"),
        )
    except DataError as exc:
        raise click.UsageError(str(exc)) from exc


def _panel_from(ctx_params, config: RunConfig):
    """The loaded inputs; a bad input file is a one-line error (exit code 1)."""
    try:
        panel = load_couples(ctx_params["couples"], config)
        if ctx_params.get("income"):
            panel.income = load_income(ctx_params["income"])
        if ctx_params.get("singles"):
            panel.singles = load_singles(ctx_params["singles"], config)
    except DataError as exc:
        raise click.ClickException(str(exc)) from exc
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
    """Fit the late table onto the early marginals; emit table and diagnostics.

    Both waves come from the run's one cut of ``--state``, with their singles
    for ``csa``; a wave that the cut excludes is reported like a failed fit.
    """
    config = _config_from(params)
    panel = _panel_from(params, config)
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    state = params["state"]
    method = config.method.lower()
    years = (params["early_year"], params["late_year"])
    cut = _cut_run(panel, config, (state,), method)
    for year in years:
        if year not in cut.rows[state]:
            raise click.ClickException(f"no table for ({state}, {year})")
    early, late = (cut.rows[state][year] for year in years)
    payload = {
        "method": config.method.upper(),
        "state": state,
        "early_year": params["early_year"],
        "late_year": params["late_year"],
    }
    try:
        for row in (early, late):
            if cut.errors[row] is not None:
                raise cut.errors[row]
        source, target = (ContingencyTable(cut.counts[row], cut.labels, cut.labels)
                          for row in (late, early))
        if cut.singles is not None:
            source = TableWithSingles(source, *(pool[late] for pool in cut.singles))
        result = cf.fit(
            method, source, marginals(target), config.rounding, config.tol, config.max_iter,
            cut.singles and tuple(pool[early] for pool in cut.singles),
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

    changes, series_rows = trend_series(panel, config)
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

    ind_matrix, meth_matrix = cr.matrices(config.sample_count, config.seed)

    for name, criteria_list, tags, matrix in (
        ("criteria_indicators.csv", cr.INDICATOR_CRITERIA, cr.INDICATOR_TAGS, ind_matrix),
        ("criteria_methods.csv", cr.METHOD_CRITERIA, cr.METHOD_TAGS, meth_matrix),
    ):
        rows = [{"criterion": criterion,
                 **{tag: cr.VERDICT_CODES[matrix[(criterion, tag)].verdict] for tag in tags}}
                for criterion in criteria_list]
        _write_csv(out / name, ["criterion", *tags], rows)

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
