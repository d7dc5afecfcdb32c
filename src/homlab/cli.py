"""Command-line surface: homlab <subcommand> [options].

Subcommands: indicators, counterfactual, decompose, trend, criteria; each
takes only the flags it reads, so an unread flag is a usage error. CSV
numbers have 12 significant digits and JSON floats their full ``repr``, so
repeated runs on the same inputs and configuration are byte-identical;
``criteria`` runs its cells across the CPUs the process may use (``taskset``
limits them) and writes the same bytes whatever their number. A pair's
``HomlabError`` is reported inside the outputs; only input (exit 1) and
configuration failures (exit 2, an unknown method or measure tag included)
exit nonzero, each with one line.
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
from .errors import DataError, HomlabError
from .indicators import SCALAR_TAGS
from .io import (
    CATEGORY_SCHEMES,
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
    if type(value) is float:  # the common cells first
        return format_number(value)
    if type(value) is str or value is None:
        return value or ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_number(float(value))
    return str(value)


def _write_csv(path: Path, columns: dict[str, list]):
    """The columns, by header name, formatted one at a time, then written
    row by row in one call."""
    cells = [list(map(_fmt, column)) for column in columns.values()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells))


def _write_json(path: Path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_fmt)
        fh.write("\n")


def _config_from(ctx_params) -> RunConfig:
    """The run configuration; a bad value is a usage error (exit code 2).
    Flags override file values, and a ``--method`` without ``--measure``
    makes that method the measure, over the file's."""
    method, measure = ctx_params.get("method"), ctx_params.get("measure")
    try:
        path = ctx_params.get("config")
        config = RunConfig.from_file(path) if path else RunConfig()
        return config.with_overrides(
            method=method,
            measure="" if method is not None and measure is None else measure,
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


# Every flag of the CLI; each subcommand takes ``--config``, ``--out`` and the
# flags it reads (``_options``). A config file may carry any RunConfig field.
_OPTIONS = {
    "config": click.option("--config", type=click.Path(exists=True),
                           help="JSON run configuration; flags override file values."),
    "out": click.option("--out", type=click.Path(file_okay=False), default=".",
                        help="Output directory (created if missing)."),
    "method": click.option("--method", type=click.Choice(cf.METHOD_TAGS)),
    "measure": click.option("--measure", help=(
        f"Trend measure: an indicator tag ({', '.join(SCALAR_TAGS)}) or a "
        "method tag; defaults to the configured method.")),
    "categories": click.option("--categories", type=click.Choice(CATEGORY_SCHEMES)),
    "rounding": click.option("--rounding", type=click.Choice(["paper", "continuous"])),
    "scheme": click.option("--scheme", type=click.Choice(("auto", *SCHEMES))),
    "seed": click.option("--seed", type=int),
    "samples": click.option("--samples", type=int, help="Sample count for the criteria checkers."),
    "couples": click.option("--couples", type=click.Path(exists=True), required=True,
                            help="Couples CSV: year,state,husband_edu,wife_edu,count."),
    "income": click.option("--income", type=click.Path(exists=True), help=(
        "Income CSV: state,year,top10_share (read by trend; checked wherever given).")),
    "singles": click.option("--singles", type=click.Path(exists=True), help=(
        "Singles CSV: year,state,sex,edu,count (read by decompose, trend and "
        "counterfactual for the surplus-based method, csa; checked wherever given).")),
}
_DATA = ("couples", "income", "singles")  # one set of inputs for each data subcommand


def _options(*names):
    """Attach ``--config``, ``--out`` and the named ``_OPTIONS``, in order."""
    def attach(fn):
        for name in reversed(("config", "out", *names)):
            fn = _OPTIONS[name](fn)
        return fn
    return attach


@click.group()
def main():
    """Educational homophily toolkit: indicators, counterfactual tables,
    analytical criteria checks, decomposition and trend scoring."""


@main.command()
@_options("categories", "rounding", *_DATA)
def indicators(**params):
    """Per-(state, wave) indicator values on the configured divide."""
    config = _config_from(params)
    panel = _panel_from(params, config)
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    columns = indicator_rows(panel, config)
    _write_csv(out / "indicators.csv", columns)
    click.echo(f"wrote {out / 'indicators.csv'} ({len(columns['state'])} rows)")


@main.command()
@_options("method", "categories", "rounding", *_DATA)
@click.option("--state", default="US", show_default=True)
@click.option("--early-year", type=int, required=True)
@click.option("--late-year", type=int, required=True)
def counterfactual(**params):
    """Fit the late table onto the early marginals; emit table and diagnostics.

    Both waves come from the run's one cut of ``--state``, with their singles
    for ``csa``, and the late one is fitted as a ``fit_stack`` of one, which
    reports what ``fit`` returns or raises; a wave that the cut excludes is
    reported like a failed fit.
    """
    config = _config_from(params)
    panel = _panel_from(params, config)
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    state = params["state"]
    method = config.method
    years = (params["early_year"], params["late_year"])
    cut = _cut_run(panel, config, (state,), method)
    for year in years:
        if year not in cut.rows[state]:
            raise click.ClickException(f"no table for ({state}, {year})")
    early, late = (cut.rows[state][year] for year in years)
    payload = {
        "method": cf._METHODS[method][0],  # the name a fitted result reports too
        "state": state,
        "early_year": params["early_year"],
        "late_year": params["late_year"],
    }
    try:
        for row in (early, late):
            if cut.errors[row] is not None:
                raise cut.errors[row]
        target = cut.counts[[early]]
        singles = [cut.singles and tuple(pool[[row]] for pool in cut.singles)
                   for row in (late, early)]
        fits = cf.fit_stack(method, cut.counts[[late]], target.sum(axis=2), target.sum(axis=1),
                            config.rounding, config.tol, config.max_iter, *singles)
        counts = cf._single(fits)
    except HomlabError as exc:  # a result, as in decompose; any other error is a bug
        payload.update(
            feasible=False,
            error={"type": type(exc).__name__, "detail": str(exc)},
        )
    else:
        payload.update(
            row_labels=list(cut.labels),
            col_labels=list(cut.labels),
            counts=counts.tolist(),
            feasible=True,  # a fit that fails raises
            **cf._outcome(method, fits, tol=config.tol, rounding=config.rounding),
        )
    _write_json(out / "counterfactual.json", payload)
    click.echo(f"wrote {out / 'counterfactual.json'}")


@main.command()
@_options("method", "measure", "categories", "rounding", "scheme", *_DATA)
def decompose(**params):
    """Per-(state, decade) decomposition of the homogamy change."""
    config = _config_from(params)
    if config.resolved_measure not in cf.METHOD_TAGS:
        raise click.UsageError("decompose needs a method measure (use --method)")
    panel = _panel_from(params, config)
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    changes, values = decade_changes(panel, config)
    size = len(changes)
    _write_csv(out / "decomposition.csv", {
        "state": [change.state for change in changes],
        "decade": [change.decade for change in changes],
        "method": [config.resolved_measure] * size,
        "scheme": [config.resolved_scheme] * size,
        **values,
        "status": ["ok" if change.valid else f"excluded: {change.reason}" for change in changes],
    })
    click.echo(f"wrote {out / 'decomposition.csv'} ({size} rows)")


@main.command()
@_options("method", "measure", "categories", "rounding", "scheme", *_DATA)
def trend(**params):
    """Decade-state trend statistics plus plot-ready cumulative series."""
    config = _config_from(params)
    panel = _panel_from(params, config)
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)

    changes, series = trend_series(panel, config)
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

    _write_csv(out / "trend_series.csv", series)
    click.echo(f"wrote {out / 'trend_stats.json'} and {out / 'trend_series.csv'}")


@main.command()
@_options("seed", "samples")
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
        _write_csv(out / name, {"criterion": criteria_list, **{
            tag: [cr.VERDICT_CODES[matrix[(criterion, tag)].verdict]
                  for criterion in criteria_list] for tag in tags}})

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
