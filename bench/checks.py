"""Output checks. Each returns a list of problems; an empty list passes.

A job whose outputs raise any problem counts as failed, next to jobs that
exit nonzero or raise. Pairs that the pipeline excludes with a reason are
results, not problems.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

ADDITIVITY_TOL = 1e-9
MARGIN_TOL = 1e-6
DECOMPOSITION_HEADER = [
    "state", "decade", "method", "scheme", "share_early", "share_late",
    "share_counterfactual", "nonstructural", "structural", "interaction",
    "status",
]
CUTS = {"three": None, "college": [(0, 1), (2,)], "hs": [(0,), (1, 2)]}
VERDICTS = {"Y", "N", "NA", "NT"}
COUNTEREXAMPLE = "counterexample-found"


def _read_csv(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def merge(vector: np.ndarray, categories: str) -> np.ndarray:
    """Collapse a three-level marginal vector to the given divide."""
    parts = CUTS[categories]
    if parts is None:
        return vector
    return np.array([vector[list(p)].sum() for p in parts])


def decomposition(path: Path, units: list[str], decades: list[str],
                  missing: set[tuple[str, str]]) -> list[str]:
    """One row per (state, decade); ``ok`` rows add up to the share change.

    ``missing`` holds the pairs with an absent endpoint wave, which must be
    reported as such.
    """
    header, rows = _read_csv(path)
    if header != DECOMPOSITION_HEADER:
        return [f"{path.name}: header {header}"]
    problems = []
    seen: dict[tuple[str, str], dict] = {}
    for row in rows:
        key = (row["state"], row["decade"])
        if key in seen:
            problems.append(f"{path.name}: duplicate row {key}")
        seen[key] = row
    expected = {(unit, decade) for unit in units for decade in decades}
    for key in sorted(expected - set(seen)):
        problems.append(f"{path.name}: no row for {key}")
    for key in sorted(set(seen) - expected):
        problems.append(f"{path.name}: unexpected row {key}")
    for key, row in sorted(seen.items()):
        status = row["status"]
        if key in missing and status != "excluded: missing wave":
            problems.append(f"{path.name}: {key} lacks a wave but has {status!r}")
        if status == "ok":
            try:
                early, late, ns, st = (float(row[k]) for k in (
                    "share_early", "share_late", "nonstructural", "structural"))
                interaction = float(row["interaction"] or 0.0)
            except ValueError:
                problems.append(f"{path.name}: {key} has a non-numeric value")
                continue
            gap = abs(ns + st + interaction - (late - early))
            if not gap <= ADDITIVITY_TOL:
                problems.append(f"{path.name}: {key} breaks additivity by {gap:.3g}")
        elif not status.startswith("excluded: "):
            problems.append(f"{path.name}: {key} has status {status!r}")
    return problems


def ok_rows(path: Path) -> int:
    return sum(row["status"] == "ok" for row in _read_csv(path)[1])


def trend(out: Path, n_pairs: int) -> list[str]:
    """Counts in ``trend_stats.json`` are consistent with each other; the
    series has one row per (unit, year)."""
    stats = json.loads((out / "trend_stats.json").read_text(encoding="utf-8"))
    problems = []
    if stats["N"] + len(stats["excluded_pairs"]) != n_pairs:
        problems.append(
            f"trend_stats.json: N={stats['N']} plus "
            f"{len(stats['excluded_pairs'])} excluded is not {n_pairs} pairs")
    if stats["N_alpha"] + stats["N_omega"] != stats["N"]:
        problems.append("trend_stats.json: N_alpha + N_omega != N")
    if not 0 <= stats["n_u"] <= stats["N"]:
        problems.append("trend_stats.json: n_u outside [0, N]")
    header, rows = _read_csv(out / "trend_series.csv")
    if header != ["state", "year", "cumulative", "effect"]:
        problems.append(f"trend_series.csv: header {header}")
    keys = [(row["state"], row["year"]) for row in rows]
    if len(set(keys)) != len(keys):
        problems.append("trend_series.csv: duplicate (state, year) rows")
    return problems


def series_units(out: Path) -> tuple[int, int]:
    """Rows and distinct units of ``trend_series.csv``."""
    rows = _read_csv(out / "trend_series.csv")[1]
    return len(rows), len({row["state"] for row in rows})


def indicators(path: Path, keys: set[tuple[str, str]], categories: str) -> list[str]:
    """One row per (unit, wave) present, with a share in (0, 1]."""
    header, rows = _read_csv(path)
    problems = []
    got = [(row["state"], row["year"]) for row in rows]
    if len(got) != len(set(got)) or set(got) != keys:
        problems.append(f"{path.name}: rows do not match the (unit, wave) pairs present")
    wanted = (["gll_1_1", "gll_1_2", "gll_2_1", "gll_2_2"] if categories == "three"
              else ["or", "det", "cov", "corr", "reg", "msp", "v", "ll"])
    if not set(wanted) <= set(header):
        problems.append(f"{path.name}: header {header} lacks {wanted}")
    for row in rows:
        if not 0.0 < float(row["share"]) <= 1.0:
            problems.append(f"{path.name}: share {row['share']} out of range")
            break
    return problems


def counterfactual(path: Path, method: str, rows: np.ndarray,
                   cols: np.ndarray) -> list[str]:
    """A feasible fit lands on the early margins ``rows`` and ``cols``. For
    the surplus-based method these are populations: the fitted couples plus
    the fitted singles must add up to them."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload["method"].lower() != method:
        return [f"{path.name}: method {payload['method']}"]
    if not payload["feasible"]:
        return [] if "error" in payload else [f"{path.name}: infeasible without a reason"]
    counts = np.array(payload["counts"], dtype=float)
    got_rows, got_cols = counts.sum(axis=1), counts.sum(axis=0)
    if method == "csa":
        got_rows = got_rows + payload["diagnostics"]["single_men"]
        got_cols = got_cols + payload["diagnostics"]["single_women"]
    gap = max(np.abs(got_rows - rows).max(), np.abs(got_cols - cols).max())
    if not gap <= MARGIN_TOL * max(float(rows.sum()), 1.0):
        return [f"{path.name}: fitted margins miss the target by {gap:.3g}"]
    return []


def criteria(out: Path, golden_dir: Path, seed: int) -> list[str]:
    """The verdict matrices have the golden layout and agree with the
    witnesses; at seed 0 they equal the golden files byte for byte.

    The not-applicable and not-automated cells do not depend on the seed,
    so every seed must reproduce them where the golden files have them.
    """
    problems = []
    n_cells = set()
    for name in ("criteria_indicators", "criteria_methods"):
        path = out / f"{name}.csv"
        golden = golden_dir / f"{name}_golden.csv"
        if seed == 0 and path.read_bytes() != golden.read_bytes():
            problems.append(f"{path.name}: differs from {golden.name} at seed 0")
        header, rows = _read_csv(path)
        want_header, want_rows = _read_csv(golden)
        if header != want_header or [r["criterion"] for r in rows] != [
                r["criterion"] for r in want_rows]:
            problems.append(f"{path.name}: layout differs from {golden.name}")
            continue
        for row, want in zip(rows, want_rows):
            for tag in header[1:]:
                cell = (row["criterion"], tag)
                if row[tag] not in VERDICTS:
                    problems.append(f"{path.name}: {cell} has verdict {row[tag]!r}")
                elif (row[tag] in ("NA", "NT")) != (want[tag] in ("NA", "NT")):
                    problems.append(
                        f"{path.name}: {cell} is {row[tag]}, golden {want[tag]}")
                if row[tag] == "N":
                    n_cells.add(f"{cell[0]}|{tag}")
    witnesses = json.loads(
        (out / "criteria_witnesses.json").read_text(encoding="utf-8"))
    counterexamples = {
        key for key, entry in witnesses.items()
        if entry["verdict"] == COUNTEREXAMPLE and entry["witness"] is not None
    }
    if counterexamples != n_cells:
        problems.append(
            "criteria matrices and witnesses disagree on the N cells: "
            f"{sorted(counterexamples ^ n_cells)}")
    return problems


def replays(result: dict, witness_path: Path) -> list[str]:
    """Every counterexample witness replays to a violation above tolerance."""
    witnesses = json.loads(witness_path.read_text(encoding="utf-8"))
    wanted = {k for k, e in witnesses.items() if e["verdict"] == COUNTEREXAMPLE}
    got = result.get("replays", {})
    problems = [f"witness {k} was not replayed" for k in sorted(wanted - set(got))]
    for key, violation in sorted(got.items()):
        if not violation > result["tolerance"]:
            problems.append(f"witness {key} replays to {violation!r}")
    return problems
