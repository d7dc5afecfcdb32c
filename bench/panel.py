"""Seeded synthetic census panel in the README's input schemas.

``generate(seed)`` draws 51 states x 6 decennial waves of 3x3 couples tables
(about 2,000 couples each) with income shares and singles counts;
``write_panel`` writes them as ``couples.csv``, ``income.csv`` and
``singles.csv``. The same seed gives the same bytes. Every panel
also carries the irregular cases the pipeline must report rather than crash
on, so the exclusion and gap paths run on every pass:

* ``UNKNOWN``-state records in every wave (ignored by default);
* a few missing state-waves (their decades become ``missing wave`` rows and
  gaps in the cumulative series);
* a few decades whose late table sorts strongly negatively while the early
  margins are skewed, so the LL-preserving fit cannot carry the late sorting
  onto the early margins (an impossible counterfactual).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

STATES = (
    "Alabama", "Alaska", "Arizona", "Arkansas", "California", "Colorado",
    "Connecticut", "Delaware", "District of Columbia", "Florida", "Georgia",
    "Hawaii", "Idaho", "Illinois", "Indiana", "Iowa", "Kansas", "Kentucky",
    "Louisiana", "Maine", "Maryland", "Massachusetts", "Michigan",
    "Minnesota", "Mississippi", "Missouri", "Montana", "Nebraska", "Nevada",
    "New Hampshire", "New Jersey", "New Mexico", "New York",
    "North Carolina", "North Dakota", "Ohio", "Oklahoma", "Oregon",
    "Pennsylvania", "Rhode Island", "South Carolina", "South Dakota",
    "Tennessee", "Texas", "Utah", "Vermont", "Virginia", "Washington",
    "West Virginia", "Wisconsin", "Wyoming",
)
WAVES = (1960, 1970, 1980, 1990, 2000, 2010)
LABELS = ("no_high_school", "high_school", "college")
UNKNOWN = "UNKNOWN"
MISSING_WAVES = 3
INFEASIBLE_DECADES = 3
COUPLES_PER_TABLE = 2000


def _shares(rng, t: float, college_shift: float) -> np.ndarray:
    """Education distribution at time t in [0, 1]: no high school shrinks,
    college grows."""
    low = 0.55 - 0.42 * t + rng.normal(0.0, 0.02)
    high = 0.08 + 0.27 * t + college_shift + rng.normal(0.0, 0.01)
    low, high = float(np.clip(low, 0.08, 0.7)), float(np.clip(high, 0.05, 0.5))
    return np.array([low, 1.0 - low - high, high])


def _assortative(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """North-west-corner matching from the top category down (PAM).

    Written here rather than imported from homlab, so the inputs do not
    change when the program under test does.
    """
    rows, cols = rows.copy(), cols.copy()
    out = np.zeros((3, 3))
    i = j = 2
    while i >= 0 and j >= 0:
        take = min(rows[i], cols[j])
        out[i, j] = take
        rows[i] -= take
        cols[j] -= take
        if rows[i] <= 1e-15:
            i -= 1
        if cols[j] <= 1e-15:
            j -= 1
    return out


def _cell_probabilities(men, women, sorting: float) -> np.ndarray:
    """Random matching blended with assortative matching, plus a 2% floor
    so no cell is structurally empty."""
    p = (1.0 - sorting) * np.outer(men, women) + sorting * _assortative(men, women)
    p = 0.98 * p + 0.02 / 9.0
    return p / p.sum()


def _infeasible_pair(rng) -> tuple[np.ndarray, np.ndarray]:
    """Early/late probabilities: skewed early margins, late table sorting
    negatively (husbands without high school mostly marry college women)."""
    early_men = np.array([0.05, 0.10, 0.85])
    early_women = np.array([0.05, 0.10, 0.85])
    early = _cell_probabilities(early_men, early_women, 0.5)
    late = np.array([
        [0.02, 0.03, 0.30],
        [0.03, 0.20, 0.07],
        [0.25, 0.08, 0.02],
    ])
    late = late * rng.uniform(0.9, 1.1, size=(3, 3))
    return early, late / late.sum()


def generate(seed: int):
    """Return ``(couples, income, singles)`` dicts keyed by (state, year)."""
    rng = np.random.default_rng(seed)
    couples: dict[tuple[str, int], np.ndarray] = {}
    income: dict[tuple[str, int], float] = {}
    singles: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
    n_waves = len(WAVES)
    decades = [(s, w) for s in STATES for w in range(n_waves - 1)]
    picks = rng.choice(len(decades), size=INFEASIBLE_DECADES, replace=False)
    infeasible = {decades[int(i)] for i in picks}
    for state in STATES:
        college_shift = rng.normal(0.0, 0.03)
        base_sorting = rng.uniform(0.35, 0.55)
        base_income = rng.uniform(0.28, 0.36)
        probabilities = []
        for w in range(n_waves):
            t = w / (n_waves - 1)
            men = _shares(rng, t, college_shift)
            women = _shares(rng, t, college_shift + 0.02)
            # U-shaped sorting over the decades
            sorting = base_sorting + 0.35 * (t - 0.5) ** 2 + rng.normal(0.0, 0.03)
            probabilities.append(_cell_probabilities(men, women, sorting))
        for w in range(n_waves - 1):
            if (state, w) in infeasible:
                probabilities[w], probabilities[w + 1] = _infeasible_pair(rng)
        for w, year in enumerate(WAVES):
            t = w / (n_waves - 1)
            size = int(rng.poisson(COUPLES_PER_TABLE))
            counts = rng.multinomial(size, probabilities[w].ravel()).reshape(3, 3)
            couples[(state, year)] = counts
            share = base_income - 0.06 * t + 0.22 * t * t + rng.normal(0.0, 0.01)
            income[(state, year)] = round(float(np.clip(share, 0.05, 0.95)), 4)
            singles[(state, year)] = (
                rng.poisson(0.15 * counts.sum(axis=1) + 5),
                rng.poisson(0.15 * counts.sum(axis=0) + 5),
            )
    present = [
        (s, WAVES[w]) for s in STATES for w in range(n_waves)
        if not any((s, d) in infeasible for d in (w - 1, w))
    ]
    for i in rng.choice(len(present), size=MISSING_WAVES, replace=False):
        key = present[int(i)]
        del couples[key], income[key], singles[key]
    for year in WAVES:
        counts = rng.multinomial(300, _cell_probabilities(
            np.full(3, 1 / 3), np.full(3, 1 / 3), 0.4).ravel()).reshape(3, 3)
        couples[(UNKNOWN, year)] = counts
        singles[(UNKNOWN, year)] = (rng.poisson(np.full(3, 20)), rng.poisson(np.full(3, 20)))
    return couples, income, singles


def write_panel(directory: str | Path, data) -> dict[str, Path]:
    """Write the three input CSVs of ``generate``'s ``data`` into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    couples, income, singles = data
    paths = {
        "couples": directory / "couples.csv",
        "income": directory / "income.csv",
        "singles": directory / "singles.csv",
    }
    with open(paths["couples"], "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["year", "state", "husband_edu", "wife_edu", "count"])
        for state, year in sorted(couples, key=lambda k: (k[1], k[0])):
            counts = couples[(state, year)]
            for i, husband in enumerate(LABELS):
                for j, wife in enumerate(LABELS):
                    out.writerow([year, state, husband, wife, int(counts[i, j])])
    with open(paths["income"], "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["state", "year", "top10_share"])
        for state, year in sorted(income):
            out.writerow([state, year, f"{income[(state, year)]:.4f}"])
    with open(paths["singles"], "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["year", "state", "sex", "edu", "count"])
        for state, year in sorted(singles, key=lambda k: (k[1], k[0])):
            for sex, pool in zip(("m", "w"), singles[(state, year)]):
                for edu, count in zip(LABELS, pool):
                    out.writerow([year, state, sex, edu, int(count)])
    return paths
