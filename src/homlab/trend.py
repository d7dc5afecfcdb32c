"""Classify decade-by-state changes and score them against benchmark trends.

A decade-state pair is one US state's change across one inter-census decade,
labeled by the starting year ("1960s" is the 1960 to 1970 change). Two
benchmarks are scored: the national U-shaped template (declines through the
1960s-80s, rises in the 1990s-2000s) and the state's own income-inequality
trend, proxied by the change in the top 10 percent income share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

U_SHAPE_SIGNS: Mapping[str, int] = {
    "1960s": -1,
    "1970s": -1,
    "1980s": -1,
    "1990s": 1,
    "2000s": 1,
}

FIRST_HALF_LAST_STATE = "Mississippi"


@dataclass(frozen=True)
class DecadeChange:
    """One state's signed change of the chosen measure over one decade.

    ``valid`` is False when either endpoint wave is missing or the measure is
    undefined or infeasible on it; ``reason`` then says why.
    """

    state: str
    decade: str
    delta: float | None
    valid: bool = True
    reason: str = ""


@dataclass(frozen=True)
class TrendStats:
    """The decade-state pair counts and their quotients.

    ``n_u``: pairs whose change direction matches the U-shaped template.
    ``n_alpha``/``n_omega``: income-trend-consistent pairs in the first and
    second half of the alphabetically ordered states; ``n_s`` is their sum.
    ``n_total`` (with the per-half ``n_alpha_total``/``n_omega_total``)
    counts all valid pairs. A quotient whose denominator is 0 is None.
    """

    n_u: int
    n_s: int
    n_alpha: int
    n_omega: int
    n_total: int
    n_alpha_total: int
    n_omega_total: int

    def __post_init__(self):
        if self.n_s != self.n_alpha + self.n_omega:
            raise ValueError("income-consistent halves must add up")

    @property
    def u_share(self) -> float | None:
        return self.n_u / self.n_total if self.n_total else None

    @property
    def income_share(self) -> float | None:
        return self.n_s / self.n_total if self.n_total else None

    @property
    def alpha_share(self) -> float | None:
        return self.n_alpha / self.n_alpha_total if self.n_alpha_total else None

    @property
    def omega_share(self) -> float | None:
        return self.n_omega / self.n_omega_total if self.n_omega_total else None


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def classify_u_shape(deltas: Mapping[str, float]) -> dict[str, bool]:
    """Flag each decade's change as matching the U-shaped template.

    Declines count for the 1960s, 1970s and 1980s, rises for the 1990s and
    2000s; an exactly zero change is inconsistent either way. Decades outside
    the template are ignored.
    """
    flags = {}
    for decade, delta in deltas.items():
        flag = _u_shape_flag(decade, delta)
        if flag is not None:
            flags[decade] = flag
    return flags


def _u_shape_flag(decade: str, delta: float) -> bool | None:
    """Whether ``delta`` has the template's sign for ``decade``; None for a
    decade outside the template."""
    expected = U_SHAPE_SIGNS.get(decade)
    return None if expected is None else _sign(delta) == expected


def income_consistency(
    changes: Iterable[DecadeChange],
    income_deltas: Mapping[tuple[str, str], float],
) -> dict[tuple[str, str], bool | None]:
    """Match each pair's sign against the state's income-share change.

    Returns None (excluded) for pairs without an income datum; a zero on
    either side is inconsistent.
    """
    flags: dict[tuple[str, str], bool | None] = {}
    for change in changes:
        if not change.valid or change.delta is None:
            continue
        key = (change.state, change.decade)
        income = income_deltas.get(key)
        if income is None:
            flags[key] = None
            continue
        flags[key] = _sign(change.delta) == _sign(income) != 0
    return flags


def in_first_half(state: str, boundary: str = FIRST_HALF_LAST_STATE) -> bool:
    """Alphabetical split; the boundary state closes the first half."""
    return state.casefold() <= boundary.casefold()


def score(
    changes: Iterable[DecadeChange],
    income_deltas: Mapping[tuple[str, str], float] | None = None,
    boundary: str = FIRST_HALF_LAST_STATE,
) -> TrendStats:
    """Aggregate validity, U-shape and income-consistency counts.

    Only valid pairs enter any count. Pairs missing an income datum keep
    their place in the totals but cannot contribute to the income-consistent
    counts. The state split is purely alphabetical against ``boundary``.
    """
    changes = list(changes)
    income_deltas = income_deltas or {}
    income_flags = income_consistency(changes, income_deltas)

    n_u = n_alpha = n_omega = 0
    n_total = n_alpha_total = n_omega_total = 0
    for change in changes:
        if not change.valid or change.delta is None:
            continue
        first_half = in_first_half(change.state, boundary)
        n_total += 1
        if first_half:
            n_alpha_total += 1
        else:
            n_omega_total += 1
        if _u_shape_flag(change.decade, change.delta):
            n_u += 1
        if income_flags.get((change.state, change.decade)):
            if first_half:
                n_alpha += 1
            else:
                n_omega += 1
    return TrendStats(
        n_u=n_u,
        n_s=n_alpha + n_omega,
        n_alpha=n_alpha,
        n_omega=n_omega,
        n_total=n_total,
        n_alpha_total=n_alpha_total,
        n_omega_total=n_omega_total,
    )
