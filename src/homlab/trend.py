"""Classify decade-by-state changes and score them against benchmark trends.

A decade-state pair is one US state's change across one inter-census decade,
labeled by the starting year ("1960s" is the 1960 to 1970 change). Two
benchmarks are scored: the national U-shaped template (declines through the
1960s-80s, rises in the 1990s-2000s) and the state's own income-inequality
trend, proxied by the change in the top 10 percent income share.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
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

    ``delta`` is None when either endpoint wave is missing or the measure is
    undefined or infeasible on it; ``reason`` then says why, and the pair is
    not ``valid``.
    """

    state: str
    decade: str
    delta: float | None
    _: KW_ONLY
    reason: str = ""

    @property
    def valid(self) -> bool:
        return self.delta is not None


@dataclass(frozen=True)
class TrendStats:
    """The decade-state pair counts and their quotients.

    ``n_u``: pairs whose change direction matches the U-shaped template.
    ``n_alpha``/``n_omega``: income-trend-consistent pairs in the first and
    second half of the alphabetically ordered states; ``n_s`` is their sum.
    ``n_alpha_total``/``n_omega_total`` count the valid pairs of each half,
    and ``n_total`` all of them. A quotient whose denominator is 0 is None.
    """

    n_u: int
    n_alpha: int
    n_omega: int
    n_alpha_total: int
    n_omega_total: int

    @property
    def n_s(self) -> int:
        return self.n_alpha + self.n_omega

    @property
    def n_total(self) -> int:
        return self.n_alpha_total + self.n_omega_total

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


def in_first_half(state: str, boundary: str = FIRST_HALF_LAST_STATE) -> bool:
    """Alphabetical split; the boundary state closes the first half."""
    return state.casefold() <= boundary.casefold()


def score(
    changes: Iterable[DecadeChange],
    income_deltas: Mapping[tuple[str, str], float] | None = None,
    boundary: str = FIRST_HALF_LAST_STATE,
) -> TrendStats:
    """Aggregate validity, U-shape and income-consistency counts.

    Only valid pairs enter any count. A valid pair is income-consistent when
    its sign matches the state's income-share change over the decade; a
    zero on either side is inconsistent, and a pair missing an income datum
    keeps its place in the totals but cannot be consistent. The state split
    is purely alphabetical against ``boundary``.
    """
    income_deltas = income_deltas or {}
    n_u, consistent, totals = 0, [0, 0], [0, 0]  # per half: first, second
    for change in changes:
        if change.delta is None:
            continue
        half = 0 if in_first_half(change.state, boundary) else 1
        sign = _sign(change.delta)
        totals[half] += 1
        # a zero change, or a decade outside the template, is not U-shaped
        n_u += sign == U_SHAPE_SIGNS.get(change.decade)
        income = income_deltas.get((change.state, change.decade))
        consistent[half] += income is not None and sign == _sign(income) != 0
    return TrendStats(n_u, *consistent, *totals)
