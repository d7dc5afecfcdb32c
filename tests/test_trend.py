import pytest

from homlab.trend import (
    DecadeChange,
    TrendStats,
    in_first_half,
    income_consistency,
    score,
)


def changes_from(state, deltas):
    decades = ["1960s", "1970s", "1980s", "1990s", "2000s"]
    return [DecadeChange(state, dec, d) for dec, d in zip(decades, deltas)]


def u_count(deltas):
    """``score``'s U-shape count of one state's changes, ``{decade: delta}``."""
    return score([DecadeChange("Ohio", decade, d) for decade, d in deltas.items()]).n_u


def test_classify_u_shape_all_consistent():
    assert u_count(
        {"1960s": -1.0, "1970s": -0.2, "1980s": -0.1, "1990s": 0.3, "2000s": 0.5}
    ) == 5


def test_classify_u_shape_monotone_rise():
    deltas = {"1960s": 0.1, "1970s": 0.1, "1980s": 0.1, "1990s": 0.1, "2000s": 0.1}
    assert [u_count({d: v}) for d, v in deltas.items()] == [0, 0, 0, 1, 1]
    assert u_count(deltas) == 2


def test_classify_u_shape_zero_is_inconsistent():
    assert u_count({"1960s": 0.0}) == 0
    assert u_count({"1970s": -1.0}) == 1


def test_classify_ignores_unknown_decades():
    # a decade outside the template counts in the total, never as U-shaped
    stats = score([DecadeChange("Ohio", "1950s", -1.0), DecadeChange("Ohio", "1950s", 1.0)])
    assert stats.n_u == 0 and stats.n_total == 2


def test_income_consistency_rules():
    changes = changes_from("Ohio", [0.02, -0.02, 0.02, 0.01, -0.01])
    income = {
        ("Ohio", "1960s"): 0.013,
        ("Ohio", "1970s"): 0.013,
        ("Ohio", "1980s"): 0.0,
        ("Ohio", "1990s"): 0.02,
        # 2000s missing
    }
    flags = income_consistency(changes, income)
    assert flags[("Ohio", "1960s")] is True
    assert flags[("Ohio", "1970s")] is False
    assert flags[("Ohio", "1980s")] is False  # zero income change
    assert flags[("Ohio", "1990s")] is True
    assert flags[("Ohio", "2000s")] is None  # excluded


def test_alphabetical_split():
    assert in_first_half("Alabama")
    assert in_first_half("Mississippi")
    assert in_first_half("District of Columbia")
    assert not in_first_half("Missouri")
    assert not in_first_half("Wyoming")


def test_score_saturated_panel():
    changes = changes_from("Alabama", [-1, -1, -1, 1, 1]) + changes_from(
        "Texas", [-1, -1, -1, 1, 1]
    )
    stats = score(changes)
    assert stats.n_u == 10
    assert stats.n_total == 10
    assert stats.n_alpha_total == 5 and stats.n_omega_total == 5
    assert stats.n_s == 0  # no income data provided


def test_score_counts_invalid_pairs_out():
    changes = changes_from("Alabama", [-1, -1, -1, 1, 1])
    changes += [
        DecadeChange("Texas", "1960s", None, False, "missing wave"),
        DecadeChange("Texas", "1970s", None, False, "missing wave"),
        DecadeChange("Texas", "1980s", -0.5),
        DecadeChange("Texas", "1990s", 0.5),
        DecadeChange("Texas", "2000s", 0.5),
    ]
    stats = score(changes)
    assert stats.n_total == 8
    assert stats.n_u == 8


def test_score_income_halves():
    changes = changes_from("Alabama", [-1, -1, -1, 1, 1]) + changes_from(
        "Texas", [1, 1, -1, -1, 1]
    )
    income = {}
    for dec, sign in zip(("1960s", "1970s", "1980s", "1990s", "2000s"),
                         (-1, -1, 1, 1, 1)):
        income[("Alabama", dec)] = 0.01 * sign
        income[("Texas", dec)] = 0.01 * sign
    stats = score(changes, income)
    # Alabama matches on 1960s, 1970s, 1990s, 2000s; Texas on 1980s... none,
    # Texas signs (+,+,-,-,+) vs (-,-,+,+,+): only 2000s matches
    assert stats.n_alpha == 4
    assert stats.n_omega == 1
    assert stats.n_s == 5
    assert stats.u_share == pytest.approx(stats.n_u / 10)


def test_score_is_order_invariant():
    changes = changes_from("Alabama", [-1, 2, -3, 4, -5]) + changes_from(
        "Nevada", [1, -2, 3, -4, 5]
    )
    income = {("Alabama", "1970s"): 0.01, ("Nevada", "1990s"): -0.02}
    forward = score(changes, income)
    backward = score(list(reversed(changes)), income)
    assert forward == backward


def test_trendstats_guards_half_sum():
    with pytest.raises(ValueError):
        TrendStats(1, 3, 1, 1, 5, 3, 2)
