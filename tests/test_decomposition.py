import dataclasses
import itertools

import numpy as np
import pytest

from homlab.decomposition import (
    DECOMPOSITION_COLUMNS,
    SEQUENTIAL,
    WITH_INTERACTION,
    _decompose_columns,
    decompose,
)
from homlab.errors import HomlabError, ShapeError
from homlab.indicators import PAPER_INTEGER
from homlab.io import PanelDataset, RunConfig, trend_series
from homlab.tables import (ContingencyTable, TableWithSingles, couples_of, homogamy_share,
                           marginals)


def table(counts):
    return ContingencyTable(np.array(counts, dtype=float), ("L", "H"), ("L", "H"))


EARLY = table([[40, 10], [20, 30]])
LATE = table([[20, 20], [10, 50]])


def random_pair(rng):
    return (
        table(rng.integers(1, 51, size=(2, 2))),
        table(rng.integers(1, 51, size=(2, 2))),
    )


def test_no_change_means_no_effects():
    for scheme in (SEQUENTIAL, WITH_INTERACTION):
        result = decompose(EARLY, EARLY, "nm", scheme)
        assert result.nonstructural_effect == pytest.approx(0.0, abs=1e-12)
        assert result.structural_effect == pytest.approx(0.0, abs=1e-12)
        if scheme == WITH_INTERACTION:
            assert result.interaction_effect == pytest.approx(0.0, abs=1e-12)


def test_pure_structural_change_under_raking():
    # a later table built by raking the early one carries the same odds
    # ratio, so the raking-based decomposition sees no sorting change
    from homlab.counterfactual import fit

    late = fit("ipf", EARLY, marginals(table([[30, 20], [25, 25]])), tol=1e-13).table
    result = decompose(EARLY, late, "ipf", SEQUENTIAL, tol=1e-13)
    assert result.nonstructural_effect == pytest.approx(0.0, abs=1e-9)
    assert result.structural_effect == pytest.approx(
        homogamy_share(late) - homogamy_share(EARLY), abs=1e-9
    )


def test_nm_example_pair():
    # both generations have share 0.70; the sorting-only counterfactual
    # lands at 61/90 so the two effects offset exactly
    result = decompose(EARLY, LATE, "nm", SEQUENTIAL)
    assert result.share_early == pytest.approx(0.70)
    assert result.share_late == pytest.approx(0.70)
    assert result.share_counterfactual == pytest.approx(61 / 90, abs=1e-12)
    assert result.nonstructural_effect == pytest.approx(61 / 90 - 0.70, abs=1e-12)
    assert result.structural_effect == pytest.approx(0.70 - 61 / 90, abs=1e-12)


def test_labels_must_match():
    other = ContingencyTable(LATE.counts, ("lo", "hi"), ("lo", "hi"))
    with pytest.raises(ShapeError):
        decompose(EARLY, other, "nm")


@pytest.mark.parametrize("method", ["ipf", "mdba", "meda", "nm"])
@pytest.mark.parametrize("scheme", [SEQUENTIAL, WITH_INTERACTION])
def test_additivity(method, scheme):
    from homlab.errors import InfeasibilityError

    rng = np.random.default_rng(13)
    done = 0
    while done < 40:
        early, late = random_pair(rng)
        try:
            result = decompose(early, late, method, scheme, tol=1e-12)
        except InfeasibilityError:
            continue
        delta = result.share_late - result.share_early
        parts = result.nonstructural_effect + result.structural_effect
        if scheme == WITH_INTERACTION:
            parts += result.interaction_effect
            assert result.interaction_effect is not None
        else:
            assert result.interaction_effect is None
        assert parts == pytest.approx(delta, abs=1e-12)
        done += 1


def test_csa_additivity_with_singles():
    from homlab.errors import InfeasibilityError

    rng = np.random.default_rng(19)
    done = 0
    while done < 10:
        early, late = random_pair(rng)
        tws_early = TableWithSingles(early, rng.integers(1, 31, 2), rng.integers(1, 31, 2))
        tws_late = TableWithSingles(late, rng.integers(1, 31, 2), rng.integers(1, 31, 2))
        try:
            result = decompose(tws_early, tws_late, "csa", WITH_INTERACTION)
        except InfeasibilityError:
            continue
        delta = result.share_late - result.share_early
        assert (
            result.nonstructural_effect
            + result.structural_effect
            + result.interaction_effect
        ) == pytest.approx(delta, abs=1e-12)
        done += 1


def test_swapping_generations_negates_sorting_plus_interaction():
    from homlab.errors import InfeasibilityError

    rng = np.random.default_rng(23)
    done = 0
    while done < 25:
        early, late = random_pair(rng)
        try:
            forward = decompose(early, late, "ipf", WITH_INTERACTION, tol=1e-13)
            backward = decompose(late, early, "ipf", WITH_INTERACTION, tol=1e-13)
        except InfeasibilityError:
            continue
        assert backward.nonstructural_effect == pytest.approx(
            -(forward.nonstructural_effect + forward.interaction_effect), abs=1e-9
        )
        done += 1


def test_method_choice_drives_the_sign_on_the_divergence_fixture():
    early = table([[54, 20], [27, 61]])
    late = table([[34, 65], [5, 50]])
    ipf = decompose(early, late, "ipf", SEQUENTIAL)
    nm = decompose(early, late, "nm", SEQUENTIAL)
    assert ipf.nonstructural_effect < -0.01
    assert nm.nonstructural_effect > 0.01


def _stacked(tables):
    """The couples counts of ``tables`` as one stack, and their (single men,
    single women) stacks, or None unless every table carries singles."""
    counts = np.stack([couples_of(t).counts for t in tables])
    if not all(isinstance(t, TableWithSingles) for t in tables):
        return counts, None
    return counts, tuple(np.stack([getattr(t, name) for t in tables])
                         for name in ("single_men", "single_women"))


@pytest.mark.parametrize("method", ["ipf", "mdba", "meda", "csa", "nm"])
@pytest.mark.parametrize("scheme", [SEQUENTIAL, WITH_INTERACTION])
def test_decompose_stack_is_decompose_on_each_pair(method, scheme):
    # the stacked core on a stack of 2x2 pairs, one of 3x3 pairs, and a pair
    # whose late table has no singles, each in one call, with pairs whose
    # fits fail: pair i's values are decompose's result on pair i, bit for
    # bit, or its error is the one decompose raises, with class and message
    rng = np.random.default_rng(29)
    three = ("L", "M", "H")

    def draw(size, labels):
        counts = rng.integers(0, 25, (size, size)).astype(float)
        counts[0, 0] += 1
        return TableWithSingles(ContingencyTable(counts, labels, labels),
                                rng.integers(0, 9, size), rng.integers(1, 9, size))

    two_by_two = [(draw(2, ("L", "H")), draw(2, ("L", "H"))) for _ in range(12)]
    stacks = [two_by_two, [(draw(3, three), draw(3, three)) for _ in range(12)],
              [(two_by_two[0][0], LATE)]]  # csa: the late table has no singles
    kinds, done = set(), 0
    for pairs in stacks:
        sides = [_stacked([pair[side] for pair in pairs]) for side in (0, 1)]
        columns, errors = _decompose_columns(sides[0][0], sides[1][0], method, scheme,
                                             PAPER_INTEGER, 1e-10, 10000,
                                             [sides[0][1], sides[1][1]])
        assert tuple(columns) == DECOMPOSITION_COLUMNS
        assert len(errors) == len(pairs) and {len(c) for c in columns.values()} == {len(pairs)}
        for (early, late), error, *values in zip(pairs, errors, *columns.values()):
            try:
                expected = decompose(early, late, method, scheme)
            except (HomlabError, ValueError) as exc:
                assert type(error) is type(exc) and str(error) == str(exc)
                kinds.add(type(exc).__name__)
                continue
            assert error is None
            assert [np.float64(v).tobytes() if isinstance(v, float) else v
                    for v in values] == [
                np.float64(v).tobytes() if isinstance(v, float) else v
                for v in dataclasses.astuple(expected)[2:]]
            done += 1
    assert done >= 10 and (method not in ("csa", "mdba") or "ShapeError" in kinds)


def test_decompose_checks_the_pair_before_any_fit_in_order():
    # unknown scheme, label mismatch, a non-square side, then csa's early
    # singles; the fit's own errors come after
    wide = ContingencyTable(np.ones((2, 3)))
    relabeled_wide = ContingencyTable(np.ones((2, 3)), ("a", "b"))
    with_singles = TableWithSingles(EARLY, [5, 6], [7, 8])
    with pytest.raises(ValueError, match="unknown scheme: 'shapley'"):
        decompose(wide, relabeled_wide, "csa", "shapley")
    with pytest.raises(ShapeError, match="^generation tables must share category labels$"):
        decompose(wide, relabeled_wide, "csa")
    with pytest.raises(ShapeError, match="^homogamy share needs a square table, got 2x3$"):
        decompose(wide, wide, "csa")
    with pytest.raises(ShapeError, match="^the surplus-based method needs singles on both"):
        decompose(EARLY, with_singles, "csa")
    with pytest.raises(ShapeError, match="^the surplus-based method needs singles counts$"):
        decompose(with_singles, LATE, "csa")
    with pytest.raises(ValueError, match="unknown method tag"):
        decompose(EARLY, LATE, "pam")
    with pytest.raises(ValueError, match="^unknown method tag: 'NM'$"):
        decompose(EARLY, LATE, "NM")


def test_decompose_stack_of_no_pairs_is_empty():
    # a run whose waves pair nothing; the scheme is checked by decompose
    # and RunConfig, before any stack is built
    empty = np.zeros((0, 2, 2))
    for scheme, (method, singles) in itertools.product(
            (SEQUENTIAL, WITH_INTERACTION),
            (("nm", [None, None]), ("csa", [(np.zeros((0, 2)),) * 2] * 2))):
        columns, errors = _decompose_columns(empty, empty, method, scheme, PAPER_INTEGER,
                                             1e-10, 10000, singles)
        assert columns == {name: [] for name in DECOMPOSITION_COLUMNS} and errors == []


# ---------------------------------------------------------------------------
# cumulative series
# ---------------------------------------------------------------------------

WAVES = (1960, 1970, 1980, 1990)


def series_of(tables, waves=WAVES, measure="nm"):
    """The ``trend_series`` rows of state ``A`` in a panel of that one state,
    as ``{year: (cumulative, effect)}``."""
    panel = PanelDataset(np.array([t.counts for t in tables.values()]),
                         {("A", year): i for i, year in enumerate(tables)}, ("L", "H"),
                         waves, ("A",))
    config = RunConfig(waves=waves, labels=("L", "H"), measure=measure, scheme=SEQUENTIAL)
    _, columns = trend_series(panel, config)
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    assert [row for row in rows if row["state"] == "US"] == [
        {**row, "state": "US"} for row in rows if row["state"] == "A"]  # US is A
    return {row["year"]: (row["cumulative"], row["effect"])
            for row in rows if row["state"] == "A"}


def test_constant_panel_is_flat():
    series = series_of({year: EARLY for year in WAVES})
    assert list(series) == list(WAVES)
    assert series[1960][0] == pytest.approx(0.70)
    assert all(cumulative == pytest.approx(0.70, abs=1e-12)
               for cumulative, _ in series.values())
    assert all(effect == pytest.approx(0.0, abs=1e-12)
               for effect in (series[year][1] for year in WAVES[:-1]))
    assert series[WAVES[-1]][1] == ""  # no decade starts at the last wave


def test_two_wave_series_matches_decompose():
    series = series_of({1960: EARLY, 1970: LATE}, (1960, 1970))
    effect = decompose(EARLY, LATE, "nm").nonstructural_effect
    assert series[1960] == (pytest.approx(0.70), effect)
    assert series[1970][0] == pytest.approx(0.70 + effect, abs=1e-12)


def test_three_wave_cumulation():
    # effects cumulate: share path v, v + e1, v + e1 + e2
    t0 = table([[40, 10], [20, 30]])
    t1 = table([[36, 14], [24, 26]])
    t2 = table([[44, 6], [16, 34]])
    series = series_of({1960: t0, 1970: t1, 1980: t2}, (1960, 1970, 1980))
    e1 = decompose(t0, t1, "nm").nonstructural_effect
    e2 = decompose(t1, t2, "nm").nonstructural_effect
    assert [effect for _, effect in series.values()] == [e1, e2, ""]
    assert series[1960][0] == pytest.approx(0.70)
    assert series[1970][0] == pytest.approx(0.70 + e1, abs=1e-12)
    assert series[1980][0] == pytest.approx(0.70 + e1 + e2, abs=1e-12)


def test_missing_wave_leaves_gaps():
    series = series_of({1960: EARLY, 1980: LATE, 1990: EARLY})
    assert series[1960][0] == pytest.approx(0.70)  # anchored at the first wave
    assert series[1960][1] is None
    assert series[1970] == (None, None)
    assert series[1980][1] is not None
    assert series[1980][0] is None
    assert series[1990][0] is None  # unanchored after the gap


def test_single_wave_is_insufficient():
    # one present wave has no decade: no method series rows, while a
    # scalar measure keeps the wave's row
    assert series_of({1960: EARLY}) == {}
    assert series_of({1960: EARLY}, measure="or") == {1960: (pytest.approx(6.0), "")}
