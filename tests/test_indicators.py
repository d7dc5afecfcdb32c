import dataclasses
import math

import numpy as np
import pytest

from homlab.counterfactual import fit
from homlab.errors import (
    GllUndefinedError,
    InfeasibilityError,
    PartitionError,
    ShapeError,
    UndefinedIndicatorError,
)
from homlab import criteria, indicators
from homlab.indicators import (
    CONTINUOUS,
    INDICATOR_TAGS,
    PAPER_INTEGER,
    SCALAR_TAGS,
    aggregate_msp,
    correlation,
    covariance,
    determinant,
    evaluate,
    evaluate_stack,
    gll,
    ll_simplified,
    odds_ratio,
    regression,
    surplus_matrix,
    v_value,
)
from homlab.io import RunConfig, indicator_rows, load_couples
from homlab.tables import (
    ContingencyTable,
    Marginals,
    TableWithSingles,
    marginals,
    merge_categories,
    random_counts,
)


def table(counts):
    return ContingencyTable(np.array(counts, dtype=float))


BASE = table([[40, 10], [20, 30]])
INDEP = table([[24, 16], [36, 24]])
DIAG = table([[50, 0], [0, 50]])


def random_positive_2x2(rng, high=51):
    return table(rng.integers(1, high, size=(2, 2)))


# ---------------------------------------------------------------------------
# definitions on worked examples
# ---------------------------------------------------------------------------

def test_odds_ratio_values():
    assert odds_ratio(BASE) == pytest.approx(6.0)
    assert odds_ratio(INDEP) == pytest.approx(1.0)
    assert odds_ratio(DIAG) == math.inf


def test_odds_ratio_zero_and_undefined_cases():
    assert odds_ratio(table([[0, 5], [5, 0]])) == 0.0
    with pytest.raises(UndefinedIndicatorError):
        odds_ratio(table([[0, 5], [0, 5]]))


def test_det_family_values():
    assert determinant(BASE) == 1000
    assert correlation(BASE) == pytest.approx(0.40825, abs=1e-5)
    assert covariance(INDEP) == 0
    pair = regression(BASE)
    assert pair.beta_wm == pytest.approx(1000 / (50 * 50))
    assert pair.beta_mw == pytest.approx(1000 / (60 * 40))


def test_indicators_require_2x2():
    wide = table([[1, 2, 3], [4, 5, 6]])
    for fn in (odds_ratio, determinant, covariance, correlation, regression,
               aggregate_msp, v_value, ll_simplified):
        with pytest.raises(ShapeError):
            fn(wide)


def test_aggregate_msp_values():
    parts = aggregate_msp(BASE)
    assert parts.msp_l == pytest.approx(1.3333, abs=1e-4)
    assert parts.msp_h == pytest.approx(1.5, abs=1e-9)
    assert parts.aggregate == pytest.approx(1.40476, abs=1e-4)
    assert aggregate_msp(INDEP).aggregate == pytest.approx(1.0)
    perfect = aggregate_msp(DIAG)
    assert (perfect.msp_l, perfect.msp_h, perfect.aggregate) == (2, 2, 2)


def test_msp_undefined_on_empty_diagonal():
    with pytest.raises(UndefinedIndicatorError):
        aggregate_msp(table([[0, 5], [5, 0]]))


def test_v_value_branches():
    assert v_value(BASE) == pytest.approx(0.5)       # c > b branch
    assert v_value(INDEP) == 0
    assert v_value(table([[30, 20], [20, 30]])) == pytest.approx(0.2)  # tie b = c


def test_ll_simplified_values():
    dec = ll_simplified(BASE)
    assert dec.r == pytest.approx(20.0)
    assert dec.int_r == 20
    assert dec.value == pytest.approx(0.5)
    assert not dec.negative_sorting
    # plain Python scalars, not NumPy ones from the shared kernel
    assert {type(x) for x in (dec.r, dec.int_r, dec.d_max, dec.value)} == {float}
    assert type(dec.negative_sorting) is bool

    perfect = ll_simplified(DIAG)
    assert perfect.r == pytest.approx(25.0)
    assert perfect.value == pytest.approx(1.0)

    indep = ll_simplified(table([[24, 16], [36, 24]]))
    assert indep.r == 24.0
    assert indep.value == 0.0


def test_ll_negative_sorting_flagged_and_signed():
    dec = ll_simplified(table([[10, 30], [30, 30]]))
    assert dec.negative_sorting
    assert dec.value == pytest.approx(-0.25)


def test_ll_rejects_unknown_rounding():
    with pytest.raises(ValueError):
        ll_simplified(BASE, "round-half-up")


def test_gll_examples():
    assert gll(BASE).tolist() == [[0.5]]
    steps = table([[10, 0], [5, 5], [0, 10]])
    assert gll(steps).tolist() == [[1.0], [1.0]]
    rand = table(random_counts(np.array([10, 10, 10]), np.array([15, 15]), 30))
    assert np.allclose(gll(rand), 0.0)


def test_gll_reports_each_undefined_split():
    # zero low tail at the first column split leaves that entry undefined
    t = table([[0, 4, 1], [0, 3, 2], [0, 2, 3]])
    with pytest.raises(GllUndefinedError) as err:
        gll(t)
    bad = {(j, k) for j, k, _ in err.value.entries}
    assert bad == {(1, 1), (2, 1)}
    partial = err.value.partial
    assert np.isnan(partial[0, 0]) and np.isnan(partial[1, 0])
    assert np.isfinite(partial[:, 1]).all()


def random_tables(rng, shape, count):
    """Integer and non-integer tables, some with zero rows or columns."""
    out = []
    for i in range(count):
        if i % 2:
            counts = rng.integers(0, 4 if i % 4 == 1 else 3000, size=shape)
        else:
            counts = rng.random(shape) * 10.0 ** rng.integers(-3, 4)
            counts *= rng.random(shape) > 0.2
        counts = counts.astype(float)
        if i % 5 == 0:
            counts[rng.integers(shape[0])] = 0.0
        if counts.any():
            out.append(table(counts))
    return out


def merged_at(t, j, k):
    """The 2x2 aggregation at split ``(j, k)``: rows 1..j and columns 1..k
    against the rest."""
    return merge_categories(t, [range(j), range(j, t.n_rows)], [range(k), range(k, t.n_cols)])


def reference_gll(t, rounding):
    """``ll_simplified`` of every merged 2x2 aggregation, one split at a time."""
    out = np.full((t.n_rows - 1, t.n_cols - 1), np.nan)
    failures = []
    for j in range(1, t.n_rows):
        for k in range(1, t.n_cols):
            try:
                out[j - 1, k - 1] = ll_simplified(merged_at(t, j, k), rounding).value
            except UndefinedIndicatorError as exc:
                failures.append((j, k, str(exc)))
    return out, failures


def reference_nm_counts(source, target, rounding):
    """The LL inversion of the ``nm`` fit written one split at a time."""
    levels = gll(source, rounding)
    n, m = source.n_rows, source.n_cols
    total = target.total
    row_tail = np.concatenate([np.cumsum(target.row_sums[::-1])[::-1], [0.0]])
    col_tail = np.concatenate([np.cumsum(target.col_sums[::-1])[::-1], [0.0]])
    grid = np.zeros((n + 1, m + 1))
    grid[:, 0] = row_tail
    grid[0, :] = col_tail
    grid[0, 0] = total
    for j in range(1, n):
        for k in range(1, m):
            cd, bd = row_tail[j], col_tail[k]
            r = cd * bd / total
            rho = np.floor(r) if rounding == PAPER_INTEGER else r
            grid[j, k] = levels[j - 1, k - 1] * (min(bd, cd) - rho) + rho
    return grid[:-1, :-1] - grid[1:, :-1] - grid[:-1, 1:] + grid[1:, 1:]


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4), (3, 5), (5, 3)])
def test_gll_and_nm_inversion_match_the_split_by_split_reference_bitwise(shape):
    rng = np.random.default_rng(sum(shape) * 7 + shape[0])
    undefined = 0
    for i, t in enumerate(random_tables(rng, shape, 120)):
        drawn = rng.integers(1, 3000, size=shape) if i % 2 else rng.random(shape) * 50
        target = marginals(table(drawn))
        for rounding in (PAPER_INTEGER, CONTINUOUS):
            expected, failures = reference_gll(t, rounding)
            try:
                got = gll(t, rounding)
            except GllUndefinedError as exc:
                undefined += 1
                assert exc.entries == failures
                assert np.array_equal(exc.partial, expected, equal_nan=True)
                continue
            assert not failures
            assert np.array_equal(got, expected, equal_nan=True)

            counts = reference_nm_counts(t, target, rounding)
            if counts.min() < -1e-9:
                with pytest.raises(InfeasibilityError):
                    fit("nm", t, target, rounding)
                continue
            fitted = fit("nm", t, target, rounding).table.counts
            assert np.array_equal(fitted, np.where(counts < 0, 0.0, counts))
    assert undefined > 0


def test_aggregate_2x2_matches_manual_blocks():
    # the split (2, 1) of gll reads the 2x2 merge at that split
    t = table([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    agg = merged_at(t, 2, 1)
    assert agg.counts.tolist() == [[5, 16], [7, 17]]
    assert gll(t)[1, 0] == ll_simplified(agg).value
    # a split past the last category leaves an empty block
    with pytest.raises(PartitionError):
        merged_at(t, 3, 1)


def test_surplus_matrix_values():
    tws = TableWithSingles(table([[4, 2], [2, 8]]), [1, 2], [1, 2])
    values = surplus_matrix(tws).values
    assert values[0, 0] == pytest.approx(4.0)
    assert values[0, 1] == pytest.approx(1.41421, abs=1e-5)
    assert values[1, 0] == pytest.approx(1.41421, abs=1e-5)
    assert values[1, 1] == pytest.approx(4.0)

    unit = TableWithSingles(BASE, [1, 1], [1, 1])
    assert np.array_equal(surplus_matrix(unit).values, BASE.counts)

    with pytest.raises(UndefinedIndicatorError):
        surplus_matrix(TableWithSingles(BASE, [0, 1], [1, 1]))


# ---------------------------------------------------------------------------
# equivalence of the ratio measures when the random benchmark is integral
# ---------------------------------------------------------------------------

def integer_benchmark_tables(rng, count, require_nonnegative=True):
    """2x2 integer tables whose random high-high benchmark is an integer."""
    out = []
    while len(out) < count:
        total = int(rng.choice([20, 40, 50, 80, 100, 200]))
        row_h = int(rng.integers(1, total))
        col_h = int(rng.integers(1, total))
        if (row_h * col_h) % total:
            continue
        r = row_h * col_h // total
        lo = r if require_nonnegative else max(0, row_h + col_h - total)
        hi = min(row_h, col_h)
        if hi <= lo:
            continue
        d = int(rng.integers(lo, hi + 1))
        a = total - row_h - col_h + d
        b = col_h - d
        c = row_h - d
        if min(a, b, c) < 0 or a + d == 0:
            continue
        out.append(table([[a, b], [c, d]]))
    return out


def test_ratio_measures_coincide_on_integer_benchmark():
    rng = np.random.default_rng(42)
    for t in integer_benchmark_tables(rng, 300):
        dec = ll_simplified(t)
        assert dec.int_r == dec.r
        assert abs(dec.value - v_value(t)) <= 1e-12


# ---------------------------------------------------------------------------
# scale, gender and category symmetry properties
# ---------------------------------------------------------------------------

def test_scale_behavior():
    rng = np.random.default_rng(1)
    for _ in range(100):
        t = random_positive_2x2(rng)
        r = float(rng.uniform(0.1, 7.0))
        scaled = t.scaled(r)
        assert odds_ratio(scaled) == pytest.approx(odds_ratio(t), rel=1e-9)
        assert determinant(scaled) == pytest.approx(r * r * determinant(t), rel=1e-9)
        assert covariance(scaled) == pytest.approx(covariance(t), rel=1e-9, abs=1e-12)
        assert correlation(scaled) == pytest.approx(correlation(t), rel=1e-9, abs=1e-12)
        pair, spair = regression(t), regression(scaled)
        assert spair.beta_wm == pytest.approx(pair.beta_wm, rel=1e-9, abs=1e-12)
        assert spair.beta_mw == pytest.approx(pair.beta_mw, rel=1e-9, abs=1e-12)
        assert aggregate_msp(scaled).aggregate == pytest.approx(
            aggregate_msp(t).aggregate, rel=1e-9
        )
        assert v_value(scaled) == pytest.approx(v_value(t), rel=1e-9, abs=1e-12)
        assert ll_simplified(scaled, CONTINUOUS).value == pytest.approx(
            ll_simplified(t, CONTINUOUS).value, rel=1e-9, abs=1e-12
        )


def test_floor_mode_is_scale_invariant_only_up_to_the_floor():
    # the floored benchmark is an integer-count device: rescaling by an
    # arbitrary real moves the floor and the value with it
    t = table([[40, 10], [20, 30]])
    exact = ll_simplified(t, PAPER_INTEGER).value
    skewed = ll_simplified(t.scaled(1.013), PAPER_INTEGER).value
    assert abs(exact - skewed) > 1e-3
    assert ll_simplified(t.scaled(1.013), CONTINUOUS).value == pytest.approx(
        ll_simplified(t, CONTINUOUS).value
    )


def test_gender_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(100):
        t = random_positive_2x2(rng)
        tt = t.transposed()
        assert odds_ratio(tt) == pytest.approx(odds_ratio(t), rel=1e-12)
        assert determinant(tt) == pytest.approx(determinant(t), rel=1e-12)
        assert covariance(tt) == pytest.approx(covariance(t), rel=1e-12)
        assert correlation(tt) == pytest.approx(correlation(t), rel=1e-12)
        assert aggregate_msp(tt).aggregate == pytest.approx(
            aggregate_msp(t).aggregate, rel=1e-12
        )
        assert v_value(tt) == pytest.approx(v_value(t), rel=1e-12)
        assert ll_simplified(tt).value == pytest.approx(
            ll_simplified(t).value, rel=1e-12
        )
        assert regression(tt).beta_wm == pytest.approx(
            regression(t).beta_mw, rel=1e-12
        )


def test_category_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(100):
        t = random_positive_2x2(rng)
        (a, b), (c, d) = t.counts
        rotated = table([[d, c], [b, a]])
        assert odds_ratio(rotated) == pytest.approx(odds_ratio(t), rel=1e-12)
        assert determinant(rotated) == pytest.approx(determinant(t), rel=1e-12)
        assert covariance(rotated) == pytest.approx(covariance(t), rel=1e-12)
        assert correlation(rotated) == pytest.approx(correlation(t), rel=1e-12)
        assert v_value(rotated) == pytest.approx(v_value(t), rel=1e-12)
        assert ll_simplified(rotated).value == pytest.approx(
            ll_simplified(t).value, rel=1e-12
        )


def test_category_symmetry_fails_for_local_sorting_parameter():
    # the low/high swap exchanges the two local sorting parameters, so the
    # low-type parameter itself is not category symmetric
    t = table([[40, 10], [20, 31]])
    (a, b), (c, d) = t.counts
    rotated = table([[d, c], [b, a]])
    assert aggregate_msp(rotated).msp_l == pytest.approx(aggregate_msp(t).msp_h)
    assert abs(aggregate_msp(rotated).msp_l - aggregate_msp(t).msp_l) > 1e-3


def test_det_family_signs_agree():
    rng = np.random.default_rng(6)
    for _ in range(100):
        t = random_positive_2x2(rng)
        sign = np.sign(determinant(t))
        assert np.sign(covariance(t)) == sign
        assert np.sign(correlation(t)) == sign
        pair = regression(t)
        assert np.sign(pair.beta_wm) == sign
        assert np.sign(pair.beta_mw) == sign


def test_diagonal_addition_monotonicity():
    rng = np.random.default_rng(9)
    for _ in range(200):
        t = random_positive_2x2(rng)
        bump = t.with_counts(t.counts + np.diag(rng.integers(1, 51, size=2)))
        assert odds_ratio(bump) >= odds_ratio(t) - 1e-9
        assert determinant(bump) >= determinant(t) - 1e-9
        assert correlation(bump) >= correlation(t) - 1e-9
        assert regression(bump).beta_wm >= regression(t).beta_wm - 1e-9
        assert regression(bump).beta_mw >= regression(t).beta_mw - 1e-9
        assert aggregate_msp(bump).aggregate >= aggregate_msp(t).aggregate - 1e-9
        assert v_value(bump) >= v_value(t) - 1e-9
        assert ll_simplified(bump).value >= ll_simplified(t).value - 1e-9


def test_covariance_diagonal_addition_can_decrease():
    # a strongly assorted population diluted by one-sided same-type couples:
    # the covariance normalization by the squared total overwhelms the
    # determinant gain, a documented failure of the monotonicity postulate
    t = table([[45, 5], [5, 45]])
    bumped = table([[95, 5], [5, 46]])
    assert covariance(bumped) < covariance(t) - 1e-3


# ---------------------------------------------------------------------------
# the tag registry
# ---------------------------------------------------------------------------

DIRECT = {
    "or": lambda s, rounding: [odds_ratio(s)],
    "det": lambda s, rounding: (
        [determinant(s)] if s.n_rows == 2 else [float(np.linalg.det(s.counts))]
    ),
    "cov": lambda s, rounding: [covariance(s)],
    "corr": lambda s, rounding: [correlation(s)],
    "reg": lambda s, rounding: [regression(s).beta_wm, regression(s).beta_mw],
    "msp": lambda s, rounding: [aggregate_msp(s).aggregate],
    "v": lambda s, rounding: [v_value(s)],
    "msm": lambda s, rounding: surplus_matrix(s).values.ravel(),
    "ll": lambda s, rounding: [ll_simplified(s, rounding).value],
    "gll": lambda s, rounding: gll(s, rounding).ravel(),
}


def outcome(fn, *args):
    """Bytes of the float vector ``fn`` returns, or the class and message of
    what it raises (``trend --measure`` reports the message)."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except Exception as exc:  # the registry must raise exactly what the measure raises
        return type(exc), str(exc)


def registry_subjects(rng, tag):
    for i in range(60):
        shapes = [(2, 2), (3, 3)] if tag in ("det", "gll") else [(2, 2)]
        for shape in shapes:
            counts = rng.integers(1, 60, size=shape) if i % 2 else rng.random(shape) * 40
            subject = table(counts)
            if tag == "msm":
                men, women = rng.integers(1, 30, size=(2, shape[0]))
                subject = TableWithSingles(subject, men, women)
            yield subject


@pytest.mark.parametrize("tag", INDICATOR_TAGS)
def test_registry_matches_the_direct_measure_bit_for_bit(tag):
    rng = np.random.default_rng(INDICATOR_TAGS.index(tag))
    for subject in registry_subjects(rng, tag):
        for rounding in (PAPER_INTEGER, CONTINUOUS):
            got = outcome(evaluate, tag, subject, rounding)
            assert got == outcome(DIRECT[tag], subject, rounding)
            assert not isinstance(got, tuple)


# 2x2 tables with zero cells. Together they reach every undefined branch a
# table can reach; the covariance's, a zero total, is not a valid table.
ZERO_CELL_TABLES = (
    [[0, 0], [3, 4]],  # a zero row
    [[0, 3], [0, 2]],  # a zero column
    [[0, 3], [4, 0]],  # an empty diagonal
    [[0, 1], [1, 0]],
    [[3, 0], [0, 0]],  # one nonzero cell
    [[0, 2], [0, 0]],
    [[0, 0], [0, 5]],
    [[2, 0], [0, 1]],  # perfect sorting
    [[4, 1], [0, 3]],
)
UNDEFINED_MESSAGES = {
    "or": {"odds ratio undefined: ad = bc = 0"},
    "det": set(),
    "cov": set(),
    "corr": {"correlation undefined: zero marginal sum"},
    "reg": {"regression undefined: zero marginal sum"},
    "msp": {
        "sorting parameter undefined: empty diagonal",
        "sorting parameter undefined: zero marginal sum",
    },
    "v": {"V-value undefined: zero denominator branch"},
    "msm": {"surplus matrix undefined: zero singles count"},
    "ll": {"LL indicator undefined: zero denominator"},
    "gll": {"undefined at splits (1,1): LL indicator undefined: zero denominator"},
}


@pytest.mark.parametrize("tag", INDICATOR_TAGS)
def test_registry_raises_what_the_direct_measure_raises(tag):
    raised = set()
    for i, counts in enumerate(ZERO_CELL_TABLES):
        subject = table(counts)
        if tag == "msm":
            subject = TableWithSingles(subject, [i % 2, 1], [1, 2])
        for rounding in (PAPER_INTEGER, CONTINUOUS):
            got = outcome(evaluate, tag, subject, rounding)
            assert got == outcome(DIRECT[tag], subject, rounding)
            if isinstance(got, tuple):
                raised.add(got[1])
    assert raised == UNDEFINED_MESSAGES[tag]


def _reference_outputs(tag, subject, rounding):
    """Every output of ``tag``'s kernel on one 2x2 table, the kernel run on
    its four cells as Python floats rather than on a stack of tables.
    Raises the measure's ShapeError off 2x2, then ValueError on an unknown
    rounding mode, then its UndefinedIndicatorError."""
    measure = indicators._TWO_BY_TWO[tag]
    n, m = subject.counts.shape
    if (n, m) != (2, 2):
        raise ShapeError(f"{measure.name} is defined for 2x2 tables, got {n}x{m}")
    if rounding not in (PAPER_INTEGER, CONTINUOUS):
        raise ValueError(f"unknown rounding mode: {rounding!r}")
    abcd = [float(x) for x in subject.counts.ravel()]
    *values, undefined = measure.kernel(*abcd, rounding)
    if undefined:
        message = measure.undefined
        raise UndefinedIndicatorError(message if isinstance(message, str) else message(*abcd))
    return [float(v) for v in values]


# every output of each public 2x2 measure, in kernel order
PUBLIC = {
    "or": lambda s, rounding: [odds_ratio(s)],
    "det": lambda s, rounding: [determinant(s)],
    "cov": lambda s, rounding: [covariance(s)],
    "corr": lambda s, rounding: [correlation(s)],
    "reg": lambda s, rounding: dataclasses.astuple(regression(s)),
    "msp": lambda s, rounding: dataclasses.astuple(aggregate_msp(s)),
    "v": lambda s, rounding: [v_value(s)],
    "ll": lambda s, rounding: [
        getattr(ll_simplified(s, rounding), name) for name in ("r", "int_r", "d_max", "value")
    ],
}


@pytest.mark.parametrize("tag", SCALAR_TAGS)
def test_every_entry_point_matches_the_float_reference_bit_for_bit(tag):
    rng = np.random.default_rng(INDICATOR_TAGS.index(tag))
    subjects = [s for s in registry_subjects(rng, tag) if s.counts.shape == (2, 2)]
    subjects += [table(counts) for counts in ZERO_CELL_TABLES]
    reported = list(indicators._TWO_BY_TWO[tag].reported)
    flagged = 0
    for rounding in (PAPER_INTEGER, CONTINUOUS):
        # the public measures other than LL fix the rounding mode
        public = rounding if tag == "ll" else PAPER_INTEGER
        values, undefined = evaluate_stack(tag, np.array([s.counts for s in subjects]), rounding)
        for subject, row, is_undefined in zip(subjects, values, undefined):
            assert outcome(PUBLIC[tag], subject, rounding) == outcome(
                _reference_outputs, tag, subject, public), (tag, subject.counts)
            expected = outcome(_reference_outputs, tag, subject, rounding)
            if isinstance(expected, tuple):
                assert expected[0] is UndefinedIndicatorError
                assert outcome(evaluate, tag, subject, rounding) == expected
                assert is_undefined, (tag, subject.counts)
                continue
            expected = np.frombuffer(expected)[reported].tobytes()
            assert outcome(evaluate, tag, subject, rounding) == expected
            assert not is_undefined and row.tobytes() == expected, (tag, subject.counts)
        flagged += int(undefined.sum())
    # a determinant and a covariance exist on every table
    assert (flagged > 0) == (tag not in ("det", "cov"))


def test_registry_edge_cases():
    assert evaluate("or", DIAG).tolist() == [math.inf]
    wide = table(np.ones((3, 3)))
    cases = [
        ("msm", BASE, PAPER_INTEGER, UndefinedIndicatorError,
         "surplus matrix needs singles counts"),
        ("det", table([[1, 2, 3], [4, 5, 6]]), PAPER_INTEGER,
         UndefinedIndicatorError, "determinant needs a square table"),
        ("or", wide, PAPER_INTEGER, ShapeError,
         "odds ratio is defined for 2x2 tables, got 3x3"),
        ("unknown", BASE, PAPER_INTEGER, ValueError,
         "unknown indicator tag: 'unknown'"),
        # the shape is checked before the rounding mode
        ("ll", wide, "bogus", ShapeError,
         "LL indicator is defined for 2x2 tables, got 3x3"),
        ("ll", BASE, "bogus", ValueError, "unknown rounding mode: 'bogus'"),
    ]
    for tag, subject, rounding, error, message in cases:
        with pytest.raises(error) as info:
            evaluate(tag, subject, rounding)
        assert str(info.value) == message


COUPLES_TAGS = tuple(tag for tag in INDICATOR_TAGS if tag != "msm")


def stacks(rng, shape):
    """Seeded stacks of one shape: small integer counts, which hit every
    undefined case (a zero margin, ``ad = bc = 0``, an empty diagonal, a
    zero LL denominator), and real-valued counts."""
    small = rng.integers(0, 3, size=(300, *shape))
    if shape == (2, 2):
        small[:3] = [[[0, 0], [3, 4]], [[0, 3], [0, 2]], [[0, 3], [4, 0]]]
    small = small[small.reshape(len(small), -1).any(axis=1)]
    yield small
    yield rng.integers(0, 60, size=(100, *shape))
    yield rng.random((100, *shape)) * 40


@pytest.mark.parametrize("tag", COUPLES_TAGS)
def test_stacked_evaluation_matches_the_single_table_call_bit_for_bit(tag):
    rng = np.random.default_rng(100 + INDICATOR_TAGS.index(tag))
    shapes = [(2, 2), (3, 3)] if tag in ("det", "gll") else [(2, 2)]
    flagged = 0
    for shape in shapes:
        for stack in stacks(rng, shape):
            for rounding in (CONTINUOUS, PAPER_INTEGER):
                values, undefined = evaluate_stack(tag, stack, rounding)
                assert values.shape[0] == undefined.shape[0] == len(stack)
                for counts, value, is_undefined in zip(stack, values, undefined):
                    try:
                        expected = evaluate(tag, table(counts), rounding)
                    except UndefinedIndicatorError:
                        assert is_undefined, (tag, counts)
                        continue
                    assert not is_undefined, (tag, counts)
                    assert value.tobytes() == expected.tobytes(), (tag, counts)
                flagged += int(undefined.sum())
    # a determinant and a covariance exist on every table
    assert (flagged > 0) == (tag not in ("det", "cov"))


def test_stacked_evaluation_edge_cases():
    square = np.ones((2, 3, 3))
    with pytest.raises(ShapeError):
        evaluate_stack("or", square)
    with pytest.raises(ValueError):
        evaluate_stack("msm", square)
    with pytest.raises(ValueError):
        evaluate_stack("ll", np.ones((2, 2, 2)), "nearest")
    values, undefined = evaluate_stack("det", np.ones((2, 2, 3)))
    assert undefined.tolist() == [True, True]
    values, undefined = evaluate_stack("gll", np.ones((1, 2, 3)), PAPER_INTEGER)
    assert values.shape == (1, 2)


@pytest.mark.parametrize("tag", INDICATOR_TAGS)
def test_stacked_evaluation_of_an_empty_stack_is_empty(tag):
    # a stack of no tables, as a run with no present wave cuts it
    shape = (3, 3) if tag in ("gll", "msm") else (2, 2)
    singles = (np.zeros((0, shape[0])), np.zeros((0, shape[1])))
    values, undefined = evaluate_stack(tag, np.zeros((0, *shape)), PAPER_INTEGER, singles)
    width = {"gll": 4, "msm": 9, "reg": 2}.get(tag, 1)
    assert values.shape == (0, width) and undefined.shape == (0,)


@pytest.mark.parametrize("tag", INDICATOR_TAGS)
def test_stacked_evaluation_refuses_anything_but_a_stack_of_tables(tag):
    # a single table, a bare vector or a stack of stacks is refused before
    # the tag is read, not left to fail inside a kernel
    for counts in (np.ones((2, 2)), np.ones(4), np.ones((1, 2, 2, 2))):
        with pytest.raises(ShapeError, match=r"shape \(T, n, m\)"):
            evaluate_stack(tag, counts)
    with pytest.raises(ShapeError, match=r"shape \(T, n, m\)"):
        evaluate_stack("bogus", np.ones((2, 2)))


def test_stacked_surplus_matrix_matches_the_single_table_call_bit_for_bit():
    # singles counts of 0 leave some tables undefined
    rng = np.random.default_rng(7)
    for shape in ((2, 2), (3, 3), (2, 3)):
        counts = rng.random((50, *shape)) * 40
        men = rng.integers(0, 4, size=(50, shape[0])).astype(float)
        women = rng.integers(0, 4, size=(50, shape[1])).astype(float)
        values, undefined = evaluate_stack("msm", counts, CONTINUOUS, (men, women))
        assert values.shape == (50, shape[0] * shape[1])
        for t in range(50):
            subject = TableWithSingles(table(counts[t]), men[t], women[t])
            try:
                expected = evaluate("msm", subject, CONTINUOUS)
            except UndefinedIndicatorError:
                assert undefined[t]
                continue
            assert not undefined[t]
            assert values[t].tobytes() == expected.tobytes()
        assert undefined.any() and not undefined.all()


def test_stacked_surplus_matrix_needs_singles_stacks_of_the_table_shapes():
    counts = np.ones((4, 2, 3))
    good = (np.ones((4, 2)), np.ones((4, 3)))
    assert evaluate_stack("msm", counts, CONTINUOUS, good)[0].shape == (4, 6)
    for singles in (None, good[::-1], (np.ones(2), np.ones(3)),
                    (np.ones((3, 2)), np.ones((3, 3)))):
        with pytest.raises(ShapeError, match="singles stacks"):
            evaluate_stack("msm", counts, CONTINUOUS, singles)
    with pytest.raises(ValueError, match="unknown rounding mode"):
        evaluate_stack("msm", counts, "bogus", good)


@pytest.mark.parametrize("tag", SCALAR_TAGS)
def test_single_and_stacked_evaluation_raise_alike(tag):
    # the shape is checked before the rounding mode, by both entry points,
    # and a non-square determinant is refused before the rounding mode
    def raised(call, *args):
        try:
            result = call(*args)
        except UndefinedIndicatorError:  # a stack marks it with no message
            return UndefinedIndicatorError
        except Exception as exc:  # the outcome is the class and the message
            return type(exc), str(exc)
        if call is evaluate_stack and result[1][0]:
            return UndefinedIndicatorError
        return None

    wide = np.arange(1.0, 10.0).reshape(3, 3)
    oblong = np.arange(1.0, 7.0).reshape(2, 3)
    for counts in (BASE.counts, wide, oblong):
        for rounding in ("bogus", PAPER_INTEGER):
            single = raised(evaluate, tag, table(counts), rounding)
            stacked = raised(evaluate_stack, tag, counts[None], rounding)
            assert single == stacked, (tag, counts.shape, rounding)
            # a determinant exists on every square table
            if rounding == "bogus" or (counts is not BASE.counts and tag != "det"):
                assert single is not None
    assert raised(evaluate, tag, BASE, "bogus") == (
        ValueError, "unknown rounding mode: 'bogus'"
    )
    for rounding in ("bogus", PAPER_INTEGER):
        with pytest.raises(UndefinedIndicatorError, match="^determinant needs a square table$"):
            evaluate("det", table(oblong), rounding)
    unknown = (ValueError, "unknown indicator tag: 'bogus'")
    assert raised(evaluate, "bogus", BASE, PAPER_INTEGER) == unknown
    assert raised(evaluate_stack, "bogus", BASE.counts[None], PAPER_INTEGER) == unknown


def test_registry_is_the_one_criteria_reads():
    assert criteria.INDICATOR_TAGS is INDICATOR_TAGS
    assert tuple(criteria.CARDINAL) == INDICATOR_TAGS
    assert SCALAR_TAGS == ("or", "det", "cov", "corr", "reg", "msp", "v", "ll")


def test_indicator_rows_leave_the_battery_blank_on_an_uncut_four_level_panel(
    tmp_path,
):
    labels = ("A", "B", "C", "D")
    rng = np.random.default_rng(4)
    lines = ["year,state,husband_edu,wife_edu,count"]
    for year in (1980, 1990):
        for h in labels:
            for w in labels:
                lines.append(f"{year},Example,{h},{w},{rng.integers(1, 40)}")
    path = tmp_path / "couples.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = RunConfig(labels=labels, categories="hs", waves=(1980, 1990))
    columns = indicator_rows(load_couples(path, config), config)
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    assert len(rows) == 4  # US and Example, two waves
    for row in rows:
        assert row["share"] == ""  # no share of the uncut 4x4 table
        assert [row[tag] for tag in SCALAR_TAGS] == [""] * len(SCALAR_TAGS)
