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
    evaluate,
    evaluate_stack,
    gll,
)
from homlab.io import RunConfig, indicator_rows, load_couples
from homlab.tables import ContingencyTable, merge_categories, random_counts
from test_tables import margins


def table(counts):
    return ContingencyTable(np.array(counts, dtype=float))


BASE = table([[40, 10], [20, 30]])
INDEP = table([[24, 16], [36, 24]])
DIAG = table([[50, 0], [0, 50]])


def random_positive_2x2(rng, high=51):
    return table(rng.integers(1, high, size=(2, 2)))


def kernel_outputs(tag, t, rounding=PAPER_INTEGER):
    """Every output of ``tag``'s 2x2 kernel on the table ``t``, as floats,
    the ones ``evaluate`` does not report too: MSP's ``(msp_l, msp_h,
    aggregate)`` and LL's ``(r, rho, d_max, value)``, which the ``msp``
    criteria facet and the ``nm`` inversion read. Raises the measure's
    UndefinedIndicatorError where it is undefined."""
    *values, undefined = indicators._TWO_BY_TWO[tag].run(t.counts[None], rounding)
    if undefined[0]:
        raise indicators._undefined_error(tag, t.counts)
    return [float(v[0]) for v in values]


# ---------------------------------------------------------------------------
# definitions on worked examples
# ---------------------------------------------------------------------------

def test_odds_ratio_values():
    assert evaluate("or", BASE)[0] == pytest.approx(6.0)
    assert evaluate("or", INDEP)[0] == pytest.approx(1.0)
    assert evaluate("or", DIAG)[0] == math.inf


def test_odds_ratio_zero_and_undefined_cases():
    assert evaluate("or", table([[0, 5], [5, 0]]))[0] == 0.0
    with pytest.raises(UndefinedIndicatorError):
        evaluate("or", table([[0, 5], [0, 5]]))


def test_det_family_values():
    assert evaluate("det", BASE)[0] == 1000
    assert evaluate("corr", BASE)[0] == pytest.approx(0.40825, abs=1e-5)
    assert evaluate("cov", INDEP)[0] == 0
    beta_wm, beta_mw = evaluate("reg", BASE)
    assert beta_wm == pytest.approx(1000 / (50 * 50))
    assert beta_mw == pytest.approx(1000 / (60 * 40))


def test_indicators_require_2x2():
    # the determinant alone is defined on any square table
    wide, square = table([[1, 2, 3], [4, 5, 6]]), table(np.arange(1.0, 10.0).reshape(3, 3))
    for tag in SCALAR_TAGS:
        if tag == "det":
            with pytest.raises(UndefinedIndicatorError, match="needs a square table"):
                evaluate(tag, wide)
            assert evaluate(tag, square)[0] == pytest.approx(0.0, abs=1e-9)
            continue
        for t in (wide, square):
            with pytest.raises(ShapeError, match="is defined for 2x2 tables"):
                evaluate(tag, t)


def test_aggregate_msp_values():
    msp_l, msp_h, aggregate = kernel_outputs("msp", BASE)
    assert msp_l == pytest.approx(1.3333, abs=1e-4)
    assert msp_h == pytest.approx(1.5, abs=1e-9)
    assert aggregate == pytest.approx(1.40476, abs=1e-4)
    assert evaluate("msp", BASE).tolist() == [aggregate]
    assert evaluate("msp", INDEP)[0] == pytest.approx(1.0)
    assert kernel_outputs("msp", DIAG) == [2, 2, 2]


def test_msp_undefined_on_empty_diagonal():
    with pytest.raises(UndefinedIndicatorError):
        evaluate("msp", table([[0, 5], [5, 0]]))


def test_v_value_branches():
    assert evaluate("v", BASE)[0] == pytest.approx(0.5)       # c > b branch
    assert evaluate("v", INDEP)[0] == 0
    assert evaluate("v", table([[30, 20], [20, 30]]))[0] == pytest.approx(0.2)  # tie b = c


def test_ll_simplified_values():
    r, rho, d_max, value = kernel_outputs("ll", BASE)
    assert r == pytest.approx(20.0)
    assert rho == 20
    assert d_max == 40
    assert value == pytest.approx(0.5)
    assert evaluate("ll", BASE).tolist() == [value]
    assert BASE.counts[1, 1] >= rho  # no negative sorting

    r, _, _, value = kernel_outputs("ll", DIAG)
    assert r == pytest.approx(25.0)
    assert value == pytest.approx(1.0)

    r, _, _, value = kernel_outputs("ll", table([[24, 16], [36, 24]]))
    assert r == 24.0
    assert value == 0.0


def test_ll_negative_sorting_flagged_and_signed():
    t = table([[10, 30], [30, 30]])
    _, rho, _, _ = kernel_outputs("ll", t)
    assert t.counts[1, 1] < rho
    assert evaluate("ll", t)[0] == pytest.approx(-0.25)


def test_ll_rejects_unknown_rounding():
    with pytest.raises(ValueError):
        evaluate("ll", BASE, "round-half-up")


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
    """``ll`` of every merged 2x2 aggregation, one split at a time."""
    out = np.full((t.n_rows - 1, t.n_cols - 1), np.nan)
    failures = []
    for j in range(1, t.n_rows):
        for k in range(1, t.n_cols):
            try:
                out[j - 1, k - 1] = evaluate("ll", merged_at(t, j, k), rounding)[0]
            except UndefinedIndicatorError as exc:
                failures.append((j, k, str(exc)))
    return out, failures


def reference_nm_counts(source, target, rounding):
    """The LL inversion of the ``nm`` fit written one split at a time."""
    levels = gll(source, rounding)
    n, m = source.n_rows, source.n_cols
    row_sums, col_sums = target
    total = float(row_sums.sum())
    row_tail = np.concatenate([np.cumsum(row_sums[::-1])[::-1], [0.0]])
    col_tail = np.concatenate([np.cumsum(col_sums[::-1])[::-1], [0.0]])
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
        target = margins(table(drawn))
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
                    fit("nm", t, *target, rounding)
                continue
            fitted = fit("nm", t, *target, rounding).counts[0]
            assert np.array_equal(fitted, np.where(counts < 0, 0.0, counts))
    assert undefined > 0


def test_aggregate_2x2_matches_manual_blocks():
    # the split (2, 1) of gll reads the 2x2 merge at that split
    t = table([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    agg = merged_at(t, 2, 1)
    assert agg.counts.tolist() == [[5, 16], [7, 17]]
    assert gll(t)[1, 0] == evaluate("ll", agg)[0]
    # a split past the last category leaves an empty block
    with pytest.raises(PartitionError):
        merged_at(t, 3, 1)


def test_surplus_matrix_values():
    values = evaluate("msm", table([[4, 2], [2, 8]]), singles=([1, 2], [1, 2])).reshape(2, 2)
    assert values[0, 0] == pytest.approx(4.0)
    assert values[0, 1] == pytest.approx(1.41421, abs=1e-5)
    assert values[1, 0] == pytest.approx(1.41421, abs=1e-5)
    assert values[1, 1] == pytest.approx(4.0)

    unit = evaluate("msm", BASE, singles=([1, 1], [1, 1]))
    assert np.array_equal(unit, BASE.counts.ravel())

    with pytest.raises(UndefinedIndicatorError):
        evaluate("msm", BASE, singles=([0, 1], [1, 1]))


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
        r, rho, _, value = kernel_outputs("ll", t)
        assert rho == r
        assert abs(value - evaluate("v", t)[0]) <= 1e-12


# ---------------------------------------------------------------------------
# scale, gender and category symmetry properties
# ---------------------------------------------------------------------------

def test_scale_behavior():
    rng = np.random.default_rng(1)
    for _ in range(100):
        t = random_positive_2x2(rng)
        r = float(rng.uniform(0.1, 7.0))
        scaled = table(t.counts * r)
        assert evaluate("or", scaled)[0] == pytest.approx(evaluate("or", t)[0], rel=1e-9)
        assert evaluate("det", scaled)[0] == pytest.approx(r * r * evaluate("det", t)[0], rel=1e-9)
        assert evaluate("cov", scaled)[0] == pytest.approx(
            evaluate("cov", t)[0], rel=1e-9, abs=1e-12
        )
        assert evaluate("corr", scaled)[0] == pytest.approx(
            evaluate("corr", t)[0], rel=1e-9, abs=1e-12
        )
        pair, spair = evaluate("reg", t), evaluate("reg", scaled)
        assert spair[0] == pytest.approx(pair[0], rel=1e-9, abs=1e-12)
        assert spair[1] == pytest.approx(pair[1], rel=1e-9, abs=1e-12)
        assert evaluate("msp", scaled)[0] == pytest.approx(
            evaluate("msp", t)[0], rel=1e-9
        )
        assert evaluate("v", scaled)[0] == pytest.approx(evaluate("v", t)[0], rel=1e-9, abs=1e-12)
        assert evaluate("ll", scaled, CONTINUOUS)[0] == pytest.approx(
            evaluate("ll", t, CONTINUOUS)[0], rel=1e-9, abs=1e-12
        )


def test_floor_mode_is_scale_invariant_only_up_to_the_floor():
    # the floored benchmark is an integer-count device: rescaling by an
    # arbitrary real moves the floor and the value with it
    t = table([[40, 10], [20, 30]])
    exact = evaluate("ll", t, PAPER_INTEGER)[0]
    skewed = evaluate("ll", table(t.counts * 1.013), PAPER_INTEGER)[0]
    assert abs(exact - skewed) > 1e-3
    assert evaluate("ll", table(t.counts * 1.013), CONTINUOUS)[0] == pytest.approx(
        evaluate("ll", t, CONTINUOUS)[0]
    )


def test_gender_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(100):
        t = random_positive_2x2(rng)
        tt = table(t.counts.T)
        assert evaluate("or", tt)[0] == pytest.approx(evaluate("or", t)[0], rel=1e-12)
        assert evaluate("det", tt)[0] == pytest.approx(evaluate("det", t)[0], rel=1e-12)
        assert evaluate("cov", tt)[0] == pytest.approx(evaluate("cov", t)[0], rel=1e-12)
        assert evaluate("corr", tt)[0] == pytest.approx(evaluate("corr", t)[0], rel=1e-12)
        assert evaluate("msp", tt)[0] == pytest.approx(
            evaluate("msp", t)[0], rel=1e-12
        )
        assert evaluate("v", tt)[0] == pytest.approx(evaluate("v", t)[0], rel=1e-12)
        assert evaluate("ll", tt)[0] == pytest.approx(
            evaluate("ll", t)[0], rel=1e-12
        )
        assert evaluate("reg", tt)[0] == pytest.approx(
            evaluate("reg", t)[1], rel=1e-12
        )


def test_category_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(100):
        t = random_positive_2x2(rng)
        (a, b), (c, d) = t.counts
        rotated = table([[d, c], [b, a]])
        assert evaluate("or", rotated)[0] == pytest.approx(evaluate("or", t)[0], rel=1e-12)
        assert evaluate("det", rotated)[0] == pytest.approx(evaluate("det", t)[0], rel=1e-12)
        assert evaluate("cov", rotated)[0] == pytest.approx(evaluate("cov", t)[0], rel=1e-12)
        assert evaluate("corr", rotated)[0] == pytest.approx(evaluate("corr", t)[0], rel=1e-12)
        assert evaluate("v", rotated)[0] == pytest.approx(evaluate("v", t)[0], rel=1e-12)
        assert evaluate("ll", rotated)[0] == pytest.approx(
            evaluate("ll", t)[0], rel=1e-12
        )


def test_category_symmetry_fails_for_local_sorting_parameter():
    # the low/high swap exchanges the two local sorting parameters, so the
    # low-type parameter itself is not category symmetric
    t = table([[40, 10], [20, 31]])
    (a, b), (c, d) = t.counts
    rotated = table([[d, c], [b, a]])
    assert kernel_outputs("msp", rotated)[0] == pytest.approx(kernel_outputs("msp", t)[1])
    assert abs(kernel_outputs("msp", rotated)[0] - kernel_outputs("msp", t)[0]) > 1e-3


def test_det_family_signs_agree():
    rng = np.random.default_rng(6)
    for _ in range(100):
        t = random_positive_2x2(rng)
        sign = np.sign(evaluate("det", t)[0])
        assert np.sign(evaluate("cov", t)[0]) == sign
        assert np.sign(evaluate("corr", t)[0]) == sign
        beta_wm, beta_mw = evaluate("reg", t)
        assert np.sign(beta_wm) == sign
        assert np.sign(beta_mw) == sign


def test_diagonal_addition_monotonicity():
    rng = np.random.default_rng(9)
    for _ in range(200):
        t = random_positive_2x2(rng)
        bump = table(t.counts + np.diag(rng.integers(1, 51, size=2)))
        assert evaluate("or", bump)[0] >= evaluate("or", t)[0] - 1e-9
        assert evaluate("det", bump)[0] >= evaluate("det", t)[0] - 1e-9
        assert evaluate("corr", bump)[0] >= evaluate("corr", t)[0] - 1e-9
        assert evaluate("reg", bump)[0] >= evaluate("reg", t)[0] - 1e-9
        assert evaluate("reg", bump)[1] >= evaluate("reg", t)[1] - 1e-9
        assert evaluate("msp", bump)[0] >= evaluate("msp", t)[0] - 1e-9
        assert evaluate("v", bump)[0] >= evaluate("v", t)[0] - 1e-9
        assert evaluate("ll", bump)[0] >= evaluate("ll", t)[0] - 1e-9


def test_covariance_diagonal_addition_can_decrease():
    # a strongly assorted population diluted by one-sided same-type couples:
    # the covariance normalization by the squared total overwhelms the
    # determinant gain, a documented failure of the monotonicity postulate
    t = table([[45, 5], [5, 45]])
    bumped = table([[95, 5], [5, 46]])
    assert evaluate("cov", bumped)[0] < evaluate("cov", t)[0] - 1e-3


# ---------------------------------------------------------------------------
# the tag registry
# ---------------------------------------------------------------------------

def direct_msm(subject, singles):
    """The surplus matrix written out, raising what ``evaluate`` raises."""
    men, women = (np.asarray(pool, dtype=float) for pool in singles)
    if (men <= 0).any() or (women <= 0).any():
        raise UndefinedIndicatorError("surplus matrix undefined: zero singles count")
    return (subject.counts / np.sqrt(np.outer(men, women))).ravel()


def direct_gll(subject, rounding):
    """GLL split by split, raising what ``gll`` raises."""
    values, failures = reference_gll(subject, rounding)
    if failures:
        raise GllUndefinedError(failures, values)
    return values.ravel()


def direct(tag, subject, rounding, singles=None):
    """The measure ``tag`` computed directly, one table at a time: its 2x2
    kernel on four Python floats, numpy's determinant off 2x2, the surplus
    formula on ``singles``, and LL at each split."""
    if tag == "msm":
        return direct_msm(subject, singles)
    if tag == "gll":
        return direct_gll(subject, rounding)
    if tag == "det" and subject.n_rows != 2:
        return [float(np.linalg.det(subject.counts))]
    reported = list(indicators._TWO_BY_TWO[tag].reported)
    return np.array(_reference_outputs(tag, subject, rounding))[reported]


def outcome(fn, *args):
    """Bytes of the float vector ``fn`` returns, or the class and message of
    what it raises (``trend --measure`` reports the message)."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except Exception as exc:  # the registry must raise exactly what the measure raises
        return type(exc), str(exc)


def registry_subjects(rng, tag):
    """Seeded tables, each with its (single men, single women) for ``msm``
    and None for every other tag."""
    for i in range(60):
        shapes = [(2, 2), (3, 3)] if tag in ("det", "gll") else [(2, 2)]
        for shape in shapes:
            counts = rng.integers(1, 60, size=shape) if i % 2 else rng.random(shape) * 40
            singles = None
            if tag == "msm":
                singles = tuple(rng.integers(1, 30, size=(2, shape[0])))
            yield table(counts), singles


@pytest.mark.parametrize("tag", INDICATOR_TAGS)
def test_registry_matches_the_direct_measure_bit_for_bit(tag):
    rng = np.random.default_rng(INDICATOR_TAGS.index(tag))
    for subject, singles in registry_subjects(rng, tag):
        for rounding in (PAPER_INTEGER, CONTINUOUS):
            got = outcome(evaluate, tag, subject, rounding, singles)
            assert got == outcome(direct, tag, subject, rounding, singles)
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
        singles = ([i % 2, 1], [1, 2]) if tag == "msm" else None
        for rounding in (PAPER_INTEGER, CONTINUOUS):
            got = outcome(evaluate, tag, subject, rounding, singles)
            assert got == outcome(direct, tag, subject, rounding, singles)
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


@pytest.mark.parametrize("tag", SCALAR_TAGS)
def test_every_entry_point_matches_the_float_reference_bit_for_bit(tag):
    # every output of the kernel, the ones evaluate does not report too,
    # and what evaluate and evaluate_stack report of it
    rng = np.random.default_rng(INDICATOR_TAGS.index(tag))
    subjects = [s for s, _ in registry_subjects(rng, tag) if s.counts.shape == (2, 2)]
    subjects += [table(counts) for counts in ZERO_CELL_TABLES]
    counts = np.array([s.counts for s in subjects])
    measure = indicators._TWO_BY_TWO[tag]
    flagged = 0
    for rounding in (PAPER_INTEGER, CONTINUOUS):
        *kernel, undefined = measure.run(counts, rounding)
        values, stacked_undefined = evaluate_stack(tag, counts, rounding)
        assert np.array_equal(stacked_undefined, undefined)
        for k, subject in enumerate(subjects):
            expected = outcome(_reference_outputs, tag, subject, rounding)
            if isinstance(expected, tuple):
                assert expected[0] is UndefinedIndicatorError
                assert outcome(evaluate, tag, subject, rounding) == expected
                assert undefined[k], (tag, subject.counts)
                continue
            assert not undefined[k], (tag, subject.counts)
            assert np.array([out[k] for out in kernel]).tobytes() == expected, (tag, k)
            expected = np.frombuffer(expected)[list(measure.reported)].tobytes()
            assert outcome(evaluate, tag, subject, rounding) == expected
            assert values[k].tobytes() == expected, (tag, subject.counts)
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
            try:
                expected = evaluate("msm", table(counts[t]), CONTINUOUS, (men[t], women[t]))
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
