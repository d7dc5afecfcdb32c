import itertools

import numpy as np
import pytest

from homlab.counterfactual import fit
from homlab.decomposition import decompose
from homlab.errors import (
    DegenerateInputError,
    EnumerationCapError,
    PartitionError,
    ShapeError,
    TableError,
)
from homlab.indicators import _split_sums, evaluate
from homlab.tables import (
    ContingencyTable,
    _block_sum,
    homogamy_shares,
    lattice,
    merge_categories,
    pam_counts,
    random_counts,
)


def table(counts, rows=(), cols=()):
    return ContingencyTable(np.array(counts, dtype=float), rows, cols)


def margins(table):
    """A table's row sums and column sums, as a fit takes its target margins."""
    return table.counts.sum(axis=1), table.counts.sum(axis=0)


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_rejects_negative_counts():
    with pytest.raises(TableError):
        table([[1, -1], [0, 2]])


def test_rejects_all_zero():
    with pytest.raises(TableError):
        table([[0, 0], [0, 0]])


def test_rejects_too_small():
    with pytest.raises(TableError):
        ContingencyTable(np.array([[1.0, 2.0]]))


def test_rejects_duplicate_labels():
    with pytest.raises(TableError):
        table([[1, 2], [3, 4]], rows=("L", "L"))


def test_rejects_labels_of_the_wrong_length():
    with pytest.raises(TableError, match="^label lengths must match table dimensions$"):
        ContingencyTable(np.ones((2, 2)), ("L",), ("L", "H"))


def test_counts_are_immutable():
    t = table([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        t.counts[0, 0] = 9


def singles_entry_points(t, singles):
    """Each library call that takes the singles of ``t``, on ``singles``."""
    return [
        lambda: fit("csa", t, *margins(t), singles=singles),
        lambda: evaluate("msm", t, singles=singles),
        lambda: evaluate("or", t, singles=singles),
        lambda: decompose(t, t, "csa", singles=(singles, ([1, 1], [1, 1]))),
        lambda: decompose(t, t, "ipf", singles=(([1, 1], [1, 1]), singles)),
    ]


def test_singles_dimensions_checked():
    t = table([[1, 2], [3, 4]])
    for call in singles_entry_points(t, ([1], [1, 2])):
        with pytest.raises(TableError,
                           match="^single_men must have one entry per husband category$"):
            call()
    for call in singles_entry_points(t, ([1, 2], [1])):
        with pytest.raises(TableError,
                           match="^single_women must have one entry per wife category$"):
            call()
    for call in singles_entry_points(t, ([1, -2], [1, 2])):
        with pytest.raises(TableError, match="^singles counts must be nonnegative$"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_singles_are_refused(bad):
    # NaN < 0 is false, so a sign test alone let NaN singles through: the
    # surplus matrix came out NaN where it should have been refused
    t = table([[40, 10], [20, 30]])
    for singles in (([bad, 5], [3, 3]), ([5, 5], [3, bad])):
        for call in singles_entry_points(t, singles):
            with pytest.raises(TableError, match="^singles counts must be finite$"):
                call()


def test_marginals_consistency_checked():
    with pytest.raises(TableError):
        fit("ipf", table([[5, 5], [5, 5]]), [10, 10], [5, 5])
    with pytest.raises(TableError):
        lattice([10, 10], [5, 5])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "counts,message",
    [
        ([[1, NAN], [2, 3]], "counts must be finite"),
        ([[1, INF], [2, 3]], "counts must be finite"),
        ([[1, -INF], [2, 3]], "counts must be finite"),
        ([[1, -1], [2, 3]], "counts must be nonnegative"),
        ([[NAN, -1], [2, 3]], "counts must be finite"),
        ([[0, 0], [0, 0]], "at least one count must be positive"),
        ([[-1, 0], [0, 0]], "counts must be nonnegative"),
        ([[1, 2, 3]], "table must be at least 2x2, got 1x3"),
        ([[[1, 2], [3, 4]]] * 2, "counts must be 2-dimensional, got ndim=3"),
    ],
)
def test_table_validation_messages(counts, message):
    with pytest.raises(TableError) as info:
        ContingencyTable(np.array(counts, dtype=float))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "rows,cols,message",
    [
        ([1, -INF], [1, 1], "marginal sums must be nonnegative"),
        ([3, -1], [1, 1], "marginal sums must be nonnegative"),
        ([NAN, -1], [1, 1], "marginal sums must be nonnegative"),
        ([1, 1], [NAN, -1], "marginal sums must be nonnegative"),
        ([[1, 1]], [2], "marginal sums must be vectors"),
        ([[[1]]], [1], "marginal sums must be vectors"),
        ([1, 1], [1, 2], "column sums do not add up to the total"),
        ([1, NAN], [1, 1], "marginal sums must be finite"),
        ([1, INF], [1, 1], "marginal sums must be finite"),
    ],
)
def test_marginals_validation_messages(rows, cols, message):
    # a fit and the lattice refuse the margins before any stacked work
    for call in (lambda: fit("ipf", table([[1, 1], [1, 1]]), rows, cols),
                 lambda: lattice(rows, cols)):
        with pytest.raises(TableError) as info:
            call()
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------

def test_merge_blocks_sum():
    t = table([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    merged = merge_categories(t, [(0,), (1, 2)], [(0,), (1, 2)])
    assert merged.counts.tolist() == [[1, 5], [11, 28]]


def test_merge_identity_partition_is_noop():
    t = table([[1, 2], [3, 4]])
    merged = merge_categories(t, [(0,), (1,)], [(0,), (1,)])
    assert np.array_equal(merged.counts, t.counts)


def test_merge_3x2_example():
    t = table([[10, 0], [5, 5], [0, 10]])
    merged = merge_categories(t, [(0, 1), (2,)], [(0,), (1,)])
    assert merged.counts.tolist() == [[15, 5], [0, 10]]


def test_merge_labels_join():
    t = table([[1, 2, 3], [4, 5, 6], [7, 8, 9]], rows=("a", "b", "c"), cols=("x", "y", "z"))
    merged = merge_categories(t, [(0,), (1, 2)], [(0, 1), (2,)])
    assert merged.row_labels == ("a", "b+c")
    assert merged.col_labels == ("x+y", "z")


@pytest.mark.parametrize(
    "rowp,colp",
    [
        ([(0, 2), (1,)], [(0,), (1, 2)]),   # non-contiguous
        ([(0,), (1,)], [(0,), (1, 2)]),     # not covering rows
        ([(0, 1, 2)], [(0,), (1, 2)]),      # single row block
        ([(1,), (0,), (2,)], [(0,), (1, 2)]),  # reordered
    ],
)
def test_merge_rejects_bad_partitions(rowp, colp):
    t = table([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    with pytest.raises(PartitionError):
        merge_categories(t, rowp, colp)


def test_merge_commutes_with_marginals():
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = table(rng.integers(0, 20, size=(4, 3)) + np.eye(4, 3))
        merged = merge_categories(t, [(0, 1), (2, 3)], [(0,), (1, 2)])
        rows, cols = margins(t)
        merged_rows, merged_cols = margins(merged)
        assert merged_rows.tolist() == [rows[0] + rows[1], rows[2] + rows[3]]
        assert merged_cols.tolist() == [cols[0], cols[1] + cols[2]]
        assert merged_rows.sum() == rows.sum()


def merged_pool(values, partition):
    """A singles vector merged with the couples: one block sum per block."""
    return [_block_sum(values, slice(block[0], block[-1] + 1)) for block in partition]


def test_merge_with_singles_sums_pools():
    couples = table([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    men, women = np.array([1.0, 2, 3]), np.array([4.0, 5, 6])
    rows, cols = [(0, 1), (2,)], [(0,), (1, 2)]
    merged = merge_categories(couples, rows, cols)
    assert merged.counts.tolist() == [[5, 16], [7, 17]]
    assert merged_pool(men, rows) == [3, 3]
    assert merged_pool(women, cols) == [4, 11]


# The block summations that the one kernel replaced, kept as references.

def _ix_merge(counts, rows, cols):
    """``merge_categories``' loop: an ``np.ix_`` copy per block, summed."""
    out = np.zeros((len(rows), len(cols)))
    for i, rblock in enumerate(rows):
        for j, cblock in enumerate(cols):
            out[i, j] = counts[np.ix_(rblock, cblock)].sum()
    return out


def _reference_split_sums(counts):
    """``indicators._split_sums``' per-split reduce of each block's copy."""
    *lead, n, m = counts.shape
    flat = (*lead, -1)
    sums = np.empty((4, *lead, n - 1, m - 1))
    for j in range(1, n):
        top, bottom = counts[..., :j, :], counts[..., j:, :]
        for k in range(1, m):
            blocks = (top[..., :k], top[..., k:], bottom[..., :k], bottom[..., k:])
            sums[:, ..., j - 1, k - 1] = [
                np.add.reduce(block.reshape(flat), axis=-1) for block in blocks
            ]
    return sums


def _masked_two_block_sums(values, cut):
    """AC10's sums of the first ``cut`` entries of each vector of a stack
    (T, k) and of the rest, with ``np.where`` masks, as (T, 2)."""
    low = np.arange(values.shape[-1]) < cut[:, None]
    return np.stack([np.where(low, values, 0.0).sum(axis=-1),
                     np.where(low, 0.0, values).sum(axis=-1)], axis=-1)


def _partitions(k):
    """Every ordered cover of ``k`` categories by two or more contiguous blocks."""
    for size in range(1, k):
        for cuts in itertools.combinations(range(1, k), size):
            bounds = (0, *cuts, k)
            yield [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])]


def _random_floats(rng, shape):
    """Non-integer counts at a random scale from 1e-7 to 1e7."""
    return rng.uniform(0.01, 1.0, size=shape) * 10.0 ** rng.uniform(-7, 7)


def _same_bytes(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n,m", itertools.product(range(2, 6), repeat=2))
def test_every_merge_sums_blocks_as_the_replaced_code_did(n, m):
    rng = np.random.default_rng(100 * n + m)
    for _ in range(3):
        counts = _random_floats(rng, (n, m))
        men, women = _random_floats(rng, n), _random_floats(rng, m)
        for rowp, colp in itertools.product(_partitions(n), _partitions(m)):
            merged = merge_categories(table(counts), rowp, colp)
            assert _same_bytes(merged.counts, _ix_merge(counts, rowp, colp))
            assert _same_bytes(merged_pool(men, rowp), [men[list(b)].sum() for b in rowp])
            assert _same_bytes(merged_pool(women, colp), [women[list(b)].sum() for b in colp])
    # every split, of one table and of a stack, and each stacked block
    stack = _random_floats(rng, (7, n, m))
    assert _same_bytes(_split_sums(stack[0]), _reference_split_sums(stack[0]))
    assert _same_bytes(_split_sums(stack), _reference_split_sums(stack))
    for rows, cols in itertools.product(_partitions(n), _partitions(m)):
        blocks = [[_block_sum(stack, slice(r[0], r[-1] + 1), slice(c[0], c[-1] + 1))
                   for c in cols] for r in rows]
        assert _same_bytes(np.moveaxis(blocks, -1, 0),
                           [_ix_merge(counts, rows, cols) for counts in stack])
    # two blocks of a stack of vectors, each cut after its own first ``cut``
    for k in (n, m):
        vectors = _random_floats(rng, (7, k))
        cut = rng.integers(1, k, size=7)
        halves = [[_block_sum(vectors[t], s) for s in (slice(None, c), slice(c, None))]
                  for t, c in enumerate(cut)]
        assert _same_bytes(halves, _masked_two_block_sums(vectors, cut))
        at_every_cut = np.array([[_block_sum(vectors, s) for s in (slice(None, c), slice(c, None))]
                                 for c in range(1, k)])
        assert _same_bytes(at_every_cut[cut - 1, :, np.arange(7)], halves)


def test_block_sums_of_an_empty_stack_are_empty():
    # a run with no present wave cuts a stack of none
    assert _block_sum(np.zeros((0, 3, 3)), slice(1, 3), slice(0, 2)).shape == (0,)
    assert _block_sum(np.zeros((0, 3)), slice(0, 2)).shape == (0,)
    assert _block_sum(np.zeros((0, 2, 3, 3)), slice(0, 1), slice(1, 3)).shape == (0, 2)


# ---------------------------------------------------------------------------
# reference matchings
# ---------------------------------------------------------------------------

def _random_cells(rows, cols):
    rows, cols = np.array(rows, dtype=float), np.array(cols, dtype=float)
    return random_counts(rows, cols, rows.sum()).tolist()


def _pam_cells(rows, cols):
    return pam_counts(np.array([rows], dtype=float), np.array([cols], dtype=float))[0].tolist()


def test_random_match_examples():
    assert _random_cells([40, 60], [50, 50]) == [[20, 20], [30, 30]]
    assert _random_cells([100, 0], [50, 50]) == [[50, 50], [0, 0]]
    assert _random_cells([10, 10, 10], [15, 15]) == [[5, 5], [5, 5], [5, 5]]
    # and on a stack of margins, one table per instance
    stacked = random_counts(np.array([[40.0, 60.0], [100.0, 0.0]]),
                            np.array([[50.0, 50.0], [50.0, 50.0]]), np.array([100.0, 100.0]))
    assert stacked.tolist() == [[[20, 20], [30, 30]], [[50, 50], [0, 0]]]


def test_pam_match_examples():
    assert _pam_cells([40, 60], [50, 50]) == [[40, 0], [10, 50]]
    assert _pam_cells([50, 50], [50, 50]) == [[50, 0], [0, 50]]
    assert _pam_cells([10, 10, 10], [15, 15]) == [[10, 0], [5, 5], [0, 10]]


def test_matchings_reject_zero_total():
    # the matchings are built on margins that a fit has checked: the
    # projection fit, which builds both, refuses a zero target total
    with pytest.raises(DegenerateInputError, match="target total must be positive"):
        fit("meda", table([[40, 10], [20, 30]]), [0.0, 0.0], [0.0, 0.0])


def test_matchings_reproduce_marginals():
    rng = np.random.default_rng(3)
    for _ in range(100):
        rows = rng.integers(0, 30, size=rng.integers(2, 5))
        cols = rng.integers(0, 30, size=rng.integers(2, 5))
        if rows.sum() == 0:
            continue
        diff = rows.sum() - cols.sum()
        cols = np.append(cols, max(diff, 0))
        rows = np.append(rows, max(-diff, 0))
        for matched in (np.array(_random_cells(rows, cols)), np.array(_pam_cells(rows, cols))):
            assert np.allclose(matched.sum(axis=1), rows, rtol=1e-9, atol=1e-9)
            assert np.allclose(matched.sum(axis=0), cols, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# homogamy share
# ---------------------------------------------------------------------------

def test_homogamy_share_values():
    assert homogamy_shares(table([[40, 10], [20, 30]]).counts) == pytest.approx(0.70)
    assert homogamy_shares(table([[7, 0], [0, 3]]).counts) == 1.0
    assert homogamy_shares(table([[0, 5], [5, 0]]).counts) == 0.0


def test_homogamy_share_needs_square():
    t = table([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ShapeError, match="^homogamy share needs a square table, got 3x2$"):
        decompose(t, t)


# ---------------------------------------------------------------------------
# enumeration and its independent counting oracle
# ---------------------------------------------------------------------------

def count_tables_by_generating_function(rows, cols):
    """Independent count of nonnegative integer tables with fixed margins.

    Multiplies the per-row generating polynomials (complete homogeneous
    monomials truncated by the column sums) and extracts the coefficient of
    the column-sum monomial, so it never builds any table.
    """
    cols = tuple(cols)
    poly = {tuple([0] * len(cols)): 1}
    for r in rows:
        new = {}
        for expo, coeff in poly.items():
            stack = [(0, r, expo)]
            while stack:
                j, remaining, acc = stack.pop()
                if j == len(cols) - 1:
                    if acc[j] + remaining <= cols[j]:
                        out = list(acc)
                        out[j] += remaining
                        key = tuple(out)
                        new[key] = new.get(key, 0) + coeff
                    continue
                for v in range(min(remaining, cols[j] - acc[j]) + 1):
                    out = list(acc)
                    out[j] += v
                    stack.append((j + 1, remaining - v, tuple(out)))
        poly = new
    return poly.get(cols, 0)


def test_enumerate_examples():
    assert len(lattice([1, 1], [1, 1])) == 2
    assert len(lattice([2, 2], [2, 2])) == 3
    only = lattice([2, 0], [1, 1])
    assert only.tolist() == [[[1, 1], [0, 0]]]


def test_enumerate_cap_guard():
    with pytest.raises(EnumerationCapError):
        lattice([30, 30], [30, 30])


def test_enumerate_requires_integers():
    with pytest.raises(DegenerateInputError):
        lattice([1.5, 0.5], [1.0, 1.0])


def test_enumerate_refuses_disagreeing_sums():
    # the margins check accepts a gap of up to 1e-9 of the total; the
    # lattice needs equal integer sums
    with pytest.raises(DegenerateInputError, match="^row and column sums disagree$"):
        lattice([1e12, 0], [1e12 + 500, 0])


def test_enumerate_count_matches_generating_function():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        rows = rng.integers(0, 6, size=n)
        cols = rng.integers(0, 6, size=m)
        diff = int(rows.sum() - cols.sum())
        if diff > 0:
            cols[0] += diff
        elif diff < 0:
            rows[0] += -diff
        if rows.sum() == 0 or rows.sum() > 16:
            continue
        points = lattice(rows.astype(float), cols.astype(float))
        assert len(points) == count_tables_by_generating_function(
            rows.tolist(), cols.tolist()
        )
        seen = {tuple(p.ravel().tolist()) for p in points}
        assert len(seen) == len(points)
        for p in points:
            assert p.sum(axis=1).tolist() == rows.tolist()
            assert p.sum(axis=0).tolist() == cols.tolist()


def recursive_enumeration(rows, cols):
    """The recursive row-by-row enumeration that ``lattice`` replaced: every
    bounded composition of a row sum, then the next row on what remains."""
    m = len(cols)
    results = []
    current = np.zeros((len(rows), m), dtype=int)

    def compositions(amount, bounds, j, row_out):
        if j == m - 1:
            if amount <= bounds[j]:
                row_out[j] = amount
                yield row_out
            return
        for v in range(min(amount, bounds[j]) + 1):
            row_out[j] = v
            yield from compositions(amount - v, bounds, j + 1, row_out)

    def recurse(i, remaining):
        if i == len(rows):
            results.append(current.copy())
            return
        for row in compositions(rows[i], remaining, 0, [0] * m):
            current[i, :] = row
            recurse(i + 1, [remaining[j] - row[j] for j in range(m)])

    recurse(0, list(cols))
    return results


def test_lattice_is_the_recursive_enumeration_in_its_order():
    rng = np.random.default_rng(11)
    shapes = [(n, m) for n in range(2, 5) for m in range(2, 5)]
    zero_margins = 0
    for i in range(120):
        n, m = shapes[i % len(shapes)]
        rows = rng.integers(0, 5, size=n)
        cols = rng.integers(0, 5, size=m)
        diff = int(rows.sum() - cols.sum())
        if diff > 0:
            cols[int(rng.integers(0, m))] += diff
        elif diff < 0:
            rows[int(rng.integers(0, n))] += -diff
        if rows.sum() == 0:
            continue
        zero_margins += (rows == 0).any() or (cols == 0).any()
        points = lattice(rows.astype(float), cols.astype(float), cap=40)
        expected = recursive_enumeration(rows.tolist(), cols.tolist())
        assert points.dtype.kind == "i"
        assert points.shape == (len(expected), n, m)
        assert [p.tolist() for p in points] == [e.tolist() for e in expected]
    assert zero_margins > 10


def test_enumeration_guards():
    with pytest.raises(EnumerationCapError):
        lattice([3, 3], [3, 3], cap=5)
    assert len(lattice([3, 2], [2, 3], cap=5)) == 3
    with pytest.raises(DegenerateInputError):
        lattice([1.5, 0.5], [1.0, 1.0])
    with pytest.raises(DegenerateInputError):
        lattice([0, 0], [0, 0])


def test_pam_maximizes_homogamy_when_distributions_coincide():
    # the dominance in homogamy share holds in the special case the weak
    # matching criterion assumes: men and women share one distribution, so
    # the assortative matching is exactly the diagonal table
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        rows = rng.integers(1, 5, size=n)
        if rows.sum() > 20:
            continue
        best = homogamy_shares(table(_pam_cells(rows, rows)).counts)
        assert best == 1.0
        points = lattice(rows.astype(float), rows.astype(float), cap=20)
        assert (homogamy_shares(points) <= best + 1e-12).all()


def test_pam_maximizes_survival_sums():
    # the assortative matching dominates every same-marginals table in all
    # top-right cumulative sums
    def survival(counts):
        return counts[..., ::-1, ::-1].cumsum(-2).cumsum(-1)[..., ::-1, ::-1]

    rng = np.random.default_rng(5)
    for _ in range(20):
        rows = rng.integers(1, 5, size=2)
        cols = rng.integers(1, 5, size=3)
        diff = int(rows.sum() - cols.sum())
        if diff > 0:
            cols[0] += diff
        elif diff < 0:
            rows[0] += -diff
        pam_grid = survival(np.array(_pam_cells(rows, cols)))
        points = lattice(rows.astype(float), cols.astype(float), cap=20)
        assert np.all(survival(points) <= pam_grid + 1e-12)
