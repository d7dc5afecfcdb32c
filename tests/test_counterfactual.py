import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from homlab.cli import main
from homlab.counterfactual import METHOD_TAGS, _csa_kernel, fit, fit_stack
from homlab.criteria import _random_positive_split
from homlab.errors import (
    ConvergenceError,
    DegenerateInputError,
    GllUndefinedError,
    InfeasibilityError,
    ShapeError,
    UndefinedIndicatorError,
    UndefinedWeightError,
)
from homlab.indicators import CONTINUOUS, PAPER_INTEGER, evaluate, gll
from homlab.tables import (
    ContingencyTable,
    Marginals,
    TableWithSingles,
    marginals,
    merge_categories,
    pam_counts,
    random_counts,
)


def table(counts):
    return ContingencyTable(np.array(counts, dtype=float))


BASE = table([[40, 10], [20, 30]])


def random_positive(rng, shape=(2, 2)):
    return table(rng.integers(1, 51, size=shape))


def random_target(rng, shape=(2, 2)) -> Marginals:
    return marginals(random_positive(rng, shape))


def random_table(m: Marginals) -> ContingencyTable:
    return table(random_counts(m.row_sums, m.col_sums, m.total))


def pam_table(m: Marginals) -> ContingencyTable:
    return table(pam_counts(m.row_sums[None], m.col_sums[None])[0])


# ---------------------------------------------------------------------------
# survival grid
# ---------------------------------------------------------------------------

def test_survival_grid_roundtrip():
    # on its own margins, the NM fit pins every survival sum of the source,
    # and inclusion-exclusion gives back its cells, also off the square
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = random_positive(rng, (3, 4))
        for rounding in (PAPER_INTEGER, CONTINUOUS):
            result = fit("nm", t, marginals(t), rounding)
            assert np.allclose(result.table.counts, t.counts)


# ---------------------------------------------------------------------------
# iterative proportional fitting
# ---------------------------------------------------------------------------

def test_ipf_fixpoint():
    result = fit("ipf", BASE, marginals(BASE))
    assert result.iterations == 0
    assert np.array_equal(result.table.counts, BASE.counts)


def test_ipf_known_solution():
    result = fit("ipf", BASE, Marginals([60, 40], [50, 50]))
    assert np.allclose(result.table.counts, [[40, 20], [10, 30]], atol=1e-8)
    assert evaluate("or", result.table)[0] == pytest.approx(6.0, rel=1e-9)


def test_ipf_scaling_target():
    result = fit("ipf", BASE, Marginals([100, 100], [120, 80]))
    assert np.allclose(result.table.counts, 2 * BASE.counts, atol=1e-8)


def test_ipf_preserves_zeros():
    src = table([[10, 0], [5, 25]])
    result = fit("ipf", src, Marginals([10, 30], [12, 28]))
    assert result.table.counts[0, 1] == 0.0
    got = marginals(result.table)
    assert np.allclose(got.row_sums, [10, 30], atol=1e-8)
    assert np.allclose(got.col_sums, [12, 28], atol=1e-8)


def test_ipf_zero_pattern_infeasible():
    src = table([[10, 0], [5, 0]])  # second wife category empty
    with pytest.raises(InfeasibilityError):
        fit("ipf", src, Marginals([10, 10], [10, 10]))


def test_ipf_nonconvergence_guard():
    # a diagonal zero pattern cannot hold row and column targets that
    # disagree cell by cell; that is known before the first sweep
    src = table([[5, 0, 0], [0, 5, 0], [0, 0, 5]])
    for max_iter in (50, 0):
        with pytest.raises(InfeasibilityError, match=r"rows \[0\] reach only columns \[0\]"):
            fit("ipf", src, Marginals([10, 5, 5], [5, 10, 5]), tol=1e-12, max_iter=max_iter)
    # reachable only as cell (0,1) tends to zero: the raking loop must hit
    # the iteration cap
    src = table([[5, 5], [0, 5]])
    with pytest.raises(ConvergenceError):
        fit("ipf", src, Marginals([5, 10], [5, 10]), tol=1e-12, max_iter=50)


@pytest.mark.parametrize("k,error", [(12, InfeasibilityError), (13, ConvergenceError)])
def test_ipf_reachability_check_stops_at_twelve_categories(k, error):
    # row 0 wants 10 couples but its only support cell is column 0, which
    # wants 5; past 12 categories the subsets are not enumerated
    src = table(5 * np.eye(k))
    rows = [10] + [5] * (k - 2) + [0]
    cols = [5] * (k - 2) + [10, 0]
    with pytest.raises(error):
        fit("ipf", src, Marginals(rows, cols), max_iter=5)


def reference_ipf(source, target, tol, max_iter):
    """The sweep loop before unreachable targets were rejected up front:
    every sweep recomputes the row sums it divides by."""
    counts = source.counts.astype(float).copy()
    if np.any((counts.sum(axis=1) == 0) & (target.row_sums > 0)):
        raise InfeasibilityError("a target row is positive but the source row is all zeros")
    if np.any((counts.sum(axis=0) == 0) & (target.col_sums > 0)):
        raise InfeasibilityError("a target column is positive but the source column is all zeros")

    def marginal_error():
        row_err = np.abs(counts.sum(axis=1) - target.row_sums).max()
        col_err = np.abs(counts.sum(axis=0) - target.col_sums).max()
        return float(max(row_err, col_err))

    err = marginal_error()
    iterations = 0
    while err > tol:
        if iterations >= max_iter:
            raise ConvergenceError(f"residual {err:.3g}")
        rs = counts.sum(axis=1)
        counts *= np.divide(target.row_sums, rs, out=np.zeros_like(rs), where=rs > 0)[:, None]
        cs = counts.sum(axis=0)
        counts *= np.divide(target.col_sums, cs, out=np.zeros_like(cs), where=cs > 0)[None, :]
        iterations += 1
        err = marginal_error()
    return counts, iterations, err


def test_ipf_matches_the_sweep_loop_reference_with_zero_cells():
    rng = np.random.default_rng(17)
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3)]
    outcomes = {"same": 0, "rejected": 0, "capped": 0}
    for i in range(300):
        shape = shapes[i % len(shapes)]
        counts = rng.integers(1, 51, size=shape) * (rng.random(shape) >= 0.25)
        if not counts.any():
            continue
        total = int(rng.integers(40, 200))
        target = Marginals(
            _random_positive_split(rng, total, shape[0]),
            _random_positive_split(rng, total, shape[1]),
        )
        src = table(counts)
        try:
            expected = reference_ipf(src, target, tol=1e-12, max_iter=300)
        except ConvergenceError:
            expected = None
        except InfeasibilityError as exc:
            with pytest.raises(InfeasibilityError, match=str(exc)):
                fit("ipf", src, target, tol=1e-12, max_iter=300)
            continue
        try:
            result = fit("ipf", src, target, tol=1e-12, max_iter=300)
        except InfeasibilityError:
            assert expected is None
            outcomes["rejected"] += 1
            continue
        except ConvergenceError:
            assert expected is None
            outcomes["capped"] += 1
            continue
        assert expected is not None
        counts_ref, iterations, err = expected
        assert result.table.counts.tobytes() == counts_ref.tobytes()
        assert result.iterations == iterations
        assert result.max_marginal_error == err
        outcomes["same"] += 1
    assert outcomes["same"] > 100 and outcomes["rejected"] > 50 and outcomes["capped"], outcomes


def test_ipf_matches_marginals_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(50):
        src = random_positive(rng, (3, 3))
        target = random_target(rng, (3, 3))
        result = fit("ipf", src, target, tol=1e-12)
        got = marginals(result.table)
        assert np.allclose(got.row_sums, target.row_sums, rtol=1e-9)
        assert np.allclose(got.col_sums, target.col_sums, rtol=1e-9)


# ---------------------------------------------------------------------------
# determinant-preserving fit
# ---------------------------------------------------------------------------

def test_mdba_known_solution():
    result = fit("mdba", BASE, Marginals([40, 60], [50, 50]))
    assert np.allclose(result.table.counts, [[30, 10], [20, 40]])


def test_mdba_fixpoint_and_rescaling():
    assert np.allclose(fit("mdba", BASE, marginals(BASE)).table.counts, BASE.counts)
    doubled = fit("mdba", BASE, Marginals([100, 100], [120, 80]))
    assert np.allclose(doubled.table.counts, 2 * BASE.counts)


def test_mdba_zero_determinant_gives_independence():
    indep = table([[24, 16], [36, 24]])
    target = Marginals([30, 70], [40, 60])
    result = fit("mdba", indep, target)
    assert np.allclose(result.table.counts, random_table(target).counts)


def test_mdba_infeasible_signals():
    src = table([[10, 30], [30, 30]])
    with pytest.raises(InfeasibilityError):
        fit("mdba", src, Marginals([10, 90], [10, 90]))


def test_mdba_rejects_larger_tables():
    with pytest.raises(ShapeError):
        fit("mdba", table([[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
            Marginals([6, 15, 24], [12, 15, 18]))


# ---------------------------------------------------------------------------
# projection fit
# ---------------------------------------------------------------------------

def test_meda_known_solution():
    result = fit("meda", BASE, Marginals([40, 60], [50, 50]))
    assert result.diagnostics["v"] == pytest.approx(0.5)
    assert np.allclose(result.table.counts, [[30, 10], [20, 40]])


def test_meda_projects_onto_endpoints():
    m = marginals(BASE)
    target = Marginals([40, 60], [50, 50])
    at_random = fit("meda", random_table(m), target)
    assert at_random.diagnostics["v"] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(at_random.table.counts, random_table(target).counts)
    at_pam = fit("meda", pam_table(m), target)
    assert at_pam.diagnostics["v"] == pytest.approx(1.0)
    assert np.allclose(at_pam.table.counts, pam_table(target).counts)


def test_meda_degenerate_weight():
    # one-sided margins make the random and assortative benchmarks coincide
    src = table([[30, 20], [0, 0]])
    with pytest.raises(UndefinedWeightError):
        fit("meda", src, Marginals([10, 10], [10, 10]))


def test_meda_infeasibility_reports_weight():
    src = table([[10, 30], [30, 30]])
    with pytest.raises(InfeasibilityError) as err:
        fit("meda", src, Marginals([10, 90], [10, 90]))
    assert err.value.context["v"] == pytest.approx(-0.25)


def test_meda_weight_brute_force_grid():
    # the closed-form weight must beat a dense grid of alternatives and the
    # grid's own minimizer must sit next to it
    rng = np.random.default_rng(17)
    for _ in range(20):
        src = random_positive(rng)
        m = marginals(src)
        rnd = random_table(m).counts
        pam = pam_table(m).counts
        v = fit("meda", src, m).diagnostics["v"]  # the weight on its own margins

        def distance(weight):
            return float(((src.counts - ((1 - weight) * rnd + weight * pam)) ** 2).sum())

        grid = np.linspace(v - 2.0, v + 2.0, 4001)
        dists = [distance(g) for g in grid]
        assert distance(v) <= min(dists) + 1e-9
        best = grid[int(np.argmin(dists))]
        assert abs(best - v) <= (grid[1] - grid[0]) + 1e-9


# ---------------------------------------------------------------------------
# LL-preserving fit
# ---------------------------------------------------------------------------

def test_nm_known_solution():
    result = fit("nm", BASE, Marginals([40, 60], [50, 50]))
    assert np.allclose(result.table.counts, [[30, 10], [20, 40]])
    check = gll(result.table)
    assert check[0, 0] == pytest.approx(0.5)


def test_nm_fixpoint():
    result = fit("nm", BASE, marginals(BASE))
    assert np.allclose(result.table.counts, BASE.counts, atol=1e-9)


def test_nm_perfect_sorting_moves_to_pam():
    result = fit("nm", table([[50, 0], [0, 50]]), Marginals([30, 70], [70, 30]))
    assert np.allclose(result.table.counts, [[30, 0], [40, 30]])


def test_nm_infeasible_signals_with_cell():
    src = table([[10, 30], [30, 30]])
    with pytest.raises(InfeasibilityError) as err:
        fit("nm", src, Marginals([10, 90], [10, 90]))
    assert err.value.context["cell"] == (0, 0)
    assert err.value.context["value"] == pytest.approx(-1.25)


def test_nm_decomposition_example():
    # two generations with identical homogamy share but different margins:
    # the rebuilt table carries the late generation's sorting onto the early
    # margins exactly
    early = table([[40, 10], [20, 30]])
    late = table([[20, 20], [10, 50]])
    assert gll(late)[0, 0] == pytest.approx(8 / 18)
    result = fit("nm", late, marginals(early))
    assert gll(result.table)[0, 0] == pytest.approx(8 / 18, abs=1e-12)
    got = marginals(result.table)
    assert np.allclose(got.row_sums, [50, 50])
    assert np.allclose(got.col_sums, [60, 40])
    share = np.trace(result.table.counts) / 100
    assert share == pytest.approx(61 / 90, abs=1e-12)


def test_nm_preserves_full_gll_matrix():
    rng = np.random.default_rng(23)
    done = 0
    while done < 40:
        src = random_positive(rng, (3, 4))
        target = random_target(rng, (3, 4))
        try:
            result = fit("nm", src, target, CONTINUOUS)
        except InfeasibilityError:
            continue
        assert np.allclose(
            gll(result.table, CONTINUOUS), gll(src, CONTINUOUS), atol=1e-9
        )
        got = marginals(result.table)
        assert np.allclose(got.row_sums, target.row_sums, rtol=1e-9)
        assert np.allclose(got.col_sums, target.col_sums, rtol=1e-9)
        done += 1


def test_nm_continuous_commutes_with_merging():
    rng = np.random.default_rng(29)
    done = 0
    while done < 30:
        src = random_positive(rng, (3, 3))
        target_table = random_positive(rng, (3, 3))
        parts = [(0,), (1, 2)]
        try:
            fine = fit("nm", src, marginals(target_table), CONTINUOUS)
            coarse = fit(
                "nm",
                merge_categories(src, parts, parts),
                marginals(merge_categories(target_table, parts, parts)),
                CONTINUOUS,
            )
        except InfeasibilityError:
            continue
        merged_fine = merge_categories(fine.table, parts, parts)
        assert np.allclose(merged_fine.counts, coarse.table.counts, atol=1e-9)
        done += 1


def test_ipf_fails_merge_commutation_somewhere():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(200):
        src = random_positive(rng, (3, 3))
        target_table = random_positive(rng, (3, 3))
        parts = [(0,), (1, 2)]
        fine = fit("ipf", src, marginals(target_table), tol=1e-12)
        coarse = fit(
            "ipf",
            merge_categories(src, parts, parts),
            marginals(merge_categories(target_table, parts, parts)),
            tol=1e-12,
        )
        merged = merge_categories(fine.table, parts, parts)
        worst = max(worst, float(np.abs(merged.counts - coarse.table.counts).max()))
    assert worst > 1e-3


# ---------------------------------------------------------------------------
# surplus-preserving fit
# ---------------------------------------------------------------------------

def couples_with_singles():
    return TableWithSingles(table([[4, 2], [2, 8]]), [1, 2], [1, 2])


def csa_onto(tws, men, women):
    """The CSA fit of ``tws`` onto the target populations ``men`` and
    ``women``. The fit reads only couples plus singles, so the target
    couple margins are zero and every target member is counted single."""
    no_couples = Marginals(np.zeros(len(men)), np.zeros(len(women)))
    return fit("csa", tws, no_couples, target_singles=(men, women))


def solve_csa(msm, men, women, tol=1e-11, max_iter=10000):
    """The CSA kernel on one surplus matrix and its target populations:
    ``(couples, single men, single women, iterations, residual)``, or the
    error of the fit."""
    fits = _csa_kernel(*(np.asarray(a, dtype=float)[None] for a in (msm, men, women)),
                       tol, max_iter)
    if fits.errors[0] is not None:
        raise fits.errors[0]
    return (fits.counts[0], fits.extra["single_men"][0], fits.extra["single_women"][0],
            int(fits.iterations[0]), float(fits.residual[0]))


def test_csa_fixpoint():
    tws = couples_with_singles()
    result = fit("csa", tws, marginals(tws.couples))
    assert np.allclose(result.table.counts, tws.couples.counts, atol=1e-8)
    assert np.allclose(result.diagnostics["single_men"], tws.single_men, atol=1e-8)


def test_csa_zero_surplus_leaves_everyone_single():
    couples, mu_m, mu_w, _, _ = solve_csa(
        np.zeros((2, 2)), np.array([5.0, 7.0]), np.array([6.0, 6.0])
    )
    assert np.allclose(couples, 0.0)
    assert np.allclose(mu_m, [5, 7])
    assert np.allclose(mu_w, [6, 6])


def test_csa_preserves_surplus_matrix():
    tws = couples_with_singles()
    result = csa_onto(tws, 2 * tws.men_population(), 2 * tws.women_population())
    refit = TableWithSingles(
        result.table,
        np.array(result.diagnostics["single_men"]),
        np.array(result.diagnostics["single_women"]),
    )
    assert np.allclose(
        evaluate("msm", refit), evaluate("msm", tws), atol=1e-9
    )


def test_csa_against_grid_search_oracle():
    """Coarse-to-fine grid search over the men's singles vector, solving the
    women's side exactly, must land on the fixed point's singles."""
    tws = couples_with_singles()
    msm = evaluate("msm", tws).reshape(tws.couples.counts.shape)
    men = 2 * tws.men_population()
    women = 2 * tws.women_population()

    def residual(mu_m):
        x = np.sqrt(mu_m)
        s = msm.T @ x
        y = 0.5 * (-s + np.sqrt(s * s + 4.0 * women))
        couples = msm * np.outer(x, y)
        return float(
            np.abs(mu_m + couples.sum(axis=1) - men).max()
        )

    lo = np.array([1e-6, 1e-6])
    hi = men.astype(float)
    best = None
    for _ in range(6):
        axes = [np.linspace(lo[i], hi[i], 41) for i in range(2)]
        best = min(
            ((residual(np.array([u, v])), (u, v)) for u in axes[0] for v in axes[1]),
        )
        center = np.array(best[1])
        span = (hi - lo) / 8
        lo = np.maximum(center - span, 1e-6)
        hi = center + span
    fitted = csa_onto(tws, men, women)
    assert np.allclose(
        np.array(best[1]), fitted.diagnostics["single_men"], atol=1e-3
    )


def test_csa_rejects_nonpositive_targets():
    tws = couples_with_singles()
    with pytest.raises(DegenerateInputError, match="target populations must be strictly"):
        csa_onto(tws, np.array([0.0, 5.0]), np.array([5.0, 5.0]))
    # and the kernel refuses a negative or non-finite surplus matrix
    for bad in (-0.5, np.inf, np.nan):
        msm = np.array([[1.0, bad], [0.5, 2.0]])
        with pytest.raises(DegenerateInputError, match="must be finite and nonnegative"):
            solve_csa(msm, np.array([5.0, 5.0]), np.array([5.0, 5.0]))


def test_csa_newton_takes_few_steps():
    tws = couples_with_singles()
    for scale in (1, 2, 1000):
        result = csa_onto(
            tws, scale * tws.men_population(), tws.women_population()
        )
        assert 1 <= result.iterations <= 10


def test_csa_nonconvergence_names_the_residual():
    tws = couples_with_singles()
    with pytest.raises(ConvergenceError, match=r"in 1 iterations \(residual "):
        solve_csa(
            evaluate("msm", tws).reshape(tws.couples.counts.shape),
            2 * tws.men_population(),
            tws.women_population(),
            max_iter=1,
        )


def test_csa_zero_surplus_row_leaves_that_category_single():
    msm = np.array([[0.5, 1.2, 0.0], [0.0, 0.0, 0.0], [0.3, 0.0, 2.0]])
    men = np.array([40.0, 25.0, 60.0])
    women = np.array([35.0, 50.0, 45.0])
    couples, mu_m, mu_w, _, _ = solve_csa(msm, men, women)
    assert np.all(couples[1] == 0.0)
    assert mu_m[1] == pytest.approx(men[1], rel=1e-12)
    kept = [0, 2]
    sub_couples, sub_m, sub_w, _, _ = solve_csa(msm[kept], men[kept], women)
    assert np.allclose(couples[kept], sub_couples, rtol=1e-10, atol=0)
    assert np.allclose(mu_m[kept], sub_m, rtol=1e-10, atol=0)
    assert np.allclose(mu_w, sub_w, rtol=1e-10, atol=0)


def _refined_csa_couples(msm, men, women, mu_m, mu_w, steps=3):
    """Iterative refinement of a CSA root: the population excess is taken in
    extended precision, the Newton correction solved in float64."""
    k = len(men)
    big = np.longdouble
    x, y = np.sqrt(mu_m.astype(big)), np.sqrt(mu_w.astype(big))
    msm_big = msm.astype(big)
    for _ in range(steps):
        excess = np.concatenate([
            x * x + x * (msm_big @ y) - men.astype(big),
            y * y + y * (msm_big.T @ x) - women.astype(big),
        ])
        xf, yf = x.astype(float), y.astype(float)
        jacobian = np.block([
            [np.diag(2 * xf + msm @ yf), xf[:, None] * msm],
            [yf[:, None] * msm.T, np.diag(2 * yf + msm.T @ xf)],
        ])
        step = np.linalg.solve(jacobian, -excess.astype(float)).astype(big)
        x, y = x + step[:k], y + step[k:]
    return msm_big * np.outer(x, y)


def test_csa_matches_an_extended_precision_reference():
    rng = np.random.default_rng(2013)
    tol = 1e-11
    for _ in range(240):
        k = int(rng.integers(2, 5))
        msm = rng.gamma(1.0, 1.0, (k, k)) * rng.choice([0.05, 1.0, 20.0])
        msm[rng.random((k, k)) < 0.15] = 0.0
        men = rng.integers(1, 100_000, k).astype(float)
        women = rng.integers(1, 100_000, k).astype(float)
        couples, mu_m, mu_w, _, residual = solve_csa(msm, men, women, tol=tol)
        assert residual <= tol
        ref = _refined_csa_couples(msm, men, women, mu_m, mu_w)
        assert np.allclose(couples, ref.astype(float), rtol=1e-10, atol=0)
        big = np.longdouble
        identity = np.concatenate([
            (mu_m.astype(big) + couples.astype(big).sum(axis=1) - men)
            / np.maximum(men, 1.0),
            (mu_w.astype(big) + couples.astype(big).sum(axis=0) - women)
            / np.maximum(women, 1.0),
        ])
        assert float(np.abs(identity).max()) <= tol


def test_csa_converges_on_extreme_ranges():
    # surplus and populations spanning ten orders of magnitude and more
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        msm = np.exp(rng.uniform(-12, 12, (k, k))) * (rng.random((k, k)) > 0.2)
        men = np.exp(rng.uniform(0, 18, k))
        women = np.exp(rng.uniform(0, 18, k))
        *_, iterations, residual = solve_csa(msm, men, women)
        assert iterations <= 50 and residual <= 1e-11


def test_cli_decompose_reports_non_converging_csa_pairs(tmp_path):
    lines = ["year,state,sex,edu,count"]
    for year in (1960, 1970, 1980, 1990, 2000, 2010):
        for i, state in enumerate(("Alabama", "Missouri", "Texas")):
            for sex, edu, count in (("m", "L", 12), ("m", "H", 9),
                                    ("w", "L", 10), ("w", "H", 11)):
                lines.append(f"{year},{state},{sex},{edu},{count + i + year % 7}")
    singles = tmp_path / "singles.csv"
    singles.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"labels": ["L", "H"], "categories": "three",
                                  "method": "csa", "max_iter": 1}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        "decompose", "--config", str(config), "--couples",
        str(Path(__file__).parent / "fixtures" / "synthetic_panel.csv"),
        "--singles", str(singles), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out / "decomposition.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    states = [row for row in rows if row["state"] != "US"]
    assert len(states) == 15
    for row in states:
        assert row["status"].startswith(
            "excluded: ConvergenceError: surplus-preserving fit did not reach "
            "tol=1e-11 in 1 iterations (residual "
        )


# ---------------------------------------------------------------------------
# shared contracts
# ---------------------------------------------------------------------------

METHODS = ("ipf", "mdba", "meda", "nm")


@pytest.mark.parametrize("method", METHODS)
def test_fixpoint_property(method):
    rng = np.random.default_rng(101)
    for _ in range(40):
        src = random_positive(rng)
        result = fit(method, src, marginals(src), tol=1e-12)
        assert np.allclose(result.table.counts, src.counts, atol=1e-9)


@pytest.mark.parametrize("method", METHODS)
def test_marginal_matching(method):
    rng = np.random.default_rng(103)
    done = 0
    while done < 40:
        src = random_positive(rng)
        target = random_target(rng)
        try:
            result = fit(method, src, target, tol=1e-12)
        except InfeasibilityError:
            continue
        got = marginals(result.table)
        assert np.allclose(got.row_sums, target.row_sums, rtol=1e-9, atol=1e-9)
        assert np.allclose(got.col_sums, target.col_sums, rtol=1e-9, atol=1e-9)
        done += 1


def test_dispatcher_rejects_unknown_method():
    with pytest.raises(ValueError):
        fit("raking", BASE, marginals(BASE))
    # the library takes the canonical lower-case tags only; RunConfig is
    # where a user's tag is lowered
    for tag in ("IPF", " ipf"):
        with pytest.raises(ValueError, match=f"^unknown method tag: {tag!r}$"):
            fit(tag, BASE, marginals(BASE))


def test_dispatcher_csa_requires_singles():
    with pytest.raises(ShapeError):
        fit("csa", BASE, marginals(BASE))


# ---------------------------------------------------------------------------
# agreement of the two ratio-preserving constructions on 2x2 tables
# ---------------------------------------------------------------------------

def integer_benchmark_instance(rng):
    """(source, target) pair whose random benchmarks are integers and whose
    source sorts nonnegatively."""
    from test_indicators import integer_benchmark_tables

    src = integer_benchmark_tables(rng, 1)[0]
    tgt = integer_benchmark_tables(rng, 1)[0]
    return src, marginals(tgt)


def test_nm_meda_coincide_on_integer_benchmarks():
    rng = np.random.default_rng(55)
    done = 0
    while done < 50:
        src, target = integer_benchmark_instance(rng)
        try:
            nm = fit("nm", src, target, PAPER_INTEGER)
            meda = fit("meda", src, target)
        except (InfeasibilityError, UndefinedWeightError):
            continue
        assert np.allclose(nm.table.counts, meda.table.counts, atol=1e-9)
        done += 1


# ---------------------------------------------------------------------------
# stacked kernels against the single-table fits
# ---------------------------------------------------------------------------

def _problems(rng, shape, size):
    """Seeded stacks of one shape: small integer sources, full of zero cells,
    zero rows (an all-zero surplus row for csa) and infeasible targets, and
    real-valued ones; each with target margins, source singles (some zero)
    and target singles."""
    for counts in (rng.integers(0, 3, size=(size, *shape)), rng.random((size, *shape)) * 40):
        counts = counts[counts.reshape(size, -1).any(axis=1)].astype(float)
        targets = rng.integers(0, 40, size=counts.shape).astype(float)
        targets[:, 0, 0] += 1
        singles = tuple(rng.integers(0, 30, size=(len(counts), k)).astype(float) for k in shape)
        target_singles = tuple(rng.random((len(counts), k)) * 30 + 1 for k in shape)
        yield counts, targets.sum(axis=-1), targets.sum(axis=-2), singles, target_singles


def _assert_stack_matches_single_fits(method, counts, rows, cols, singles,
                                      target_singles, **options):
    """Compare every instance of a stacked fit with ``fit`` on it alone, bit
    for bit, or by error class and message; return the errors seen."""
    stack = fit_stack(method, counts, rows, cols, singles=singles,
                      target_singles=target_singles, **options)
    raised = set()
    for t in range(len(counts)):
        source = table(counts[t])
        if method == "csa":
            source = TableWithSingles(source, singles[0][t], singles[1][t])
        ts = (target_singles[0][t], target_singles[1][t])
        try:
            single = fit(method, source, Marginals(rows[t], cols[t]),
                         target_singles=ts, **options)
        except Exception as exc:  # the outcome is the class and the message
            assert type(stack.errors[t]) is type(exc), (method, t, exc)
            assert str(stack.errors[t]) == str(exc)
            raised.add(type(exc))
            continue
        assert stack.errors[t] is None, (method, t, stack.errors[t])
        assert stack.counts[t].tobytes() == single.table.counts.tobytes()
        assert stack.iterations[t] == single.iterations
        assert stack.residual[t] == single.max_marginal_error
        for name, value in single.diagnostics.items():
            if name in stack.extra:
                assert np.array(value).tobytes() == stack.extra[name][t].tobytes()
    return raised


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_stacked_kernels_match_the_single_table_fits_bit_for_bit(method):
    rng = np.random.default_rng(300 + METHOD_TAGS.index(method))
    shapes = [(2, 2)] if method == "mdba" else [(2, 2), (3, 3), (4, 3)]
    # a small max_iter leaves the iterative fits unconverged
    settings = [{}, {"max_iter": 3}]
    if method == "nm":
        settings = [{}, {"rounding": CONTINUOUS}]
    raised = set()
    for shape in shapes:
        for problem in _problems(rng, shape, 80):
            for options in settings:
                raised |= _assert_stack_matches_single_fits(method, *problem, **options)
    expected = {
        "ipf": {InfeasibilityError, ConvergenceError},
        "mdba": {InfeasibilityError},
        "meda": {InfeasibilityError, UndefinedWeightError},
        "csa": {UndefinedIndicatorError, ConvergenceError},
        "nm": {InfeasibilityError, GllUndefinedError},
    }[method]
    assert raised == expected


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_mis_shaped_problems_raise_shape_error_in_fit_and_fit_stack(method):
    counts = np.array([[[10.0, 5.0], [5.0, 10.0]]])
    even, short = np.array([[15.0, 15.0]]), np.array([[30.0]])
    singles = (np.array([[3.0, 4.0]]), np.array([[5.0, 6.0]]))
    source = TableWithSingles(table(counts[0]), singles[0][0], singles[1][0])
    # (target rows, target cols, target singles)
    problems = [(short, even, None), (even, short, None)]
    if method == "csa":
        problems.append((even, even, (short, singles[1])))
    for rows, cols, target_singles in problems:
        message = re.escape(
            "surplus matrix and target populations disagree in shape" if method == "csa"
            else f"target marginals are {rows.size}x{cols.size}, source table is 2x2"
        )
        with pytest.raises(ShapeError, match=message):
            fit_stack(method, counts, rows, cols, singles=singles,
                      target_singles=target_singles)
        with pytest.raises(ShapeError, match=message):
            fit(method, source, Marginals(rows[0], cols[0]), target_singles=(
                None if target_singles is None else tuple(s[0] for s in target_singles)))
    if method == "csa":  # the sources' singles too
        with pytest.raises(ShapeError, match="disagree in shape"):
            fit_stack("csa", counts, even, even, singles=(singles[0], np.ones((1, 3))))


def test_stacked_ipf_refuses_what_the_single_fit_refuses():
    # zero cells: an all-zero source row, and a support that Hall's
    # condition rules out before any sweep
    counts = np.array([[[0.0, 0.0], [3.0, 4.0]], [[5.0, 0.0], [0.0, 2.0]],
                       [[1.0, 2.0], [3.0, 4.0]]])
    rows, cols = np.array([[2.0, 5.0], [4.0, 3.0], [3.0, 7.0]]), np.array(
        [[3.0, 4.0], [3.0, 4.0], [5.0, 5.0]])
    stack = fit_stack("ipf", counts, rows, cols)
    assert str(stack.errors[0]) == "a target row is positive but the source row is all zeros"
    assert str(stack.errors[1]).startswith("target unreachable")
    assert stack.errors[2] is None
    assert np.isnan(stack.counts[:2]).all()


@pytest.mark.parametrize("k", [2, 3])
def test_stacked_csa_solves_a_stack_as_long_as_the_system(k):
    # T = 2k systems of size 2k: a solve that read the right-hand sides as
    # one (2k, T) matrix would broadcast instead of failing
    rng = np.random.default_rng(40 + k)
    counts = rng.random((2 * k, k, k)) * 40 + 1
    rows, cols = rng.random((2 * k, k)) * 50 + 1, rng.random((2 * k, k)) * 50 + 1
    cols *= (rows.sum(axis=1) / cols.sum(axis=1))[:, None]
    singles = tuple(rng.random((2 * k, k)) * 30 + 1 for _ in range(2))
    raised = _assert_stack_matches_single_fits("csa", counts, rows, cols, singles, singles)
    assert not raised
