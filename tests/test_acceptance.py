"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The last criterion needs the real decennial couples panel, which is not
redistributable; point HOMLAB_COUPLES_CSV / HOMLAB_INCOME_CSV at local
extracts to run it, otherwise it reports as skipped and the property suites
above stand in as acceptance.
"""

import functools
import os
import time
from pathlib import Path

import numpy as np
import pytest

import homlab.criteria as cr
from homlab.counterfactual import fit
from homlab.decomposition import SEQUENTIAL, WITH_INTERACTION, decompose
from homlab.errors import InfeasibilityError, UndefinedWeightError
from homlab.indicators import PAPER_INTEGER, evaluate, gll
from homlab.io import (
    RunConfig,
    decade_changes,
    income_decade_deltas,
    load_couples,
    load_income,
)
from homlab.tables import ContingencyTable, pam_counts, random_counts
from homlab.trend import score

from test_indicators import integer_benchmark_tables, kernel_outputs
from test_tables import margins

FIXTURES = Path(__file__).parent / "fixtures"


def acceptance(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                label = "SKIPPED" if isinstance(exc, pytest.skip.Exception) else "FAIL"
                print(f"ACCEPTANCE {name}: {label}")
                raise
            print(f"ACCEPTANCE {name}: PASS")
            return result
        return wrapper
    return decorate


def table(counts):
    return ContingencyTable(np.array(counts, dtype=float), ("L", "H"), ("L", "H"))


# ---------------------------------------------------------------------------
# 1. equivalence of the two ratio measures on integer-benchmark tables
# ---------------------------------------------------------------------------

@acceptance("ratio-measure equivalence (1000 tables, 1e-12, <1s)")
def test_ratio_equivalence_mass():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    tables = integer_benchmark_tables(rng, 1000)
    worst = 0.0
    for t in tables:
        r, rho, _, value = kernel_outputs("ll", t, PAPER_INTEGER)
        assert rho == r
        assert t.counts[1, 1] >= rho  # no negative sorting
        worst = max(worst, abs(value - evaluate("v", t)[0]))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, worst
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. counterfactual contracts, 200 feasible instances per method
# ---------------------------------------------------------------------------

def _feasible_instances(rng, method, count=200):
    out = []
    while len(out) < count:
        src = table(rng.integers(1, 51, size=(2, 2)))
        tgt = margins(table(rng.integers(1, 51, size=(2, 2))))
        singles = None
        if method == "csa":
            singles = (
                rng.integers(1, 51, size=2).astype(float),
                rng.integers(1, 51, size=2).astype(float),
            )
        try:
            result = fit(method, src, *tgt, tol=1e-12, singles=singles)
        except (InfeasibilityError, UndefinedWeightError):
            continue
        out.append((src, singles, tgt, result))
    return out


def _assert_marginals(result, target, csa_singles=None):
    got = margins(table(result.counts[0]))
    if csa_singles is not None:
        men = np.array(result.extra["single_men"][0])
        women = np.array(result.extra["single_women"][0])
        men_pop = men + result.counts[0].sum(axis=1)
        women_pop = women + result.counts[0].sum(axis=0)
        want_men = target[0] + csa_singles[0]
        want_women = target[1] + csa_singles[1]
        assert np.allclose(men_pop, want_men, rtol=1e-9, atol=1e-9)
        assert np.allclose(women_pop, want_women, rtol=1e-9, atol=1e-9)
    else:
        assert np.allclose(got[0], target[0], rtol=1e-9, atol=1e-9)
        assert np.allclose(got[1], target[1], rtol=1e-9, atol=1e-9)


def _assert_factor(method, src, singles, tgt, result):
    fitted = table(result.counts[0])
    if method == "ipf":
        assert evaluate("or", fitted)[0] == pytest.approx(
            evaluate("or", src)[0], rel=1e-9
        )
    elif method == "mdba":
        (a, b), (c, d) = src.counts
        want = (a * d - b * c) * (float(tgt[0].sum()) / float(src.counts.sum())) ** 2
        (a, b), (c, d) = result.counts[0]
        assert a * d - b * c == pytest.approx(want, rel=1e-9, abs=1e-9)
    elif method == "meda":
        own = fit("meda", fitted, *margins(fitted)).extra["v"][0]
        assert own == pytest.approx(
            result.extra["v"][0], rel=1e-9, abs=1e-9
        )
    elif method == "nm":
        assert np.allclose(
            gll(fitted, PAPER_INTEGER), gll(src, PAPER_INTEGER),
            rtol=1e-9, atol=1e-9,
        )
    elif method == "csa":
        refit = evaluate("msm", fitted, singles=(
            np.array(result.extra["single_men"][0]),
            np.array(result.extra["single_women"][0]),
        ))
        assert np.allclose(
            refit, evaluate("msm", src, singles=singles),
            rtol=1e-9, atol=1e-9,
        )


@acceptance("counterfactual contracts (5 methods x 200 instances, <30s)")
def test_counterfactual_contracts():
    start = time.perf_counter()
    for method in ("ipf", "mdba", "meda", "nm", "csa"):
        rng = np.random.default_rng([2025, len(method)])
        for src, singles, tgt, result in _feasible_instances(rng, method):
            _assert_marginals(result, tgt, csa_singles=singles)
            _assert_factor(method, src, singles, tgt, result)
            fixpoint = fit(method, src, *margins(src), tol=1e-13, singles=singles)
            assert np.allclose(
                fixpoint.counts[0], src.counts, atol=1e-9, rtol=1e-9
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 3. the two ratio-preserving constructions agree on 2x2 integer benchmarks
# ---------------------------------------------------------------------------

@acceptance("LL-preserving and projection fits coincide (200 instances)")
def test_nm_meda_coincidence():
    rng = np.random.default_rng(77)
    done = 0
    while done < 200:
        src = integer_benchmark_tables(rng, 1)[0]
        tgt = margins(integer_benchmark_tables(rng, 1)[0])
        try:
            nm = fit("nm", src, *tgt)
            meda = fit("meda", src, *tgt)
        except (InfeasibilityError, UndefinedWeightError):
            continue
        assert np.allclose(nm.counts[0], meda.counts[0], atol=1e-9)
        done += 1


@acceptance("projection weight closed form verified by brute force (20)")
def test_projection_weight_brute_force():
    rng = np.random.default_rng(99)
    for _ in range(20):
        src = table(rng.integers(1, 51, size=(2, 2)))
        rows, cols = margins(src)
        rnd = random_counts(rows, cols, float(rows.sum()))
        pam = pam_counts(rows[None], cols[None])[0]
        v = fit("meda", src, rows, cols).extra["v"][0]

        def distance(weight):
            blend = (1 - weight) * rnd + weight * pam
            return float(((src.counts - blend) ** 2).sum())

        grid = np.linspace(v - 2.0, v + 2.0, 8001)
        assert distance(v) <= min(distance(g) for g in grid) + 1e-9


# ---------------------------------------------------------------------------
# 4. criteria matrix at default seed
# ---------------------------------------------------------------------------

@acceptance("criteria matrix reproduces the committed verdicts")
def test_criteria_matrix_required_cells():
    seed, samples = 0, 200

    def verdict(criterion, tag):
        return cr.check_indicator(criterion, tag, samples, seed).verdict

    # scale invariance: everything except the determinant
    for tag in cr.INDICATOR_TAGS:
        expected = cr.COUNTEREXAMPLE if tag == "det" else cr.SATISFIED
        assert verdict("AC2", tag) == expected, ("AC2", tag)

    # gender symmetry: the regression pair is the lone failure
    for tag in cr.INDICATOR_TAGS:
        expected = cr.COUNTEREXAMPLE if tag == "reg" else cr.SATISFIED
        assert verdict("AC3", tag) == expected, ("AC3", tag)

    # category symmetry: the sorting parameter fails, the rest hold
    for tag in cr.INDICATOR_TAGS:
        if tag == "msm":
            assert verdict("AC4", tag) == cr.NOT_APPLICABLE
            continue
        expected = cr.COUNTEREXAMPLE if tag == "msp" else cr.SATISFIED
        assert verdict("AC4", tag) == expected, ("AC4", tag)

    # marginal immunity: type-1 favors only the odds ratio, type-2 only the
    # sorting parameter
    for tag in cr.INDICATOR_TAGS:
        expected = cr.SATISFIED if tag == "or" else cr.COUNTEREXAMPLE
        assert verdict("AC5.1", tag) == expected, ("AC5.1", tag)
    for tag in cr.INDICATOR_TAGS:
        expected = cr.SATISFIED if tag == "msp" else cr.COUNTEREXAMPLE
        assert verdict("AC5.2", tag) == expected, ("AC5.2", tag)

    # diagonal monotonicity: holds everywhere except the covariance, whose
    # published yes is refuted by a replayable witness (see the covariance
    # note in the indicator tests); the discrepancy is documented, the
    # truthful verdict is asserted
    for tag in cr.INDICATOR_TAGS:
        expected = cr.COUNTEREXAMPLE if tag == "cov" else cr.SATISFIED
        assert verdict("AC8.1", tag) == expected, ("AC8.1", tag)
    cov_report = cr.check_indicator("AC8.1", "cov", samples, seed)
    assert cr.replay_witness(cov_report) > cr.VIOLATION_TOL

    # strong matching criterion: the determinant fails on a finer table
    det_report = cr.check_indicator("AC7", "det", samples, seed)
    assert det_report.verdict == cr.COUNTEREXAMPLE
    assert cr.replay_witness(det_report) > cr.VIOLATION_TOL

    # method cells: merge robustness and impossible-counterfactual signaling
    assert cr.check_method("AC10", "nm", samples, seed).verdict == cr.SATISFIED
    ipf_merge = cr.check_method("AC10", "ipf", samples, seed)
    assert ipf_merge.verdict == cr.COUNTEREXAMPLE
    assert cr.replay_witness(ipf_merge) > cr.VIOLATION_TOL
    assert cr.check_method("AC12", "nm", samples, seed).verdict == cr.SATISFIED
    assert cr.check_method("AC12", "ipf", samples, seed).verdict == cr.COUNTEREXAMPLE


@acceptance("criteria matrix matches the committed golden files")
def test_criteria_matrix_matches_golden(tmp_path):
    from click.testing import CliRunner

    from homlab.cli import main

    result = CliRunner().invoke(main, ["criteria", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    # the witnesses pin every sampled cell's random stream, not only its verdict
    for name in ("criteria_indicators.csv", "criteria_methods.csv",
                 "criteria_witnesses.json"):
        got = (tmp_path / name).read_bytes()
        stem, suffix = name.split(".")
        want = (FIXTURES / f"{stem}_golden.{suffix}").read_bytes()
        assert got == want, f"{name} diverged from the golden file"


# ---------------------------------------------------------------------------
# 5. decomposition additivity and method sensitivity
# ---------------------------------------------------------------------------

@acceptance("decomposition additivity at 1e-12 plus sign divergence fixture")
def test_decomposition_additivity_and_divergence():
    rng = np.random.default_rng(404)
    for scheme in (SEQUENTIAL, WITH_INTERACTION):
        for method in ("ipf", "mdba", "meda", "nm"):
            done = 0
            while done < 50:
                early = table(rng.integers(1, 51, size=(2, 2)))
                late = table(rng.integers(1, 51, size=(2, 2)))
                try:
                    result = decompose(early, late, method, scheme, tol=1e-12)
                except InfeasibilityError:
                    continue
                delta = result["share_late"] - result["share_early"]
                total = result["nonstructural"] + result["structural"]
                if scheme == WITH_INTERACTION:
                    total += result["interaction"]
                assert total == pytest.approx(delta, abs=1e-12)
                done += 1

    config = RunConfig(labels=("L", "H"), categories="three")
    panel = load_couples(FIXTURES / "divergence_couples.csv", config)
    early, late = (ContingencyTable(panel.counts[panel.index[("Example", year)]], panel.labels,
                                    panel.labels) for year in (1980, 1990))
    ipf_effect = decompose(early, late, "ipf", SEQUENTIAL)["nonstructural"]
    nm_effect = decompose(early, late, "nm", SEQUENTIAL)["nonstructural"]
    assert ipf_effect < -0.01 and nm_effect > 0.01


# ---------------------------------------------------------------------------
# 6. trend scoring on the synthetic panel
# ---------------------------------------------------------------------------

@acceptance("trend scoring exact on the synthetic panel incl. missing waves")
def test_trend_scoring_synthetic(tmp_path):
    config = RunConfig(labels=("L", "H"), categories="three", method="nm")
    panel = load_couples(FIXTURES / "synthetic_panel.csv", config)
    panel.income = load_income(FIXTURES / "synthetic_income.csv")
    changes, _ = decade_changes(panel, config)
    stats = score(changes, income_decade_deltas(panel.income, config.waves))
    assert (stats.n_u, stats.n_s, stats.n_alpha, stats.n_omega) == (11, 10, 3, 7)
    assert (stats.n_total, stats.n_alpha_total, stats.n_omega_total) == (15, 5, 10)

    # the same panel without its Texas 1970 wave
    rows = (FIXTURES / "synthetic_panel.csv").read_text(encoding="utf-8").splitlines()
    reduced_csv = tmp_path / "couples.csv"
    reduced_csv.write_text("\n".join(row for row in rows if not row.startswith("1970,Texas,"))
                           + "\n", encoding="utf-8")
    income, panel = panel.income, load_couples(reduced_csv, config)
    panel.income = income
    changes, _ = decade_changes(panel, config)
    reduced = score(changes, income_decade_deltas(panel.income, config.waves))
    assert reduced.n_total == 13
    assert reduced.n_u == 10


# ---------------------------------------------------------------------------
# 7. dataset-conditional: the published decennial panel
# ---------------------------------------------------------------------------

@acceptance("published-panel trend shares (dataset-conditional)")
def test_published_panel_trend_shares():
    couples_csv = os.environ.get("HOMLAB_COUPLES_CSV")
    income_csv = os.environ.get("HOMLAB_INCOME_CSV")
    if not couples_csv or not income_csv:
        pytest.skip(
            "needs the census-derived couples and income CSVs; set "
            "HOMLAB_COUPLES_CSV and HOMLAB_INCOME_CSV to run"
        )

    expectations = [
        # (measure, categories, expected n_U/N, expected N)
        ("nm", "three", 0.84, 240),
        ("ll", "college", 0.75, 239),
        ("ll", "hs", 0.73, 236),
    ]
    income = load_income(income_csv)
    for measure, categories, share, n_expected in expectations:
        config = RunConfig(measure=measure, categories=categories, method="nm")
        panel = load_couples(couples_csv, config)
        panel.income = income
        changes, _ = decade_changes(panel, config)
        stats = score(changes, income_decade_deltas(income, config.waves))
        assert abs(stats.n_total - n_expected) <= 2, (measure, stats.n_total)
        assert abs(stats.u_share - share) <= 0.02, (measure, stats.u_share)
