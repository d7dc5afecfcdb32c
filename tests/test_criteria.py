import math

import numpy as np
import pytest

from homlab import counterfactual as cf
from homlab import criteria
from homlab.criteria import (
    COUNTEREXAMPLE,
    INDICATOR_CRITERIA,
    INDICATOR_TAGS,
    METHOD_CRITERIA,
    METHOD_TAGS,
    NOT_APPLICABLE,
    NOT_AUTOMATED,
    SATISFIED,
    VIOLATION_TOL,
    CriterionReport,
    MarginalPerturbation,
    apply_perturbation,
    check_indicator,
    check_method,
    replay_witness,
)
from homlab.errors import InfeasibilityError, ShapeError, UndefinedIndicatorError
from homlab.indicators import CONTINUOUS
from homlab.tables import (
    ContingencyTable,
    Marginals,
    TableWithSingles,
    homogamy_share,
    marginals,
)


def table(counts):
    return ContingencyTable(np.array(counts, dtype=float))


BASE = table([[40, 10], [20, 30]])


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

def test_perturbation_validation():
    with pytest.raises(ValueError):
        MarginalPerturbation("shift")
    with pytest.raises(ValueError):
        MarginalPerturbation("scale", 0.0)
    with pytest.raises(ValueError):
        MarginalPerturbation("type2-row", 1.5)


def test_apply_scale():
    out = apply_perturbation(BASE, MarginalPerturbation("scale", 2.0))
    assert out.counts.tolist() == [[80, 20], [40, 60]]


def test_apply_type1_row():
    out = apply_perturbation(BASE, MarginalPerturbation("type1-row", 2.0))
    assert out.counts.tolist() == [[40, 10], [40, 60]]


def test_apply_type2_row():
    out = apply_perturbation(BASE, MarginalPerturbation("type2-row", 0.5))
    assert out.counts.tolist() == [[20, 5], [40, 35]]


def test_apply_type_needs_2x2():
    with pytest.raises(ShapeError):
        apply_perturbation(
            table([[1, 2, 3], [4, 5, 6]]), MarginalPerturbation("type1-row", 2.0)
        )


# ---------------------------------------------------------------------------
# indicator checks
# ---------------------------------------------------------------------------

def test_ac1_is_metadata():
    cardinal = check_indicator("AC1", "or")
    assert cardinal.verdict == SATISFIED and cardinal.sample_size == 0
    ordinal = check_indicator("AC1", "ll")
    assert ordinal.verdict == COUNTEREXAMPLE
    assert ordinal.witness == {"kind": "metadata", "cardinal": False}


def test_na_cells():
    assert check_indicator("AC4", "msm").verdict == NOT_APPLICABLE
    assert check_indicator("AC8.3", "or").verdict == NOT_APPLICABLE
    assert check_indicator("AC9", "msp").verdict == NOT_APPLICABLE
    assert check_indicator("AC8.2", "ll").verdict == NOT_AUTOMATED


def test_unknown_pairs_rejected():
    with pytest.raises(ValueError):
        check_indicator("AC13", "or")
    with pytest.raises(ValueError):
        check_indicator("AC2", "gini")
    with pytest.raises(ValueError):
        check_method("AC4", "ipf")
    with pytest.raises(ValueError):
        check_method("AC2", "gs")


@pytest.mark.parametrize("samples", [0, -5])
def test_sample_counts_below_one_are_refused(samples):
    # a zero-sample check would report every cell satisfied on no evidence
    with pytest.raises(ValueError):
        check_indicator("AC6", "det", sample_count=samples)
    with pytest.raises(ValueError):
        check_method("AC2", "ipf", sample_count=samples)


@pytest.mark.parametrize("criterion,expected_y", [
    ("AC5.1", {"or"}),
    ("AC5.2", {"msp"}),
])
def test_marginal_immunity_rows(criterion, expected_y):
    for tag in INDICATOR_TAGS:
        report = check_indicator(criterion, tag, sample_count=80, seed=0)
        if tag == "msm" and report.verdict == NOT_APPLICABLE:
            continue
        expected = SATISFIED if tag in expected_y else COUNTEREXAMPLE
        assert report.verdict == expected, (criterion, tag, report.verdict)


def test_gender_symmetry_row():
    for tag in INDICATOR_TAGS:
        report = check_indicator("AC3", tag, sample_count=80, seed=0)
        expected = COUNTEREXAMPLE if tag == "reg" else SATISFIED
        assert report.verdict == expected, (tag, report.verdict)


def test_scale_row_flags_only_the_determinant():
    for tag in INDICATOR_TAGS:
        report = check_indicator("AC2", tag, sample_count=80, seed=0)
        expected = COUNTEREXAMPLE if tag == "det" else SATISFIED
        assert report.verdict == expected, (tag, report.verdict)


def test_category_symmetry_flags_the_sorting_parameter():
    report = check_indicator("AC4", "msp", sample_count=80, seed=0)
    assert report.verdict == COUNTEREXAMPLE
    assert replay_witness(report) > VIOLATION_TOL


def test_strong_matching_criterion_flags_the_determinant():
    report = check_indicator("AC7", "det", sample_count=120, seed=0)
    assert report.verdict == COUNTEREXAMPLE
    better = np.array(report.witness["better"]["counts"])
    assert better.shape == (3, 3)
    assert replay_witness(report) > VIOLATION_TOL


def test_weak_matching_criterion_passes_the_determinant():
    assert check_indicator("AC6", "det", sample_count=80, seed=0).verdict == SATISFIED


def test_counterexample_witnesses_replay():
    flagged = 0
    for criterion in ("AC2", "AC3", "AC4", "AC5.1", "AC5.2", "AC5.3", "AC7", "AC8.1"):
        for tag in INDICATOR_TAGS:
            report = check_indicator(criterion, tag, sample_count=60, seed=0)
            if report.verdict == COUNTEREXAMPLE:
                flagged += 1
                assert replay_witness(report) > VIOLATION_TOL, (criterion, tag)
                assert report.witness["violation"] == pytest.approx(
                    replay_witness(report), rel=1e-9, abs=1e-12
                ) or math.isinf(replay_witness(report))
    assert flagged >= 15


def _assert_witness_replays_exactly(report):
    assert report.verdict == COUNTEREXAMPLE, report
    recorded = report.witness["violation"]
    replayed = replay_witness(report)
    assert recorded == replayed or (math.isinf(recorded) and math.isinf(replayed)), (
        report.criterion, report.subject, recorded, replayed
    )


def test_every_sampled_indicator_witness_replays_to_its_drawn_violation(monkeypatch):
    # with no tolerance left every finite violation is a witness, including
    # the large negative drops of a determinant that rises as it should
    monkeypatch.setattr(criteria, "VIOLATION_TOL", -math.inf)
    for criterion in ("AC2", "AC3", "AC4", "AC5.1", "AC5.2", "AC5.3",
                      "AC6", "AC7", "AC8.1"):
        for tag in INDICATOR_TAGS:
            report = check_indicator(criterion, tag, sample_count=3, seed=0)
            if report.verdict != NOT_APPLICABLE:
                _assert_witness_replays_exactly(report)


def test_every_sampled_method_witness_replays_to_its_drawn_violation(monkeypatch):
    monkeypatch.setattr(criteria, "VIOLATION_TOL", -math.inf)
    for criterion in ("AC2", "AC3", "AC5", "AC8.1", "AC10"):
        for tag in METHOD_TAGS:
            report = check_method(criterion, tag, sample_count=3, seed=0)
            if (criterion, tag) == ("AC10", "mdba"):
                assert report.verdict == NOT_APPLICABLE
                continue
            _assert_witness_replays_exactly(report)
            assert ("target_singles" in report.witness) == (
                tag == "csa" and criterion != "AC10"
            )


def test_reports_are_deterministic():
    a = check_indicator("AC5.1", "msp", sample_count=50, seed=7)
    b = check_indicator("AC5.1", "msp", sample_count=50, seed=7)
    assert a == b
    c = check_indicator("AC5.1", "msp", sample_count=50, seed=8)
    assert c.witness != a.witness or c.sample_size != a.sample_size or c == a


# ---------------------------------------------------------------------------
# method checks
# ---------------------------------------------------------------------------

def test_method_scale_and_symmetry_rows():
    for criterion in ("AC2", "AC3", "AC5"):
        for tag in METHOD_TAGS:
            report = check_method(criterion, tag, sample_count=40, seed=0)
            assert report.verdict == SATISFIED, (criterion, tag, report.verdict)


def test_method_monotonicity_row():
    for tag in METHOD_TAGS:
        report = check_method("AC8.1", tag, sample_count=40, seed=0)
        assert report.verdict == SATISFIED, (tag, report.verdict)


def test_merge_commutation_row():
    assert check_method("AC10", "nm", sample_count=40, seed=0).verdict == SATISFIED
    assert check_method("AC10", "mdba").verdict == NOT_APPLICABLE
    for tag in ("ipf", "meda", "csa"):
        report = check_method("AC10", tag, sample_count=40, seed=0)
        assert report.verdict == COUNTEREXAMPLE, (tag, report.verdict)
        assert replay_witness(report) > VIOLATION_TOL


def test_impossible_counterfactual_row():
    signals = {}
    for tag in METHOD_TAGS:
        report = check_method("AC12", tag, seed=0)
        signals[tag] = report.verdict
        assert report.witness["kind"] == "sic"
    assert signals["nm"] == SATISFIED
    assert signals["mdba"] == SATISFIED
    assert signals["meda"] == SATISFIED
    assert signals["ipf"] == COUNTEREXAMPLE
    assert signals["csa"] == COUNTEREXAMPLE


def test_strong_category_robustness_not_automated():
    for tag in METHOD_TAGS:
        assert check_method("AC11", tag).verdict == NOT_AUTOMATED


def test_catalog_is_covered():
    assert set(INDICATOR_CRITERIA) >= {
        "AC1", "AC2", "AC3", "AC4", "AC5.1", "AC5.2", "AC5.3",
        "AC6", "AC7", "AC8.1", "AC8.2", "AC8.3", "AC9",
    }
    assert set(METHOD_CRITERIA) == {
        "AC2", "AC3", "AC5", "AC8.1", "AC10", "AC11", "AC12"
    }
    assert len(INDICATOR_TAGS) == 10
    assert len(METHOD_TAGS) == 5


# ---------------------------------------------------------------------------
# stacked method cells against the per-sample loop they replace
# ---------------------------------------------------------------------------


def _ref_fit(method, source, target, singles):
    return cf.fit(method, source, target, rounding=CONTINUOUS, tol=1e-12,
                  target_singles=singles)


def _ref_instance(rng, method):
    """A feasible (source, target, target singles, base fit), redrawn from
    the same stream after every infeasible or undefined base fit."""
    with_singles = method == "csa"
    for _ in range(200):
        source = table(rng.integers(1, 51, size=(2, 2)))
        if with_singles:
            source = TableWithSingles(source, rng.integers(1, 51, size=2) * 1.0,
                                      rng.integers(1, 51, size=2) * 1.0)
        target = marginals(table(rng.integers(1, 51, size=(2, 2))))
        singles = None
        if with_singles:
            singles = (rng.integers(1, 51, size=2) * 1.0, rng.integers(1, 51, size=2) * 1.0)
        try:
            return source, target, singles, _ref_fit(method, source, target, singles)
        except (InfeasibilityError, UndefinedIndicatorError):
            continue
    raise RuntimeError("could not draw a feasible method instance")


def _ref_gap(criterion, method, source, target, singles, base, params):
    couples = base.table.counts
    if criterion == "AC2":
        r = params["alpha"]
        scaled = _ref_fit(method, source.scaled(r),
                          Marginals(target.row_sums * r, target.col_sums * r),
                          None if singles is None else (singles[0] * r, singles[1] * r))
        total = max(float((target.row_sums * r).sum()), 1.0)
        return float(np.abs(scaled.table.counts - couples * r).max() / total)
    if criterion == "AC3":
        swapped = _ref_fit(method, source.transposed(),
                           Marginals(target.col_sums, target.row_sums),
                           None if singles is None else singles[::-1])
        return float(np.abs(swapped.table.counts - couples.T).max() / max(target.total, 1.0))
    if criterion == "AC5":
        if method == "csa":
            men_gap = np.abs(np.array(base.diagnostics["single_men"]) + couples.sum(axis=1)
                             - target.row_sums - singles[0]).max()
            women_gap = np.abs(np.array(base.diagnostics["single_women"])
                               + couples.sum(axis=0) - target.col_sums - singles[1]).max()
            return max(men_gap, women_gap) / max(target.total, 1.0)
        err = max(np.abs(couples.sum(axis=1) - target.row_sums).max(),
                  np.abs(couples.sum(axis=0) - target.col_sums).max())
        return float(err) / max(target.total, 1.0)
    bumped_couples = criteria.couples_of(source).counts + np.diag(params["diagonal"])
    bumped = table(bumped_couples)
    if singles is not None:
        bumped = TableWithSingles(bumped, source.single_men, source.single_women)
    bumped_fit = _ref_fit(method, bumped, target, singles)
    return homogamy_share(base.table) - homogamy_share(bumped_fit.table)


def _reference_method_check(criterion, method, sample_count, seed):
    """check_method as a loop over single samples and single-table fits."""
    rng = criteria._rng_for(seed, criterion, method)
    notes = criteria._METHOD_CHECKS[criterion].notes
    for i in range(sample_count):
        source, target, singles, base = _ref_instance(rng, method)
        params = {}
        if criterion == "AC2":
            params = {"alpha": float(rng.uniform(0.2, 5.0))}
        if criterion == "AC8.1":
            params = {"diagonal": rng.integers(1, 51, size=2).astype(float).tolist()}
        try:
            violation = _ref_gap(criterion, method, source, target, singles, base, params)
        except (InfeasibilityError, UndefinedIndicatorError):
            continue
        if violation > criteria.VIOLATION_TOL:
            payload = {"source": criteria._table_payload(source),
                       "target_rows": target.row_sums.tolist(),
                       "target_cols": target.col_sums.tolist(), **params}
            if singles is not None:
                payload["target_singles"] = [s.tolist() for s in singles]
            witness = {"kind": criteria._METHOD_CHECKS[criterion].kind, **payload,
                       "criterion": criterion, "method": method, "violation": violation}
            return CriterionReport(criterion, method, COUNTEREXAMPLE, witness, i + 1, notes)
    return CriterionReport(criterion, method, SATISFIED, None, sample_count, notes)


STACKED_CRITERIA = ("AC2", "AC3", "AC5", "AC8.1")


@pytest.mark.parametrize("seed", range(5))
def test_stacked_method_cells_keep_the_per_sample_stream(seed):
    for criterion in STACKED_CRITERIA:
        for tag in METHOD_TAGS:
            for samples in (1, 7, 60):
                got = check_method(criterion, tag, samples, seed)
                want = _reference_method_check(criterion, tag, samples, seed)
                assert got == want, (criterion, tag, samples, seed)


@pytest.mark.parametrize("seed,first_hit", [(1, 151), (3, 114)])
def test_stacked_monotonicity_cell_finds_the_late_witness_after_rejections(seed, first_hit):
    # AC8.1|mdba rejects 8 and 16 infeasible bases at these seeds before
    # its first counterexample, so every rejection must restore the stream
    got = check_method("AC8.1", "mdba", 200, seed)
    assert got == _reference_method_check("AC8.1", "mdba", 200, seed)
    assert got.verdict == COUNTEREXAMPLE and got.sample_size == first_hit
    assert replay_witness(got) == got.witness["violation"]


def test_stacked_method_cells_keep_witnesses_when_every_gap_counts(monkeypatch):
    # with no tolerance left every sample is a witness: the first one must
    # be the loop's, at any round size
    monkeypatch.setattr(criteria, "VIOLATION_TOL", -math.inf)
    for criterion in STACKED_CRITERIA:
        for tag in METHOD_TAGS:
            for seed in range(3):
                assert check_method(criterion, tag, 5, seed) == (
                    _reference_method_check(criterion, tag, 5, seed)
                )
