import math
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
from pathlib import Path

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
    check_indicator,
    check_method,
    replay_witness,
)
from homlab.errors import (
    ConvergenceError,
    HomlabError,
    InfeasibilityError,
    UndefinedIndicatorError,
)
from homlab.indicators import CONTINUOUS, evaluate, evaluate_stack
from homlab.tables import (
    ContingencyTable,
    Marginals,
    TableWithSingles,
    couples_of,
    homogamy_share,
    lattice,
    marginals,
    merge_categories,
    pam_counts,
)

from test_indicators import kernel_outputs


def table(counts):
    return ContingencyTable(np.array(counts, dtype=float))


BASE = table([[40, 10], [20, 30]])


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

def perturbed(label, alpha, counts):
    """The checks' variant ``label`` of one table's cells."""
    variant, _, _ = criteria._variants(label, np.array(counts)[None], None, [{"alpha": alpha}])
    return variant[0].tolist()


def test_apply_scale():
    assert perturbed("scale", 2.0, BASE.counts) == [[80, 20], [40, 60]]


def test_apply_type1_row():
    assert perturbed("type1-row", 2.0, BASE.counts) == [[40, 10], [40, 60]]


def test_apply_type2_row():
    assert perturbed("type2-row", 0.5, BASE.counts) == [[20, 5], [40, 35]]


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
    with pytest.raises(ValueError, match="^unknown method tag: 'IPF'$"):
        check_method("AC2", "IPF")


@pytest.mark.parametrize("samples", [0, -5])
def test_sample_counts_below_one_are_refused(samples):
    # a zero-sample check would report every cell satisfied on no evidence
    with pytest.raises(ValueError):
        check_indicator("AC6", "det", sample_count=samples)
    with pytest.raises(ValueError):
        check_method("AC2", "ipf", sample_count=samples)


def test_negative_seeds_are_refused():
    # numpy's seed sequence would fail on them with its own message
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        check_indicator("AC2", "or", seed=-1)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        check_method("AC10", "ipf", seed=-1)


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


def test_metadata_and_crafted_case_witnesses_replay_to_their_fixed_values():
    # an ordinal measure fails AC1 by lookup; the crafted impossible case
    # replays to 0 where the method signalled and to infinity where not
    ordinal = check_indicator("AC1", "gll")
    assert ordinal.witness == {"kind": "metadata", "cardinal": False}
    assert replay_witness(ordinal) == 1.0
    assert replay_witness(check_method("AC12", "nm")) == 0.0
    assert replay_witness(check_method("AC12", "ipf")) == math.inf


REPLAY_REFERENCE = [[5.0, 1.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 3.0]]
REPLAY_BETTER = [[0.0, 0.0, 6.0], [3.0, 0.0, 0.0], [2.0, 1.0, 0.0]]
REPLAY_EMPTY = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]  # no gll split defined


@pytest.mark.parametrize("witness,error,message", [
    (None, ValueError, "report carries no witness"),
    ({"kind": "bogus"}, ValueError, "unknown witness kind: 'bogus'"),
    ({"kind": "maximum", "criterion": "AC7", "indicator": "gll",
      "reference": {"counts": REPLAY_EMPTY}, "better": {"counts": REPLAY_BETTER}},
     UndefinedIndicatorError, "indicator undefined on the reference"),
    ({"kind": "maximum", "criterion": "AC7", "indicator": "gll",
      "reference": {"counts": REPLAY_REFERENCE}, "better": {"counts": REPLAY_EMPTY}},
     UndefinedIndicatorError, "indicator undefined on the better table"),
    ({"kind": "equality", "criterion": "AC2", "indicator": "or", "transform": "scale",
      "params": {"alpha": 1.5}, "subject": {"counts": [[0.0, 0.0], [0.0, 5.0]]}},
     UndefinedIndicatorError, "indicator undefined on the table"),
    # diagonal support, unequal margins: no IPF fit reaches the target
    ({"kind": "method-transpose", "criterion": "AC3", "method": "ipf",
      "source": {"counts": [[1.0, 0.0], [0.0, 1.0]]},
      "target_rows": [1.0, 2.0], "target_cols": [2.0, 1.0]},
     InfeasibilityError, "target unreachable"),
], ids=["no-witness", "unknown-kind", "undefined-reference", "undefined-better",
        "undefined-table", "failing-fit"])
def test_replay_raises_what_stops_it(witness, error, message):
    report = CriterionReport("AC2", "or", COUNTEREXAMPLE, witness)
    with pytest.raises(error, match=f"^{message}"):
        replay_witness(report)


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
    bumped_couples = couples_of(source).counts + np.diag(params["diagonal"])
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


def _ref_merge_table(rng, shape, with_singles):
    counts = table(rng.integers(1, 51, size=shape))
    if not with_singles:
        return counts
    return TableWithSingles(counts, *(rng.integers(1, 51, size=k) * 1.0 for k in shape))


def _ref_two_blocks(rng, size):
    cut = int(rng.integers(1, size))
    return [tuple(range(cut)), tuple(range(cut, size))]


def _reference_merge_check(method, sample_count, seed):
    """AC10 as a loop over single samples: fit the fine table, merge the
    fit, and fit the merged problem, one sample at a time."""
    rng = criteria._rng_for(seed, "AC10", method)
    notes = criteria._METHOD_CHECKS["AC10"].notes
    with_singles = method == "csa"

    def merged(values, partition):
        return np.array([values[list(block)].sum() for block in partition])

    def merge(subject, row_part, col_part):
        couples = merge_categories(couples_of(subject), row_part, col_part)
        if not with_singles:
            return couples
        return TableWithSingles(couples, merged(subject.single_men, row_part),
                                merged(subject.single_women, col_part))

    for i in range(sample_count):
        shape = (3, 3) if rng.integers(0, 2) else (4, 3)
        source = _ref_merge_table(rng, shape, with_singles)
        target = _ref_merge_table(rng, shape, with_singles)
        row_part, col_part = _ref_two_blocks(rng, shape[0]), _ref_two_blocks(rng, shape[1])
        margins = marginals(couples_of(target))
        singles = (target.single_men, target.single_women) if with_singles else None
        try:
            full = _ref_fit(method, source, margins, singles)
            coarse = _ref_fit(
                method, merge(source, row_part, col_part),
                Marginals(merged(margins.row_sums, row_part), merged(margins.col_sums, col_part)),
                singles and (merged(singles[0], row_part), merged(singles[1], col_part)),
            )
        except (InfeasibilityError, UndefinedIndicatorError):
            continue
        violation = float(
            np.abs(merge_categories(full.table, row_part, col_part).counts
                   - coarse.table.counts).max() / max(margins.total, 1.0)
        )
        if violation > criteria.VIOLATION_TOL:
            witness = {"kind": "method-merge", "source": criteria._table_payload(source),
                       "target": criteria._table_payload(target),
                       "row_partition": [list(b) for b in row_part],
                       "col_partition": [list(b) for b in col_part],
                       "criterion": "AC10", "method": method, "violation": violation}
            return CriterionReport("AC10", method, COUNTEREXAMPLE, witness, i + 1, notes)
    return CriterionReport("AC10", method, SATISFIED, None, sample_count, notes)


MERGE_METHODS = ("ipf", "meda", "csa", "nm")


@pytest.mark.parametrize("seed", range(5))
def test_stacked_merge_cell_keeps_the_per_sample_loop(seed):
    for tag in MERGE_METHODS:
        for samples in (1, 7, 60, 200):
            got = check_method("AC10", tag, samples, seed)
            assert got == _reference_merge_check(tag, samples, seed), (tag, samples, seed)


def test_stacked_merge_cell_keeps_witnesses_when_every_gap_counts(monkeypatch):
    monkeypatch.setattr(criteria, "VIOLATION_TOL", -math.inf)
    for tag in MERGE_METHODS:
        for seed in range(3):
            got = check_method("AC10", tag, 5, seed)
            assert got == _reference_merge_check(tag, 5, seed), (tag, seed)


@pytest.mark.parametrize("max_iter,tol", [(2, -math.inf), (30, math.inf)])
def test_stacked_merge_cell_raises_the_loops_fit_error(monkeypatch, max_iter, tol):
    # with the IPF sweeps capped, the fine and the merged fit of a sample
    # both stop short, each with its own residual in the message; with no
    # witness possible, the first sample to stop short must be the loop's
    kernel = cf._ipf_kernel
    monkeypatch.setattr(cf, "_ipf_kernel", lambda counts, rows, cols, total, tol, _: (
        kernel(counts, rows, cols, total, tol, max_iter)))
    monkeypatch.setattr(criteria, "VIOLATION_TOL", tol)
    for seed in range(3):
        with pytest.raises(ConvergenceError) as want:
            _reference_merge_check("ipf", 200, seed)
        with pytest.raises(ConvergenceError) as got:
            check_method("AC10", "ipf", 200, seed)
        assert str(got.value) == str(want.value), seed


# ---------------------------------------------------------------------------
# stacked indicator cells against the per-sample loops they replace
# ---------------------------------------------------------------------------


def _ref_evaluator(tag, criterion):
    if tag == "msp" and criterion in ("AC4", "AC5.1", "AC5.2", "AC5.3"):
        return lambda s: np.array([kernel_outputs("msp", couples_of(s))[0]])
    return lambda s: evaluate(tag, s, CONTINUOUS)


def _ref_random_table(rng, evaluator, shape, with_singles):
    """A table (with singles for msm) on which the evaluator is defined,
    redrawn from the same stream while it is not."""
    for _ in range(200):
        counts = rng.integers(0, 51, size=shape)
        if not counts.any():
            continue
        subject = table(counts)
        if with_singles:
            subject = TableWithSingles(subject, rng.integers(1, 51, size=shape[0]),
                                       rng.integers(1, 51, size=shape[1]))
        try:
            evaluator(subject)
        except UndefinedIndicatorError:
            continue
        return subject
    raise RuntimeError("could not draw a valid random table")


def _ref_split(rng, total, parts):
    cuts = sorted(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    bounds = [0] + [int(c) for c in cuts] + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def _ref_transforms(criterion, rng, counts):
    if criterion == "AC2":
        return [("scale", {"alpha": float(rng.uniform(0.2, 5.0))})]
    if criterion == "AC3":
        return [("transpose", {})]
    if criterion == "AC4":
        return [("rotate-categories", {})]
    if criterion in ("AC5.1", "AC5.2"):
        kind, low, high = ("type1", 0.2, 3.0) if criterion == "AC5.1" else ("type2", 0.05, 0.95)
        alpha = float(rng.uniform(low, high))
        return [(f"{kind}-{axis}", {"alpha": alpha}) for axis in ("row", "col")]
    if (counts.sum(axis=1) == 0).any() or (counts.sum(axis=0) == 0).any():
        return []
    total = int(rng.integers(40, 200))
    return [("rake", {"rows": _ref_split(rng, total, counts.shape[0]),
                      "cols": _ref_split(rng, total, counts.shape[1])})]


def _ref_variant(subject, label, params):
    couples = couples_of(subject)
    if label == "transpose":
        return subject.transposed()
    if label == "scale":
        return subject.scaled(params["alpha"])
    if label == "rake":
        target = Marginals(params["rows"], params["cols"])
        return cf.fit("ipf", couples, target, tol=1e-12).table
    (a, b), (c, d) = couples.counts
    if label == "rotate-categories":
        return table([[d, c], [b, a]])
    al = params["alpha"]
    cells = {
        "type1-row": [[a, b], [al * c, al * d]],
        "type1-col": [[a, al * b], [c, al * d]],
        "type2-row": [[(1 - al) * a, (1 - al) * b], [c + al * a, d + al * b]],
        "type2-col": [[(1 - al) * a, b + al * a], [(1 - al) * c, d + al * c]],
    }[label]
    if isinstance(subject, TableWithSingles):
        return TableWithSingles(table(cells), subject.single_men, subject.single_women)
    return table(cells)


def _ref_small_marginals(rng, n):
    total_cap = 20 if n == 2 else 12
    while True:
        rows = rng.integers(1, 8, size=n)
        cols = rng.integers(1, 8, size=n)
        diff = int(rows.sum() - cols.sum())
        if diff > 0:
            cols[int(rng.integers(0, n))] += diff
        elif diff < 0:
            rows[int(rng.integers(0, n))] += -diff
        if rows.sum() <= total_cap and np.all(rows > 0) and np.all(cols > 0):
            return Marginals(rows.astype(float), cols.astype(float))


def _ref_max_check(criterion, tag, sample_count, rng, evaluator):
    sizes = (2, 3) if tag in ("det", "gll") else (2,)
    checked = 0
    for i in range(sample_count):
        n = sizes[i % len(sizes)]
        if criterion == "AC6":
            diag = rng.integers(1, 9, size=n)
            while diag.sum() > 20:
                diag = rng.integers(1, 9, size=n)
            reference = table(np.diag(diag))
        else:
            m = _ref_small_marginals(rng, n)
            reference = table(pam_counts(m.row_sums[None], m.col_sums[None])[0])
        try:
            ref_value = evaluator(reference)
        except UndefinedIndicatorError:
            continue
        checked += 1
        points = lattice(marginals(reference), cap=20)
        values, undefined = evaluate_stack(tag, points, CONTINUOUS)
        drops = np.where(undefined, np.nan, criteria._one_sided_drop(values, ref_value))
        above = np.flatnonzero(drops > criteria.VIOLATION_TOL)
        if above.size:
            witness = {"kind": "maximum", "criterion": criterion, "indicator": tag,
                       "reference": {"counts": reference.counts.tolist()},
                       "better": {"counts": table(points[above[0]]).counts.tolist()},
                       "violation": float(drops[above[0]])}
            return CriterionReport(criterion, tag, COUNTEREXAMPLE, witness, checked)
    if checked == 0:
        return CriterionReport(criterion, tag, NOT_APPLICABLE, notes=(
            "indicator undefined on every sampled reference matching"))
    return CriterionReport(criterion, tag, SATISFIED, None, checked)


def _reference_indicator_check(criterion, tag, sample_count, seed):
    """check_indicator as a loop over single samples and single tables."""
    rng = criteria._rng_for(seed, criterion, tag)
    evaluator = _ref_evaluator(tag, criterion)
    if criterion in ("AC6", "AC7"):
        return _ref_max_check(criterion, tag, sample_count, rng, evaluator)
    check = criteria._INDICATOR_CHECKS[criterion]
    notes = criteria._indicator_notes(check, tag)
    shapes = ((2, 2), (3, 3)) if tag in check.matrix_tags else ((2, 2),)
    transposed = check.transposed and tag in check.matrix_tags
    drop = criteria._one_sided_drop
    for i in range(sample_count):
        subject = _ref_random_table(rng, evaluator, shapes[i % len(shapes)], tag == "msm")
        couples = couples_of(subject)
        base = evaluator(subject)
        witness = {"criterion": criterion, "indicator": tag,
                   "subject": criteria._table_payload(subject)}
        if criterion == "AC8.1":
            diagonal = rng.integers(1, 51, size=2).astype(float).tolist()
            bumped = table(couples.counts + np.diag(diagonal))
            if isinstance(subject, TableWithSingles):
                bumped = TableWithSingles(bumped, subject.single_men, subject.single_women)
            try:
                violation = float(drop(base, evaluator(bumped)))
            except UndefinedIndicatorError:
                continue
            if violation > criteria.VIOLATION_TOL:
                witness.update(kind="monotonicity", diagonal=diagonal, violation=violation)
                return CriterionReport(criterion, tag, COUNTEREXAMPLE, witness, i + 1, notes)
            continue
        if transposed:
            n, m = couples.counts.shape
            base = base.reshape((n, m) if tag == "msm" else (n - 1, m - 1)).T.ravel()
        for label, params in _ref_transforms(criterion, rng, couples.counts):
            try:
                other = evaluator(_ref_variant(subject, label, params))
            except HomlabError:
                continue
            violation = float(max(0.0, drop(base, other), drop(other, base)))
            if violation > criteria.VIOLATION_TOL:
                witness.update(kind="equality", transform=label, params=params,
                               violation=violation, compare_transposed=transposed)
                return CriterionReport(criterion, tag, COUNTEREXAMPLE, witness, i + 1, notes)
    return CriterionReport(criterion, tag, SATISFIED, None, sample_count, notes)


SAMPLED_INDICATOR_CELLS = [
    (criterion, tag)
    for criterion in ("AC2", "AC3", "AC4", "AC5.1", "AC5.2", "AC5.3", "AC6", "AC7", "AC8.1")
    for tag in INDICATOR_TAGS
    if (criterion, tag) not in criteria.NA_CELLS
]


@pytest.mark.parametrize("seed", range(5))
def test_stacked_indicator_cells_keep_the_per_sample_stream(seed):
    for criterion, tag in SAMPLED_INDICATOR_CELLS:
        for samples in (1, 7, 60):
            got = check_indicator(criterion, tag, samples, seed)
            want = _reference_indicator_check(criterion, tag, samples, seed)
            assert got == want, (criterion, tag, samples, seed)


def test_stacked_indicator_cells_keep_witnesses_when_every_violation_counts(monkeypatch):
    # with no tolerance left every evaluated sample is a witness: the first
    # (sample, transform) must be the loop's, at any round size
    monkeypatch.setattr(criteria, "VIOLATION_TOL", -math.inf)
    for criterion, tag in SAMPLED_INDICATOR_CELLS:
        for seed in range(3):
            assert check_indicator(criterion, tag, 5, seed) == (
                _reference_indicator_check(criterion, tag, 5, seed)
            ), (criterion, tag, seed)


def test_stacked_monotonicity_indicator_cell_finds_the_late_witness():
    # AC8.1|cov first lowers the covariance at sample 180 of seed 0, after
    # seven rounds without a hit
    got = check_indicator("AC8.1", "cov", 200, 0)
    assert got == _reference_indicator_check("AC8.1", "cov", 200, 0)
    assert got.verdict == COUNTEREXAMPLE and got.sample_size == 180
    assert replay_witness(got) == got.witness["violation"]


def test_stacked_indicator_cell_finds_a_late_witness_after_rejections(monkeypatch):
    # counting a rise of the V-value below 0.01 as a violation, AC8.1|v at
    # seed 4 rejects sample 56 (a zero margin) and hits on its redraw, so
    # the rejection must restore the stream
    monkeypatch.setattr(criteria, "VIOLATION_TOL", -0.01)
    got = check_indicator("AC8.1", "v", 200, 4)
    assert got == _reference_indicator_check("AC8.1", "v", 200, 4)
    assert got.verdict == COUNTEREXAMPLE and got.sample_size == 56
    assert replay_witness(got) == got.witness["violation"]


# ---------------------------------------------------------------------------
# merged draws against the per-call draws they replace
# ---------------------------------------------------------------------------

# Lemire's bounded draw takes its words from the bit generator one value at
# a time, so one call of size a + b gives the values, and leaves the state,
# of two calls of sizes a and b with the same bounds. These copies make one
# call per block, as the criteria drew before the calls were merged.

def _reference_draw_problem(rng, shape, with_singles):
    problem = []
    for _ in ("source", "target"):
        counts = rng.integers(1, 51, size=shape).astype(float)
        singles = None
        if with_singles:
            singles = tuple(rng.integers(1, 51, size=k).astype(float) for k in shape)
        problem += [counts, singles]
    return tuple(problem)


def _reference_draw_margins(rng, criterion, n):
    if criterion == "AC6":
        diag = rng.integers(1, 9, size=n)
        while diag.sum() > 20:
            diag = rng.integers(1, 9, size=n)
        return tuple(diag.tolist()), tuple(diag.tolist())
    while True:
        rows = rng.integers(1, 8, size=n)
        cols = rng.integers(1, 8, size=n)
        diff = int(rows.sum() - cols.sum())
        if diff > 0:
            cols[int(rng.integers(0, n))] += diff
        elif diff < 0:
            rows[int(rng.integers(0, n))] += -diff
        if rows.sum() <= (20 if n == 2 else 12) and np.all(rows > 0) and np.all(cols > 0):
            return tuple(rows.tolist()), tuple(cols.tolist())


def _reference_draw_tables(rng, start, size, shapes, with_singles, transforms):
    drawn, states = [], []
    for i in range(start, start + size):
        shape = shapes[i % len(shapes)]
        counts = rng.integers(0, 51, size=shape)
        while not counts.any():
            counts = rng.integers(0, 51, size=shape)
        singles = None
        if with_singles:
            singles = tuple(rng.integers(1, 51, size=k).astype(float) for k in shape)
        states.append(rng.bit_generator.state)
        drawn.append((counts.astype(float), singles, transforms(rng, counts)))
    return drawn, states


def _same(got, want):
    """Equal values, types, dtypes and shapes, through tuples, lists and
    dicts."""
    assert type(got) is type(want)
    if isinstance(got, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    elif isinstance(got, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _same(a, b)
    elif isinstance(got, dict):
        assert list(got) == list(want)
        for key in got:
            _same(got[key], want[key])
    else:
        assert got == want


def _assert_same_stream(draw, reference):
    """``draw(rng)`` and ``reference(rng)`` give equal values and leave
    equal generator states, at seeds 0-49."""
    for seed in range(50):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        _same(draw(rng), reference(ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state, seed


@pytest.mark.parametrize("with_singles", [False, True])
@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 3)])
def test_a_method_problem_is_drawn_on_the_per_call_stream(shape, with_singles):
    _assert_same_stream(lambda rng: criteria._draw_problem(rng, shape, with_singles),
                        lambda rng: _reference_draw_problem(rng, shape, with_singles))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("criterion", ["AC6", "AC7"])
def test_margins_are_drawn_on_the_per_call_stream(criterion, n):
    def draws(draw):
        return lambda rng: [draw(rng, criterion, n) for _ in range(5)]
    _assert_same_stream(draws(criteria._draw_margins), draws(_reference_draw_margins))


@pytest.mark.parametrize("criterion", ["AC2", "AC3", "AC5.1", "AC8.1"])
def test_msm_tables_are_drawn_on_the_per_call_stream(criterion):
    transforms = criteria._INDICATOR_CHECKS[criterion].transforms
    shapes = ((2, 2), (3, 3))
    for start in (0, 1):
        _assert_same_stream(
            lambda rng: criteria._draw_tables(rng, start, 6, shapes, True, transforms),
            lambda rng: _reference_draw_tables(rng, start, 6, shapes, True, transforms))


def _margin_keys(criterion, n, seeds=range(10)):
    return [criteria._draw_margins(np.random.default_rng(seed), criterion, n) for seed in seeds]


def test_a_cached_lattice_is_read_only():
    points = criteria._lattice_of((2, 3), (3, 2))
    with pytest.raises(ValueError):
        points[0, 0, 0] = 1


@pytest.mark.parametrize("criterion", ["AC6", "AC7"])
def test_scored_lattices_do_not_change_when_cached(criterion):
    evaluate = criteria._evaluator("det", criterion)
    for n in (2, 3):
        keys = _margin_keys(criterion, n)
        criteria._lattice_of.cache_clear()
        first = criteria._score_lattices(evaluate, criterion, keys)
        hits = criteria._lattice_of.cache_info().hits
        _same(criteria._score_lattices(evaluate, criterion, keys), first)
        assert criteria._lattice_of.cache_info().hits > hits


def test_each_cached_lattice_is_its_fresh_enumeration():
    for criterion in ("AC6", "AC7"):
        for n in (2, 3):
            for rows, cols in _margin_keys(criterion, n):
                fresh = lattice(Marginals(np.array(rows, float), np.array(cols, float)), cap=20)
                _same(criteria._lattice_of(rows, cols), fresh)


# ---------------------------------------------------------------------------
# the matrices across worker processes
# ---------------------------------------------------------------------------

def _bits(value):
    """``value`` with each float as its IEEE bytes and each dict as its
    ordered items, so ``==`` compares floats bit for bit and keys in order."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return [(key, _bits(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


def _fails_at(monkeypatch, index, fail):
    """Make the cell at ``index`` of the matrices' criterion-major order call
    ``fail`` instead of its check; with two workers an odd index is a child's."""
    criterion, tag = divmod(index, len(INDICATOR_TAGS))
    cell = (INDICATOR_CRITERIA[criterion], INDICATOR_TAGS[tag])
    check = criteria.check_indicator

    def patched(*args):
        return fail() if args[:2] == cell else check(*args)

    monkeypatch.setattr(criteria, "check_indicator", patched)


def _os_threads() -> int | None:
    """The OS threads this process runs, where procfs tells."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[17])
    except OSError:
        return None


@pytest.fixture
def forked():
    """Fail a test that forks from a process that runs threads (see
    ``conftest.py``), waits a minute on the workers or leaves one behind."""
    assert _os_threads() in (None, 1)

    def alarm(signum, frame):
        raise TimeoutError("waited a minute on the criteria workers")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the workers are forked")


def test_the_worker_count_does_not_change_the_matrices(forked):
    order = ([(c, t) for c in INDICATOR_CRITERIA for t in INDICATOR_TAGS],
             [(c, t) for c in METHOD_CRITERIA for t in METHOD_TAGS])
    runs = []
    for workers in (1, 2, 3):
        matrices = criteria._matrices(25, 3, workers)
        assert tuple(list(matrix) for matrix in matrices) == order, workers
        runs.append(_bits([{key: vars(report) for key, report in matrix.items()}
                           for matrix in matrices]))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    witnesses = [r.witness for m in criteria._matrices(25, 3, 1) for r in m.values()]
    assert any(w is not None and "violation" in w for w in witnesses)


def test_the_matrices_run_in_process_without_fork(monkeypatch, forked):
    contexts = []
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", contexts.append)
    assert criteria._matrices(5, 3, 3) == criteria._matrices(5, 3, 1)
    assert contexts == []


@needs_fork
@pytest.mark.parametrize("index", [0, 1, 3])
def test_a_cell_error_is_raised_in_the_caller(monkeypatch, forked, index):
    # index 0 runs in this process, 1 and 3 in the forked child
    def fail():
        raise InfeasibilityError("no table fits", {"cell": index})

    _fails_at(monkeypatch, index, fail)
    with pytest.raises(InfeasibilityError) as raised:
        criteria._matrices(2, 0, 2)
    assert type(raised.value) is InfeasibilityError
    assert str(raised.value) == "no table fits"


@needs_fork
def test_a_dead_worker_is_an_error_not_a_partial_matrix(monkeypatch, forked):
    _fails_at(monkeypatch, 1, lambda: os._exit(1))
    with pytest.raises(RuntimeError) as raised:
        criteria._matrices(2, 0, 2)
    assert str(raised.value) == "a criteria worker died with exit code 1"


def test_the_workers_do_not_repeat_buffered_output():
    # a pipe makes stdout block-buffered: text printed before the fork must
    # reach it once, not once more from each child
    probe = (
        "from homlab import criteria\n"
        "criteria.check_indicator = criteria.check_method = lambda *args: None\n"
        "print('before the fork')\n"
        "criteria._matrices(1, 0, 3)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout == "before the fork\n"


def test_the_forked_workers_do_not_warn_on_the_cli_path():
    # Python 3.12 warns when a process that runs threads forks; the CLI
    # starts none (it loads numpy with one OpenBLAS thread), so its workers
    # fork without a DeprecationWarning
    probe = (
        "import os, warnings\n"
        "import homlab.cli\n"
        "from homlab import criteria\n"
        "if os.path.exists('/proc/self/stat'):\n"
        "    print(open('/proc/self/stat').read().rsplit(')', 1)[1].split()[17])\n"
        "warnings.simplefilter('error', DeprecationWarning)\n"
        "criteria._matrices(25, 3, workers=2)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout in ("", "1\n")  # the threads the process runs, where procfs tells
