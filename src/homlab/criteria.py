"""Executable analytical criteria for indicators and methods.

Each criterion AC1..AC12 from the built-in catalog is turned into a seeded,
randomized pass/fail check applied to an indicator or a counterfactual
method. Verdicts are deliberately modest: ``satisfied-on-sample`` means no
violation was found on the drawn sample, ``counterexample-found`` carries a
witness that replays to a violation above ``VIOLATION_TOL``. Criteria that
cannot be decided at runtime are ``not-automated``; pairs where the
criterion does not apply are ``not-applicable``.

Criterion catalog
-----------------
AC1    cardinality (metadata: is the measure cardinal or ordinal)
AC2    scale invariance under ``t -> r t``
AC3    gender symmetry (transpose invariance)
AC4    category symmetry (simultaneous low/high swap, 2x2)
AC5.1  immunity to rescaling one category's rows or columns
AC5.2  immunity to reclassifying a share of the low type to high
AC5.3  immunity to other marginal changes, read here as raking immunity
AC6    weak assortative-maximum: diagonal tables score highest
AC7    strong assortative-maximum: every assortative table scores highest
AC8.1  monotonicity under adding same-type couples on the diagonal
AC8.2  monotonicity in intergenerational mobility (not automated)
AC8.3  monotonicity in voluntary singles (not applicable to these measures)
AC9    immunity to involuntary singles (not applicable to these measures)
AC10   robustness to merging neighboring categories (methods)
AC11   strong category-count robustness (no method attains it)
AC12   signaling impossible counterfactuals (methods)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import counterfactual as cf
from . import indicators as ind
from .errors import (
    HomlabError,
    InfeasibilityError,
    ShapeError,
    UndefinedIndicatorError,
)
from .tables import (
    ContingencyTable,
    Marginals,
    TableWithSingles,
    couples_of,
    homogamy_share,
    lattice,
    marginals,
    merge_categories,
    merge_with_singles,
    pam_match,
)

SATISFIED = "satisfied-on-sample"
COUNTEREXAMPLE = "counterexample-found"
NOT_APPLICABLE = "not-applicable"
NOT_AUTOMATED = "not-automated"

VIOLATION_TOL = 1e-7

INDICATOR_TAGS = ind.INDICATOR_TAGS
METHOD_TAGS = cf.METHOD_TAGS

INDICATOR_CRITERIA = (
    "AC1", "AC2", "AC3", "AC4", "AC5.1", "AC5.2", "AC5.3",
    "AC6", "AC7", "AC8.1", "AC8.2", "AC8.3", "AC9",
)
METHOD_CRITERIA = ("AC2", "AC3", "AC5", "AC8.1", "AC10", "AC11", "AC12")

# Ordinal measures are position statements, not counts of anything.
CARDINAL = {
    "or": True, "det": True, "cov": True, "corr": True, "reg": True,
    "msp": True, "v": False, "msm": False, "ll": False, "gll": False,
}

# Cells where the criterion does not apply to the indicator: the singles
# criteria apply to none of these measures (the surplus matrix does not even
# distinguish kinds of singles), category reversal and raking do not
# transform singles, and the matching-maximum criteria compare couples-only
# matchings on which the surplus matrix is not defined.
NA_CELLS = frozenset(
    {("AC4", "msm"), ("AC5.3", "msm"), ("AC6", "msm"), ("AC7", "msm")}
    | {("AC8.3", tag) for tag in INDICATOR_TAGS}
    | {("AC9", tag) for tag in INDICATOR_TAGS}
)


@dataclass(frozen=True)
class MarginalPerturbation:
    """A structured change of a table's margins.

    ``kind`` selects the transformation; ``alpha`` is its parameter (the
    scale factor, the category rescaling factor, or the reclassified share).
    """

    kind: str
    alpha: float = 1.0

    def __post_init__(self):
        kinds = ("scale", "type1-row", "type1-col", "type2-row", "type2-col")
        if self.kind not in kinds:
            raise ValueError(f"unknown perturbation kind: {self.kind!r}")
        if self.kind == "scale" and not self.alpha > 0:
            raise ValueError("scale factor must be positive")
        if self.kind.startswith("type1") and not self.alpha > 0:
            raise ValueError("type-1 factor must be positive")
        if self.kind.startswith("type2") and not 0 < self.alpha < 1:
            raise ValueError("type-2 share must lie strictly between 0 and 1")


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one (criterion, subject) check."""

    criterion: str
    subject: str
    verdict: str
    witness: Mapping[str, object] | None = None
    sample_size: int = 0
    notes: str = ""


def apply_perturbation(
    table: ContingencyTable | TableWithSingles, p: MarginalPerturbation
):
    """Apply a marginal perturbation, preserving the input type."""
    if p.kind == "scale":
        return table.scaled(p.alpha)
    couples = couples_of(table)
    if couples.n_rows != 2 or couples.n_cols != 2:
        raise ShapeError("type-1/type-2 perturbations are defined for 2x2 tables")
    (a, b), (c, d) = couples.counts
    al = p.alpha
    if p.kind == "type1-row":
        counts = [[a, b], [al * c, al * d]]
    elif p.kind == "type1-col":
        counts = [[a, al * b], [c, al * d]]
    elif p.kind == "type2-row":
        counts = [[(1 - al) * a, (1 - al) * b], [c + al * a, d + al * b]]
    else:  # type2-col
        counts = [[(1 - al) * a, b + al * a], [(1 - al) * c, d + al * c]]
    return _with_couples(table, couples.with_counts(np.array(counts, dtype=float)))


def _with_couples(subject, couples: ContingencyTable):
    """``couples`` in place of ``subject``'s couples, singles kept."""
    if isinstance(subject, TableWithSingles):
        return TableWithSingles(couples, subject.single_men, subject.single_women)
    return couples


def _bump_diagonal(subject, diagonal):
    """``subject`` with ``diagonal`` same-type couples added, singles kept."""
    couples = couples_of(subject)
    return _with_couples(
        subject, couples.with_counts(couples.counts + np.diag(diagonal))
    )


# ---------------------------------------------------------------------------
# indicator evaluation
# ---------------------------------------------------------------------------

# The local low-type sorting parameter is the facet of the MSP family that
# the marginal-immunity and category-reversal criteria discriminate on (the
# observed-count weighting makes the aggregate identically symmetric under
# the low/high swap, and the type-2 reclassification preserves exactly the
# low-type parameter); the remaining criteria read the aggregate.
_MSP_LOCAL_CRITERIA = frozenset({"AC4", "AC5.1", "AC5.2", "AC5.3"})


def indicator_evaluator(tag: str, criterion: str) -> Callable[[object], np.ndarray]:
    """Vector-valued evaluation of an indicator, as compared by a criterion.

    :func:`~homlab.indicators.evaluate` in continuous rounding mode, because
    the checks feed real-valued (rescaled, reclassified or raked) tables,
    where flooring the LL family's random benchmark is ill-posed. ``msp``
    reads its local low-type facet under the criteria that discriminate on
    it.
    """
    if tag == "msp" and criterion in _MSP_LOCAL_CRITERIA:
        return lambda s: np.array([ind.aggregate_msp(couples_of(s)).msp_l])
    return lambda s: ind.evaluate(tag, s, ind.CONTINUOUS)


def _difference(x: np.ndarray, y: np.ndarray) -> float:
    """Largest absolute elementwise difference, the larger of the two
    one-sided drops; vectors of different shapes are infinitely far."""
    if np.shape(x) != np.shape(y):
        return math.inf
    # 0.0 first, so that equal zeros of opposite sign read +0.0
    return float(max(0.0, _one_sided_drop(x, y), _one_sided_drop(y, x)))


def _one_sided_drop(before: np.ndarray, after: np.ndarray):
    """How far any component decreased, along the last axis; matching
    infinities count as equal and a NaN as an infinite drop."""
    before = np.asarray(before, dtype=float)
    after = np.asarray(after, dtype=float)
    with np.errstate(invalid="ignore"):
        drop = before - after
    nan = np.isnan(drop)
    if nan.any():  # matching infinities subtract to NaN, as do NaN inputs
        drop[nan] = np.inf
        drop[np.isinf(before) & (before == after)] = 0.0
    return np.max(drop, axis=-1)


# ---------------------------------------------------------------------------
# random instance generation
# ---------------------------------------------------------------------------

def _rng_for(seed: int, criterion: str, subject: str) -> np.random.Generator:
    crit_ix = (INDICATOR_CRITERIA + METHOD_CRITERIA).index(criterion)
    try:
        subj_ix = INDICATOR_TAGS.index(subject)
    except ValueError:
        subj_ix = len(INDICATOR_TAGS) + METHOD_TAGS.index(subject)
    return np.random.default_rng([seed, crit_ix, subj_ix])


def _random_table(
    rng: np.random.Generator,
    evaluator: Callable,
    shape: tuple[int, int] = (2, 2),
    with_singles: bool = False,
    max_tries: int = 200,
):
    """Integer-cell table (cells uniform on [0, 50]) on which the evaluator
    is defined; resamples to dodge undefined-indicator preconditions."""
    for _ in range(max_tries):
        counts = rng.integers(0, 51, size=shape)
        if not counts.any():
            continue
        try:
            table = ContingencyTable(counts)
        except HomlabError:
            continue
        subject = table
        if with_singles:
            subject = TableWithSingles(
                table,
                rng.integers(1, 51, size=shape[0]),
                rng.integers(1, 51, size=shape[1]),
            )
        try:
            evaluator(subject)
        except UndefinedIndicatorError:
            continue
        return subject
    raise RuntimeError("could not draw a valid random table")  # pragma: no cover


def _check_sample_count(sample_count: int):
    if sample_count < 1:
        raise ValueError(f"sample count must be at least 1, got {sample_count}")


def _report(criterion, subject, verdict, witness=None, sample_size=0, notes=""):
    return CriterionReport(
        criterion=criterion,
        subject=subject,
        verdict=verdict,
        witness=witness,
        sample_size=sample_size,
        notes=notes,
    )


def _table_payload(subject) -> dict:
    if isinstance(subject, TableWithSingles):
        return {
            "counts": subject.couples.counts.tolist(),
            "single_men": subject.single_men.tolist(),
            "single_women": subject.single_women.tolist(),
        }
    return {"counts": subject.counts.tolist()}


def _rebuild_subject(payload: Mapping[str, object]):
    table = ContingencyTable(payload["counts"])
    if "single_men" in payload:
        return TableWithSingles(
            table, payload["single_men"], payload["single_women"]
        )
    return table


# ---------------------------------------------------------------------------
# indicator checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _EqualityCheck:
    """One sampled invariance criterion: the transforms of a drawn table,
    the matrix-valued tags that also draw 3x3 tables (compared against
    their transposed base when ``transposed``), the criterion's note after
    the tag's own, and the note that stands in when neither has one."""

    transforms: Callable[[np.random.Generator, object], list[tuple[str, dict]]]
    matrix_tags: tuple[str, ...] = ()
    transposed: bool = False
    notes: str = ""
    fallback_notes: str = ""


def _equality_check(
    criterion: str, tag: str, sample_count: int, seed: int
) -> CriterionReport:
    """Generic invariance check: the evaluator must agree on the original
    subject and on every transformed variant, across the sample."""
    check = _EQUALITY_CHECKS[criterion]
    msp_note = (
        "marginal-immunity and reversal checks read the low-type sorting "
        "parameter; other checks read the aggregate"
        if tag == "msp" else ""
    )
    ll_note = (
        "evaluated in continuous rounding mode (floored benchmark is "
        "ill-posed on the non-integer tables these checks construct)"
        if tag in ("ll", "gll") else ""
    )
    notes = "; ".join(x for x in (msp_note, ll_note, check.notes) if x)
    notes = notes or check.fallback_notes
    shapes = ((2, 2), (3, 3)) if tag in check.matrix_tags else ((2, 2),)
    compare_transposed = check.transposed and tag in check.matrix_tags
    evaluator = indicator_evaluator(tag, criterion)
    rng = _rng_for(seed, criterion, tag)
    with_singles = tag == "msm"
    for i in range(sample_count):
        shape = shapes[i % len(shapes)]
        subject = _random_table(rng, evaluator, shape, with_singles)
        base = evaluator(subject)
        for label, params in check.transforms(rng, subject):
            try:
                violation = _equality_violation(
                    evaluator, tag, subject, base, label, params, compare_transposed
                )
            except HomlabError:
                # undefined on the variant, or an unreachable rake, which
                # ipf_fit rejects as InfeasibilityError before sweeping
                continue
            if violation > VIOLATION_TOL:
                witness = {
                    "kind": "equality",
                    "criterion": criterion,
                    "indicator": tag,
                    "subject": _table_payload(subject),
                    "transform": label,
                    "params": params,
                    "violation": violation,
                    "compare_transposed": compare_transposed,
                }
                return _report(
                    criterion, tag, COUNTEREXAMPLE, witness, i + 1, notes
                )
    return _report(criterion, tag, SATISFIED, None, sample_count, notes)


def _equality_violation(
    evaluator, tag, subject, base, label, params, compare_transposed
) -> float:
    """How far the evaluator moves from ``base``, its value on ``subject``,
    when ``subject`` is transformed; matrix-valued measures may compare
    against their transposed base."""
    other = evaluator(_transform(subject, label, params))
    if compare_transposed:
        base = base.reshape(_matrix_shape(tag, subject)).T.ravel()
    return _difference(base, other)


def _transform(subject, label: str, params: Mapping[str, object]):
    """The variant of ``subject`` that the transform ``label`` builds."""
    if label == "transpose":
        return subject.transposed()
    if label == "rotate-categories":
        couples = couples_of(subject)
        (a, b), (c, d) = couples.counts
        return couples.with_counts(np.array([[d, c], [b, a]]))
    if label == "rake":
        target = Marginals(params["rows"], params["cols"])
        return cf.ipf_fit(couples_of(subject), target, tol=1e-12).table
    return apply_perturbation(subject, MarginalPerturbation(label, params["alpha"]))


def _matrix_shape(tag: str, subject) -> tuple[int, int]:
    couples = couples_of(subject)
    if tag == "msm":
        return couples.n_rows, couples.n_cols
    if tag == "gll":
        return couples.n_rows - 1, couples.n_cols - 1
    return (1, -1)


def _no_params(rng, subject) -> dict:
    return {}


def _scale_params(rng, subject) -> dict:
    return {"alpha": float(rng.uniform(0.2, 5.0))}


def _diagonal_params(rng, subject) -> dict:
    diagonal = rng.integers(1, 51, size=couples_of(subject).n_rows).astype(float)
    return {"diagonal": diagonal.tolist()}


def _scale_transforms(rng, subject):
    return [("scale", _scale_params(rng, subject))]


def _transpose_transforms(rng, subject):
    return [("transpose", {})]


def _rotation_transforms(rng, subject):
    return [("rotate-categories", {})]


def _type1_transforms(rng, subject):
    alpha = float(rng.uniform(0.2, 3.0))
    return [(kind, {"alpha": alpha}) for kind in ("type1-row", "type1-col")]


def _type2_transforms(rng, subject):
    alpha = float(rng.uniform(0.05, 0.95))
    return [(kind, {"alpha": alpha}) for kind in ("type2-row", "type2-col")]


def _raking_transforms(rng, subject):
    couples = couples_of(subject)
    if np.any(couples.counts.sum(axis=1) == 0) or np.any(couples.counts.sum(axis=0) == 0):
        return []
    total = int(rng.integers(40, 200))
    rows = _random_positive_split(rng, total, couples.n_rows)
    cols = _random_positive_split(rng, total, couples.n_cols)
    return [("rake", {"rows": rows, "cols": cols})]


def _random_positive_split(rng, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    bounds = [0] + [int(c) for c in cuts] + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


_EQUALITY_CHECKS = {
    "AC2": _EqualityCheck(_scale_transforms, ("gll",)),
    "AC3": _EqualityCheck(
        _transpose_transforms, ("gll", "msm"), transposed=True,
        fallback_notes="matrix-valued measures compare against the "
        "transposed original",
    ),
    "AC4": _EqualityCheck(_rotation_transforms),
    "AC5.1": _EqualityCheck(_type1_transforms),
    "AC5.2": _EqualityCheck(_type2_transforms),
    "AC5.3": _EqualityCheck(
        _raking_transforms,
        notes="read as raking immunity: the indicator is recomputed after "
        "refitting the table onto fresh marginals (an interpretation; "
        "the catalog's own row is not reproduced)",
    ),
}


def _max_criterion_check(
    criterion: str, tag: str, sample_count: int, seed: int
) -> CriterionReport:
    """AC6/AC7: the reference matching must attain the sample maximum of the
    indicator over the whole transportation polytope (brute-force oracle).

    The lattice is evaluated as one stack; the witness is its first point,
    in enumeration order, that is defined and scores above the reference.
    """
    evaluator = indicator_evaluator(tag, criterion)
    rng = _rng_for(seed, criterion, tag)
    sizes = (2, 3) if tag in ("det", "gll") else (2,)
    checked = 0
    for i in range(sample_count):
        n = sizes[i % len(sizes)]
        if criterion == "AC6":
            diag = rng.integers(1, 9, size=n)
            while diag.sum() > 20:
                diag = rng.integers(1, 9, size=n)
            reference = ContingencyTable(np.diag(diag).astype(float))
            marg = marginals(reference)
        else:
            marg = _random_small_marginals(rng, n)
            reference = pam_match(marg)
        try:
            ref_value = evaluator(reference)
        except UndefinedIndicatorError:
            continue
        checked += 1
        points = lattice(marg, cap=20)
        drops = _maximum_violation(tag, ref_value, points)
        above = np.flatnonzero(drops > VIOLATION_TOL)
        if above.size:
            witness = {
                "kind": "maximum",
                "criterion": criterion,
                "indicator": tag,
                "reference": _table_payload(reference),
                "better": _table_payload(ContingencyTable(points[above[0]])),
                "violation": float(drops[above[0]]),
            }
            return _report(criterion, tag, COUNTEREXAMPLE, witness, checked)
    if checked == 0:
        return _report(
            criterion, tag, NOT_APPLICABLE,
            notes="indicator undefined on every sampled reference matching",
        )
    return _report(criterion, tag, SATISFIED, None, checked)


def _maximum_violation(tag: str, ref_value, candidates) -> np.ndarray:
    """How far each table of the stack ``candidates`` scores above the
    reference matching's value; NaN where the indicator is undefined."""
    values, undefined = ind.evaluate_stack(tag, candidates, ind.CONTINUOUS)
    return np.where(undefined, np.nan, _one_sided_drop(values, ref_value))


def _random_small_marginals(rng, n: int) -> Marginals:
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


def _monotonicity_check(
    criterion: str, tag: str, sample_count: int, seed: int
) -> CriterionReport:
    """AC8.1: adding same-type couples must never lower the indicator.

    Checked on 2x2 instances, where the claim lives for every measure (on
    finer tables an added same-type couple can land off the diagonal of an
    asymmetric coarsening and genuinely lower that split's value).
    """
    evaluator = indicator_evaluator(tag, criterion)
    rng = _rng_for(seed, criterion, tag)
    with_singles = tag == "msm"
    for i in range(sample_count):
        subject = _random_table(rng, evaluator, (2, 2), with_singles)
        diagonal = _diagonal_params(rng, subject)["diagonal"]
        try:
            drop = _monotonicity_violation(evaluator, subject, diagonal)
        except UndefinedIndicatorError:
            continue
        if drop > VIOLATION_TOL:
            witness = {
                "kind": "monotonicity",
                "criterion": criterion,
                "indicator": tag,
                "subject": _table_payload(subject),
                "diagonal": diagonal,
                "violation": drop,
            }
            return _report(criterion, tag, COUNTEREXAMPLE, witness, i + 1)
    return _report(criterion, tag, SATISFIED, None, sample_count)


def _monotonicity_violation(evaluator, subject, diagonal) -> float:
    """How far the evaluator drops when same-type couples are added."""
    return float(_one_sided_drop(
        evaluator(subject), evaluator(_bump_diagonal(subject, diagonal))
    ))


def check_indicator(
    criterion: str, indicator: str, sample_count: int = 200, seed: int = 0
) -> CriterionReport:
    """Run one criterion against one indicator tag.

    Deterministic given ``(seed, sample_count)``. Pairs the catalog marks as
    not applicable come back ``not-applicable`` rather than erroring.
    """
    if criterion not in INDICATOR_CRITERIA:
        raise ValueError(f"unknown indicator criterion: {criterion!r}")
    if indicator not in INDICATOR_TAGS:
        raise ValueError(f"unknown indicator tag: {indicator!r}")
    _check_sample_count(sample_count)
    if (criterion, indicator) in NA_CELLS:
        return _report(criterion, indicator, NOT_APPLICABLE)
    if criterion == "AC8.2":
        return _report(
            criterion, indicator, NOT_AUTOMATED,
            notes="needs linked mobility tables; argued, not executable here",
        )
    if criterion == "AC1":
        cardinal = CARDINAL[indicator]
        witness = None if cardinal else {"kind": "metadata", "cardinal": False}
        return _report(
            criterion, indicator,
            SATISFIED if cardinal else COUNTEREXAMPLE,
            witness, 0, notes="metadata lookup, not a runtime check",
        )
    if criterion in ("AC6", "AC7"):
        return _max_criterion_check(criterion, indicator, sample_count, seed)
    if criterion == "AC8.1":
        return _monotonicity_check(criterion, indicator, sample_count, seed)
    return _equality_check(criterion, indicator, sample_count, seed)


# ---------------------------------------------------------------------------
# method checks
# ---------------------------------------------------------------------------

# One hand-built generation change whose sorting cannot be carried onto the
# target margins without a negative cell: the source sorts negatively while
# the target margins leave almost no room off the diagonal.
SIC_SOURCE = ((10.0, 30.0), (30.0, 30.0))
SIC_TARGET_ROWS = (10.0, 90.0)
SIC_TARGET_COLS = (10.0, 90.0)
SIC_SINGLES = (10.0, 10.0)


def _method_source(rng, shape=(2, 2), with_singles=False):
    counts = rng.integers(1, 51, size=shape).astype(float)
    table = ContingencyTable(counts)
    if with_singles:
        return TableWithSingles(
            table,
            rng.integers(1, 51, size=shape[0]).astype(float),
            rng.integers(1, 51, size=shape[1]).astype(float),
        )
    return table


def _method_target(rng, shape=(2, 2)) -> Marginals:
    counts = rng.integers(1, 51, size=shape).astype(float)
    return marginals(ContingencyTable(counts))


def _run_method(method, source, target, rounding=ind.CONTINUOUS,
                target_singles=None):
    return cf.fit(
        method, source, target, rounding=rounding, tol=1e-12,
        target_singles=target_singles,
    )


def _feasible_method_instance(rng, method, shape=(2, 2)):
    """Draw (source, target) on which the method returns a feasible table."""
    with_singles = method == "csa"
    for _ in range(200):
        source = _method_source(rng, shape, with_singles)
        target = _method_target(rng, shape)
        singles = None
        if with_singles:
            singles = (
                rng.integers(1, 51, size=shape[0]).astype(float),
                rng.integers(1, 51, size=shape[1]).astype(float),
            )
        try:
            result = _run_method(method, source, target, target_singles=singles)
        except (InfeasibilityError, UndefinedIndicatorError):
            continue
        return source, target, singles, result
    raise RuntimeError("could not draw a feasible method instance")  # pragma: no cover


def _relative_cell_gap(a: np.ndarray, b: np.ndarray, scale: float) -> float:
    return float(np.abs(a - b).max() / max(scale, 1.0))


# Gap functions: how far a method's fit departs from what the criterion
# demands. The sampled checks and ``replay_witness`` call the same function;
# ``base`` is the method's fit of (source, target, target_singles).

def _scale_gap(method, source, target, target_singles, base, params) -> float:
    """AC2: the fit of the ``alpha``-scaled problem is ``alpha`` times the fit."""
    r = params["alpha"]
    scaled_target = Marginals(target.row_sums * r, target.col_sums * r)
    scaled_singles = None if target_singles is None else (
        target_singles[0] * r, target_singles[1] * r
    )
    scaled = _run_method(method, source.scaled(r), scaled_target,
                         target_singles=scaled_singles)
    return _relative_cell_gap(
        scaled.table.counts, base.table.counts * r, scaled_target.total
    )


def _transpose_gap(method, source, target, target_singles, base, params) -> float:
    """AC3: the fit of the transposed problem is the transposed fit."""
    target_t = Marginals(target.col_sums, target.row_sums)
    singles_t = None if target_singles is None else (
        target_singles[1], target_singles[0]
    )
    swapped = _run_method(method, source.transposed(), target_t,
                          target_singles=singles_t)
    return _relative_cell_gap(
        swapped.table.counts, base.table.counts.T, target.total
    )


def _marginals_gap(method, source, target, target_singles, base, params) -> float:
    """AC5: the fit reproduces the target margins; for the surplus-based
    method, the target populations of couples plus singles."""
    if method == "csa":
        men = target.row_sums + target_singles[0]
        women = target.col_sums + target_singles[1]
        mu_m = np.array(base.diagnostics["single_men"])
        mu_w = np.array(base.diagnostics["single_women"])
        men_gap = np.abs(mu_m + base.table.counts.sum(axis=1) - men).max()
        women_gap = np.abs(mu_w + base.table.counts.sum(axis=0) - women).max()
        return max(men_gap, women_gap) / max(target.total, 1.0)
    return cf._marginal_error(base.table.counts, target) / max(target.total, 1.0)


def _monotonicity_gap(method, source, target, target_singles, base,
                      params) -> float:
    """AC8.1: adding same-type couples to the source never lowers the
    fit's homogamy share."""
    bumped = _run_method(method, _bump_diagonal(source, params["diagonal"]),
                         target, target_singles=target_singles)
    return homogamy_share(base.table) - homogamy_share(bumped.table)


def _merge_gap(method, source, target, target_singles, row_part,
               col_part) -> float:
    """AC10: merging categories of the fit equals fitting the merged problem."""
    def merged(values, partition):
        return np.array([values[list(block)].sum() for block in partition])

    full = _run_method(method, source, target, target_singles=target_singles)
    merge = merge_with_singles if method == "csa" else merge_categories
    merged_target = Marginals(
        merged(target.row_sums, row_part), merged(target.col_sums, col_part)
    )
    merged_singles = None if target_singles is None else (
        merged(target_singles[0], row_part), merged(target_singles[1], col_part)
    )
    coarse = _run_method(method, merge(source, row_part, col_part),
                         merged_target, target_singles=merged_singles)
    return _relative_cell_gap(
        merge_categories(full.table, row_part, col_part).counts,
        coarse.table.counts,
        target.total,
    )


@dataclass(frozen=True)
class _MethodCheck:
    """One sampled method criterion: witness kind, gap function, the draw
    of its own parameters after the instance (None for AC10, which draws
    its instance and partitions itself), and the report notes."""

    kind: str
    gap: Callable[..., float]
    params: Callable[[np.random.Generator, object], dict] | None
    notes: str = ""


_METHOD_CHECKS = {
    "AC2": _MethodCheck("method-scale", _scale_gap, _scale_params),
    "AC3": _MethodCheck("method-transpose", _transpose_gap, _no_params),
    "AC5": _MethodCheck(
        "method-marginals", _marginals_gap, _no_params,
        notes="each method controls for marginal changes by construction; "
        "checked as reproduction of the target margins",
    ),
    "AC8.1": _MethodCheck(
        "method-monotonicity", _monotonicity_gap, _diagonal_params,
        notes="checked on the implied counterfactual homogamy share",
    ),
    "AC10": _MethodCheck(
        "method-merge", _merge_gap, None,
        notes="merge commutation on random 3x3 and 4x3 tables; the "
        "LL-preserving method runs in continuous rounding mode",
    ),
}


def _target_of(target_table):
    """Target margins and target singles (None without singles) of a table."""
    if isinstance(target_table, TableWithSingles):
        return marginals(target_table.couples), (
            target_table.single_men, target_table.single_women
        )
    return marginals(target_table), None


def _draw_instance(rng, method, check: _MethodCheck):
    """Draw one sample: the gap function's arguments and the witness payload
    they are rebuilt from."""
    if check.params is None:
        shape = (3, 3) if rng.integers(0, 2) else (4, 3)
        with_singles = method == "csa"
        source = _method_source(rng, shape, with_singles)
        target_table = _method_source(rng, shape, with_singles)
        row_part = _random_two_block_partition(rng, shape[0])
        col_part = _random_two_block_partition(rng, shape[1])
        payload = {
            "source": _table_payload(source),
            "target": _table_payload(target_table),
            "row_partition": [list(b) for b in row_part],
            "col_partition": [list(b) for b in col_part],
        }
        return (source, *_target_of(target_table), row_part, col_part), payload
    source, target, singles, base = _feasible_method_instance(rng, method)
    params = check.params(rng, source)
    payload = {
        "source": _table_payload(source),
        "target_rows": target.row_sums.tolist(),
        "target_cols": target.col_sums.tolist(),
        **params,
    }
    if singles is not None:
        payload["target_singles"] = [s.tolist() for s in singles]
    return (source, target, singles, base, params), payload


def _rebuild_instance(w: Mapping[str, object]) -> tuple:
    """The gap function's arguments, rebuilt from a witness payload."""
    source = _rebuild_subject(w["source"])
    if w["kind"] == "method-merge":
        target_table = _rebuild_subject(w["target"])
        return (source, *_target_of(target_table),
                w["row_partition"], w["col_partition"])
    target = Marginals(np.array(w["target_rows"]), np.array(w["target_cols"]))
    singles = w.get("target_singles")
    if singles is not None:
        singles = (np.array(singles[0]), np.array(singles[1]))
    base = _run_method(w["method"], source, target, target_singles=singles)
    return source, target, singles, base, w


def _method_gap_check(criterion, method, sample_count, seed) -> CriterionReport:
    check = _METHOD_CHECKS[criterion]
    rng = _rng_for(seed, criterion, method)
    for i in range(sample_count):
        args, payload = _draw_instance(rng, method, check)
        try:
            violation = check.gap(method, *args)
        except (InfeasibilityError, UndefinedIndicatorError):
            continue
        if violation > VIOLATION_TOL:
            witness = {"kind": check.kind, **payload, "criterion": criterion,
                       "method": method, "violation": violation}
            return _report(criterion, method, COUNTEREXAMPLE, witness, i + 1,
                           check.notes)
    return _report(criterion, method, SATISFIED, None, sample_count, check.notes)


def check_method(
    criterion: str, method: str, sample_count: int = 200, seed: int = 0
) -> CriterionReport:
    """Run one criterion against one counterfactual method tag.

    The LL-preserving method is exercised in continuous rounding mode for
    the analytical checks; the floored mode exists for integer census work
    and is exercised by its own unit tests.
    """
    if criterion not in METHOD_CRITERIA:
        raise ValueError(f"unknown method criterion: {criterion!r}")
    method = method.lower()
    if method not in METHOD_TAGS:
        raise ValueError(f"unknown method tag: {method!r}")
    _check_sample_count(sample_count)
    if criterion == "AC11":
        return _report(
            criterion, method, NOT_AUTOMATED,
            notes="the quantified change can never be independent of the "
            "category count; no method attains this",
        )
    if criterion == "AC10" and method == "mdba":
        return _report(
            criterion, method, NOT_APPLICABLE,
            notes="undefined above 2x2, so merge commutation cannot be posed",
        )
    if criterion in _METHOD_CHECKS:
        return _method_gap_check(criterion, method, sample_count, seed)

    if criterion == "AC12":
        source = ContingencyTable(np.array(SIC_SOURCE))
        target = Marginals(np.array(SIC_TARGET_ROWS), np.array(SIC_TARGET_COLS))
        singles = None
        subject: ContingencyTable | TableWithSingles = source
        if method == "csa":
            subject = TableWithSingles(
                source, np.array(SIC_SINGLES), np.array(SIC_SINGLES)
            )
            singles = (np.array(SIC_SINGLES), np.array(SIC_SINGLES))
        witness = {
            "kind": "sic",
            "method": method,
            "source": _table_payload(subject),
            "target_rows": list(SIC_TARGET_ROWS),
            "target_cols": list(SIC_TARGET_COLS),
        }
        try:
            # floored mode here: the crafted case is integer census-like data
            result = cf.fit(method, subject, target,
                            rounding=ind.PAPER_INTEGER, tol=1e-12,
                            target_singles=singles)
        except InfeasibilityError as exc:
            witness.update(signaled=True, detail=str(exc))
            return _report(
                "AC12", method, SATISFIED, witness, 1,
                notes="infeasibility error raised on the crafted impossible case",
            )
        witness.update(signaled=False, returned=result.table.counts.tolist())
        return _report(
            "AC12", method, COUNTEREXAMPLE, witness, 1,
            notes="returned a table without signaling on the crafted "
            "impossible case",
        )

    raise AssertionError("unreachable")  # pragma: no cover


def _random_two_block_partition(rng, size: int):
    cut = int(rng.integers(1, size))
    return [tuple(range(cut)), tuple(range(cut, size))]


# ---------------------------------------------------------------------------
# witness replay and matrix assembly
# ---------------------------------------------------------------------------

def replay_witness(report: CriterionReport) -> float:
    """Recompute a counterexample witness's violation from its raw inputs.

    Replay rebuilds the inputs from the witness payload and runs the same
    violation function as the check that drew them, so a numeric witness
    replays to exactly the violation it records. Method witnesses of the
    surplus-based method carry the drawn ``target_singles``. The crafted
    impossible-counterfactual witness replays to infinity when the method
    failed to signal (there is no defining equation to measure against)
    and the metadata kind to 1.
    """
    w = report.witness
    if w is None:
        raise ValueError("report carries no witness")
    kind = w["kind"]
    if kind == "metadata":
        return 1.0
    if kind == "sic":
        return 0.0 if w["signaled"] else math.inf
    method_checks = {c.kind: c for c in _METHOD_CHECKS.values()}
    if kind in method_checks:
        return method_checks[kind].gap(w["method"], *_rebuild_instance(w))
    if kind not in ("equality", "maximum", "monotonicity"):
        raise ValueError(f"unknown witness kind: {kind!r}")
    evaluator = indicator_evaluator(w["indicator"], w["criterion"])
    if kind == "maximum":
        better = _rebuild_subject(w["better"]).counts
        (drop,) = _maximum_violation(
            w["indicator"],
            evaluator(_rebuild_subject(w["reference"])),
            better[None],
        )
        if math.isnan(drop):
            raise UndefinedIndicatorError("indicator undefined on the better table")
        return float(drop)
    subject = _rebuild_subject(w["subject"])
    if kind == "monotonicity":
        return _monotonicity_violation(evaluator, subject, w["diagonal"])
    return _equality_violation(
        evaluator, w["indicator"], subject, evaluator(subject),
        w["transform"], w["params"], w["compare_transposed"],
    )


def indicator_matrix(
    sample_count: int = 200, seed: int = 0
) -> dict[tuple[str, str], CriterionReport]:
    """Every indicator criterion against every indicator tag."""
    return {
        (criterion, tag): check_indicator(criterion, tag, sample_count, seed)
        for criterion in INDICATOR_CRITERIA
        for tag in INDICATOR_TAGS
    }


def method_matrix(
    sample_count: int = 200, seed: int = 0
) -> dict[tuple[str, str], CriterionReport]:
    """Every method criterion against every method tag."""
    return {
        (criterion, tag): check_method(criterion, tag, sample_count, seed)
        for criterion in METHOD_CRITERIA
        for tag in METHOD_TAGS
    }


VERDICT_CODES = {
    SATISFIED: "Y",
    COUNTEREXAMPLE: "N",
    NOT_APPLICABLE: "NA",
    NOT_AUTOMATED: "NT",
}
