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
import multiprocessing
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from . import counterfactual as cf
from . import indicators as ind
from .errors import InfeasibilityError, UndefinedIndicatorError
from .tables import (
    ContingencyTable,
    Marginals,
    TableWithSingles,
    _block_sum,
    homogamy_shares,
    lattice,
    pam_counts,
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
class CriterionReport:
    """Outcome of one (criterion, subject) check."""

    criterion: str
    subject: str
    verdict: str
    witness: Mapping[str, object] | None = None
    sample_size: int = 0
    notes: str = ""


def _perturbed(kind: str, alpha, counts: np.ndarray) -> np.ndarray:
    """A type-1 or type-2 perturbation of a 2x2 table's cells, or of a
    stack's (T, 2, 2) with one ``alpha`` per table: type 1 scales the high
    row (column) by ``alpha``, type 2 moves the share ``alpha`` of the low
    row (column) to the high one."""
    if kind.endswith("-col"):
        rows = _perturbed(kind[:-4] + "-row", alpha, np.swapaxes(counts, -1, -2))
        return np.swapaxes(rows, -1, -2)
    al = np.asarray(alpha, dtype=float)[..., None]
    low, high = counts[..., 0, :], counts[..., 1, :]
    if kind == "type1-row":
        return np.stack([low, al * high], axis=-2)
    return np.stack([(1 - al) * low, high + al * low], axis=-2)


# ---------------------------------------------------------------------------
# indicator evaluation
# ---------------------------------------------------------------------------

# The local low-type sorting parameter is the facet of the MSP family that
# the marginal-immunity and category-reversal criteria discriminate on (the
# observed-count weighting makes the aggregate identically symmetric under
# the low/high swap, and the type-2 reclassification preserves exactly the
# low-type parameter); the remaining criteria read the aggregate.
_MSP_LOCAL_CRITERIA = frozenset({"AC4", "AC5.1", "AC5.2", "AC5.3"})


def _evaluator(tag: str, criterion: str) -> Callable:
    """Stacked evaluation of an indicator, as compared by a criterion.

    The function maps couples (T, n, m) and singles (single men (T, n) and
    women (T, m), or None) to ``(values, undefined)`` of
    :func:`~homlab.indicators.evaluate_stack` in continuous rounding mode,
    because the checks feed real-valued (rescaled, reclassified or raked)
    tables, where flooring the LL family's random benchmark is ill-posed.
    ``msp`` reads its local low-type facet, the ``msp_l`` output of its
    kernel, under the criteria that discriminate on it.
    """
    if tag == "msp" and criterion in _MSP_LOCAL_CRITERIA:
        def local(counts, singles):
            msp_l, _, _, undefined = ind._TWO_BY_TWO["msp"].run(counts, ind.CONTINUOUS)
            return msp_l[:, None], undefined
        return local
    return lambda counts, singles: ind.evaluate_stack(tag, counts, ind.CONTINUOUS, singles)


def _difference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Largest absolute difference along the last axis of two equal-shape
    stacks of vectors, the larger of the two one-sided drops (+0.0 where
    neither is positive)."""
    drop = np.maximum(_one_sided_drop(x, y), _one_sided_drop(y, x))
    return np.where(drop > 0.0, drop, 0.0)


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
# random instance generation and sampling rounds
# ---------------------------------------------------------------------------

def _rng_for(seed: int, criterion: str, subject: str) -> np.random.Generator:
    crit_ix = (INDICATOR_CRITERIA + METHOD_CRITERIA).index(criterion)
    try:
        subj_ix = INDICATOR_TAGS.index(subject)
    except ValueError:
        subj_ix = len(INDICATOR_TAGS) + METHOD_TAGS.index(subject)
    return np.random.default_rng([seed, crit_ix, subj_ix])


def _check_sampling(sample_count: int, seed: int):
    if sample_count < 1:
        raise ValueError(f"sample count must be at least 1, got {sample_count}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def _payload(counts: np.ndarray, singles=None) -> dict:
    """Cells and, with singles, (single men, single women) as a witness
    payload."""
    payload = {"counts": counts.tolist()}
    if singles is not None:
        payload.update(single_men=singles[0].tolist(), single_women=singles[1].tolist())
    return payload


def _table_payload(subject) -> dict:
    if isinstance(subject, TableWithSingles):
        return _payload(subject.couples.counts, (subject.single_men, subject.single_women))
    return _payload(subject.counts)


def _first_hit(rng, sample_count: int, draw, bases, scan):
    """``(sample_size, hit)`` of the first violating sample, or None, found
    on stacks with the stream of a loop over single samples.

    That loop redraws a sample while its base is rejected (200 times at
    most), draws the criterion's parameters and stops at the first
    violation. A round draws samples in stream order as if every base were
    accepted: ``draw(rng, start, size)`` gives them and the generator state
    where each one's redraw starts. ``bases(batch)`` gives the bases and one
    error per sample (None if accepted); ``scan(batch, base, accepted)``
    gives ``(t, hit)`` of the first violation among the accepted samples,
    or None, raising what the loop would raise there. At the first rejected
    base the generator goes back to the redraw; a base error the loop would
    not skip is raised. Rounds start at one sample and double while no base
    is rejected.
    """
    done, size, rejected = 0, 1, 0
    while done < sample_count:
        batch, states = draw(rng, done, min(size, sample_count - done))
        base, errors = bases(batch)
        failed = [t for t, error in enumerate(errors) if error is not None]
        accepted = failed[0] if failed else len(states)
        found = scan(batch, base, accepted)
        if found is not None:
            return done + found[0] + 1, found[1]
        done, size = done + accepted, 2 * size
        if failed:
            if not isinstance(errors[accepted], _SKIPPED):
                raise errors[accepted]
            rejected = rejected + 1 if accepted == 0 else 1
            if rejected == 200:
                raise RuntimeError("could not draw a valid random instance")  # pragma: no cover
            rng.bit_generator.state = states[accepted]
            size = max(2 * accepted, 1)
    return None


# ---------------------------------------------------------------------------
# indicator checks
# ---------------------------------------------------------------------------

# A drawn indicator sample is a tuple: its couples (n, m), its (single men,
# single women) for ``msm`` or None, and the criterion's transforms of it,
# each a label and its parameters.

def _draw_tables(rng, start, size, shapes, with_singles, transforms):
    """Samples ``start`` to ``start + size - 1``, drawn in stream order as if
    the indicator were defined on every table: cells uniform on [0, 50] (an
    all-zero table is redrawn at once), for ``msm`` singles uniform on
    [1, 50], then the transforms; and the state after each table, where a
    rejected table's redraw starts."""
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


def _stacks(drawn: list[tuple], ix: list[int]):
    """Couples and singles (or None) stacks of the samples ``ix``, all of
    one shape."""
    counts = np.array([drawn[t][0] for t in ix])
    if drawn[ix[0]][1] is None:
        return counts, None
    return counts, tuple(np.array(s) for s in zip(*(drawn[t][1] for t in ix)))


def _variants(label: str, counts, singles, params: list[dict]):
    """The transform ``label`` of a stack of samples of one shape, with one
    parameter dict per sample: the variants' couples and singles (None
    without), and per sample None or the error of a rake whose fit fails."""
    errors = [None] * len(counts)
    if label == "transpose":
        return np.swapaxes(counts, -1, -2), singles and singles[::-1], errors
    if label == "rotate-categories":  # the couples alone, as a plain table
        return counts[:, ::-1, ::-1], None, errors
    if label == "diagonal":
        diagonal = np.array([p["diagonal"] for p in params])
        return counts + diagonal[:, :, None] * np.eye(counts.shape[-1]), singles, errors
    if label == "rake":
        rows, cols = (np.array([p[k] for p in params], dtype=float) for k in ("rows", "cols"))
        fits = cf.fit_stack("ipf", counts, rows, cols, tol=1e-12)
        failed = np.array([e is not None for e in fits.errors])
        return np.where(failed[:, None, None], counts, fits.counts), None, list(fits.errors)
    alpha = np.array([p["alpha"] for p in params])
    if label == "scale":
        r = alpha[:, None]
        return counts * r[..., None], singles and (singles[0] * r, singles[1] * r), errors
    return _perturbed(label, alpha, counts), singles, errors


def _indicator_violations(evaluate, label, counts, singles, base, params):
    """How far the indicator moves from ``base``, the values a stack of
    samples of one shape must keep, under the transform ``label`` (for
    AC8.1's added couples, the one-sided drop), and per sample None or the
    error that skips it: an undefined variant, or a failed rake. The checks
    and ``replay_witness`` call this, the latter on a stack of one."""
    variant, variant_singles, errors = _variants(label, counts, singles, params)
    values, undefined = evaluate(variant, variant_singles)
    errors = [error or (UndefinedIndicatorError("indicator undefined on the variant")
                        if bad else None) for error, bad in zip(errors, undefined)]
    if label == "diagonal":
        return _one_sided_drop(base, values), errors
    return _difference(base, values), errors


def _base_values(evaluate, tag: str, transposed: bool, counts, singles):
    """The values of a stack of samples of one shape that its variants must
    keep, and where the indicator is undefined: for the matrix-valued tags
    under AC3, the transposed matrix."""
    values, undefined = evaluate(counts, singles)
    if transposed:
        n, m = counts.shape[1:]
        shape = (n, m) if tag == "msm" else (n - 1, m - 1)
        values = values.reshape(-1, *shape).swapaxes(1, 2).reshape(len(values), -1)
    return values, undefined


@dataclass(frozen=True)
class _IndicatorCheck:
    """One sampled indicator criterion: the draw of a table's transforms,
    the matrix-valued tags that also draw 3x3 tables (compared against
    their transposed base when ``transposed``), the criterion's note after
    the tag's own, the note that stands in when neither has one, and the
    witness kind (a ``monotonicity`` check carries no notes)."""

    transforms: Callable[[np.random.Generator, np.ndarray], list[tuple[str, dict]]]
    matrix_tags: tuple[str, ...] = ()
    transposed: bool = False
    notes: str = ""
    fallback_notes: str = ""
    kind: str = "equality"


_LL_NOTE = ("evaluated in continuous rounding mode (floored benchmark is "
            "ill-posed on the non-integer tables these checks construct)")
# each tag's note on the invariance criteria, before the criterion's own
_TAG_NOTES = {
    "msp": "marginal-immunity and reversal checks read the low-type sorting "
    "parameter; other checks read the aggregate",
    "ll": _LL_NOTE,
    "gll": _LL_NOTE,
}


def _indicator_notes(check: _IndicatorCheck, tag: str) -> str:
    if check.kind == "monotonicity":
        return ""
    notes = "; ".join(x for x in (_TAG_NOTES.get(tag), check.notes) if x)
    return notes or check.fallback_notes


def _grouped(keys) -> list[list[int]]:
    """The positions of equal keys, in order of first appearance."""
    groups: dict[object, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _sampled_indicator_check(criterion, tag, sample_count, seed) -> CriterionReport:
    """AC2 to AC5.3 and AC8.1 in the rounds of :func:`_first_hit`: a table
    is redrawn while the indicator is undefined on it, and the witness is
    the first (sample, transform), in loop order, whose violation exceeds
    ``VIOLATION_TOL``; a variant on which the indicator is undefined, or a
    rake whose fit fails, is skipped."""
    check = _INDICATOR_CHECKS[criterion]
    evaluate = _evaluator(tag, criterion)
    transposed = check.transposed and tag in check.matrix_tags
    shapes = ((2, 2), (3, 3)) if tag in check.matrix_tags else ((2, 2),)

    def draw(rng, start, size):
        return _draw_tables(rng, start, size, shapes, tag == "msm", check.transforms)

    def bases(drawn):
        values, errors = [None] * len(drawn), [None] * len(drawn)
        for ix in _grouped(counts.shape for counts, _, _ in drawn):
            stacked, undefined = _base_values(evaluate, tag, transposed, *_stacks(drawn, ix))
            for t, value, bad in zip(ix, stacked, undefined):
                values[t] = value
                errors[t] = UndefinedIndicatorError("indicator undefined") if bad else None
        return values, errors

    def scan(drawn, values, accepted):
        items = [(t, j, label, params) for t in range(accepted)
                 for j, (label, params) in enumerate(drawn[t][2])]
        hits = []
        for group in _grouped((drawn[t][0].shape, label) for t, _, label, _ in items):
            ix = [items[i][0] for i in group]
            violations, errors = _indicator_violations(
                evaluate, items[group[0]][2], *_stacks(drawn, ix),
                np.array([values[t] for t in ix]), [items[i][3] for i in group],
            )
            hits += [(*items[i], float(v)) for i, v, error in zip(group, violations, errors)
                     if error is None and v > VIOLATION_TOL]
        if not hits:
            return None
        t, _, label, params, violation = min(hits)
        return t, (_payload(*drawn[t][:2]), label, params, violation)

    notes = _indicator_notes(check, tag)
    found = _first_hit(_rng_for(seed, criterion, tag), sample_count, draw, bases, scan)
    if found is None:
        return CriterionReport(criterion, tag, SATISFIED, None, sample_count, notes)
    sample_size, (subject, label, params, violation) = found
    witness = {"kind": check.kind, "criterion": criterion, "indicator": tag,
               "subject": subject, "violation": violation}
    if check.kind == "monotonicity":
        witness["diagonal"] = params["diagonal"]
    else:
        witness.update(transform=label, params=params, compare_transposed=transposed)
    return CriterionReport(criterion, tag, COUNTEREXAMPLE, witness, sample_size, notes)


# Parameter draws of a criterion, given the shape of the drawn table.

def _no_params(rng, shape: tuple) -> dict:
    return {}


def _scale_params(rng, shape: tuple) -> dict:
    return {"alpha": float(rng.uniform(0.2, 5.0))}


def _diagonal_params(rng, shape: tuple) -> dict:
    diagonal = rng.integers(1, 51, size=shape[0]).astype(float)
    return {"diagonal": diagonal.tolist()}


def _cut_params(rng, shape: tuple) -> dict:
    """AC10's cuts: rows and columns merge in two blocks, after the first
    ``row_cut`` and ``col_cut`` categories."""
    return {f"{axis}_cut": int(rng.integers(1, k)) for axis, k in zip(("row", "col"), shape)}


def _alpha_transforms(kind: str, low: float, high: float):
    """The draw of one ``alpha`` on [low, high), shared by the row and the
    column variant of the perturbation ``kind``."""
    def draw(rng, counts):
        alpha = float(rng.uniform(low, high))
        return [(f"{kind}-{axis}", {"alpha": alpha}) for axis in ("row", "col")]
    return draw


def _raking_transforms(rng, counts):
    if np.any(counts.sum(axis=1) == 0) or np.any(counts.sum(axis=0) == 0):
        return []
    total = int(rng.integers(40, 200))
    rows = _random_positive_split(rng, total, len(counts))
    cols = _random_positive_split(rng, total, counts.shape[1])
    return [("rake", {"rows": rows, "cols": cols})]


def _random_positive_split(rng, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    bounds = [0] + [int(c) for c in cuts] + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


_INDICATOR_CHECKS = {
    "AC2": _IndicatorCheck(
        lambda rng, counts: [("scale", _scale_params(rng, counts.shape))], ("gll",)),
    "AC3": _IndicatorCheck(
        lambda rng, counts: [("transpose", {})], ("gll", "msm"), transposed=True,
        fallback_notes="matrix-valued measures compare against the "
        "transposed original",
    ),
    "AC4": _IndicatorCheck(lambda rng, counts: [("rotate-categories", {})]),
    "AC5.1": _IndicatorCheck(_alpha_transforms("type1", 0.2, 3.0)),
    "AC5.2": _IndicatorCheck(_alpha_transforms("type2", 0.05, 0.95)),
    "AC5.3": _IndicatorCheck(
        _raking_transforms,
        notes="read as raking immunity: the indicator is recomputed after "
        "refitting the table onto fresh marginals (an interpretation; "
        "the catalog's own row is not reproduced)",
    ),
    # checked on 2x2 tables, where the claim lives for every measure (on
    # finer tables an added same-type couple can land off the diagonal of
    # an asymmetric coarsening and genuinely lower that split's value)
    "AC8.1": _IndicatorCheck(
        lambda rng, counts: [("diagonal", _diagonal_params(rng, counts.shape))],
        kind="monotonicity",
    ),
}


def _max_criterion_check(
    criterion: str, tag: str, sample_count: int, seed: int
) -> CriterionReport:
    """AC6/AC7: the reference matching must attain the sample maximum of the
    indicator over the whole transportation polytope (brute-force oracle).

    A sample is a pair of margins, drawn in the rounds of
    :func:`_first_hit`. No sample is redrawn: a reference (the diagonal
    table, or the perfectly assortative matching) on which the indicator is
    undefined is skipped and not counted. Each distinct pair's reference
    and lattice are scored once, as stacks. The witness is the first
    lattice point, in enumeration order, that is defined and scores above
    the reference.
    """
    evaluate = _evaluator(tag, criterion)
    sizes = (2, 3) if tag in ("det", "gll") else (2,)
    drawn: list[tuple] = []
    scored: dict[tuple, tuple | None] = {}

    def draw(rng, start, size):
        keys = [_draw_margins(rng, criterion, sizes[i % len(sizes)])
                for i in range(start, start + size)]
        drawn.extend(keys)
        return keys, [None] * size

    def bases(keys):
        new = [key for key in dict.fromkeys(keys) if key not in scored]
        for ix in _grouped(len(key[0]) for key in new):
            scored.update(_score_lattices(evaluate, criterion, [new[i] for i in ix]))
        return None, [None] * len(keys)

    def scan(keys, _, accepted):
        hits = [t for t, key in enumerate(keys) if scored[key] and scored[key][1]]
        return (hits[0], scored[keys[hits[0]]]) if hits else None

    found = _first_hit(_rng_for(seed, criterion, tag), sample_count, draw, bases, scan)
    checked = sum(scored[key] is not None for key in drawn[:found[0] if found else None])
    if found:
        reference, (better, violation) = found[1]
        witness = {"kind": "maximum", "criterion": criterion, "indicator": tag,
                   "reference": _payload(reference), "better": _payload(better),
                   "violation": violation}
        return CriterionReport(criterion, tag, COUNTEREXAMPLE, witness, checked)
    if checked == 0:
        return CriterionReport(
            criterion, tag, NOT_APPLICABLE,
            notes="indicator undefined on every sampled reference matching",
        )
    return CriterionReport(criterion, tag, SATISFIED, None, checked)


def _draw_margins(rng, criterion: str, n: int) -> tuple:
    """One AC6/AC7 sample's (rows, cols), as tuples of integers: those of a
    diagonal table of at most 20 couples, or small random margins (totals
    at most 20 for 2x2, 12 for 3x3)."""
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


def _score_lattices(evaluate, criterion: str, keys: list[tuple]) -> dict:
    """Each margin pair of ``keys`` (all of one size) mapped to its reference
    and its hit, the first lattice point that scores above the reference by
    more than ``VIOLATION_TOL`` with that violation (None without one), or
    to None where the indicator is undefined on the reference."""
    rows, cols = (np.array([k[i] for k in keys], dtype=float) for i in (0, 1))
    if criterion == "AC6":
        references = rows[:, :, None] * np.eye(rows.shape[1])
    else:
        references = pam_counts(rows, cols)
    values, undefined = evaluate(references, None)
    scored: dict[tuple, tuple | None] = {key: None for key in keys}
    defined = np.flatnonzero(~undefined)
    if not defined.size:
        return scored
    lattices = [lattice(Marginals(rows[i], cols[i]), cap=20) for i in defined]
    sizes = [len(points) for points in lattices]
    drops = _maximum_violation(
        evaluate, np.repeat(values[defined], sizes, axis=0), np.concatenate(lattices)
    )
    for i, points, part in zip(defined, lattices, np.split(drops, np.cumsum(sizes)[:-1])):
        above = np.flatnonzero(part > VIOLATION_TOL)
        hit = (points[above[0]].astype(float), float(part[above[0]])) if above.size else None
        scored[keys[i]] = (references[i], hit)
    return scored


def _maximum_violation(evaluate, references, points) -> np.ndarray:
    """How far each table of the stack ``points`` scores above the value of
    its reference matching, a row of ``references``; NaN where the
    indicator is undefined on the table."""
    values, undefined = evaluate(points, None)
    return np.where(undefined, np.nan, _one_sided_drop(values, references))


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
    _check_sampling(sample_count, seed)
    if (criterion, indicator) in NA_CELLS:
        return CriterionReport(criterion, indicator, NOT_APPLICABLE)
    if criterion == "AC8.2":
        return CriterionReport(
            criterion, indicator, NOT_AUTOMATED,
            notes="needs linked mobility tables; argued, not executable here",
        )
    if criterion == "AC1":
        cardinal = CARDINAL[indicator]
        witness = None if cardinal else {"kind": "metadata", "cardinal": False}
        return CriterionReport(
            criterion, indicator,
            SATISFIED if cardinal else COUNTEREXAMPLE,
            witness, 0, notes="metadata lookup, not a runtime check",
        )
    if criterion in ("AC6", "AC7"):
        return _max_criterion_check(criterion, indicator, sample_count, seed)
    return _sampled_indicator_check(criterion, indicator, sample_count, seed)


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


def _draw_counts(rng, shape, with_singles: bool):
    """One method source or target: cells uniform on [1, 50] and, with
    singles, (single men, single women) per category, else None."""
    counts = rng.integers(1, 51, size=shape).astype(float)
    if not with_singles:
        return counts, None
    return counts, tuple(rng.integers(1, 51, size=k).astype(float) for k in shape)


# Base and variant fits that raise these are rejected or skipped samples;
# any other error ends the check.
_SKIPPED = (InfeasibilityError, UndefinedIndicatorError)


@dataclass(frozen=True)
class _MethodStack:
    """Sampled method problems as arrays: source couples (T, n, m), target
    margins (T, n) and (T, m), the sources' and the targets' (single men,
    single women) for the surplus-based method (else None), the
    criterion's parameters, one array per name, and the target couples
    (T, n, m) the margins were summed from, where drawn."""

    counts: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    singles: tuple | None = None
    target_singles: tuple | None = None
    params: Mapping[str, np.ndarray] = field(default_factory=dict)
    targets: np.ndarray | None = None

    def fit(self, method: str) -> cf.FitStack:
        return cf.fit_stack(
            method, self.counts, self.rows, self.cols, rounding=ind.CONTINUOUS,
            tol=1e-12, singles=self.singles, target_singles=self.target_singles,
        )

    def payload(self, t: int) -> dict:
        """Problem ``t`` as a witness payload; :func:`_stack_of_one` reads it.
        An AC10 problem gives its target table and its two-block partitions
        in place of the target margins and parameters."""
        singles, target_singles = (
            pair and tuple(s[t] for s in pair) for pair in (self.singles, self.target_singles)
        )
        source = _payload(self.counts[t], singles)
        if "row_cut" in self.params:
            row_cut, col_cut = (int(self.params[f"{axis}_cut"][t]) for axis in ("row", "col"))
            n, m = self.counts.shape[1:]
            return {"source": source, "target": _payload(self.targets[t], target_singles),
                    "row_partition": [list(range(row_cut)), list(range(row_cut, n))],
                    "col_partition": [list(range(col_cut)), list(range(col_cut, m))]}
        payload = {}
        if self.singles is not None:
            payload = {"target_singles": [s.tolist() for s in target_singles]}
        return {"source": source, "target_rows": self.rows[t].tolist(),
                "target_cols": self.cols[t].tolist(), **payload,
                **{name: values[t].tolist() for name, values in self.params.items()}}


def _one(*values) -> tuple:
    """Each of ``values`` as a float stack of one."""
    return tuple(np.array([v], dtype=float) for v in values)


def _singles_of_one(payload: Mapping[str, object]):
    """A witness table's singles as stacks of one, or None without."""
    if "single_men" not in payload:
        return None
    return _one(payload["single_men"], payload["single_women"])


def _stack_of_one(w: Mapping[str, object]) -> _MethodStack:
    """A sampled method witness's problem as a stack of one."""
    source, singles = w["source"], _singles_of_one(w["source"])
    if "target" in w:  # AC10: the target table, and partitions cut in two
        counts, target = _one(source["counts"], w["target"]["counts"])
        cuts = {f"{axis}_cut": np.array([len(w[f"{axis}_partition"][0])])
                for axis in ("row", "col")}
        return _MethodStack(counts, target.sum(axis=-1), target.sum(axis=-2), singles,
                            _singles_of_one(w["target"]), cuts, target)
    return _MethodStack(
        *_one(source["counts"], w["target_rows"], w["target_cols"]), singles,
        _one(*w["target_singles"]) if singles else None,
        {name: _one(w[name])[0] for name in ("alpha", "diagonal") if name in w},
    )


def _relative_cell_gap(a: np.ndarray, b: np.ndarray, scale):
    return np.abs(a - b).max(axis=(-2, -1)) / np.maximum(scale, 1.0)


# Gap functions: how far a method's fits depart from what the criterion
# demands, on a stack of problems whose fits are ``base``. Each returns the
# gaps and the errors of the variant fits it makes. The sampled checks and
# ``replay_witness`` call the same function, the latter on a stack of one.

def _scale_gap(method, inst: _MethodStack, base: cf.FitStack):
    """AC2: the fit of the ``alpha``-scaled problem is ``alpha`` times the fit."""
    r = inst.params["alpha"]

    def scaled(pair):
        return None if pair is None else (pair[0] * r[:, None], pair[1] * r[:, None])

    problem = _MethodStack(
        inst.counts * r[:, None, None], inst.rows * r[:, None], inst.cols * r[:, None],
        scaled(inst.singles), scaled(inst.target_singles),
    )
    fits = problem.fit(method)
    gaps = _relative_cell_gap(
        fits.counts, base.counts * r[:, None, None], problem.rows.sum(axis=-1)
    )
    return gaps, fits.errors


def _transpose_gap(method, inst: _MethodStack, base: cf.FitStack):
    """AC3: the fit of the transposed problem is the transposed fit."""
    def swapped(pair):
        return None if pair is None else pair[::-1]

    problem = _MethodStack(
        np.swapaxes(inst.counts, -1, -2), inst.cols, inst.rows,
        swapped(inst.singles), swapped(inst.target_singles),
    )
    fits = problem.fit(method)
    gaps = _relative_cell_gap(
        fits.counts, np.swapaxes(base.counts, -1, -2), inst.rows.sum(axis=-1)
    )
    return gaps, fits.errors


def _marginals_gap(method, inst: _MethodStack, base: cf.FitStack):
    """AC5: the fit reproduces the target margins; for the surplus-based
    method, the target populations of couples plus singles."""
    gaps = base.residual
    if method == "csa":
        men, women = inst.rows + inst.target_singles[0], inst.cols + inst.target_singles[1]
        men_gap = np.abs(base.extra["single_men"] + base.counts.sum(axis=-1) - men)
        women_gap = np.abs(base.extra["single_women"] + base.counts.sum(axis=-2) - women)
        gaps = np.maximum(men_gap.max(axis=-1), women_gap.max(axis=-1))
    return gaps / np.maximum(inst.rows.sum(axis=-1), 1.0), (None,) * len(gaps)


def _monotonicity_gap(method, inst: _MethodStack, base: cf.FitStack):
    """AC8.1: adding same-type couples to the source never lowers the
    fit's homogamy share."""
    diagonal = inst.params["diagonal"][:, :, None] * np.eye(inst.counts.shape[-1])
    fits = replace(inst, counts=inst.counts + diagonal).fit(method)
    return homogamy_shares(base.counts) - homogamy_shares(fits.counts), fits.errors


def _merge_gap(method, inst: _MethodStack, base: cf.FitStack):
    """AC10: merging categories of the fit equals fitting the merged problem.
    Each problem merges its rows in two blocks after ``row_cut`` and its
    columns after ``col_cut``. Every block is summed by ``tables._block_sum``
    at every cut, and each problem reads its own cut off them."""
    r, c = inst.params["row_cut"], inst.params["col_cut"]
    problems = np.arange(len(r))

    def merged(counts):
        return ind._split_sums(counts)[:, problems, r - 1, c - 1].T.reshape(-1, 2, 2)

    def halves(values, cut):
        sums = np.array([[_block_sum(values, half) for half in (slice(None, k), slice(k, None))]
                         for k in range(1, values.shape[-1])])
        return sums[cut - 1, :, problems]

    def blocks(pair):
        return None if pair is None else (halves(pair[0], r), halves(pair[1], c))

    problem = _MethodStack(
        merged(inst.counts), halves(inst.rows, r), halves(inst.cols, c),
        blocks(inst.singles), blocks(inst.target_singles),
    )
    fits = problem.fit(method)
    gaps = _relative_cell_gap(merged(base.counts), fits.counts, inst.rows.sum(axis=-1))
    return gaps, fits.errors


@dataclass(frozen=True)
class _MethodCheck:
    """One sampled method criterion: witness kind, gap function, the draw
    of its own parameters after the problem, the report notes, and the
    draw of each problem's shape before it. Without one, the problems are
    2x2 and one whose base fit is infeasible or undefined is redrawn; AC10
    draws 3x3 or 4x3 problems and redraws none."""

    kind: str
    gap: Callable
    params: Callable[[np.random.Generator, tuple], dict]
    notes: str = ""
    shape: Callable[[np.random.Generator], tuple] | None = None


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
        "method-merge", _merge_gap, _cut_params,
        notes="merge commutation on random 3x3 and 4x3 tables; the "
        "LL-preserving method runs in continuous rounding mode",
        shape=lambda rng: (3, 3) if rng.integers(0, 2) else (4, 3),
    ),
}


def _method_stack(problems, params) -> _MethodStack:
    """The stack of drawn method problems of one shape, each (source cells,
    source singles, target cells, target singles; singles None without),
    with one parameter dict per problem."""
    counts, singles, targets, target_singles = zip(*problems)

    def pairs(stacked):
        return None if stacked[0] is None else tuple(np.array(s) for s in zip(*stacked))

    targets = np.array(targets)
    return _MethodStack(
        np.array(counts), targets.sum(axis=-1), targets.sum(axis=-2),
        pairs(singles), pairs(target_singles),
        {name: np.array([p[name] for p in params]) for name in params[0]}, targets,
    )


def _draw_samples(rng, method, check: _MethodCheck, size: int):
    """Draw ``size`` samples in stream order, as if every base fit were
    feasible: each one's problem, as :func:`_method_stack` takes it, and
    parameters, and the generator state before each parameter draw, where
    a rejected sample's redraw starts."""
    with_singles = method == "csa"
    drawn, states = [], []
    for _ in range(size):
        shape = check.shape(rng) if check.shape else (2, 2)
        problem = (*_draw_counts(rng, shape, with_singles),
                   *_draw_counts(rng, shape, with_singles))
        states.append(rng.bit_generator.state)
        drawn.append((problem, check.params(rng, shape)))
    return drawn, states


def _sampled_method_check(criterion, method, sample_count, seed) -> CriterionReport:
    """AC2, AC3, AC5, AC8.1 and AC10 in the rounds of :func:`_first_hit`.
    A round fits each shape's problems as one stack, and each stack's
    variant (scaled, transposed, bumped or merged) problems as another. A
    2x2 problem is redrawn after an infeasible or undefined base fit; an
    AC10 sample with one is skipped and still counted. The witness is the
    first accepted sample whose gap exceeds ``VIOLATION_TOL``; a sample
    whose variant fit is infeasible or undefined is skipped, and any other
    fit error is raised at its sample."""
    check = _METHOD_CHECKS[criterion]

    def draw(rng, start, size):
        return _draw_samples(rng, method, check, size)

    def bases(drawn):
        groups = []
        for ix in _grouped(problem[0].shape for problem, _ in drawn):
            inst = _method_stack(*zip(*(drawn[t] for t in ix)))
            groups.append((ix, inst, inst.fit(method)))
        # 2x2 problems make one stack, in sample order; AC10 redraws none
        return groups, groups[0][2].errors if check.shape is None else [None] * len(drawn)

    def scan(drawn, groups, accepted):
        samples = {}
        for ix, inst, base in groups:
            gaps, errors = check.gap(method, inst, base)
            for i, t in enumerate(ix):
                samples[t] = (base.errors[i] or errors[i], gaps[i], inst, i)
        for t in range(accepted):
            error, gap, inst, i = samples[t]
            if isinstance(error, _SKIPPED):
                continue
            if error is not None:
                raise error
            if gap > VIOLATION_TOL:
                return t, (inst.payload(i), float(gap))
        return None

    found = _first_hit(_rng_for(seed, criterion, method), sample_count, draw, bases, scan)
    if found is None:
        return CriterionReport(criterion, method, SATISFIED, None, sample_count, check.notes)
    sample_size, (payload, violation) = found
    witness = {"kind": check.kind, **payload, "criterion": criterion,
               "method": method, "violation": violation}
    return CriterionReport(criterion, method, COUNTEREXAMPLE, witness, sample_size, check.notes)


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
    _check_sampling(sample_count, seed)
    if criterion == "AC11":
        return CriterionReport(
            criterion, method, NOT_AUTOMATED,
            notes="the quantified change can never be independent of the "
            "category count; no method attains this",
        )
    if criterion == "AC10" and method == "mdba":
        return CriterionReport(
            criterion, method, NOT_APPLICABLE,
            notes="undefined above 2x2, so merge commutation cannot be posed",
        )
    if criterion in _METHOD_CHECKS:
        return _sampled_method_check(criterion, method, sample_count, seed)

    # AC12, on the crafted case; the surplus-based method's target singles
    # default to its source's
    subject: ContingencyTable | TableWithSingles = ContingencyTable(SIC_SOURCE)
    if method == "csa":
        subject = TableWithSingles(subject, SIC_SINGLES, SIC_SINGLES)
    witness = {
        "kind": "sic",
        "method": method,
        "source": _table_payload(subject),
        "target_rows": list(SIC_TARGET_ROWS),
        "target_cols": list(SIC_TARGET_COLS),
    }
    try:
        # floored mode here: the crafted case is integer census-like data
        result = cf.fit(method, subject, Marginals(SIC_TARGET_ROWS, SIC_TARGET_COLS),
                        rounding=ind.PAPER_INTEGER, tol=1e-12)
    except InfeasibilityError as exc:
        witness.update(signaled=True, detail=str(exc))
        return CriterionReport(
            "AC12", method, SATISFIED, witness, 1,
            notes="infeasibility error raised on the crafted impossible case",
        )
    witness.update(signaled=False, returned=result.table.counts.tolist())
    return CriterionReport(
        "AC12", method, COUNTEREXAMPLE, witness, 1,
        notes="returned a table without signaling on the crafted "
        "impossible case",
    )


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
        inst = _stack_of_one(w)
        base = inst.fit(w["method"])
        gaps, errors = method_checks[kind].gap(w["method"], inst, base)
        for error in (*base.errors, *errors):
            if error is not None:
                raise error
        return float(gaps[0])
    if kind not in ("equality", "maximum", "monotonicity"):
        raise ValueError(f"unknown witness kind: {kind!r}")
    tag = w["indicator"]
    evaluate = _evaluator(tag, w["criterion"])
    if kind == "maximum":
        reference, better = _one(w["reference"]["counts"], w["better"]["counts"])
        values, undefined = evaluate(reference, None)
        if undefined[0]:
            raise UndefinedIndicatorError("indicator undefined on the reference")
        (drop,) = _maximum_violation(evaluate, values, better)
        if math.isnan(drop):
            raise UndefinedIndicatorError("indicator undefined on the better table")
        return float(drop)
    (counts,), singles = _one(w["subject"]["counts"]), _singles_of_one(w["subject"])
    base, undefined = _base_values(evaluate, tag, w.get("compare_transposed", False),
                                   counts, singles)
    if undefined[0]:
        raise UndefinedIndicatorError("indicator undefined on the table")
    if kind == "monotonicity":
        label, params = "diagonal", {"diagonal": w["diagonal"]}
    else:
        label, params = w["transform"], w["params"]
    violations, errors = _indicator_violations(evaluate, label, counts, singles, base, [params])
    if errors[0] is not None:
        raise errors[0]
    return float(violations[0])


def matrices(sample_count: int = 200, seed: int = 0) -> tuple[dict, dict]:
    """The indicator and the method criteria matrices: two dicts keyed by
    ``(criterion, tag)``. Their cells run across the CPUs this process may use;
    each draws from its own generator, so no report depends on how many."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return _matrices(sample_count, seed, len(affinity(0)) if affinity else os.cpu_count() or 1)


def _matrices(sample_count: int, seed: int, workers: int) -> tuple[dict, dict]:
    """``matrices`` in interleaved shares ``cells[i::workers]``. Share 0 runs here
    and a forked child runs each other one, piping back its reports or its error
    (``Process.start`` flushes the standard streams first); without fork all run here."""
    cells = [(check_indicator, c, t) for c in INDICATOR_CRITERIA for t in INDICATOR_TAGS]
    cells += [(check_method, c, t) for c in METHOD_CRITERIA for t in METHOD_TAGS]
    workers = min(workers, len(cells)) if "fork" in multiprocessing.get_all_start_methods() else 1

    def run(share):
        return [check(c, t, sample_count, seed) for check, c, t in cells[share::workers]]

    def send(pipe, share):
        try:
            pipe.send(run(share))
        except Exception as error:  # the parent raises it
            pipe.send(error)

    children = []
    try:
        for share in range(1, workers):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context("fork").Process(target=send, args=(sender, share))
            child.start()
            sender.close()
            children.append((child, receiver))
        shares = [run(0)]
        for child, receiver in children:
            try:
                shares.append(receiver.recv())
            except EOFError:
                child.join()
                raise RuntimeError(f"a criteria worker died with exit code {child.exitcode}") from None
            if isinstance(shares[-1], BaseException):
                raise shares[-1]
    finally:
        for child, receiver in children:
            child.terminate()  # a child whose share has arrived is done with it
            child.join()
            receiver.close()
    keyed = [((c, t), shares[i % workers][i // workers]) for i, (_, c, t) in enumerate(cells)]
    split = len(INDICATOR_CRITERIA) * len(INDICATOR_TAGS)
    return dict(keyed[:split]), dict(keyed[split:])


VERDICT_CODES = {
    SATISFIED: "Y",
    COUNTEREXAMPLE: "N",
    NOT_APPLICABLE: "NA",
    NOT_AUTOMATED: "NT",
}
