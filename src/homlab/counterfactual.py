"""Counterfactual contingency tables under five factor-preserving methods.

Each method answers the same question: what would the joint educational
distribution of couples look like with one generation's marginal educational
distributions (the structural factor) but the other generation's sorting
behavior (the non-structural factor)? The methods differ only in which
statistic of the source table they hold fixed while re-targeting the
marginals:

========  =====================================================
method    preserved statistic of the source table
========  =====================================================
IPF       2x2 odds ratio (all cross ratios for larger tables)
MDbA      matrix determinant, rescaled to the target total
MEDA      projection weight between random and assortative
CSA       marital surplus matrix (needs singles counts)
NM        full matrix of split-wise LL values
========  =====================================================

Each method's arithmetic is written once, as a kernel over a leading stack
axis of problems that returns a :class:`FitStack`: per instance, the fitted
counts, iterations, residual and the error its fit raises, if any.
:func:`fit_stack` checks a stack and runs its method's kernel on it; ``fit``
is ``fit_stack`` on a stack of one that raises that error. Each kernel's
docstring explains its method. All fits are pure and deterministic given
their parameters, and an instance gives the same bits alone or in a stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    InfeasibilityError,
    ShapeError,
    UndefinedIndicatorError,
    UndefinedWeightError,
)
from .indicators import (
    _SURPLUS_UNDEFINED,
    PAPER_INTEGER,
    _check_rounding,
    _gll_error,
    _ll,
    _ll_benchmark,
    _split_sums,
    _surplus,
)
from .tables import (
    ContingencyTable,
    Marginals,
    TableWithSingles,
    couples_of,
    pam_counts,
    random_counts,
)

# The method registry: each tag's name in results and the fit options its
# results report. Its order fixes the criteria RNG stream of each method and
# the column order of the method criteria matrix.
_METHODS = {
    "ipf": ("IPF", ("tol",)),
    "mdba": ("MDbA", ()),
    "meda": ("MEDA", ()),
    "csa": ("CSA", ()),
    "nm": ("NM", ("rounding",)),
}
METHOD_TAGS = tuple(_METHODS)

_NEG_TOL = 1e-9

# the reachability check enumerates every subset of the shorter axis, so
# wider tables are left to the sweep loop
_REACH_MAX_CATEGORIES = 12


@dataclass(frozen=True)
class CounterfactualResult:
    """A fitted table plus convergence and feasibility diagnostics."""

    table: ContingencyTable
    method: str
    iterations: int = 0
    max_marginal_error: float = 0.0
    feasible: bool = True
    diagnostics: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class FitStack:
    """A kernel's outcome on T problems: fitted ``counts`` (T, n, m), the
    ``iterations`` and the ``residual`` (largest marginal error) of each, and
    ``errors[t]``, None or what the single-table fit raises on problem ``t``
    (whose counts and residual are NaN then). ``extra`` holds MDbA's
    ``det_target``, MEDA's ``v`` or CSA's ``single_men`` and ``single_women``."""

    counts: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    errors: tuple
    extra: Mapping[str, np.ndarray] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# kernel plumbing: ``errors`` holds a status per instance, which fails at its
# first failing check, as a single-table fit raises at its first
# ---------------------------------------------------------------------------

def _fail(errors: list, mask, make):
    """Fail each instance ``i`` of ``mask`` with ``make(i)``, unless it has
    failed already."""
    if np.count_nonzero(mask):
        for i in np.flatnonzero(mask):
            errors[i] = errors[i] or make(i)


def _target_errors(total: np.ndarray):
    """Statuses failing nonpositive target totals, and the totals with NaN
    there, so that no kernel divides by them."""
    errors, bad = [None] * len(total), total <= 0
    _fail(errors, bad, lambda i: DegenerateInputError("target total must be positive"))
    return errors, (np.where(bad, np.nan, total) if any(errors) else total)


def _worst_gap(counts, row_sums, rows, cols) -> np.ndarray:
    """Each instance's largest absolute marginal error, given its row sums;
    ``counts`` is a table (n, m) or a stack (T, n, m)."""
    n = rows.shape[-1]
    gaps = np.empty((*rows.shape[:-1], n + cols.shape[-1]))
    np.subtract(row_sums, rows, out=gaps[..., :n])
    col_gaps = np.add.reduce(counts, axis=-2, out=gaps[..., n:])
    np.subtract(col_gaps, cols, out=col_gaps)
    return np.maximum.reduce(np.abs(gaps, out=gaps), axis=-1)


def _clamp_negatives(counts: np.ndarray, errors: list, describe) -> np.ndarray:
    """``counts`` with negative cells set to 0; an instance with a cell below
    ``-_NEG_TOL`` fails with ``InfeasibilityError(*describe(i, cell, value))``."""
    if not counts.min() >= -_NEG_TOL:
        worst = counts.min(axis=(-2, -1))
        for i in np.flatnonzero(worst < -_NEG_TOL):
            cell = np.unravel_index(np.argmin(counts[i]), counts.shape[-2:])
            cell, value = (int(cell[0]), int(cell[1])), float(worst[i])
            errors[i] = errors[i] or InfeasibilityError(*describe(i, cell, value))
    return np.where(counts < 0, 0.0, counts)


def _would_be(fit: str):
    return lambda i, cell, value: (
        f"{fit}: cell ({cell[0]},{cell[1]}) would be {value:.6g} < 0",
        {"cell": cell, "value": value},
    )


def _stack(counts, errors, iterations=None, residual=None, rows=None, cols=None,
           **extra) -> FitStack:
    """The kernel's result; a closed form's residual is measured here."""
    if residual is None:
        residual = _worst_gap(counts, np.add.reduce(counts, axis=-1), rows, cols)
    iterations = np.zeros(len(counts), dtype=int) if iterations is None else iterations
    failed = [i for i, error in enumerate(errors) if error is not None]
    if failed:
        counts[failed], residual[failed] = np.nan, np.nan
    return FitStack(counts, iterations, residual, tuple(errors), extra)


def _single(fits: FitStack) -> np.ndarray:
    """The counts of a stack of one, or the error its fit raised."""
    if fits.errors[0] is not None:
        raise fits.errors[0]
    return fits.counts[0]


def _as_stack(*arrays):
    """Each array as a float stack of one."""
    return tuple(np.asarray(a, dtype=float)[None] for a in arrays)


def _result(source: ContingencyTable, tag: str, fits: FitStack, **options):
    """A stack of one's fit as a result, or the error it raised; the
    diagnostics are the options ``tag`` reports and the kernel's ``extra``."""
    name, reported = _METHODS[tag]
    diagnostics = {key: options[key] for key in reported}
    diagnostics.update((key, value[0].tolist()) for key, value in fits.extra.items())
    return CounterfactualResult(
        table=source.with_counts(_single(fits)),
        method=name,
        iterations=int(fits.iterations[0]),
        max_marginal_error=float(fits.residual[0]),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# IPF
# ---------------------------------------------------------------------------

def _zero_pattern_error(counts, rows, cols, tol: float):
    """Why a source's zero pattern cannot carry the target margins, or None."""
    for axis, name in ((1, "row"), (0, "column")):
        if np.any((counts.sum(axis=axis) == 0) & ((rows, cols)[1 - axis] > 0)):
            return InfeasibilityError(
                f"a target {name} is positive but the source {name} is all zeros"
            )
    return _unreachable_target(counts > 0, rows, cols, tol)


def _unreachable_target(support: np.ndarray, rows, cols, tol: float):
    """The error when no table on ``support`` comes within ``tol`` of the
    target margins, else None.

    Hall's condition for a transportation problem (Gale 1957): a set of rows
    ``R`` can only send its target mass to the columns ``N(R)`` that its
    support cells reach. If ``rows(R) - cols(N(R))`` exceeds ``(n + m) * tol``,
    then every table on this support misses some marginal by more than
    ``tol``, because the row and column errors over ``R`` and ``N(R)`` add up
    to at least that gap. Subsets are enumerated over the shorter axis.
    """
    need, have, axis, other = rows, cols, "rows", "columns"
    if support.shape[0] > support.shape[1]:
        support, need, have = support.T, have, need
        axis, other = other, axis
    k = support.shape[0]
    if k > _REACH_MAX_CATEGORIES:
        return None
    subsets = (np.arange(1, 2**k)[:, None] >> np.arange(k)) & 1
    reached = (subsets @ support) > 0
    gaps = subsets @ need - reached @ have
    worst = int(np.argmax(gaps))
    if gaps[worst] <= sum(support.shape) * tol:
        return None
    members = np.flatnonzero(subsets[worst]).tolist()
    reachable = np.flatnonzero(reached[worst]).tolist()
    return InfeasibilityError(
        f"target unreachable: source {axis} {members} reach only {other} "
        f"{reachable}, whose target falls short by {gaps[worst]:.6g}",
        context={axis: members, other: reachable, "gap": float(gaps[worst])},
    )


def _sweep(work, rows, cols, rs):
    """One IPF sweep, in place, of a stack (T, n, m) with row sums ``rs``;
    returns the new row sums and marginal errors."""
    work *= np.divide(rows, rs, out=np.zeros(rs.shape), where=rs > 0)[..., None]
    cs = np.add.reduce(work, axis=-2)
    work *= np.divide(cols, cs, out=np.zeros(cs.shape), where=cs > 0)[..., None, :]
    # these row sums are also the next sweep's divisors
    rs = np.add.reduce(work, axis=-1)
    return rs, _worst_gap(work, rs, rows, cols)


def _ipf_kernel(counts, rows, cols, total, tol: float, max_iter: int) -> FitStack:
    """Iterative proportional fitting: alternate row and column rescaling.

    Each sweep multiplies every row by the ratio of its target sum to its
    current sum, then does the same for columns, until the largest absolute
    marginal discrepancy falls below ``tol``. Rescaling never changes cross
    ratios, so on a strictly positive 2x2 source the odds ratio of the result
    equals that of the source; zero cells of the source are structural and
    stay zero. A target that the source's zero pattern cannot reach fails
    with :class:`InfeasibilityError` before any sweep; a target reachable
    only in the limit (a support cell tending to zero) still sweeps until
    ``max_iter`` and fails with :class:`ConvergenceError`. Each instance
    stops at its own sweep.
    """
    counts = np.array(counts, dtype=float, order="C")
    errors, _ = _target_errors(total)
    if not counts.min() > 0:
        for i in np.flatnonzero(counts.min(axis=(-2, -1)) == 0):
            errors[i] = errors[i] or _zero_pattern_error(counts[i], rows[i], cols[i], tol)
    rs = np.add.reduce(counts, axis=-1)
    residual = _worst_gap(counts, rs, rows, cols)
    iterations = np.zeros(len(counts), dtype=int)
    live = np.flatnonzero([error is None and left > tol for error, left in zip(errors, residual)])
    # The live instances sweep together, in place while all are live; the
    # stack is compacted only when one finishes.
    work, rows, cols, rs, err = (a[live] for a in (counts, rows, cols, rs, residual))
    sweeps = 0
    while live.size:
        if sweeps >= max_iter:
            for i, left in zip(live, err):
                errors[i] = ConvergenceError(
                    f"IPF did not reach tol={tol:g} in {max_iter} sweeps "
                    f"(residual {left:.3g})"
                )
            break
        rs, err = _sweep(work, rows, cols, rs)
        sweeps += 1
        going = err > tol
        if np.count_nonzero(going) < live.size:
            done = live[~going]
            counts[done], iterations[done], residual[done] = work[~going], sweeps, err[~going]
            live, work, rows, cols, rs, err = (
                a[going] for a in (live, work, rows, cols, rs, err)
            )
    return _stack(counts, errors, iterations, residual)


# ---------------------------------------------------------------------------
# closed forms: MDbA, MEDA and NM
# ---------------------------------------------------------------------------

def _mdba_kernel(counts, rows, cols, total) -> FitStack:
    """Determinant-preserving transform, defined for 2x2 tables only.

    With the marginals fixed the determinant is affine in the single free
    cell ``d``, so the method solves one linear equation. The preserved value
    is the source determinant rescaled to the target total (the determinant
    grows with the square of the population, so the raw value would mix
    sorting with population size). A solution with a negative cell does not
    exist as a table and fails.
    """
    errors, total = _target_errors(total)
    a, b, c, d = counts.reshape(-1, 4).T
    scale = total / counts.sum(axis=(-2, -1))
    det_target = (a * d - b * c) * scale * scale
    row_h, col_h = rows[:, 1], cols[:, 1]
    # det = d*T - col_h*row_h once the marginals are substituted in
    d_new = (det_target + col_h * row_h) / total
    fitted = np.empty(counts.shape)
    fitted[:, 0, 1] = col_h - d_new
    fitted[:, 0, 0] = rows[:, 0] - fitted[:, 0, 1]
    fitted[:, 1, 0] = row_h - d_new
    fitted[:, 1, 1] = d_new
    fitted = _clamp_negatives(fitted, errors, _would_be("determinant-preserving fit"))
    return _stack(fitted, errors, rows=rows, cols=cols, det_target=det_target)


def _meda_weights(counts, errors: list) -> np.ndarray:
    """The projection weight of each source table of a stack; an instance
    whose two benchmarks coincide fails and gets NaN.

    The weight is the least-squares weight of the source between random and
    assortative matching: it minimizes the Euclidean distance between the
    source and ``(1 - v) * random + v * assortative`` built on the source's
    own marginals, and in closed form it is the ratio of two inner products.
    """
    rows, cols = counts.sum(axis=-1), counts.sum(axis=-2)
    total = rows.sum(axis=-1)
    rnd = random_counts(rows, cols, total)
    direction = pam_counts(rows, cols) - rnd
    dd = (direction * direction).sum(axis=(-2, -1))
    undefined = dd <= (1e-9 * total) ** 2
    if np.count_nonzero(undefined):
        _fail(errors, undefined, lambda i: UndefinedWeightError(
            "projection weight undefined: the random and assortative "
            "benchmarks coincide for these marginals"))
        dd = np.where(undefined, np.nan, dd)
    offset = counts - rnd
    return (offset * direction).sum(axis=(-2, -1)) / dd


def _meda_kernel(counts, rows, cols, total) -> FitStack:
    """Transplant the source's projection weight onto the target marginals.

    The result is ``(1 - v) * random + v * assortative`` evaluated at the
    target marginals, with ``v`` estimated from the source. ``v`` is not
    clamped to [0, 1]: a weight outside that range that produces a negative
    cell is exactly the impossible-counterfactual signal and fails, with the
    unclamped weight reported.
    """
    errors, total = _target_errors(total)
    v = _meda_weights(counts, errors)
    w = v[:, None, None]
    fitted = (1.0 - w) * random_counts(rows, cols, total) + w * pam_counts(rows, cols)
    fitted = _clamp_negatives(fitted, errors, lambda i, cell, value: (
        f"projection fit: weight v={v[i]:.6g} drives cell ({cell[0]},{cell[1]}) "
        f"to {value:.6g}",
        {"v": float(v[i]), "cell": cell, "value": value},
    ))
    return _stack(fitted, errors, rows=rows, cols=cols, v=v)


def _nm_kernel(counts, rows, cols, total, rounding: str) -> FitStack:
    """Rebuild a table on the target marginals with the source's LL matrix.

    For every ordered split the LL value of the target aggregation is forced
    to equal the source's, which pins the top-right survival sum at that
    split: ``d = level * (d_max - rho) + rho``, with the random benchmark
    ``rho`` and the ceiling ``d_max`` taken from the same helper the LL
    kernel of ``gll`` uses, evaluated on all splits at once. ``rounding``
    selects how the random benchmark is treated inside each split: floored
    as in the integer-count formula (``paper-integer``) or kept exact
    (``continuous``, the well-posed choice on non-integer marginals and the
    mode that commutes with category merging).

    The survival grid ``S`` (n+1, m+1) holds at ``S[j, k]`` the mass in rows
    strictly above split ``j`` and columns strictly above split ``k``; its
    boundaries come from the target marginals alone, ``S[0, 0]`` is the
    total, and its last row and column are zero. The cells follow by
    inclusion-exclusion, ``cell[i, l] = S[i-1, l-1] - S[i, l-1] - S[i-1, l]
    + S[i, l]`` (1-based). A negative recovered cell means no table with the
    target marginals carries this much sorting; that fails, carrying the
    offending cell.
    """
    errors, total = _target_errors(total)
    *_, levels, undefined = _ll(*_split_sums(counts), rounding)
    if np.count_nonzero(undefined):
        _fail(errors, undefined.any(axis=(-2, -1)),
              lambda i: _gll_error(levels[i], undefined[i]))
    size, n, m = counts.shape
    grid = np.zeros((size, n + 1, m + 1))
    grid[:, :n, 0] = np.cumsum(rows[:, ::-1], axis=-1)[:, ::-1]
    grid[:, 0, :m] = np.cumsum(cols[:, ::-1], axis=-1)[:, ::-1]
    grid[:, 0, 0] = total
    _, rho, d_max = _ll_benchmark(
        grid[:, 1:n, :1], grid[:, :1, 1:m], total[:, None, None], rounding
    )
    grid[:, 1:n, 1:m] = levels * (d_max - rho) + rho
    cells = grid[:, :-1, :-1] - grid[:, 1:, :-1] - grid[:, :-1, 1:] + grid[:, 1:, 1:]
    fitted = _clamp_negatives(cells, errors, _would_be("LL-preserving fit"))
    return _stack(fitted, errors, rows=rows, cols=cols)


# ---------------------------------------------------------------------------
# CSA
# ---------------------------------------------------------------------------

def _csa_kernel(msm, men, women, tol: float, max_iter: int) -> FitStack:
    """Re-match target populations holding a surplus matrix fixed.

    ``msm`` (T, k, l) holds the surplus matrices, ``men`` (T, k) and
    ``women`` (T, l) the target populations, couples plus singles. The fit
    finds singles vectors ``mu_m, mu_w`` and couples ``mu[i, j] = msm[i, j]
    * sqrt(mu_m[i] * mu_w[j])`` such that singles plus spouses add up to the
    target population of every category and sex. In ``x = sqrt(mu_m)``,
    ``y = sqrt(mu_w)`` that is the (k + l)-dimensional system

        F(x, y) = [x**2 + x * (msm @ y) - men, y**2 + y * (msm.T @ x) - women]

    whose root in the positive orthant is unique. Newton's method solves it
    from ``x = sqrt(men)``, ``y = sqrt(women)`` with the Jacobian

        [[diag(2x + msm @ y), diag(x) msm], [diag(y) msm.T, diag(2y + msm.T @ x)]]

    (one stacked linear solve per step). A step that would leave the positive
    orthant is halved, per instance, until ``x`` and ``y`` stay strictly
    positive. Convergence is measured by the largest relative
    population-identity residual; ``iterations`` counts Newton steps. The
    fitted singles travel in ``extra`` as ``single_men`` and
    ``single_women``.
    """
    size, k, l = msm.shape
    errors = [None] * size
    # z = (x, y) of each instance side by side, as are its target populations
    populations = np.concatenate([men, women], axis=-1)
    _fail(errors, (populations <= 0).any(axis=-1), lambda i: DegenerateInputError(
        "target populations must be strictly positive"))
    _fail(errors, (msm < 0).any(axis=(-2, -1)) | ~np.isfinite(msm).all(axis=(-2, -1)),
          lambda i: DegenerateInputError("surplus matrix must be finite and nonnegative"))
    couples, singles = np.zeros(msm.shape), np.zeros(populations.shape)
    iterations, residual = np.zeros(size, dtype=int), np.zeros(size)
    live = np.flatnonzero(np.equal(errors, None))
    msm, populations = msm[live], populations[live]
    scale, z = np.maximum(populations, 1.0), np.sqrt(populations)
    jacobian = np.zeros((live.size, k + l, k + l))
    steps = 0
    # The live instances step together; the stack is compacted only when one
    # finishes or fails.
    while live.size:
        x, y = z[:, :k], z[:, k:]
        mz = np.concatenate([(msm @ y[..., None])[..., 0],
                             (np.swapaxes(msm, -1, -2) @ x[..., None])[..., 0]], axis=-1)
        excess = z * (z + mz) - populations
        res = (np.abs(excess) / scale).max(axis=-1)
        done = res <= tol
        if np.count_nonzero(done) or steps == max_iter:
            ix = live[done]
            couples[ix] = msm[done] * (x[done][:, :, None] * y[done][:, None, :])
            singles[ix], iterations[ix], residual[ix] = z[done] * z[done], steps, res[done]
            for i, left in zip(live[~done], res[~done]) if steps == max_iter else ():
                errors[i] = ConvergenceError(
                    f"surplus-preserving fit did not reach tol={tol:g} in "
                    f"{max_iter} iterations (residual {left:.3g})"
                )
            going = ~done & (steps < max_iter)
            live, msm, populations, scale, jacobian, z, mz, excess = (
                a[going] for a in (live, msm, populations, scale, jacobian, z, mz, excess)
            )
            if not live.size:
                break
            x, y = z[:, :k], z[:, k:]
        steps += 1
        jacobian.reshape(live.size, -1)[:, :: k + l + 1] = 2.0 * z + mz
        jacobian[:, :k, k:] = x[..., None] * msm
        jacobian[:, k:, :k] = y[..., None] * np.swapaxes(msm, -1, -2)
        # b as a stack of (M, 1) matrices: numpy >= 2 reads a (T, M) b as
        # one (M, K) matrix. The Jacobian times diag(z) is strictly
        # diagonally dominant for positive z, so no solve is singular.
        step = np.linalg.solve(jacobian, -excess[..., None])[..., 0]
        trial = z + step
        if not (trial.min() > 0 and trial.max() < np.inf):
            # halve a step that would leave the positive orthant
            t, stuck = np.ones((live.size, 1)), np.zeros(live.size, dtype=bool)
            blocked = (trial <= 0).any(axis=-1)
            while np.count_nonzero(blocked):
                t[blocked] *= 0.5
                stuck |= blocked & (t[:, 0] < 1e-12)
                blocked = ~stuck & (z + t * step <= 0).any(axis=-1)
            trial = z + t * step
            escaped = ~np.isfinite(trial).all(axis=-1)
            for failed, verb in ((stuck, "cannot stay in"), (escaped, "left")):
                for i in live[failed]:
                    errors[i] = errors[i] or InfeasibilityError(
                        f"surplus-preserving fit {verb} the positive orthant",
                        context={"iteration": steps},
                    )
            going = ~(stuck | escaped)
            live, msm, populations, scale, jacobian, trial = (
                a[going] for a in (live, msm, populations, scale, jacobian, trial)
            )
        z = trial
    return _stack(couples, errors, iterations, residual,
                  single_men=singles[:, :k], single_women=singles[:, k:])


def _check(method: str, shape, rows, cols, rounding, singles, target_singles) -> str:
    """The tag of ``method`` on sources of ``shape`` (n, m), target margins
    ``rows`` (..., n) and ``cols`` (..., m) and, for ``csa``, the sources'
    and the targets' singles, or the error a fit raises before any kernel."""
    tag = method.strip().lower()
    if tag not in _METHODS:
        raise ValueError(f"unknown method tag: {method!r}")
    if tag == "mdba" and shape != (2, 2):
        raise ShapeError("the determinant-based method needs dichotomous traits")
    if tag == "nm":
        _check_rounding(rounding)
    lengths = [rows.shape[-1], cols.shape[-1]]
    if tag == "csa":
        if singles is None:
            raise ShapeError("the surplus-based method needs singles counts")
        for men, women in (singles, target_singles or singles):
            lengths += [men.shape[-1], women.shape[-1]]
        if lengths != [*shape] * 3:
            raise ShapeError("surplus matrix and target populations disagree in shape")
    elif lengths != [*shape]:
        raise ShapeError(f"target marginals are {lengths[0]}x{lengths[1]}, "
                         f"source table is {shape[0]}x{shape[1]}")
    return tag


def _run(tag, counts, rows, cols, total, rounding, tol, max_iter, singles, target_singles):
    """The kernel of a checked problem stack: the one branch over the tags."""
    if tag == "ipf":
        return _ipf_kernel(counts, rows, cols, total, tol, max_iter)
    if tag == "mdba":
        return _mdba_kernel(counts, rows, cols, total)
    if tag == "meda":
        return _meda_kernel(counts, rows, cols, total)
    if tag == "nm":
        return _nm_kernel(counts, rows, cols, total, rounding)
    # CSA fits the target populations, couples plus singles, with the
    # source's surplus matrix, which a zero singles count leaves undefined
    msm, undefined = _surplus(counts, *singles)
    men, women = target_singles or singles
    fits = _csa_kernel(msm, rows + men, cols + women, min(tol, 1e-11), max_iter)
    return replace(fits, errors=tuple(
        UndefinedIndicatorError(_SURPLUS_UNDEFINED) if bad else error
        for bad, error in zip(undefined, fits.errors)
    ))


def fit(
    method: str,
    source: ContingencyTable | TableWithSingles,
    target: Marginals,
    rounding: str = PAPER_INTEGER,
    tol: float = 1e-10,
    max_iter: int = 10000,
    target_singles: tuple[np.ndarray, np.ndarray] | None = None,
) -> CounterfactualResult:
    """Uniform dispatcher over the five methods by lower-case tag.

    For ``csa`` the source must carry singles counts and the target
    populations are the target couple marginals plus ``target_singles``
    (falling back to the source's own singles when not provided); the
    result table holds the fitted couples, and the fitted singles travel in
    the diagnostics. This is :func:`fit_stack` on a stack of one, with the
    target's own total, and it raises the error of the fit.
    """
    couples = couples_of(source)
    singles = _as_stack(source.single_men, source.single_women) if isinstance(
        source, TableWithSingles) else None
    targets = None if target_singles is None else _as_stack(*target_singles)
    rows, cols = target.row_sums[None], target.col_sums[None]
    tag = _check(method, couples.counts.shape, rows, cols, rounding, singles, targets)
    fits = _run(tag, couples.counts[None], rows, cols, np.array([target.total]),
                rounding, tol, max_iter, singles, targets)
    return _result(couples, tag, fits, tol=tol, rounding=rounding)


def fit_stack(
    method: str,
    counts: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    rounding: str = PAPER_INTEGER,
    tol: float = 1e-10,
    max_iter: int = 10000,
    singles: tuple[np.ndarray, np.ndarray] | None = None,
    target_singles: tuple[np.ndarray, np.ndarray] | None = None,
) -> FitStack:
    """:func:`fit` on a stack of T >= 1 problems, in one kernel call.

    ``counts`` (T, n, m) holds valid source tables, ``rows`` (T, n) and
    ``cols`` (T, m) the target margins, whose total is their row sum as in
    :class:`~homlab.tables.Marginals`. For ``csa``, ``singles`` holds the
    sources' single men (T, n) and women (T, m), and ``target_singles`` the
    targets' (the sources' when None). Mis-shaped margins or singles raise
    :class:`ShapeError`, as in ``fit``. Instance ``t`` of the result is what
    ``fit`` returns on problem ``t``, bit for bit, or the error it raises.
    """
    tag = _check(method, counts.shape[-2:], rows, cols, rounding, singles, target_singles)
    return _run(tag, counts, rows, cols, rows.sum(axis=-1), rounding, tol, max_iter,
                singles, target_singles)
