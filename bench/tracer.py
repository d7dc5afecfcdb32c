"""Per-layer tracing of homlab from outside the package.

``Tracer.install`` wraps the public functions of every homlab module at
every site that imports them (``io`` and ``counterfactual`` import functions
by name, so patching the defining module alone would miss calls), plus
``ContingencyTable`` construction and the CLI command callbacks. A span is
opened around each wrapped call; when it closes, its duration minus the
time of the spans it caused is added to its name's self time. Spans are
folded into per-name totals as they close rather than kept, so memory stays
flat on the criteria matrix's million spans.

``pass_metrics`` turns the summaries of one pass's jobs into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli", "io", "tables", "indicators", "counterfactual", "decomposition",
    "trend", "criteria",
)
METHODS = ("ipf", "mdba", "meda", "csa", "nm")
COMMANDS = ("indicators", "decompose", "trend", "counterfactual", "criteria")
SCALAR_INDICATORS = (
    "odds_ratio", "determinant", "covariance", "correlation", "regression",
    "aggregate_msp", "v_value", "det_family",
)
# decade_changes catches exactly these; anything else would crash the job
EXCLUSION_CLASSES = (
    "missing_wave", "DataError", "InfeasibilityError", "UndefinedIndicatorError",
)
CRITERIA = (
    "AC2", "AC3", "AC4", "AC5", "AC5.1", "AC5.2", "AC5.3", "AC6", "AC7",
    "AC8.1", "AC10", "AC12",
)
CRITERIA_TAGS = (
    "or", "det", "cov", "corr", "reg", "msp", "v", "msm", "ll", "gll",
) + METHODS
# helpers whose time belongs to one method's fit
METHOD_SPANS = {
    "ipf": ("ipf_fit",),
    "mdba": ("mdba_fit",),
    "meda": ("meda_fit", "meda_weight"),
    "csa": ("csa_fit", "csa_solve"),
    "nm": ("nm_fit",),
}


class Tracer:
    """Span bookkeeping for one traced process."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.pairs: set = set()
        self.root_s = 0.0

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_result(args, kwargs, result, elapsed)`` runs after a call that
        returned, outside the span's own timing.
        """
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time of the spans this one causes
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.root_s += elapsed
                self.self_s[name] += elapsed - frame[0]
                self.total_s[name] += elapsed
                self.calls[name] += 1
                if not ok:
                    self.failed[name] += 1
            if on_result is not None:
                on_result(args, kwargs, result, elapsed)
            return result

        return traced

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` as a root span."""
        return self.wrap(name, fn)(*args, **kwargs)

    # ------------------------------------------------------------------
    # hooks that record counts where the work happens

    def _iterations(self, method):
        def hook(args, kwargs, result, elapsed):
            self.samples[f"counterfactual.{method}.iterations"].append(
                result.iterations
            )
        return hook

    def _decomposed(self, args, kwargs, result, elapsed):
        early = args[0] if args else kwargs["early"]
        late = args[1] if len(args) > 1 else kwargs["late"]
        early = getattr(early, "couples", early)
        late = getattr(late, "couples", late)
        self.pairs.add((early.counts.tobytes(), late.counts.tobytes()))

    def _decade_changes(self, args, kwargs, result, elapsed):
        from homlab import errors

        changes, _ = result
        self.counts["io.pairs"] += len(changes)
        for change in changes:
            if change.valid:
                continue
            self.counts["io.pairs_excluded"] += 1
            name = change.reason.split(":")[0]
            if name == "missing wave":
                key = "missing_wave"
            else:
                raised = getattr(errors, name)
                key = next(c for c in EXCLUSION_CLASSES[1:]
                           if issubclass(raised, getattr(errors, c)))
            self.counts[f"io.pairs_excluded.{key}"] += 1

    def _enumerated(self, args, kwargs, result, elapsed):
        self.counts["tables.enumerated"] += len(result)

    def _cell(self, args, kwargs, result, elapsed):
        self.counts["criteria.cells"] += 1
        self.counts[f"criteria.{result.criterion}_s"] += elapsed
        self.counts[f"criteria.{result.subject}_s"] += elapsed

    def _counted_rows(self, read_rows):
        @functools.wraps(read_rows)
        def counted(*args, **kwargs):
            for item in read_rows(*args, **kwargs):
                self.counts["io.rows_read"] += 1
                yield item
        return counted

    # ------------------------------------------------------------------

    def install(self):
        """Wrap every public homlab function at every site that holds it."""
        import homlab
        import homlab.cli

        hooks = {
            "counterfactual.ipf_fit": self._iterations("ipf"),
            "counterfactual.csa_fit": self._iterations("csa"),
            "decomposition.decompose": self._decomposed,
            "io.decade_changes": self._decade_changes,
            "tables.enumerate_tables": self._enumerated,
            "criteria.check_indicator": self._cell,
            "criteria.check_method": self._cell,
        }
        modules = [sys.modules[f"homlab.{layer}"] for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrapped[value] = self.wrap(name, value, hooks.get(name))
        io = sys.modules["homlab.io"]
        wrapped[io._read_rows] = self._counted_rows(io._read_rows)
        for module in [homlab, *modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
        table = homlab.tables.ContingencyTable
        table.__post_init__ = self.wrap(
            "tables.ContingencyTable", table.__post_init__
        )
        for name, command in homlab.cli.main.commands.items():
            command.callback = self.wrap(f"cli.{name}", command.callback)

    def summary(self) -> dict:
        """Everything ``pass_metrics`` needs, as plain JSON data."""
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "failed": dict(self.failed),
            "counts": dict(self.counts),
            "samples": dict(self.samples),
            "pairs": len(self.pairs),
            "root_s": self.root_s,
        }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def pass_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the summaries of its jobs."""
    self_s, total_s = defaultdict(float), defaultdict(float)
    calls, failed = defaultdict(int), defaultdict(int)
    counts, samples = defaultdict(float), defaultdict(list)
    pairs = root_s = 0.0
    for summary in summaries:
        for source, target in ((summary["self_s"], self_s),
                               (summary["total_s"], total_s),
                               (summary["calls"], calls),
                               (summary["failed"], failed),
                               (summary["counts"], counts)):
            for key, value in source.items():
                target[key] += value
        for key, values in summary["samples"].items():
            samples[key].extend(values)
        pairs += summary["pairs"]
        root_s += summary["root_s"]

    def self_of(*names):
        return sum(self_s[name] for name in names)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            value for name, value in self_s.items()
            if name.split(".")[0] == layer
        )
    m["trace.self_coverage"] = (
        sum(m[f"{layer}.self_s"] for layer in LAYERS) / root_s if root_s else 0.0
    )
    for command in COMMANDS:
        m[f"cli.{command}_s"] = total_s[f"cli.{command}"]
    m["io.load_s"] = sum(
        total_s[f"io.{name}"]
        for name in ("load_couples", "load_income", "load_singles")
    )
    m["io.rows_read"] = counts["io.rows_read"]
    for name in ("indicator_rows", "decade_changes"):
        m[f"io.{name}.self_s"] = self_s[f"io.{name}"]
    m["io.pairs"] = counts["io.pairs"]
    m["io.pairs_excluded"] = counts["io.pairs_excluded"]
    for key in EXCLUSION_CLASSES:
        m[f"io.pairs_excluded.{key}"] = counts[f"io.pairs_excluded.{key}"]

    m["tables.construct_calls"] = calls["tables.ContingencyTable"]
    m["tables.merge_categories_calls"] = calls["tables.merge_categories"]
    m["tables.merge_categories.self_s"] = self_s["tables.merge_categories"]
    m["tables.enumerate_tables.self_s"] = self_s["tables.enumerate_tables"]
    m["tables.enumerated"] = counts["tables.enumerated"]

    for name in ("gll", "ll_simplified"):
        m[f"indicators.{name}_calls"] = calls[f"indicators.{name}"]
        m[f"indicators.{name}.self_s"] = self_s[f"indicators.{name}"]
    m["indicators.scalar.self_s"] = self_of(
        *(f"indicators.{name}" for name in SCALAR_INDICATORS)
    )
    m["indicators.surplus_matrix.self_s"] = self_s["indicators.surplus_matrix"]

    attempted = succeeded = 0
    for method in METHODS:
        fit = f"counterfactual.{method}_fit"
        m[f"counterfactual.{method}.calls"] = calls[fit]
        m[f"counterfactual.{method}.failed"] = failed[fit]
        m[f"counterfactual.{method}.self_s"] = self_of(
            *(f"counterfactual.{name}" for name in METHOD_SPANS[method])
        )
        attempted += calls[fit]
        succeeded += calls[fit] - failed[fit]
    for method in ("ipf", "csa"):
        iterations = samples[f"counterfactual.{method}.iterations"]
        m[f"counterfactual.{method}.iterations_median"] = _median(iterations)
        m[f"counterfactual.{method}.iterations_max"] = float(max(iterations, default=0))
    m["counterfactual.feasible_ratio"] = succeeded / attempted if attempted else 0.0

    for name in ("decompose", "cumulative_series"):
        m[f"decomposition.{name}_calls"] = calls[f"decomposition.{name}"]
        m[f"decomposition.{name}.self_s"] = self_s[f"decomposition.{name}"]
    decomposed = calls["decomposition.decompose"] - failed["decomposition.decompose"]
    m["decomposition.decompose_per_pair"] = decomposed / pairs if pairs else 0.0

    m["trend.score.self_s"] = self_s["trend.score"]

    m["criteria.cells"] = counts["criteria.cells"]
    for key in CRITERIA + CRITERIA_TAGS:
        m[f"criteria.{key}_s"] = counts[f"criteria.{key}_s"]
    return m


COUNT_METRICS = (
    "cli.output_bytes", "io.rows_read", "io.pairs", "io.pairs_excluded",
    *(f"io.pairs_excluded.{key}" for key in EXCLUSION_CLASSES),
    "tables.construct_calls", "tables.merge_categories_calls",
    "tables.enumerated", "indicators.gll_calls", "indicators.ll_simplified_calls",
    *(f"counterfactual.{m}.{k}" for m in METHODS for k in ("calls", "failed")),
    "counterfactual.ipf.iterations_median", "counterfactual.ipf.iterations_max",
    "counterfactual.csa.iterations_median", "counterfactual.csa.iterations_max",
    "counterfactual.feasible_ratio",
    "decomposition.decompose_calls", "decomposition.cumulative_series_calls",
    "decomposition.decompose_per_pair",
    "trend.series_rows", "trend.series_units",
    *(f"trend.series_units.{m}" for m in METHODS),
    "criteria.cells",
)
"""Metrics that are counts: they must repeat exactly for the same seed."""
