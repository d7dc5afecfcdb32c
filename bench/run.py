"""The homlab benchmark.

    python3 bench/run.py --workload panel --seed 0 --seconds 20 --trace 0

Generates the seeded synthetic inputs, then runs the workload's job list
through the ``homlab`` CLI again and again (one pass after another) until
``--seconds`` have gone by, with at least two passes so every output can be
compared across passes. Jobs run one at a time, each in a fresh interpreter
(``child.py``), as a researcher's script would run them. Every output is
checked; the last line printed is the JSON result.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced passes, plus the tracing overhead. Per-pass details and the
sha256 of every output file go to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import panel
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
GOLDEN = ROOT / "tests" / "fixtures"
OUT = ROOT / ".bench_out"

WORKLOADS = ("panel", "panel_csa", "criteria_matrix")
MIN_PASSES = 2
# fresh interpreter starts per run besides the jobs' own; one start varies
# by about 20%, so set-up time is the median of many
SETUP_STARTS = 9
# a run must end within 180 s; a job still going at this point is killed
DEADLINE_S = 170
DECADES = [f"{year}s" for year in panel.WAVES[:-1]]
PANEL_FITS = (("ipf", "three"), ("meda", "three"), ("nm", "three"),
              ("mdba", "college"))
END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "success_rate": "ratio",
}
LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_coverage": "ratio",
               "_bytes": "bytes", "_per_pair": "ratio"}


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    method: str
    categories: str
    argv: tuple[str, ...]


def workload_jobs(workload: str, seed: int, inputs: dict[str, Path],
                  state: str) -> list[Job]:
    """The job list of one pass; output directories are added per pass."""
    data = ("--couples", str(inputs["couples"]), "--income", str(inputs["income"]))
    pair = ("--state", state, "--early-year", str(panel.WAVES[0]),
            "--late-year", str(panel.WAVES[-1]))

    def job(command, method, categories, *extra):
        name = "-".join(x for x in (command, method, categories) if x)
        argv = (command, *data, "--categories", categories, *extra)
        if method:
            argv += ("--method", method)
        return Job(name, command, method, categories, argv)

    if workload == "panel":
        jobs = [job("indicators", "", cut) for cut in ("three", "college")]
        for method, cut in PANEL_FITS:
            jobs += [job("decompose", method, cut), job("trend", method, cut),
                     job("counterfactual", method, cut, *pair)]
        return jobs
    if workload == "panel_csa":
        singles = ("--singles", str(inputs["singles"]))
        return [job("decompose", "csa", "three", *singles),
                job("trend", "csa", "three", *singles),
                job("counterfactual", "csa", "three", *singles, *pair)]
    if workload == "criteria_matrix":
        return [Job("criteria", "criteria", "", "",
                    ("criteria", "--samples", "200", "--seed", str(seed)))]
    raise ValueError(f"unknown workload {workload!r}")


def spawn(args: list[str], log_path: Path,
          deadline: float) -> tuple[dict, object, float]:
    """Run ``child.py`` with ``args`` and wait for it, killing it at
    ``deadline`` (a ``time.perf_counter`` reading).

    Returns the child's result, its resource usage from ``os.wait4`` and the
    ``time.perf_counter`` reading just before the spawn.
    """
    result_path = log_path.with_suffix(".json")
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(SRC), str(result_path), *args],
            stdout=log, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(max(deadline - started, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = {}
    if proc.returncode != 0:
        result.setdefault("error", "")
        result["error"] = f"exit code {proc.returncode}\n" + (
            result["error"] or log_path.read_text(errors="replace")[-2000:])
    return result, usage, started


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One benchmark run: inputs, passes, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.deadline = time.perf_counter() + DEADLINE_S
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.work = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.data = panel.generate(seed)
        self.inputs = panel.write_panel(self.work / "inputs", self.data)
        couples = self.data[0]
        self.state = next(
            s for s in panel.STATES
            if (s, panel.WAVES[0]) in couples and (s, panel.WAVES[-1]) in couples
        )
        self.jobs = workload_jobs(workload, seed, self.inputs, self.state)
        self.setups: list[float] = []
        self.passes: list[dict] = []
        self.replayed: dict[str, list[str]] = {}

    # ------------------------------------------------------------------

    def measure_setup(self):
        """Fresh interpreter starts that import ``homlab.cli`` and exit."""
        probe = self.work / "setup"
        probe.mkdir(parents=True, exist_ok=True)
        for i in range(SETUP_STARTS + 1):
            result, _, started = spawn(
                ["0"], probe / f"start{i}.log", self.deadline)
            if "error" in result:
                raise SystemExit(f"homlab.cli does not import:\n{result['error']}")
            if i:  # the first start also writes the bytecode caches
                self.setups.append(result["ready"] - started)

    def run_pass(self, index: int, traced: bool) -> dict:
        records = []
        for job in self.jobs:
            out = self.work / f"pass{index}" / job.name
            out.mkdir(parents=True, exist_ok=True)
            result, usage, started = spawn(
                ["1" if traced else "0", *job.argv, "--out", str(out)],
                out.parent / f"{job.name}.log", self.deadline,
            )
            record = {
                "job": job.name,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "problems": [result["error"]] if "error" in result else [],
            }
            if "ready" in result and not traced:
                self.setups.append(result["ready"] - started)
            if "end" in result:
                record["job_s"] = result["end"] - result["start"]
            if "trace" in result:
                record["trace"] = result["trace"]
            if not record["problems"]:
                record["hashes"] = {
                    p.name: sha256(p) for p in sorted(out.iterdir())}
                record["bytes"] = sum(p.stat().st_size for p in out.iterdir())
                record["problems"] = self.check(job, out)
            records.append(record)
        self.cross_check(self.work / f"pass{index}", records)
        return {
            "traced": traced,
            "outputs": self.output_counts(self.work / f"pass{index}", records),
            "wall_s": sum(r.get("job_s", 0.0) for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "peak_rss_mb": max(r["rss_mb"] for r in records),
            "jobs": records,
        }

    def check(self, job: Job, out: Path) -> list[str]:
        couples, _, singles = self.data
        states = list(panel.STATES)
        if job.command == "indicators":
            keys = {(s, str(y)) for (s, y) in couples if s != panel.UNKNOWN}
            keys |= {("US", str(y)) for y in panel.WAVES}
            return checks.indicators(out / "indicators.csv", keys, job.categories)
        if job.command == "decompose":
            missing = {
                (s, f"{early}s") for s in states
                for early, late in zip(panel.WAVES, panel.WAVES[1:])
                if (s, early) not in couples or (s, late) not in couples
            }
            return checks.decomposition(
                out / "decomposition.csv", states, DECADES, missing)
        if job.command == "trend":
            return checks.trend(out, len(states) * len(DECADES))
        if job.command == "counterfactual":
            early = couples[(self.state, panel.WAVES[0])].astype(float)
            rows = checks.merge(early.sum(axis=1), job.categories)
            cols = checks.merge(early.sum(axis=0), job.categories)
            if job.method == "csa":
                men, women = singles[(self.state, panel.WAVES[0])]
                rows, cols = rows + men, cols + women
            return checks.counterfactual(
                out / "counterfactual.json", job.method, rows, cols)
        if job.command == "criteria":
            problems = checks.criteria(out, GOLDEN, self.seed)
            return problems + self.replay(out / "criteria_witnesses.json")
        raise ValueError(job.command)

    def replay(self, witness_path: Path) -> list[str]:
        """Replay every counterexample witness, once per distinct file."""
        digest = sha256(witness_path)
        if digest not in self.replayed:
            log = self.work / f"replay-{digest[:12]}.log"
            result, _, _ = spawn(
                ["replay", str(witness_path)], log, self.deadline)
            self.replayed[digest] = (
                [result["error"]] if "error" in result
                else checks.replays(result, witness_path))
        return self.replayed[digest]

    def cross_check(self, work: Path, records: list[dict]):
        """``trend`` scores exactly the pairs ``decompose`` reports ok."""
        done = {r["job"] for r in records if not r["problems"]}
        for record in records:
            name = record["job"]
            if not name.startswith("trend-") or name not in done:
                continue
            twin = "decompose-" + name.removeprefix("trend-")
            if twin not in done:
                continue
            stats = json.loads(
                (work / name / "trend_stats.json").read_text(encoding="utf-8"))
            ok = checks.ok_rows(work / twin / "decomposition.csv")
            if stats["N"] != ok:
                record["problems"].append(
                    f"trend scores N={stats['N']} but decompose has {ok} ok rows")

    @staticmethod
    def output_counts(work: Path, records: list[dict]) -> dict[str, float]:
        """Per-layer counts read off the outputs of one pass."""
        m = {"cli.output_bytes": float(sum(r.get("bytes", 0) for r in records)),
             "trend.series_rows": 0.0, "trend.series_units": 0.0}
        for method in tracer.METHODS:
            m[f"trend.series_units.{method}"] = 0.0
        for record in records:
            if record["job"].startswith("trend-") and "hashes" in record:
                rows, units = checks.series_units(work / record["job"])
                m["trend.series_rows"] += rows
                m["trend.series_units"] += units
                m[f"trend.series_units.{record['job'].split('-')[1]}"] += units
        return m

    # ------------------------------------------------------------------

    def execute(self):
        if not self.trace:
            self.measure_setup()
        # start another pass only while it should end within --seconds
        started = time.perf_counter()
        longest = 0.0
        while (len(self.passes) < MIN_PASSES
               or time.perf_counter() - started + longest <= self.seconds):
            traced = self.trace and len(self.passes) % 2 == 1
            begun = time.perf_counter()
            self.passes.append(self.run_pass(len(self.passes), traced))
            longest = max(longest, time.perf_counter() - begun)
        first = {r["job"]: r for r in self.passes[0]["jobs"]}
        for record in (r for p in self.passes[1:] for r in p["jobs"]):
            want = first[record["job"]].get("hashes")
            if "hashes" in record and want is not None and record["hashes"] != want:
                record["problems"].append("outputs differ from the first pass")

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Reported metrics, plus problems found in the measurements."""
        untraced = [p for p in self.passes if not p["traced"]]
        jobs = [r for p in self.passes for r in p["jobs"]]
        if not self.trace:
            attempted = len(jobs)
            failed = sum(bool(r["problems"]) for r in jobs)
            return {
                "wall_s": statistics.median(p["wall_s"] for p in untraced),
                "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
                "setup_s": statistics.median(self.setups),
                "success_rate": (attempted - failed) / attempted,
            }, []
        traced = [p for p in self.passes if p["traced"]]
        per_pass = []
        for p in traced:
            summaries = [r["trace"] for r in p["jobs"] if "trace" in r]
            values = tracer.pass_metrics(summaries)
            values.update(p["outputs"])
            per_pass.append(values)
        problems = []
        m = {}
        for name in per_pass[0]:
            series = [values[name] for values in per_pass]
            if name in tracer.COUNT_METRICS:
                if len(set(series)) != 1:
                    problems.append(f"count {name} differs between passes: {series}")
                m[name] = series[0]
            else:
                m[name] = statistics.median(series)
        for record in (r for p in traced for r in p["jobs"] if "trace" in r):
            coverage = tracer.pass_metrics([record["trace"]])["trace.self_coverage"]
            if abs(coverage - 1.0) > 1e-6:
                problems.append(f"{record['job']}: layer self times cover "
                                f"{coverage!r} of the job span")
        m["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                 - statistics.median(p["wall_s"] for p in untraced))
        return m, problems


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return next((unit for suffix, unit in LAYER_UNITS.items()
                 if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "homlab" / "cli.py").is_file():
        print(f"no homlab sources under {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    values, problems = run.metrics()
    jobs = [r for p in run.passes for r in p["jobs"]]
    failed = [r for r in jobs if r["problems"]]

    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "metrics": values,
        "problems": problems,
        "setup_starts_s": run.setups,
        "passes": [{k: v for k, v in p.items() if k != "jobs"}
                   | {"jobs": [{k: v for k, v in r.items() if k != "trace"}
                               for r in p["jobs"]]}
                   for p in run.passes],
        "inputs_sha256": {name: sha256(path) for name, path in run.inputs.items()},
        "outputs_sha256": {r["job"]: r.get("hashes", {})
                           for r in run.passes[0]["jobs"]},
    }
    results_path = OUT / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    if not failed and not problems:  # the hashes above stand for the outputs
        shutil.rmtree(run.work)

    for record in failed:
        print(f"FAILED {record['job']}: {'; '.join(record['problems'])[:2000]}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(f"{len(run.passes)} passes, results in {results_path}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(values.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
