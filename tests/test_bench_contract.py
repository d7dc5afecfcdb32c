"""What the benchmark's tracer needs from ``src/``.

``bench/tracer.py`` reads some names of the package directly (see the
README), so renaming one of them breaks every traced benchmark job. Each
test runs one traced job per subcommand on the paper-scale panel, as
``bench/run.py --trace 1`` runs it: ``bench/child.py`` in a fresh
interpreter. It then applies the checks the benchmark applies to a traced
job: the child exits 0 with no error and a trace, and the layers' self
times cover the job's span.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PANEL = Path(__file__).resolve().parent / "fixtures" / "paper_panel"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
DATA = ("--couples", str(PANEL / "couples.csv"), "--income", str(PANEL / "income.csv"),
        "--categories", "three")
JOBS = {
    "indicators": ("indicators", *DATA),
    "decompose": ("decompose", *DATA, "--method", "nm"),
    "trend": ("trend", *DATA, "--method", "ipf"),
    "counterfactual": ("counterfactual", *DATA, "--singles", str(PANEL / "singles.csv"),
                       "--method", "csa", "--state", "Alaska", "--early-year", "1960",
                       "--late-year", "2010"),
    "criteria": ("criteria", "--samples", "5"),
}


@pytest.mark.parametrize("command", list(JOBS))
def test_a_traced_job_runs_and_its_layers_cover_its_span(tmp_path, command):
    result_path = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(ROOT / "src"), str(result_path), "1",
         *JOBS[command], "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    # a child that dies before it writes its result leaves only its stderr
    result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.exists() else {}
    assert proc.returncode == 0 and "error" not in result, result.get("error") or proc.stderr
    assert "trace" in result
    coverage = TRACER.pass_metrics([result["trace"]])["trace.self_coverage"]
    assert abs(coverage - 1.0) <= 1e-6, coverage
