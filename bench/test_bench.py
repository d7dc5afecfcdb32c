"""Tests of the benchmark itself: python3 -m pytest -q bench"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import panel
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from homlab.cli import main  # noqa: E402
from homlab.io import RunConfig, decade_changes, load_couples  # noqa: E402


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    data = panel.generate(7)
    return data, panel.write_panel(tmp_path_factory.mktemp("inputs"), data)


def test_generator_is_deterministic(tmp_path):
    def written(seed, name):
        paths = panel.write_panel(tmp_path / name, panel.generate(seed))
        return {key: path.read_bytes() for key, path in paths.items()}

    assert written(3, "a") == written(3, "b")
    assert written(3, "a") != written(4, "c")


def test_panel_has_the_irregular_cases(inputs):
    data, paths = inputs
    couples = data[0]
    assert all((panel.UNKNOWN, year) in couples for year in panel.WAVES)
    present = {key for key in couples if key[0] != panel.UNKNOWN}
    assert len(panel.STATES) * len(panel.WAVES) - len(present) == panel.MISSING_WAVES
    config = RunConfig(method="nm")
    changes, _ = decade_changes(load_couples(paths["couples"], config), config)
    reasons = {c.reason.split(":")[0] for c in changes if not c.valid}
    assert reasons == {"missing wave", "InfeasibilityError"}


def _decompose(paths, out):
    main(["decompose", "--couples", str(paths["couples"]), "--method", "ipf",
          "--out", str(out)], standalone_mode=False)
    return out / "decomposition.csv"


def test_corrupted_decomposition_is_caught(inputs, tmp_path):
    data, paths = inputs
    path = _decompose(paths, tmp_path)
    couples = data[0]
    missing = {
        (s, f"{a}s") for s in panel.STATES
        for a, b in zip(panel.WAVES, panel.WAVES[1:])
        if (s, a) not in couples or (s, b) not in couples
    }

    def problems():
        return checks.decomposition(path, list(panel.STATES), run.DECADES, missing)

    assert problems() == []
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    ok = next(i for i, line in enumerate(lines) if line.rstrip().endswith(",ok"))

    path.write_text("".join(lines + [lines[ok]]), encoding="utf-8")
    assert any("duplicate" in p for p in problems())
    path.write_text("".join(lines[:ok] + lines[ok + 1:]), encoding="utf-8")
    assert any("no row" in p for p in problems())
    fields = lines[ok].split(",")
    fields[7] = repr(float(fields[7]) + 1e-6)  # nonstructural
    path.write_text("".join(lines[:ok] + [",".join(fields)] + lines[ok + 1:]),
                    encoding="utf-8")
    assert any("additivity" in p for p in problems())


def _criteria_outputs(out: Path, flip=None):
    """Golden matrices plus a witness file naming their N cells; ``flip``
    rewrites one cell as ``(criterion, tag, verdict)``."""
    witnesses = {}
    for name in ("criteria_indicators", "criteria_methods"):
        text = (run.GOLDEN / f"{name}_golden.csv").read_bytes().decode()
        lines = text.split("\r\n")[:-1]  # csv.writer ends lines with CRLF
        header = lines[0].split(",")
        for i, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            for tag, verdict in zip(header[1:], cells[1:]):
                if verdict == "N":
                    witnesses[f"{cells[0]}|{tag}"] = {
                        "verdict": checks.COUNTEREXAMPLE, "witness": {}}
            if flip and cells[0] == flip[0] and flip[1] in header:
                cells[header.index(flip[1])] = flip[2]
                lines[i] = ",".join(cells)
        (out / f"{name}.csv").write_bytes(("\r\n".join(lines) + "\r\n").encode())
    (out / "criteria_witnesses.json").write_text(json.dumps(witnesses))


def test_corrupted_criteria_matrix_is_caught(tmp_path):
    _criteria_outputs(tmp_path)
    assert checks.criteria(tmp_path, run.GOLDEN, seed=0) == []
    assert checks.criteria(tmp_path, run.GOLDEN, seed=5) == []

    _criteria_outputs(tmp_path, flip=("AC2", "det", "Y"))  # an N lost
    assert any("golden" in p for p in checks.criteria(tmp_path, run.GOLDEN, 0))
    assert any("N cells" in p for p in checks.criteria(tmp_path, run.GOLDEN, 5))
    _criteria_outputs(tmp_path, flip=("AC11", "nm", "Y"))  # NT cell run
    assert any("golden NT" in p for p in checks.criteria(tmp_path, run.GOLDEN, 5))
    _criteria_outputs(tmp_path, flip=("AC2", "or", "maybe"))
    assert any("verdict" in p for p in checks.criteria(tmp_path, run.GOLDEN, 5))

    witness_path = tmp_path / "criteria_witnesses.json"
    keys = list(json.loads(witness_path.read_text()))
    replayed = {"replays": {k: 1.0 for k in keys}, "tolerance": 1e-7}
    assert checks.replays(replayed, witness_path) == []
    replayed["replays"][keys[0]] = 0.0
    assert checks.replays(replayed, witness_path) != []


def test_metric_names_are_listed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer = set(tracer.pass_metrics([tracer.Tracer().summary()]))
    layer |= set(run.Run.output_counts(ROOT, [])) | {"trace.overhead_s"}
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == set(listed)
    assert set(run.END_TO_END) == {m["name"] for m in spec["end_to_end"]}
    for name in layer | set(run.END_TO_END):
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    for name in layer:
        assert run.unit_of(name) == listed[name], name
    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_traced_job_accounts_for_its_time(inputs, tmp_path):
    _, paths = inputs
    result_path = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, str(run.CHILD), str(run.SRC), str(result_path), "1",
         "trend", "--couples", str(paths["couples"]), "--method", "nm",
         "--out", str(tmp_path / "out")],
        check=True, capture_output=True, timeout=120,
    )
    result = json.loads(result_path.read_text())
    m = tracer.pass_metrics([result["trace"]])
    assert m["trace.self_coverage"] == pytest.approx(1.0, abs=1e-9)
    assert m["decomposition.decompose_per_pair"] > 1.5  # each pair done twice
    assert m["io.pairs"] == len(panel.STATES) * (len(panel.WAVES) - 1)
    assert m["io.pairs_excluded.missing_wave"] > 0
    assert m["io.pairs_excluded.InfeasibilityError"] > 0
    assert m["counterfactual.nm.calls"] > 0 and m["counterfactual.ipf.calls"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "panel", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
