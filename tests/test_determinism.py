"""Outputs do not depend on the hash seed or on the CPU count.

The jobs are those of CI's "Hash-seed determinism" step. Each run goes
through ``cli.main`` in process, in a fresh interpreter, so that
``PYTHONHASHSEED`` and the CPU-affinity mask apply to the whole run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS / "fixtures"
SRC = TESTS.parent / "src"

# run in a fresh interpreter: argv is the output directory, the jobs as
# JSON and "1" to pin the process to one CPU first
RUNNER = """
import json, os, sys
from homlab.cli import main
out, jobs, one_cpu = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3] == "1"
if one_cpu:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
for name, argv in jobs:
    main([*argv, "--out", os.path.join(out, name)], standalone_mode=False)
"""

CRITERIA = ("criteria", ["criteria", "--samples", "20", "--seed", "3"])


def jobs(config: Path):
    """The (name, argv) of every job, ``config`` holding ``{"labels": ["L", "H"]}``."""
    panel = ("--couples", str(FIXTURES / "synthetic_panel.csv"))
    three = ("--couples", str(FIXTURES / "three_level_panel.csv"))
    income = ("--income", str(FIXTURES / "synthetic_income.csv"))
    singles = ("--singles", str(FIXTURES / "synthetic_singles.csv"))
    cfg = ("--config", str(config))
    return [
        CRITERIA,
        # n_s and n_s_over_N come from the income reader and the income
        # decade deltas
        ("trend", ["trend", *cfg, "--method", "nm", *panel, *income]),
        ("indicators", ["indicators", *cfg, *panel]),
        ("trend-ll", ["trend", *cfg, "--measure", "ll", *panel]),
        ("trend-csa", ["trend", *cfg, "--method", "csa", *panel, *singles]),
        ("indicators-college", ["indicators", "--categories", "college", *three]),
        ("decompose-hs", ["decompose", "--categories", "hs", "--method", "ipf", *three]),
        ("decompose-nm", ["decompose", *cfg, "--method", "nm", *panel]),
        ("indicators-three", ["indicators", "--categories", "three", *three]),
        ("counterfactual-college", [
            "counterfactual", "--categories", "college", "--method", "nm", *three,
            "--state", "Iowa", "--early-year", "1960", "--late-year", "2010"]),
        ("counterfactual-csa", [
            "counterfactual", *cfg, "--method", "csa", *panel, *singles,
            "--state", "Alabama", "--early-year", "1960", "--late-year", "1970"]),
    ]


def run(out: Path, job_list, hash_seed: str, one_cpu: bool = False) -> dict:
    """Every output file of ``job_list`` run in a fresh interpreter, by its
    path under ``out``, as bytes."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    subprocess.run([sys.executable, "-c", RUNNER, str(out), json.dumps(job_list),
                    "1" if one_cpu else "0"],
                   env=env, check=True, capture_output=True, timeout=300)
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_outputs_do_not_depend_on_the_hash_seed_or_the_cpu_count(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text('{"labels": ["L", "H"]}', encoding="utf-8")
    job_list = jobs(config)
    first = run(tmp_path / "hash-seed-1", job_list, "1")
    assert {name.split("/")[0] for name in first} == {name for name, _ in job_list}
    assert run(tmp_path / "hash-seed-2", job_list, "2") == first
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("this platform cannot pin a process to one CPU")
    # criteria pinned to one CPU runs every cell in one process
    one_cpu = run(tmp_path / "one-cpu", [CRITERIA], "1", one_cpu=True)
    assert one_cpu == {name: data for name, data in first.items()
                       if name.startswith("criteria/")}
