"""Write the sha256 of the criteria outputs at seeds 1-9.

    PYTHONPATH=src python tests/criteria_seed_sha256.py [OUT]

OUT defaults to ``tests/fixtures/criteria_seed_sha256.json``. For each seed,
``homlab criteria --samples 50 --seed <seed>`` runs in process and the file
maps the seed to the sha256 of ``criteria_indicators.csv``,
``criteria_methods.csv`` and ``criteria_witnesses.json``. The committed
criteria goldens pin seed 0 at the default 200 samples; these digests pin
the random stream of every sampled cell at nine more seeds.
``tests/test_criteria_seed_sha256.py`` recomputes them and compares, so a
change to any draw shows as a failing test; rerun this script only when an
output is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from homlab.cli import main

PINS = Path(__file__).resolve().parent / "fixtures" / "criteria_seed_sha256.json"
SAMPLES = 50
SEEDS = range(1, 10)
OUTPUTS = ("criteria_indicators.csv", "criteria_methods.csv", "criteria_witnesses.json")


def digests() -> dict:
    """The pinned document: the sample count and, per seed, each output's
    sha256."""
    runner = CliRunner()
    seeds = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as out:
            result = runner.invoke(
                main, ["criteria", "--samples", str(SAMPLES), "--seed", str(seed), "--out", out])
            if result.exit_code != 0:
                raise RuntimeError(f"seed {seed}: exit {result.exit_code}: {result.output}"
                                   ) from result.exception
            seeds[str(seed)] = {name: hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
                                for name in OUTPUTS}
    return {"samples": SAMPLES, "seeds": seeds}


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else PINS
    target.write_text(json.dumps(digests(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote the digests of seeds {SEEDS.start}-{SEEDS.stop - 1} to {target}")
