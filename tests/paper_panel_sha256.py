"""Write the sha256 of every output of the paper-scale panel jobs.

    PYTHONPATH=src python tests/paper_panel_sha256.py [OUT]

OUT defaults to ``tests/fixtures/paper_panel_sha256.json``. The inputs are
the benchmark's seed-0 panel (``bench/panel.py``), committed under
``tests/fixtures/paper_panel/``: 51 states x 6 waves with ``UNKNOWN`` rows,
three missing state-waves and three infeasible decades, which the 4-state
fixtures lack. The jobs are the benchmark's ``panel`` list (``indicators``
on ``three`` and ``college``; ``decompose``, ``trend`` and one
``counterfactual`` for ``ipf``, ``meda`` and ``nm`` on ``three`` and ``mdba``
on ``college``) and its ``panel_csa`` list (the same three commands with
``csa`` and the singles). Each runs in process through ``cli.main`` and the
file maps the job, named as the benchmark names it, to the sha256 of each
output. ``tests/test_paper_panel_sha256.py`` recomputes them and compares,
so a change to any output byte shows as a failing test; rerun this script
only when an output is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from homlab.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
PANEL = FIXTURES / "paper_panel"
PINS = FIXTURES / "paper_panel_sha256.json"
# the first state with both the first and the last wave, as the benchmark picks it
PAIR = ("--state", "Alaska", "--early-year", "1960", "--late-year", "2010")
FITS = (("ipf", "three"), ("meda", "three"), ("nm", "three"), ("mdba", "college"))


def jobs():
    """Each job as (name, argv without ``--out``)."""
    data = ("--couples", str(PANEL / "couples.csv"), "--income", str(PANEL / "income.csv"))
    singles = ("--singles", str(PANEL / "singles.csv"))

    def job(command, method, categories, *extra):
        name = "-".join(x for x in (command, method, categories) if x)
        argv = (command, *data, "--categories", categories, *extra)
        return name, [*argv, *(("--method", method) if method else ())]

    listed = [job("indicators", "", cut) for cut in ("three", "college")]
    for method, cut, extra in [*((m, c, ()) for m, c in FITS), ("csa", "three", singles)]:
        listed += [job("decompose", method, cut, *extra), job("trend", method, cut, *extra),
                   job("counterfactual", method, cut, *extra, *PAIR)]
    return listed


def digests() -> dict:
    """Per job, each output file's sha256."""
    pins = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in jobs():
            out = Path(scratch) / name
            main([*argv, "--out", str(out)], standalone_mode=False)
            pins[name] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                          for path in sorted(out.iterdir())}
    return pins


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else PINS
    target.write_text(json.dumps(digests(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote the digests of {len(jobs())} jobs to {target}")
