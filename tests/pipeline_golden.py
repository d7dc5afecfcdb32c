"""Write the pipeline golden outputs: every CLI subcommand of the pipeline,
run in process on the committed fixtures.

    PYTHONPATH=src python tests/pipeline_golden.py [OUT]

OUT defaults to ``tests/fixtures/pipeline_golden``. Each run writes into
``OUT/<panel>-<divide>/<command>[-<method or measure>]/``:

* ``synthetic`` is ``synthetic_panel.csv`` with the labels ``L`` and ``H``
  (and its income, and its singles for ``csa``), on the ``three`` divide;
* ``levels`` is ``three_level_panel.csv`` with the default labels, on the
  ``three``, ``hs`` and ``college`` divides (it has no singles file, so its
  ``csa`` runs report every pair as excluded).

The runs are ``indicators``; ``decompose`` and ``trend`` per method; the
scalar ``trend --measure ll``; and ``counterfactual`` per method on
Alabama 1960->1970 (``synthetic``) and Iowa 1960->2010 (``levels``).
``tests/test_pipeline_golden.py`` regenerates them and compares byte for
byte, so a change to any of these outputs shows as a failing test; rerun
this script only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from homlab.cli import main
from homlab.counterfactual import METHOD_TAGS

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = FIXTURES / "pipeline_golden"

# panel name: (couples file, labels or None for the defaults, divides,
# extra options for every run, extra options for csa, counterfactual pair)
PANELS = {
    "synthetic": ("synthetic_panel.csv", ["L", "H"], ("three",),
                  ["--income", str(FIXTURES / "synthetic_income.csv")],
                  ["--singles", str(FIXTURES / "synthetic_singles.csv")],
                  ("Alabama", "1960", "1970")),
    "levels": ("three_level_panel.csv", None, ("three", "hs", "college"),
               [], [], ("Iowa", "1960", "2010")),
}


def runs():
    """Each run as (panel name, output directory relative to the golden
    root, argv without ``--out`` and ``--config``)."""
    for panel, (couples, labels, divides, data, csa_data, pair) in PANELS.items():
        state, early, late = pair
        for divide in divides:
            unit = f"{panel}-{divide}"
            base = ["--categories", divide, "--couples", str(FIXTURES / couples)]
            yield panel, f"{unit}/indicators", ["indicators", *base]
            yield panel, f"{unit}/trend-ll", ["trend", *base, *data, "--measure", "ll"]
            for method in METHOD_TAGS:
                given = [*base, "--method", method, *(csa_data if method == "csa" else [])]
                yield panel, f"{unit}/decompose-{method}", ["decompose", *given]
                yield panel, f"{unit}/trend-{method}", ["trend", *given, *data]
                yield panel, f"{unit}/counterfactual-{method}", [
                    "counterfactual", *given, "--state", state,
                    "--early-year", early, "--late-year", late]


def write_goldens(out: Path) -> list[Path]:
    """Run every pipeline golden case into ``out``; returns the files
    written, relative to ``out``."""
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as scratch:
        configs = {}
        for name, (_, labels, *_) in PANELS.items():
            if labels is not None:
                configs[name] = Path(scratch) / f"{name}.json"
                configs[name].write_text(json.dumps({"labels": labels}), encoding="utf-8")
        for panel, where, argv in runs():
            config = ["--config", str(configs[panel])] if panel in configs else []
            result = runner.invoke(main, [*argv, *config, "--out", str(out / where)])
            if result.exit_code != 0:
                raise RuntimeError(f"{where}: exit {result.exit_code}: {result.output}"
                                   ) from result.exception
    return sorted(path.relative_to(out) for path in out.rglob("*") if path.is_file())


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    written = write_goldens(target)
    print(f"wrote {len(written)} files under {target}")
