"""The outputs of the benchmark's panel jobs on its seed-0 panel hash to
the digests that ``tests/paper_panel_sha256.py`` wrote."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent / "paper_panel_sha256.py"
_spec = importlib.util.spec_from_file_location("paper_panel_sha256", _SCRIPT)
paper_panel_sha256 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paper_panel_sha256)


def test_paper_scale_panel_outputs_match_their_pinned_digests():
    pinned = json.loads(paper_panel_sha256.PINS.read_text(encoding="utf-8"))
    assert len(pinned) == 17  # the 14 panel jobs and the 3 panel_csa jobs
    assert paper_panel_sha256.digests() == pinned
