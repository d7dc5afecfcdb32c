"""The criteria outputs at seeds 1-9 and 50 samples hash to the digests
that ``tests/criteria_seed_sha256.py`` wrote."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent / "criteria_seed_sha256.py"
_spec = importlib.util.spec_from_file_location("criteria_seed_sha256", _SCRIPT)
criteria_seed_sha256 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(criteria_seed_sha256)


def test_criteria_outputs_at_seeds_1_to_9_match_their_pinned_digests():
    pinned = json.loads(criteria_seed_sha256.PINS.read_text(encoding="utf-8"))
    assert criteria_seed_sha256.digests() == pinned
