"""The pipeline's outputs on the committed fixtures are byte-identical to
the goldens that ``tests/pipeline_golden.py`` wrote."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent / "pipeline_golden.py"
_spec = importlib.util.spec_from_file_location("pipeline_golden", _SCRIPT)
pipeline_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pipeline_golden)


def _files(root: Path) -> list[Path]:
    return sorted(path.relative_to(root) for path in root.rglob("*") if path.is_file())


def test_pipeline_outputs_match_the_goldens_byte_for_byte(tmp_path):
    written = pipeline_golden.write_goldens(tmp_path)
    golden = pipeline_golden.GOLDEN
    assert written == _files(golden)
    changed = [str(name) for name in written
               if (tmp_path / name).read_bytes() != (golden / name).read_bytes()]
    assert changed == []


def test_the_goldens_cover_every_command_method_and_divide():
    runs = {where for _, where, _ in pipeline_golden.runs()}
    units = ("synthetic-three", "levels-three", "levels-hs", "levels-college")
    commands = ["indicators", "trend-ll"] + [
        f"{command}-{method}" for command in ("decompose", "trend", "counterfactual")
        for method in ("ipf", "mdba", "meda", "csa", "nm")]
    assert runs == {f"{unit}/{command}" for unit in units for command in commands}
