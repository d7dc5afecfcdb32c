"""The README's library tour runs as written and its commented values hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs_and_its_commented_values_hold():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        # a value comment is a number or a fraction; others are prose
        if re.fullmatch(r"[\d.]+(/[\d.]+)?", comment.strip()):
            assert eval(code, namespace) == eval(comment), line
            checked.append(code.strip())
    assert checked == ['evaluate("or", early)[0]', 'evaluate("ll", late)[0]']
