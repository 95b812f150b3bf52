"""The README's library example runs as printed, with fewer epochs."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def test_library_example_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 1
    code = blocks[0].replace("epochs=25", "epochs=2")
    assert "epochs=2," in code
    exec(compile(code, README, "exec"), {})
    assert "'recall@5'" in capsys.readouterr().out


def test_top_level_names_are_the_examples():
    import walkrec
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"from walkrec import \((.*?)\)", fh.read(), flags=re.S)
    shown = {name.strip() for name in block.group(1).split(",")}
    assert set(walkrec.__all__) - {"__version__"} == shown
