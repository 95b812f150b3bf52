"""The README's library and command-line examples run as printed, with
fewer epochs, draws and repeats."""

import os
import re
import shlex

import numpy as np

from walkrec import cli

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


def test_command_line_example_runs(tmp_path, monkeypatch, capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read().replace("\\\n", " "),
                            flags=re.S)
    # keyed by command, or by "bench <kind>" for the bench lines
    argvs = {" ".join(argv[1:2 + (argv[1] == "bench")]): argv[1:]
             for argv in map(shlex.split, "\n".join(blocks).splitlines())
             if argv[:1] == ["walkrec"]}
    for command, flag, shown, fewer in [("train", "--epochs", "50", "2"),
                                        ("bench sampler", "--draws", "20000", "2000"),
                                        ("bench variance", "--epochs", "100", "2")]:
        at = argvs[command].index(flag) + 1
        assert argvs[command][at] == shown
        argvs[command][at] = fewer
    argvs["bench variance"] += ["--repeats", "20"]
    for command in ("bench tm-sweep", "bench ablation"):
        argvs[command] += ["--epochs", "2"]
    rng = np.random.default_rng(0)
    (tmp_path / "raw.tsv").write_text("".join(
        f"u{u}\ti{i}\n" for u, i in rng.integers(0, [40, 60], size=(600, 2))))
    (tmp_path / "edges.tsv").write_text("".join(
        f"u{a}\tu{b}\n" for a, b in rng.integers(0, 40, size=(120, 2))))
    monkeypatch.chdir(tmp_path)
    for command in ("prepare", "train", "evaluate"):
        assert cli.main(argvs[command]) == 0, command
    report = capsys.readouterr().out.splitlines()
    assert report[-8] == "metric,K,value"
    assert report[-7].startswith("recall,5,")
    for command, header in [("bench sampler", "sampler,cells,statistic,dof,p_value,tv"),
                            ("bench variance", "sampler,variance,mean_abs_bias"),
                            ("bench tm-sweep", "t_m,metric,value"),
                            ("bench ablation", "variant,metric,value")]:
        assert cli.main(argvs[command]) == 0, command
        assert capsys.readouterr().out.splitlines()[0] == header
