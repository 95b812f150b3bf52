"""Command-line behavior: exit codes, config merging, artifact round-trips."""

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys

import numpy as np
import pytest

from walkrec import cli, corpus, metrics, trainer
from walkrec.factors import load_factors, save_factors


def write_raw_dataset(tmp_path, n_users=30, n_items=40, events=500, seed=0,
                      social_edges=80):
    rng = np.random.default_rng(seed)
    raw = tmp_path / "raw.tsv"
    with open(raw, "w", encoding="utf-8") as fh:
        fh.write("# synthetic raw log\n")
        for _ in range(events):
            fh.write(f"u{rng.integers(n_users)}\ti{rng.integers(n_items)}\n")
    soc = tmp_path / "social.tsv"
    with open(soc, "w", encoding="utf-8") as fh:
        for _ in range(social_edges):
            fh.write(f"u{rng.integers(n_users)}\tu{rng.integers(n_users)}\n")
    return str(raw), str(soc)


def run_prepare(tmp_path, out_name="data", with_social=True, seed=0):
    raw, soc = write_raw_dataset(tmp_path, seed=seed)
    out = str(tmp_path / out_name)
    argv = ["prepare", "--interactions", raw, "--test-fraction", "0.2",
            "--min-item-count", "2", "--max-item-count", "100",
            "--out", out]
    if with_social:
        argv += ["--social", soc, "--symmetrize"]
    assert cli.main(argv) == 0
    return out


def run_capped(argv):
    """Run the CLI with argv in a child process whose address space is
    capped at 512 MB, so a refusal that came too late would fail fast."""
    cap = 512 << 20
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "walkrec.cli"] + argv, env=env, capture_output=True,
        text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


def golden_raw(delim):
    """A raw log of 102 events over 14 users and 12 items: every third line
    has a weight, every fifth ends in CRLF, comments and blanks between."""
    lines = ["# user, item, optional weight", ""]
    for k in range(100):
        if k == 40:  # rare has two consumers; loner has nothing else
            lines += [delim.join(["loner", "rare", "2"]), delim.join(["user12", "rare"])]
        fields = [f"user{k % 13}", f"item{(k * k + k // 13) % 11}"]
        if k % 3 == 0:
            fields.append(str(k % 4 + 1))
        lines.append(delim.join(fields) + ("\r" if k % 5 == 0 else ""))
        if k % 17 == 0:
            lines += ["# comment", "  "]
    return "\n".join(lines) + "\n"


def golden_social(delim):
    """Social links with repeats, a self-edge and a user absent from the log."""
    pairs = [(f"user{k % 12}", f"user{(k * 5 + 1) % 12}") for k in range(30)]
    pairs += [("ghost", "user1"), ("user2", "ghost"), ("user3", "user3")]
    return "".join(f"{a}{delim}{b}\n" for a, b in pairs)


GOLDEN_SHA256 = {
    "tsv/idmap_items.tsv": "c9455af04ea0d6d087bbea1cc7e891366e8d16e3e75d5b2f583444926715e338",
    "tsv/idmap_users.tsv": "506bb21b7215ff7a011cd0d055e1264dac9c2f341cd8f6795bf90524dc1c6d80",
    "tsv/interactions_test.tsv": "908c4d7848fa468e73326f2de9a3c42dfb103f3dca17384a1204c6162ea2ffcf",
    "tsv/interactions_train.tsv": "5781ec678c75bf8024781020dc6f5b780e2174ee6881ee080dd7abc0c5ac50db",
    "tsv/manifest.json": "635ad7398236ab24fd47bab07c32d510904ee6f93f05fbbd96b676ecdba5b09f",
    "tsv/social.tsv": "9377ba309903ce70e5477358646fb1134fae1087db599ac0dc44da2d8a096ecd",
    "csv/fold0_test.tsv": "c278b9b2f9f519c14033dc589970974f0e759017fb205a312f8858eaca1450be",
    "csv/fold0_train.tsv": "08b930f77ab3e406486617a480018f23dcb54dafa16ec9454c099316ba961df6",
    "csv/fold1_test.tsv": "d8549a0a762d77e1ef9354714849f5450e7e2da4cdc7200b199cf59c174689c7",
    "csv/fold1_train.tsv": "2ee2685bc740b0f4ea78ac228f90cc11756f06f360568fe8deeae8d94f24ddbe",
    "csv/fold2_test.tsv": "0da72b0f183b330c44c7054ee4f3008a352bc5a5e7398475f474c2b5d17a5dae",
    "csv/fold2_train.tsv": "be6d0f3d441c24430a0c81f98efc763ed2cadff818873d414ca22d0d90d1371a",
    "csv/idmap_items.tsv": "835aa238499370a6785ff7ed3298424274407c03295816d38be369893a2a6467",
    "csv/idmap_users.tsv": "b0c70034d13392560322f3725a82ac8c061474f6688cf32819bb41e61c261e56",
    "csv/interactions_test.tsv": "c278b9b2f9f519c14033dc589970974f0e759017fb205a312f8858eaca1450be",
    "csv/interactions_train.tsv": "08b930f77ab3e406486617a480018f23dcb54dafa16ec9454c099316ba961df6",
    "csv/manifest.json": "cfcadd832733580dd5062f8562e80684e9f5998e41038f00b32f4cd2321c8f2d",
    "csv/social.tsv": "d0b9c88c051829fee53c74f9fd38b3764ecebb7f772e5cec313def478b3906bc",
}


FAST_TRAIN = ["--epochs", "2", "--d", "4", "--k", "4", "--alpha", "10",
              "--beta", "5", "--t-m", "2", "--n-si", "10"]


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["train", "--frobnicate"])
        assert err.value.code == 2

    def test_missing_train_file_is_2(self, tmp_path):
        code = cli.main(["train", "--data", str(tmp_path),
                         "--out", str(tmp_path / "model")])
        assert code == 2

    def test_bad_interactions_path_is_2(self, tmp_path):
        code = cli.main(["prepare", "--interactions",
                         str(tmp_path / "missing.tsv"),
                         "--out", str(tmp_path / "o")])
        assert code == 2

    def test_samwalker_without_social_is_2(self, tmp_path):
        data = run_prepare(tmp_path, with_social=False)
        code = cli.main(["train", "--data", data, "--mode", "samwalker",
                         "--out", str(tmp_path / "model")] + FAST_TRAIN)
        assert code == 2

    @pytest.mark.parametrize("bad_line", ["3\tx", "7", "0\t99999", "-1\t2"])
    def test_malformed_social_line_is_2(self, tmp_path, capsys, bad_line):
        data = run_prepare(tmp_path)
        path = os.path.join(data, "social.tsv")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bad_line + "\n# trailing comment\n")
        with open(path, encoding="utf-8") as fh:
            line_no = sum(1 for _ in fh) - 1
        code = cli.main(["train", "--data", data, "--mode", "samwalker",
                         "--out", str(tmp_path / "model")] + FAST_TRAIN)
        assert code == 2
        assert f"social.tsv:{line_no}:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_line", ["99999999999999999999\t2\t1",
                                          "3\t-9223372036854775809\t1"])
    def test_id_beyond_int64_is_2(self, tmp_path, capsys, bad_line):
        data = run_prepare(tmp_path)
        path = os.path.join(data, "interactions_train.tsv")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bad_line + "\n")
        with open(path, encoding="utf-8") as fh:
            line_no = sum(1 for _ in fh)
        code = cli.main(["train", "--data", data,
                         "--out", str(tmp_path / "model")] + FAST_TRAIN)
        assert code == 2
        err = capsys.readouterr().err
        assert f"interactions_train.tsv:{line_no}:" in err
        assert "internal error" not in err

    def test_non_utf8_raw_interactions_is_2(self, tmp_path, capsys):
        raw, _ = write_raw_dataset(tmp_path)
        with open(raw, "ab") as fh:
            fh.write(b"u1\ti\xff\n")
        with open(raw, "rb") as fh:
            line_no = fh.read().count(b"\n")
        code = cli.main(["prepare", "--interactions", raw,
                         "--out", str(tmp_path / "data")])
        assert code == 2
        assert f"raw.tsv:{line_no}:" in capsys.readouterr().err

    def test_non_utf8_social_line_is_2(self, tmp_path, capsys):
        data = run_prepare(tmp_path)
        path = os.path.join(data, "social.tsv")
        with open(path, "ab") as fh:
            fh.write(b"1\t\xff2\n")
        with open(path, "rb") as fh:
            line_no = fh.read().count(b"\n")
        code = cli.main(["train", "--data", data, "--mode", "samwalker",
                         "--out", str(tmp_path / "model")] + FAST_TRAIN)
        assert code == 2
        assert f"social.tsv:{line_no}:" in capsys.readouterr().err

    def test_unreadable_social_path_is_2(self, tmp_path, capsys):
        data = run_prepare(tmp_path, with_social=False)
        os.mkdir(os.path.join(data, "social.tsv"))
        code = cli.main(["train", "--data", data, "--mode", "samwalker",
                         "--out", str(tmp_path / "model")] + FAST_TRAIN)
        assert code == 2
        assert "social.tsv:0: cannot read (Is a directory)" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", [b"{bad", b'{"m": 3}', b"[1,2]",
                                          b'{"n": "30", "m": 40}',
                                          b'{"n": \xff}', None])
    def test_malformed_manifest_is_2(self, tmp_path, capsys, manifest):
        data = run_prepare(tmp_path)
        path = os.path.join(data, "manifest.json")
        os.remove(path)
        if manifest is None:
            os.mkdir(path)
        else:
            with open(path, "wb") as fh:
                fh.write(manifest)
        code = cli.main(["train", "--data", data,
                         "--out", str(tmp_path / "model")] + FAST_TRAIN)
        assert code == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err
        if manifest is None:  # the same message as for any other file
            assert "manifest.json:0: cannot read (Is a directory)" in err

    def test_repeated_cutoff_is_2(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.parse_ks("5,10,5")
        data = run_prepare(tmp_path)
        code = cli.main(["train", "--data", data, "--ks", "5,5",
                         "--out", str(tmp_path / "model")] + FAST_TRAIN)
        assert code == 2

    @pytest.mark.parametrize("text,message", [
        ('{"d": null}', "d must be a number or a string, got null"),
        ('{"alpha": [1]}', "alpha must be a number or a string, got [1]"),
        ('{"beta": {}}', "beta must be a number or a string, got {}"),
        ('{"epochs": true}', "epochs must be a number or a string, got true"),
        ('{"d": "x"}', "d: invalid literal"),
        ('{"d": 4.5}', "d must be an integer, got 4.5"),
        ('{"alpha": 1e400}', "alpha must be an integer, got inf"),
    ])
    def test_bad_config_value_is_2(self, tmp_path, capsys, text, message):
        data = run_prepare(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = cli.main(["train", "--data", data, "--config", str(cfg),
                         "--out", str(tmp_path / "model")])
        assert code == 2
        assert f"cfg.json: {message}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "model")

    @pytest.mark.parametrize("content", [
        b"{bad", b"[1]", b"{}", b'{"n": \xff}', None,
        # the checkpoint format before the flat config
        b'{"K": 4, "ablation": "none", "d": 4, "epoch": 2, "history": [], '
        b'"mode": "samwalker_pp", "seed": 0}',
    ])
    def test_malformed_state_json_is_2(self, tmp_path, capsys, content):
        data = run_prepare(tmp_path)
        model = str(tmp_path / "model")
        assert cli.main(["train", "--data", data, "--out", model]
                        + FAST_TRAIN) == 0
        path = os.path.join(model, "state.json")
        os.remove(path)
        if content is not None:
            with open(path, "wb") as fh:
                fh.write(content)
        capsys.readouterr()
        for argv in (["train", "--data", data, "--out", model, "--resume"]
                     + FAST_TRAIN,
                     ["evaluate", "--data", data, "--model", model]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert path in err and "internal error" not in err

    @pytest.mark.parametrize("name,donor", [
        ("factors.bin", ["--d", "6"]), ("graph.bin", ["--k", "8"]),
        ("graph.bin", ["--mode", "samwalker"])], ids=["d", "K", "mode"])
    def test_checkpoint_of_another_run_is_2(self, tmp_path, capsys, name,
                                            donor):
        # a samwalker_pp checkpoint at d=4, K=4 with one file copied in
        # from a run of another d, K or graph family
        data = run_prepare(tmp_path)
        model, other = str(tmp_path / "model"), str(tmp_path / "other")
        assert cli.main(["train", "--data", data, "--out", model]
                        + FAST_TRAIN) == 0
        assert cli.main(["train", "--data", data, "--out", other]
                        + FAST_TRAIN + donor) == 0
        path = os.path.join(model, name)
        shutil.copyfile(os.path.join(other, name), path)
        before = open(os.path.join(model, "state.json")).read()
        capsys.readouterr()
        runs = [["train", "--data", data, "--out", model, "--resume"]
                + FAST_TRAIN]
        if name == "factors.bin":
            runs.append(["evaluate", "--data", data, "--model", model])
        for argv in runs:
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert path in err and "does not match this run's" in err
        assert open(os.path.join(model, "state.json")).read() == before

    @pytest.mark.parametrize("name,cut", [("factors.bin", None),
                                          ("graph.bin", None),
                                          ("graph.bin", 3)])
    def test_unreadable_checkpoint_is_2(self, tmp_path, capsys, name, cut):
        # a missing file, or a payload that is not whole float64 values
        data = run_prepare(tmp_path)
        model = str(tmp_path / "model")
        assert cli.main(["train", "--data", data, "--out", model]
                        + FAST_TRAIN) == 0
        path = os.path.join(model, name)
        if cut is None:
            os.remove(path)
        else:
            with open(path, "rb") as fh:
                blob = fh.read()
            with open(path, "wb") as fh:
                fh.write(blob[:-cut])
        capsys.readouterr()
        runs = [["train", "--data", data, "--out", model, "--resume"]
                + FAST_TRAIN]
        if name == "factors.bin":
            runs.append(["evaluate", "--data", data, "--model", model])
        for argv in runs:
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert path in err and "internal error" not in err

    @pytest.mark.parametrize("flag", ["--beta", "--c", "--eta", "--epsilon",
                                      "--lr-theta", "--lr-phi", "--l2-theta"])
    def test_non_finite_hyperparameter_is_2(self, tmp_path, capsys, flag):
        data = run_prepare(tmp_path)
        field = flag[2:].replace("-", "_")
        for value in ("nan", "inf"):
            code = cli.main(["train", "--data", data,
                             "--out", str(tmp_path / "model")]
                            + FAST_TRAIN + [flag, value])
            assert code == 2
            assert f"{field} must be finite" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "model")

    @pytest.mark.parametrize("command", ["sampler", "variance", "tm-sweep",
                                         "ablation"])
    def test_bench_non_finite_sampler_flag_is_2(self, capsys, command):
        for flag in ("--beta", "--c"):
            code = cli.main(["bench", command,
                             "--synth", "n=20,m=30,d=4,groups=2,seed=1",
                             "--epochs", "1", flag, "nan"])
            assert code == 2
            assert f"{flag[2:]} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,message", [
        ("variance", "--d", "d must be at least 1"),
        ("tm-sweep", "--d", "d must be at least 1"),
        ("ablation", "--d", "d must be at least 1"),
        ("variance", "--k", "K must be at least 1"),
        ("sampler", "--k", "K must be at least 1"),
        ("tm-sweep", "--k", "K must be at least 1"),
        ("ablation", "--k", "K must be at least 1"),
        ("sampler", "--draws", "--draws must be at least 1"),
        ("variance", "--repeats", "--repeats must be at least 2"),
        ("variance", "--repeats=1", "--repeats must be at least 2"),
        ("variance", "--coords", "--coords must be at least 1"),
        ("variance", "--coords=-3", "--coords must be at least 1"),
    ])
    def test_bench_zero_width_is_2(self, command, flag, message):
        # a flag given as --name=value carries its own value, not 0
        child = run_capped(["bench", command,
                            "--synth", "n=20,m=30,d=4,groups=2,seed=1",
                            "--epochs", "1", flag] + ([] if "=" in flag else ["0"]))
        assert child.returncode == 2, child.stderr
        assert message in child.stderr and "internal error" not in child.stderr

    @pytest.mark.parametrize("command,flag,value", [
        ("sampler", "--alpha", "7"),  # alpha comes from --draws
        ("tm-sweep", "--t-m", "7"),  # depths come from --tm-values
        ("ablation", "--mode", "samwalker"),  # ablation trains samwalker_pp
        ("ablation", "--mode", "samwalker_pp"),
    ])
    def test_bench_flag_it_would_replace_is_2(self, capsys, command, flag, value):
        fast = ["--draws", "2000"] if command == "sampler" else ["--epochs", "1"]
        code = cli.main(["bench", command, "--synth", "n=20,m=30,d=4,groups=2,seed=1",
                         flag, value] + fast)
        assert code == 2
        assert (f"{flag} does not apply to bench {command}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flags,setting", [
        (["--folds", "0"], "folds"),
        (["--folds", "1"], "folds"),
        (["--folds", "-3"], "folds"),
        (["--folds", "LONGEST+1"], "folds"),  # its later folds would test nothing
        (["--test-fraction", "1.5"], "test_fraction"),
        (["--test-fraction", "-0.1"], "test_fraction"),
        (["--test-fraction", "nan"], "test_fraction"),
        (["--min-item-count", "0"], "min_item_count"),
        (["--min-item-count", "-1"], "min_item_count"),
        (["--min-item-count", "5", "--max-item-count", "4"], "max_item_count"),
        (["--folds", "3"], None),  # the control: the cap leaves room to run
    ], ids=["folds-0", "folds-1", "folds-neg", "folds-above-longest", "fraction-1.5",
            "fraction-neg", "fraction-nan", "min-0", "min-neg", "max-below-min",
            "control"])
    def test_bad_split_or_filter_value_is_2(self, tmp_path, flags, setting):
        # each row runs prepare in its own child process with its address
        # space capped, so a refusal that came too late would fail fast
        raw, _ = write_raw_dataset(tmp_path)
        loaded = corpus.load_interactions(raw)
        longest = int(corpus.binarize_and_filter(
            loaded.interactions, min_item_count=2).matrix.row_counts.max())
        flags = [str(longest + 1) if f == "LONGEST+1" else f for f in flags]
        out = tmp_path / "data"
        child = run_capped(["prepare", "--interactions", raw, "--min-item-count", "2",
                            "--out", str(out)] + flags)
        if setting is None:
            assert child.returncode == 0, child.stderr
            assert (out / "fold2_test.tsv").stat().st_size > 0
        else:
            assert child.returncode == 2, child.stderr
            assert setting in child.stderr
            assert not out.exists()

    def test_guard_is_3(self, tmp_path):
        code = cli.main(["bench", "sampler",
                         "--synth", "n=600,m=600,d=4,groups=2,seed=0",
                         "--draws", "100"])
        assert code == 3

    def test_bad_synth_spec_is_2(self):
        # each spec runs in its own capped child process
        for spec, name in [("n=??", "n=??"), ("volume=3", "volume"),
                           ("groups=0", "groups"), ("n=0", "n must"),
                           ("d=0", "d must"), ("m=-2", "m must"),
                           ("test_fraction=2", "test_fraction"),
                           ("exposure_in=3", "exposure_in"),
                           ("accidental=nan", "accidental"),
                           # in range, but no user keeps a positive
                           ("n=20,m=30,exposure_in=0,exposure_out=0,accidental=0",
                            "draws no positive pair")]:
            child = run_capped(["bench", "sampler", "--synth", spec])
            assert child.returncode == 2, (spec, child.stderr)
            assert name in child.stderr and "internal error" not in child.stderr, spec

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_diverged_run_is_3_and_saves_nothing(self, tmp_path, capsys):
        # the evaluated good epochs' log lines go too: metrics.jsonl is left
        # absent where it was absent and with its old bytes where it was not
        data = run_prepare(tmp_path)
        for logged, eval_flags in [(False, []), (False, ["--eval-every", "1"]),
                                   (True, ["--eval-every", "1"])]:
            model = tmp_path / f"model_{logged}_{len(eval_flags)}"
            assert cli.main(["train", "--data", data, "--out", str(model)]
                            + FAST_TRAIN + (eval_flags if logged else [])) == 0
            before = {p.name: p.read_bytes() for p in model.iterdir()}
            assert ("metrics.jsonl" in before) == logged
            capsys.readouterr()
            code = cli.main(["train", "--data", data, "--out", str(model),
                             "--lr-theta", "1e3", "--lr-phi", "1e3",
                             "--epochs", "40", "--d", "8", "--k", "4"] + eval_flags)
            assert code == 3
            err = capsys.readouterr().err
            assert "diverged in epoch" in err and "not finite" in err
            assert {p.name: p.read_bytes() for p in model.iterdir()} == before

    def test_evaluate_non_finite_factors_is_2(self, tmp_path, capsys):
        data = run_prepare(tmp_path)
        model = str(tmp_path / "model")
        assert cli.main(["train", "--data", data, "--out", model]
                        + FAST_TRAIN) == 0
        with open(os.path.join(data, "manifest.json")) as fh:
            manifest = json.load(fh)
        path = os.path.join(model, "factors.bin")
        factors = load_factors(
            path, manifest["n"], manifest["m"],
            trainer.read_state_json(model)[1].model.d)
        factors.Q[-1, -1] = np.inf
        save_factors(path, factors)
        capsys.readouterr()
        assert cli.main(["evaluate", "--data", data, "--model", model]) == 2
        err = capsys.readouterr().err
        assert path in err and "non-finite" in err


class TestPrepare:
    def test_outputs_and_manifest(self, tmp_path):
        data = run_prepare(tmp_path)
        names = set(os.listdir(data))
        assert {"interactions_train.tsv", "interactions_test.tsv",
                "social.tsv", "idmap_users.tsv", "idmap_items.tsv",
                "manifest.json"} <= names
        manifest = json.loads(open(os.path.join(data, "manifest.json")).read())
        assert manifest["n"] > 0 and manifest["m"] > 0
        assert manifest["train_nnz"] + manifest["test_nnz"] == manifest["nnz"]

    def test_reruns_are_byte_identical(self, tmp_path):
        d1 = run_prepare(tmp_path, out_name="d1")
        d2 = run_prepare(tmp_path, out_name="d2")
        for name in os.listdir(d1):
            b1 = open(os.path.join(d1, name), "rb").read()
            b2 = open(os.path.join(d2, name), "rb").read()
            assert b1 == b2, name

    def test_side_files_exact_bytes(self, tmp_path):
        # dan's only item is filtered out, so dan and the bob-dan edge go;
        # the self-edge and the repeat go, and cat keeps a self-loop
        raw, soc = tmp_path / "raw.tsv", tmp_path / "soc.tsv"
        raw.write_text("bob\tx\namy\ty\nbob\ty\ncat\tx\ndan\tz\ncat\ty\n")
        soc.write_text("amy\tbob\nbob\tdan\ncat\tcat\namy\tbob\n")
        out = tmp_path / "data"
        assert cli.main(["prepare", "--interactions", str(raw), "--social", str(soc),
                         "--symmetrize", "--min-item-count", "2",
                         "--out", str(out)]) == 0
        assert (out / "social.tsv").read_bytes() == b"0\t1\n1\t0\n2\t2\n"
        assert (out / "idmap_users.tsv").read_bytes() == b"0\tbob\n1\tamy\n2\tcat\n"
        assert (out / "idmap_items.tsv").read_bytes() == b"0\tx\n1\ty\n"

    def test_idmaps_reference_raw_tokens(self, tmp_path):
        data = run_prepare(tmp_path)
        lines = open(os.path.join(data, "idmap_users.tsv")).read().splitlines()
        new_id, raw = lines[0].split("\t")
        assert new_id == "0" and raw.startswith("u")

    def test_pair_files_take_the_one_pass_reader(self, tmp_path, monkeypatch,
                                                 tiny_matrix):
        data = run_prepare(tmp_path)
        raw, _ = write_raw_dataset(tmp_path, seed=3)
        folds = str(tmp_path / "folds")
        assert cli.main(["prepare", "--interactions", raw, "--folds", "3",
                         "--min-item-count", "2", "--out", folds]) == 0
        bench = tmp_path / "bench"  # perfbench writes every file this way
        bench.mkdir()
        for name, mat in [("train.tsv", tiny_matrix),
                          ("social.tsv", corpus.matrix_from_pairs(
                              3, 3, [0, 1, 1, 2], [1, 0, 2, 1]))]:
            corpus.write_pairs(str(bench / name), mat)

        def line_reader(path, blob):
            raise AssertionError(f"{path} was read line by line")
        monkeypatch.setattr(corpus, "_pairs_by_line", line_reader)
        names = [os.path.join(d, f) for d in (data, folds, str(bench))
                 for f in os.listdir(d)
                 if f.endswith(".tsv") and not f.startswith("idmap")]
        assert len(names) == 13
        for name in names:
            assert corpus.read_pairs(name).nnz > 0

    def test_golden_outputs(self, tmp_path):
        # every output file's SHA-256 is pinned: no byte of prepare's output
        # may change while its readers and writers are reworked
        for ext, delim in (("tsv", "\t"), ("csv", ",")):
            (tmp_path / f"raw.{ext}").write_bytes(golden_raw(delim).encode())
            (tmp_path / f"social.{ext}").write_bytes(golden_social(delim).encode())
        runs = {"tsv": ["--symmetrize", "--min-item-count", "3",
                        "--max-item-count", "7", "--test-fraction", "0.25",
                        "--seed", "5"],
                "csv": ["--format", "csv", "--folds", "3",
                        "--min-item-count", "2", "--seed", "1"]}
        got = {}
        for ext, flags in runs.items():
            out = tmp_path / ext
            assert cli.main(["prepare", "--interactions", str(tmp_path / f"raw.{ext}"),
                             "--social", str(tmp_path / f"social.{ext}"),
                             "--out", str(out)] + flags) == 0
            for path in out.iterdir():
                got[f"{ext}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == GOLDEN_SHA256

    def test_folds_mode(self, tmp_path):
        raw, _ = write_raw_dataset(tmp_path, seed=3)
        out = str(tmp_path / "folds")
        code = cli.main(["prepare", "--interactions", raw, "--folds", "3",
                         "--min-item-count", "2", "--test-fraction", "0.2",
                         "--out", out])
        assert code == 0
        names = set(os.listdir(out))
        assert {"fold0_train.tsv", "fold2_test.tsv"} <= names


class TestTrainEvaluate:
    def test_round_trip(self, tmp_path):
        data = run_prepare(tmp_path)
        model = str(tmp_path / "model")
        assert cli.main(["train", "--data", data, "--out", model]
                        + FAST_TRAIN) == 0
        assert {"factors.bin", "graph.bin", "state.json"} <= set(os.listdir(model))
        out_csv = str(tmp_path / "report.csv")
        assert cli.main(["evaluate", "--data", data, "--model", model,
                         "--ks", "3,5", "--out", out_csv]) == 0
        lines = open(out_csv).read().splitlines()
        assert lines[0] == "metric,K,value"
        metrics = {tuple(line.split(",")[:2]) for line in lines[1:]}
        assert ("recall", "3") in metrics and ("ndcg", "") in metrics

    def test_evaluate_json(self, tmp_path, capsys):
        data = run_prepare(tmp_path)
        model = str(tmp_path / "model")
        cli.main(["train", "--data", data, "--out", model] + FAST_TRAIN)
        capsys.readouterr()
        assert cli.main(["evaluate", "--data", data, "--model", model,
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "ndcg" in payload and "recall@5" in payload

    def test_evaluate_report_bytes(self, tmp_path, capsys, monkeypatch):
        data = run_prepare(tmp_path)
        model = str(tmp_path / "model")
        assert cli.main(["train", "--data", data, "--out", model] + FAST_TRAIN) == 0
        report = metrics.EvalReport(ks=(3, 5), recall={3: 2 / 3, 5: 0.75},
                                    precision={3: 0.25, 5: 0.2}, ndcg=0.5,
                                    mrr=0.125, users=7)
        monkeypatch.setattr(metrics, "evaluate", lambda *args, **kw: report)
        argv = ["evaluate", "--data", data, "--model", model, "--ks", "3,5"]
        want = ("metric,K,value\nrecall,3,0.666667\nrecall,5,0.750000\n"
                "precision,3,0.250000\nprecision,5,0.200000\nndcg,,0.500000\n"
                "mrr,,0.125000\nusers,,7.000000\n")
        want_json = ('{"mrr": 0.125, "ndcg": 0.5, "precision@3": 0.25, '
                     '"precision@5": 0.2, "recall@3": 0.6666666666666666, '
                     '"recall@5": 0.75, "users": 7.0}\n')
        capsys.readouterr()
        for flags, text in (([], want), (["--json"], want_json)):
            out = tmp_path / "report.out"
            assert cli.main(argv + flags + ["--out", str(out)]) == 0
            assert out.read_bytes() == text.encode()
            assert cli.main(argv + flags) == 0
            assert capsys.readouterr().out == text

    def test_config_file_with_flag_override(self, tmp_path):
        data = run_prepare(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "d": 4, "k": 4, "alpha": 10,
                                   "beta": 5.0, "t_m": 2, "n_si": 10}))
        model = str(tmp_path / "model")
        assert cli.main(["train", "--data", data, "--config", str(cfg),
                         "--epochs", "3", "--out", model]) == 0
        state = json.loads(open(os.path.join(model, "state.json")).read())
        assert state["epoch"] == 3  # flag wins over config file

    def test_unknown_config_key_is_2(self, tmp_path):
        data = run_prepare(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "purple": True}))
        assert cli.main(["train", "--data", data, "--config", str(cfg),
                         "--out", str(tmp_path / "m")]) == 2

    def test_malformed_config_is_2(self, tmp_path):
        data = run_prepare(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        assert cli.main(["train", "--data", data, "--config", str(cfg),
                         "--out", str(tmp_path / "m")]) == 2

    def test_resume_extends_epochs(self, tmp_path):
        data = run_prepare(tmp_path)
        model = str(tmp_path / "model")
        assert cli.main(["train", "--data", data, "--out", model]
                        + FAST_TRAIN) == 0
        assert cli.main(["train", "--data", data, "--out", model, "--resume"]
                        + FAST_TRAIN) == 0
        state = json.loads(open(os.path.join(model, "state.json")).read())
        assert state["epoch"] == 4

    def test_resume_with_conflicting_settings_is_2(self, tmp_path, capsys):
        data = run_prepare(tmp_path)
        model = str(tmp_path / "model")
        first = ["--epochs", "2", "--d", "8", "--k", "4", "--seed", "0",
                 "--alpha", "10", "--n-si", "10"]
        assert cli.main(["train", "--data", data, "--out", model] + first) == 0
        state_path = os.path.join(model, "state.json")
        before = open(state_path).read()
        for flag, value, name in (("--d", "16", "d"), ("--k", "8", "K"),
                                  ("--seed", "5", "seed")):
            args = list(first)
            args[args.index(flag) + 1] = value
            capsys.readouterr()
            assert cli.main(["train", "--data", data, "--out", model,
                             "--resume"] + args) == 2
            assert f"checkpoint {name} " in capsys.readouterr().err
        assert open(state_path).read() == before

    # One changed value per compared setting, each valid on its own.
    RESUME_CHANGES = {
        "mode": "exmf_dense", "d": "5", "k": "3", "alpha": "11", "beta": "6",
        "c": "0.5", "t_m": "3", "eta": "0.4", "epsilon": "0.01",
        "lr_theta": "0.5", "lr_phi": "0.02", "l2_theta": "0.001",
        "n_si": "11", "theta_steps": "2", "seed": "5", "ablation": "no_item",
    }

    def test_resume_changes_cover_compared_settings(self):
        assert (set(self.RESUME_CHANGES)
                == set(trainer.FLAT_FIELDS) - set(trainer.RESUME_FREE))

    @pytest.mark.parametrize("key", sorted(RESUME_CHANGES))
    def test_resume_with_any_changed_setting_is_2(self, tmp_path, capsys, key):
        data = run_prepare(tmp_path)
        model = str(tmp_path / "model")
        assert cli.main(["train", "--data", data, "--out", model]
                        + FAST_TRAIN) == 0
        before = open(os.path.join(model, "state.json")).read()
        flag = "--" + key.replace("_", "-")
        capsys.readouterr()
        assert cli.main(["train", "--data", data, "--out", model, "--resume"]
                        + FAST_TRAIN + [flag, self.RESUME_CHANGES[key]]) == 2
        name = trainer.FLAT_FIELDS[key][1]
        assert f"checkpoint {name} " in capsys.readouterr().err
        assert open(os.path.join(model, "state.json")).read() == before

    def test_resume_may_change_epochs_and_evaluation(self, tmp_path):
        data = run_prepare(tmp_path)
        model = str(tmp_path / "model")
        assert cli.main(["train", "--data", data, "--out", model]
                        + FAST_TRAIN) == 0
        assert cli.main(["train", "--data", data, "--out", model, "--resume",
                         "--epochs", "1", "--eval-every", "1", "--ks", "3"]
                        + FAST_TRAIN[2:]) == 0
        state = json.loads(open(os.path.join(model, "state.json")).read())
        assert state["epoch"] == 3
        assert state["config"]["ks"] == "3"

    @pytest.mark.parametrize("mode", trainer.MODES)
    def test_resume_on_other_data_is_2(self, tmp_path, capsys, mode):
        data = run_prepare(tmp_path)
        model = str(tmp_path / "model")
        argv = ["train", "--data", data, "--out", model, "--mode", mode]
        assert cli.main(argv + FAST_TRAIN) == 0
        path = os.path.join(data, "interactions_train.tsv")
        lines = open(path).read().splitlines(keepends=True)
        with open(path, "w") as fh:  # same n and m, one positive fewer
            fh.writelines(lines[:-1])
        capsys.readouterr()
        assert cli.main(argv + ["--resume"] + FAST_TRAIN) == 2
        assert "other data" in capsys.readouterr().err

    def test_dense_resume_on_other_shape_is_2(self, tmp_path, capsys):
        data = run_prepare(tmp_path)
        (tmp_path / "o").mkdir()
        raw, _ = write_raw_dataset(tmp_path / "o", n_users=17, n_items=23,
                                   seed=99)
        other = str(tmp_path / "other")
        assert cli.main(["prepare", "--interactions", raw,
                         "--test-fraction", "0.2", "--min-item-count", "2",
                         "--out", other]) == 0
        model = str(tmp_path / "model")
        dense = ["--mode", "exmf_dense"] + FAST_TRAIN
        assert cli.main(["train", "--data", data, "--out", model] + dense) == 0
        capsys.readouterr()
        assert cli.main(["train", "--data", other, "--out", model, "--resume"]
                        + dense) == 2
        err = capsys.readouterr().err
        assert "other data" in err and "internal error" not in err

    def test_evaluate_on_other_data_is_2(self, tmp_path, capsys):
        data = run_prepare(tmp_path)
        model = str(tmp_path / "model")
        assert cli.main(["train", "--data", data, "--out", model]
                        + FAST_TRAIN) == 0
        path = os.path.join(data, "interactions_train.tsv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])
        capsys.readouterr()
        assert cli.main(["evaluate", "--data", data, "--model", model]) == 2
        err = capsys.readouterr().err
        assert "other data" in err and "internal error" not in err

    def test_model_data_mismatch_is_2(self, tmp_path):
        data = run_prepare(tmp_path, seed=0)
        (tmp_path / "o").mkdir(exist_ok=True)
        raw, _ = write_raw_dataset(tmp_path / "o", n_users=17, n_items=23,
                                   seed=99)
        other = str(tmp_path / "other")
        assert cli.main(["prepare", "--interactions", raw,
                         "--test-fraction", "0.2", "--min-item-count", "2",
                         "--out", other]) == 0
        model = str(tmp_path / "model")
        cli.main(["train", "--data", data, "--out", model] + FAST_TRAIN)
        assert cli.main(["evaluate", "--data", other, "--model", model]) == 2


class TestBench:
    def test_sampler_csv(self, tmp_path, capsys):
        code = cli.main(["bench", "sampler",
                         "--synth", "n=20,m=30,d=4,groups=2,seed=1",
                         "--draws", "20000", "--k", "4",
                         "--beta", "4", "--c", "0.5", "--t-m", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("sampler,cells,statistic")
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"walk", "allunion", "balunion", "itempop", "cobias"}

    def test_variance_csv(self, tmp_path):
        out = str(tmp_path / "var.csv")
        code = cli.main(["bench", "variance",
                         "--synth", "n=20,m=30,d=4,groups=2,seed=1",
                         "--epochs", "2", "--d", "4", "--k", "4",
                         "--alpha", "10", "--beta", "5", "--t-m", "2",
                         "--repeats", "10", "--coords", "8", "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "sampler,variance,mean_abs_bias"
        assert len(lines) == 6

    def test_tm_sweep(self, tmp_path):
        out = str(tmp_path / "tm.csv")
        code = cli.main(["bench", "tm-sweep",
                         "--synth", "n=25,m=35,d=4,groups=2,seed=2",
                         "--tm-values", "1,2", "--epochs", "2", "--d", "4",
                         "--k", "4", "--alpha", "10", "--beta", "5",
                         "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "t_m,metric,value"
        depths = {line.split(",")[0] for line in lines[1:]}
        assert depths == {"1", "2"}

    def test_sampler_walks_the_graph_train_starts_from(self, monkeypatch, capsys):
        seen = []
        init_state = trainer.init_state

        def spy(train, config, social=None):
            seen.append(config)
            return init_state(train, config, social)

        monkeypatch.setattr(trainer, "init_state", spy)
        assert cli.main(["bench", "sampler", "--synth", "n=20,m=30,d=4,groups=2,seed=1",
                         "--draws", "2000", "--k", "4", "--seed", "5"]) == 0
        assert [(c.K, c.seed, c.mode) for c in seen] == [(4, 5, "samwalker_pp")]

    def test_ablation(self, tmp_path):
        out = str(tmp_path / "ab.csv")
        code = cli.main(["bench", "ablation",
                         "--synth", "n=25,m=35,d=4,groups=2,seed=3",
                         "--epochs", "2", "--d", "4", "--k", "4",
                         "--alpha", "10", "--beta", "5", "--t-m", "2",
                         "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        variants = {line.split(",")[0] for line in lines[1:]}
        assert variants == {"full", "no_item", "no_community"}


class TestCliDeterminism:
    def test_two_runs_byte_identical_checkpoints(self, tmp_path):
        data = run_prepare(tmp_path)
        m1, m2 = str(tmp_path / "m1"), str(tmp_path / "m2")
        argv = ["train", "--data", data, "--deterministic", "--seed", "1"]
        assert cli.main(argv + ["--out", m1] + FAST_TRAIN) == 0
        assert cli.main(argv + ["--out", m2] + FAST_TRAIN) == 0
        for name in ("factors.bin", "graph.bin"):
            b1 = open(os.path.join(m1, name), "rb").read()
            b2 = open(os.path.join(m2, name), "rb").read()
            assert b1 == b2, name


class TestFlatSchema:
    NON_SETTINGS = {"command", "func", "data", "out", "config", "resume",
                    "deterministic"}

    def test_train_flags_are_the_schema_keys(self):
        args = cli.build_parser().parse_args(["train", "--data", "d",
                                              "--out", "o"])
        assert set(vars(args)) - self.NON_SETTINGS == set(trainer.FLAT_FIELDS)

    @pytest.mark.parametrize("argv", [
        ["--mode", "samwalker", "--alpha", "7", "--c", "0.3", "--ks", "4,2"],
        ["--mode", "samwalker_pp", "--ablation", "no_item", "--k", "6",
         "--seed", "9", "--lr-phi", "0.2", "--eval-every", "3"],
        ["--mode", "exmf_dense", "--d", "3", "--eta", "0.25",
         "--l2-theta", "0"],
    ])
    def test_to_flat_round_trips(self, argv):
        args = cli.build_parser().parse_args(["train", "--data", "d",
                                              "--out", "o"] + argv)
        config = trainer.TrainConfig.from_flat(cli._merge_train_settings(args))
        assert config.sampler.seed == config.seed
        flat = json.loads(json.dumps(config.to_flat()))
        assert set(flat) == set(trainer.FLAT_FIELDS)
        assert trainer.TrainConfig.from_flat(flat) == config

    @pytest.mark.parametrize("kind", ["sampler", "variance", "tm-sweep", "ablation"])
    def test_bench_flags_are_schema_keys_and_its_own(self, kind):
        args = cli.build_parser().parse_args(["bench", kind])
        own = {"command", "func", "bench_kind", "data", "synth", "out",
               "draws", "repeats", "coords", "tm_values"}
        settings = set(vars(args)) - own
        assert settings == set(cli.BENCH_SETTINGS)
        assert settings <= set(trainer.FLAT_FIELDS)
        assert {key: getattr(args, key) for key in settings
                if getattr(args, key) is not None} == cli.BENCH_DEFAULTS

    def test_missing_keys_take_dataclass_defaults(self):
        assert trainer.TrainConfig.from_flat({}) == trainer.TrainConfig()
