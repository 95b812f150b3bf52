"""Command-line behavior: exit codes, config merging, artifact round-trips."""

import json
import os

import numpy as np
import pytest

from walkrec import cli


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
        assert "social.tsv:0:" in capsys.readouterr().err

    def test_guard_is_3(self, tmp_path):
        code = cli.main(["bench", "sampler",
                         "--synth", "n=600,m=600,d=4,groups=2,seed=0",
                         "--draws", "100"])
        assert code == 3

    def test_bad_synth_spec_is_2(self):
        code = cli.main(["bench", "sampler", "--synth", "n=??"])
        assert code == 2


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

    def test_idmaps_reference_raw_tokens(self, tmp_path):
        data = run_prepare(tmp_path)
        lines = open(os.path.join(data, "idmap_users.tsv")).read().splitlines()
        new_id, raw = lines[0].split("\t")
        assert new_id == "0" and raw.startswith("u")

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
