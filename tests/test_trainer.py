"""Training loop behavior: updates, determinism, resume, and modes."""

import logging
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from walkrec import synth, trainer
from walkrec.corpus import matrix_from_pairs
from walkrec.errors import ConfigError
from walkrec.exposure import g_term
from walkrec.factors import (TAU, ModelConfig, PreferenceFactors, bern_ll,
                             predict_pairs, sigmoid)
from walkrec.graphnet import _RowSampler, build_social_graph, logit_arrays
from walkrec.walker import SampleBatch, SamplerConfig, WalkEngine

from tests.conftest import random_factors, random_matrix, random_social


def quick_config(mode="samwalker_pp", **kwargs):
    defaults = dict(mode=mode, epochs=3, K=3, n_si=12, seed=0,
                    model=ModelConfig(d=4),
                    sampler=SamplerConfig(alpha=8, beta=4.0, c=0.7, t_m=2,
                                          seed=0))
    defaults.update(kwargs)
    return trainer.TrainConfig(**defaults)


class TestTrainConfig:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            quick_config(mode="gradient_descent_into_madness")

    def test_ablation_needs_pseudo_mode(self):
        with pytest.raises(ConfigError):
            quick_config(mode="samwalker", ablation="no_item")
        quick_config(mode="samwalker_pp", ablation="no_item")

    def test_positivity(self):
        quick_config(epochs=0)  # zero-epoch fit is allowed (init only)
        with pytest.raises(ConfigError):
            quick_config(epochs=-1)
        with pytest.raises(ConfigError):
            quick_config(K=0)
        with pytest.raises(ConfigError):
            quick_config(eval_ks=())

    def test_repeated_eval_cutoff(self):
        with pytest.raises(ConfigError, match="repeats"):
            quick_config(eval_ks=(5, 10, 5))

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            quick_config(seed=-1)
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            SamplerConfig(seed=-1)


class TestThetaUpdate:
    def test_single_pair_hand_step(self):
        f = PreferenceFactors(P=np.array([[0.5, -0.2]]),
                              Q=np.array([[0.3, 0.4]]))
        P0, Q0 = f.P.copy(), f.Q.copy()
        batch = SampleBatch(users=np.array([0]), items=np.array([0]),
                            labels=np.array([1.0]), expected_scale=1.0)
        trainer.update_theta_from_batch(f, batch, lr=1.0, l2=0.0)
        r = 1.0 - sigmoid(float(P0[0] @ Q0[0]))
        np.testing.assert_allclose(f.P, P0 + r * Q0, rtol=1e-12)
        np.testing.assert_allclose(f.Q, Q0 + r * P0, rtol=1e-12)

    def test_returns_pre_step_batch_log_likelihood(self):
        f = PreferenceFactors(P=np.array([[0.5, -0.2], [0.1, 0.3]]),
                              Q=np.array([[0.3, 0.4]]))
        P0, Q0 = f.P.copy(), f.Q.copy()
        batch = SampleBatch(users=np.array([0, 1]), items=np.array([0, 0]),
                            labels=np.array([1, 0]), expected_scale=1.0)
        ll = trainer.update_theta_from_batch(f, batch, lr=1.0, l2=0.1)
        s0 = sigmoid(float(P0[0] @ Q0[0]))
        s1 = sigmoid(float(P0[1] @ Q0[0]))
        assert ll == pytest.approx(np.log(s0) + np.log(1.0 - s1), rel=1e-12)
        empty = SampleBatch(users=np.zeros(0, np.int64),
                            items=np.zeros(0, np.int64),
                            labels=np.zeros(0, np.int8), expected_scale=1.0)
        assert trainer.update_theta_from_batch(f, empty, lr=1.0) == 0.0

    @pytest.mark.parametrize("label_dtype", [np.uint8, np.int64, np.float64])
    def test_batch_log_likelihood_equals_bern_ll_sum(self, label_dtype):
        # logits of either sign past 16 also put predictions on both clamps
        f = random_factors(30, 40, 4, seed=11, scale=2.0)
        rng = np.random.default_rng(12)
        users = np.sort(rng.integers(0, 30, size=5000))
        items = rng.integers(0, 40, size=5000)
        labels = (rng.random(5000) < 0.4).astype(label_dtype)
        sig = predict_pairs(f, users, items)
        want = float(np.sum(bern_ll(labels.astype(np.float64), sig)))
        batch = SampleBatch(users=users, items=items, labels=labels,
                            expected_scale=1.0)
        got = trainer.update_theta_from_batch(f, batch, lr=0.1, l2=0.01)
        assert got == want
        assert (sig == TAU).any() and (sig == 1.0 - TAU).any()

    def test_duplicates_accumulate_at_fixed_point(self):
        f = random_factors(3, 4, 2, seed=0)
        users = np.array([1, 1, 2])
        items = np.array([0, 0, 3])
        labels = np.array([1.0, 1.0, 0.0])
        batch = SampleBatch(users=users, items=items, labels=labels,
                            expected_scale=1.0)
        P0, Q0 = f.P.copy(), f.Q.copy()
        trainer.update_theta_from_batch(f, batch, lr=0.1, l2=0.05)
        eP, eQ = np.zeros_like(P0), np.zeros_like(Q0)
        for u, i, x in zip(users, items, labels):
            r = x - sigmoid(float(P0[u] @ Q0[i]))
            eP[u] += r * Q0[i] - 0.05 * P0[u]
            eQ[i] += r * P0[u] - 0.05 * Q0[i]
        np.testing.assert_allclose(f.P, P0 + 0.1 * eP, rtol=1e-12)
        np.testing.assert_allclose(f.Q, Q0 + 0.1 * eQ, rtol=1e-12)

    def test_peak_memory_per_pair(self):
        # about 190k walk pairs: the predictions, the residuals and one
        # 32-bit index copy, 21 bytes a pair; with a float copy of the
        # labels, batch-sized sigmoid temporaries and a COO build, 41
        train = random_matrix(400, 600, 0.04, seed=61)
        social = build_social_graph(random_social(400, 8, seed=62))
        engine = WalkEngine(social, train, SamplerConfig(alpha=400, beta=20.0))
        batch = engine.sample_batch(np.random.default_rng(63))
        assert 150_000 < batch.size < 250_000
        f = random_factors(400, 600, 32, seed=64)
        trainer.update_theta_from_batch(f, batch, lr=0.01)  # warm up
        tracemalloc.start()
        try:
            trainer.update_theta_from_batch(f, batch, lr=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * batch.size

    def test_empty_batch_warns_and_skips(self, caplog):
        f = random_factors(2, 2, 2, seed=1)
        P0 = f.P.copy()
        empty = SampleBatch(users=np.array([], dtype=np.int64),
                            items=np.array([], dtype=np.int64),
                            labels=np.array([]), expected_scale=1.0)
        with caplog.at_level(logging.WARNING, logger="walkrec.trainer"):
            trainer.update_theta_from_batch(f, empty, lr=0.1)
        assert "empty" in caplog.text
        np.testing.assert_array_equal(f.P, P0)


class TestGammaStar:
    def test_matches_grid_search(self):
        grid = np.linspace(1e-4, 1 - 1e-4, 20_001)
        for x in (0.0, 1.0):
            for sig in (0.1, 0.4, 0.9):
                star = float(trainer.exmf_gamma_star(x, sig, 0.5, 0.001))
                values = grid * bern_ll(x, sig) + g_term(grid, x, 0.5, 0.001)
                best = grid[np.argmax(values)]
                assert abs(star - best) < 2e-4

    def test_observed_pairs_get_high_confidence(self):
        star = float(trainer.exmf_gamma_star(1.0, 0.3, 0.5, 0.001))
        assert star > 0.99  # a click is near-proof of exposure


class TestEpochStreams:
    def test_epoch_rng_is_stable_and_distinct(self):
        a = trainer._epoch_rng(7, 0).random(4)
        b = trainer._epoch_rng(7, 0).random(4)
        c = trainer._epoch_rng(7, 1).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestFitModes:
    def test_samwalker_requires_social(self):
        train = random_matrix(8, 10, 0.3, seed=2)
        with pytest.raises(ConfigError):
            trainer.fit(train, quick_config(mode="samwalker"))

    def test_pseudo_runs_and_records_history(self):
        train = random_matrix(10, 14, 0.3, seed=3)
        state = trainer.fit(train, quick_config(epochs=4))
        assert state.epoch == 4
        assert len(state.history) == 4
        rec = state.history[0]
        assert {"epoch", "phi_objective", "batch_size",
                "transition_steps"} <= set(rec)

    def test_social_runs(self):
        train = random_matrix(9, 12, 0.3, seed=4)
        social = random_social(9, 3, seed=4)
        state = trainer.fit(train, quick_config(mode="samwalker"),
                            social=social)
        assert state.epoch == 3

    def test_dense_mode_objective_climbs(self):
        train = random_matrix(12, 15, 0.25, seed=5)
        config = quick_config(mode="exmf_dense", epochs=12)
        state = trainer.fit(train, config)
        objectives = [rec["objective"] for rec in state.history]
        assert objectives[-1] > objectives[0]

    def test_dense_mode_guard(self):
        big = matrix_from_pairs(20_000, 600, np.array([0]), np.array([0]))
        from walkrec.errors import GuardError
        with pytest.raises(GuardError):
            trainer.fit(big, quick_config(mode="exmf_dense"))

    def test_epoch_record_sums_every_batch(self):
        # transition_steps, like batch_size, counts all theta_steps batches
        train = random_matrix(20, 30, 0.2, seed=6)
        config = quick_config(theta_steps=3, epochs=1)
        state = trainer.init_state(train, config)
        engine = WalkEngine(state.graph, train, config.sampler)
        rng = trainer._epoch_rng(config.seed, 0)
        steps, sizes = [], []
        for _ in range(3):
            sizes.append(engine.sample_batch(rng).size)
            steps.append(engine.last_transition_steps)
        assert len(set(steps)) > 1
        record = trainer.fit(train, config).history[0]
        assert record["batch_size"] == sum(sizes)
        assert record["transition_steps"] == sum(steps)

    def test_ablations_freeze_the_gate(self):
        train = random_matrix(10, 12, 0.3, seed=6)
        for ablation, want in (("no_item", 0.0), ("no_community", 1.0)):
            config = quick_config(ablation=ablation, epochs=2)
            state = trainer.fit(train, config)
            from walkrec.graphnet import normalize_edges
            a = normalize_edges(state.graph).a
            users = np.flatnonzero(train.row_counts > 0)
            np.testing.assert_allclose(a[users], want, atol=1e-9)


GRAPH_CASES = [("samwalker", "none"), ("samwalker_pp", "none"),
               ("samwalker_pp", "no_item")]


class TestGraphStep:
    @staticmethod
    def setup_state(mode, ablation):
        train = random_matrix(10, 14, 0.3, seed=7)
        social = random_social(10, 3, seed=7)
        config = quick_config(mode=mode, ablation=ablation, epochs=1)
        return train, social, config, trainer.init_state(train, config, social)

    @pytest.mark.parametrize("mode,ablation", GRAPH_CASES)
    def test_fold_and_params_give_equal_logits(self, mode, ablation):
        from walkrec.graphnet import normalize_edges
        train, _, config, a = self.setup_state(mode, ablation)
        _, _, _, b = self.setup_state(mode, ablation)
        items = np.arange(train.m)
        va = trainer.update_phi_step(a.graph, a.factors, train, items,
                                     config.model, config.sampler)
        vb = trainer.update_phi_step(normalize_edges(b.graph), b.factors, train,
                                     items, config.model, config.sampler)
        assert va == vb
        for name, arr in vars(a.graph).items():
            if isinstance(arr, np.ndarray):
                assert arr.tobytes() == getattr(b.graph, name).tobytes(), name

    @pytest.mark.parametrize("mode", ["samwalker", "samwalker_pp"])
    def test_one_epoch_folds_once(self, monkeypatch, mode):
        import sys
        from walkrec import graphnet
        real = graphnet.normalize_edges
        folds = []

        def counting(graph):
            fold = real(graph)
            if fold is not graph:
                folds.append(fold)
            return fold

        for name, module in list(sys.modules.items()):
            if (name.startswith("walkrec")
                    and getattr(module, "normalize_edges", None) is real):
                monkeypatch.setattr(module, "normalize_edges", counting)
        train, social, config, _ = self.setup_state(mode, "none")
        trainer.fit(train, config, social=social)
        assert len(folds) == 1


class TestWalkSamplerLifetime:
    @pytest.mark.parametrize("theta_steps", [1, 2])
    @pytest.mark.parametrize("mode,per_epoch", [("samwalker", 1),
                                                ("samwalker_pp", 4)])
    def test_no_row_sampler_outlives_the_walk(self, monkeypatch, mode,
                                              per_epoch, theta_steps):
        # An epoch's walk builds its fold's row samplers once and frees them
        # with its last batch, so none is alive in the graph step.
        built = []
        real_init = _RowSampler.__init__

        def recording(self, *args):
            real_init(self, *args)
            built.append(weakref.ref(self))

        real_step = trainer.update_phi_step
        built_by_step = []

        def checked(*args, **kwargs):
            built_by_step.append(len(built))
            assert all(ref() is None for ref in built)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(_RowSampler, "__init__", recording)
        monkeypatch.setattr(trainer, "update_phi_step", checked)
        train = random_matrix(10, 14, 0.3, seed=7)
        config = quick_config(mode=mode, epochs=2, theta_steps=theta_steps)
        trainer.fit(train, config, social=random_social(10, 3, seed=7))
        assert built_by_step == [per_epoch, 2 * per_epoch]


class TestDeterminismAndResume:
    def test_same_seed_bitwise_equal(self):
        train = random_matrix(10, 13, 0.3, seed=7)
        a = trainer.fit(train, quick_config(epochs=4, seed=3))
        b = trainer.fit(train, quick_config(epochs=4, seed=3))
        assert np.array_equal(a.factors.P, b.factors.P)
        assert np.array_equal(a.factors.Q, b.factors.Q)
        assert np.array_equal(a.graph.ui_logits, b.graph.ui_logits)
        c = trainer.fit(train, quick_config(epochs=4, seed=4))
        assert not np.array_equal(a.factors.P, c.factors.P)

    def test_resume_replays_uninterrupted_run(self, tmp_path):
        # 3 epochs, saved and read back, then 2 more: the checkpoint files
        # of an uninterrupted 5-epoch run, byte for byte
        train = random_matrix(10, 13, 0.3, seed=8)
        social = random_social(10, 3, seed=8)
        for mode in trainer.MODES:
            straight = str(tmp_path / mode / "straight")
            full = trainer.fit(train, quick_config(mode, epochs=5, seed=1),
                               social=social)
            trainer.save_state(straight, full)
            resumed = str(tmp_path / mode / "resumed")
            trainer.save_state(resumed, trainer.fit(
                train, quick_config(mode, epochs=3, seed=1), social=social))
            config = quick_config(mode, epochs=2, seed=1)
            loaded = trainer.load_state(resumed, train, social=social)
            state = trainer.fit(train, config, social=social, state=loaded)
            trainer.save_state(resumed, state)
            assert state.epoch == 5
            assert state.history == full.history
            names = ["factors.bin"] + (["graph.bin"] if full.graph else [])
            for name in names:
                with open(os.path.join(straight, name), "rb") as fa, \
                        open(os.path.join(resumed, name), "rb") as fb:
                    assert fa.read() == fb.read(), (mode, name)

    @pytest.mark.parametrize("mode", ["samwalker", "samwalker_pp", "exmf_dense"])
    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch, mode):
        # every array is read from the checkpoint, so none is drawn first
        train = random_matrix(8, 10, 0.3, seed=9)
        social = random_social(8, 2, seed=9)
        config = quick_config(mode=mode, epochs=2)
        state = trainer.fit(train, config, social=social)
        trainer.save_state(str(tmp_path), state)

        def no_generator(*args, **kwargs):
            raise AssertionError("load_state made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        back = trainer.load_state(str(tmp_path), train, social=social)
        monkeypatch.undo()
        assert back.factors.P.tobytes() == state.factors.P.tobytes()
        assert back.factors.Q.tobytes() == state.factors.Q.tobytes()
        if state.graph is not None:
            for name, arr in logit_arrays(state.graph).items():
                assert logit_arrays(back.graph)[name].tobytes() == arr.tobytes()

    def test_save_load_round_trip(self, tmp_path):
        train = random_matrix(8, 10, 0.3, seed=9)
        social = random_social(8, 2, seed=9)
        config = quick_config(mode="samwalker", epochs=2)
        state = trainer.fit(train, config, social=social)
        trainer.save_state(str(tmp_path), state)
        back = trainer.load_state(str(tmp_path), train, social=social)
        assert back.epoch == 2
        np.testing.assert_array_equal(back.factors.P, state.factors.P)
        np.testing.assert_array_equal(back.graph.logits, state.graph.logits)

    def test_load_without_config_takes_the_checkpoints(self, tmp_path):
        train = random_matrix(8, 10, 0.3, seed=9)
        config = quick_config(epochs=2, ablation="no_item", eval_every=1)
        state = trainer.fit(train, config)
        trainer.save_state(str(tmp_path), state)
        back = trainer.load_state(str(tmp_path), train)
        assert back.config == config and back.epoch == 2
        assert back.history == state.history
        for name, arr in logit_arrays(state.graph).items():
            np.testing.assert_array_equal(logit_arrays(back.graph)[name], arr)
        other = random_matrix(8, 10, 0.3, seed=10)
        with pytest.raises(ConfigError, match="other data"):
            trainer.load_state(str(tmp_path), other)

    def test_load_rejects_mode_mismatch(self, tmp_path):
        train = random_matrix(8, 10, 0.3, seed=10)
        state = trainer.fit(train, quick_config(epochs=1))
        trainer.save_state(str(tmp_path), state)
        saved = trainer.load_state(str(tmp_path), train).config
        with pytest.raises(ConfigError, match="checkpoint mode "):
            trainer.resume_config(saved, {"mode": "exmf_dense"}, str(tmp_path))

    @pytest.mark.parametrize("mode,change", [
        ("samwalker_pp", dict(seed=5)),
        ("samwalker_pp", dict(K=4)),
        ("samwalker_pp", dict(ablation="no_item")),
        ("samwalker_pp", dict(model=ModelConfig(d=5))),
        ("samwalker", dict(seed=5)),
        ("samwalker", dict(model=ModelConfig(d=5))),
        ("exmf_dense", dict(model=ModelConfig(d=5))),
    ])
    def test_load_rejects_conflicting_settings(self, tmp_path, mode, change):
        train = random_matrix(8, 10, 0.3, seed=10)
        social = random_social(8, 2, seed=10)
        state = trainer.fit(train, quick_config(mode, epochs=1), social=social)
        trainer.save_state(str(tmp_path), state)
        name = "d" if "model" in change else next(iter(change))
        saved = trainer.load_state(str(tmp_path), train, social=social).config
        with pytest.raises(ConfigError, match=f"checkpoint {name} "):
            trainer.resume_config(saved, quick_config(mode, **change).to_flat(),
                                  str(tmp_path))

    def test_load_ignores_k_outside_pseudo_mode(self, tmp_path):
        train = random_matrix(8, 10, 0.3, seed=10)
        social = random_social(8, 2, seed=10)
        state = trainer.fit(train, quick_config("samwalker", epochs=1),
                            social=social)
        trainer.save_state(str(tmp_path), state)
        back = trainer.load_state(str(tmp_path), train, social=social)
        config = trainer.resume_config(
            back.config, quick_config("samwalker", K=9).to_flat(), str(tmp_path))
        assert back.epoch == 1 and config.K == 9


# One valid change per setting that a fit's bytes can show.
SETTING_CHANGES = {"d": 5, "k": 4, "epochs": 3, "alpha": 9, "beta": 6.0,
                   "c": 0.5, "t_m": 3, "eta": 0.4, "epsilon": 0.01,
                   "lr_theta": 0.1, "lr_phi": 0.05, "l2_theta": 0.01,
                   "n_si": 5, "theta_steps": 2, "seed": 1,
                   "ablation": "no_item"}


class TestModeSettings:
    def test_table_lists_schema_keys_in_schema_order(self):
        assert trainer.MODES == tuple(trainer.MODE_SETTINGS)
        schema = list(trainer.FLAT_FIELDS)
        assert set(SETTING_CHANGES) == set(schema) - {"mode", "eval_every", "ks"}
        for keys in trainer.MODE_SETTINGS.values():
            assert list(keys) == [key for key in schema if key in keys]
            assert {"mode", "eval_every", "ks"} <= set(keys)

    @staticmethod
    def fit_bytes(mode, key=None):
        """factors and graph bytes of a 2-epoch fit, key's field changed on
        the built config (past its checks) to SETTING_CHANGES' value."""
        train = random_matrix(10, 13, 0.3, seed=17)
        social = random_social(10, 3, seed=17)
        config = quick_config(mode, epochs=2)
        if key is not None:
            section, name, *_ = trainer.FLAT_FIELDS[key]
            setattr(getattr(config, section) if section else config, name,
                    SETTING_CHANGES[key])
        state = trainer.fit(train, config, social=social)
        arrays = [state.factors.P, state.factors.Q]
        if state.graph is not None:
            arrays += logit_arrays(state.graph).values()
        return b"".join(a.tobytes() for a in arrays)

    @pytest.mark.parametrize("key", sorted(SETTING_CHANGES))
    @pytest.mark.parametrize("mode", trainer.MODES)
    def test_a_setting_moves_the_run_iff_its_mode_reads_it(self, mode, key):
        moved = self.fit_bytes(mode, key) != self.fit_bytes(mode)
        assert moved == (key in trainer.MODE_SETTINGS[mode])


class TestEvalLogging:
    def test_eval_every_writes_json_lines(self, tmp_path):
        inst = synth.planted_instance(n=40, m=60, d=4, groups=2, seed=11)
        log = tmp_path / "metrics.jsonl"
        config = quick_config(epochs=4, eval_every=2, eval_ks=(3,))
        trainer.fit(inst.train, config, test=inst.test, log_path=str(log))
        import json
        lines = [json.loads(s) for s in log.read_text().splitlines()]
        assert lines
        assert all({"epoch", "metric", "value"} <= set(rec) for rec in lines)
        epochs = {rec["epoch"] for rec in lines}
        assert epochs == {2, 4}
        metrics = {rec["metric"] for rec in lines}
        assert "recall@3" in metrics and "ndcg" in metrics


class TestUniformBaseline:
    def test_trains_and_matches_shapes(self):
        train = random_matrix(12, 16, 0.3, seed=12)
        config = quick_config(epochs=3)
        factors = trainer.fit_uniform_baseline(train, config)
        assert factors.P.shape == (12, 4)
        assert factors.Q.shape == (16, 4)

    def test_deterministic(self):
        train = random_matrix(10, 12, 0.3, seed=13)
        a = trainer.fit_uniform_baseline(train, quick_config(epochs=2, seed=5))
        b = trainer.fit_uniform_baseline(train, quick_config(epochs=2, seed=5))
        assert np.array_equal(a.P, b.P)


class TestFitStateConfig:
    def test_fit_refuses_a_state_trained_with_other_settings(self):
        train = random_matrix(10, 13, 0.3, seed=14)
        for change, name in ((dict(seed=5), "seed"),
                             (dict(model=ModelConfig(d=4, lr_theta=0.9)),
                              "lr_theta")):
            state = trainer.init_state(train, quick_config())
            P0 = state.factors.P.copy()
            with pytest.raises(ConfigError, match=f"fit: state {name} "):
                trainer.fit(train, quick_config(**change), state=state)
            assert state.epoch == 0 and state.history == []
            assert np.array_equal(state.factors.P, P0)

    def test_fit_adopts_a_matching_config(self):
        train = random_matrix(10, 13, 0.3, seed=14)
        state = trainer.init_state(train, quick_config(epochs=1))
        config = quick_config(epochs=2, eval_every=3, eval_ks=(4,))
        out = trainer.fit(train, config, state=state)
        assert out.config is config
        assert out.epoch == 2

    @pytest.mark.parametrize("mode", ["samwalker_pp", "exmf_dense"])
    def test_fit_refuses_a_state_trained_on_other_data(self, mode):
        train = random_matrix(10, 13, 0.3, seed=14)
        other = random_matrix(10, 13, 0.3, seed=15)
        state = trainer.init_state(train, quick_config(mode))
        P0 = state.factors.P.copy()
        with pytest.raises(ConfigError, match="fit: state was trained on other data"):
            trainer.fit(other, quick_config(mode), state=state)
        assert state.epoch == 0 and np.array_equal(state.factors.P, P0)

    def test_fit_refuses_social_edges_for_other_users(self):
        train = random_matrix(8, 10, 0.3, seed=2)
        social = random_social(12, 3, seed=4)
        with pytest.raises(ConfigError, match="fit: social has 12 users but "
                                              "train has 8"):
            trainer.fit(train, quick_config(mode="samwalker"), social=social)

    def test_fit_refuses_a_test_split_of_another_shape_before_training(self):
        train = random_matrix(10, 13, 0.3, seed=14)
        test = random_matrix(10, 12, 0.3, seed=16)
        state = trainer.init_state(train, quick_config())
        P0 = state.factors.P.copy()
        with pytest.raises(ConfigError, match="fit: test is 10x12 but train "
                                              "is 10x13"):
            trainer.fit(train, quick_config(eval_every=1), test=test, state=state)
        assert state.epoch == 0 and np.array_equal(state.factors.P, P0)
        # a test split that no evaluation reads is not checked
        assert trainer.fit(train, quick_config(epochs=1), test=test).epoch == 1


# The epoch body written out step by step, as the reference that fit's
# epoch must equal bit for bit.

def serial_epoch(state, train, rng) -> dict:
    from walkrec.graphnet import normalize_edges
    from walkrec.walker import WalkEngine
    cfg = state.config
    fold = normalize_edges(state.graph)
    engine = WalkEngine(fold, train, cfg.sampler)
    batch_size = transition_steps = 0
    theta_ll = 0.0
    for _ in range(cfg.theta_steps):
        batch = engine.sample_batch(rng)
        batch_size += batch.size
        transition_steps += engine.last_transition_steps
        theta_ll += trainer.update_theta_from_batch(state.factors, batch,
                                                    cfg.model.lr_theta,
                                                    cfg.model.l2_theta)
    items = trainer._select_phi_items(train.m, cfg.n_si, rng)
    value = trainer.update_phi_step(fold, state.factors, train, items,
                                    cfg.model, cfg.sampler)
    return {"epoch": state.epoch, "phi_objective": value,
            "batch_size": batch_size, "batch_ll": theta_ll,
            "transition_steps": transition_steps}


def serial_fit(train, config, social):
    state = trainer.init_state(train, config, social)
    for _ in range(config.epochs):
        record = serial_epoch(state, train, trainer._epoch_rng(config.seed,
                                                               state.epoch))
        state.epoch += 1
        state.history.append(record)
    return state


def assert_same_run(got, want):
    assert np.array_equal(got.factors.P, want.factors.P)
    assert np.array_equal(got.factors.Q, want.factors.Q)
    for name, arr in vars(want.graph).items():
        if isinstance(arr, np.ndarray):
            assert np.array_equal(getattr(got.graph, name), arr), name
    assert got.history == want.history


OVERLAP_CASES = [("samwalker", "none"), ("samwalker_pp", "none"),
                 ("samwalker_pp", "no_item"), ("samwalker_pp", "no_community")]


class TestOverlappedEpoch:
    @staticmethod
    def case(mode, ablation, theta_steps):
        train = random_matrix(40, 60, 0.15, seed=15)
        social = random_social(40, 4, seed=15)
        config = quick_config(mode=mode, ablation=ablation,
                              theta_steps=theta_steps, n_si=25, epochs=3)
        return train, config, social

    @pytest.mark.parametrize("theta_steps", [1, 2])
    @pytest.mark.parametrize("mode,ablation", OVERLAP_CASES)
    def test_fit_equals_the_serial_epoch(self, mode, ablation, theta_steps):
        train, config, social = self.case(mode, ablation, theta_steps)
        want = serial_fit(train, config, social)
        assert_same_run(trainer.fit(train, config, social=social), want)
