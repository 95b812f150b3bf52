"""Planted-community instance generator."""

import numpy as np
import pytest

from walkrec import synth
from walkrec.errors import ConfigError


class TestPlantedInstance:
    def test_shapes_and_split_invariants(self):
        inst = synth.planted_instance(n=80, m=120, d=4, groups=3, seed=0)
        train, test = inst.train, inst.test
        assert train.n == test.n and train.m == test.m
        assert np.all(train.row_counts >= 1)
        # disjoint and user-aligned
        assert np.intersect1d(train._pair_keys, test._pair_keys).size == 0
        assert inst.group_of_user.shape == (train.n,)
        assert inst.pool_of_item.shape == (train.m,)
        assert inst.group_of_user.max() < 3
        assert inst.truth.P.shape[0] == train.n

    def test_deterministic(self):
        a = synth.planted_instance(n=40, m=60, d=4, groups=2, seed=7)
        b = synth.planted_instance(n=40, m=60, d=4, groups=2, seed=7)
        assert np.array_equal(a.train.row_items, b.train.row_items)
        assert np.array_equal(a.test.row_items, b.test.row_items)
        c = synth.planted_instance(n=40, m=60, d=4, groups=2, seed=8)
        assert not np.array_equal(a.train.row_items, c.train.row_items)

    def test_exposure_matrix_respects_groups(self):
        inst = synth.planted_instance(n=60, m=90, d=4, groups=3,
                                      exposure_in=0.5, exposure_out=0.01,
                                      seed=1)
        # in-pool exposure dominates out-of-pool on average
        eta = inst.exposure
        same = eta[inst.group_of_user[:, None] == inst.pool_of_item[None, :]]
        other = eta[inst.group_of_user[:, None] != inst.pool_of_item[None, :]]
        assert same.mean() > 10 * other.mean()

    def test_group_structure_shows_in_interactions(self):
        inst = synth.planted_instance(n=60, m=90, d=4, groups=3,
                                      exposure_in=0.5, exposure_out=0.01,
                                      seed=2)
        dense = inst.train.to_dense() + inst.test.to_dense()
        same_mask = inst.group_of_user[:, None] == inst.pool_of_item[None, :]
        in_rate = dense[same_mask].mean()
        out_rate = dense[~same_mask].mean()
        assert in_rate > 5 * out_rate


class TestParseSpec:
    def test_round_trip(self):
        spec = synth.parse_synth_spec("n=30,m=50,d=4,groups=2,seed=9")
        assert spec == {"n": 30, "m": 50, "d": 4, "groups": 2, "seed": 9}
        inst = synth.planted_instance(**spec)
        assert inst.train.n <= 30

    def test_float_keys(self):
        spec = synth.parse_synth_spec("n=20,m=30,exposure_in=0.4")
        assert spec["exposure_in"] == pytest.approx(0.4)

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown synth spec key 'volume'"):
            synth.parse_synth_spec("n=20,volume=11")

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            synth.parse_synth_spec("n=twenty")
        with pytest.raises(ConfigError):
            synth.parse_synth_spec("n")
