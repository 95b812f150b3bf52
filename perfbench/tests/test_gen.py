"""The sparse generator against walkrec's dense planted_instance."""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "..", "src"), os.path.join(HERE, "..")]

import gen  # noqa: E402
from walkrec import synth  # noqa: E402

SIZE = dict(n=300, m=500, d=8, groups=4)
SEEDS = range(6)


def _dense_stats(seed):
    inst = synth.planted_instance(seed=seed, **SIZE)
    users = np.concatenate([inst.train.row_users, inst.test.row_users])
    items = np.concatenate([inst.train.row_items, inst.test.row_items])
    counts = np.bincount(users, minlength=inst.train.n)
    in_pool = np.mean(inst.group_of_user[users] == inst.pool_of_item[items])
    return counts[counts > 0], in_pool


def _sparse_stats(seed):
    users, items, group_of_user, pool_of_item = gen.planted_positives(seed=seed, **SIZE)
    counts = np.bincount(users, minlength=SIZE["n"])
    in_pool = np.mean(group_of_user[users] == pool_of_item[items])
    return counts[counts > 0], in_pool


def test_matches_planted_instance_per_user_counts_and_pool_share():
    dense = [_dense_stats(s) for s in SEEDS]
    sparse = [_sparse_stats(100 + s) for s in SEEDS]
    d_counts = np.concatenate([c for c, _ in dense])
    s_counts = np.concatenate([c for c, _ in sparse])
    assert s_counts.mean() == pytest.approx(d_counts.mean(), rel=0.03)
    assert s_counts.std() == pytest.approx(d_counts.std(), rel=0.10)
    assert np.mean([p for _, p in sparse]) == pytest.approx(np.mean([p for _, p in dense]),
                                                            abs=0.01)


def test_same_seed_same_pairs_sorted_and_distinct():
    a = gen.planted_positives(seed=7, **SIZE)
    b = gen.planted_positives(seed=7, **SIZE)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    keys = a[0] * SIZE["m"] + a[1]
    assert (np.diff(keys) > 0).all()


def test_distinct_positions_are_uniform_subsets():
    rng = np.random.default_rng(0)
    lengths = np.array([5, 1, 0, 8])
    counts = np.array([3, 1, 0, 8])
    hits = np.zeros(5)
    for _ in range(4000):
        seg, pos = gen._distinct_positions(lengths, counts, rng)
        np.testing.assert_array_equal(np.bincount(seg, minlength=4), counts)
        assert (pos < lengths[seg]).all()
        np.testing.assert_array_equal(pos[seg == 3], np.arange(8))
        hits[pos[seg == 0]] += 1
    # each of the 5 positions is in a 3-subset with probability 3/5
    np.testing.assert_allclose(hits / 4000, 0.6, atol=0.04)


def test_social_graph_degree_and_homophily():
    groups = np.random.default_rng(1).integers(0, 8, size=2000)
    edges = gen.planted_social(groups, out_degree=20, homophily=0.8, seed=3)
    np.testing.assert_array_equal(np.bincount(edges[:, 0]), np.full(2000, 20))
    inside = np.mean(groups[edges[:, 0]] == groups[edges[:, 1]])
    # 80% drawn inside, plus the uniform draws that land inside by chance
    assert inside == pytest.approx(0.8 + 0.2 / 8, abs=0.01)
