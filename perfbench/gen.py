"""Seeded sparse inputs for the benchmark workloads.

The generator follows the generative story of ``walkrec.synth.planted_instance``
(users in latent groups, each group over-exposed to its own item pool, a click
needs exposure and preference, plus rare accidental clicks) but never builds
an n x m array: every user-pool segment draws its candidate items directly,
so memory and time are O(positives). It depends on nothing in ``walkrec``, so
a later change to the library cannot change the benchmark's inputs; it is
seeded only by the workload seed.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _distinct_positions(lengths: np.ndarray, counts: np.ndarray,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A uniform ``counts[s]``-subset of range(lengths[s]) for every segment s.

    Positions are drawn with replacement and only the shortfall left by
    duplicates is redrawn. Every step is symmetric in the positions of a
    segment, so the final set is a uniform subset of the requested size.
    Returns (segment, position) pairs sorted by segment, then position.
    """
    span = np.int64(lengths.max() if lengths.size else 1)
    keys = np.zeros(0, dtype=np.int64)
    need = counts.astype(np.int64)
    while need.any():
        seg = np.repeat(np.arange(lengths.shape[0], dtype=np.int64), need)
        pos = (rng.random(seg.shape[0]) * lengths[seg]).astype(np.int64)
        keys = np.sort(np.concatenate([keys, seg * span + pos]))
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        need = counts - np.bincount(keys // span, minlength=lengths.shape[0])
    return keys // span, keys % span


def planted_positives(n: int, m: int, d: int, groups: int, seed,
                      exposure_in: float = 0.35, exposure_out: float = 0.02,
                      accidental: float = 0.001, factor_scale: float = 1.2):
    """Positive (user, item) pairs of one planted-community instance.

    Each pair (u, i) clicks independently with probability
    r * sigmoid(p_u . q_i) + (1 - r) * accidental, where r is exposure_in
    when i sits in u's group pool and exposure_out otherwise: the law of
    ``planted_instance``. Candidates are drawn per (user, pool) segment at
    the bound r + (1 - r) * accidental and thinned to that probability.
    Returns (users, items, group_of_user, pool_of_item), pairs sorted by
    user, then item.
    """
    rng = np.random.default_rng(seed)
    group_of_user = rng.integers(0, groups, size=n)
    pool_of_item = rng.integers(0, groups, size=m)
    P = rng.normal(0.0, factor_scale / np.sqrt(d), size=(n, d))
    Q = rng.normal(0.0, factor_scale / np.sqrt(d), size=(m, d))
    pool_items = np.argsort(pool_of_item, kind="stable")
    pool_size = np.bincount(pool_of_item, minlength=groups)
    pool_start = np.concatenate([[0], np.cumsum(pool_size)[:-1]])
    # segment s = (user s // groups, pool s % groups)
    seg_user = np.repeat(np.arange(n, dtype=np.int64), groups)
    seg_pool = np.tile(np.arange(groups, dtype=np.int64), n)
    rate = np.where(group_of_user[seg_user] == seg_pool, exposure_in, exposure_out)
    bound = rate + (1.0 - rate) * accidental
    lengths = pool_size[seg_pool]
    seg, pos = _distinct_positions(lengths, rng.binomial(lengths, bound), rng)
    users = seg_user[seg]
    items = pool_items[pool_start[seg_pool[seg]] + pos]
    r = rate[seg]
    pref = _sigmoid(np.einsum("ij,ij->i", P[users], Q[items]))
    keep = rng.random(users.shape[0]) * bound[seg] < r * pref + (1.0 - r) * accidental
    order = np.lexsort((items[keep], users[keep]))
    return users[keep][order], items[keep][order], group_of_user, pool_of_item


def planted_social(group_of_user: np.ndarray, out_degree: int, homophily: float,
                   seed) -> np.ndarray:
    """Directed (source, target) edges: out_degree per user, each inside the
    user's group with probability homophily, else uniform over all users.

    Self-edges and duplicates are left for the loader to drop.
    """
    rng = np.random.default_rng(seed)
    n = group_of_user.shape[0]
    order = np.argsort(group_of_user, kind="stable")
    size = np.bincount(group_of_user)
    start = np.concatenate([[0], np.cumsum(size)[:-1]])
    src = np.repeat(np.arange(n, dtype=np.int64), out_degree)
    g = group_of_user[src]
    inside = order[start[g] + (rng.random(src.shape[0]) * size[g]).astype(np.int64)]
    anywhere = rng.integers(0, n, size=src.shape[0])
    tgt = np.where(rng.random(src.shape[0]) < homophily, inside, anywhere)
    return np.column_stack([src, tgt])


def write_raw_tsv(path: str, pairs: np.ndarray, left: str, right: str) -> None:
    """One ``<left><a>\\t<right><b>`` token line per row, as a raw log has."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{left}{a}\t{right}{b}\n" for a, b in pairs.tolist())
