"""Informative and baseline samplers over the user-item pair universe.

The walk sampler draws training pairs with frequency proportional to the
propagated confidence weights, without ever computing them: a walk starts at
user u, hops through the transition graph (continue with probability c, stop
with 1 - c), and on stopping at user v emits each of v's positive items
independently with probability 1/beta as a training pair (u, i, x_ui). Walks
that would exceed t_m transitions jump to a uniform user and stop, which
keeps every walk O(t_m) and every pair reachable. The expected emission
count of pair (u, i) over one walk is gamma_trunc[u, i] / beta (see
oracle.dense_gamma_truncated), so a batch of alpha walks per user turns
`(beta / alpha) * sum over batch` into an unbiased estimate of the full
confidence-weighted gradient.

Four baseline samplers over the same universe draw iid pairs from fixed
distributions; each reports exact per-pair probabilities so importance
weighting can correct them back to the same target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import factors
from .corpus import InteractionMatrix
from .errors import ConfigError, EstimatorError
from .graphnet import normalize_edges

BASELINE_KINDS = ("allunion", "balunion", "itempop", "cobias")


@dataclass
class SamplerConfig:
    alpha: int = 100
    beta: float = 20.0
    c: float = 0.9
    t_m: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("beta", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.alpha < 1:
            raise ConfigError("alpha must be at least 1")
        if self.beta < 1:
            raise ConfigError("beta must be at least 1")
        if not 0.0 <= self.c < 1.0:
            raise ConfigError("c must lie in [0, 1)")
        if self.t_m < 0:
            raise ConfigError("t_m must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class SampleBatch:
    """Training pairs drawn by a sampler.

    expected_scale relates the batch to the full-sum target: for walk
    batches, scale * sum of per-pair gradients is unbiased for the
    confidence-weighted full gradient; for baseline batches it is 1/size and
    entries carry their exact draw probabilities in ``probs``.
    """

    users: np.ndarray
    items: np.ndarray
    labels: np.ndarray
    expected_scale: float
    probs: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.users.shape[0])


class _OriginLabeler:
    """x_ui for pairs whose users are non-decreasing, by table lookup.

    Pairs are cut into spans of at most max(1, 8 * PAIR_DOT_CELLS // m)
    consecutive user ids; a span's rows are scattered into a dense uint8
    table (at most 8 * PAIR_DOT_CELLS bytes, 512 KB, or one row of m
    bytes), its pairs gathered from it, and the same cells cleared for the
    next span. Pairs whose users are out of order are labeled by
    InteractionMatrix.labels.
    """

    def __init__(self, X: InteractionMatrix):
        self.X = X
        self.span = max(1, 8 * factors.PAIR_DOT_CELLS // max(1, X.m))
        self.table = np.zeros(min(self.span, X.n) * X.m, dtype=np.uint8)

    def __call__(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        X, m = self.X, self.X.m
        if (users[1:] < users[:-1]).any():
            return X.labels(users, items)
        users = np.asarray(users, dtype=np.int64)
        out = np.empty(users.shape[0], dtype=np.uint8)
        lo = 0
        while lo < users.shape[0]:
            u0 = users[lo]
            hi = lo + int(np.searchsorted(users[lo:], u0 + self.span))
            a, b = X.row_indptr[u0], X.row_indptr[users[hi - 1] + 1]
            cells = (X.row_users[a:b] - u0) * m + X.row_items[a:b]
            self.table[cells] = 1
            out[lo:hi] = self.table[(users[lo:hi] - u0) * m + items[lo:hi]]
            self.table[cells] = 0
            lo = hi
        return out


class WalkEngine:
    """Vectorized depth-limited walks with positive-item emission."""

    def __init__(self, graph, X: InteractionMatrix, cfg: SamplerConfig):
        self.mat = normalize_edges(graph)
        self.X = X
        self.cfg = cfg
        self.n = self.mat.n
        self.last_transition_steps = 0

    def stop_users(self, origins: np.ndarray, rng: np.random.Generator
                   ) -> np.ndarray:
        """Terminal user of one walk per origin; counts transition steps."""
        stops = np.empty(origins.shape[0], dtype=np.int64)
        alive = np.arange(origins.shape[0], dtype=np.int64)
        v = origins.astype(np.int64, copy=True)
        self.last_transition_steps = 0
        for depth in range(self.cfg.t_m + 1):
            halt = rng.random(alive.shape[0]) >= self.cfg.c
            stops[alive[halt]] = v[halt]
            alive, v = alive[~halt], v[~halt]
            if alive.size == 0:
                break
            if depth == self.cfg.t_m:
                # would exceed the depth cap: jump to a uniform user and stop
                stops[alive] = rng.integers(0, self.n, size=alive.shape[0])
                break
            v = self.mat.step(v, rng)
            self.last_transition_steps += int(v.shape[0])
        return stops

    def emit(self, origins: np.ndarray, stops: np.ndarray,
             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin each stop user's positives at 1/beta, labeled at the origin.

        Walk w's candidates are its stop user's positives, laid end to end
        walk after walk; one uniform draw per candidate decides which are
        kept. The uniforms are drawn factors.PAIR_DOT_CELLS at a time, the
        same stream as one draw of all of them, and a block labels each of
        its candidates with its walk by repeating the ids of the walks that
        overlap it, instead of searching for the walk of each kept position.
        Each block keeps only the walk and the row_items position of its
        kept candidates, in 32-bit ids where they fit; once every block is
        drawn the count is known, the per-walk arrays are freed, and the
        users, items and labels are written block by block into arrays of
        exactly that size. Memory follows the block and the kept pairs, not
        the candidate count.
        """
        X = self.X
        # walk w's candidates are positions bounds[w] to bounds[w + 1]
        # (filled in place: mode="clip" takes into out without a buffer)
        bounds = np.zeros(stops.shape[0] + 1, dtype=np.int64)
        np.take(X.row_counts, stops, out=bounds[1:], mode="clip")
        np.cumsum(bounds, out=bounds)
        starts, ends, total = bounds[:-1], bounds[1:], int(bounds[-1])
        # candidate position p of walk w sits at row_items[base[w] + p]
        base = X.row_indptr[stops]
        base -= starts
        ids = np.int32 if max(X.nnz, stops.shape[0]) < 2**31 else np.int64
        block = factors.PAIR_DOT_CELLS
        kept = []
        for lo in range(0, total, block):
            hi = min(lo + block, total)
            keep = np.flatnonzero(rng.random(hi - lo) < 1.0 / self.cfg.beta)
            w0 = int(np.searchsorted(ends, lo, side="right"))
            w1 = int(np.searchsorted(starts, hi, side="left"))
            # each overlapping walk's candidates inside [lo, hi)
            clipped = np.minimum(ends[w0:w1], hi) - np.maximum(starts[w0:w1], lo)
            walk = np.repeat(np.arange(w0, w1, dtype=ids), clipped)[keep]
            kept.append((walk, (base[walk] + (keep + lo)).astype(ids)))
        del bounds, starts, ends, base
        size = sum(walk.shape[0] for walk, _ in kept)
        users = np.empty(size, dtype=origins.dtype)
        items = np.empty(size, dtype=X.row_items.dtype)
        labels = np.empty(size, dtype=np.uint8)
        labeler = _OriginLabeler(X)
        a = 0
        for walk, at in kept:
            b = a + walk.shape[0]
            users[a:b] = origins[walk]
            items[a:b] = X.row_items[at]
            labels[a:b] = labeler(users[a:b], items[a:b])
            a = b
        return users, items, labels

    def sample_batch(self, rng: np.random.Generator) -> SampleBatch:
        """alpha walks per user, all emissions concatenated, every draw from
        the caller's rng."""
        origins = np.repeat(np.arange(self.n, dtype=np.int64), self.cfg.alpha)
        stops = self.stop_users(origins, rng)
        users, items, labels = self.emit(origins, stops, rng)
        return SampleBatch(users=users, items=items, labels=labels,
                           expected_scale=self.cfg.beta / self.cfg.alpha)


class AliasTable:
    """Constant-time draws from a fixed discrete distribution."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] == 0:
            raise ValueError("weights must be a nonempty vector")
        if (w < 0).any() or w.sum() <= 0:
            raise ValueError("weights must be nonnegative with positive sum")
        k = w.shape[0]
        scaled = w * (k / w.sum())
        prob = np.ones(k, dtype=np.float64)
        alias = np.arange(k, dtype=np.int64)
        small = [i for i in range(k) if scaled[i] < 1.0]
        large = [i for i in range(k) if scaled[i] >= 1.0]
        while small and large:
            s, l = small.pop(), large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] -= 1.0 - scaled[s]
            (small if scaled[l] < 1.0 else large).append(l)
        self.prob, self.alias = prob, alias
        self.k = k

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = rng.integers(0, self.k, size=size)
        accept = rng.random(size) < self.prob[idx]
        return np.where(accept, idx, self.alias[idx])


def _nth_missing(sorted_present: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """rank-th smallest integer absent from sorted_present, vectorized."""
    gaps = sorted_present - np.arange(sorted_present.shape[0])
    return ranks + np.searchsorted(gaps, ranks, side="right")


def _uniform_missing(keys: np.ndarray, universe: int, counts: np.ndarray,
                     present, rng: np.random.Generator) -> np.ndarray:
    """For each key, a uniform id in range(universe) absent from the sorted
    ids present(key), of which there are counts[key]. One uniform per key,
    drawn in key order."""
    out = np.empty(keys.shape[0], dtype=np.int64)
    ranks = (rng.random(keys.shape[0]) * (universe - counts[keys])).astype(np.int64)
    for key in np.unique(keys):
        sel = keys == key
        out[sel] = _nth_missing(present(key), ranks[sel])
    return out


class BaselineSampler:
    """Fixed iid pair distributions with exact per-pair probabilities.

    All four kinds put mass 1/2 on the positive class and 1/2 on the zero
    class (allunion excepted: fully uniform over the n*m universe), then
    spread each class's mass as:

      allunion  uniform over all pairs
      balunion  uniform within each class
      itempop   ones uniform; zero pair (u, i) proportional to item i's
                positive count
      cobias    pair (u, i) proportional to (count of u's opposite-class
                pairs) * (count of i's opposite-class pairs)
    """

    def __init__(self, kind: str, X: InteractionMatrix):
        if kind not in BASELINE_KINDS:
            raise ValueError(f"unknown sampler kind {kind!r}")
        self.kind = kind
        self.X = X
        n, m, nnz = X.n, X.m, X.nnz
        self.n_zero = n * m - nnz
        if nnz == 0:
            raise EstimatorError("no positive pairs to sample")
        rc = X.row_counts.astype(np.float64)
        cc = X.col_counts.astype(np.float64)
        if kind == "allunion":
            return
        if self.n_zero == 0:
            raise EstimatorError(f"{kind}: zero class is empty")
        if kind == "balunion":
            self._zero_user = AliasTable(m - rc)
        elif kind == "itempop":
            w = (n - cc) * cc
            if w.sum() <= 0:
                raise EstimatorError("itempop: zero class has no mass")
            self._zero_item = AliasTable(w)
            self._z0 = w.sum()
        elif kind == "cobias":
            w1 = (m - rc)[X.row_users] * (n - cc)[X.row_items]
            if w1.sum() <= 0:
                raise EstimatorError("cobias: positive class has no mass")
            self._one_pair = AliasTable(w1)
            self._z1 = w1.sum()
            total_cc = cc.sum()
            # sum of c_i over u's positives
            owned = np.bincount(X.row_users, weights=cc[X.row_items],
                                minlength=n)
            w0 = rc * (total_cc - owned)
            if w0.sum() <= 0:
                raise EstimatorError("cobias: zero class has no mass")
            self._zero_user = AliasTable(w0)
            self._z0 = w0.sum()
            self._item_pop = AliasTable(cc)
            self._cc = cc

    def prob(self, users, items) -> np.ndarray:
        """Exact draw probability of each (user, item) pair."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        X = self.X
        n, m, nnz = X.n, X.m, X.nnz
        x = X.labels(users, items).astype(bool)
        out = np.empty(users.shape[0], dtype=np.float64)
        if self.kind == "allunion":
            out[:] = 1.0 / (n * m)
            return out
        if self.kind == "balunion":
            out[x] = 0.5 / nnz
            out[~x] = 0.5 / self.n_zero
            return out
        cc = X.col_counts.astype(np.float64)
        if self.kind == "itempop":
            out[x] = 0.5 / nnz
            out[~x] = 0.5 * cc[items[~x]] / self._z0
            return out
        rc = X.row_counts.astype(np.float64)
        w1 = (m - rc[users]) * (n - cc[items])
        w0 = rc[users] * cc[items]
        out[x] = 0.5 * w1[x] / self._z1
        out[~x] = 0.5 * w0[~x] / self._z0
        return out

    def sample(self, size: int, rng: np.random.Generator) -> SampleBatch:
        if size < 1:
            raise ValueError("size must be at least 1")
        X = self.X
        n, m, nnz = X.n, X.m, X.nnz
        users = np.empty(size, dtype=np.int64)
        items = np.empty(size, dtype=np.int64)
        if self.kind == "allunion":
            users[:] = rng.integers(0, n, size=size)
            items[:] = rng.integers(0, m, size=size)
        else:
            ones = rng.random(size) < 0.5
            k1 = int(ones.sum())
            users[ones], items[ones] = self._sample_ones(k1, rng)
            users[~ones], items[~ones] = self._sample_zeros(size - k1, rng)
        labels = X.labels(users, items)
        return SampleBatch(users=users, items=items, labels=labels,
                           expected_scale=1.0 / size,
                           probs=self.prob(users, items))

    def _sample_ones(self, k: int, rng: np.random.Generator):
        X = self.X
        if k == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        if self.kind == "cobias":
            e = self._one_pair.draw(rng, k)
        else:
            e = rng.integers(0, X.nnz, size=k)
        return X.row_users[e], X.row_items[e]

    def _sample_zeros(self, k: int, rng: np.random.Generator):
        X = self.X
        if k == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        if self.kind == "balunion":
            users = self._zero_user.draw(rng, k)
            return users, _uniform_missing(users, X.m, X.row_counts, X.row, rng)
        if self.kind == "itempop":
            items = self._zero_item.draw(rng, k)
            return _uniform_missing(items, X.n, X.col_counts, X.col, rng), items
        # cobias: user by row weight, then item by popularity among the
        # user's non-positives via rejection against the global table
        users = self._zero_user.draw(rng, k)
        items = np.empty(k, dtype=np.int64)
        todo = np.arange(k)
        for _ in range(200):
            cand = self._item_pop.draw(rng, todo.shape[0])
            ok = X.labels(users[todo], cand) == 0
            items[todo[ok]] = cand[ok]
            todo = todo[~ok]
            if todo.size == 0:
                break
        for j in todo:  # pathological rows: enumerate exactly
            u = users[j]
            w = self._cc.copy()
            w[X.row(u)] = 0.0
            items[j] = AliasTable(w).draw(rng, 1)[0]
        return users, items
