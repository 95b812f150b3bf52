"""Parameterized user-to-user transition structures.

Two graph families share one interface. The social graph puts a learnable
logit on every directed friend edge; rows of the transition matrix W are
per-user softmaxes over out-edges. The pseudo graph has no explicit edges:
a user hops either through an item bridge (user -> consumed item -> that
item's consumer) or through one of K community bridges, mixed by a per-user
gate a_u = sigmoid(mix_logit_u), so

    W[u, v] = a_u * sum_i phi_ui * phi_iv + (1 - a_u) * sum_c phi_uc * phi_cv

with each phi block row-softmaxed. W is never materialized at scale: the
social W and the pseudo bridges (user->item UI, item->user IU) are scipy
CSR matrices, and both families expose apply_W / apply_WT that map a column
block (n x J) through W or its transpose in O(edges * J).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .corpus import InteractionMatrix, SocialEdges
from .errors import GuardError, ParseError
from .factors import sigmoid

GRAPH_MAGIC = b"PROPGRPH"
GRAPH_VERSION = 1
MODE_SOCIAL = 0
MODE_PSEUDO = 1


def segment_softmax(logits: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Stable softmax within each consecutive group of a flat array."""
    counts = np.diff(indptr)
    if logits.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    nz = counts > 0
    starts = indptr[:-1][nz]
    reps = counts[nz]
    out = logits - np.repeat(np.maximum.reduceat(logits, starts), reps)
    np.exp(out, out=out)
    out /= np.repeat(np.add.reduceat(out, starts), reps)
    return out


def segment_softmax_vjp(probs: np.ndarray, grad_probs: np.ndarray,
                        indptr: np.ndarray) -> np.ndarray:
    """Pull a gradient in probability space back to logit space, per group."""
    counts = np.diff(indptr)
    if probs.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    nz = counts > 0
    pg = probs * grad_probs
    dot = np.repeat(np.add.reduceat(pg, indptr[:-1][nz]), counts[nz])
    return pg - probs * dot


def row_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def row_softmax_vjp(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    pg = probs * grad_probs
    return pg - probs * pg.sum(axis=1, keepdims=True)


@dataclass
class SocialGraphParams:
    """Learnable state of the social transition graph."""

    edges: SocialEdges
    logits: np.ndarray

    @property
    def n(self) -> int:
        return self.edges.n


@dataclass
class PseudoGraphParams:
    """Learnable state of the pseudo transition graph.

    Topology is exactly the training matrix: one user->item logit per
    observed pair in user-grouped (CSR) order, one item->user logit per pair
    in item-grouped (CSC) order, plus dense user<->community logits and the
    per-user mixing logit.
    """

    train: InteractionMatrix
    K: int
    ui_logits: np.ndarray
    iu_logits: np.ndarray
    uc_logits: np.ndarray
    cu_logits: np.ndarray
    mix_logits: np.ndarray
    freeze_mix: bool = False

    @property
    def n(self) -> int:
        return self.train.n

    @property
    def m(self) -> int:
        return self.train.m


def build_social_graph(edges: SocialEdges, seed=0,
                       init_scale: float = 0.01) -> SocialGraphParams:
    rng = np.random.default_rng(seed)
    return SocialGraphParams(
        edges=edges,
        logits=rng.normal(0.0, init_scale, size=edges.n_edges),
    )


def build_pseudo_graph(train: InteractionMatrix, K: int = 32, seed=0,
                       init_scale: float = 0.01) -> PseudoGraphParams:
    if K < 1:
        raise ValueError("K must be at least 1")
    rng = np.random.default_rng(seed)
    nnz, n, m = train.nnz, train.n, train.m
    return PseudoGraphParams(
        train=train,
        K=K,
        ui_logits=rng.normal(0.0, init_scale, size=nnz),
        iu_logits=rng.normal(0.0, init_scale, size=nnz),
        uc_logits=rng.normal(0.0, init_scale, size=(n, K)),
        cu_logits=rng.normal(0.0, init_scale, size=(K, n)),
        mix_logits=np.zeros(n, dtype=np.float64),
    )


class SocialTransition:
    """Materialized row-stochastic social transition, frozen at one logit state."""

    kind = "social"

    def __init__(self, params: SocialGraphParams):
        self.params = params
        ed = params.edges
        self.n = ed.n
        self.indptr = ed.indptr
        self.targets = ed.targets
        self.src = np.repeat(np.arange(ed.n, dtype=np.int64), np.diff(ed.indptr))
        self.probs = segment_softmax(params.logits, ed.indptr)
        self.W = sparse.csr_array((self.probs, self.targets, self.indptr),
                                  shape=(ed.n, ed.n))

    def apply_W(self, G: np.ndarray) -> np.ndarray:
        return self.W @ G

    def apply_WT(self, G: np.ndarray) -> np.ndarray:
        return self.W.T @ G

    def transition_row(self, u: int) -> np.ndarray:
        return self.W[[u]].toarray()[0]


class PseudoTransition:
    """Materialized pseudo transition, frozen at one logit state.

    ``a`` is forced to 0 for users with no training positives so that their
    item-bridge softmax (which is empty) is never consulted.
    """

    kind = "pseudo"

    def __init__(self, params: PseudoGraphParams):
        self.params = params
        tr = params.train
        self.n, self.m, self.K = tr.n, tr.m, params.K
        self.ui_indptr = tr.row_indptr
        self.ui_items = tr.row_items
        self.ui_users = tr.row_users
        self.iu_indptr = tr.col_indptr
        self.iu_users = tr.col_users
        self.iu_items = tr.col_items
        self.ui_probs = segment_softmax(params.ui_logits, self.ui_indptr)
        self.iu_probs = segment_softmax(params.iu_logits, self.iu_indptr)
        self.uc_probs = row_softmax(params.uc_logits)
        self.cu_probs = row_softmax(params.cu_logits)
        self.a = sigmoid(params.mix_logits)
        self.forced = tr.row_counts == 0
        self.a[self.forced] = 0.0
        self.UI = sparse.csr_array((self.ui_probs, self.ui_items, self.ui_indptr),
                                   shape=(self.n, self.m))
        self.IU = sparse.csr_array((self.iu_probs, self.iu_users, self.iu_indptr),
                                   shape=(self.m, self.n))

    def apply_W_parts(self, G: np.ndarray):
        """W G along with the bridge intermediates needed for backprop."""
        s = self.IU @ G
        mi = self.UI @ s
        tc = self.cu_probs @ G
        mc = self.uc_probs @ tc
        out = self.a[:, None] * mi + (1.0 - self.a)[:, None] * mc
        return out, (s, tc, mi, mc)

    def apply_W(self, G: np.ndarray) -> np.ndarray:
        return self.apply_W_parts(G)[0]

    def apply_WT(self, G: np.ndarray) -> np.ndarray:
        v = self.UI.T @ (self.a[:, None] * G)
        t = self.uc_probs.T @ ((1.0 - self.a)[:, None] * G)
        return self.IU.T @ v + self.cu_probs.T @ t

    def transition_row(self, u: int) -> np.ndarray:
        row = (1.0 - self.a[u]) * (self.uc_probs[u] @ self.cu_probs)
        row += self.a[u] * (self.UI[[u]] @ self.IU).toarray()[0]
        return row


def normalize_edges(params):
    """Fold the current logits into a frozen transition object."""
    if isinstance(params, SocialGraphParams):
        return SocialTransition(params)
    if isinstance(params, PseudoGraphParams):
        return PseudoTransition(params)
    raise TypeError(f"not a graph parameter object: {type(params).__name__}")


def dense_transition(graph, max_cells: int = 10_000_000) -> np.ndarray:
    """Materialize W row by row. Guarded; for oracles and small tests only."""
    if isinstance(graph, (SocialGraphParams, PseudoGraphParams)):
        graph = normalize_edges(graph)
    if graph.n * graph.n > max_cells:
        raise GuardError(f"dense transition of {graph.n} users exceeds {max_cells} cells")
    return np.stack([graph.transition_row(u) for u in range(graph.n)])


def save_graph(path: str, params) -> None:
    """Write the graph logits checkpoint; topology is not stored."""
    with open(path, "wb") as fh:
        fh.write(GRAPH_MAGIC)
        if isinstance(params, SocialGraphParams):
            fh.write(struct.pack("<6Q", GRAPH_VERSION, MODE_SOCIAL,
                                 params.n, 0, 0, params.edges.n_edges))
            fh.write(np.ascontiguousarray(params.logits, dtype="<f8").tobytes())
        elif isinstance(params, PseudoGraphParams):
            fh.write(struct.pack("<6Q", GRAPH_VERSION, MODE_PSEUDO,
                                 params.n, params.m, params.K, params.train.nnz))
            for arr in (params.ui_logits, params.iu_logits, params.uc_logits,
                        params.cu_logits, params.mix_logits):
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        else:
            raise TypeError(f"not a graph parameter object: {type(params).__name__}")


def load_graph(path: str, train: InteractionMatrix | None = None,
               social: SocialEdges | None = None):
    """Rebuild graph params from a checkpoint plus the defining topology.

    Social checkpoints need ``social``; pseudo checkpoints need ``train``.
    Array sizes are validated against the supplied topology.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    header = len(GRAPH_MAGIC) + 48
    if len(blob) < header or blob[:len(GRAPH_MAGIC)] != GRAPH_MAGIC:
        raise ParseError(path, 0, "not a graph checkpoint")
    version, mode, n, m, k, count = struct.unpack(
        "<6Q", blob[len(GRAPH_MAGIC):header])
    if version != GRAPH_VERSION:
        raise ParseError(path, 0, f"unsupported checkpoint version {version}")
    flat = np.frombuffer(blob, dtype="<f8", offset=header).astype(np.float64)
    if mode == MODE_SOCIAL:
        if social is None:
            raise ValueError("social topology required to load a social checkpoint")
        if social.n != n or social.n_edges != count:
            raise ParseError(path, 0, "checkpoint does not match social topology")
        if flat.shape[0] != count:
            raise ParseError(path, 0, "truncated social checkpoint")
        return SocialGraphParams(edges=social, logits=flat.copy())
    if mode == MODE_PSEUDO:
        if train is None:
            raise ValueError("train matrix required to load a pseudo checkpoint")
        if (train.n, train.m, train.nnz) != (n, m, count):
            raise ParseError(path, 0, "checkpoint does not match train matrix")
        want = 2 * count + 2 * n * k + n
        if flat.shape[0] != want:
            raise ParseError(path, 0, "truncated pseudo checkpoint")
        params = build_pseudo_graph(train, K=int(k), seed=0)
        pos = 0
        for name, shape in (("ui_logits", (count,)), ("iu_logits", (count,)),
                            ("uc_logits", (n, k)), ("cu_logits", (k, n)),
                            ("mix_logits", (n,))):
            size = int(np.prod(shape))
            setattr(params, name, flat[pos:pos + size].reshape(shape).copy())
            pos += size
        return params
    raise ParseError(path, 0, f"unknown graph mode {mode}")
